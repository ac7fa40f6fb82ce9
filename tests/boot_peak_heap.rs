//! Peak live heap of training one engine shard at the size a 4-shard,
//! 65536-segment server boots with (16384 × 64 B per shard).
//!
//! Training samples at most `train_sample_cap` segments before
//! featurising them, and classification featurises the pool in fixed
//! row blocks, so the transient f32 feature buffers are bounded by the
//! sample cap and the block size, not by the pool. Featurising the
//! whole pool (16384 × 512 f32 = 32 MiB per matrix) would blow through
//! the bound below several times over.
//!
//! This file is its own test binary because it installs a counting
//! global allocator, and it holds a single test so no other test's
//! allocations interleave with the measurement.

use e2nvm::core::E2Engine;
use e2nvm::server::demo::demo_config;
use e2nvm::sim::{DeviceConfig, LogicalSegment, MemoryController, NvmDevice};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The system allocator, counting live bytes and their high-water mark.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let now = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(now, Ordering::Relaxed);
}

fn shrank(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            if new_size > layout.size() {
                grew(new_size - layout.size());
            } else {
                shrank(layout.size() - new_size);
            }
        }
        p
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

const SEGMENTS: usize = 16384;
const SEG_BYTES: usize = 64;
/// Peak live heap allowed for building, seeding and training the shard,
/// device included (the device itself holds 1 MiB of contents).
const PEAK_BOUND: usize = 12 << 20;

#[test]
fn training_a_large_shard_keeps_peak_heap_bounded() {
    let baseline = LIVE.load(Ordering::Relaxed);
    PEAK.store(baseline, Ordering::Relaxed);

    let device = NvmDevice::new(
        DeviceConfig::builder()
            .segment_bytes(SEG_BYTES)
            .num_segments(SEGMENTS)
            .build()
            .unwrap(),
    );
    let mut controller = MemoryController::without_wear_leveling(device);
    // The demo server's two content families: mostly-0x00 and
    // mostly-0xFF images.
    let mut rng = StdRng::seed_from_u64(7);
    let mut content = vec![0u8; SEG_BYTES];
    for i in 0..SEGMENTS {
        let base = if i % 2 == 0 { 0x00u8 } else { 0xFF };
        for b in &mut content {
            *b = if rng.gen::<f32>() < 0.05 { !base } else { base };
        }
        controller.seed(LogicalSegment(i), &content).unwrap();
    }
    let mut engine = E2Engine::new(controller, demo_config(SEG_BYTES, 7)).unwrap();
    engine.train().unwrap();

    let peak = PEAK.load(Ordering::Relaxed) - baseline;
    assert!(engine.is_trained());
    assert_eq!(engine.free_count(), SEGMENTS);
    assert!(
        peak < PEAK_BOUND,
        "peak live heap {:.1} MiB over the {} MiB bound",
        peak as f64 / (1 << 20) as f64,
        PEAK_BOUND >> 20
    );
}
