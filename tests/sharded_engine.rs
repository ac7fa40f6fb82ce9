//! Integration tests for the sharded serving engine: cross-shard
//! correctness under concurrency, per-key consistency, scan merging,
//! scan read conservation (one device read per returned record), and
//! the stats-aggregation property (merged shard stats must equal a
//! single engine's stats for the same write sequence routed to one
//! shard).

use e2nvm::core::{E2Config, E2Engine, PaddingType, ShardedEngine};
use e2nvm::kvstore::{NvmKvStore, ShardedE2KvStore};
use e2nvm::persist::{FlushPolicy, PersistenceConfig};
use e2nvm::sim::{partition_controllers, DeviceConfig, LogicalSegment, MemoryController};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::sync::mpsc;
use std::time::Duration;

const SEG_BYTES: usize = 32;

fn test_config() -> E2Config {
    E2Config::builder()
        .fast(SEG_BYTES, 2)
        .pretrain_epochs(4)
        .joint_epochs(1)
        // No background retraining: keeps placement deterministic so the
        // stats property below is exact.
        .retrain_min_free(0)
        .padding_type(PaddingType::Zero)
        .build()
        .unwrap()
}

/// Seed a shard's pool with two content families from a per-shard RNG
/// stream, so shard `i` of a partitioned device has the same resident
/// content as a standalone device built with `seed_pool(mc, 100 + i)`.
fn seed_pool(mc: &mut MemoryController, stream: u64) {
    let mut rng = StdRng::seed_from_u64(stream);
    for i in 0..mc.num_segments() {
        let base = if i % 2 == 0 { 0x00u8 } else { 0xFF };
        let content: Vec<u8> = (0..SEG_BYTES)
            .map(|_| if rng.gen::<f32>() < 0.05 { !base } else { base })
            .collect();
        mc.seed(LogicalSegment(i), &content).unwrap();
    }
}

fn sharded(num_shards: usize, total_segments: usize) -> ShardedEngine {
    let dev_cfg = DeviceConfig::builder()
        .segment_bytes(SEG_BYTES)
        .num_segments(total_segments)
        .build()
        .unwrap();
    let controllers: Vec<MemoryController> = partition_controllers(&dev_cfg, num_shards)
        .unwrap()
        .into_iter()
        .enumerate()
        .map(|(i, (_, mut mc))| {
            seed_pool(&mut mc, 100 + i as u64);
            mc
        })
        .collect();
    ShardedEngine::train(controllers, &test_config()).unwrap()
}

/// Two-family values keyed by parity, so placement always has a close
/// cluster and neither cluster drains.
fn value_for(key: u64, tag: u8) -> Vec<u8> {
    let base = if key % 2 == 0 { 0x00u8 } else { 0xFF };
    let mut v = vec![base; 24];
    v[0] = tag;
    v
}

#[test]
fn concurrent_disjoint_writers_read_their_own_writes() {
    let engine = sharded(4, 256);
    let threads: Vec<_> = (0..8u64)
        .map(|t| {
            let e = engine.clone();
            std::thread::spawn(move || {
                for i in 0..20u64 {
                    let key = t * 1000 + i;
                    e.put(key, &value_for(key, t as u8)).unwrap();
                    // Read-your-writes must hold per key regardless of
                    // which shard the key landed on.
                    assert_eq!(e.get(key).unwrap(), value_for(key, t as u8));
                    if i % 4 == 0 {
                        assert!(e.delete(key).unwrap());
                    }
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    assert_eq!(engine.len(), 8 * 15);
    for t in 0..8u64 {
        for i in 0..20u64 {
            let key = t * 1000 + i;
            if i % 4 == 0 {
                assert!(engine.get(key).is_err());
            } else {
                assert_eq!(engine.get(key).unwrap(), value_for(key, t as u8));
            }
        }
    }
}

#[test]
fn concurrent_same_key_writes_stay_atomic() {
    // All threads hammer one key: every read must observe one of the
    // written values in full (the key's shard serialises the writes),
    // never a torn or stale-length value.
    let engine = sharded(4, 128);
    let key = 42u64;
    engine.put(key, &value_for(key, 0xEE)).unwrap();
    let threads: Vec<_> = (0..4u8)
        .map(|t| {
            let e = engine.clone();
            std::thread::spawn(move || {
                for _ in 0..15 {
                    e.put(key, &value_for(key, t)).unwrap();
                    let got = e.get(key).unwrap();
                    assert_eq!(got.len(), 24);
                    assert!(got[0] == 0xEE || got[0] < 4, "torn tag {}", got[0]);
                    assert!(got[1..].iter().all(|&b| b == 0x00), "torn body");
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    assert_eq!(engine.len(), 1);
    // Exactly one segment is held: updates recycled their predecessors.
    assert_eq!(engine.free_count(), 128 - 1);
}

#[test]
fn scan_merges_across_shards_in_key_order() {
    let engine = sharded(3, 192);
    let keys = [44u64, 2, 17, 90, 33, 8, 61, 25];
    for &k in &keys {
        engine.put(k, &value_for(k, 1)).unwrap();
    }
    let got: Vec<u64> = engine
        .scan(5, 70)
        .unwrap()
        .into_iter()
        .map(|(k, _)| k)
        .collect();
    assert_eq!(got, vec![8, 17, 25, 33, 44, 61]);
}

#[test]
fn sharded_matches_shadow_map_under_mixed_ops() {
    let engine = sharded(4, 256);
    let mut shadow: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
    let mut rng = StdRng::seed_from_u64(9);
    for op in 0..500 {
        let key = rng.gen_range(0..48u64);
        match rng.gen_range(0..10) {
            0..=5 => {
                let v = value_for(key, rng.gen());
                engine.put(key, &v).unwrap();
                shadow.insert(key, v);
            }
            6..=7 => match shadow.get(&key) {
                Some(v) => assert_eq!(&engine.get(key).unwrap(), v, "op {op}"),
                None => assert!(engine.get(key).is_err(), "op {op}"),
            },
            8 => {
                assert_eq!(
                    engine.delete(key).unwrap(),
                    shadow.remove(&key).is_some(),
                    "op {op}"
                );
            }
            _ => {
                let lo = key.saturating_sub(10);
                let got: Vec<u64> = engine
                    .scan(lo, key)
                    .unwrap()
                    .into_iter()
                    .map(|(k, _)| k)
                    .collect();
                let expect: Vec<u64> = shadow.range(lo..=key).map(|(&k, _)| k).collect();
                assert_eq!(got, expect, "op {op}");
            }
        }
    }
    assert_eq!(engine.len(), shadow.len());
}

/// Conservation: a scan charges exactly one device read per record it
/// returns — no shard reads values that lose the cross-shard merge —
/// and returns exactly the oracle's first `limit` entries of the range.
#[test]
fn scan_reads_exactly_the_records_it_returns() {
    for shards in [1usize, 2, 4, 8] {
        let engine = sharded(shards, 256);
        let mut oracle: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
        let mut rng = StdRng::seed_from_u64(shards as u64);
        for _ in 0..140 {
            let key = rng.gen_range(0..160u64);
            if rng.gen_range(0..5) == 0 {
                assert_eq!(engine.delete(key).unwrap(), oracle.remove(&key).is_some());
            } else {
                let v = value_for(key, rng.gen());
                engine.put(key, &v).unwrap();
                oracle.insert(key, v);
            }
        }
        for case in 0..48 {
            let (a, b) = (rng.gen_range(0..170u64), rng.gen_range(0..170u64));
            let (lo, hi) = (a.min(b), a.max(b));
            let limit = match case {
                0 => usize::MAX,
                1 => 0,
                _ => rng.gen_range(1..40usize),
            };
            let reads = engine.device_stats().reads;
            let got = engine.scan_limit(lo, hi, limit).unwrap();
            let charged = engine.device_stats().reads - reads;
            assert_eq!(
                charged,
                got.len() as u64,
                "shards={shards} scan({lo}, {hi}, {limit}) read {charged} for {} records",
                got.len()
            );
            let expect: Vec<(u64, Vec<u8>)> = oracle
                .range(lo..=hi)
                .take(limit)
                .map(|(k, v)| (*k, v.clone()))
                .collect();
            assert_eq!(got, expect, "shards={shards} scan({lo}, {hi}, {limit})");
        }
        let reads = engine.device_stats().reads;
        assert_eq!(engine.scan(0, u64::MAX).unwrap().len(), oracle.len());
        assert_eq!(engine.device_stats().reads - reads, oracle.len() as u64);
    }
}

/// Two writers and a scanner on a persistence-enabled store: the scan
/// holds every shard's engine lock while writers take WAL → engine (and
/// the periodic snapshot takes every WAL, then each engine), so this
/// must finish without deadlock; every scan must come back strictly
/// ascending, inside its range and no longer than its limit.
#[test]
fn concurrent_writers_and_scanner_on_a_persistent_store() {
    let dir = std::env::temp_dir().join(format!("e2nvm_scan_concurrency_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let cfg = PersistenceConfig::builder()
        .data_dir(&dir)
        .flush_policy(FlushPolicy::OsOnly)
        .snapshot_every_ops(25)
        .build()
        .unwrap();
    let store = ShardedE2KvStore::new(sharded(4, 256))
        .with_persistence(cfg, None)
        .unwrap();

    let (done_tx, done_rx) = mpsc::channel::<&'static str>();
    let writing = std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(2));
    let mut threads = Vec::new();
    for t in 0..2u64 {
        let mut s = store.clone();
        let (done, writing) = (done_tx.clone(), writing.clone());
        threads.push(std::thread::spawn(move || {
            for i in 0..60u64 {
                let key = t * 64 + i % 40;
                if i % 5 == 4 {
                    s.delete(key).unwrap();
                } else {
                    s.put(key, &value_for(key, i as u8)).unwrap();
                }
                s.commit().unwrap();
            }
            writing.fetch_sub(1, std::sync::atomic::Ordering::SeqCst);
            done.send("writer").unwrap();
        }));
    }
    {
        let mut s = store.clone();
        let done = done_tx.clone();
        threads.push(std::thread::spawn(move || {
            let mut rng = StdRng::seed_from_u64(17);
            let mut scans = 0;
            while writing.load(std::sync::atomic::Ordering::SeqCst) > 0 || scans < 20 {
                let lo = rng.gen_range(0..128u64);
                let hi = lo + rng.gen_range(0..64u64);
                let limit = rng.gen_range(1..24usize);
                let got = s.scan_limit(lo, hi, limit).unwrap();
                assert!(
                    got.len() <= limit,
                    "scan({lo}, {hi}, {limit}) returned {}",
                    got.len()
                );
                assert!(got.iter().all(|&(k, _)| (lo..=hi).contains(&k)));
                assert!(
                    got.windows(2).all(|w| w[0].0 < w[1].0),
                    "not strictly ascending"
                );
                scans += 1;
            }
            done.send("scanner").unwrap();
        }));
    }
    drop(done_tx);
    for _ in 0..3 {
        done_rx
            .recv_timeout(Duration::from_secs(300))
            .expect("writers and scanner finish: no deadlock");
    }
    for t in threads {
        t.join().unwrap();
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Build the single-engine twin of shard 0 of `sharded(num_shards, total)`:
/// same pool content, same config and seed, so placements are
/// bit-identical as long as no background retraining fires.
fn shard0_twin(num_shards: usize, total_segments: usize) -> E2Engine {
    let ranges = e2nvm::sim::partition_segments(total_segments, num_shards).unwrap();
    let dev_cfg = DeviceConfig::builder()
        .segment_bytes(SEG_BYTES)
        .num_segments(ranges[0].len)
        .build()
        .unwrap();
    let mut mc = MemoryController::without_wear_leveling(e2nvm::sim::NvmDevice::new(dev_cfg));
    seed_pool(&mut mc, 100);
    let mut engine = E2Engine::new(mc, test_config()).unwrap();
    engine.train().unwrap();
    engine
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The tentpole aggregation property: for a write sequence whose
    /// keys all route to shard 0, the ShardedEngine's *merged* stats
    /// (device counters and prediction counts summed over all shards)
    /// equal a standalone engine's stats for the same sequence.
    #[test]
    fn merged_shard_stats_equal_single_engine_stats(
        ops in proptest::collection::vec((0u8..10, 0u64..12, any::<u8>()), 1..36),
    ) {
        const SHARDS: usize = 4;
        const SEGMENTS: usize = 128;
        let sharded = sharded(SHARDS, SEGMENTS);
        let mut single = shard0_twin(SHARDS, SEGMENTS);

        // Map each abstract key to a concrete key that routes to shard 0
        // (probing is deterministic, so both sides see the same keys).
        let key_on_shard0 = |base: u64| -> u64 {
            (0..).map(|i| base + 12 * i).find(|&k| sharded.shard_for(k) == 0).unwrap()
        };

        for &(op, base, tag) in &ops {
            let key = key_on_shard0(base);
            if op < 7 {
                let v = value_for(key, tag);
                let a = sharded.put(key, &v).unwrap();
                let b = single.put(key, &v).unwrap();
                prop_assert_eq!(a.bits_flipped, b.bits_flipped);
                prop_assert_eq!(a.lines_written, b.lines_written);
            } else {
                prop_assert_eq!(sharded.delete(key).unwrap(), single.delete(key).unwrap());
            }
        }

        // Precondition for exactness: no background model swap happened
        // (retrain_min_free = 0 and two-family traffic keep every
        // cluster populated).
        prop_assert_eq!(sharded.model_swaps(), 0);

        prop_assert_eq!(sharded.device_stats(), single.device_stats().clone());
        prop_assert_eq!(
            sharded.prediction_stats().predictions,
            single.prediction_stats().predictions
        );
        prop_assert_eq!(sharded.len(), single.len());
        // Merged free count includes the untouched shards' pools.
        let other_free: usize = (1..SHARDS)
            .map(|i| sharded.with_shard_engine(i, |e| e.free_count()))
            .sum();
        prop_assert_eq!(sharded.free_count() - other_free, single.free_count());
    }
}
