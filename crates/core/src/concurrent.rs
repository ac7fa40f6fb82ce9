//! Thread-safe serving (paper §5.1: "We utilize thread-safe methods in
//! E2-NVM. This is the case for the data structures that we utilize to
//! maintain address pools and mapping") with lazy background retraining
//! (§4.1.4): when a cluster's free list hits the low-water mark, a
//! snapshot goes to the [`BackgroundRetrainer`]; the serving path keeps
//! answering from the old model until the new one is ready, then swaps.

use crate::engine::E2Engine;
use crate::error::Result;
use crate::model::E2Model;
use crate::retrain::BackgroundRetrainer;
use e2nvm_sim::{DeviceStats, WriteReport};
use e2nvm_telemetry::{Event, TelemetryRegistry};
use parking_lot::{Mutex, MutexGuard};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A clonable, thread-safe handle to an engine plus its background
/// retrainer.
///
/// Lock granularity: one mutex over the engine. The engine's hot path
/// (pad → predict → pop → device write) is microseconds, and the
/// expensive part — retraining — runs outside the lock on the worker
/// thread; only the snapshot and the model swap hold it.
#[derive(Clone)]
pub struct SharedEngine {
    inner: Arc<Inner>,
}

struct Inner {
    engine: Mutex<E2Engine>,
    retrainer: Mutex<BackgroundRetrainer>,
    retrain_seed: AtomicU64,
    /// Models installed via the background path (diagnostics).
    swaps: AtomicU64,
    /// When the in-flight background retrain was submitted (for the
    /// journal's retrain duration).
    retrain_started: Mutex<Option<Instant>>,
}

impl SharedEngine {
    /// Wrap a *trained* engine and spawn the retraining worker.
    ///
    /// # Panics
    /// Panics if the engine has not been trained.
    pub fn new(engine: E2Engine) -> Self {
        assert!(engine.is_trained(), "SharedEngine: engine must be trained");
        let seed = engine.config().seed ^ 0xBACC_6E55;
        Self {
            inner: Arc::new(Inner {
                engine: Mutex::new(engine),
                retrainer: Mutex::new(BackgroundRetrainer::spawn()),
                retrain_seed: AtomicU64::new(seed),
                swaps: AtomicU64::new(0),
                retrain_started: Mutex::new(None),
            }),
        }
    }

    /// Register the wrapped engine's metrics on `registry`, labeled with
    /// `shard`.
    pub fn attach_telemetry(&self, registry: &TelemetryRegistry, shard: usize) {
        self.inner.engine.lock().attach_telemetry(registry, shard);
    }

    /// Install a background-trained model and journal the swap.
    fn install_background_model(&self, model: E2Model) {
        let loss = model.history().train.last().map(|l| f64::from(l.total()));
        let duration_ms = self
            .inner
            .retrain_started
            .lock()
            .take()
            .map(|t| t.elapsed().as_millis() as u64)
            .unwrap_or(0);
        let mut engine = self.inner.engine.lock();
        engine.install_model_now(model);
        let telemetry = engine.telemetry();
        telemetry.record_event(Event::RetrainFinished {
            shard: telemetry.shard(),
            loss,
            duration_ms,
        });
        self.inner.swaps.fetch_add(1, Ordering::Relaxed);
    }

    /// PUT/UPDATE (Algorithm 1), then drive the retraining state
    /// machine: install a finished model if one is waiting, and submit a
    /// snapshot if a cluster just hit the threshold.
    pub fn put(&self, key: u64, value: &[u8]) -> Result<WriteReport> {
        let report = {
            let mut engine = self.inner.engine.lock();
            engine.put(key, value)?
        };
        self.pump_retraining();
        Ok(report)
    }

    /// Batched PUT: the whole batch runs through the engine's
    /// segment-packing path ([`E2Engine::put_many`]) under a single
    /// lock acquisition, and the retraining state machine is pumped
    /// once at the end instead of per key.
    pub fn put_many(&self, pairs: &[(u64, &[u8])]) -> Vec<Result<()>> {
        let results = {
            let mut engine = self.inner.engine.lock();
            engine.put_many(pairs)
        };
        self.pump_retraining();
        results
    }

    /// GET.
    pub fn get(&self, key: u64) -> Result<Vec<u8>> {
        self.inner.engine.lock().get(key)
    }

    /// Batched GET under a single lock acquisition.
    pub fn get_many(&self, keys: &[u64]) -> Vec<Result<Vec<u8>>> {
        self.inner.engine.lock().get_many(keys)
    }

    /// DELETE (Algorithm 2).
    pub fn delete(&self, key: u64) -> Result<bool> {
        let existed = self.inner.engine.lock().delete(key)?;
        self.pump_retraining();
        Ok(existed)
    }

    /// SCAN over an inclusive key range.
    pub fn scan(&self, lo: u64, hi: u64) -> Result<Vec<(u64, Vec<u8>)>> {
        self.inner.engine.lock().scan_limit(lo..=hi, usize::MAX)
    }

    /// Advance the lazy-retraining state machine. Called automatically
    /// after mutations; callable explicitly from a maintenance loop.
    pub fn pump_retraining(&self) {
        let mut retrainer = self.inner.retrainer.lock();
        // Install a finished model first (frees the worker).
        if let Some(model) = retrainer.try_take() {
            self.install_background_model(model);
        }
        if retrainer.is_pending() {
            return;
        }
        // Snapshot under the engine lock only if the threshold tripped.
        let (needs, cfg, snapshot, shard) = {
            let engine = self.inner.engine.lock();
            if !engine.needs_retrain() {
                return;
            }
            (
                true,
                engine.config().clone(),
                engine.training_snapshot(),
                engine.telemetry().shard(),
            )
        };
        if needs {
            let seed = self.inner.retrain_seed.fetch_add(1, Ordering::Relaxed);
            if retrainer.submit(&cfg, snapshot, seed) {
                *self.inner.retrain_started.lock() = Some(Instant::now());
                self.inner
                    .engine
                    .lock()
                    .telemetry()
                    .record_event(Event::RetrainStarted { shard });
            }
        }
    }

    /// Block until any in-flight retraining completes and is installed
    /// (tests / shutdown).
    pub fn finish_retraining(&self) {
        let model = {
            let mut retrainer = self.inner.retrainer.lock();
            retrainer.wait()
        };
        if let Some(model) = model {
            self.install_background_model(model);
        }
    }

    /// Background model swaps performed so far.
    pub fn model_swaps(&self) -> u64 {
        self.inner.swaps.load(Ordering::Relaxed)
    }

    /// Keys stored.
    pub fn len(&self) -> usize {
        self.inner.engine.lock().len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Free segments available.
    pub fn free_count(&self) -> usize {
        self.inner.engine.lock().free_count()
    }

    /// Segments permanently retired by wear-out.
    pub fn retired_count(&self) -> usize {
        self.inner.engine.lock().retired_count()
    }

    /// Physical slots quarantined on the controller (equals
    /// [`SharedEngine::retired_count`] under the identity mapping).
    pub fn retired_physical_count(&self) -> usize {
        self.inner.engine.lock().retired_physical_count()
    }

    /// Total segments this engine's controller manages (free + in use +
    /// retired) — the stable denominator for wear fractions.
    pub fn num_segments(&self) -> usize {
        self.inner.engine.lock().controller().num_segments()
    }

    /// Snapshot of the device statistics.
    pub fn device_stats(&self) -> DeviceStats {
        self.inner.engine.lock().device_stats().clone()
    }

    /// Reset the device statistics (e.g. after a warm-up phase).
    pub fn reset_device_stats(&self) {
        self.inner.engine.lock().reset_device_stats();
    }

    /// Snapshot of the serving-path prediction counters.
    pub fn prediction_stats(&self) -> crate::engine::PredictionStats {
        self.inner.engine.lock().prediction_stats()
    }

    /// Run a closure with exclusive engine access (admin operations).
    pub fn with_engine<T>(&self, f: impl FnOnce(&mut E2Engine) -> T) -> T {
        f(&mut self.inner.engine.lock())
    }

    /// Take the engine lock and hand back its guard, for callers that
    /// must hold several shards' locks at once (the cross-shard scan).
    /// Such callers take engine locks in ascending shard order only.
    pub(crate) fn lock(&self) -> MutexGuard<'_, E2Engine> {
        self.inner.engine.lock()
    }
}

impl std::fmt::Debug for SharedEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedEngine")
            .field("keys", &self.len())
            .field("model_swaps", &self.model_swaps())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::E2Config;
    use crate::padding::PaddingType;
    use e2nvm_sim::{DeviceConfig, LogicalSegment, MemoryController, NvmDevice};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn shared(segments: usize, seg_bytes: usize) -> SharedEngine {
        let dev = NvmDevice::new(
            DeviceConfig::builder()
                .segment_bytes(seg_bytes)
                .num_segments(segments)
                .build()
                .unwrap(),
        );
        let mut controller = MemoryController::without_wear_leveling(dev);
        let mut rng = StdRng::seed_from_u64(3);
        for i in 0..segments {
            let base = if i % 2 == 0 { 0x00u8 } else { 0xFF };
            let content: Vec<u8> = (0..seg_bytes)
                .map(|_| if rng.gen::<f32>() < 0.05 { !base } else { base })
                .collect();
            controller.seed(LogicalSegment(i), &content).unwrap();
        }
        let cfg = E2Config::builder()
            .fast(seg_bytes, 2)
            .pretrain_epochs(4)
            .joint_epochs(1)
            .retrain_min_free(2)
            .padding_type(PaddingType::Zero)
            .build()
            .unwrap();
        let mut engine = E2Engine::new(controller, cfg).unwrap();
        engine.train().unwrap();
        SharedEngine::new(engine)
    }

    #[test]
    fn concurrent_puts_and_gets_are_consistent() {
        let shared = shared(128, 32);
        let threads: Vec<_> = (0..4u64)
            .map(|t| {
                let s = shared.clone();
                std::thread::spawn(move || {
                    // Disjoint key ranges per thread.
                    for i in 0..24u64 {
                        let key = t * 100 + i;
                        let value = vec![(t as u8) ^ (i as u8); 24];
                        s.put(key, &value).unwrap();
                        assert_eq!(s.get(key).unwrap(), value, "t{t} key{key}");
                        if i % 3 == 0 {
                            assert!(s.delete(key).unwrap());
                        }
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        // 24 - 8 deleted per thread.
        assert_eq!(shared.len(), 4 * 16);
        // Every surviving key reads back.
        for t in 0..4u64 {
            for i in 0..24u64 {
                if i % 3 != 0 {
                    let key = t * 100 + i;
                    assert_eq!(shared.get(key).unwrap(), vec![(t as u8) ^ (i as u8); 24]);
                }
            }
        }
    }

    #[test]
    fn background_retraining_triggers_and_swaps() {
        let shared = shared(48, 32);
        // Drain the pool enough to trip the per-cluster threshold.
        for key in 0..40u64 {
            if shared.put(key, &[0u8; 32]).is_err() {
                break;
            }
        }
        // Pump until the worker finishes and the swap lands.
        shared.finish_retraining();
        shared.pump_retraining();
        assert!(
            shared.model_swaps() >= 1,
            "no background swap happened (swaps={})",
            shared.model_swaps()
        );
        // Data still intact after the swap.
        assert_eq!(shared.get(0).unwrap(), vec![0u8; 32]);
    }

    #[test]
    fn clones_share_state() {
        let a = shared(32, 32);
        let b = a.clone();
        a.put(5, b"via a").unwrap();
        assert_eq!(b.get(5).unwrap(), b"via a");
        assert_eq!(b.len(), 1);
        b.delete(5).unwrap();
        assert!(a.is_empty());
    }

    #[test]
    fn scan_under_shared_handle() {
        let s = shared(32, 32);
        for k in [3u64, 1, 7] {
            s.put(k, &k.to_le_bytes()).unwrap();
        }
        let keys: Vec<u64> = s.scan(1, 5).unwrap().into_iter().map(|(k, _)| k).collect();
        assert_eq!(keys, vec![1, 3]);
    }
}
