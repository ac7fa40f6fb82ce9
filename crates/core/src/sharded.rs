//! Thread-safe serving (paper §5.1: "We utilize thread-safe methods in
//! E2-NVM. This is the case for the data structures that we utilize to
//! maintain address pools and mapping"), sharded, with lazy background
//! retraining (§4.1.4).
//!
//! A [`ShardedEngine`] runs N independent engines over disjoint slices
//! of the device's segment space. The segment space is partitioned with
//! [`e2nvm_sim::partition_controllers`], and each shard gets a *private*
//! [`E2Engine`] — its own VAE+K-means model, dynamic address pool,
//! padder and RNG — behind one mutex, plus its own
//! [`BackgroundRetrainer`]. Keys are routed to shards by hash.
//! Operations on different shards share no locks, so they proceed in
//! parallel; operations on the same key always hit the same shard,
//! preserving per-key linearizability. One shard is the single-engine
//! case: `ShardedEngine::new(vec![engine])`.
//!
//! When a cluster's free list hits the low-water mark, the shard sends a
//! snapshot to its retrainer and keeps answering from the old model
//! until the new one is ready, then swaps.
//!
//! Cross-shard observability is by aggregation: device counters merge
//! with [`DeviceStats::merge`] and serving-path counters with
//! [`PredictionStats::merge`], so the paper's metrics (bit flips,
//! energy, latency) remain exact sums of per-shard accounting.

use crate::config::E2Config;
use crate::engine::{E2Engine, PredictionStats};
use crate::error::{E2Error, Result};
use crate::model::E2Model;
use crate::retrain::BackgroundRetrainer;
use e2nvm_sim::{DeviceStats, MemoryController, WriteReport};
use e2nvm_telemetry::{Event, TelemetryRegistry};
use parking_lot::{Mutex, MutexGuard};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// SplitMix64 finalizer: decorrelates adjacent keys before routing.
#[inline]
fn hash64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// One shard: its engine behind a mutex, plus the background
/// retraining state machine that feeds the engine new models.
///
/// Lock granularity: one mutex over the engine. The engine's hot path
/// (pad → predict → pop → device write) is microseconds, and the
/// expensive part — retraining — runs outside the lock on the worker
/// thread; only the snapshot and the model swap hold it.
struct Shard {
    engine: Mutex<E2Engine>,
    retrainer: Mutex<BackgroundRetrainer>,
    retrain_seed: AtomicU64,
    /// Models installed via the background path (diagnostics).
    swaps: AtomicU64,
    /// When the in-flight background retrain was submitted (for the
    /// journal's retrain duration).
    retrain_started: Mutex<Option<Instant>>,
}

impl Shard {
    /// Wrap a *trained* engine and spawn its retraining worker.
    ///
    /// # Panics
    /// Panics if the engine has not been trained.
    fn new(engine: E2Engine) -> Self {
        assert!(engine.is_trained(), "ShardedEngine: engine must be trained");
        Self {
            retrain_seed: AtomicU64::new(engine.config().seed ^ 0xBACC_6E55),
            engine: Mutex::new(engine),
            retrainer: Mutex::new(BackgroundRetrainer::spawn()),
            swaps: AtomicU64::new(0),
            retrain_started: Mutex::new(None),
        }
    }

    /// Take the engine lock. Callers that hold several shards' locks at
    /// once (the cross-shard scan) take them in ascending shard order
    /// only.
    fn lock(&self) -> MutexGuard<'_, E2Engine> {
        self.engine.lock()
    }

    /// Install a background-trained model and journal the swap.
    fn install_background_model(&self, model: E2Model) {
        let loss = model.history().train.last().map(|l| f64::from(l.total()));
        let duration_ms = self
            .retrain_started
            .lock()
            .take()
            .map(|t| t.elapsed().as_millis() as u64)
            .unwrap_or(0);
        let mut engine = self.lock();
        engine.install_model_now(model);
        let telemetry = engine.telemetry();
        telemetry.record_event(Event::RetrainFinished {
            shard: telemetry.shard(),
            loss,
            duration_ms,
        });
        self.swaps.fetch_add(1, Ordering::Relaxed);
    }

    /// Advance the lazy-retraining state machine: install a finished
    /// model if one is waiting, and submit a snapshot if a cluster just
    /// hit the threshold.
    fn pump_retraining(&self) {
        let mut retrainer = self.retrainer.lock();
        // Install a finished model first (frees the worker).
        if let Some(model) = retrainer.try_take() {
            self.install_background_model(model);
        }
        if retrainer.is_pending() {
            return;
        }
        // Snapshot under the engine lock only if the threshold tripped.
        let (cfg, snapshot, shard) = {
            let engine = self.lock();
            if !engine.needs_retrain() {
                return;
            }
            (
                engine.config().clone(),
                engine.training_snapshot(),
                engine.telemetry().shard(),
            )
        };
        let seed = self.retrain_seed.fetch_add(1, Ordering::Relaxed);
        if retrainer.submit(&cfg, snapshot, seed) {
            *self.retrain_started.lock() = Some(Instant::now());
            self.lock()
                .telemetry()
                .record_event(Event::RetrainStarted { shard });
        }
    }

    /// Block until any in-flight retraining completes and is installed.
    fn finish_retraining(&self) {
        let model = self.retrainer.lock().wait();
        if let Some(model) = model {
            self.install_background_model(model);
        }
    }

    /// Background model swaps performed so far.
    fn model_swaps(&self) -> u64 {
        self.swaps.load(Ordering::Relaxed)
    }
}

/// A clonable handle to N independent shards, each an [`E2Engine`]
/// over its own partition of the segment space. Clones share the
/// shards.
#[derive(Clone)]
pub struct ShardedEngine {
    shards: Arc<[Shard]>,
}

impl ShardedEngine {
    /// Wrap already-trained engines, one per shard.
    ///
    /// # Panics
    /// Panics if `engines` is empty or any engine is untrained.
    pub fn new(engines: Vec<E2Engine>) -> Self {
        assert!(!engines.is_empty(), "ShardedEngine: need >= 1 shard");
        Self {
            shards: engines.into_iter().map(Shard::new).collect(),
        }
    }

    /// Build and train one engine per controller. `cfg.num_shards` is
    /// ignored in favour of `controllers.len()` (the partition is the
    /// source of truth); each shard trains on its own resident contents
    /// with a seed derived from `cfg.seed` so the shards' models are
    /// decorrelated. Shard 0 uses `cfg.seed` itself, so a single-shard
    /// build is bit-identical to an unsharded [`E2Engine`] with the same
    /// configuration.
    pub fn train(controllers: Vec<MemoryController>, cfg: &E2Config) -> Result<Self> {
        if controllers.is_empty() {
            return Err(E2Error::Config("ShardedEngine: need >= 1 shard".into()));
        }
        let engines = controllers
            .into_iter()
            .enumerate()
            .map(|(i, controller)| {
                let shard_cfg = E2Config {
                    // Golden-ratio stride: shard 0 keeps cfg.seed, later
                    // shards get decorrelated streams.
                    seed: cfg
                        .seed
                        .wrapping_add((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
                    ..cfg.clone()
                };
                let mut engine = E2Engine::new(controller, shard_cfg)?;
                engine.train()?;
                Ok(engine)
            })
            .collect::<Result<Vec<_>>>()?;
        Ok(Self::new(engines))
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Register every shard's metrics on one shared `registry`, each
    /// labeled with its shard index. Aggregate across shards at read
    /// time with [`e2nvm_telemetry::TelemetryRegistry::counter_total`]
    /// (label-summed counters are exact, mirroring
    /// [`ShardedEngine::device_stats`]'s merge).
    pub fn attach_telemetry(&self, registry: &TelemetryRegistry) {
        for (i, shard) in self.shards.iter().enumerate() {
            shard.lock().attach_telemetry(registry, i);
        }
    }

    /// The shard a key routes to. Deterministic, uniform over shards.
    #[inline]
    pub fn shard_for(&self, key: u64) -> usize {
        ((hash64(key) as u128 * self.shards.len() as u128) >> 64) as usize
    }

    /// Split `items` into per-shard groups (each in input order), run
    /// `run` once per non-empty group, and return its results
    /// reassembled into input order.
    fn scatter<T: Copy, R>(
        &self,
        items: &[T],
        key: impl Fn(T) -> u64,
        mut run: impl FnMut(&Shard, &[T]) -> Vec<R>,
    ) -> Vec<R> {
        let mut by_shard: Vec<Vec<usize>> = vec![Vec::new(); self.shards.len()];
        for (i, &item) in items.iter().enumerate() {
            by_shard[self.shard_for(key(item))].push(i);
        }
        let mut out: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
        for (shard, idxs) in self.shards.iter().zip(&by_shard) {
            if idxs.is_empty() {
                continue;
            }
            let group: Vec<T> = idxs.iter().map(|&i| items[i]).collect();
            for (&i, r) in idxs.iter().zip(run(shard, &group)) {
                out[i] = Some(r);
            }
        }
        out.into_iter()
            .map(|r| r.expect("every item routed to exactly one shard"))
            .collect()
    }

    /// PUT/UPDATE (Algorithm 1), routed to the key's shard, then drive
    /// that shard's retraining state machine.
    pub fn put(&self, key: u64, value: &[u8]) -> Result<WriteReport> {
        let shard = &self.shards[self.shard_for(key)];
        let report = shard.lock().put(key, value)?;
        shard.pump_retraining();
        Ok(report)
    }

    /// GET, routed to the key's shard.
    pub fn get(&self, key: u64) -> Result<Vec<u8>> {
        self.shards[self.shard_for(key)].lock().get(key)
    }

    /// DELETE (Algorithm 2), routed to the key's shard.
    pub fn delete(&self, key: u64) -> Result<bool> {
        let shard = &self.shards[self.shard_for(key)];
        let existed = shard.lock().delete(key)?;
        shard.pump_retraining();
        Ok(existed)
    }

    /// Batched PUT: pairs are grouped by destination shard and each
    /// group runs through that shard's segment-packing batch path
    /// ([`E2Engine::put_many`]) under one lock acquisition; each
    /// shard's retraining state machine is pumped once per group.
    /// Results come back in the order of `pairs`. Within a shard the
    /// shard's batch order follows `pairs` order, so duplicate keys
    /// still resolve last-occurrence-wins.
    pub fn put_many(&self, pairs: &[(u64, &[u8])]) -> Vec<Result<()>> {
        self.scatter(
            pairs,
            |(key, _)| key,
            |shard, group| {
                let results = shard.lock().put_many(group);
                shard.pump_retraining();
                results
            },
        )
    }

    /// Batched GET: keys are grouped by shard, served under one lock
    /// acquisition per shard, and reassembled into `keys` order.
    pub fn get_many(&self, keys: &[u64]) -> Vec<Result<Vec<u8>>> {
        self.scatter(keys, |key| key, |shard, group| shard.lock().get_many(group))
    }

    /// SCAN over an inclusive key range, merged into key order across
    /// shards. Same path as [`ShardedEngine::scan_limit`], unbounded.
    pub fn scan(&self, lo: u64, hi: u64) -> Result<Vec<(u64, Vec<u8>)>> {
        self.scan_limit(lo, hi, usize::MAX)
    }

    /// SCAN returning the first `limit` entries of `lo..=hi` in global
    /// key order, with exactly one device read per returned entry.
    ///
    /// Keys are hash-routed, so any shard may hold any of the winners.
    /// Phase 1 walks the shards' key indexes only (no device access):
    /// each shard offers its first `limit` keys of the range, and the
    /// merge keeps the first `limit` overall. Phase 2 reads exactly
    /// those entries through their own shards' controllers.
    ///
    /// Every shard's engine lock is held across both phases, so the
    /// result is one atomic cut across shards: a key deleted
    /// concurrently cannot leave a hole between the phases, and fewer
    /// than `limit` entries means the range is exhausted. Lock order
    /// (DESIGN.md §5): engine locks are taken in ascending shard order
    /// only, and never followed by a WAL lock (writers take WAL →
    /// engine; scans take no WAL lock), so this cannot deadlock.
    pub fn scan_limit(&self, lo: u64, hi: u64, limit: usize) -> Result<Vec<(u64, Vec<u8>)>> {
        let mut engines: Vec<_> = self.shards.iter().map(Shard::lock).collect();
        let mut picks = Vec::new();
        for (shard, engine) in engines.iter().enumerate() {
            let range = engine.index_range(lo..=hi).take(limit);
            picks.extend(range.map(|(key, entry)| (key, shard, entry)));
        }
        // Shards hold disjoint keys, so an unstable sort is safe.
        picks.sort_unstable_by_key(|&(key, ..)| key);
        picks.truncate(limit);
        picks
            .into_iter()
            .map(|(key, shard, entry)| Ok((key, engines[shard].read_entry(entry)?)))
            .collect()
    }

    /// Advance every shard's lazy-retraining state machine. Called
    /// automatically after mutations; callable explicitly from a
    /// maintenance loop.
    pub fn pump_retraining(&self) {
        for shard in self.shards.iter() {
            shard.pump_retraining();
        }
    }

    /// Block until every shard's in-flight retraining (if any) completes
    /// and is installed (tests / shutdown).
    pub fn finish_retraining(&self) {
        for shard in self.shards.iter() {
            shard.finish_retraining();
        }
    }

    /// Background model swaps across all shards.
    pub fn model_swaps(&self) -> u64 {
        self.shards.iter().map(Shard::model_swaps).sum()
    }

    /// Sum a per-engine count over the shards, one lock at a time.
    fn sum(&self, count: impl Fn(&E2Engine) -> usize) -> usize {
        self.shards.iter().map(|s| count(&s.lock())).sum()
    }

    /// Keys stored across all shards.
    pub fn len(&self) -> usize {
        self.sum(E2Engine::len)
    }

    /// Whether no shard holds any key.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Free segments available across all shards.
    pub fn free_count(&self) -> usize {
        self.sum(E2Engine::free_count)
    }

    /// Segments permanently retired by wear-out across all shards.
    pub fn retired_count(&self) -> usize {
        self.sum(E2Engine::retired_count)
    }

    /// Physical slots quarantined across all shard controllers — what
    /// the HEALTH wire summary reports. Equals
    /// [`ShardedEngine::retired_count`] under the identity mapping.
    pub fn retired_physical_count(&self) -> usize {
        self.sum(E2Engine::retired_physical_count)
    }

    /// Total segments across all shards (free + in use + retired) —
    /// the stable denominator for wear fractions.
    pub fn num_segments(&self) -> usize {
        self.sum(|e| e.controller().num_segments())
    }

    /// Device statistics aggregated over all shards.
    pub fn device_stats(&self) -> DeviceStats {
        let mut total = DeviceStats::default();
        for shard in self.shards.iter() {
            total.merge(shard.lock().device_stats());
        }
        total
    }

    /// Reset every shard's device statistics (e.g. after a warm-up
    /// phase).
    pub fn reset_device_stats(&self) {
        for shard in self.shards.iter() {
            shard.lock().reset_device_stats();
        }
    }

    /// Serving-path prediction counters aggregated over all shards.
    pub fn prediction_stats(&self) -> PredictionStats {
        let mut total = PredictionStats::default();
        for shard in self.shards.iter() {
            total.merge(&shard.lock().prediction_stats());
        }
        total
    }

    /// Run a closure with exclusive access to one shard's engine (admin
    /// operations, per-shard inspection).
    pub fn with_shard_engine<T>(&self, i: usize, f: impl FnOnce(&mut E2Engine) -> T) -> T {
        f(&mut self.shards[i].lock())
    }
}

impl std::fmt::Debug for ShardedEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedEngine")
            .field("shards", &self.shards.len())
            .field("keys", &self.len())
            .field("free", &self.free_count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::padding::PaddingType;
    use e2nvm_sim::{partition_controllers, DeviceConfig, LogicalSegment, NvmDevice};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn test_config(seg_bytes: usize) -> E2Config {
        E2Config::builder()
            .fast(seg_bytes, 2)
            .pretrain_epochs(4)
            .joint_epochs(1)
            .retrain_min_free(0)
            .padding_type(PaddingType::Zero)
            .build()
            .unwrap()
    }

    fn seed_families(mc: &mut MemoryController, seg_bytes: usize, rng: &mut StdRng) {
        for i in 0..mc.num_segments() {
            let base = if i % 2 == 0 { 0x00u8 } else { 0xFF };
            let content: Vec<u8> = (0..seg_bytes)
                .map(|_| if rng.gen::<f32>() < 0.05 { !base } else { base })
                .collect();
            mc.seed(LogicalSegment(i), &content).unwrap();
        }
    }

    fn sharded(num_shards: usize, total_segments: usize, seg_bytes: usize) -> ShardedEngine {
        let dev_cfg = DeviceConfig::builder()
            .segment_bytes(seg_bytes)
            .num_segments(total_segments)
            .build()
            .unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let controllers: Vec<MemoryController> = partition_controllers(&dev_cfg, num_shards)
            .unwrap()
            .into_iter()
            .map(|(_, mut mc)| {
                seed_families(&mut mc, seg_bytes, &mut rng);
                mc
            })
            .collect();
        ShardedEngine::train(controllers, &test_config(seg_bytes)).unwrap()
    }

    /// The single-engine case: one shard over a two-family device, with
    /// background retraining enabled (`retrain_min_free(2)`).
    fn single_shard(segments: usize, seg_bytes: usize) -> ShardedEngine {
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
        ShardedEngine::new(vec![engine])
    }

    #[test]
    fn concurrent_puts_and_gets_are_consistent() {
        let shared = single_shard(128, 32);
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
        let shared = single_shard(48, 32);
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
        let a = single_shard(32, 32);
        let b = a.clone();
        a.put(5, b"via a").unwrap();
        assert_eq!(b.get(5).unwrap(), b"via a");
        assert_eq!(b.len(), 1);
        b.delete(5).unwrap();
        assert!(a.is_empty());
    }

    #[test]
    fn scan_on_one_shard() {
        let s = single_shard(32, 32);
        for k in [3u64, 1, 7] {
            s.put(k, &k.to_le_bytes()).unwrap();
        }
        let keys: Vec<u64> = s.scan(1, 5).unwrap().into_iter().map(|(k, _)| k).collect();
        assert_eq!(keys, vec![1, 3]);
    }

    #[test]
    fn routing_is_deterministic_and_in_range() {
        let s = sharded(4, 64, 32);
        for key in 0..256u64 {
            let a = s.shard_for(key);
            assert_eq!(a, s.shard_for(key));
            assert!(a < 4);
        }
    }

    #[test]
    fn routing_spreads_keys() {
        let s = sharded(4, 64, 32);
        let mut counts = [0usize; 4];
        for key in 0..1000u64 {
            counts[s.shard_for(key)] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            assert!(
                (150..=350).contains(&c),
                "shard {i} got {c}/1000 keys — router badly skewed: {counts:?}"
            );
        }
    }

    #[test]
    fn crud_roundtrip_across_shards() {
        let s = sharded(4, 128, 32);
        for key in 0..48u64 {
            s.put(key, &key.to_le_bytes()).unwrap();
        }
        assert_eq!(s.len(), 48);
        for key in 0..48u64 {
            assert_eq!(s.get(key).unwrap(), key.to_le_bytes());
        }
        for key in (0..48u64).step_by(2) {
            assert!(s.delete(key).unwrap());
        }
        assert_eq!(s.len(), 24);
        assert_eq!(s.get(2), Err(E2Error::KeyNotFound(2)));
        assert_eq!(s.get(3).unwrap(), 3u64.to_le_bytes());
    }

    #[test]
    fn batch_ops_roundtrip_across_shards_in_input_order() {
        let s = sharded(4, 128, 32);
        let values: Vec<(u64, Vec<u8>)> =
            (0..40u64).map(|k| (k, k.to_le_bytes().to_vec())).collect();
        let pairs: Vec<(u64, &[u8])> = values.iter().map(|(k, v)| (*k, v.as_slice())).collect();
        let results = s.put_many(&pairs);
        assert_eq!(results.len(), 40);
        assert!(results.iter().all(Result::is_ok));
        // get_many must return results aligned with the *request*
        // order, not shard order — interleave hits and misses.
        let keys: Vec<u64> = vec![39, 1000, 0, 17, 1001, 23];
        let got = s.get_many(&keys);
        assert_eq!(got[0].as_deref(), Ok(&39u64.to_le_bytes()[..]));
        assert_eq!(got[1], Err(E2Error::KeyNotFound(1000)));
        assert_eq!(got[2].as_deref(), Ok(&0u64.to_le_bytes()[..]));
        assert_eq!(got[3].as_deref(), Ok(&17u64.to_le_bytes()[..]));
        assert_eq!(got[4], Err(E2Error::KeyNotFound(1001)));
        assert_eq!(got[5].as_deref(), Ok(&23u64.to_le_bytes()[..]));
    }

    #[test]
    fn scan_merges_shards_in_key_order() {
        let s = sharded(3, 96, 32);
        for key in [9u64, 1, 5, 30, 12, 7] {
            s.put(key, &key.to_le_bytes()).unwrap();
        }
        let keys: Vec<u64> = s.scan(2, 29).unwrap().into_iter().map(|(k, _)| k).collect();
        assert_eq!(keys, vec![5, 7, 9, 12]);
    }

    #[test]
    fn single_shard_matches_unsharded_engine() {
        // With one shard, ShardedEngine::train must be bit-identical to
        // an unsharded E2Engine on the same device content and seed.
        let seg_bytes = 32;
        let dev_cfg = DeviceConfig::builder()
            .segment_bytes(seg_bytes)
            .num_segments(48)
            .build()
            .unwrap();
        let cfg = test_config(seg_bytes);

        let mut rng = StdRng::seed_from_u64(7);
        let mut mc = partition_controllers(&dev_cfg, 1).unwrap().remove(0).1;
        seed_families(&mut mc, seg_bytes, &mut rng);
        let sharded = ShardedEngine::train(vec![mc], &cfg).unwrap();

        let mut rng = StdRng::seed_from_u64(7);
        let mut mc = partition_controllers(&dev_cfg, 1).unwrap().remove(0).1;
        seed_families(&mut mc, seg_bytes, &mut rng);
        let mut single = E2Engine::new(mc, cfg).unwrap();
        single.train().unwrap();

        for key in 0..20u64 {
            let a = sharded.put(key, &[key as u8; 24]).unwrap();
            let b = single.put(key, &[key as u8; 24]).unwrap();
            assert_eq!(a.bits_flipped, b.bits_flipped, "key {key}");
        }
        assert_eq!(sharded.device_stats(), *single.device_stats());
    }

    #[test]
    fn free_count_and_stats_aggregate() {
        let s = sharded(4, 64, 32);
        let free_before = s.free_count();
        assert_eq!(free_before, 64);
        s.put(1, &[0u8; 32]).unwrap();
        s.put(2, &[0xFFu8; 32]).unwrap();
        assert_eq!(s.free_count(), free_before - 2);
        let stats = s.device_stats();
        assert_eq!(stats.writes, 2);
        assert_eq!(s.prediction_stats().predictions, 2);
    }
}
