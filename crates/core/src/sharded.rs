//! Sharded serving: N independent engines over disjoint slices of the
//! device's segment space.
//!
//! [`SharedEngine`] serialises every operation on
//! one mutex, which caps throughput at one core no matter how many
//! clients call in (the paper's §5.1 thread-safe serving). A
//! [`ShardedEngine`] removes that cap structurally: the segment space is
//! partitioned with [`e2nvm_sim::partition_controllers`], each shard
//! gets a *private* [`E2Engine`] — its own VAE+K-means model, dynamic
//! address pool, padder, RNG, and background retrainer — and keys are
//! routed to shards by hash. Operations on different shards share no
//! locks, so they proceed in parallel; operations on the same key
//! always hit the same shard, preserving per-key linearizability.
//!
//! Cross-shard observability is by aggregation: device counters merge
//! with [`DeviceStats::merge`] and serving-path counters with
//! [`PredictionStats::merge`], so the paper's metrics (bit flips,
//! energy, latency) remain exact sums of per-shard accounting.

use crate::concurrent::SharedEngine;
use crate::config::E2Config;
use crate::engine::{E2Engine, PredictionStats};
use crate::error::{E2Error, Result};
use e2nvm_sim::{DeviceStats, MemoryController, WriteReport};
use e2nvm_telemetry::TelemetryRegistry;

/// SplitMix64 finalizer: decorrelates adjacent keys before routing.
#[inline]
fn hash64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A clonable handle to N independent shards, each a [`SharedEngine`]
/// over its own partition of the segment space.
#[derive(Clone)]
pub struct ShardedEngine {
    shards: Vec<SharedEngine>,
}

impl ShardedEngine {
    /// Wrap already-trained engines, one per shard.
    ///
    /// # Panics
    /// Panics if `engines` is empty or any engine is untrained.
    pub fn new(engines: Vec<E2Engine>) -> Self {
        assert!(!engines.is_empty(), "ShardedEngine: need >= 1 shard");
        Self {
            shards: engines.into_iter().map(SharedEngine::new).collect(),
        }
    }

    /// Assemble from existing shared handles (e.g. to reuse engines that
    /// were trained elsewhere).
    ///
    /// # Panics
    /// Panics if `shards` is empty.
    pub fn from_shared(shards: Vec<SharedEngine>) -> Self {
        assert!(!shards.is_empty(), "ShardedEngine: need >= 1 shard");
        Self { shards }
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
            shard.attach_telemetry(registry, i);
        }
    }

    /// The shard a key routes to. Deterministic, uniform over shards.
    #[inline]
    pub fn shard_for(&self, key: u64) -> usize {
        ((hash64(key) as u128 * self.shards.len() as u128) >> 64) as usize
    }

    /// Borrow one shard's shared handle.
    pub fn shard(&self, i: usize) -> &SharedEngine {
        &self.shards[i]
    }

    /// Iterate over the shard handles.
    pub fn shards(&self) -> impl Iterator<Item = &SharedEngine> {
        self.shards.iter()
    }

    /// PUT/UPDATE, routed to the key's shard.
    pub fn put(&self, key: u64, value: &[u8]) -> Result<WriteReport> {
        self.shards[self.shard_for(key)].put(key, value)
    }

    /// GET, routed to the key's shard.
    pub fn get(&self, key: u64) -> Result<Vec<u8>> {
        self.shards[self.shard_for(key)].get(key)
    }

    /// DELETE, routed to the key's shard.
    pub fn delete(&self, key: u64) -> Result<bool> {
        self.shards[self.shard_for(key)].delete(key)
    }

    /// Batched PUT: pairs are grouped by destination shard and each
    /// group runs through that shard's segment-packing batch path
    /// ([`SharedEngine::put_many`]) under one lock acquisition.
    /// Results come back in the order of `pairs`. Within a shard the
    /// shard's batch order follows `pairs` order, so duplicate keys
    /// still resolve last-occurrence-wins.
    pub fn put_many(&self, pairs: &[(u64, &[u8])]) -> Vec<Result<()>> {
        let mut by_shard: Vec<Vec<usize>> = vec![Vec::new(); self.shards.len()];
        for (i, &(key, _)) in pairs.iter().enumerate() {
            by_shard[self.shard_for(key)].push(i);
        }
        let mut out: Vec<Option<Result<()>>> = (0..pairs.len()).map(|_| None).collect();
        for (shard, idxs) in by_shard.iter().enumerate() {
            if idxs.is_empty() {
                continue;
            }
            let group: Vec<(u64, &[u8])> = idxs.iter().map(|&i| pairs[i]).collect();
            let results = self.shards[shard].put_many(&group);
            for (&i, r) in idxs.iter().zip(results) {
                out[i] = Some(r);
            }
        }
        out.into_iter()
            .map(|r| r.expect("every pair routed to exactly one shard"))
            .collect()
    }

    /// Batched GET: keys are grouped by shard, served under one lock
    /// acquisition per shard, and reassembled into `keys` order.
    pub fn get_many(&self, keys: &[u64]) -> Vec<Result<Vec<u8>>> {
        let mut by_shard: Vec<Vec<usize>> = vec![Vec::new(); self.shards.len()];
        for (i, &key) in keys.iter().enumerate() {
            by_shard[self.shard_for(key)].push(i);
        }
        let mut out: Vec<Option<Result<Vec<u8>>>> = (0..keys.len()).map(|_| None).collect();
        for (shard, idxs) in by_shard.iter().enumerate() {
            if idxs.is_empty() {
                continue;
            }
            let group: Vec<u64> = idxs.iter().map(|&i| keys[i]).collect();
            let results = self.shards[shard].get_many(&group);
            for (&i, r) in idxs.iter().zip(results) {
                out[i] = Some(r);
            }
        }
        out.into_iter()
            .map(|r| r.expect("every key routed to exactly one shard"))
            .collect()
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
        let mut engines: Vec<_> = self.shards.iter().map(SharedEngine::lock).collect();
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

    /// Advance every shard's lazy-retraining state machine.
    pub fn pump_retraining(&self) {
        for shard in &self.shards {
            shard.pump_retraining();
        }
    }

    /// Block until every shard's in-flight retraining (if any) completes
    /// and is installed.
    pub fn finish_retraining(&self) {
        for shard in &self.shards {
            shard.finish_retraining();
        }
    }

    /// Background model swaps across all shards.
    pub fn model_swaps(&self) -> u64 {
        self.shards.iter().map(SharedEngine::model_swaps).sum()
    }

    /// Keys stored across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(SharedEngine::len).sum()
    }

    /// Whether no shard holds any key.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Free segments available across all shards.
    pub fn free_count(&self) -> usize {
        self.shards.iter().map(SharedEngine::free_count).sum()
    }

    /// Segments permanently retired by wear-out across all shards.
    pub fn retired_count(&self) -> usize {
        self.shards.iter().map(SharedEngine::retired_count).sum()
    }

    /// Physical slots quarantined across all shard controllers — what
    /// the HEALTH wire summary reports.
    pub fn retired_physical_count(&self) -> usize {
        self.shards
            .iter()
            .map(SharedEngine::retired_physical_count)
            .sum()
    }

    /// Total segments across all shards (free + in use + retired) —
    /// the stable denominator for wear fractions.
    pub fn num_segments(&self) -> usize {
        self.shards.iter().map(SharedEngine::num_segments).sum()
    }

    /// Device statistics aggregated over all shards.
    pub fn device_stats(&self) -> DeviceStats {
        let mut total = DeviceStats::default();
        for shard in &self.shards {
            total.merge(&shard.device_stats());
        }
        total
    }

    /// Reset every shard's device statistics.
    pub fn reset_device_stats(&self) {
        for shard in &self.shards {
            shard.reset_device_stats();
        }
    }

    /// Serving-path prediction counters aggregated over all shards.
    pub fn prediction_stats(&self) -> PredictionStats {
        let mut total = PredictionStats::default();
        for shard in &self.shards {
            total.merge(&shard.prediction_stats());
        }
        total
    }

    /// Run a closure with exclusive access to one shard's engine.
    pub fn with_shard_engine<T>(&self, i: usize, f: impl FnOnce(&mut E2Engine) -> T) -> T {
        self.shards[i].with_engine(f)
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
    use e2nvm_sim::{partition_controllers, DeviceConfig, LogicalSegment};
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
