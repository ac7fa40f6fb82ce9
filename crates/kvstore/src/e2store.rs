//! The paper's Figure 3 system: a persistent key-value store on hybrid
//! DRAM-NVM built on E2-NVM. Values are placed by the per-shard
//! [`E2Engine`]s of a [`ShardedEngine`], and each engine's DRAM key
//! index (a `BTreeMap`) plays the "RB-Tree.put(D, A)" role of
//! Algorithm 1. One shard is the single-engine store:
//! `ShardedE2KvStore::new(ShardedEngine::new(vec![engine]))`.

use crate::store::{Result, StoreError};
use crate::telemetry::StoreTelemetry;
use crate::traits::NvmKvStore;
use e2nvm_core::{E2Config, E2Engine, E2Error, ShardedEngine};
use e2nvm_persist::{
    replay_and_truncate, FlushPolicy, PersistTelemetry, PersistenceConfig, ShardState,
    SnapshotWriter, StoreSnapshot, Wal, WalOp, WalSyncer,
};
use e2nvm_sim::MemoryController;
use e2nvm_telemetry::TelemetryRegistry;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// The attached persistence layer of a [`ShardedE2KvStore`]: one WAL
/// per shard plus snapshot-trigger state. Shared by clones.
struct PersistState {
    cfg: PersistenceConfig,
    /// Per-shard WALs. **Lock ordering**: a mutation takes its shard's
    /// WAL lock *first* and holds it *across* the engine apply, so WAL
    /// record order always equals apply order within a shard. The
    /// snapshot path takes every WAL lock (in shard order) and then each
    /// engine lock — the same wal-then-engine order, so no cycle.
    wals: Vec<Mutex<Wal>>,
    /// Acked mutations since the last snapshot (drives
    /// [`PersistenceConfig::snapshot_every_ops`]).
    ops_since_snapshot: AtomicU64,
    telemetry: PersistTelemetry,
    /// Background fsync thread for `EveryN` policies (`None`
    /// otherwise). Declared after `wals` so the WALs' sync ports drop
    /// first and the syncer's drop can drain and join.
    _syncer: Option<WalSyncer>,
}

impl std::fmt::Debug for PersistState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PersistState")
            .field("data_dir", &self.cfg.data_dir)
            .field("flush_policy", &self.cfg.flush_policy)
            .field("wals", &self.wals.len())
            .finish()
    }
}

/// Spawn the store's background fsync thread when the policy can use
/// it ([`FlushPolicy::EveryN`]); `EveryAppend` must sync inline and
/// `OsOnly` never syncs, so neither gets a thread.
fn spawn_syncer(policy: FlushPolicy, telemetry: &PersistTelemetry) -> Result<Option<WalSyncer>> {
    match policy {
        FlushPolicy::EveryN(_) => WalSyncer::spawn(telemetry.clone())
            .map(Some)
            .map_err(|e| StoreError::Persistence(format!("spawn wal syncer: {e}"))),
        FlushPolicy::EveryAppend | FlushPolicy::OsOnly => Ok(None),
    }
}

/// Attach the store's syncer port (if any) to a freshly opened WAL,
/// keyed by shard index so the syncer can coalesce per log.
fn attach_syncer(wal: Wal, shard: usize, syncer: &Option<WalSyncer>) -> Wal {
    match syncer {
        Some(s) => wal.with_syncer(s.port(shard as u64)),
        None => wal,
    }
}

/// A point-in-time summary of a store's segment wear, cheap enough to
/// poll every few hundred milliseconds: live keys plus the three pool
/// counters whose trajectory is the endurance story (free shrinking,
/// retired growing, total constant).
///
/// This is the body of the wire protocol's HEALTH frame and the signal
/// the cluster layer's wear-driven failover acts on — a server whose
/// [`wear_fraction`](WearSummary::wear_fraction) crosses the drain
/// threshold gets its traffic routed to replicas *before* the pool
/// depletes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WearSummary {
    /// Live keys in the store.
    pub keys: u64,
    /// Free segments still available for placement.
    pub free_segments: u64,
    /// Logical segments permanently retired by wear-out (pool
    /// shrinkage, as the placement layer sees it).
    pub retired_segments: u64,
    /// Physical slots quarantined by the memory controllers — the
    /// ground truth of which device segments actually died. Equals
    /// `retired_segments` under identity mapping; under wear leveling
    /// it is the count relocations route around.
    pub retired_physical: u64,
    /// Total segments the store manages (free + in use + retired);
    /// constant over a store's lifetime.
    pub total_segments: u64,
}

impl WearSummary {
    /// Fraction of the store's segments permanently retired by
    /// wear-out, in `[0, 1]`. `0.0` for an empty geometry.
    pub fn wear_fraction(&self) -> f64 {
        if self.total_segments == 0 {
            0.0
        } else {
            self.retired_segments as f64 / self.total_segments as f64
        }
    }

    /// Whether the placement pool has run dry — the next write that
    /// needs a fresh segment will fail with `Degraded`/`PoolDepleted`.
    pub fn is_depleted(&self) -> bool {
        self.free_segments == 0
    }
}

/// What [`ShardedE2KvStore::recover`] rebuilt, for operator logs and
/// the recovery benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Shards restored from the snapshot.
    pub shards: usize,
    /// Keys resident after snapshot restore + WAL replay.
    pub keys: usize,
    /// WAL records replayed on top of the snapshot.
    pub replayed_ops: usize,
    /// Torn-tail bytes truncated from the WALs (unacked crash debris).
    pub truncated_bytes: u64,
    /// Wall-clock milliseconds of the whole recovery.
    pub duration_ms: u64,
}

/// The E2-NVM-backed key-value store: the [`NvmKvStore`] interface
/// over a [`ShardedEngine`], whose per-shard engines each keep their
/// own key index, so no extra DRAM index is needed here. The store is
/// `Clone` — clones share the shards — which is what the multi-threaded
/// server hands out to worker threads.
///
/// Optionally crash-consistent: [`ShardedE2KvStore::with_persistence`]
/// attaches a per-shard WAL plus snapshot layer, and
/// [`ShardedE2KvStore::recover`] rebuilds a store from them after a
/// kill — every acknowledged mutation survives (see DESIGN.md §14).
#[derive(Debug, Clone)]
pub struct ShardedE2KvStore {
    engine: ShardedEngine,
    telemetry: StoreTelemetry,
    persist: Option<Arc<PersistState>>,
}

impl ShardedE2KvStore {
    /// Build over trained shards (no persistence attached).
    pub fn new(engine: ShardedEngine) -> Self {
        Self {
            engine,
            telemetry: StoreTelemetry::disconnected(),
            persist: None,
        }
    }

    /// Attach a WAL + snapshot persistence layer (and take the initial
    /// snapshot, so the data dir is replayable from op zero: every later
    /// acked mutation is recoverable as snapshot + WAL suffix).
    ///
    /// Works under active wear leveling: each shard's snapshot carries
    /// the controller's [`e2nvm_sim::ControllerState`] (policy state,
    /// logical→physical remap, quarantined physical slots), so recovery
    /// resumes the rotation exactly where the crash interrupted it
    /// (DESIGN.md §14). Pass `registry` to publish the
    /// `e2nvm_persist_*` series.
    pub fn with_persistence(
        mut self,
        cfg: PersistenceConfig,
        registry: Option<&TelemetryRegistry>,
    ) -> Result<Self> {
        cfg.validate()?;
        std::fs::create_dir_all(cfg.data_dir.join("wal"))
            .map_err(|e| StoreError::Persistence(format!("create data dir: {e}")))?;
        let telemetry = match registry {
            Some(r) => PersistTelemetry::register(r),
            None => PersistTelemetry::disconnected(),
        };
        let syncer = spawn_syncer(cfg.flush_policy, &telemetry)?;
        let wals = (0..self.engine.num_shards())
            .map(|i| {
                Wal::open(cfg.wal_path(i), cfg.flush_policy, telemetry.clone())
                    .map(|w| attach_syncer(w, i, &syncer))
                    .map(Mutex::new)
                    .map_err(|e| StoreError::Persistence(format!("open wal {i}: {e}")))
            })
            .collect::<Result<Vec<_>>>()?;
        self.persist = Some(Arc::new(PersistState {
            cfg,
            wals,
            ops_since_snapshot: AtomicU64::new(0),
            telemetry,
            _syncer: syncer,
        }));
        // Also supersedes any stale WAL records from a previous
        // incarnation of the data dir (snapshot_now resets the logs).
        self.snapshot_now()?;
        Ok(self)
    }

    /// The attached persistence config, if any.
    pub fn persistence_config(&self) -> Option<&PersistenceConfig> {
        self.persist.as_ref().map(|p| &p.cfg)
    }

    /// Take a stop-the-world snapshot now: acquire every shard's WAL
    /// lock (quiescing mutations), then for each shard in order capture
    /// its device image and engine state under its engine lock and
    /// stream that block to the snapshot file before capturing the next
    /// (so at most one shard's state is in memory), commit the file
    /// atomically, then truncate the WALs. Returns the snapshot bytes
    /// written, or `Ok(0)` when no persistence layer is attached
    /// (documented no-op, mirroring the [`NvmKvStore::flush`] contract).
    ///
    /// A crash between the snapshot rename and the WAL truncation is
    /// safe: WAL records are full-value upserts/deletes, so replaying
    /// ops the snapshot already contains is idempotent.
    pub fn snapshot_now(&self) -> Result<u64> {
        let Some(p) = &self.persist else {
            return Ok(0);
        };
        let mut wals: Vec<_> = p.wals.iter().map(Mutex::lock).collect();
        let shards = self.engine.num_shards();
        let mut out = SnapshotWriter::create(&p.cfg.snapshot_path(), shards)?;
        for i in 0..shards {
            let shard = self
                .engine
                .with_shard_engine(i, |e| -> Result<ShardState> {
                    let mc = e.controller();
                    Ok(ShardState {
                        device_image: e2nvm_sim::snapshot::to_image(mc.device()),
                        state: e.export_state()?,
                        controller: Some(mc.export_state()),
                    })
                })?;
            out.write_shard(&shard)?;
        }
        let bytes = out.commit()?;
        for wal in wals.iter_mut() {
            wal.reset()
                .map_err(|e| StoreError::Persistence(format!("wal reset: {e}")))?;
        }
        p.ops_since_snapshot.store(0, Ordering::Relaxed);
        p.telemetry.snapshots.inc();
        p.telemetry.snapshot_bytes.add(bytes);
        Ok(bytes)
    }

    /// Rebuild a store from `cfg.data_dir`: load the snapshot, restore
    /// each shard's device and engine, replay the WAL suffix (truncating
    /// any torn tail), and re-attach the logs for appending. `Ok(None)`
    /// when no snapshot exists (fresh start — train and call
    /// [`ShardedE2KvStore::with_persistence`] instead).
    ///
    /// `e2cfg` must be the same engine config the store was built with;
    /// per-shard seeds are re-derived exactly as
    /// [`ShardedEngine::train`] derives them, and geometry mismatches
    /// (segment size, input bits) are rejected during restore.
    pub fn recover(
        cfg: &PersistenceConfig,
        e2cfg: &E2Config,
        registry: Option<&TelemetryRegistry>,
    ) -> Result<Option<(Self, RecoveryReport)>> {
        cfg.validate()?;
        let t0 = Instant::now();
        let Some(snap) = StoreSnapshot::load(&cfg.snapshot_path())? else {
            return Ok(None);
        };
        // A well-formed encoding, but no store has zero shards.
        if snap.shards.is_empty() {
            return Err(StoreError::Persistence("snapshot holds no shards".into()));
        }
        let mut engines = Vec::with_capacity(snap.shards.len());
        for (i, shard) in snap.shards.iter().enumerate() {
            let device = e2nvm_sim::snapshot::from_image(&shard.device_image)
                .map_err(|e| StoreError::Persistence(format!("shard {i} device image: {e}")))?;
            // v2 snapshots carry the controller's translation state
            // (remap, policy, quarantined slots); v1 snapshots were only
            // ever taken under identity mapping, so a pass-through
            // controller reconstructs them faithfully.
            let mc = match &shard.controller {
                Some(cs) => MemoryController::from_state(device, cs).map_err(|e| {
                    StoreError::Persistence(format!("shard {i} controller state: {e}"))
                })?,
                None => MemoryController::without_wear_leveling(device),
            };
            let shard_cfg = E2Config {
                // Golden-ratio stride, matching ShardedEngine::train.
                seed: e2cfg
                    .seed
                    .wrapping_add((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
                ..e2cfg.clone()
            };
            let mut engine = E2Engine::new(mc, shard_cfg)?;
            engine.restore_state(&shard.state)?;
            engines.push(engine);
        }
        let engine = ShardedEngine::new(engines);
        let telemetry = match registry {
            Some(r) => PersistTelemetry::register(r),
            None => PersistTelemetry::disconnected(),
        };
        std::fs::create_dir_all(cfg.data_dir.join("wal"))
            .map_err(|e| StoreError::Persistence(format!("create data dir: {e}")))?;
        let syncer = spawn_syncer(cfg.flush_policy, &telemetry)?;
        let mut replayed_ops = 0usize;
        let mut truncated_bytes = 0u64;
        let mut wals = Vec::with_capacity(engine.num_shards());
        for i in 0..engine.num_shards() {
            let path = cfg.wal_path(i);
            let replay = replay_and_truncate(&path)
                .map_err(|e| StoreError::Persistence(format!("replay wal {i}: {e}")))?;
            truncated_bytes += replay.total_bytes - replay.valid_bytes;
            replayed_ops += replay.ops.len();
            engine.with_shard_engine(i, |e| -> Result<()> {
                for op in &replay.ops {
                    match op {
                        WalOp::Put { key, value } => {
                            e.put(*key, value)?;
                        }
                        WalOp::Delete { key } => {
                            e.delete(*key)?;
                        }
                    }
                }
                Ok(())
            })?;
            wals.push(Mutex::new(attach_syncer(
                Wal::open(&path, cfg.flush_policy, telemetry.clone())
                    .map_err(|e| StoreError::Persistence(format!("open wal {i}: {e}")))?,
                i,
                &syncer,
            )));
        }
        // The replayed records stay in the logs until the next snapshot
        // truncates them: crashing again before then replays the same
        // idempotent prefix onto the same snapshot.
        let store = Self {
            engine,
            telemetry: StoreTelemetry::disconnected(),
            persist: Some(Arc::new(PersistState {
                cfg: cfg.clone(),
                wals,
                ops_since_snapshot: AtomicU64::new(replayed_ops as u64),
                telemetry: telemetry.clone(),
                _syncer: syncer,
            })),
        };
        let report = RecoveryReport {
            shards: store.engine.num_shards(),
            keys: store.len(),
            replayed_ops,
            truncated_bytes,
            duration_ms: t0.elapsed().as_millis() as u64,
        };
        telemetry.recovery_ms.set(report.duration_ms as i64);
        Ok(Some((store, report)))
    }

    /// Count `n` acked mutations toward the periodic snapshot trigger.
    /// Best-effort: if the triggered snapshot fails, the previous
    /// snapshot plus the (longer) WAL still cover every acked write, so
    /// the failure degrades recovery time, not durability; explicit
    /// [`ShardedE2KvStore::snapshot_now`]/[`NvmKvStore::flush`] calls
    /// surface snapshot errors to the caller.
    fn note_mutations(&self, p: &PersistState, n: u64) {
        let every = p.cfg.snapshot_every_ops;
        if every == 0 {
            return;
        }
        if p.ops_since_snapshot.fetch_add(n, Ordering::Relaxed) + n >= every {
            // Claim the trigger: only the thread that swaps out a
            // large count snapshots; racers see 0 and move on.
            if p.ops_since_snapshot.swap(0, Ordering::Relaxed) >= every {
                let _ = self.snapshot_now();
            }
        }
    }

    /// Register this store's KV-op metrics — and every shard's engine
    /// and device series — on `registry`. Attach before handing clones
    /// to worker threads so all clones share the same series. (The
    /// `e2nvm_persist_*` series are registered separately, at
    /// [`ShardedE2KvStore::with_persistence`]/[`ShardedE2KvStore::recover`]
    /// time.)
    pub fn attach_telemetry(&mut self, registry: &TelemetryRegistry) {
        self.engine.attach_telemetry(registry);
        self.telemetry = StoreTelemetry::register(registry, "sharded");
    }

    /// Borrow the sharded engine (stats, retraining, shard inspection).
    pub fn engine(&self) -> &ShardedEngine {
        &self.engine
    }

    /// Segments permanently retired by wear-out across all shards
    /// (degraded mode).
    pub fn retired_count(&self) -> usize {
        self.engine.retired_count()
    }

    /// Physical slots quarantined by the shards' memory controllers —
    /// the device-side counterpart of [`Self::retired_count`], and the
    /// figure the HEALTH frame reports as ground truth.
    pub fn retired_physical_count(&self) -> usize {
        self.engine.retired_physical_count()
    }

    /// Point-in-time wear summary across all shards — what the wire
    /// protocol's HEALTH frame carries and what the cluster layer's
    /// health prober acts on.
    pub fn wear_summary(&self) -> WearSummary {
        WearSummary {
            keys: self.engine.len() as u64,
            free_segments: self.engine.free_count() as u64,
            retired_segments: self.engine.retired_count() as u64,
            retired_physical: self.engine.retired_physical_count() as u64,
            total_segments: self.engine.num_segments() as u64,
        }
    }

    /// Number of keys stored across all shards.
    pub fn len(&self) -> usize {
        self.engine.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.engine.is_empty()
    }
}

impl NvmKvStore for ShardedE2KvStore {
    fn name(&self) -> &'static str {
        "E2-NVM KV (sharded)"
    }

    fn put(&mut self, key: u64, value: &[u8]) -> Result<()> {
        let _timer = self.telemetry.put_latency_ns.start_timer();
        self.telemetry.puts.inc();
        let Some(p) = self.persist.clone() else {
            self.engine.put(key, value)?;
            return Ok(());
        };
        let shard = self.engine.shard_for(key);
        {
            // WAL lock held across the apply: record order == apply
            // order. The record buffers in the WAL and reaches the
            // kernel at the next `commit` — which the serving layer
            // runs before the ack leaves the process, so a crash in
            // between loses only mutations the client was never acked.
            // `engine.put` routes by the same `shard_for`, so the apply
            // lands on the shard whose WAL lock is held.
            let mut wal = p.wals[shard].lock();
            self.engine.put(key, value)?;
            wal.append_put(key, value)
                .map_err(|e| StoreError::Persistence(format!("wal append: {e}")))?;
        }
        self.note_mutations(&p, 1);
        Ok(())
    }

    fn put_many(&mut self, pairs: &[(u64, &[u8])]) -> Vec<Result<()>> {
        self.telemetry.puts.add(pairs.len() as u64);
        // Each shard packs its share of the batch into shared segments
        // under a single lock acquisition (see
        // [`ShardedEngine::put_many`]).
        let Some(p) = self.persist.clone() else {
            return self
                .engine
                .put_many(pairs)
                .into_iter()
                .map(|r| r.map_err(StoreError::from))
                .collect();
        };
        // Route the batch ourselves so each shard's group applies and
        // logs under that shard's WAL lock (one group-commit append per
        // shard). Mirrors ShardedEngine::put_many's routing.
        let mut by_shard: Vec<Vec<usize>> = vec![Vec::new(); self.engine.num_shards()];
        for (i, &(key, _)) in pairs.iter().enumerate() {
            by_shard[self.engine.shard_for(key)].push(i);
        }
        let mut out: Vec<Option<Result<()>>> = (0..pairs.len()).map(|_| None).collect();
        let mut acked = 0u64;
        for (shard, idxs) in by_shard.iter().enumerate() {
            if idxs.is_empty() {
                continue;
            }
            let group: Vec<(u64, &[u8])> = idxs.iter().map(|&i| pairs[i]).collect();
            let mut wal = p.wals[shard].lock();
            // `group` holds only this shard's keys, so the engine runs
            // it on this shard alone.
            let results = self.engine.put_many(&group);
            // Log exactly the applied (successful) subset, in order,
            // encoding straight from the borrowed values.
            let mut logged = 0u64;
            let mut appended: std::result::Result<(), StoreError> = Ok(());
            for (&(key, value), r) in group.iter().zip(&results) {
                if r.is_ok() {
                    if let Err(e) = wal.append_put(key, value) {
                        appended = Err(StoreError::Persistence(format!("wal append: {e}")));
                        break;
                    }
                    logged += 1;
                }
            }
            drop(wal);
            if appended.is_ok() {
                acked += logged;
            }
            for (&i, r) in idxs.iter().zip(results) {
                out[i] = Some(match (&appended, r) {
                    // Applied in memory but not durably logged: fail
                    // the ack so the client retries.
                    (Err(e), Ok(())) => Err(e.clone()),
                    (_, r) => r.map_err(StoreError::from),
                });
            }
        }
        if acked > 0 {
            self.note_mutations(&p, acked);
        }
        out.into_iter()
            .map(|r| r.expect("every pair routed to exactly one shard"))
            .collect()
    }

    fn get(&mut self, key: u64) -> Result<Option<Vec<u8>>> {
        let _timer = self.telemetry.get_latency_ns.start_timer();
        self.telemetry.gets.inc();
        match self.engine.get(key) {
            Ok(v) => Ok(Some(v)),
            Err(E2Error::KeyNotFound(_)) => Ok(None),
            Err(e) => Err(StoreError::from(e)),
        }
    }

    fn get_many(&mut self, keys: &[u64]) -> Result<Vec<Option<Vec<u8>>>> {
        self.telemetry.gets.add(keys.len() as u64);
        self.engine
            .get_many(keys)
            .into_iter()
            .map(|r| match r {
                Ok(v) => Ok(Some(v)),
                Err(E2Error::KeyNotFound(_)) => Ok(None),
                Err(e) => Err(StoreError::from(e)),
            })
            .collect()
    }

    fn delete(&mut self, key: u64) -> Result<bool> {
        self.telemetry.deletes.inc();
        let Some(p) = self.persist.clone() else {
            return Ok(self.engine.delete(key)?);
        };
        let shard = self.engine.shard_for(key);
        let existed = {
            let mut wal = p.wals[shard].lock();
            let existed = self.engine.delete(key)?;
            if existed {
                // Deleting an absent key changes nothing; log only
                // actual state transitions.
                wal.append_delete(key)
                    .map_err(|e| StoreError::Persistence(format!("wal append: {e}")))?;
            }
            existed
        };
        if existed {
            self.note_mutations(&p, 1);
        }
        Ok(existed)
    }

    fn scan(&mut self, lo: u64, hi: u64) -> Result<Vec<(u64, Vec<u8>)>> {
        self.scan_limit(lo, hi, usize::MAX)
    }

    /// The engine's two-phase scan (see [`ShardedEngine::scan_limit`]):
    /// one device read per returned entry, one atomic cut across shards.
    fn scan_limit(&mut self, lo: u64, hi: u64, limit: usize) -> Result<Vec<(u64, Vec<u8>)>> {
        self.telemetry.scans.inc();
        Ok(self.engine.scan_limit(lo, hi, limit)?)
    }

    fn stats(&self) -> e2nvm_sim::DeviceStats {
        self.engine.device_stats()
    }

    fn reset_stats(&mut self) {
        self.engine.reset_device_stats();
    }

    fn maintenance(&mut self) {
        self.engine.pump_retraining();
    }

    fn flush(&mut self) -> Result<u64> {
        self.snapshot_now()
    }

    fn commit(&mut self) -> Result<()> {
        let Some(p) = &self.persist else {
            return Ok(());
        };
        for wal in &p.wals {
            wal.lock()
                .commit()
                .map_err(|e| StoreError::Persistence(format!("wal commit: {e}")))?;
        }
        Ok(())
    }

    fn telemetry(&self) -> Option<&TelemetryRegistry> {
        self.telemetry.registry()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::check_against_shadow;
    use e2nvm_core::E2Config;
    use e2nvm_sim::{DeviceConfig, LogicalSegment, MemoryController};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn kv_cfg(seg_bytes: usize) -> E2Config {
        E2Config::builder()
            .fast(seg_bytes, 2)
            .pretrain_epochs(5)
            .joint_epochs(1)
            .padding_type(e2nvm_core::PaddingType::Zero)
            .build()
            .unwrap()
    }

    fn sharded_store(num_shards: usize, segments: usize, seg_bytes: usize) -> ShardedE2KvStore {
        let dev_cfg = DeviceConfig::builder()
            .segment_bytes(seg_bytes)
            .num_segments(segments)
            .build()
            .unwrap();
        let cfg = kv_cfg(seg_bytes);
        let mut rng = StdRng::seed_from_u64(23);
        let controllers: Vec<MemoryController> =
            e2nvm_sim::partition_controllers(&dev_cfg, num_shards)
                .unwrap()
                .into_iter()
                .map(|(_, mut mc)| {
                    for i in 0..mc.num_segments() {
                        let base = if i % 2 == 0 { 0x00u8 } else { 0xFF };
                        let content: Vec<u8> = (0..seg_bytes)
                            .map(|_| if rng.gen::<f32>() < 0.05 { !base } else { base })
                            .collect();
                        mc.seed(LogicalSegment(i), &content).unwrap();
                    }
                    mc
                })
                .collect();
        ShardedE2KvStore::new(ShardedEngine::train(controllers, &cfg).unwrap())
    }

    #[test]
    fn sharded_basic_crud() {
        for shards in [1, 4] {
            let mut s = sharded_store(shards, 64, 64);
            s.put(10, b"ten").unwrap();
            assert_eq!(s.get(10).unwrap().unwrap(), b"ten");
            s.put(10, b"TEN").unwrap();
            assert_eq!(s.get(10).unwrap().unwrap(), b"TEN");
            assert!(s.delete(10).unwrap());
            assert!(!s.delete(10).unwrap());
            assert_eq!(s.get(10).unwrap(), None);
            assert!(s.is_empty());
        }
    }

    #[test]
    fn sharded_shadow_stress() {
        for (shards, segments, seed) in [(1, 128, 29), (4, 192, 31)] {
            let mut s = sharded_store(shards, segments, 64);
            check_against_shadow(&mut s, 400, 12, seed).unwrap();
        }
    }

    #[test]
    fn sharded_scan_in_key_order() {
        for shards in [1, 4] {
            let mut s = sharded_store(shards, 64, 64);
            for k in [4u64, 8, 2, 6] {
                s.put(k, &k.to_le_bytes()).unwrap();
            }
            let keys: Vec<u64> = s.scan(3, 7).unwrap().into_iter().map(|(k, _)| k).collect();
            assert_eq!(keys, vec![4, 6]);
        }
    }

    #[test]
    fn sharded_put_many_roundtrips() {
        for shards in [1, 4] {
            let mut s = sharded_store(shards, 32 * shards, 64);
            let values: Vec<(u64, Vec<u8>)> =
                (0..32u64).map(|k| (k, vec![!(k as u8); 12])).collect();
            let pairs: Vec<(u64, &[u8])> = values.iter().map(|(k, v)| (*k, v.as_slice())).collect();
            let free_before = s.engine().free_count();
            assert!(s.put_many(&pairs).iter().all(Result::is_ok));
            assert_eq!(s.len(), 32);
            // Each shard packs its share of the batch, in input order,
            // five 12-byte values to a 64-byte segment.
            let mut groups: Vec<Vec<u64>> = vec![Vec::new(); shards];
            for k in 0..32u64 {
                groups[s.engine().shard_for(k)].push(k);
            }
            let packed: usize = groups.iter().map(|g| g.len().div_ceil(5)).sum();
            assert_eq!(
                free_before - s.engine().free_count(),
                packed,
                "{shards} shards"
            );
            // Batched reads come back in request order, misses included.
            let keys: Vec<u64> = (0..34u64).collect();
            let got = s.get_many(&keys).unwrap();
            for k in 0..32usize {
                assert_eq!(got[k].as_deref(), Some(&values[k].1[..]), "key {k}");
            }
            assert_eq!(got[32], None);
            assert_eq!(got[33], None);
            // The largest group's first five keys share one segment: it
            // is freed only when the last of them is deleted.
            let group = groups.iter().max_by_key(|g| g.len()).unwrap();
            let (last, mates) = group[..group.len().min(5)].split_last().unwrap();
            let after_batch = s.engine().free_count();
            for &k in mates {
                assert!(s.delete(k).unwrap());
            }
            assert_eq!(s.engine().free_count(), after_batch);
            assert!(s.delete(*last).unwrap());
            assert_eq!(s.engine().free_count(), after_batch + 1);
            let got = s.get_many(&keys).unwrap();
            for k in 0..34u64 {
                let deleted = k == *last || mates.contains(&k);
                let expected = (k < 32 && !deleted).then(|| vec![!(k as u8); 12]);
                assert_eq!(got[k as usize], expected, "key {k}");
            }
        }
    }

    #[test]
    fn recovery_rejects_a_snapshot_with_no_shards() {
        let dir = std::env::temp_dir().join(format!(
            "e2nvm_kv_zero_shards_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        let pcfg = PersistenceConfig::builder()
            .data_dir(&dir)
            .flush_policy(e2nvm_persist::FlushPolicy::OsOnly)
            .build()
            .unwrap();
        // A CRC-valid encoding of zero shards.
        SnapshotWriter::create(&pcfg.snapshot_path(), 0)
            .unwrap()
            .commit()
            .unwrap();
        let err = ShardedE2KvStore::recover(&pcfg, &kv_cfg(64), None).unwrap_err();
        assert_eq!(
            err,
            StoreError::Persistence("snapshot holds no shards".into())
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn persistence_recovers_acked_writes_after_kill() {
        let dir = std::env::temp_dir().join(format!(
            "e2nvm_kv_recover_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        let e2cfg = kv_cfg(64);
        let pcfg = || {
            PersistenceConfig::builder()
                .data_dir(&dir)
                .flush_policy(e2nvm_persist::FlushPolicy::OsOnly)
                .build()
                .unwrap()
        };
        let mut shadow: std::collections::BTreeMap<u64, Vec<u8>> = Default::default();
        {
            let mut s = sharded_store(4, 192, 64)
                .with_persistence(pcfg(), None)
                .unwrap();
            for k in 0..24u64 {
                let v = vec![k as u8; 16];
                s.put(k, &v).unwrap();
                shadow.insert(k, v);
            }
            let batch: Vec<(u64, Vec<u8>)> =
                (100..112u64).map(|k| (k, vec![!(k as u8); 12])).collect();
            let pairs: Vec<(u64, &[u8])> = batch.iter().map(|(k, v)| (*k, v.as_slice())).collect();
            assert!(s.put_many(&pairs).iter().all(Result::is_ok));
            for (k, v) in batch {
                shadow.insert(k, v);
            }
            for k in [3u64, 7, 105] {
                assert!(s.delete(k).unwrap());
                shadow.remove(&k);
            }
            // Group-commit barrier: hand the buffered records to the
            // kernel, as the server does before flushing acks.
            s.commit().unwrap();
            // Drop without a final snapshot: the data dir now holds the
            // *initial* (empty-ish) snapshot plus every op in the WALs —
            // the SIGKILL shape.
        }
        let (mut r, report) = ShardedE2KvStore::recover(&pcfg(), &e2cfg, None)
            .unwrap()
            .expect("snapshot present");
        assert_eq!(report.shards, 4);
        assert_eq!(report.keys, shadow.len());
        assert!(report.replayed_ops >= 24 + 12 + 3);
        assert_eq!(report.truncated_bytes, 0);
        for (k, v) in &shadow {
            assert_eq!(r.get(*k).unwrap().as_ref(), Some(v), "key {k}");
        }
        assert_eq!(r.get(3).unwrap(), None);
        // Second generation: snapshot compacts the WAL, then more ops
        // land in the fresh log; a second recovery sees both layers.
        assert!(r.snapshot_now().unwrap() > 0);
        r.put(500, b"after-snapshot").unwrap();
        shadow.insert(500, b"after-snapshot".to_vec());
        assert!(r.delete(0).unwrap());
        shadow.remove(&0);
        drop(r);
        let (mut r2, report2) = ShardedE2KvStore::recover(&pcfg(), &e2cfg, None)
            .unwrap()
            .expect("snapshot present");
        assert_eq!(report2.replayed_ops, 2);
        assert_eq!(r2.len(), shadow.len());
        for (k, v) in &shadow {
            assert_eq!(r2.get(*k).unwrap().as_ref(), Some(v), "key {k}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recovery_truncates_torn_wal_tail() {
        let dir = std::env::temp_dir().join(format!(
            "e2nvm_kv_torn_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        let e2cfg = kv_cfg(64);
        let pcfg = PersistenceConfig::builder()
            .data_dir(&dir)
            .flush_policy(e2nvm_persist::FlushPolicy::OsOnly)
            .build()
            .unwrap();
        {
            let mut s = sharded_store(2, 96, 64)
                .with_persistence(pcfg.clone(), None)
                .unwrap();
            for k in 0..8u64 {
                s.put(k, &[k as u8; 16]).unwrap();
            }
        }
        // Tear every WAL mid-record, as a crash mid-append would.
        let mut tore = false;
        for i in 0..2 {
            let path = pcfg.wal_path(i);
            let len = std::fs::metadata(&path).unwrap().len();
            if len > 3 {
                let f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
                f.set_len(len - 3).unwrap();
                tore = true;
            }
        }
        assert!(tore, "workload must hit at least one shard's WAL");
        let (mut r, report) = ShardedE2KvStore::recover(&pcfg, &e2cfg, None)
            .unwrap()
            .expect("snapshot present");
        // The torn record is gone (it was never acked in this scenario);
        // every fully-written record survives.
        assert!(report.truncated_bytes > 0);
        assert!(report.keys < 8);
        for k in 0..8u64 {
            if let Some(v) = r.get(k).unwrap() {
                assert_eq!(v, vec![k as u8; 16]);
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Build a sharded store whose shards all run start-gap wear
    /// leveling (ψ = `psi`), over `segments` *physical* slots split
    /// across `num_shards` shards. Each shard's logical capacity is one
    /// less than its slice of the physical space (the reserved gap).
    fn wear_leveled_store(
        num_shards: usize,
        segments: usize,
        seg_bytes: usize,
        psi: u64,
    ) -> ShardedE2KvStore {
        let dev_cfg = DeviceConfig::builder()
            .segment_bytes(seg_bytes)
            .num_segments(segments)
            .build()
            .unwrap();
        let cfg = kv_cfg(seg_bytes);
        let mut rng = StdRng::seed_from_u64(23);
        let controllers: Vec<MemoryController> =
            e2nvm_sim::partition_controllers_with(&dev_cfg, num_shards, |dev| {
                MemoryController::with_start_gap(dev, psi)
            })
            .unwrap()
            .into_iter()
            .map(|(_, mut mc)| {
                for i in 0..mc.num_segments() {
                    let base = if i % 2 == 0 { 0x00u8 } else { 0xFF };
                    let content: Vec<u8> = (0..seg_bytes)
                        .map(|_| if rng.gen::<f32>() < 0.05 { !base } else { base })
                        .collect();
                    mc.seed(LogicalSegment(i), &content).unwrap();
                }
                mc
            })
            .collect();
        ShardedE2KvStore::new(ShardedEngine::train(controllers, &cfg).unwrap())
    }

    /// Per-shard controller state of a recovered/live store, for
    /// comparing translation layers across a kill.
    fn controller_states(s: &ShardedE2KvStore) -> Vec<e2nvm_sim::ControllerState> {
        (0..s.engine().num_shards())
            .map(|i| {
                s.engine()
                    .with_shard_engine(i, |e| e.controller().export_state())
            })
            .collect()
    }

    #[test]
    fn persistence_roundtrips_under_active_wear_leveling() {
        let dir = std::env::temp_dir().join(format!(
            "e2nvm_kv_wl_recover_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        let e2cfg = kv_cfg(64);
        let pcfg = || {
            PersistenceConfig::builder()
                .data_dir(&dir)
                .flush_policy(e2nvm_persist::FlushPolicy::OsOnly)
                .build()
                .unwrap()
        };
        let mut shadow: std::collections::BTreeMap<u64, Vec<u8>> = Default::default();
        {
            // ψ=2 so ordinary test traffic rotates every shard's remap
            // away from identity while the WAL is live.
            let mut s = wear_leveled_store(2, 98, 64, 2)
                .with_persistence(pcfg(), None)
                .unwrap();
            for k in 0..40u64 {
                let v = vec![(k as u8) ^ 0xA5; 24];
                s.put(k, &v).unwrap();
                shadow.insert(k, v);
            }
            for k in [5u64, 17, 31] {
                assert!(s.delete(k).unwrap());
                shadow.remove(&k);
            }
            s.commit().unwrap();
            for cs in controller_states(&s) {
                assert!(cs.remap.iter().enumerate().any(|(l, &p)| l != p));
            }
            // Kill: drop without a final snapshot. The data dir holds
            // the attach-time snapshot plus every op in the WALs.
        }
        let (mut r, report) = ShardedE2KvStore::recover(&pcfg(), &e2cfg, None)
            .unwrap()
            .expect("snapshot present");
        assert_eq!(report.keys, shadow.len());
        for (k, v) in &shadow {
            assert_eq!(r.get(*k).unwrap().as_ref(), Some(v), "key {k}");
        }
        // The wear-leveling policy survived the kill and kept rotating
        // through replay: still active, still a consistent bijection.
        for i in 0..r.engine().num_shards() {
            r.engine().with_shard_engine(i, |e| {
                assert!(e.controller().wear_leveling_active());
                assert_eq!(e.controller().wear_leveling_name(), "start-gap");
                assert!(e.controller().remap_is_consistent());
            });
        }
        // Second cycle: snapshot the *mid-rotation* state, kill with no
        // further ops, and recover — the restored controllers must equal
        // the snapshotted ones exactly (replayed_ops == 0, so nothing
        // can have evolved).
        assert!(r.snapshot_now().unwrap() > 0);
        let frozen = controller_states(&r);
        assert!(frozen
            .iter()
            .any(|cs| cs.remap.iter().enumerate().any(|(l, &p)| l != p)));
        drop(r);
        let (mut r2, report2) = ShardedE2KvStore::recover(&pcfg(), &e2cfg, None)
            .unwrap()
            .expect("snapshot present");
        assert_eq!(report2.replayed_ops, 0);
        assert_eq!(controller_states(&r2), frozen);
        for (k, v) in &shadow {
            assert_eq!(r2.get(*k).unwrap().as_ref(), Some(v), "key {k}");
        }
        // And the recovered store keeps serving mutations.
        r2.put(900, b"post-recovery").unwrap();
        assert_eq!(r2.get(900).unwrap().unwrap(), b"post-recovery");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn deletes_recycle_capacity() {
        let mut s = sharded_store(1, 16, 64);
        for k in 0..10u64 {
            s.put(k, &[k as u8; 32]).unwrap();
        }
        for k in 0..10u64 {
            s.delete(k).unwrap();
        }
        // All capacity back: another 10 puts must succeed.
        for k in 100..110u64 {
            s.put(k, &[1u8; 32]).unwrap();
        }
        assert_eq!(s.len(), 10);
    }

    #[test]
    fn streamed_snapshot_equals_the_in_memory_encoding() {
        let dir = std::env::temp_dir().join(format!(
            "e2nvm_kv_stream_snap_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        let pcfg = PersistenceConfig::builder()
            .data_dir(&dir)
            .flush_policy(e2nvm_persist::FlushPolicy::OsOnly)
            .build()
            .unwrap();
        let mut s = sharded_store(4, 192, 64)
            .with_persistence(pcfg.clone(), None)
            .unwrap();
        for k in 0..40u64 {
            s.put(k, &vec![k as u8; 8 + (k as usize % 40)]).unwrap();
        }
        assert!(s.delete(5).unwrap());
        let written = s.snapshot_now().unwrap();
        // Reference: every shard's state gathered first, then encoded as
        // one buffer.
        let shards = (0..s.engine().num_shards())
            .map(|i| {
                s.engine().with_shard_engine(i, |e| ShardState {
                    device_image: e2nvm_sim::snapshot::to_image(e.controller().device()),
                    state: e.export_state().unwrap(),
                    controller: Some(e.controller().export_state()),
                })
            })
            .collect();
        let reference = StoreSnapshot { shards };
        let on_disk = std::fs::read(pcfg.snapshot_path()).unwrap();
        assert_eq!(on_disk, reference.to_bytes());
        assert_eq!(written, on_disk.len() as u64);
        assert_eq!(
            StoreSnapshot::load(&pcfg.snapshot_path()).unwrap().unwrap(),
            reference
        );
        drop(s);
        std::fs::remove_dir_all(&dir).ok();
    }
}
