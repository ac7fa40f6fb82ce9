//! The E2-NVM engine: the storage layer of the paper's Figure 3, tying
//! together the trained model, the dynamic address pool, the data index,
//! and the NVM device behind its memory controller.
//!
//! * **Write** (Algorithm 1): pad → predict cluster → pop an address
//!   from the DAP → write only the differing bits (the device model
//!   performs the comparison) → update the index.
//! * **Delete** (Algorithm 2): look up the address → drop the index
//!   entry (the "flag bit" lives in DRAM) → re-classify the content and
//!   recycle the address into the DAP.
//! * **Read / Scan**: pure index lookups plus device reads.

use crate::config::E2Config;
use crate::dap::DynamicAddressPool;
use crate::error::{E2Error, Result};
use crate::incremental::IncrementalIndexer;
use crate::model::E2Model;
use crate::padding::Padder;
use crate::telemetry::EngineTelemetry;
use e2nvm_sim::{LogicalSegment, MemoryController, SimError, WriteReport};
use e2nvm_telemetry::{Event, TelemetryRegistry};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{BTreeMap, HashMap};
use std::ops::RangeBounds;
use std::time::Instant;

/// An index entry: where a key's value lives — which segment, at what
/// byte offset within it (nonzero only for values packed by the
/// batched small-value path), and how long it is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Entry {
    seg: LogicalSegment,
    off: usize,
    len: usize,
}

/// Serving-path counters (prediction overhead, Figure 10's latency
/// comparison).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PredictionStats {
    /// Model predictions performed.
    pub predictions: u64,
    /// Wall-clock nanoseconds spent in padding + prediction.
    pub total_ns: u128,
}

impl PredictionStats {
    /// Mean prediction latency in nanoseconds.
    pub fn mean_ns(&self) -> f64 {
        if self.predictions == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.predictions as f64
        }
    }

    /// Merge another counter block into this one (cross-shard
    /// aggregation).
    pub fn merge(&mut self, other: &PredictionStats) {
        self.predictions += other.predictions;
        self.total_ns += other.total_ns;
    }
}

/// Everything an engine must remember across a restart, in a
/// serialization-friendly shape: the trained model artifact
/// ([`E2Model::to_bytes`]), the permanently retired segments, and the
/// key index. The DAP free lists and `live` reference counts are *not*
/// part of the state — they are derived (free = not retired ∧ not
/// indexed, classified by the restored model), which keeps the
/// persisted format independent of in-memory bookkeeping.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineState {
    /// Serialized model ([`E2Model::to_bytes`]).
    pub model: Vec<u8>,
    /// Permanently retired segments, ascending.
    pub retired: Vec<LogicalSegment>,
    /// Index entries as `(key, segment, byte offset, length)`.
    pub entries: Vec<(u64, LogicalSegment, usize, usize)>,
}

/// The E2-NVM engine.
pub struct E2Engine {
    cfg: E2Config,
    controller: MemoryController,
    model: Option<E2Model>,
    dap: DynamicAddressPool,
    padder: Padder,
    index: BTreeMap<u64, Entry>,
    /// Live-entry counts for segments holding more than one packed
    /// value (written by [`E2Engine::put_many`]). Segments absent from
    /// this map hold exactly one entry; a shared segment is recycled
    /// only once its count reaches zero.
    live: HashMap<LogicalSegment, usize>,
    rng: StdRng,
    prediction: PredictionStats,
    incremental: Option<IncrementalIndexer>,
    telemetry: EngineTelemetry,
}

impl E2Engine {
    /// Create an untrained engine over a controller. The controller's
    /// segment size must match the config.
    pub fn new(controller: MemoryController, cfg: E2Config) -> Result<Self> {
        cfg.validate()?;
        if controller.device().config().segment_bytes != cfg.segment_bytes {
            return Err(E2Error::Config(format!(
                "controller segment size {} != config segment size {}",
                controller.device().config().segment_bytes,
                cfg.segment_bytes
            )));
        }
        let num_segments = controller.num_segments();
        let padder = Padder::new(cfg.padding_location, cfg.padding_type);
        Ok(Self {
            dap: DynamicAddressPool::new(cfg.k, num_segments, cfg.retrain_min_free),
            rng: StdRng::seed_from_u64(cfg.seed),
            model: None,
            padder,
            index: BTreeMap::new(),
            live: HashMap::new(),
            prediction: PredictionStats::default(),
            incremental: None,
            telemetry: EngineTelemetry::disconnected(),
            controller,
            cfg,
        })
    }

    /// Register this engine's metrics (and its controller/device's) on
    /// `registry`, labeled with `shard`, and start feeding them. Safe to
    /// call before or after training; per-cluster gauges appear once a
    /// model is installed.
    pub fn attach_telemetry(&mut self, registry: &TelemetryRegistry, shard: usize) {
        let shard_label = shard.to_string();
        self.controller
            .attach_telemetry(registry, &[("shard", &shard_label)]);
        self.telemetry = EngineTelemetry::register(registry, shard);
        self.telemetry.refresh_clusters(&self.dap.occupancy());
    }

    /// The engine's telemetry sink (disconnected no-op handles until
    /// [`E2Engine::attach_telemetry`] is called).
    pub fn telemetry(&self) -> &EngineTelemetry {
        &self.telemetry
    }

    /// The configuration.
    pub fn config(&self) -> &E2Config {
        &self.cfg
    }

    /// Every *free* segment. Before the first training, every
    /// unretired segment is free; afterwards the DAP's membership table
    /// is the source of truth (placements may be made through
    /// [`E2Engine::place_value`] by callers that keep their own index,
    /// e.g. the node stores in `e2nvm-kvstore`, so the key index alone
    /// cannot be trusted here).
    fn free_segments(&self) -> Vec<LogicalSegment> {
        if self.model.is_some() {
            self.dap.free_segments()
        } else {
            (0..self.controller.num_segments())
                .map(LogicalSegment)
                .filter(|&seg| !self.dap.is_retired(seg))
                .collect()
        }
    }

    /// Replace the padding strategy. For [`crate::padding::PaddingType::Learned`] the
    /// generator is retrained on the current free-segment contents.
    pub fn set_padding(
        &mut self,
        location: crate::padding::PaddingLocation,
        ptype: crate::padding::PaddingType,
    ) {
        self.cfg.padding_location = location;
        self.cfg.padding_type = ptype;
        self.padder = Padder::new(location, ptype);
        if ptype == crate::padding::PaddingType::Learned && self.model.is_some() {
            let free = self.free_segments();
            let contents = peek_all(&self.controller, &free);
            self.padder.train_learned(&contents, 10, &mut self.rng);
        }
    }

    /// Train (or retrain) the model on the current free-segment contents
    /// and rebuild the dynamic address pool. This is the synchronous
    /// path; see [`crate::retrain`] for the background variant.
    pub fn train(&mut self) -> Result<()> {
        let free = self.free_segments();
        if free.is_empty() {
            return Err(E2Error::OutOfSpace);
        }
        let shard = self.telemetry.shard();
        self.telemetry.record_event(Event::RetrainStarted { shard });
        let started = Instant::now();
        let contents = peek_all(&self.controller, &free);
        let model = E2Model::train(&self.cfg, &contents, &mut self.rng);
        let loss = model.history().train.last().map(|l| f64::from(l.total()));
        self.install_model(model, &free);
        self.telemetry.record_event(Event::RetrainFinished {
            shard,
            loss,
            duration_ms: started.elapsed().as_millis() as u64,
        });
        Ok(())
    }

    /// Train on only the first `initial` segments and map just those
    /// into the address pool — the paper's §4.1.4 incremental indexing
    /// ("starts by indexing a portion of the memory"). Grow coverage
    /// later with [`E2Engine::index_more`].
    pub fn train_partial(&mut self, initial: usize) -> Result<()> {
        let total = self.controller.num_segments();
        if initial == 0 || initial > total {
            return Err(E2Error::Config(format!(
                "train_partial: initial {initial} out of 1..={total}"
            )));
        }
        let indexer = IncrementalIndexer::new(total, initial);
        let free: Vec<LogicalSegment> = indexer.initial_range().collect();
        let contents = peek_all(&self.controller, &free);
        let model = E2Model::train(&self.cfg, &contents, &mut self.rng);
        self.install_model(model, &free);
        self.incremental = Some(indexer);
        Ok(())
    }

    /// Map up to `count` previously unmapped segments into the DAP
    /// (classified with the current model). Returns how many were
    /// added. A no-op (0) once coverage is complete or when the engine
    /// was fully trained from the start.
    pub fn index_more(&mut self, count: usize) -> Result<usize> {
        let model = self.model.as_ref().ok_or(E2Error::NotTrained)?;
        let Some(indexer) = &mut self.incremental else {
            return Ok(0);
        };
        let new_segments = indexer.take_next(count);
        let contents = peek_all(&self.controller, &new_segments);
        let assignments = model.classify_segments(&contents);
        for (&seg, cluster) in new_segments.iter().zip(assignments) {
            self.dap.push(cluster, seg)?;
        }
        Ok(new_segments.len())
    }

    /// Sweep the candidate Ks on the current free contents (SSE elbow +
    /// energy valley, Figure 8) and train with the energy-optimal K.
    /// Returns the chosen K.
    pub fn train_auto_k(&mut self, candidates: &[usize], est_writes: u64) -> Result<usize> {
        let free = self.free_segments();
        if free.is_empty() {
            return Err(E2Error::OutOfSpace);
        }
        let contents = peek_all(&self.controller, &free);
        let selection = crate::kselect::sweep_k(
            &self.cfg,
            &contents,
            candidates,
            &self.controller.device().config().energy.clone(),
            est_writes,
            &mut self.rng,
        );
        self.cfg.k = selection.energy_k;
        let model = E2Model::train(&self.cfg, &contents, &mut self.rng);
        self.install_model(model, &free);
        Ok(selection.energy_k)
    }

    /// Install an externally trained model (from the background
    /// retrainer) and rebuild the DAP against the current free set.
    pub fn install_model_now(&mut self, model: E2Model) {
        let free = self.free_segments();
        self.install_model(model, &free);
    }

    fn install_model(&mut self, model: E2Model, free: &[LogicalSegment]) {
        let contents = peek_all(&self.controller, free);
        let assignments = model.classify_segments(&contents);
        let pairs: Vec<(LogicalSegment, usize)> = free.iter().copied().zip(assignments).collect();
        self.dap.rebuild(model.k(), &pairs);
        // Refresh padding state from the free contents.
        let total_bits: u64 = contents.iter().map(|c| (c.len() * 8) as u64).sum();
        let ones: u64 = contents
            .iter()
            .map(|c| e2nvm_sim::bitops::popcount(c))
            .sum();
        if total_bits > 0 {
            self.padder
                .set_memory_ratio(ones as f32 / total_bits as f32);
        }
        if self.cfg.padding_type == crate::padding::PaddingType::Learned {
            self.padder.train_learned(&contents, 10, &mut self.rng);
        }
        self.model = Some(model);
        self.telemetry.retrains.inc();
        self.telemetry.refresh_clusters(&self.dap.occupancy());
    }

    /// Whether the model has been trained.
    pub fn is_trained(&self) -> bool {
        self.model.is_some()
    }

    /// Whether any cluster's free list has reached the retraining
    /// threshold (§4.1.4).
    pub fn needs_retrain(&self) -> bool {
        self.model.is_some() && self.dap.below_threshold().is_some()
    }

    /// Low-level placement: choose a free segment for `value`, write it,
    /// and return the segment and the device report. Does not touch the
    /// key index (the KV layer and the benchmarks both build on this).
    pub fn place_value(&mut self, value: &[u8]) -> Result<(LogicalSegment, WriteReport)> {
        self.place_at(0, value)
    }

    /// Like [`E2Engine::place_value`], but writes `value` at a byte
    /// `offset` within the chosen segment, leaving the rest of the
    /// segment's (recycled) content untouched. Integrators that append
    /// records into partially filled segments use this so the untouched
    /// region costs no flips.
    ///
    /// Fault handling (graceful degradation): a transient verify
    /// failure is re-programmed up to
    /// [`E2Config::max_write_retries`] times — each retry only touches
    /// the bits that still differ. A segment that wears out, or keeps
    /// failing after the retries, is permanently retired from the pool
    /// and the placement falls back to the next free address; capacity
    /// shrinks but no write is ever lost. When the pool runs dry *and*
    /// segments have been retired the error is
    /// [`E2Error::PoolDepleted`] rather than plain `OutOfSpace`, so
    /// callers can tell degraded mode from ordinary fill-up.
    pub fn place_at(
        &mut self,
        offset: usize,
        value: &[u8],
    ) -> Result<(LogicalSegment, WriteReport)> {
        if offset + value.len() > self.cfg.segment_bytes {
            return Err(E2Error::ValueTooLarge {
                len: offset + value.len(),
                segment_bytes: self.cfg.segment_bytes,
            });
        }
        let model = self.model.as_ref().ok_or(E2Error::NotTrained)?;
        let t0 = Instant::now();
        let order = model.cluster_order(value, &self.padder, &mut self.rng);
        let pred_ns = t0.elapsed().as_nanos();
        self.prediction.predictions += 1;
        self.prediction.total_ns += pred_ns;
        self.telemetry.observe_prediction(pred_ns as u64);
        let predicted = order.first().copied().unwrap_or(0);
        loop {
            let Some((seg, used)) = self.dap.pop_with_fallback(&order) else {
                let retired = self.dap.retired_count();
                return Err(if retired > 0 {
                    E2Error::PoolDepleted { retired }
                } else {
                    E2Error::OutOfSpace
                });
            };
            let mut attempts = 0usize;
            // Program-and-verify with bounded retry: the device reports
            // a transient failure after keeping some bits stale, so a
            // retry re-programs only what still differs.
            let result = loop {
                match self.controller.write_at(seg, offset, value) {
                    Err(SimError::WriteFailed { .. }) if attempts < self.cfg.max_write_retries => {
                        attempts += 1;
                        self.telemetry.write_retries.inc();
                    }
                    other => break other,
                }
            };
            match result {
                Ok(report) => {
                    self.telemetry.record_placement(predicted, used);
                    self.telemetry
                        .set_cluster_depth(used, self.dap.cluster_len(used));
                    self.padder.observe(value);
                    return Ok((seg, report));
                }
                Err(SimError::SegmentWornOut { .. } | SimError::WriteFailed { .. }) => {
                    // Worn out, or still failing verify after the retry
                    // budget: quarantine the address and fall back.
                    self.retire_segment(seg);
                }
                Err(e) => return Err(e.into()),
            }
        }
    }

    /// Permanently quarantine `seg`: it leaves the address pool for
    /// good, the *physical* slot the dying write actually hit is
    /// quarantined on the controller (so later relocations route around
    /// the dead medium), and the retirement is journaled with both
    /// ids. Idempotent. Calling this from the failed write's error path
    /// is sound because the remap only mutates after *successful*
    /// writes — the failed write's translation is still live.
    fn retire_segment(&mut self, seg: LogicalSegment) {
        if self.dap.retire(seg) {
            let phys = self
                .controller
                .retire(seg)
                .expect("retired logical id must still translate");
            self.telemetry.record_retirement(seg.index(), phys.index());
        }
    }

    /// Preview where [`E2Engine::place_value`] would land `value` and
    /// how many bits the write would flip there, without consuming the
    /// address. Integrators use this to decide between relocating a
    /// node image and updating it in place. Returns `None` when the
    /// pool is empty.
    pub fn preview_placement(&mut self, value: &[u8]) -> Result<Option<(LogicalSegment, u64)>> {
        if value.len() > self.cfg.segment_bytes {
            return Err(E2Error::ValueTooLarge {
                len: value.len(),
                segment_bytes: self.cfg.segment_bytes,
            });
        }
        let model = self.model.as_ref().ok_or(E2Error::NotTrained)?;
        let order = model.cluster_order(value, &self.padder, &mut self.rng);
        for c in order {
            if let Some(seg) = self.dap.peek_head(c) {
                let content = self.controller.peek(seg)?;
                let flips = e2nvm_sim::bitops::hamming(&content[..value.len()], value);
                return Ok(Some((seg, flips)));
            }
        }
        Ok(None)
    }

    /// Low-level recycle: classify the segment's current content and
    /// return it to the DAP. Recycling a retired segment is a no-op —
    /// dead addresses never re-enter circulation.
    pub fn recycle_segment(&mut self, seg: LogicalSegment) -> Result<()> {
        if self.dap.is_retired(seg) {
            return Ok(());
        }
        let content = self.controller.peek(seg)?.to_vec();
        let model = self.model.as_ref().ok_or(E2Error::NotTrained)?;
        let cluster = model.predict_features(&e2nvm_ml::data::bytes_to_features(&content));
        self.dap.push(cluster, seg)?;
        self.telemetry
            .set_cluster_depth(cluster, self.dap.cluster_len(cluster));
        Ok(())
    }

    /// Drop one live reference to the segment behind a displaced index
    /// entry. Singly-occupied segments (every entry written by
    /// [`E2Engine::put`]) recycle immediately; segments shared by a
    /// packed batch recycle only when their last entry is released.
    fn release_entry(&mut self, entry: Entry) -> Result<()> {
        match self.live.get_mut(&entry.seg) {
            Some(count) => {
                *count -= 1;
                if *count == 0 {
                    self.live.remove(&entry.seg);
                    self.recycle_segment(entry.seg)?;
                }
            }
            None => self.recycle_segment(entry.seg)?,
        }
        Ok(())
    }

    /// Index every item of an emitted [`Batch`] against the one segment
    /// its packed bytes were placed on.
    fn commit_batch(&mut self, batch: &crate::batch::Batch) -> Result<()> {
        let (seg, _report) = self.place_value(&batch.data)?;
        // Count the whole batch up front so that releasing an
        // intra-batch duplicate (same key twice in one batch) cannot
        // drop the count to zero while later items still land here.
        self.live.insert(seg, batch.items.len());
        for &(key, off, len) in &batch.items {
            if let Some(old) = self.index.insert(key, Entry { seg, off, len }) {
                self.release_entry(old)?;
            }
        }
        Ok(())
    }

    /// PUT / UPDATE (Algorithm 1). Returns the device write report.
    pub fn put(&mut self, key: u64, value: &[u8]) -> Result<WriteReport> {
        let (seg, report) = self.place_value(value)?;
        if let Some(old) = self.index.insert(
            key,
            Entry {
                seg,
                off: 0,
                len: value.len(),
            },
        ) {
            // The key's previous segment becomes free again (or loses
            // one of its packed entries).
            self.release_entry(old)?;
        }
        Ok(report)
    }

    /// Batched PUT: pack consecutive small values into shared segments
    /// via [`crate::batch::BatchAccumulator`], paying one placement
    /// (prediction + pop + device write) per *filled segment* instead
    /// of one per value. Returns one result per pair, in order; a
    /// placement failure fails every item of the affected batch and
    /// later batches are still attempted. Duplicate keys within
    /// `pairs` behave like sequential puts: the last occurrence wins.
    pub fn put_many(&mut self, pairs: &[(u64, &[u8])]) -> Vec<Result<()>> {
        let seg_bytes = self.cfg.segment_bytes;
        let mut results: Vec<Result<()>> = (0..pairs.len()).map(|_| Ok(())).collect();
        let mut acc = crate::batch::BatchAccumulator::new(seg_bytes);
        // Indices of pairs sitting in the accumulator, awaiting commit.
        let mut pending: Vec<usize> = Vec::new();
        let commit = |this: &mut Self,
                      batch: &crate::batch::Batch,
                      pending: &mut Vec<usize>,
                      results: &mut Vec<Result<()>>| {
            if let Err(e) = this.commit_batch(batch) {
                for &i in pending.iter() {
                    results[i] = Err(e.clone());
                }
            }
            pending.clear();
        };
        for (i, &(key, value)) in pairs.iter().enumerate() {
            if value.len() > seg_bytes {
                results[i] = Err(E2Error::ValueTooLarge {
                    len: value.len(),
                    segment_bytes: seg_bytes,
                });
                continue;
            }
            if value.is_empty() {
                // Zero-length values carry no packed bytes, so the
                // accumulator cannot represent them; flush what is
                // pending (order matters for duplicate keys) and take
                // the ordinary single-put path.
                if let Some(batch) = acc.flush() {
                    commit(self, &batch, &mut pending, &mut results);
                }
                results[i] = self.put(key, value).map(|_| ());
                continue;
            }
            if let Some(batch) = acc.push(key, value) {
                commit(self, &batch, &mut pending, &mut results);
            }
            pending.push(i);
        }
        if let Some(batch) = acc.flush() {
            commit(self, &batch, &mut pending, &mut results);
        }
        results
    }

    /// Batched GET: one result per key, in order. Equivalent to calling
    /// [`E2Engine::get`] per key; exists so lock-holding wrappers can
    /// serve a whole batch under a single acquisition.
    pub fn get_many(&mut self, keys: &[u64]) -> Vec<Result<Vec<u8>>> {
        keys.iter().map(|&k| self.get(k)).collect()
    }

    /// GET: read the value back.
    pub fn get(&mut self, key: u64) -> Result<Vec<u8>> {
        let entry = *self.index.get(&key).ok_or(E2Error::KeyNotFound(key))?;
        self.read_entry(entry)
    }

    /// Read one indexed value from the device: exactly one device read.
    pub(crate) fn read_entry(&mut self, entry: Entry) -> Result<Vec<u8>> {
        let data = self.controller.read(entry.seg)?;
        Ok(data[entry.off..entry.off + entry.len].to_vec())
    }

    /// The index entries with keys in `range`, in key order. Index
    /// only: no device access, so walking it costs no reads or energy.
    pub(crate) fn index_range<R: RangeBounds<u64>>(
        &self,
        range: R,
    ) -> impl Iterator<Item = (u64, Entry)> + '_ {
        self.index.range(range).map(|(&k, &e)| (k, e))
    }

    /// DELETE (Algorithm 2). Returns true if the key existed.
    pub fn delete(&mut self, key: u64) -> Result<bool> {
        let Some(entry) = self.index.remove(&key) else {
            return Ok(false);
        };
        self.release_entry(entry)?;
        Ok(true)
    }

    /// SCAN: all key/value pairs with keys in `range`, in key order.
    pub fn scan<R: RangeBounds<u64>>(&mut self, range: R) -> Result<Vec<(u64, Vec<u8>)>> {
        self.scan_limit(range, usize::MAX)
    }

    /// SCAN stopping after `limit` entries: the first `limit` key/value
    /// pairs with keys in `range`, in key order. Walks the index only
    /// as far as the limit, so a small page over a huge range costs
    /// O(limit + log n) rather than O(range).
    pub fn scan_limit<R: RangeBounds<u64>>(
        &mut self,
        range: R,
        limit: usize,
    ) -> Result<Vec<(u64, Vec<u8>)>> {
        let entries: Vec<(u64, Entry)> = self.index_range(range).take(limit).collect();
        entries
            .into_iter()
            .map(|(k, e)| Ok((k, self.read_entry(e)?)))
            .collect()
    }

    /// Number of keys stored.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Free segments available for placement.
    pub fn free_count(&self) -> usize {
        self.dap.free_count()
    }

    /// Segments permanently retired by wear-out (degraded-mode
    /// capacity loss).
    pub fn retired_count(&self) -> usize {
        self.dap.retired_count()
    }

    /// The retired segments themselves, ascending.
    pub fn retired_segments(&self) -> Vec<LogicalSegment> {
        self.dap.retired_segments()
    }

    /// Physical slots quarantined on the controller — the address space
    /// wear heatmaps and the HEALTH wire summary are keyed by. Under
    /// the identity mapping this equals [`E2Engine::retired_count`];
    /// under active wear leveling only the physical set names the dead
    /// medium.
    pub fn retired_physical_count(&self) -> usize {
        self.controller.retired_physical_count()
    }

    /// Device statistics (flips, energy, latency).
    pub fn device_stats(&self) -> &e2nvm_sim::DeviceStats {
        self.controller.stats()
    }

    /// Reset device statistics (e.g. after a warm-up phase).
    pub fn reset_device_stats(&mut self) {
        self.controller.reset_stats();
    }

    /// Prediction-path counters.
    pub fn prediction_stats(&self) -> PredictionStats {
        self.prediction
    }

    /// Estimated DRAM footprint of the DAP (Figure 7's y-axis).
    pub fn dap_memory_bytes(&self) -> usize {
        self.dap.memory_bytes()
    }

    /// Modeled multiply-accumulates per prediction.
    pub fn predict_macs(&self) -> u64 {
        self.model.as_ref().map(E2Model::predict_macs).unwrap_or(0)
    }

    /// The trained model, if any.
    pub fn model(&self) -> Option<&E2Model> {
        self.model.as_ref()
    }

    /// Borrow the controller (seeding, wear inspection).
    pub fn controller_mut(&mut self) -> &mut MemoryController {
        &mut self.controller
    }

    /// Borrow the controller immutably.
    pub fn controller(&self) -> &MemoryController {
        &self.controller
    }

    /// Snapshot the free-segment contents (for the background
    /// retrainer).
    pub fn training_snapshot(&self) -> Vec<Vec<u8>> {
        let free = self.free_segments();
        peek_all(&self.controller, &free)
            .into_iter()
            .map(<[u8]>::to_vec)
            .collect()
    }

    /// Export the engine's durable state (model, retirement, index) for
    /// persistence. Device contents and wear live in the device image
    /// (`e2nvm_sim::snapshot`); together the two reconstruct the engine
    /// via [`E2Engine::restore_state`]. Fails with
    /// [`E2Error::NotTrained`] before the first training — an untrained
    /// engine has nothing worth persisting.
    pub fn export_state(&self) -> Result<EngineState> {
        let model = self.model.as_ref().ok_or(E2Error::NotTrained)?;
        Ok(EngineState {
            model: model.to_bytes(),
            retired: self.dap.retired_segments(),
            entries: self
                .index
                .iter()
                .map(|(&k, e)| (k, e.seg, e.off, e.len))
                .collect(),
        })
    }

    /// Restore a previously exported state onto a *fresh* engine whose
    /// controller was rebuilt from the matching device image. Installs
    /// the model without retraining, re-retires dead segments, rebuilds
    /// the index and live counts, and reconstructs the DAP free lists
    /// from first principles (free = not retired ∧ not indexed,
    /// classified by the restored model against the device's current
    /// contents).
    pub fn restore_state(&mut self, state: &EngineState) -> Result<()> {
        if self.model.is_some() || !self.index.is_empty() {
            return Err(E2Error::Config(
                "restore_state requires a freshly constructed engine".into(),
            ));
        }
        let model = E2Model::from_bytes(&state.model)
            .map_err(|e| E2Error::Config(format!("restore_state: bad model artifact: {e}")))?;
        if model.input_bits() != self.cfg.input_bits() {
            return Err(E2Error::Config(format!(
                "restore_state: model expects {} input bits, config provides {}",
                model.input_bits(),
                self.cfg.input_bits()
            )));
        }
        let num_segments = self.controller.num_segments();
        for &seg in &state.retired {
            if seg.index() >= num_segments {
                return Err(E2Error::Config(format!(
                    "restore_state: retired {seg} out of range ({num_segments} segments)"
                )));
            }
        }
        let mut per_seg: HashMap<LogicalSegment, usize> = HashMap::new();
        for &(key, seg, off, len) in &state.entries {
            if seg.index() >= num_segments {
                return Err(E2Error::Config(format!(
                    "restore_state: key {key} on out-of-range {seg}"
                )));
            }
            if off + len > self.cfg.segment_bytes {
                return Err(E2Error::Config(format!(
                    "restore_state: key {key} spans [{off}, {}) past segment size {}",
                    off + len,
                    self.cfg.segment_bytes
                )));
            }
            if state.retired.contains(&seg) {
                return Err(E2Error::Config(format!(
                    "restore_state: key {key} lives on retired {seg}"
                )));
            }
            if self.index.insert(key, Entry { seg, off, len }).is_some() {
                self.index.clear();
                return Err(E2Error::Config(format!(
                    "restore_state: duplicate key {key}"
                )));
            }
            *per_seg.entry(seg).or_insert(0) += 1;
        }
        for &seg in &state.retired {
            self.dap.retire(seg);
        }
        // Mirror the quarantine onto the controller's physical flags
        // when the mapping is the identity (legacy snapshots carry no
        // controller section, and under identity logical == physical).
        // A controller rebuilt from a persisted `ControllerState`
        // already has authoritative flags and a possibly non-identity
        // remap — retiring through the *current* translation would mark
        // the wrong slot, so it is skipped.
        if self.controller.remap().is_identity() {
            for &seg in &state.retired {
                let _ = self.controller.retire(seg);
            }
        }
        // Singly-occupied segments are represented by *absence* from the
        // live map (see the `live` field docs), so only packed segments
        // carry a count.
        self.live = per_seg
            .iter()
            .filter(|&(_, &count)| count >= 2)
            .map(|(&seg, &count)| (seg, count))
            .collect();
        let free: Vec<LogicalSegment> = (0..num_segments)
            .map(LogicalSegment)
            .filter(|seg| !self.dap.is_retired(*seg) && !per_seg.contains_key(seg))
            .collect();
        self.install_model(model, &free);
        Ok(())
    }
}

/// Borrow the contents of `segs` from the device, in order: training and
/// classification read the pool in place instead of copying it.
fn peek_all<'a>(controller: &'a MemoryController, segs: &[LogicalSegment]) -> Vec<&'a [u8]> {
    segs.iter()
        .map(|&seg| controller.peek(seg).expect("segment in range"))
        .collect()
}

impl std::fmt::Debug for E2Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("E2Engine")
            .field("trained", &self.model.is_some())
            .field("keys", &self.index.len())
            .field("free", &self.dap.free_count())
            .field("k", &self.cfg.k)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use e2nvm_sim::{DeviceConfig, NvmDevice};
    use rand::Rng;

    fn engine(num_segments: usize, seg_bytes: usize, k: usize) -> E2Engine {
        let dev = NvmDevice::new(
            DeviceConfig::builder()
                .segment_bytes(seg_bytes)
                .num_segments(num_segments)
                .build()
                .unwrap(),
        );
        let cfg = E2Config::builder()
            .fast(seg_bytes, k)
            .pretrain_epochs(6)
            .joint_epochs(2)
            .padding_type(crate::padding::PaddingType::Zero)
            .build()
            .unwrap();
        E2Engine::new(MemoryController::without_wear_leveling(dev), cfg).unwrap()
    }

    fn seed_two_families(e: &mut E2Engine, rng: &mut StdRng) {
        let n = e.controller.num_segments();
        let bytes = e.cfg.segment_bytes;
        for i in 0..n {
            let base = if i % 2 == 0 { 0x00u8 } else { 0xFF };
            let content: Vec<u8> = (0..bytes)
                .map(|_| if rng.gen::<f32>() < 0.05 { !base } else { base })
                .collect();
            e.controller_mut()
                .seed(LogicalSegment(i), &content)
                .unwrap();
        }
    }

    #[test]
    fn untrained_engine_rejects_ops() {
        let mut e = engine(8, 32, 2);
        assert_eq!(e.put(1, &[0u8; 16]), Err(E2Error::NotTrained));
        assert!(!e.is_trained());
    }

    #[test]
    fn put_get_delete_roundtrip() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut e = engine(32, 32, 2);
        seed_two_families(&mut e, &mut rng);
        e.train().unwrap();
        assert!(e.is_trained());
        e.put(7, b"hello world").unwrap();
        assert_eq!(e.get(7).unwrap(), b"hello world");
        assert_eq!(e.len(), 1);
        assert!(e.delete(7).unwrap());
        assert!(!e.delete(7).unwrap());
        assert_eq!(e.get(7), Err(E2Error::KeyNotFound(7)));
        assert!(e.is_empty());
    }

    #[test]
    fn update_recycles_old_segment() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut e = engine(16, 32, 2);
        seed_two_families(&mut e, &mut rng);
        e.train().unwrap();
        let before = e.free_count();
        e.put(1, &[0xAAu8; 32]).unwrap();
        assert_eq!(e.free_count(), before - 1);
        // Update: new segment taken, old one returned.
        e.put(1, &[0x55u8; 32]).unwrap();
        assert_eq!(e.free_count(), before - 1);
        assert_eq!(e.get(1).unwrap(), vec![0x55u8; 32]);
    }

    #[test]
    fn placement_prefers_similar_content() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut e = engine(64, 32, 2);
        seed_two_families(&mut e, &mut rng);
        e.train().unwrap();
        // Writing all-zeros content must land on a zeros-family segment
        // (even index) — that is the whole point of E2-NVM.
        let (seg, report) = e.place_value(&[0u8; 32]).unwrap();
        assert_eq!(seg.index() % 2, 0, "zeros value placed on ones segment");
        // Few flips: the old content is already ~95% zeros.
        assert!(
            report.bits_flipped < 64,
            "too many flips: {}",
            report.bits_flipped
        );
        let (_, report_ones) = e.place_value(&[0xFFu8; 32]).unwrap();
        assert!(report_ones.bits_flipped < 64);
    }

    #[test]
    fn scan_returns_sorted_range() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut e = engine(32, 32, 2);
        seed_two_families(&mut e, &mut rng);
        e.train().unwrap();
        for k in [5u64, 1, 9, 3] {
            e.put(k, &k.to_le_bytes()).unwrap();
        }
        let result = e.scan(2..=8).unwrap();
        let keys: Vec<u64> = result.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, vec![3, 5]);
        assert_eq!(result[0].1, 3u64.to_le_bytes().to_vec());
    }

    #[test]
    fn out_of_space_detected() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut e = engine(8, 32, 2);
        seed_two_families(&mut e, &mut rng);
        e.train().unwrap();
        for k in 0..8u64 {
            e.put(k, &[1u8; 8]).unwrap();
        }
        assert_eq!(e.put(99, &[1u8; 8]), Err(E2Error::OutOfSpace));
        // Deleting frees space again.
        e.delete(0).unwrap();
        e.put(99, &[1u8; 8]).unwrap();
    }

    #[test]
    fn value_too_large_rejected() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut e = engine(8, 32, 2);
        seed_two_families(&mut e, &mut rng);
        e.train().unwrap();
        assert!(matches!(
            e.put(1, &[0u8; 33]),
            Err(E2Error::ValueTooLarge { len: 33, .. })
        ));
    }

    #[test]
    fn needs_retrain_when_cluster_drains() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut e = engine(12, 32, 2);
        seed_two_families(&mut e, &mut rng);
        e.train().unwrap();
        assert!(!e.needs_retrain());
        // Drain most of the pool.
        for k in 0..9u64 {
            e.put(k, &[0u8; 32]).unwrap();
        }
        assert!(e.needs_retrain());
    }

    #[test]
    fn prediction_stats_accumulate() {
        let mut rng = StdRng::seed_from_u64(8);
        let mut e = engine(16, 32, 2);
        seed_two_families(&mut e, &mut rng);
        e.train().unwrap();
        e.put(1, &[0u8; 8]).unwrap();
        e.put(2, &[0u8; 8]).unwrap();
        let s = e.prediction_stats();
        assert_eq!(s.predictions, 2);
        assert!(s.mean_ns() > 0.0);
        assert!(e.predict_macs() > 0);
    }

    fn faulty_engine(num_segments: usize, endurance_bits: u64, transient_rate: f64) -> E2Engine {
        let dev = NvmDevice::new(
            DeviceConfig::builder()
                .segment_bytes(32)
                .num_segments(num_segments)
                .fault(e2nvm_sim::FaultConfig {
                    seed: 9,
                    endurance_bits,
                    endurance_shape: 3.0,
                    transient_rate,
                })
                .build()
                .unwrap(),
        );
        let cfg = E2Config::builder()
            .fast(32, 2)
            .pretrain_epochs(6)
            .joint_epochs(2)
            .retrain_min_free(0)
            .padding_type(crate::padding::PaddingType::Zero)
            .build()
            .unwrap();
        E2Engine::new(MemoryController::without_wear_leveling(dev), cfg).unwrap()
    }

    /// Per-round pseudo-random content: ~half the bits differ from any
    /// earlier round, so content-similar placement cannot dodge the
    /// flips and endurance burns fast.
    fn burn_pattern(round: usize) -> [u8; 32] {
        let mut x = round as u64 ^ 0xB17_B17;
        let mut out = [0u8; 32];
        for b in out.iter_mut() {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            *b = (x >> 56) as u8;
        }
        out
    }

    #[test]
    fn worn_segment_is_retired_and_serving_continues() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut e = faulty_engine(16, 4_000, 0.0);
        seed_two_families(&mut e, &mut rng);
        e.train().unwrap();
        let mut round = 0usize;
        while e.retired_count() == 0 {
            assert!(round < 2_000, "no segment ever wore out");
            e.put(1, &burn_pattern(round)).unwrap();
            round += 1;
        }
        // Degraded mode: a segment died mid-write, the engine retired it
        // and fell back — the value of that very write survived intact.
        assert_eq!(e.get(1).unwrap(), burn_pattern(round - 1).to_vec());
        let retired = e.retired_segments();
        assert_eq!(retired.len(), e.retired_count());
        // Writes keep working after retirement.
        e.put(2, &[0x0Fu8; 32]).unwrap();
        assert_eq!(e.get(2).unwrap(), vec![0x0Fu8; 32]);
    }

    #[test]
    fn transient_failures_are_retried_transparently() {
        let mut rng = StdRng::seed_from_u64(12);
        let mut e = faulty_engine(16, u64::MAX >> 8, 0.2);
        seed_two_families(&mut e, &mut rng);
        e.train().unwrap();
        for round in 0..60 {
            e.put(round as u64 % 4, &burn_pattern(round)).unwrap();
        }
        for k in 0..4u64 {
            // Every key readable: retries converged on each value.
            assert_eq!(e.get(k).unwrap().len(), 32);
        }
        // With a 20% transient rate over 60 writes, at least one retry
        // must have been needed somewhere — but none escalated to
        // retirement (endurance is unreachable, verify converges).
        assert_eq!(e.retired_count(), 0);
    }

    #[test]
    fn depleted_pool_reports_degraded_mode() {
        let mut rng = StdRng::seed_from_u64(13);
        let mut e = faulty_engine(8, 1_500, 0.0);
        seed_two_families(&mut e, &mut rng);
        e.train().unwrap();
        let mut last = Ok(());
        for round in 0..2_000 {
            last = e.put(1, &burn_pattern(round)).map(|_| ());
            if last.is_err() {
                break;
            }
        }
        match last {
            Err(E2Error::PoolDepleted { retired }) => {
                assert!(retired > 0, "depletion must report retirements");
                assert_eq!(retired, e.retired_count());
            }
            other => panic!("expected PoolDepleted, got {other:?}"),
        }
        // The key's last successful value is still readable.
        assert_eq!(e.get(1).unwrap().len(), 32);
    }

    #[test]
    fn retrain_preserves_retirements() {
        let mut rng = StdRng::seed_from_u64(14);
        let mut e = faulty_engine(16, 4_000, 0.0);
        seed_two_families(&mut e, &mut rng);
        e.train().unwrap();
        let mut round = 0usize;
        while e.retired_count() == 0 {
            assert!(round < 2_000, "no segment ever wore out");
            e.put(1, &burn_pattern(round)).unwrap();
            round += 1;
        }
        let retired = e.retired_segments();
        e.train().unwrap();
        assert_eq!(
            e.retired_segments(),
            retired,
            "retraining must not resurrect dead segments"
        );
        for seg in retired {
            assert!(!e.dap.is_free(seg));
        }
    }

    #[test]
    fn put_many_packs_small_values_into_shared_segments() {
        let mut rng = StdRng::seed_from_u64(21);
        let mut e = engine(32, 32, 2);
        seed_two_families(&mut e, &mut rng);
        e.train().unwrap();
        let free_before = e.free_count();
        // Eight 8-byte values fit four-to-a-segment: two segments total.
        let pairs: Vec<(u64, Vec<u8>)> = (0..8u64).map(|k| (k, k.to_le_bytes().to_vec())).collect();
        let borrowed: Vec<(u64, &[u8])> = pairs.iter().map(|(k, v)| (*k, v.as_slice())).collect();
        let results = e.put_many(&borrowed);
        assert!(results.iter().all(Result::is_ok));
        assert_eq!(
            free_before - e.free_count(),
            2,
            "8x8B values must occupy exactly two 32B segments"
        );
        for k in 0..8u64 {
            assert_eq!(e.get(k).unwrap(), k.to_le_bytes().to_vec());
        }
    }

    #[test]
    fn packed_segment_recycles_only_after_last_entry_dies() {
        let mut rng = StdRng::seed_from_u64(22);
        let mut e = engine(32, 32, 2);
        seed_two_families(&mut e, &mut rng);
        e.train().unwrap();
        let pairs: Vec<(u64, &[u8])> = vec![(1, &[0u8; 8]), (2, &[0u8; 8]), (3, &[0u8; 8])];
        assert!(e.put_many(&pairs).iter().all(Result::is_ok));
        let after_batch = e.free_count();
        // Two of three packed entries die: the shared segment stays
        // live (the survivor still points into it).
        assert!(e.delete(1).unwrap());
        assert!(e.delete(2).unwrap());
        assert_eq!(e.free_count(), after_batch);
        // The last entry dies: now the segment comes back.
        assert!(e.delete(3).unwrap());
        assert_eq!(e.free_count(), after_batch + 1);
    }

    #[test]
    fn put_many_duplicate_key_last_wins() {
        let mut rng = StdRng::seed_from_u64(23);
        let mut e = engine(32, 32, 2);
        seed_two_families(&mut e, &mut rng);
        e.train().unwrap();
        let pairs: Vec<(u64, &[u8])> = vec![(7, b"first"), (8, b"other"), (7, b"second")];
        assert!(e.put_many(&pairs).iter().all(Result::is_ok));
        assert_eq!(e.get(7).unwrap(), b"second");
        assert_eq!(e.get(8).unwrap(), b"other");
        assert_eq!(e.len(), 2);
    }

    #[test]
    fn put_many_mixed_sizes_and_errors() {
        let mut rng = StdRng::seed_from_u64(24);
        let mut e = engine(32, 32, 2);
        seed_two_families(&mut e, &mut rng);
        e.train().unwrap();
        let big = [0u8; 33];
        let pairs: Vec<(u64, &[u8])> = vec![(1, b"ok"), (2, &big), (3, b""), (4, &[0xAA; 32])];
        let results = e.put_many(&pairs);
        assert!(results[0].is_ok());
        assert!(matches!(
            results[1],
            Err(E2Error::ValueTooLarge { len: 33, .. })
        ));
        assert!(results[2].is_ok(), "empty value stored: {:?}", results[2]);
        assert!(results[3].is_ok());
        assert_eq!(e.get(1).unwrap(), b"ok");
        assert_eq!(e.get(2), Err(E2Error::KeyNotFound(2)));
        assert_eq!(e.get(3).unwrap(), Vec::<u8>::new());
        assert_eq!(e.get(4).unwrap(), vec![0xAA; 32]);
        let got = e.get_many(&[1, 2, 3]);
        assert_eq!(got[0].as_deref(), Ok(&b"ok"[..]));
        assert_eq!(got[1], Err(E2Error::KeyNotFound(2)));
    }

    #[test]
    fn put_many_overwrite_then_single_put_roundtrip() {
        let mut rng = StdRng::seed_from_u64(25);
        let mut e = engine(32, 32, 2);
        seed_two_families(&mut e, &mut rng);
        e.train().unwrap();
        e.put(5, b"single").unwrap();
        let pairs: Vec<(u64, &[u8])> = vec![(5, b"batched"), (6, b"mate")];
        assert!(e.put_many(&pairs).iter().all(Result::is_ok));
        assert_eq!(e.get(5).unwrap(), b"batched");
        // Overwrite a packed entry with a single put; its batch-mate
        // must survive on the shared segment.
        e.put(5, b"again").unwrap();
        assert_eq!(e.get(5).unwrap(), b"again");
        assert_eq!(e.get(6).unwrap(), b"mate");
    }

    #[test]
    fn mismatched_segment_size_rejected() {
        let dev = NvmDevice::new(
            DeviceConfig::builder()
                .segment_bytes(64)
                .num_segments(8)
                .build()
                .unwrap(),
        );
        let cfg = E2Config::fast(32, 2);
        assert!(matches!(
            E2Engine::new(MemoryController::without_wear_leveling(dev), cfg),
            Err(E2Error::Config(_))
        ));
    }
}
