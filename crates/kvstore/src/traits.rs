//! The common KV interface every NVM index structure implements, so the
//! Figure 12 harness can drive them uniformly.

use crate::store::Result;
use e2nvm_sim::DeviceStats;
use e2nvm_telemetry::TelemetryRegistry;

/// A persistent key-value store over simulated NVM.
pub trait NvmKvStore {
    /// Structure name for reports ("B+-Tree", "FP-Tree", ...).
    fn name(&self) -> &'static str;

    /// Insert or update.
    fn put(&mut self, key: u64, value: &[u8]) -> Result<()>;

    /// Look up a key.
    fn get(&mut self, key: u64) -> Result<Option<Vec<u8>>>;

    /// Insert or update a batch of pairs, returning one result per
    /// pair, in order. Semantically equivalent to calling
    /// [`NvmKvStore::put`] per pair (duplicate keys resolve
    /// last-occurrence-wins) — which is exactly what this default
    /// implementation does. E2-backed stores override it to pack small
    /// values into shared segments through the `e2nvm-core`
    /// [`e2nvm_core::BatchAccumulator`] path, paying one placement
    /// (model prediction + address pop + device write) per filled
    /// segment instead of one per value.
    fn put_many(&mut self, pairs: &[(u64, &[u8])]) -> Vec<Result<()>> {
        pairs
            .iter()
            .map(|&(key, value)| self.put(key, value))
            .collect()
    }

    /// Look up a batch of keys, returning one `Option` per key, in
    /// order. Aborts on the first store error (per-key "not found" is
    /// `None`, not an error). The default implementation loops over
    /// [`NvmKvStore::get`]; concurrent stores override it to serve the
    /// whole batch under one lock acquisition per shard.
    fn get_many(&mut self, keys: &[u64]) -> Result<Vec<Option<Vec<u8>>>> {
        keys.iter().map(|&key| self.get(key)).collect()
    }

    /// Delete a key; returns whether it existed.
    fn delete(&mut self, key: u64) -> Result<bool>;

    /// All pairs with `lo <= key <= hi`, in key order.
    fn scan(&mut self, lo: u64, hi: u64) -> Result<Vec<(u64, Vec<u8>)>>;

    /// Like [`NvmKvStore::scan`], but return at most `limit` pairs
    /// (the lowest keys in the range). The wire protocol's SCAN frame
    /// carries a limit so remote clients can bound a response; the
    /// default implementation truncates a full scan, and structures
    /// with ordered indexes may override it to stop early.
    fn scan_limit(&mut self, lo: u64, hi: u64, limit: usize) -> Result<Vec<(u64, Vec<u8>)>> {
        let mut entries = self.scan(lo, hi)?;
        entries.truncate(limit);
        Ok(entries)
    }

    /// Device statistics of the underlying store.
    fn stats(&self) -> DeviceStats;

    /// Reset device statistics.
    fn reset_stats(&mut self);

    /// Periodic maintenance hook: for E2-plugged stores this retrains
    /// the placement model on the current free-segment contents (the
    /// paper's lazy background retraining); a no-op otherwise.
    fn maintenance(&mut self) {}

    /// Force durable state to stable storage: take a snapshot and fsync
    /// the WALs, returning the snapshot bytes written. Stores without a
    /// persistence layer configured return `Ok(0)` — a documented no-op,
    /// so the wire protocol's FLUSH frame is safe against any store.
    fn flush(&mut self) -> Result<u64> {
        Ok(0)
    }

    /// Group-commit barrier: hand every WAL record buffered by the
    /// mutations since the last call to the kernel (one `write(2)` per
    /// dirty shard). The serving layer calls this once per pipelined
    /// request batch, **before** the batch's acknowledgements are
    /// flushed to the socket — that ordering is what makes an acked
    /// write survive a process kill. Stores without persistence keep
    /// the default no-op.
    fn commit(&mut self) -> Result<()> {
        Ok(())
    }

    /// The telemetry registry this store publishes to, if one has been
    /// attached (e.g. [`crate::ShardedE2KvStore::attach_telemetry`]). Stores
    /// without instrumentation keep the default `None`.
    fn telemetry(&self) -> Option<&TelemetryRegistry> {
        None
    }
}

/// Exercise a store with a deterministic CRUD workload and verify
/// results against a shadow `BTreeMap` — shared by every structure's
/// tests.
#[cfg(any(test, feature = "test-utils"))]
pub fn check_against_shadow(
    store: &mut dyn NvmKvStore,
    ops: usize,
    value_len: usize,
    seed: u64,
) -> std::result::Result<(), String> {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeMap;

    let mut rng = StdRng::seed_from_u64(seed);
    let mut shadow: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
    for op in 0..ops {
        let key = rng.gen_range(0..64u64);
        match rng.gen_range(0..12) {
            10 => {
                // Batched put: must behave like sequential puts.
                let n = rng.gen_range(1..=4usize);
                let pairs: Vec<(u64, Vec<u8>)> = (0..n)
                    .map(|_| {
                        let k = rng.gen_range(0..64u64);
                        let v: Vec<u8> = (0..value_len).map(|_| rng.gen()).collect();
                        (k, v)
                    })
                    .collect();
                let borrowed: Vec<(u64, &[u8])> =
                    pairs.iter().map(|(k, v)| (*k, v.as_slice())).collect();
                for (i, r) in store.put_many(&borrowed).into_iter().enumerate() {
                    r.map_err(|e| format!("op {op}: put_many[{i}] failed: {e}"))?;
                }
                for (k, v) in pairs {
                    shadow.insert(k, v);
                }
            }
            11 => {
                // Batched get: must agree with the shadow per key.
                let n = rng.gen_range(1..=6usize);
                let keys: Vec<u64> = (0..n).map(|_| rng.gen_range(0..64u64)).collect();
                let got = store
                    .get_many(&keys)
                    .map_err(|e| format!("op {op}: get_many failed: {e}"))?;
                for (k, g) in keys.iter().zip(&got) {
                    if g.as_ref() != shadow.get(k) {
                        return Err(format!(
                            "op {op}: get_many({k}) mismatch: got {:?} expected {:?}",
                            g.as_ref().map(Vec::len),
                            shadow.get(k).map(Vec::len)
                        ));
                    }
                }
            }
            0..=5 => {
                let value: Vec<u8> = (0..value_len).map(|_| rng.gen()).collect();
                store
                    .put(key, &value)
                    .map_err(|e| format!("op {op}: put({key}) failed: {e}"))?;
                shadow.insert(key, value);
            }
            6..=7 => {
                let got = store
                    .get(key)
                    .map_err(|e| format!("op {op}: get({key}) failed: {e}"))?;
                if got.as_ref() != shadow.get(&key) {
                    return Err(format!(
                        "op {op}: get({key}) mismatch: got {:?} expected {:?}",
                        got.map(|v| v.len()),
                        shadow.get(&key).map(|v| v.len())
                    ));
                }
            }
            8 => {
                let existed = store
                    .delete(key)
                    .map_err(|e| format!("op {op}: delete({key}) failed: {e}"))?;
                if existed != shadow.remove(&key).is_some() {
                    return Err(format!("op {op}: delete({key}) existence mismatch"));
                }
            }
            _ => {
                let lo = key.saturating_sub(8);
                let got = store
                    .scan(lo, key)
                    .map_err(|e| format!("op {op}: scan failed: {e}"))?;
                let expect: Vec<(u64, Vec<u8>)> = shadow
                    .range(lo..=key)
                    .map(|(k, v)| (*k, v.clone()))
                    .collect();
                if got != expect {
                    let gk: Vec<u64> = got.iter().map(|(k, _)| *k).collect();
                    let ek: Vec<u64> = expect.iter().map(|(k, _)| *k).collect();
                    return Err(format!(
                        "op {op}: scan({lo}..={key}) mismatch: got {gk:?} expected {ek:?}"
                    ));
                }
            }
        }
    }
    Ok(())
}
