//! The replication data path: R-way fan-out writes, ordered-fallback
//! reads with per-key read repair, and the transport/store error
//! split that drives failover.
//!
//! ## Write path
//!
//! A PUT or DELETE goes to every node in the key's *write replica
//! set*: the first R **healthy** nodes met walking the ring (draining
//! and down nodes are walked past, which is how a replacement replica
//! is promoted). The operation acks only when **every** node in the
//! set acked — the "zero lost acked writes" claim of the failover
//! experiments rests exactly here: an acked write provably exists on
//! R servers, so losing any single one of them cannot lose the write.
//! A transport error marks the node down *immediately* (no waiting
//! for the next probe tick) and the whole set is retried against a
//! fresh walk — the dead node's slot falls to the next node on the
//! circle, and re-putting to replicas that already acked is
//! idempotent. A server-side error frame (out of space, degraded)
//! fails the operation with [`StoreError::ReplicationFailed`] but
//! leaves the node up — the store said no, the network is fine — and
//! the caller knows the write may exist on the replicas that did ack.
//!
//! ## Read path
//!
//! A GET walks the key's *read replica set* and returns the first
//! hit. The set is the healthy write walk first, then draining nodes
//! as fallback: a draining device still serves reads, but only for
//! keys no healthy replica holds — the healthy copy is always newest
//! (writes stopped reaching the draining node the moment it flipped),
//! so consulting the draining node first could return a stale value
//! for a key updated since the drain began. Healthy replicas earlier
//! in the walk that missed the key are repaired with a
//! background-free, in-line re-put — so a replica promoted after a
//! failure converges toward a full copy one read at a time, without
//! any server-to-server protocol.

use crate::health::NodeState;
use crate::router::ClusterClient;
use e2nvm_kvstore::StoreError;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// True when the error means "the node (or the path to it) is gone"
/// rather than "the server answered with an error frame". Client
/// protocol-level failures surface as `Other`/`InvalidData`, which
/// must *not* mark a node down — a degraded store still holds data.
pub(crate) fn is_transport(e: &std::io::Error) -> bool {
    !matches!(
        e.kind(),
        std::io::ErrorKind::Other | std::io::ErrorKind::InvalidData
    )
}

impl ClusterClient {
    /// The key's write replica set: first R healthy nodes on the walk.
    fn write_set(&self, key: u64) -> Vec<usize> {
        let view = self.view.clone();
        self.ring.replicas_where(key, self.cfg.replication, |n| {
            view.state(n) == NodeState::Healthy
        })
    }

    /// The key's read replica set: the healthy write walk first, then
    /// draining nodes (stale-capable, so fallback only) to fill the
    /// set out to R. See the module docs for why this order is a
    /// correctness requirement, not a preference.
    fn read_set(&self, key: u64) -> Vec<usize> {
        let view = self.view.clone();
        let mut set = self.write_set(key);
        if set.len() < self.cfg.replication {
            let draining = self.ring.replicas_where(key, self.cfg.replication, |n| {
                view.state(n) == NodeState::Draining
            });
            set.extend(draining.into_iter().take(self.cfg.replication - set.len()));
        }
        set
    }

    /// One fan-out attempt of `op` over the key's current write set.
    /// Returns `Ok(Some(fold))` when every replica acked (folding the
    /// per-replica answers), `Ok(None)` when a transport failure
    /// shrank the set mid-attempt (caller re-walks and retries), and
    /// `Err` on a store-level rejection or an empty set.
    fn write_attempt<T: Copy>(
        &mut self,
        key: u64,
        init: T,
        mut op: impl FnMut(&mut e2nvm_server::Client, u64, T) -> std::io::Result<T>,
    ) -> Result<Option<T>, StoreError> {
        let set = self.write_set(key);
        if set.is_empty() {
            return Err(StoreError::Unroutable { key });
        }
        let required = set.len();
        let mut acked = 0usize;
        let mut folded = init;
        let mut node_lost = false;
        let mut store_reject: Option<String> = None;
        for node in set {
            match self.conn(node).and_then(|c| op(c, key, folded)) {
                Ok(v) => {
                    folded = v;
                    acked += 1;
                }
                Err(e) if is_transport(&e) => {
                    self.fail_node(node);
                    self.stats
                        .replica_write_failures
                        .fetch_add(1, Ordering::Relaxed);
                    node_lost = true;
                }
                Err(e) => {
                    self.stats
                        .replica_write_failures
                        .fetch_add(1, Ordering::Relaxed);
                    store_reject = Some(e.to_string());
                }
            }
        }
        if let Some(msg) = store_reject {
            // A live store refused the mutation: retrying the same
            // walk would refuse again. Partial acks are reported, not
            // hidden — see StoreError::ReplicationFailed docs.
            return Err(if acked == 0 && !node_lost {
                StoreError::Remote(msg)
            } else {
                StoreError::ReplicationFailed { acked, required }
            });
        }
        if node_lost {
            return Ok(None);
        }
        Ok(Some(folded))
    }

    /// Fully-acked replicated write: retries the fan-out on a fresh
    /// ring walk whenever a replica dies mid-operation, so an `Ok`
    /// means the mutation exists on a complete, currently-live
    /// replica set. Bounded by the node count — each retry is paid
    /// for by at least one node leaving the ring.
    fn replicated_write<T: Copy>(
        &mut self,
        key: u64,
        init: T,
        mut op: impl FnMut(&mut e2nvm_server::Client, u64, T) -> std::io::Result<T>,
    ) -> Result<T, StoreError> {
        // +1: the first attempt is not a retry.
        for _ in 0..self.cfg.addrs.len() + 1 {
            if let Some(folded) = self.write_attempt(key, init, &mut op)? {
                return Ok(folded);
            }
        }
        // Unreachable in practice (every retry consumed a node), but
        // never loop unbounded on a pathological view.
        Err(StoreError::Unroutable { key })
    }

    /// R-way replicated PUT; acks only when every replica in the
    /// (possibly re-walked) write set stored the value.
    pub(crate) fn replicated_put(&mut self, key: u64, value: &[u8]) -> Result<(), StoreError> {
        self.stats.puts.fetch_add(1, Ordering::Relaxed);
        self.replicated_write(key, (), |c, k, ()| c.put(k, value))
    }

    /// Replicated DELETE; `existed` is the OR over replica answers (a
    /// promoted replica may never have held the key even though the
    /// cluster did). Draining nodes are deliberately skipped — no
    /// writes to a dying device — so a key deleted while one of its
    /// replicas drains can be re-homed by that node's drain pass;
    /// see [`crate::router::ClusterClient::drain`].
    pub(crate) fn replicated_delete(&mut self, key: u64) -> Result<bool, StoreError> {
        self.stats.deletes.fetch_add(1, Ordering::Relaxed);
        self.replicated_write(key, false, |c, k, existed| Ok(existed | c.delete(k)?))
    }

    /// Ordered-fallback GET with read repair (see module docs).
    pub(crate) fn replicated_get(&mut self, key: u64) -> Result<Option<Vec<u8>>, StoreError> {
        self.stats.gets.fetch_add(1, Ordering::Relaxed);
        let set = self.read_set(key);
        if set.is_empty() {
            return Err(StoreError::Unroutable { key });
        }
        let mut missed_healthy: Vec<usize> = Vec::new();
        let mut answered = false;
        for node in set {
            match self.conn(node).and_then(|c| c.get(key)) {
                Ok(Some(value)) => {
                    // Repair earlier replicas that should hold the key
                    // but answered "not found".
                    for miss in missed_healthy {
                        if self.conn(miss).and_then(|c| c.put(key, &value)).is_ok() {
                            self.stats.read_repairs.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    return Ok(Some(value));
                }
                Ok(None) => {
                    answered = true;
                    if self.view.state(node) == NodeState::Healthy {
                        missed_healthy.push(node);
                    }
                }
                Err(e) if is_transport(&e) => self.fail_node(node),
                Err(_) => answered = true,
            }
        }
        if answered {
            Ok(None)
        } else {
            // Every replica fell to a transport error mid-walk.
            Err(StoreError::Unroutable { key })
        }
    }

    /// Merged SCAN over every readable node: the union of per-node
    /// results, each key's value taken from the node earliest in that
    /// key's ring walk (replicas agree after repair, so this is a
    /// tie-break, not a consistency mechanism), cut to the first
    /// `limit` keys.
    ///
    /// Each node streams (SCAN_STREAM: no frame cap on its range) at
    /// most `limit` entries, which suffices: any key among the first
    /// `limit` of the union is among the first `limit` of every node
    /// holding it.
    pub(crate) fn merged_scan(
        &mut self,
        lo: u64,
        hi: u64,
        limit: usize,
    ) -> Result<Vec<(u64, Vec<u8>)>, StoreError> {
        self.stats.scans.fetch_add(1, Ordering::Relaxed);
        // The wire's limit is a u32 in which 0 means unlimited.
        let wire_limit = match u32::try_from(limit) {
            Ok(0) => return Ok(Vec::new()),
            Ok(n) => n,
            Err(_) => 0,
        };
        let mut merged: BTreeMap<u64, (usize, Vec<u8>)> = BTreeMap::new();
        let mut any_node = false;
        for node in 0..self.cfg.addrs.len() {
            if self.view.state(node) == NodeState::Down {
                continue;
            }
            let entries = match self.conn(node).and_then(|c| c.scan_all(lo, hi, wire_limit)) {
                Ok(entries) => entries,
                Err(e) if is_transport(&e) => {
                    self.fail_node(node);
                    continue;
                }
                Err(e) => return Err(StoreError::Remote(e.to_string())),
            };
            any_node = true;
            for (key, value) in entries {
                let rank = self
                    .read_set(key)
                    .iter()
                    .position(|&n| n == node)
                    .unwrap_or(usize::MAX);
                match merged.get(&key) {
                    Some((best, _)) if *best <= rank => {}
                    _ => {
                        merged.insert(key, (rank, value));
                    }
                }
            }
        }
        if !any_node {
            return Err(StoreError::Unroutable { key: lo });
        }
        Ok(merged
            .into_iter()
            .take(limit)
            .map(|(k, (_, v))| (k, v))
            .collect())
    }
}

/// Router-side operation counters (atomics — cheap, lock-free, and
/// shared with any thread holding the `Arc`).
#[derive(Debug, Default)]
pub struct ClusterStats {
    /// Replicated PUTs attempted.
    pub puts: AtomicU64,
    /// Cluster GETs attempted.
    pub gets: AtomicU64,
    /// Replicated DELETEs attempted.
    pub deletes: AtomicU64,
    /// Merged SCANs attempted.
    pub scans: AtomicU64,
    /// Per-replica write attempts that failed (transport or store).
    pub replica_write_failures: AtomicU64,
    /// Replicas re-filled by the GET read-repair path.
    pub read_repairs: AtomicU64,
    /// Nodes this router marked down (probe or data path).
    pub nodes_marked_down: AtomicU64,
    /// Wear-driven drains completed.
    pub drains_completed: AtomicU64,
    /// Keys re-homed off draining nodes.
    pub keys_rehomed: AtomicU64,
    /// Drain passes that failed (kept for maintenance(), which
    /// swallows the error itself).
    pub drain_errors: AtomicU64,
}

impl ClusterStats {
    pub(crate) fn note_node_down(&self) {
        self.nodes_marked_down.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_drain(&self, rehomed: usize) {
        self.drains_completed.fetch_add(1, Ordering::Relaxed);
        self.keys_rehomed
            .fetch_add(rehomed as u64, Ordering::Relaxed);
    }

    pub(crate) fn note_drain_error(&self) {
        self.drain_errors.fetch_add(1, Ordering::Relaxed);
    }

    /// Zero every counter.
    pub fn reset(&self) {
        for counter in [
            &self.puts,
            &self.gets,
            &self.deletes,
            &self.scans,
            &self.replica_write_failures,
            &self.read_repairs,
            &self.nodes_marked_down,
            &self.drains_completed,
            &self.keys_rehomed,
            &self.drain_errors,
        ] {
            counter.store(0, Ordering::Relaxed);
        }
    }

    /// A plain-value copy for reports and assertions.
    pub fn snapshot(&self) -> ClusterStatsSnapshot {
        ClusterStatsSnapshot {
            puts: self.puts.load(Ordering::Relaxed),
            gets: self.gets.load(Ordering::Relaxed),
            deletes: self.deletes.load(Ordering::Relaxed),
            scans: self.scans.load(Ordering::Relaxed),
            replica_write_failures: self.replica_write_failures.load(Ordering::Relaxed),
            read_repairs: self.read_repairs.load(Ordering::Relaxed),
            nodes_marked_down: self.nodes_marked_down.load(Ordering::Relaxed),
            drains_completed: self.drains_completed.load(Ordering::Relaxed),
            keys_rehomed: self.keys_rehomed.load(Ordering::Relaxed),
            drain_errors: self.drain_errors.load(Ordering::Relaxed),
        }
    }
}

/// Plain-value view of [`ClusterStats`] at one moment.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClusterStatsSnapshot {
    /// Replicated PUTs attempted.
    pub puts: u64,
    /// Cluster GETs attempted.
    pub gets: u64,
    /// Replicated DELETEs attempted.
    pub deletes: u64,
    /// Merged SCANs attempted.
    pub scans: u64,
    /// Per-replica write attempts that failed.
    pub replica_write_failures: u64,
    /// Replicas re-filled by read repair.
    pub read_repairs: u64,
    /// Nodes marked down.
    pub nodes_marked_down: u64,
    /// Wear-driven drains completed.
    pub drains_completed: u64,
    /// Keys re-homed off draining nodes.
    pub keys_rehomed: u64,
    /// Drain passes that failed.
    pub drain_errors: u64,
}
