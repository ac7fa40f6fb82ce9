//! The three workloads: store geometry, load set and per-connection
//! operation streams, all generated from the seed before any clock
//! starts. The server only ever receives the frames encoded here.
//!
//! Keys are split between the two connections by their top bit, and a
//! connection only ever touches keys in its own half — scans included,
//! since a scan's upper bound is the end of its half. Every key
//! therefore has exactly one writer, and the responses on one
//! connection are exactly predictable from that connection's own
//! history, which is what lets the checker compare each response with
//! a shadow map.

use e2nvm_server::frame::{encode_request, Request};
use e2nvm_workloads::{scramble, Operation, Ycsb};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

/// Bytes per value, in every workload.
pub const VALUE_LEN: usize = 48;
/// Client connections, one driver thread.
pub const CONNS: usize = 2;
/// Requests in flight per connection (closed loop: a connection sends
/// its next batch only when every response of the previous one is in).
pub const DEPTH: usize = 16;
/// The seed the server binary trains its demo store with.
pub const STORE_SEED: u64 = 0xE2;
/// `--flush-policy` handed to the server: group commit, with an
/// `fdatasync` every 4096 records per shard (the server's default).
pub const FLUSH_POLICY: &str = "batch:4096";
/// Records per WAL sync under [`FLUSH_POLICY`].
pub const FLUSH_EVERY: u32 = 4096;

const HALF: u64 = 1 << 63;

/// The connection that owns `key`.
pub fn owner(key: u64) -> usize {
    usize::from(key >= HALF)
}

/// The inclusive key range connection `conn` owns.
pub fn half_range(conn: usize) -> (u64, u64) {
    if conn == 0 {
        (0, HALF - 1)
    } else {
        (HALF, u64::MAX)
    }
}

/// One request. Values are indices into [`Workload::values`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// GET `key`.
    Get(u64),
    /// PUT `key` with value number `.1`.
    Put(u64, u32),
    /// DELETE `key`.
    Delete(u64),
    /// SCAN_STREAM over `lo..=hi`, at most `limit` records (0 = all).
    Scan { lo: u64, hi: u64, limit: u32 },
}

/// Device geometry the server is started with.
#[derive(Debug, Clone, Copy)]
pub struct Geometry {
    pub shards: usize,
    pub segments: usize,
    pub seg_bytes: usize,
}

/// A sequence of requests with their encoded frames, sent in batches
/// of [`DEPTH`].
#[derive(Debug, Default)]
pub struct Stream {
    pub ops: Vec<Op>,
    frames: Vec<u8>,
    /// `ends[i]` is the end offset of request `i`'s frame in `frames`.
    ends: Vec<usize>,
}

impl Stream {
    pub fn push(&mut self, op: Op, values: &[u8]) {
        encode_request(&to_request(op, values), &mut self.frames);
        self.ops.push(op);
        self.ends.push(self.frames.len());
    }

    pub fn len(&self) -> usize {
        self.ops.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Number of batches (the last one may be short).
    pub fn batches(&self) -> usize {
        self.ops.len().div_ceil(DEPTH)
    }

    /// The requests of batch `b`, as an index range into `ops`.
    pub fn batch(&self, b: usize) -> std::ops::Range<usize> {
        b * DEPTH..((b + 1) * DEPTH).min(self.ops.len())
    }

    /// The encoded frames of the requests in `range`.
    pub fn frames(&self, range: std::ops::Range<usize>) -> &[u8] {
        let start = if range.start == 0 {
            0
        } else {
            self.ends[range.start - 1]
        };
        &self.frames[start..self.ends[range.end - 1]]
    }
}

/// The wire request for `op`.
pub fn to_request(op: Op, values: &[u8]) -> Request {
    match op {
        Op::Get(key) => Request::Get { key },
        Op::Put(key, v) => Request::Put {
            key,
            value: value(values, v).to_vec(),
        },
        Op::Delete(key) => Request::Delete { key },
        Op::Scan { lo, hi, limit } => Request::ScanStream { lo, hi, limit },
    }
}

/// Value number `v` of the arena.
pub fn value(values: &[u8], v: u32) -> &[u8] {
    let at = v as usize * VALUE_LEN;
    &values[at..at + VALUE_LEN]
}

/// One generated workload.
#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    pub geometry: Geometry,
    /// Records loaded during set-up.
    pub records: usize,
    /// Every value any request carries, [`VALUE_LEN`] bytes each.
    pub values: Vec<u8>,
    /// Set-up PUTs, per connection.
    pub load: [Stream; CONNS],
    /// Timed-phase requests, per connection. Each stream is a whole
    /// number of batches and leaves the store's key set as it found
    /// it, so the driver replays it from the start when it runs out.
    pub run: [Stream; CONNS],
    /// Run-phase requests the in-process traced replay executes.
    pub replay_ops: usize,
}

/// The workload names, in the order BENCHMARK.json lists them.
pub const NAMES: [&str; 3] = ["update-clustered", "read-large", "scan-insert"];

const DEFAULT_GEOMETRY: Geometry = Geometry {
    shards: 4,
    segments: 2048,
    seg_bytes: 64,
};

impl Workload {
    /// Generate workload `name` from `seed`; `None` for an unknown name.
    pub fn generate(name: &str, seed: u64) -> Option<Workload> {
        match name {
            "update-clustered" => Some(update_clustered(seed)),
            "read-large" => Some(read_large(seed)),
            "scan-insert" => Some(scan_insert(seed)),
            _ => None,
        }
    }

    fn new(name: &'static str, geometry: Geometry, records: usize, replay_ops: usize) -> Self {
        Workload {
            name,
            geometry,
            records,
            values: Vec::new(),
            load: Default::default(),
            run: Default::default(),
            replay_ops,
        }
    }

    fn add_value(&mut self, bytes: &[u8]) -> u32 {
        assert_eq!(bytes.len(), VALUE_LEN);
        let v = (self.values.len() / VALUE_LEN) as u32;
        self.values.extend_from_slice(bytes);
        v
    }

    fn push_load(&mut self, key: u64, bytes: &[u8]) {
        let v = self.add_value(bytes);
        self.load[owner(key)].push(Op::Put(key, v), &self.values);
    }

    fn push_run(&mut self, conn: usize, op: Op) {
        self.run[conn].push(op, &self.values);
    }
}

/// A value from one of the two content families the server seeds its
/// device with: mostly-0x00 or mostly-0xFF bytes, each byte inverted
/// with probability 5%. The family is drawn per value.
fn clustered_value(rng: &mut StdRng) -> [u8; VALUE_LEN] {
    let base = if rng.gen::<bool>() { 0xFFu8 } else { 0x00 };
    let mut out = [base; VALUE_LEN];
    for b in &mut out {
        if rng.gen::<f32>() < 0.05 {
            *b = !base;
        }
    }
    out
}

/// YCSB-A (50% GET / 50% PUT, zipfian) over 512 records, every value
/// clusterable.
fn update_clustered(seed: u64) -> Workload {
    const RECORDS: u64 = 512;
    const PER_CONN: usize = 1 << 17;
    let mut w = Workload::new(
        "update-clustered",
        DEFAULT_GEOMETRY,
        RECORDS as usize,
        1 << 16,
    );
    let mut ycsb = Ycsb::a(RECORDS, VALUE_LEN, seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED_C1A5);
    let keys: Vec<u64> = ycsb.load_keys().collect();
    for key in keys {
        let v = clustered_value(&mut rng);
        w.push_load(key, &v);
    }
    while w.run.iter().any(|s| s.len() < PER_CONN) {
        let op = match ycsb.next_op() {
            Operation::Read(key) => Op::Get(key),
            Operation::Update(key, _) => Op::Put(key, w.add_value(&clustered_value(&mut rng))),
            other => unreachable!("YCSB-A generated {other:?}"),
        };
        let conn = owner(key_of(op));
        if w.run[conn].len() < PER_CONN {
            w.push_run(conn, op);
        }
    }
    w
}

/// YCSB-C (100% GET, zipfian) over 16384 records on a 65536-segment
/// (4 MiB) device.
fn read_large(seed: u64) -> Workload {
    const RECORDS: u64 = 16384;
    const PER_CONN: usize = 1 << 18;
    let geometry = Geometry {
        segments: 65536,
        ..DEFAULT_GEOMETRY
    };
    let mut w = Workload::new("read-large", geometry, RECORDS as usize, 1 << 16);
    let mut ycsb = Ycsb::c(RECORDS, VALUE_LEN, seed);
    let keys: Vec<u64> = ycsb.load_keys().collect();
    for key in keys {
        let v = ycsb.value_for(key, 0);
        w.push_load(key, &v);
    }
    while w.run.iter().any(|s| s.len() < PER_CONN) {
        let Operation::Read(key) = ycsb.next_op() else {
            unreachable!("YCSB-C generates only reads");
        };
        let conn = owner(key);
        if w.run[conn].len() < PER_CONN {
            w.push_run(conn, Op::Get(key));
        }
    }
    w
}

/// YCSB-E (95% SCAN_STREAM of 1–100 records, 5% inserts, zipfian)
/// over 512 records, with random values.
///
/// Occupancy is held at half the device. Each connection owns a ring
/// of `RING` fresh keys, of which the newest `WINDOW` are live: an
/// insert writes the next ring key and then deletes the oldest live
/// one. The load phase fills the last `WINDOW` ring slots, and each
/// stream performs a whole number of laps of the ring, so replaying a
/// stream from its start finds exactly the key set it expects.
fn scan_insert(seed: u64) -> Workload {
    const RECORDS: u64 = 512;
    const RING: usize = 512;
    const WINDOW: usize = 256;
    const MIN_PER_CONN: usize = 1 << 15;
    let mut w = Workload::new(
        "scan-insert",
        DEFAULT_GEOMETRY,
        RECORDS as usize + CONNS * WINDOW,
        1 << 14,
    );
    let mut ycsb = Ycsb::e(RECORDS, VALUE_LEN, seed);
    let loaded: Vec<u64> = ycsb.load_keys().collect();
    let taken: HashSet<u64> = loaded.iter().copied().collect();
    let mut rings: [Vec<u64>; CONNS] = Default::default();
    let mut rank = RECORDS;
    while rings.iter().any(|r| r.len() < RING) {
        let key = scramble(rank);
        rank += 1;
        let ring = &mut rings[owner(key)];
        if ring.len() < RING && !taken.contains(&key) {
            ring.push(key);
        }
    }
    for &key in &loaded {
        let v = ycsb.value_for(key, 0);
        w.push_load(key, &v);
    }
    for ring in &rings {
        for &key in &ring[RING - WINDOW..] {
            let v = ycsb.value_for(key, 0);
            w.push_load(key, &v);
        }
    }
    let mut inserts = [0usize; CONNS];
    let done = |w: &Workload, inserts: &[usize; CONNS], c: usize| {
        w.run[c].len() >= MIN_PER_CONN && inserts[c] % RING == 0
    };
    while (0..CONNS).any(|c| !done(&w, &inserts, c)) {
        match ycsb.next_op() {
            Operation::Scan(lo, len) => {
                let conn = owner(lo);
                if !done(&w, &inserts, conn) {
                    let hi = half_range(conn).1;
                    w.push_run(
                        conn,
                        Op::Scan {
                            lo,
                            hi,
                            limit: len as u32,
                        },
                    );
                }
            }
            Operation::Insert(fresh, bytes) => {
                let conn = owner(fresh);
                if !done(&w, &inserts, conn) {
                    let i = inserts[conn];
                    let key = rings[conn][i % RING];
                    let oldest = rings[conn][(i + RING - WINDOW) % RING];
                    let v = w.add_value(&bytes);
                    w.push_run(conn, Op::Put(key, v));
                    w.push_run(conn, Op::Delete(oldest));
                    inserts[conn] += 1;
                }
            }
            other => unreachable!("YCSB-E generated {other:?}"),
        }
    }
    // Round each stream up to whole batches with copies of its own
    // scans, which leave the key set unchanged.
    for conn in 0..CONNS {
        let scans: Vec<Op> = w.run[conn]
            .ops
            .iter()
            .copied()
            .filter(|op| matches!(op, Op::Scan { .. }))
            .collect();
        let mut i = 0;
        while w.run[conn].len() % DEPTH != 0 {
            w.push_run(conn, scans[i]);
            i += 1;
        }
    }
    w
}

/// The key an op addresses (a scan's lower bound).
pub fn key_of(op: Op) -> u64 {
    match op {
        Op::Get(k) | Op::Put(k, _) | Op::Delete(k) => k,
        Op::Scan { lo, .. } => lo,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn same_seed_same_streams() {
        for name in NAMES {
            let a = Workload::generate(name, 7).unwrap();
            let b = Workload::generate(name, 7).unwrap();
            assert_eq!(a.values, b.values, "{name}");
            for c in 0..CONNS {
                assert_eq!(a.run[c].ops, b.run[c].ops, "{name}");
                assert_eq!(a.run[c].frames, b.run[c].frames, "{name}");
            }
        }
    }

    #[test]
    fn connections_touch_only_their_own_keys() {
        for name in NAMES {
            let w = Workload::generate(name, 3).unwrap();
            for c in 0..CONNS {
                let (lo, hi) = half_range(c);
                for op in w.load[c].ops.iter().chain(&w.run[c].ops) {
                    let k = key_of(*op);
                    assert!(lo <= k && k <= hi, "{name}: {op:?} on connection {c}");
                    if let Op::Scan { hi: shi, .. } = op {
                        assert!(*shi <= hi, "{name}: scan leaves its half");
                    }
                }
                assert_eq!(w.run[c].len() % DEPTH, 0, "{name}: whole batches");
            }
        }
    }

    #[test]
    fn scan_insert_stream_is_a_whole_cycle() {
        let w = Workload::generate("scan-insert", 11).unwrap();
        for c in 0..CONNS {
            let mut live: BTreeSet<u64> = w.load[c].ops.iter().map(|op| key_of(*op)).collect();
            let start = live.clone();
            for op in &w.run[c].ops {
                match *op {
                    Op::Put(k, _) => assert!(live.insert(k), "insert of a live key"),
                    Op::Delete(k) => assert!(live.remove(&k), "delete of an absent key"),
                    _ => {}
                }
            }
            assert_eq!(
                live, start,
                "a replayed stream must find its starting key set"
            );
        }
        let live: usize = w.load.iter().map(Stream::len).sum();
        assert_eq!(
            live,
            w.geometry.segments / 2,
            "occupancy is half the device"
        );
    }
}
