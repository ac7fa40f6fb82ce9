//! The traced run: the workload replayed in process, with spans around
//! the benchmark's calls into each layer's public functions.
//!
//! Every replay executes one program, built from the workload before
//! any clock starts: the load phase, the first `replay_ops` run-phase
//! requests (the two connections' batches interleaved), a check phase
//! (GET every live key, then stream-scan each connection's half) and a
//! teardown (DELETE every live key), in batches of [`DEPTH`].
//!
//! * **wire path** — frame decode → `NvmKvStore` call on the store the
//!   server binary builds (same geometry, same WAL flush policy) →
//!   response encode, with a group commit after each batch as the
//!   server does. After a warm-up it runs untraced and traced twice
//!   each, alternately, on one store; the ratio of their wall times is
//!   the tracing overhead. Its responses go through the same checker
//!   as the wire run's.
//! * **engine** — `E2Engine::put/get` through
//!   `ShardedEngine::with_shard_engine` on an identically trained
//!   engine whose device counts writes per segment.
//! * **placement** — each PUT recomposed from the public calls the
//!   engine makes: `Padder::pad`, `E2Model::cluster_order`,
//!   `DynamicAddressPool::pop_with_fallback`, `MemoryController::write_at`,
//!   then, for the displaced segment, `predict_features` and
//!   `DynamicAddressPool::push`, then `Wal::append_put` (+ `commit`
//!   per batch). The models are the engine's own, cloned.

use crate::check::Checker;
use crate::trace::{Totals, Tracer};
use crate::wire::Setup;
use crate::workload::{
    key_of, owner, value, Geometry, Op, Stream, Workload, CONNS, DEPTH, FLUSH_EVERY, STORE_SEED,
};
use e2nvm_core::{DynamicAddressPool, E2Model, Padder, ShardedEngine};
use e2nvm_kvstore::{NvmKvStore, ShardedE2KvStore};
use e2nvm_persist::{FlushPolicy, PersistTelemetry, PersistenceConfig, Wal, WalSyncer};
use e2nvm_server::demo;
use e2nvm_server::frame::{
    encode_response, encode_scan_chunk, encode_value_frame, parse_request, FrameDecoder, Opcode,
    Request, Response, Status, DEFAULT_MAX_BODY, MAX_RESPONSE_BODY,
};
use e2nvm_sim::{
    partition_controllers_with, DeviceConfig, LogicalSegment, MemoryController, WearTracking,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::ops::Range;
use std::path::Path;
use std::time::Instant;

type Result<T> = std::result::Result<T, String>;

/// Records per store scan call, as the server pages a streamed scan.
const SCAN_PAGE: usize = 256;
/// Target payload per streamed scan chunk (the server's default).
const SCAN_CHUNK_BYTES: usize = 64 * 1024;

/// One reported per-layer number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Samples (calls, ops or records) behind the value.
    pub n: u64,
}

/// The replay program and its phase boundaries (as op indices).
struct Program {
    s: Stream,
    batches: Vec<Range<usize>>,
    load_end: usize,
    run_end: usize,
}

impl Program {
    fn build(wl: &Workload) -> Program {
        let mut p = Program {
            s: Stream::default(),
            batches: Vec::new(),
            load_end: 0,
            run_end: 0,
        };
        p.interleave(wl, [&wl.load[0], &wl.load[1]], usize::MAX);
        p.load_end = p.s.len();
        p.interleave(wl, [&wl.run[0], &wl.run[1]], wl.replay_ops);
        p.run_end = p.s.len();
        let mut live: BTreeMap<u64, u32> = BTreeMap::new();
        for &op in &p.s.ops {
            match op {
                Op::Put(k, v) => {
                    live.insert(k, v);
                }
                Op::Delete(k) => {
                    live.remove(&k);
                }
                _ => {}
            }
        }
        let mut by_conn: [Vec<u64>; CONNS] = Default::default();
        for &k in live.keys() {
            by_conn[owner(k)].push(k);
        }
        for (c, keys) in by_conn.iter().enumerate() {
            let (lo, hi) = crate::workload::half_range(c);
            let mut ops: Vec<Op> = keys.iter().map(|&k| Op::Get(k)).collect();
            ops.push(Op::Scan { lo, hi, limit: 0 });
            p.push_batches(wl, &ops);
        }
        for keys in &by_conn {
            let ops: Vec<Op> = keys.iter().map(|&k| Op::Delete(k)).collect();
            p.push_batches(wl, &ops);
        }
        p
    }

    /// Append the streams' batches alternately, up to `max_ops` requests.
    fn interleave(&mut self, wl: &Workload, streams: [&Stream; CONNS], max_ops: usize) {
        let start = self.s.len();
        for b in 0.. {
            let mut any = false;
            for s in streams {
                if b < s.batches() && self.s.len() - start < max_ops {
                    let ops: Vec<Op> = s.ops[s.batch(b)].to_vec();
                    self.push_batches(wl, &ops);
                    any = true;
                }
            }
            if !any {
                break;
            }
        }
    }

    fn push_batches(&mut self, wl: &Workload, ops: &[Op]) {
        for chunk in ops.chunks(DEPTH) {
            let start = self.s.len();
            for &op in chunk {
                self.s.push(op, &wl.values);
            }
            self.batches.push(start..self.s.len());
        }
    }

    fn len(&self) -> usize {
        self.s.len()
    }
}

/// Device controllers seeded exactly as the server's demo store seeds
/// them (two content families, alternating per segment), with the
/// given wear tracking.
fn seeded_controllers(g: Geometry, wear: WearTracking) -> Vec<MemoryController> {
    let cfg = DeviceConfig::builder()
        .segment_bytes(g.seg_bytes)
        .num_segments(g.segments)
        .wear_tracking(wear)
        .build()
        .expect("valid device geometry");
    let mut rng = StdRng::seed_from_u64(STORE_SEED);
    partition_controllers_with(&cfg, g.shards, MemoryController::without_wear_leveling)
        .expect("partition the device")
        .into_iter()
        .map(|(_, mut mc)| {
            for i in 0..mc.num_segments() {
                let base = if i % 2 == 0 { 0x00u8 } else { 0xFF };
                let content: Vec<u8> = (0..g.seg_bytes)
                    .map(|_| if rng.gen::<f32>() < 0.05 { !base } else { base })
                    .collect();
                mc.seed(LogicalSegment(i), &content)
                    .expect("seed a segment");
            }
            mc
        })
        .collect()
}

/// Counts a wire-path replay gathers outside the spans.
#[derive(Debug, Default)]
struct WireCounts {
    run_ops: u64,
    run_frames_out: u64,
    run_bytes: u64,
    run_records: u64,
    run_device_reads: u64,
    scan_records: u64,
    failed: u64,
    elapsed_s: f64,
}

fn scan_pages(
    lo: u64,
    hi: u64,
    limit: u32,
    mut page: impl FnMut(u64, usize) -> std::result::Result<Vec<(u64, Vec<u8>)>, String>,
) -> std::result::Result<Vec<(u64, Vec<u8>)>, String> {
    let mut remaining = if limit == 0 {
        u64::MAX
    } else {
        u64::from(limit)
    };
    let mut cursor = lo;
    let mut out = Vec::new();
    while remaining > 0 && cursor <= hi {
        let want = remaining.min(SCAN_PAGE as u64) as usize;
        let got = page(cursor, want)?;
        let n = got.len();
        let last = got.last().map(|&(k, _)| k);
        out.extend(got);
        remaining -= n as u64;
        if n < want {
            break;
        }
        match last {
            Some(k) if k < hi => cursor = k + 1,
            _ => break,
        }
    }
    Ok(out)
}

/// Encode a streamed scan answer as the server chunks it; returns the
/// number of frames.
fn encode_scan(entries: &[(u64, Vec<u8>)], out: &mut Vec<u8>) -> u64 {
    let mut frames = 0;
    let mut start = 0;
    let mut bytes = 0;
    for (i, (_, v)) in entries.iter().enumerate() {
        let entry = 12 + v.len();
        if i > start && bytes + entry > SCAN_CHUNK_BYTES {
            encode_scan_chunk(true, &entries[start..i], out);
            frames += 1;
            start = i;
            bytes = 0;
        }
        bytes += entry;
    }
    encode_scan_chunk(false, &entries[start..], out);
    frames + 1
}

fn error_response(message: String) -> Response {
    Response::Error {
        status: Status::StoreError,
        retired: 0,
        message,
    }
}

/// Replay `p` through frame decode → store → frame encode.
fn replay_wire_path(
    p: &Program,
    wl: &Workload,
    store: &mut ShardedE2KvStore,
    tracer: &mut Tracer,
) -> Result<WireCounts> {
    let mut counts = WireCounts::default();
    let mut checkers: [Checker; CONNS] = Default::default();
    let mut req_dec = FrameDecoder::new(DEFAULT_MAX_BODY);
    let mut resp_dec = FrameDecoder::new(MAX_RESPONSE_BODY);
    let mut out = Vec::with_capacity(64 * 1024);
    let mut reads_at_run_start = 0;
    let start = Instant::now();
    for batch in &p.batches {
        if batch.start == p.load_end {
            reads_at_run_start = store.stats().reads;
        }
        for i in batch.clone() {
            let id = i as u64;
            let op = p.s.ops[i];
            let frame = p.s.frames(i..i + 1);
            tracer.enter("op", id);
            let req = tracer.span("frame.decode", id, || {
                req_dec.extend(frame);
                let raw = req_dec
                    .next_frame()
                    .ok()
                    .flatten()
                    .expect("a whole request frame");
                parse_request(&raw)
            });
            out.clear();
            let mut frames_out = 1;
            let mut records = 0u64;
            match req {
                Ok(Request::Get { key }) => {
                    let r = tracer.span("kvstore.get", id, || store.get(key));
                    records += u64::from(matches!(r, Ok(Some(_))));
                    tracer.span("frame.encode", id, || match r {
                        Ok(Some(v)) => encode_value_frame(&v, Some(Opcode::Get), &mut out),
                        Ok(None) => {
                            encode_response(&Response::NotFound, Some(Opcode::Get), &mut out)
                        }
                        Err(e) => encode_response(
                            &error_response(e.to_string()),
                            Some(Opcode::Get),
                            &mut out,
                        ),
                    });
                }
                Ok(Request::Put { key, value }) => {
                    let r = tracer.span("kvstore.put", id, || store.put(key, &value));
                    tracer.span("frame.encode", id, || {
                        let resp =
                            r.map_or_else(|e| error_response(e.to_string()), |()| Response::Stored);
                        encode_response(&resp, Some(Opcode::Put), &mut out)
                    });
                }
                Ok(Request::Delete { key }) => {
                    let r = tracer.span("kvstore.delete", id, || store.delete(key));
                    tracer.span("frame.encode", id, || {
                        let resp =
                            r.map_or_else(|e| error_response(e.to_string()), Response::Deleted);
                        encode_response(&resp, Some(Opcode::Delete), &mut out)
                    });
                }
                Ok(Request::ScanStream { lo, hi, limit }) => {
                    let r = tracer.span("kvstore.scan", id, || {
                        scan_pages(lo, hi, limit, |cursor, want| {
                            store
                                .scan_limit(cursor, hi, want)
                                .map_err(|e| e.to_string())
                        })
                    });
                    frames_out = tracer.span("frame.encode", id, || match &r {
                        Ok(entries) => encode_scan(entries, &mut out),
                        Err(e) => {
                            encode_response(
                                &error_response(e.clone()),
                                Some(Opcode::ScanStream),
                                &mut out,
                            );
                            1
                        }
                    });
                    let n = r.as_ref().map_or(0, |e| e.len() as u64);
                    records += n;
                    counts.scan_records += n;
                }
                other => return Err(format!("replay decoded an unexpected request: {other:?}")),
            }
            if i + 1 == batch.end {
                tracer
                    .span("kvstore.commit", id, || store.commit())
                    .map_err(|e| format!("commit: {e}"))?;
            }
            tracer.exit();
            resp_dec.extend(&out);
            while let Some(raw) = resp_dec
                .next_frame()
                .map_err(|e| format!("replay response: {e}"))?
            {
                if checkers[owner(key_of(op))].on_frame(op, &wl.values, &raw) == Some(false) {
                    counts.failed += 1;
                }
            }
            if (p.load_end..p.run_end).contains(&i) {
                counts.run_ops += 1;
                counts.run_frames_out += frames_out;
                counts.run_bytes += (frame.len() + out.len()) as u64;
                counts.run_records += records;
            }
        }
        if batch.end == p.run_end {
            counts.run_device_reads = store.stats().reads - reads_at_run_start;
        }
    }
    counts.elapsed_s = start.elapsed().as_secs_f64();
    Ok(counts)
}

/// A store as the server binary builds it, persisting under `dir`.
fn server_store(g: Geometry, dir: &Path) -> Result<ShardedE2KvStore> {
    let cfg = PersistenceConfig::builder()
        .data_dir(dir)
        .flush_policy(FlushPolicy::EveryN(FLUSH_EVERY))
        .build()
        .map_err(|e| format!("persistence config: {e}"))?;
    demo::demo_store(g.shards, g.segments, g.seg_bytes, STORE_SEED)
        .with_persistence(cfg, None)
        .map_err(|e| format!("enable persistence: {e}"))
}

/// Replay `p` through `E2Engine` calls; returns failed calls.
fn replay_engine(p: &Program, wl: &Workload, eng: &ShardedEngine, tracer: &mut Tracer) -> u64 {
    let mut failed = 0;
    for (i, &op) in p.s.ops.iter().enumerate() {
        let id = i as u64;
        let ok = match op {
            Op::Put(k, v) => {
                let val = value(&wl.values, v);
                eng.with_shard_engine(eng.shard_for(k), |e| {
                    tracer.span("engine.put", id, || e.put(k, val))
                })
                .is_ok()
            }
            Op::Get(k) => eng
                .with_shard_engine(eng.shard_for(k), |e| {
                    tracer.span("engine.get", id, || e.get(k))
                })
                .is_ok(),
            Op::Delete(k) => eng
                .with_shard_engine(eng.shard_for(k), |e| {
                    tracer.span("engine.delete", id, || e.delete(k))
                })
                .is_ok(),
            Op::Scan { lo, hi, limit } => tracer
                .span("engine.scan", id, || {
                    scan_pages(lo, hi, limit, |cursor, want| {
                        eng.scan_limit(cursor, hi, want).map_err(|e| e.to_string())
                    })
                })
                .is_ok(),
        };
        failed += u64::from(!ok);
    }
    failed
}

/// One shard's placement layers, driven call by call.
struct Placement {
    model: E2Model,
    padder: Padder,
    dap: DynamicAddressPool,
    mc: MemoryController,
    wal: Wal,
    rng: StdRng,
}

impl Placement {
    /// Classify a displaced segment and return it to the pool.
    fn recycle(&mut self, seg: LogicalSegment, id: u64, tracer: &mut Tracer) -> Result<()> {
        let content = self.mc.peek(seg).map_err(|e| e.to_string())?;
        let model = &self.model;
        let cluster = tracer.span("model.classify", id, || {
            model.predict_features(&e2nvm_ml::data::bytes_to_features(content))
        });
        tracer
            .span("dap.push", id, || self.dap.push(cluster, seg))
            .map_err(|e| format!("dap push: {e}"))
    }
}

/// Replay the program's PUTs and DELETEs through the placement layers.
/// Returns (PUTs placed, DELETEs logged, WAL bytes per load-phase PUT).
fn replay_placement(
    p: &Program,
    wl: &Workload,
    models: Vec<E2Model>,
    route: &ShardedEngine,
    dir: &Path,
    tracer: &mut Tracer,
) -> Result<(u64, u64, f64)> {
    let cfg = demo::demo_config(wl.geometry.seg_bytes, STORE_SEED);
    let syncer = WalSyncer::spawn(PersistTelemetry::disconnected())
        .map_err(|e| format!("wal syncer: {e}"))?;
    let mut shards = Vec::new();
    for (i, (mc, model)) in seeded_controllers(wl.geometry, WearTracking::None)
        .into_iter()
        .zip(models)
        .enumerate()
    {
        let n = mc.num_segments();
        let contents: Vec<Vec<u8>> = (0..n)
            .map(|s| mc.peek(LogicalSegment(s)).map(<[u8]>::to_vec))
            .collect::<std::result::Result<_, _>>()
            .map_err(|e| e.to_string())?;
        let pairs: Vec<(LogicalSegment, usize)> = (0..n)
            .map(LogicalSegment)
            .zip(model.classify_segments(&contents))
            .collect();
        let mut dap = DynamicAddressPool::new(cfg.k, n, cfg.retrain_min_free);
        dap.rebuild(model.k(), &pairs);
        let mut padder = Padder::new(cfg.padding_location, cfg.padding_type);
        let ones: u64 = contents
            .iter()
            .map(|c| e2nvm_sim::bitops::popcount(c))
            .sum();
        padder.set_memory_ratio(ones as f32 / (n * wl.geometry.seg_bytes * 8) as f32);
        let wal = Wal::open(
            dir.join(format!("wal-{i}.log")),
            FlushPolicy::EveryN(FLUSH_EVERY),
            PersistTelemetry::disconnected(),
        )
        .map_err(|e| format!("open wal: {e}"))?
        .with_syncer(syncer.port(i as u64));
        shards.push(Placement {
            model,
            padder,
            dap,
            mc,
            wal,
            rng: StdRng::seed_from_u64(cfg.seed.wrapping_add(i as u64)),
        });
    }
    let mut index: HashMap<u64, LogicalSegment> = HashMap::new();
    let mut puts = 0u64;
    let mut deletes = 0u64;
    let mut wal_bytes_per_load_put = 0.0;
    for batch in &p.batches {
        for i in batch.clone() {
            let id = i as u64;
            match p.s.ops[i] {
                Op::Put(k, v) => {
                    let val = value(&wl.values, v);
                    let sh = &mut shards[route.shard_for(k)];
                    tracer.enter("put", id);
                    let bits = sh.model.input_bits();
                    tracer.span("padding.pad", id, || {
                        black_box(sh.padder.pad(val, bits, &mut sh.rng))
                    });
                    let order = tracer.span("model.cluster_order", id, || {
                        sh.model.cluster_order(val, &sh.padder, &mut sh.rng)
                    });
                    let (seg, _) = tracer
                        .span("dap.pop", id, || sh.dap.pop_with_fallback(&order))
                        .ok_or("address pool ran dry")?;
                    tracer
                        .span("nvm.write", id, || sh.mc.write_at(seg, 0, val))
                        .map_err(|e| format!("device write: {e}"))?;
                    if let Some(old) = index.insert(k, seg) {
                        sh.recycle(old, id, tracer)?;
                    }
                    tracer
                        .span("wal.append_put", id, || sh.wal.append_put(k, val))
                        .map_err(|e| format!("wal append: {e}"))?;
                    tracer.exit();
                    puts += 1;
                }
                Op::Delete(k) => {
                    if let Some(old) = index.remove(&k) {
                        let sh = &mut shards[route.shard_for(k)];
                        tracer.enter("delete", id);
                        sh.recycle(old, id, tracer)?;
                        tracer
                            .span("wal.append_delete", id, || sh.wal.append_delete(k))
                            .map_err(|e| format!("wal append: {e}"))?;
                        tracer.exit();
                        deletes += 1;
                    }
                }
                Op::Get(_) | Op::Scan { .. } => {}
            }
        }
        let last = (batch.end - 1) as u64;
        tracer
            .span("wal.commit", last, || {
                shards.iter_mut().try_for_each(|s| s.wal.commit())
            })
            .map_err(|e| format!("wal commit: {e}"))?;
        if batch.end == p.load_end {
            let mut bytes = 0;
            for s in &shards {
                bytes += std::fs::metadata(s.wal.path())
                    .map_err(|e| format!("wal size: {e}"))?
                    .len();
            }
            wal_bytes_per_load_put = bytes as f64 / p.load_end as f64;
        }
    }
    drop(shards);
    drop(syncer);
    Ok((puts, deletes, wal_bytes_per_load_put))
}

/// What the wire run contributes to the per-layer breakdown.
pub struct WireInputs {
    pub ops_per_s: f64,
    pub setups: Vec<Setup>,
}

/// What the replays checked, besides their timings.
#[derive(Debug, Clone, Copy)]
pub struct Checked {
    pub requests: u64,
    pub failed: u64,
}

/// Run every replay and derive the per-layer metrics. Spans are written
/// to `trace_path`.
pub fn run(
    wl: &Workload,
    wire: &WireInputs,
    tmp: &Path,
    trace_path: &Path,
) -> Result<(Vec<Metric>, Checked)> {
    let p = Program::build(wl);
    let g = wl.geometry;

    // The program ends by deleting every key, so one store serves every
    // wire-path replay: a warm-up, then untraced and traced runs
    // alternately. Only the first traced run's spans are kept.
    let mut store = server_store(g, &tmp.join("replay-wire"))?;
    let mut failed = replay_wire_path(&p, wl, &mut store, &mut Tracer::new(false))?.failed;
    let mut tracer = Tracer::new(true);
    let (mut untraced_s, mut traced_s) = (0.0, 0.0);
    let mut first_traced = None;
    for _ in 0..2 {
        let plain = replay_wire_path(&p, wl, &mut store, &mut Tracer::new(false))?;
        let traced = match first_traced {
            None => replay_wire_path(&p, wl, &mut store, &mut tracer)?,
            Some(_) => replay_wire_path(&p, wl, &mut store, &mut Tracer::new(true))?,
        };
        untraced_s += plain.elapsed_s;
        traced_s += traced.elapsed_s;
        failed += plain.failed + traced.failed;
        first_traced.get_or_insert(traced);
    }
    drop(store);
    let wired = first_traced.expect("two rounds ran");

    let cfg = demo::demo_config(g.seg_bytes, STORE_SEED);
    let eng = ShardedEngine::train(seeded_controllers(g, WearTracking::PerSegment), &cfg)
        .map_err(|e| format!("train: {e}"))?;
    let models: Vec<E2Model> = (0..eng.num_shards())
        .map(|i| eng.with_shard_engine(i, |e| e.model().cloned()))
        .collect::<Option<_>>()
        .ok_or("an engine has no model")?;
    let macs = models[0].predict_macs();
    let engine_failed = replay_engine(&p, wl, &eng, &mut tracer);
    let dev = eng.device_stats();
    let mut wear: Vec<u32> = Vec::new();
    for i in 0..eng.num_shards() {
        eng.with_shard_engine(i, |e| {
            wear.extend_from_slice(
                e.controller()
                    .device()
                    .wear()
                    .per_segment_writes()
                    .unwrap_or(&[]),
            );
        });
    }

    let placement_dir = tmp.join("replay-placement");
    std::fs::create_dir_all(&placement_dir)
        .map_err(|e| format!("create {}: {e}", placement_dir.display()))?;
    let (puts, deletes, wal_bytes_per_put) =
        replay_placement(&p, wl, models, &eng, &placement_dir, &mut tracer)?;

    tracer
        .write_tsv(trace_path)
        .map_err(|e| format!("write {}: {e}", trace_path.display()))?;

    let run = tracer.totals(p.load_end as u64..p.run_end as u64);
    let all = tracer.totals(0..p.len() as u64);
    let get =
        |t: &BTreeMap<&'static str, Totals>, name: &str| t.get(name).copied().unwrap_or_default();
    let mean = |t: Totals| t.total_ns as f64 / t.count.max(1) as f64;
    let run_ops = wired.run_ops.max(1) as f64;
    let decode = get(&run, "frame.decode");
    let encode = get(&run, "frame.encode");
    let store_ns: u64 = [
        "kvstore.get",
        "kvstore.put",
        "kvstore.delete",
        "kvstore.scan",
        "kvstore.commit",
    ]
    .iter()
    .map(|n| get(&run, n).total_ns)
    .sum();
    let in_process_ns = (decode.self_ns + encode.self_ns + store_ns) as f64 / run_ops;
    let pad = get(&all, "padding.pad");
    let order = get(&all, "model.cluster_order");
    let pop = get(&all, "dap.pop");
    let push = get(&all, "dap.push");
    let scan = get(&all, "kvstore.scan");
    let setup_median =
        |f: fn(&Setup) -> f64| crate::stats::median(&wire.setups.iter().map(f).collect::<Vec<_>>());
    let write_lines = dev.lines_written + dev.lines_skipped;
    let wear_mean = wear.iter().map(|&w| f64::from(w)).sum::<f64>() / wear.len().max(1) as f64;
    let wear_max = wear.iter().copied().max().unwrap_or(0);
    let m = |name, value, unit, n| Metric {
        name,
        value,
        unit,
        n,
    };
    let metrics = vec![
        m(
            "frame.decode_ns",
            decode.self_ns as f64 / decode.count.max(1) as f64,
            "ns",
            decode.count,
        ),
        m(
            "frame.encode_ns",
            encode.self_ns as f64 / wired.run_frames_out.max(1) as f64,
            "ns",
            wired.run_frames_out,
        ),
        m(
            "frame.bytes_per_op",
            wired.run_bytes as f64 / run_ops,
            "bytes",
            wired.run_ops,
        ),
        m(
            "server.residual_ns",
            1e9 / wire.ops_per_s - in_process_ns,
            "ns",
            wired.run_ops,
        ),
        m(
            "kvstore.get_ns",
            mean(get(&all, "kvstore.get")),
            "ns",
            get(&all, "kvstore.get").count,
        ),
        m(
            "kvstore.put_ns",
            mean(get(&all, "kvstore.put")),
            "ns",
            get(&all, "kvstore.put").count,
        ),
        m(
            "kvstore.delete_ns",
            mean(get(&all, "kvstore.delete")),
            "ns",
            get(&all, "kvstore.delete").count,
        ),
        m(
            "kvstore.scan_ns_per_record",
            scan.total_ns as f64 / wired.scan_records.max(1) as f64,
            "ns",
            wired.scan_records,
        ),
        m(
            "engine.put_ns",
            mean(get(&all, "engine.put")),
            "ns",
            get(&all, "engine.put").count,
        ),
        m(
            "engine.get_ns",
            mean(get(&all, "engine.get")),
            "ns",
            get(&all, "engine.get").count,
        ),
        m("padding.pad_ns", mean(pad), "ns", pad.count),
        m(
            "model.predict_ns",
            mean(order) - mean(pad),
            "ns",
            order.count,
        ),
        m(
            "model.classify_ns",
            mean(get(&all, "model.classify")),
            "ns",
            get(&all, "model.classify").count,
        ),
        m("model.macs_per_predict", macs as f64, "count", 1),
        m(
            "dap.pop_ns",
            (pop.total_ns + push.total_ns) as f64 / pop.count.max(1) as f64,
            "ns",
            pop.count,
        ),
        m(
            "nvm.write_ns",
            mean(get(&all, "nvm.write")),
            "ns",
            get(&all, "nvm.write").count,
        ),
        m(
            "nvm.reads_per_record",
            wired.run_device_reads as f64 / wired.run_records.max(1) as f64,
            "ratio",
            wired.run_records,
        ),
        m(
            "nvm.flips_per_write",
            dev.bits_flipped as f64 / dev.writes.max(1) as f64,
            "bits",
            dev.writes,
        ),
        m(
            "nvm.lines_skipped_frac",
            dev.lines_skipped as f64 / write_lines.max(1) as f64,
            "ratio",
            write_lines,
        ),
        m(
            "nvm.wear_max_over_mean",
            f64::from(wear_max) / wear_mean,
            "ratio",
            wear.len() as u64,
        ),
        m(
            "wal.append_commit_ns",
            // Each batch's commit covers its PUT and DELETE records;
            // PUTs are charged their share of it by record count.
            (get(&all, "wal.append_put").total_ns as f64
                + get(&all, "wal.commit").total_ns as f64 * puts as f64
                    / (puts + deletes).max(1) as f64)
                / puts.max(1) as f64,
            "ns",
            puts,
        ),
        m(
            "wal.bytes_per_put",
            wal_bytes_per_put,
            "bytes",
            p.load_end as u64,
        ),
        m(
            "setup.train_s",
            setup_median(|s| s.train_s),
            "s",
            wire.setups.len() as u64,
        ),
        m(
            "setup.load_s",
            setup_median(|s| s.load_s),
            "s",
            wire.setups.len() as u64,
        ),
        m(
            "trace.overhead_ratio",
            traced_s / untraced_s,
            "ratio",
            2 * p.len() as u64,
        ),
    ];
    // Five wire-path replays with checked responses, one engine replay
    // whose calls must not fail.
    let checked = Checked {
        requests: 6 * p.len() as u64,
        failed: failed + engine_failed,
    };
    Ok((metrics, checked))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_controllers_match_the_demo_store() {
        let g = Geometry {
            shards: 2,
            segments: 32,
            seg_bytes: 32,
        };
        let store = demo::demo_store(g.shards, g.segments, g.seg_bytes, STORE_SEED);
        for (i, mc) in seeded_controllers(g, WearTracking::None)
            .into_iter()
            .enumerate()
        {
            store.engine().with_shard_engine(i, |e| {
                for s in 0..mc.num_segments() {
                    let seg = LogicalSegment(s);
                    assert_eq!(
                        mc.peek(seg).unwrap(),
                        e.controller().peek(seg).unwrap(),
                        "shard {i} segment {s}"
                    );
                }
            });
        }
    }

    #[test]
    fn program_phases_cover_every_request_once() {
        let wl = Workload::generate("scan-insert", 5).unwrap();
        let p = Program::build(&wl);
        let covered: usize = p.batches.iter().map(|b| b.len()).sum();
        assert_eq!(covered, p.len());
        assert!(p.batches.iter().all(|b| b.len() <= DEPTH));
        assert_eq!(p.load_end, wl.load.iter().map(Stream::len).sum::<usize>());
        assert_eq!(p.run_end - p.load_end, wl.replay_ops);
        // Teardown deletes exactly the keys live after the run.
        // (A run phase cut between an insert and its delete leaves one
        // extra key per connection.)
        let deletes = p.s.ops[p.run_end..]
            .iter()
            .filter(|op| matches!(op, Op::Delete(_)))
            .count();
        assert!(
            (wl.records..=wl.records + CONNS).contains(&deletes),
            "{deletes} deletes"
        );
    }
}
