//! Multi-threaded PUT throughput of the sharded serving engine,
//! sweeping the shard count 1 → 16 under an 8-client zipfian workload.
//!
//! Two measurements per shard count:
//!
//! * **wall-clock**: 8 OS threads hammer the engine concurrently;
//!   throughput is ops / elapsed wall time. On a multi-core host this
//!   shows the lock-contention win directly; on a single-core host all
//!   configurations collapse to one core's service rate.
//! * **capacity**: the same 8 client streams are replayed and each
//!   shard's *service time* is accumulated (measured padding+prediction
//!   nanoseconds plus the device model's write latency). Shards share no
//!   state, so the sharded makespan is the busiest shard's service time;
//!   capacity = ops / makespan. This is the simulator's own time domain,
//!   consistent with how every other figure in this repository reports
//!   latency, and it is independent of how many host cores the benchmark
//!   happens to get.
//!
//! Output: a table on stdout and `results/sharded_throughput.md`.
//!
//! Run: `cargo run -p e2nvm-bench --release --bin sharded_throughput`
//! (add `--quick` for a CI-sized run).

use e2nvm_core::{E2Config, PaddingType, ShardedEngine};
use e2nvm_sim::{partition_controllers, DeviceConfig, LogicalSegment, MemoryController};
use e2nvm_telemetry::TelemetryRegistry;
use e2nvm_workloads::zipf::{scramble, Zipfian};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::Write as _;
use std::time::Instant;

const THREADS: usize = 8;
const SHARD_COUNTS: [usize; 5] = [1, 2, 4, 8, 16];

struct RunResult {
    shards: usize,
    ops: u64,
    wall_ops_per_s: f64,
    capacity_ops_per_s: f64,
    makespan_ms: f64,
    busiest_frac: f64,
}

fn seeded_value(key: u64, seg_bytes: usize, rng: &mut StdRng) -> Vec<u8> {
    // Two content families, like the device's resident data, so the
    // placement model has structure to exploit.
    let base = if key & 1 == 0 { 0x00u8 } else { 0xFF };
    (0..seg_bytes * 3 / 4)
        .map(|_| if rng.gen::<f32>() < 0.05 { !base } else { base })
        .collect()
}

fn build_engine(num_shards: usize, total_segments: usize, seg_bytes: usize) -> ShardedEngine {
    let dev_cfg = DeviceConfig::builder()
        .segment_bytes(seg_bytes)
        .num_segments(total_segments)
        .build()
        .unwrap();
    // No background retraining: keeps the sweep comparable across shard
    // counts (no retraining storms at small per-shard pool sizes).
    let cfg = E2Config::builder()
        .fast(seg_bytes, 2)
        .pretrain_epochs(4)
        .joint_epochs(1)
        .retrain_min_free(0)
        .padding_type(PaddingType::Zero)
        .build()
        .unwrap();
    let mut rng = StdRng::seed_from_u64(0xE2);
    let controllers: Vec<MemoryController> = partition_controllers(&dev_cfg, num_shards)
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
    ShardedEngine::train(controllers, &cfg).unwrap()
}

/// One client stream: zipf-ranked, scrambled into the keyspace.
fn client_keys(stream: usize, ops: usize, keyspace: u64) -> Vec<u64> {
    let zipf = Zipfian::new(keyspace as usize);
    let mut rng = StdRng::seed_from_u64(0xC11E_4700 + stream as u64);
    (0..ops)
        .map(|_| scramble(zipf.sample(&mut rng) as u64) % keyspace)
        .collect()
}

fn run_one(
    num_shards: usize,
    total_segments: usize,
    seg_bytes: usize,
    ops_per_thread: usize,
) -> RunResult {
    let keyspace = (total_segments / 4) as u64;
    let engine = build_engine(num_shards, total_segments, seg_bytes);
    // Live registry during the measured phase — a no-op ZST without the
    // `telemetry` feature, so this same binary measures both the
    // instrumented and the compiled-away configuration.
    let registry = TelemetryRegistry::new();
    engine.attach_telemetry(&registry);

    // Preload every key so the measured phase is pure UPDATE traffic.
    let mut rng = StdRng::seed_from_u64(1);
    for key in 0..keyspace {
        let value = seeded_value(key, seg_bytes, &mut rng);
        engine.put(key, &value).unwrap();
    }

    // Phase A — wall clock, 8 real threads.
    let t0 = Instant::now();
    let threads: Vec<_> = (0..THREADS)
        .map(|t| {
            let engine = engine.clone();
            let keys = client_keys(t, ops_per_thread, keyspace);
            std::thread::spawn(move || {
                let mut rng = StdRng::seed_from_u64(0xAB + t as u64);
                for key in keys {
                    let value = seeded_value(key, seg_bytes, &mut rng);
                    engine.put(key, &value).unwrap();
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    let wall = t0.elapsed();
    let ops = (THREADS * ops_per_thread) as u64;
    let wall_ops_per_s = ops as f64 / wall.as_secs_f64();

    // Phase B — serving capacity in the simulator's time domain: replay
    // the same 8 streams without thread-scheduling noise, then charge
    // each shard its own service time. Shards are independent serial
    // servers, so the sharded makespan is the busiest shard.
    let engine = build_engine(num_shards, total_segments, seg_bytes);
    engine.attach_telemetry(&registry);
    let mut rng = StdRng::seed_from_u64(1);
    for key in 0..keyspace {
        let value = seeded_value(key, seg_bytes, &mut rng);
        engine.put(key, &value).unwrap();
    }
    engine.reset_device_stats();
    let pred_before: Vec<u128> = (0..num_shards)
        .map(|i| engine.with_shard_engine(i, |e| e.prediction_stats().total_ns))
        .collect();
    let mut rngs: Vec<StdRng> = (0..THREADS)
        .map(|t| StdRng::seed_from_u64(0xAB + t as u64))
        .collect();
    let streams: Vec<Vec<u64>> = (0..THREADS)
        .map(|t| client_keys(t, ops_per_thread, keyspace))
        .collect();
    for i in 0..ops_per_thread {
        for (t, stream) in streams.iter().enumerate() {
            let key = stream[i];
            let value = seeded_value(key, seg_bytes, &mut rngs[t]);
            engine.put(key, &value).unwrap();
        }
    }
    let shard_service_ns: Vec<f64> = pred_before
        .into_iter()
        .enumerate()
        .map(|(i, before)| {
            engine.with_shard_engine(i, |e| {
                let predict = (e.prediction_stats().total_ns - before) as f64;
                predict + e.device_stats().latency_ns
            })
        })
        .collect();
    let makespan_ns = shard_service_ns.iter().cloned().fold(0.0, f64::max);
    let total_ns: f64 = shard_service_ns.iter().sum();
    let capacity_ops_per_s = ops as f64 / (makespan_ns / 1e9);

    RunResult {
        shards: num_shards,
        ops,
        wall_ops_per_s,
        capacity_ops_per_s,
        makespan_ms: makespan_ns / 1e6,
        busiest_frac: if total_ns > 0.0 {
            makespan_ns / total_ns
        } else {
            1.0
        },
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (total_segments, seg_bytes, ops_per_thread) = if quick {
        (512, 64, 300)
    } else {
        (2048, 64, 2500)
    };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    println!(
        "sharded PUT throughput — {THREADS} client threads, zipf(0.99) keys, host cores: {cores}"
    );
    println!(
        "{:>7} {:>9} {:>14} {:>16} {:>13} {:>9}",
        "shards", "ops", "wall ops/s", "capacity ops/s", "makespan ms", "hot frac"
    );

    let mut results = Vec::new();
    for &s in &SHARD_COUNTS {
        let r = run_one(s, total_segments, seg_bytes, ops_per_thread);
        println!(
            "{:>7} {:>9} {:>14.0} {:>16.0} {:>13.1} {:>9.2}",
            r.shards, r.ops, r.wall_ops_per_s, r.capacity_ops_per_s, r.makespan_ms, r.busiest_frac
        );
        results.push(r);
    }

    let base = results[0].capacity_ops_per_s;
    let mut md = String::new();
    md.push_str("# Sharded serving: PUT throughput vs shard count\n\n");
    md.push_str(&format!(
        "{THREADS} client threads, zipf(0.99) key distribution, {total_segments} segments × {seg_bytes} B, \
         pure UPDATE traffic after preload. Host cores during this run: {cores}.\n\n"
    ));
    md.push_str(
        "`wall ops/s` is elapsed-time throughput of 8 OS threads (bounded by host cores); \
         `capacity ops/s` is the serving capacity in the simulator's time domain: each shard is \
         charged its measured prediction time plus the device model's write latency, and the \
         makespan is the busiest shard — the architectural scaling that materialises on a host \
         with ≥ `shards` cores. `hot frac` is the busiest shard's share of total service time \
         (1/shards would be a perfect split; zipf skew keeps it above that).\n\n",
    );
    md.push_str("| shards | ops | wall ops/s | capacity ops/s | speedup vs 1 shard |\n");
    md.push_str("|-------:|----:|-----------:|---------------:|-------------------:|\n");
    for r in &results {
        md.push_str(&format!(
            "| {} | {} | {:.0} | {:.0} | {:.2}× |\n",
            r.shards,
            r.ops,
            r.wall_ops_per_s,
            r.capacity_ops_per_s,
            r.capacity_ops_per_s / base
        ));
    }
    let speedup8 = results
        .iter()
        .find(|r| r.shards == 8)
        .map(|r| r.capacity_ops_per_s / base)
        .unwrap_or(0.0);
    md.push_str(&format!(
        "\n8 shards sustain **{speedup8:.2}×** the single-shard (one engine behind one mutex) PUT capacity.\n"
    ));

    std::fs::create_dir_all("results").ok();
    // Quick runs get their own file so a CI-sized sweep never clobbers
    // full-scale numbers.
    let path = if quick {
        "results/sharded_throughput_quick.md"
    } else {
        "results/sharded_throughput.md"
    };
    let mut f = std::fs::File::create(path).unwrap();
    f.write_all(md.as_bytes()).unwrap();
    println!("\nwrote {path}");

    write_overhead_record(&results, quick);
}

/// Noise-resistant instrumentation-cost probe: single-threaded UPDATE
/// batches against a 1-shard engine, scored by the *fastest* batch —
/// the min over repeated identical batches estimates the true service
/// cost with scheduling noise stripped out (unlike the contended
/// 8-thread sweep above, which on a busy host swings far more than the
/// few-percent effect being measured).
fn overhead_probe(seg_bytes: usize) -> f64 {
    // Enough batches to span several seconds of wall time: the min
    // then reliably lands in a fast CPU window even on a host with
    // slow-period drift much larger than the effect being measured.
    const BATCHES: usize = 400;
    const BATCH_OPS: usize = 200;
    let keyspace = 64u64;
    let engine = build_engine(1, 256, seg_bytes);
    let registry = TelemetryRegistry::new();
    engine.attach_telemetry(&registry);
    let mut rng = StdRng::seed_from_u64(1);
    for key in 0..keyspace {
        let value = seeded_value(key, seg_bytes, &mut rng);
        engine.put(key, &value).unwrap();
    }
    let mut best = f64::INFINITY;
    for batch in 0..BATCHES {
        let t0 = Instant::now();
        for i in 0..BATCH_OPS {
            let key = (batch * BATCH_OPS + i) as u64 % keyspace;
            let value = seeded_value(key, seg_bytes, &mut rng);
            engine.put(key, &value).unwrap();
        }
        best = best.min(t0.elapsed().as_secs_f64());
    }
    BATCH_OPS as f64 / best
}

/// Record this build state's numbers (`telemetry` feature on or off) and,
/// once both states have run, compose the overhead comparison report.
fn write_overhead_record(results: &[RunResult], quick: bool) {
    let state = if cfg!(feature = "telemetry") {
        "on"
    } else {
        "off"
    };
    let probe = overhead_probe(64);
    let mut txt = format!("mode={}\n", if quick { "quick" } else { "full" });
    txt.push_str(&format!("probe_ops_per_s={probe:.1}\n"));
    for r in results {
        txt.push_str(&format!(
            "{} {} {:.1} {:.1}\n",
            r.shards, r.ops, r.wall_ops_per_s, r.capacity_ops_per_s
        ));
    }
    let txt_path = format!("results/telemetry_overhead_{state}.txt");
    std::fs::write(&txt_path, txt).unwrap();
    println!("wrote {txt_path} (telemetry {state})");

    struct Record {
        probe: f64,
        rows: Vec<(usize, f64, f64)>,
    }
    let parse = |path: &str| -> Option<Record> {
        let body = std::fs::read_to_string(path).ok()?;
        let probe = body
            .lines()
            .find_map(|l| l.strip_prefix("probe_ops_per_s="))?
            .parse()
            .ok()?;
        let rows: Vec<(usize, f64, f64)> = body
            .lines()
            .filter(|l| !l.contains('='))
            .filter_map(|l| {
                let f: Vec<&str> = l.split_whitespace().collect();
                Some((
                    f.first()?.parse().ok()?,
                    f.get(2)?.parse().ok()?,
                    f.get(3)?.parse().ok()?,
                ))
            })
            .collect();
        (!rows.is_empty()).then_some(Record { probe, rows })
    };
    let (Some(on), Some(off)) = (
        parse("results/telemetry_overhead_on.txt"),
        parse("results/telemetry_overhead_off.txt"),
    ) else {
        return;
    };
    if on.rows.len() != off.rows.len() {
        return;
    }

    let headline = (off.probe - on.probe) / off.probe * 100.0;
    let mut md = String::from("# Telemetry overhead: PUT throughput on vs off\n\n");
    md.push_str(
        "Same `sharded_throughput` binary built twice: with the `telemetry` feature \
         (live atomics-backed counters, gauges, and histograms on the put path) and \
         without it (every telemetry type is a zero-sized no-op). Positive deltas mean \
         the instrumented build is slower.\n\n",
    );
    md.push_str(&format!(
        "**Headline (single-threaded min-batch probe): {:.0} ops/s off vs {:.0} ops/s on \
         → {headline:+.2}% regression** (acceptance bound: < 2%). The probe times repeated \
         identical UPDATE batches and keeps the fastest, so host scheduling noise — far \
         larger than the effect measured — is stripped out.\n\n",
        off.probe, on.probe
    ));
    md.push_str(
        "For context, the contended 8-thread sweep from the same runs (noisy on a
busy host; the probe above is the comparable number):\n\n",
    );
    md.push_str("| shards | capacity off (ops/s) | capacity on (ops/s) | delta |\n");
    md.push_str("|-------:|---------------------:|--------------------:|------:|\n");
    for (a, b) in off.rows.iter().zip(on.rows.iter()) {
        let delta = (a.2 - b.2) / a.2 * 100.0;
        md.push_str(&format!(
            "| {} | {:.0} | {:.0} | {:+.2}% |\n",
            a.0, a.2, b.2, delta
        ));
    }
    std::fs::write("results/telemetry_overhead.md", md).unwrap();
    println!("wrote results/telemetry_overhead.md (probe delta {headline:+.2}%)");
}
