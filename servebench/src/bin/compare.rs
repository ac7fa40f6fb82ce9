//! `compare` — set two result sets of the serving benchmark side by side.
//!
//! ```text
//! cargo run --release --manifest-path servebench/Cargo.toml --bin compare -- \
//!     [--benchmark BENCHMARK.json] [--trace 0|1] BASE_DIR NEW_DIR
//! ```
//!
//! Each directory holds the per-run records `servebench` writes
//! (`<workload>-seed<N>-trace<T>.json`). Every (workload, metric) pair
//! gets its own row with both medians and quartiles, the change, and
//! the wins of NEW over BASE among runs paired by seed. The verdict
//! follows the benchmark's rules:
//!
//! * **unresolved** — either side's spread (inter-quartile range over
//!   median) is wider than the metric's bound, and neither side beat
//!   the other in every run. Never reported as unchanged.
//! * **regression** — NEW's median is worse than BASE's by more than
//!   the bound.
//! * **gain** — NEW won at least 9 of every 10 pairs (ties count for
//!   neither) and the medians differ by more than BASE's own
//!   inter-quartile range.
//! * **within bound** — none of the above.
//!
//! The wire run's host-time metrics (`ops_per_s`, `p50_us`, `p99_us`)
//! are recorded but not gated by BENCHMARK.json; they are judged here
//! against [`UNGATED_BOUND`], so a slowdown reads as a regression or as
//! unresolved, never as unchanged. The other metrics without a bound —
//! every per-layer metric, `flips_per_op` and `failed_frac` — get rows
//! with the numbers only.

use e2nvm_servebench::json::{self, Value};
use e2nvm_servebench::stats::{median, quartiles, spread, verdict, Verdict};
use std::collections::BTreeMap;
use std::path::Path;

/// End-to-end metrics the records carry that BENCHMARK.json does not
/// gate but this tool judges, with whether higher is better.
const UNGATED: [(&str, bool); 3] = [("ops_per_s", true), ("p50_us", false), ("p99_us", false)];

/// The bound [`UNGATED`] metrics are judged against: the largest a
/// BENCHMARK.json bound may be.
const UNGATED_BOUND: f64 = 0.25;

/// One metric's values, by seed.
type Runs = BTreeMap<u64, f64>;

struct MetricSpec {
    name: String,
    unit: String,
    /// `None` for a metric BENCHMARK.json does not list.
    higher_is_better: Option<bool>,
    bound: Option<f64>,
    /// Listed in BENCHMARK.json, so the benchmark's gate applies.
    gated: bool,
}

fn main() {
    if let Err(e) = run() {
        eprintln!("compare: {e}");
        std::process::exit(1);
    }
}

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut bench = "BENCHMARK.json".to_string();
    let mut trace = 0u64;
    let mut dirs = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--benchmark" => bench = it.next().ok_or("--benchmark takes a path")?.clone(),
            "--trace" => {
                trace = it
                    .next()
                    .and_then(|t| t.parse().ok())
                    .ok_or("--trace takes 0 or 1")?
            }
            d => dirs.push(d.to_string()),
        }
    }
    let [base_dir, new_dir] = dirs.as_slice() else {
        return Err(
            "usage: compare [--benchmark BENCHMARK.json] [--trace 0|1] BASE_DIR NEW_DIR"
                .to_string(),
        );
    };
    let spec =
        json::parse(&std::fs::read_to_string(&bench).map_err(|e| format!("read {bench}: {e}"))?)?;
    let section = if trace == 0 {
        "end_to_end"
    } else {
        "per_layer"
    };
    let metrics: Vec<MetricSpec> = spec
        .get(section)
        .map(Value::as_array)
        .unwrap_or(&[])
        .iter()
        .map(|m| MetricSpec {
            name: m
                .get("name")
                .and_then(Value::as_str)
                .unwrap_or("")
                .to_string(),
            unit: m
                .get("unit")
                .and_then(Value::as_str)
                .unwrap_or("")
                .to_string(),
            higher_is_better: Some(m.get("better").and_then(Value::as_str) == Some("higher")),
            bound: m.get("bound").and_then(Value::as_f64),
            gated: true,
        })
        .collect();
    let workloads: Vec<String> = spec
        .get("workloads")
        .map(Value::as_array)
        .unwrap_or(&[])
        .iter()
        .filter_map(|w| w.get("name").and_then(Value::as_str).map(str::to_string))
        .collect();
    let base = load(Path::new(base_dir), trace)?;
    let new = load(Path::new(new_dir), trace)?;
    println!(
        "{:<18} {:<26} {:<7} {:>34} {:>34} {:>8} {:>7}  verdict",
        "workload",
        "metric",
        "unit",
        "base median [q1, q3] (runs)",
        "new median [q1, q3] (runs)",
        "change",
        "wins"
    );
    for w in &workloads {
        // The records also carry metrics BENCHMARK.json does not bound;
        // they follow the bounded ones.
        let mut rows: Vec<&MetricSpec> = metrics.iter().collect();
        let extra: Vec<MetricSpec> = base
            .keys()
            .chain(new.keys())
            .filter(|(wl, name)| wl == w && !metrics.iter().any(|m| &m.name == name))
            .map(|(_, name)| name.clone())
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .map(|name| {
                let judged = UNGATED.iter().find(|(n, _)| *n == name);
                MetricSpec {
                    unit: String::new(),
                    higher_is_better: judged.map(|&(_, higher)| higher),
                    bound: judged.map(|_| UNGATED_BOUND),
                    gated: false,
                    name,
                }
            })
            .collect();
        rows.extend(&extra);
        for m in rows {
            let empty = Runs::new();
            let b = base.get(&(w.clone(), m.name.clone())).unwrap_or(&empty);
            let n = new.get(&(w.clone(), m.name.clone())).unwrap_or(&empty);
            println!("{}", row(w, m, b, n));
        }
    }
    Ok(())
}

/// Records in `dir` with the given trace flag, as
/// (workload, metric) → seed → value.
fn load(dir: &Path, trace: u64) -> Result<BTreeMap<(String, String), Runs>, String> {
    let mut out: BTreeMap<(String, String), Runs> = BTreeMap::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("read {}: {e}", dir.display()))?;
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        if path.extension().and_then(|e| e.to_str()) != Some("json") {
            continue;
        }
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
        let rec = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        if rec.get("trace").and_then(Value::as_f64) != Some(trace as f64) {
            continue;
        }
        let workload = rec
            .get("workload")
            .and_then(Value::as_str)
            .unwrap_or("")
            .to_string();
        let seed = rec.get("seed").and_then(Value::as_f64).unwrap_or(0.0) as u64;
        let Some(metrics) = rec.get("metrics").and_then(Value::as_object) else {
            continue;
        };
        for (name, m) in metrics {
            if let Some(v) = m.get("value").and_then(Value::as_f64) {
                out.entry((workload.clone(), name.clone()))
                    .or_default()
                    .insert(seed, v);
            }
        }
    }
    Ok(out)
}

fn summary(runs: &Runs) -> String {
    let v: Vec<f64> = runs.values().copied().collect();
    if v.is_empty() {
        return "-".to_string();
    }
    let (q1, q3) = quartiles(&v);
    format!("{:.4} [{:.4}, {:.4}] ({})", median(&v), q1, q3, v.len())
}

fn row(workload: &str, m: &MetricSpec, base: &Runs, new: &Runs) -> String {
    let head = format!(
        "{workload:<18} {:<26} {:<7} {:>34} {:>34}",
        m.name,
        m.unit,
        summary(base),
        summary(new)
    );
    if base.len() < 2 || new.len() < 2 {
        return format!("{head} {:>8} {:>7}  too few runs", "-", "-");
    }
    let b: Vec<f64> = base.values().copied().collect();
    let n: Vec<f64> = new.values().copied().collect();
    let (bm, nm) = (median(&b), median(&n));
    let change = (nm - bm) / bm.abs();
    let Some(higher_is_better) = m.higher_is_better else {
        return format!(
            "{head} {:>+7.2}% {:>7}  (not in BENCHMARK.json; spreads {:.3} / {:.3})",
            change * 100.0,
            "-",
            spread(&b),
            spread(&n)
        );
    };
    // Positive when NEW is better.
    let better = |x: f64, y: f64| if higher_is_better { x - y } else { y - x };
    let paired: Vec<(f64, f64)> = base
        .iter()
        .filter_map(|(seed, &x)| new.get(seed).map(|&y| (x, y)))
        .collect();
    let pairs: Vec<(f64, f64)> = if paired.is_empty() {
        b.iter().copied().zip(n.iter().copied()).collect()
    } else {
        paired
    };
    let wins = pairs.iter().filter(|&&(x, y)| better(y, x) > 0.0).count();
    let head = format!(
        "{head} {:>+7.2}% {:>3}/{:<3}",
        change * 100.0,
        wins,
        pairs.len()
    );
    let Some(bound) = m.bound else {
        return format!(
            "{head}  (no bound; spreads {:.3} / {:.3})",
            spread(&b),
            spread(&n)
        );
    };
    let verdict = match verdict(&b, &n, &pairs, higher_is_better, bound) {
        Verdict::Unresolved => "unresolved (spread wider than bound)",
        Verdict::BetterEveryRun => "gain (every run better; spread wider than bound)",
        Verdict::WorseEveryRun => "REGRESSION (every run worse; spread wider than bound)",
        Verdict::Regression => "REGRESSION (worse than bound)",
        Verdict::Gain => "gain",
        Verdict::WithinBound => "within bound",
    };
    let note = if m.gated { "" } else { " [not gated]" };
    format!("{head}  {verdict}{note}")
}
