//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span records its name, start, end, the op it served and its
//! parent span. Spans stay in memory while the replay runs and are
//! written out once it ends. A span's self time is its duration minus
//! the time its children cover; children of one span never overlap,
//! because the replay is single-threaded.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    op: u64,
    parent: u32,
    start_ns: u64,
    end_ns: u64,
}

/// A span recorder. A disabled tracer records nothing and only runs
/// the wrapped calls, which is how the untraced twin of a replay runs.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

/// Totals of one span name over a set of ops.
#[derive(Debug, Default, Clone, Copy)]
pub struct Totals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; it becomes the parent of spans opened before its
    /// matching [`Tracer::exit`].
    pub fn enter(&mut self, name: &'static str, op: u64) {
        if !self.enabled {
            return;
        }
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        self.open.push(self.spans.len() as u32);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            op,
            parent,
            start_ns,
            end_ns: start_ns,
        });
    }

    /// Close the innermost open span.
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let end = self.now_ns();
        let idx = self.open.pop().expect("exit without a matching enter");
        self.spans[idx as usize].end_ns = end;
    }

    /// Run `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> T) -> T {
        self.enter(name, op);
        let out = f();
        self.exit();
        out
    }

    /// Per-name totals over spans whose op lies in `ops`.
    pub fn totals(&self, ops: std::ops::Range<u64>) -> BTreeMap<&'static str, Totals> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                covered[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
        for (s, cov) in self.spans.iter().zip(covered) {
            if !ops.contains(&s.op) {
                continue;
            }
            let t = out.entry(s.name).or_default();
            let dur = s.end_ns - s.start_ns;
            t.count += 1;
            t.total_ns += dur;
            t.self_ns += dur.saturating_sub(cov);
        }
        out
    }

    /// Write every span as a tab-separated line:
    /// `index name op parent start_ns end_ns` (parent `-` for roots).
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "index\tname\top\tparent\tstart_ns\tend_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{i}\t{}\t{}\t{parent}\t{}\t{}",
                s.name, s.op, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        t.enter("op", 0);
        t.span("child", 0, || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        t.span("child", 0, || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        t.exit();
        t.span("op", 1, || ());
        let all = t.totals(0..2);
        let op = all["op"];
        let child = all["child"];
        assert_eq!(op.count, 2);
        assert_eq!(child.count, 2);
        assert!(child.total_ns >= 10_000_000);
        assert_eq!(op.self_ns, op.total_ns - child.total_ns);
        assert_eq!(t.totals(1..2).get("child").map(|c| c.count), None);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("op", 0, || 7), 7);
        assert!(t.totals(0..1).is_empty());
    }
}
