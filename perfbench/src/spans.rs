//! Spans around every layer call the benchmark makes.
//!
//! A span records its name, start, end, the span that caused it and a
//! trace id shared by every span of one request or run. Spans are kept
//! in memory and written out when the benchmark ends. With recording
//! off (the untraced run) a span still times its call, so both runs
//! measure the same way, but nothing is stored.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Where a new span hangs: its trace and its parent span.
#[derive(Clone, Copy, Debug)]
pub struct Ctx {
    pub trace: u64,
    pub parent: Option<usize>,
}

#[derive(Clone, Debug)]
struct Rec {
    name: &'static str,
    trace: u64,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

pub struct Spans {
    on: bool,
    t0: Instant,
    recs: Mutex<Vec<Rec>>,
    next_trace: AtomicU64,
}

/// Per-name totals: how many spans, and their summed self time.
#[derive(Clone, Copy, Debug, Default)]
pub struct SelfTime {
    pub count: u64,
    pub self_ns: u64,
    pub total_ns: u64,
}

impl Spans {
    pub fn new(on: bool) -> Spans {
        Spans {
            on,
            t0: Instant::now(),
            recs: Mutex::new(Vec::new()),
            next_trace: AtomicU64::new(1),
        }
    }

    pub fn recording(&self) -> bool {
        self.on
    }

    /// A fresh trace id with no parent: one request, one run.
    pub fn root(&self) -> Ctx {
        Ctx { trace: self.next_trace.fetch_add(1, Ordering::Relaxed), parent: None }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`; `f` receives the context
    /// its own child spans hang from. Returns `f`'s result and the
    /// span's duration.
    pub fn span<R>(&self, ctx: Ctx, name: &'static str, f: impl FnOnce(Ctx) -> R) -> (R, Duration) {
        if !self.on {
            let t = Instant::now();
            let r = f(ctx);
            return (r, t.elapsed());
        }
        let start_ns = self.now_ns();
        let id = {
            let mut recs = self.recs.lock().expect("span store poisoned");
            recs.push(Rec {
                name,
                trace: ctx.trace,
                parent: ctx.parent,
                start_ns,
                end_ns: start_ns,
            });
            recs.len() - 1
        };
        let t = Instant::now();
        let r = f(Ctx { trace: ctx.trace, parent: Some(id) });
        let took = t.elapsed();
        self.recs.lock().expect("span store poisoned")[id].end_ns =
            start_ns + took.as_nanos() as u64;
        (r, took)
    }

    /// Record a span that was timed elsewhere (a request measured by a
    /// load-generator thread).
    pub fn record(&self, ctx: Ctx, name: &'static str, start: Instant, end: Instant) {
        if !self.on {
            return;
        }
        let start_ns = start.saturating_duration_since(self.t0).as_nanos() as u64;
        let end_ns = end.saturating_duration_since(self.t0).as_nanos() as u64;
        self.recs.lock().expect("span store poisoned").push(Rec {
            name,
            trace: ctx.trace,
            parent: ctx.parent,
            start_ns,
            end_ns,
        });
    }

    /// Self time per span name: each span's duration minus the part of
    /// it covered by its child spans (overlapping children count once).
    pub fn self_times(&self) -> BTreeMap<&'static str, SelfTime> {
        let recs = self.recs.lock().expect("span store poisoned");
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); recs.len()];
        for (i, r) in recs.iter().enumerate() {
            if let Some(p) = r.parent {
                children[p].push(i);
            }
        }
        let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
        for (i, r) in recs.iter().enumerate() {
            let mut cover: Vec<(u64, u64)> = children[i]
                .iter()
                .map(|&c| (recs[c].start_ns.max(r.start_ns), recs[c].end_ns.min(r.end_ns)))
                .filter(|(s, e)| e > s)
                .collect();
            cover.sort_unstable();
            let mut covered = 0u64;
            let mut reach = r.start_ns;
            for (s, e) in cover {
                let s = s.max(reach);
                if e > s {
                    covered += e - s;
                    reach = e;
                }
            }
            let total = r.end_ns - r.start_ns;
            let t = out.entry(r.name).or_default();
            t.count += 1;
            t.total_ns += total;
            t.self_ns += total - covered.min(total);
        }
        out
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write;
        let recs = self.recs.lock().expect("span store poisoned");
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, r) in recs.iter().enumerate() {
            let parent = r.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\": {i}, \"name\": \"{}\", \"trace\": {}, \"parent\": {parent}, \
                 \"start_ns\": {}, \"end_ns\": {}}}",
                r.name, r.trace, r.start_ns, r.end_ns
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_once() {
        let s = Spans::new(true);
        let root = s.root();
        s.span(root, "outer", |ctx| {
            s.span(ctx, "inner", |_| std::thread::sleep(Duration::from_millis(20)));
            std::thread::sleep(Duration::from_millis(5));
        });
        let t = s.self_times();
        let outer = t["outer"];
        let inner = t["inner"];
        assert_eq!(outer.count, 1);
        assert!(inner.self_ns >= 20_000_000);
        assert!(outer.self_ns >= 5_000_000 && outer.self_ns < outer.total_ns);
        assert_eq!(outer.total_ns, outer.self_ns + inner.total_ns);
    }

    #[test]
    fn off_records_nothing_but_still_times() {
        let s = Spans::new(false);
        let (_, took) = s.span(s.root(), "x", |_| std::thread::sleep(Duration::from_millis(2)));
        assert!(took >= Duration::from_millis(2));
        assert!(s.self_times().is_empty());
    }
}
