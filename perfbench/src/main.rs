//! `perfbench`: one benchmark run of one workload.
//!
//! ```text
//! perfbench --workload kernels|comm|playground --seed N --seconds S
//!           --trace 0|1 --lold PATH --out DIR
//! ```
//!
//! Prints one line per metric (`metric <name> <value> <unit>`), per
//! program rows, exact counts, and as its last line one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! Exits 1 when any output was wrong, 2 when the run could not be made.
//! `perfbench/run.py` builds this binary and `lold` and runs it.

mod bench;
mod calib;
mod oracle;
mod serve;
mod spans;
mod substrate;
mod util;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

use bench::{Opts, Tally};
use spans::Spans;

/// Everything one run prints.
#[derive(Default)]
pub struct Report {
    metrics: Vec<(String, f64, String)>,
    /// Printed with the metrics but left out of the JSON result: figures
    /// whose run-to-run spread on a noisy host is too wide to gate on.
    ungated: Vec<(String, f64, String)>,
    /// Counts that must repeat exactly between runs of one workload.
    pub counts: Vec<(String, u64)>,
    lines: Vec<String>,
    tally: Tally,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, unit: &str) {
        self.metrics.push((name.to_string(), value, unit.to_string()));
    }

    pub fn ungated(&mut self, name: &str, value: f64, unit: &str) {
        self.ungated.push((name.to_string(), value, unit.to_string()));
    }

    /// A metric that is an exact count; it also joins the counts.
    pub fn count_metric(&mut self, name: &str, value: u64) {
        self.metric(name, value as f64, "count");
        self.counts.push((name.to_string(), value));
    }

    /// One program's row of a per-program metric.
    pub fn row(&mut self, metric: &str, program: &str, unit: &str, samples: &[f64]) {
        let mut v = samples.to_vec();
        let med = util::median(&mut v);
        self.lines.push(format!(
            "row {metric} {program} {med:.4} {unit} (median of {}, range {:.4} .. {:.4})",
            v.len(),
            v.first().copied().unwrap_or(f64::NAN),
            v.last().copied().unwrap_or(f64::NAN)
        ));
    }

    pub fn note(&mut self, text: &str) {
        self.lines.push(format!("# {text}"));
    }

    pub fn finish_tally(&mut self, tally: Tally) {
        self.tally = tally;
    }

    /// Print everything; the JSON result goes last. Returns whether
    /// every check passed.
    fn print(mut self) -> bool {
        for (name, value, _) in &self.metrics {
            if !value.is_finite() {
                self.tally
                    .check(|| format!("metric {name}"), Err(format!("not a number: {value}")));
            }
        }
        for l in &self.lines {
            println!("{l}");
        }
        let mut fp = String::new();
        for (name, v) in &self.counts {
            println!("count {name} {v}");
            fp.push_str(&format!("{name}={v};"));
        }
        println!("count_fingerprint {:016x}", util::fnv64(fp.as_bytes()));
        for (name, value, unit) in &self.metrics {
            println!("metric {name} {value} {unit}");
        }
        for (name, value, unit) in &self.ungated {
            println!("metric {name} {value} {unit} (not in the result line)");
        }
        let t = &self.tally;
        println!(
            "metric fail_share {} ratio ({} of {} operations)",
            t.failed as f64 / t.attempted.max(1) as f64,
            t.failed,
            t.attempted
        );
        for m in &t.messages {
            println!("failure: {m}");
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, v, u)| {
                format!(
                    "\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
                    if v.is_finite() { *v } else { 0.0 }
                )
            })
            .collect();
        let correct = t.failed == 0;
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            t.attempted.max(1),
            t.failed,
            metrics.join(", ")
        );
        correct
    }
}

fn arg<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1)).map(String::as_str)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let parsed = (|| -> Result<_, String> {
        let name = arg(&args, "--workload").ok_or("--workload is required")?;
        let seed: u64 = arg(&args, "--seed")
            .ok_or("--seed is required")?
            .parse()
            .map_err(|e| format!("--seed: {e}"))?;
        let seconds: f64 = arg(&args, "--seconds")
            .ok_or("--seconds is required")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?;
        let trace = match arg(&args, "--trace").unwrap_or("0") {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace is 0 or 1, not {other}")),
        };
        let lold = arg(&args, "--lold").ok_or("--lold is required")?.to_string();
        let out = PathBuf::from(arg(&args, "--out").unwrap_or("."));
        let w = workload::build(name, seed)
            .ok_or_else(|| format!("unknown workload {name}; one of {:?}", workload::NAMES))?;
        Ok((w, seed, Opts { seconds, lold }, trace, out))
    })();
    let (w, seed, opts, trace, out) = match parsed {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "# perfbench workload={} seed={seed} seconds={} trace={}",
        w.name, opts.seconds, trace as u8
    );
    let spans = Spans::new(trace);
    let mut report = Report::default();
    let run = if trace {
        bench::per_layer(&w, &opts, &spans, &mut report)
    } else {
        bench::end_to_end(&w, &opts, &spans, &mut report)
    };
    if let Err(e) = run {
        eprintln!("perfbench: {} could not run: {e}", w.name);
        return ExitCode::from(2);
    }
    if spans.recording() {
        for (name, t) in spans.self_times() {
            println!(
                "span {name} count {} self_us {:.1} total_us {:.1}",
                t.count,
                t.self_ns as f64 / 1e3,
                t.total_ns as f64 / 1e3
            );
        }
        let path = out.join(format!("spans-{}-seed{seed}.jsonl", w.name));
        if let Err(e) = spans.write_jsonl(&path) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
        println!("# spans written to {}", path.display());
    }
    if report.print() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
