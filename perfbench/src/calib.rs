//! The host's speed, measured with a fixed reference loop.
//!
//! On a guest that shares its host, the whole machine runs faster or
//! slower from one minute to the next with its neighbours' load, by up
//! to twice, and every timing moves with it. The hypervisor counts
//! almost none of it as stolen time: it is the speed at which the guest
//! runs (shared cores and caches, clock rate). The reference loop
//! (`perfbench-ref`, `reference.rs`) is the benchmark's own code in a
//! binary of its own, so no change to the toolchain moves it. A run
//! probes the host with it all through set-up and the timed phases, and
//! divides each end-to-end time by the run's `slowdown` (the median loop
//! time ÷ `REFERENCE_MS`) and multiplies each rate by it: the figures
//! read as measured on the reference host in a fast spell. Launching a
//! native binary does not move with that speed, so that part of a C
//! run's time is left as measured. The figures as measured are printed
//! beside them.

use std::io::{BufRead, BufReader, Write};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use crate::util::median;

/// The reference loop's median time inside a benchmark run on the
/// reference host (a 2-vCPU KVM guest, Intel Xeon at 2.1 GHz) in a fast
/// spell, ms.
pub const REFERENCE_MS: f64 = 6.0;
/// How often, at most, a phase that runs many short samples stops to
/// probe the host.
const PROBE_EVERY: Duration = Duration::from_millis(250);
/// Loops `perfbench-ref` runs per request.
const PROBES: u64 = 2;

/// The running `perfbench-ref`. Dropping it stops the process and
/// waits for it.
struct Reference {
    child: Child,
    input: ChildStdin,
    output: BufReader<ChildStdout>,
}

impl Drop for Reference {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Reference loop times, ms.
pub struct Speed {
    reference: Reference,
    probes: Vec<f64>,
    last: Option<Instant>,
    /// Loops that computed the wrong answer or did not answer.
    pub wrong: u64,
}

impl Speed {
    /// Start `perfbench-ref`, which sits beside this binary.
    pub fn start() -> Result<Speed, String> {
        let path = std::env::current_exe()
            .map_err(|e| e.to_string())?
            .with_file_name(format!("perfbench-ref{}", std::env::consts::EXE_SUFFIX));
        let mut child = Command::new(&path)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", path.display()))?;
        let input = child.stdin.take().expect("piped stdin");
        let output = BufReader::new(child.stdout.take().expect("piped stdout"));
        let reference = Reference { child, input, output };
        Ok(Speed { reference, probes: Vec::new(), last: None, wrong: 0 })
    }

    /// Have the reference loop run and keep its times.
    pub fn probe(&mut self) {
        let r = &mut self.reference;
        let mut answered = 0;
        if r.input.write_all(b"p").and_then(|_| r.input.flush()).is_ok() {
            let mut line = String::new();
            while answered < PROBES && matches!(r.output.read_line(&mut line), Ok(n) if n > 0) {
                let mut it = line.split_whitespace();
                match (it.next().and_then(|ms| ms.parse().ok()), it.next()) {
                    (Some(ms), Some("true")) => self.probes.push(ms),
                    _ => self.wrong += 1,
                }
                answered += 1;
                line.clear();
            }
        }
        self.wrong += PROBES - answered;
        self.last = Some(Instant::now());
    }

    /// Probe if `PROBE_EVERY` has passed since the last probe.
    pub fn probe_if_due(&mut self) {
        if self.last.map_or(true, |t| t.elapsed() >= PROBE_EVERY) {
            self.probe();
        }
    }

    /// How much slower than usual the host ran: the median loop time ÷
    /// `REFERENCE_MS`.
    pub fn slowdown(&self) -> f64 {
        self.median_ms() / REFERENCE_MS
    }

    pub fn median_ms(&self) -> f64 {
        median(&mut self.probes.clone())
    }

    pub fn loops(&self) -> usize {
        self.probes.len()
    }
}
