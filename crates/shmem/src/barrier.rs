//! Barrier algorithms for `HUGZ`.
//!
//! Two classic algorithms are provided so the benches can ablate the
//! choice (ablation A1, `--barrier central|dissem`; docs/PERF.md maps it
//! to its metrics):
//!
//! * **Centralized sense-reversing** — one shared counter + sense flag.
//!   O(P) contention on one cache line, trivial to understand: the
//!   teaching-friendly default.
//! * **Dissemination** — ⌈log₂ P⌉ rounds of pairwise signalling with
//!   per-PE flags. O(log P) critical path, the scalable choice on real
//!   machines.
//!
//! Both establish full happens-before edges between every pair of PEs
//! (all memory written before the barrier is visible to every PE after
//! it), which is exactly the guarantee `shmem_barrier_all` gives the
//! paper's Figure 2 example.
//!
//! All spinning is *supervised*: a `SpinGuard` yields the CPU
//! periodically, aborts promptly when another PE has failed, and panics
//! with a diagnostic if the barrier is never completed (deadlock
//! watchdog) — that is what turns the classic "some PE skipped the
//! barrier" teaching bug into an actionable error instead of a hang.

use crate::pad::CachePadded;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Which barrier algorithm `HUGZ` uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum BarrierKind {
    /// Centralized sense-reversing barrier (default).
    #[default]
    Centralized,
    /// Dissemination barrier (log-rounds pairwise signalling).
    Dissemination,
}

impl BarrierKind {
    /// Every algorithm, in ablation-sweep order.
    pub const ALL: [BarrierKind; 2] = [BarrierKind::Centralized, BarrierKind::Dissemination];
}

/// Compact, round-trippable label (`central` / `dissem`) — the token
/// the sweep grammar (`barrier=central,dissem`) and the C driver's
/// `LOL_STUB_BARRIER` env protocol both use.
impl std::fmt::Display for BarrierKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            BarrierKind::Centralized => "central",
            BarrierKind::Dissemination => "dissem",
        })
    }
}

/// Parse a barrier-algorithm token: `central` (or `centralized`) /
/// `dissem` (or `dissemination`).
impl std::str::FromStr for BarrierKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s.trim() {
            "central" | "centralized" => Ok(BarrierKind::Centralized),
            "dissem" | "dissemination" => Ok(BarrierKind::Dissemination),
            other => Err(format!("O NOES! barrier IZ central OR dissem, NOT {other}")),
        }
    }
}

/// Supervised spin loop: spins, periodically yields, watches the
/// job-abort flag and enforces a deadlock timeout.
pub(crate) struct SpinGuard<'a> {
    abort: &'a AtomicBool,
    deadline: Instant,
    pe: usize,
    what: &'static str,
    spins: u32,
}

impl<'a> SpinGuard<'a> {
    pub(crate) fn new(
        abort: &'a AtomicBool,
        timeout: Duration,
        pe: usize,
        what: &'static str,
    ) -> Self {
        SpinGuard { abort, deadline: Instant::now() + timeout, pe, what, spins: 0 }
    }

    /// One wait iteration. Panics on job abort or timeout.
    #[inline]
    pub(crate) fn tick(&mut self) {
        self.spins += 1;
        if self.spins & 0x3F == 0 {
            // Every 64 spins: check for job failure / deadline, then
            // yield so oversubscribed PE counts (128 PEs on 8 cores)
            // still make progress.
            if self.abort.load(Ordering::Relaxed) {
                panic!(
                    "O NOES! [RUN0190] PE {} IZ GIVIN UP WAITIN ({}) — ANOTHER PE ALREADY FAILED",
                    self.pe, self.what
                );
            }
            if Instant::now() > self.deadline {
                self.abort.store(true, Ordering::Relaxed);
                panic!("{}", crate::diag::deadlock(self.pe, self.what));
            }
            std::thread::yield_now();
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Centralized sense-reversing barrier.
pub(crate) struct CentralBarrier {
    count: CachePadded<AtomicUsize>,
    sense: CachePadded<AtomicBool>,
    n: usize,
}

impl CentralBarrier {
    pub(crate) fn new(n: usize) -> Self {
        CentralBarrier {
            count: CachePadded::new(AtomicUsize::new(0)),
            sense: CachePadded::new(AtomicBool::new(false)),
            n,
        }
    }

    /// Enter the barrier. `local_sense` is this PE's private sense bit
    /// (flips every episode).
    pub(crate) fn wait(&self, local_sense: &mut bool, mut guard: SpinGuard<'_>) {
        let want = !*local_sense;
        *local_sense = want;
        if self.count.fetch_add(1, Ordering::AcqRel) + 1 == self.n {
            // Last arriver: reset and release everyone.
            self.count.store(0, Ordering::Relaxed);
            self.sense.store(want, Ordering::Release);
        } else {
            while self.sense.load(Ordering::Acquire) != want {
                guard.tick();
            }
        }
    }
}

/// Dissemination barrier with generation-counting flags.
pub(crate) struct DisseminationBarrier {
    /// `flags[round][pe]` counts how many times `pe` has been signalled
    /// in `round`; at generation `g` a PE waits for its flag ≥ `g`.
    flags: Vec<Vec<CachePadded<AtomicU64>>>,
    rounds: usize,
    n: usize,
}

impl DisseminationBarrier {
    pub(crate) fn new(n: usize) -> Self {
        let rounds =
            if n <= 1 { 0 } else { usize::BITS as usize - (n - 1).leading_zeros() as usize };
        let flags = (0..rounds)
            .map(|_| (0..n).map(|_| CachePadded::new(AtomicU64::new(0))).collect())
            .collect();
        DisseminationBarrier { flags, rounds, n }
    }

    /// Enter the barrier. `generation` is this PE's private episode
    /// counter (starts at 0, incremented by this call).
    pub(crate) fn wait(&self, me: usize, generation: &mut u64, guard: &mut SpinGuard<'_>) {
        *generation += 1;
        let g = *generation;
        for r in 0..self.rounds {
            let partner = (me + (1 << r)) % self.n;
            self.flags[r][partner].fetch_add(1, Ordering::AcqRel);
            let mine = &self.flags[r][me];
            while mine.load(Ordering::Acquire) < g {
                guard.tick();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64 as Counter;
    use std::sync::Arc;
    use std::time::Duration;

    const TIMEOUT: Duration = Duration::from_secs(10);

    /// Drive `iters` barrier episodes from `n` threads and assert the
    /// classic phase invariant: no thread enters episode `e+1` before
    /// every thread has entered episode `e`.
    fn exercise_central(n: usize, iters: u64) {
        let bar = Arc::new(CentralBarrier::new(n));
        let abort = Arc::new(AtomicBool::new(false));
        let entered = Arc::new(Counter::new(0));
        std::thread::scope(|s| {
            for pe in 0..n {
                let bar = Arc::clone(&bar);
                let abort = Arc::clone(&abort);
                let entered = Arc::clone(&entered);
                s.spawn(move || {
                    let mut sense = false;
                    for e in 0..iters {
                        entered.fetch_add(1, Ordering::SeqCst);
                        bar.wait(&mut sense, SpinGuard::new(&abort, TIMEOUT, pe, "test"));
                        // After episode e, everyone must have entered
                        // at least (e+1)*... in total across threads:
                        let seen = entered.load(Ordering::SeqCst);
                        assert!(
                            seen >= (e + 1) * n as u64,
                            "PE {pe} passed episode {e} after only {seen} entries"
                        );
                    }
                });
            }
        });
        assert_eq!(entered.load(Ordering::SeqCst), iters * n as u64);
    }

    fn exercise_dissemination(n: usize, iters: u64) {
        let bar = Arc::new(DisseminationBarrier::new(n));
        let abort = Arc::new(AtomicBool::new(false));
        let entered = Arc::new(Counter::new(0));
        std::thread::scope(|s| {
            for pe in 0..n {
                let bar = Arc::clone(&bar);
                let abort = Arc::clone(&abort);
                let entered = Arc::clone(&entered);
                s.spawn(move || {
                    let mut gen = 0u64;
                    for e in 0..iters {
                        entered.fetch_add(1, Ordering::SeqCst);
                        let mut g = SpinGuard::new(&abort, TIMEOUT, pe, "test");
                        bar.wait(pe, &mut gen, &mut g);
                        let seen = entered.load(Ordering::SeqCst);
                        assert!(seen >= (e + 1) * n as u64);
                    }
                });
            }
        });
        assert_eq!(entered.load(Ordering::SeqCst), iters * n as u64);
    }

    #[test]
    fn central_barrier_2_pes() {
        exercise_central(2, 200);
    }

    #[test]
    fn central_barrier_16_pes() {
        exercise_central(16, 50);
    }

    #[test]
    fn central_barrier_single_pe_is_noop() {
        exercise_central(1, 10);
    }

    #[test]
    fn dissemination_barrier_2_pes() {
        exercise_dissemination(2, 200);
    }

    #[test]
    fn dissemination_barrier_16_pes() {
        exercise_dissemination(16, 50);
    }

    #[test]
    fn dissemination_barrier_non_power_of_two() {
        exercise_dissemination(7, 100);
        exercise_dissemination(13, 50);
    }

    #[test]
    fn dissemination_single_pe_is_noop() {
        exercise_dissemination(1, 10);
    }

    #[test]
    fn kind_labels_round_trip() {
        for kind in BarrierKind::ALL {
            assert_eq!(kind.to_string().parse::<BarrierKind>().unwrap(), kind);
        }
        assert_eq!("centralized".parse::<BarrierKind>().unwrap(), BarrierKind::Centralized);
        assert_eq!("dissemination".parse::<BarrierKind>().unwrap(), BarrierKind::Dissemination);
        assert!("tree".parse::<BarrierKind>().is_err());
    }

    #[test]
    fn dissemination_round_count() {
        assert_eq!(DisseminationBarrier::new(1).rounds, 0);
        assert_eq!(DisseminationBarrier::new(2).rounds, 1);
        assert_eq!(DisseminationBarrier::new(3).rounds, 2);
        assert_eq!(DisseminationBarrier::new(16).rounds, 4);
        assert_eq!(DisseminationBarrier::new(17).rounds, 5);
    }

    #[test]
    #[should_panic(expected = "RUN0191")]
    fn watchdog_fires_on_missing_pe() {
        // One PE enters a 2-PE barrier; the other never shows up.
        let bar = CentralBarrier::new(2);
        let abort = AtomicBool::new(false);
        let mut sense = false;
        bar.wait(&mut sense, SpinGuard::new(&abort, Duration::from_millis(50), 0, "HUGZ"));
    }

    #[test]
    #[should_panic(expected = "RUN0190")]
    fn spinners_abort_when_job_fails() {
        let bar = CentralBarrier::new(2);
        let abort = AtomicBool::new(true); // job already failed
        let mut sense = false;
        bar.wait(&mut sense, SpinGuard::new(&abort, TIMEOUT, 0, "HUGZ"));
    }

    /// The barrier orders memory: writes before it are visible after.
    #[test]
    fn barrier_publishes_writes() {
        let n = 4;
        let bar = Arc::new(CentralBarrier::new(n));
        let abort = Arc::new(AtomicBool::new(false));
        let slots: Arc<Vec<Counter>> = Arc::new((0..n).map(|_| Counter::new(0)).collect());
        std::thread::scope(|s| {
            for pe in 0..n {
                let bar = Arc::clone(&bar);
                let abort = Arc::clone(&abort);
                let slots = Arc::clone(&slots);
                s.spawn(move || {
                    let mut sense = false;
                    for round in 1..=100u64 {
                        slots[pe].store(round, Ordering::Relaxed);
                        bar.wait(&mut sense, SpinGuard::new(&abort, TIMEOUT, pe, "t"));
                        for other in 0..n {
                            assert!(slots[other].load(Ordering::Relaxed) >= round);
                        }
                        bar.wait(&mut sense, SpinGuard::new(&abort, TIMEOUT, pe, "t"));
                    }
                });
            }
        });
    }
}
