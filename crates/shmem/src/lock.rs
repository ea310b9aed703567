//! Global exclusive locks over symmetric words.
//!
//! The paper attaches an *implicit* lock to every shared variable
//! declared `AN IM SHARIN IT`; `IM SRSLY MESIN WIF x` acquires it,
//! `IM MESIN WIF x` try-locks it, `DUN MESIN WIF x` releases it
//! (Table II). OpenSHMEM models such locks as symmetric objects any PE
//! may acquire; here the lock state lives in [`LOCK_WORDS`] consecutive
//! words of the owning PE's heap partition.
//!
//! Two algorithms (ablation A2, `--lock cas|ticket`; docs/PERF.md maps it
//! to its metrics):
//!
//! * **SpinCas** — compare-and-swap on a single word with exponential
//!   backoff. Simple, unfair under contention.
//! * **Ticket** — FIFO ticket lock (next/serving counters). Fair, one
//!   extra word of state, slightly higher uncontended cost.
//!
//! Both record the owning PE so that releasing a lock you do not hold
//! is a diagnosed error (`RUN0180`) rather than silent corruption —
//! the mistakes students actually make are the ones worth catching.

use crate::barrier::SpinGuard;
use std::sync::atomic::{AtomicU64, Ordering};

/// Words of symmetric storage one lock occupies:
/// `[owner, next_ticket, now_serving]`.
pub const LOCK_WORDS: usize = 3;

/// Which lock algorithm the runtime uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum LockKind {
    /// CAS spin lock with exponential backoff (default).
    #[default]
    SpinCas,
    /// FIFO ticket lock.
    Ticket,
}

impl LockKind {
    /// Every algorithm, in ablation-sweep order.
    pub const ALL: [LockKind; 2] = [LockKind::SpinCas, LockKind::Ticket];
}

/// Compact, round-trippable label (`cas` / `ticket`) — the token the
/// sweep grammar (`lock=cas,ticket`) and the C driver's
/// `LOL_STUB_LOCK` env protocol both use.
impl std::fmt::Display for LockKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            LockKind::SpinCas => "cas",
            LockKind::Ticket => "ticket",
        })
    }
}

/// Parse a lock-algorithm token: `cas` (or `spincas`) / `ticket`.
impl std::str::FromStr for LockKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s.trim() {
            "cas" | "spincas" => Ok(LockKind::SpinCas),
            "ticket" => Ok(LockKind::Ticket),
            other => Err(format!("O NOES! lock IZ cas OR ticket, NOT {other}")),
        }
    }
}

/// The three atomic words backing one lock instance.
pub(crate) struct LockWords<'a> {
    pub owner: &'a AtomicU64,
    pub next: &'a AtomicU64,
    pub serving: &'a AtomicU64,
}

/// Owner-word encoding: 0 = free, `pe + 1` = held by `pe`.
#[inline]
fn encode(pe: usize) -> u64 {
    pe as u64 + 1
}

impl<'a> LockWords<'a> {
    /// Non-blocking acquire. Returns true on success.
    pub(crate) fn try_acquire(&self, kind: LockKind, me: usize) -> bool {
        match kind {
            LockKind::SpinCas => self
                .owner
                .compare_exchange(0, encode(me), Ordering::Acquire, Ordering::Relaxed)
                .is_ok(),
            LockKind::Ticket => {
                let t = self.serving.load(Ordering::Acquire);
                if self.next.compare_exchange(t, t + 1, Ordering::AcqRel, Ordering::Relaxed).is_ok()
                {
                    // next == serving == t: the queue was empty and we
                    // took ticket t, which is already being served.
                    self.owner.store(encode(me), Ordering::Relaxed);
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Blocking acquire (with supervised spinning).
    pub(crate) fn acquire(&self, kind: LockKind, me: usize, mut guard: SpinGuard<'_>) {
        match kind {
            LockKind::SpinCas => {
                let mut backoff = 1u32;
                loop {
                    if self
                        .owner
                        .compare_exchange_weak(0, encode(me), Ordering::Acquire, Ordering::Relaxed)
                        .is_ok()
                    {
                        return;
                    }
                    // Exponential backoff: wait out the holder without
                    // hammering the line.
                    for _ in 0..backoff {
                        guard.tick();
                    }
                    backoff = (backoff * 2).min(64);
                }
            }
            LockKind::Ticket => {
                let t = self.next.fetch_add(1, Ordering::AcqRel);
                while self.serving.load(Ordering::Acquire) != t {
                    guard.tick();
                }
                self.owner.store(encode(me), Ordering::Relaxed);
            }
        }
    }

    /// Release. Panics if `me` does not hold the lock.
    pub(crate) fn release(&self, kind: LockKind, me: usize) {
        let holder = self.owner.load(Ordering::Relaxed);
        if holder != encode(me) {
            panic!("{}", crate::diag::unlock_not_held(me, holder));
        }
        match kind {
            LockKind::SpinCas => self.owner.store(0, Ordering::Release),
            LockKind::Ticket => {
                self.owner.store(0, Ordering::Relaxed);
                self.serving.fetch_add(1, Ordering::Release);
            }
        }
    }

    /// Is the lock currently held (snapshot, for diagnostics)?
    pub(crate) fn is_held(&self) -> bool {
        self.owner.load(Ordering::Relaxed) != 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;
    use std::time::Duration;

    const TIMEOUT: Duration = Duration::from_secs(10);

    struct Cell3 {
        w: [AtomicU64; 3],
    }

    impl Cell3 {
        fn new() -> Self {
            Cell3 { w: [AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0)] }
        }
        fn words(&self) -> LockWords<'_> {
            LockWords { owner: &self.w[0], next: &self.w[1], serving: &self.w[2] }
        }
    }

    fn both_kinds() -> [LockKind; 2] {
        [LockKind::SpinCas, LockKind::Ticket]
    }

    #[test]
    fn kind_labels_round_trip() {
        for kind in LockKind::ALL {
            assert_eq!(kind.to_string().parse::<LockKind>().unwrap(), kind);
        }
        assert_eq!("spincas".parse::<LockKind>().unwrap(), LockKind::SpinCas);
        assert!("mcs".parse::<LockKind>().is_err());
    }

    #[test]
    fn uncontended_try_acquire_release() {
        for kind in both_kinds() {
            let c = Cell3::new();
            assert!(c.words().try_acquire(kind, 3), "{kind:?}");
            assert!(c.words().is_held());
            c.words().release(kind, 3);
            assert!(!c.words().is_held());
        }
    }

    #[test]
    fn try_acquire_fails_when_held() {
        for kind in both_kinds() {
            let c = Cell3::new();
            assert!(c.words().try_acquire(kind, 0));
            assert!(!c.words().try_acquire(kind, 1), "{kind:?}");
            c.words().release(kind, 0);
            assert!(c.words().try_acquire(kind, 1));
            c.words().release(kind, 1);
        }
    }

    #[test]
    #[should_panic(expected = "RUN0180")]
    fn release_unheld_panics() {
        let c = Cell3::new();
        c.words().release(LockKind::SpinCas, 0);
    }

    #[test]
    #[should_panic(expected = "RUN0181")]
    fn release_someone_elses_lock_panics() {
        let c = Cell3::new();
        assert!(c.words().try_acquire(LockKind::SpinCas, 0));
        c.words().release(LockKind::SpinCas, 1);
    }

    /// Mutual exclusion under real contention: N threads increment a
    /// plain (non-atomic-protected) counter pair; lost updates or torn
    /// invariants would be detected.
    fn hammer(kind: LockKind, n_threads: usize, iters: u64) {
        let c = Arc::new(Cell3::new());
        let abort = Arc::new(AtomicBool::new(false));
        // Two counters that must always move in lockstep under the lock.
        let a = Arc::new(AtomicU64::new(0));
        let b = Arc::new(AtomicU64::new(0));
        std::thread::scope(|s| {
            for me in 0..n_threads {
                let c = Arc::clone(&c);
                let abort = Arc::clone(&abort);
                let a = Arc::clone(&a);
                let b = Arc::clone(&b);
                s.spawn(move || {
                    for _ in 0..iters {
                        c.words().acquire(kind, me, SpinGuard::new(&abort, TIMEOUT, me, "lock"));
                        // Inside the critical section the two counters
                        // must be equal; interleaving would break this.
                        let va = a.load(Ordering::Relaxed);
                        let vb = b.load(Ordering::Relaxed);
                        assert_eq!(va, vb, "critical section violated ({kind:?})");
                        a.store(va + 1, Ordering::Relaxed);
                        std::hint::spin_loop();
                        b.store(vb + 1, Ordering::Relaxed);
                        c.words().release(kind, me);
                    }
                });
            }
        });
        assert_eq!(a.load(Ordering::Relaxed), n_threads as u64 * iters);
        assert_eq!(b.load(Ordering::Relaxed), n_threads as u64 * iters);
    }

    #[test]
    fn spincas_mutual_exclusion() {
        hammer(LockKind::SpinCas, 8, 500);
    }

    #[test]
    fn ticket_mutual_exclusion() {
        hammer(LockKind::Ticket, 8, 500);
    }

    /// Ticket locks are FIFO: with two waiters queued, grant order
    /// matches ticket order.
    #[test]
    fn ticket_is_fair_in_order() {
        let c = Cell3::new();
        let w = c.words();
        // Simulate: holder takes ticket 0, two waiters take 1 and 2.
        assert!(w.try_acquire(LockKind::Ticket, 0));
        let t1 = w.next.fetch_add(1, Ordering::AcqRel);
        let t2 = w.next.fetch_add(1, Ordering::AcqRel);
        assert!(t1 < t2);
        w.release(LockKind::Ticket, 0);
        // Now serving == t1, not t2.
        assert_eq!(w.serving.load(Ordering::Acquire), t1);
    }
}
