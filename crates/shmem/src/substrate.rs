//! A non-blocking view of the PGAS substrate.
//!
//! The threaded world ([`crate::Pe`]) implements every synchronizing
//! operation by *waiting*: barriers spin, lock acquisition spins, and
//! the caller's OS thread is the continuation. That is faithful to how
//! SPMD jobs run on real machines, but it caps `n_pes` at whatever the
//! host can schedule. A discrete-event engine wants the opposite
//! contract: an operation either completes immediately or reports
//! [`Progress::Pending`], and the *engine* decides when to try again.
//!
//! [`Substrate`] is that contract — the exact set of primitives the
//! bytecode VM needs, with every potentially-blocking call returning a
//! [`Progress`]. The threaded [`crate::Pe`] implements it trivially
//! (it blocks inside the call and always returns
//! [`Progress::Ready`]), so the same resumable VM drives both the
//! thread-per-PE backends and the mega-scale simulator in `lol-sim`.
//!
//! Only three operations can ever report [`Progress::Pending`]:
//!
//! 1. [`Substrate::shmalloc`] — collective, contains an allocation
//!    fence;
//! 2. [`Substrate::barrier`] — the explicit `HUGZ` barrier;
//! 3. [`Substrate::lock`] — blocking lock acquisition.
//!
//! Everything else (one-sided puts/gets, trylock, unlock, randomness)
//! completes in one call on every substrate.

use crate::heap::{f64_to_word, i64_to_word, word_to_f64, word_to_i64, SymAddr};
use crate::world::Pe;

/// Outcome of a possibly-blocking substrate operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Progress<T> {
    /// The operation completed with this result.
    Ready(T),
    /// The operation cannot complete yet; re-issue the *same* call
    /// when the substrate wakes the PE.
    Pending,
}

impl<T> Progress<T> {
    /// The completed value, if any.
    pub fn ready(self) -> Option<T> {
        match self {
            Progress::Ready(v) => Some(v),
            Progress::Pending => None,
        }
    }

    /// Did the operation complete?
    pub fn is_ready(&self) -> bool {
        matches!(self, Progress::Ready(_))
    }

    /// Did the operation park the caller? Sharded engines use this to
    /// hand the PE to the next window merge.
    pub fn is_pending(&self) -> bool {
        matches!(self, Progress::Pending)
    }
}

/// The substrate operations the resumable VM executes, in
/// completion-or-[`Progress::Pending`] form.
///
/// A `Pending` return parks the calling PE; the substrate is
/// responsible for remembering why, and the engine re-issues the same
/// call after the wake-up. Implementations must make the re-issued
/// call idempotent (stats and latency are charged on the *first*
/// attempt only).
pub trait Substrate {
    /// This PE's id (`ME`).
    fn id(&self) -> usize;

    /// Total number of PEs (`MAH FRENZ`).
    fn n_pes(&self) -> usize;

    /// Collectively allocate `words` symmetric words (contains an
    /// allocation fence, like `shmem_malloc`).
    fn shmalloc(&self, words: usize) -> Progress<SymAddr>;

    /// Store a raw word into `target`'s instance of `addr`.
    fn put_u64(&self, addr: SymAddr, target: usize, value: u64);

    /// Load a raw word from `target`'s instance of `addr`.
    fn get_u64(&self, addr: SymAddr, target: usize) -> u64;

    /// Typed put: `i64`.
    fn put_i64(&self, addr: SymAddr, target: usize, value: i64) {
        self.put_u64(addr, target, i64_to_word(value));
    }

    /// Typed get: `i64`.
    fn get_i64(&self, addr: SymAddr, target: usize) -> i64 {
        word_to_i64(self.get_u64(addr, target))
    }

    /// Typed put: `f64` (bit pattern).
    fn put_f64(&self, addr: SymAddr, target: usize, value: f64) {
        self.put_u64(addr, target, f64_to_word(value));
    }

    /// Typed get: `f64`.
    fn get_f64(&self, addr: SymAddr, target: usize) -> f64 {
        word_to_f64(self.get_u64(addr, target))
    }

    /// Collective barrier (`HUGZ`).
    fn barrier(&self) -> Progress<()>;

    /// Blocking acquire of the lock at `target`'s instance of `addr`.
    fn lock(&self, addr: SymAddr, target: usize) -> Progress<()>;

    /// Non-blocking acquire; true on success. Never pends.
    fn try_lock(&self, addr: SymAddr, target: usize) -> bool;

    /// Release; diagnosed error if this PE does not hold the lock.
    fn unlock(&self, addr: SymAddr, target: usize);

    /// `WHATEVR`: uniform integer in `[0, 2^31)`.
    fn rand_i64(&self) -> i64;

    /// `WHATEVAR`: uniform float in `[0, 1)`.
    fn rand_f64(&self) -> f64;
}

/// The threaded world blocks inside each call, so every operation is
/// `Ready` by the time it returns.
impl Substrate for Pe<'_> {
    fn id(&self) -> usize {
        Pe::id(self)
    }

    fn n_pes(&self) -> usize {
        Pe::n_pes(self)
    }

    fn shmalloc(&self, words: usize) -> Progress<SymAddr> {
        Progress::Ready(Pe::shmalloc(self, words))
    }

    fn put_u64(&self, addr: SymAddr, target: usize, value: u64) {
        Pe::put_u64(self, addr, target, value);
    }

    fn get_u64(&self, addr: SymAddr, target: usize) -> u64 {
        Pe::get_u64(self, addr, target)
    }

    fn barrier(&self) -> Progress<()> {
        Pe::barrier_all(self);
        Progress::Ready(())
    }

    fn lock(&self, addr: SymAddr, target: usize) -> Progress<()> {
        Pe::lock(self, addr, target);
        Progress::Ready(())
    }

    fn try_lock(&self, addr: SymAddr, target: usize) -> bool {
        Pe::try_lock(self, addr, target)
    }

    fn unlock(&self, addr: SymAddr, target: usize) {
        Pe::unlock(self, addr, target);
    }

    fn rand_i64(&self) -> i64 {
        Pe::rand_i64(self)
    }

    fn rand_f64(&self) -> f64 {
        Pe::rand_f64(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::{run_spmd, ShmemConfig};

    /// Drive a ring exchange entirely through the trait, on the
    /// threaded substrate: everything must complete in one call.
    #[test]
    fn threaded_substrate_is_always_ready() {
        fn ring<S: Substrate>(sub: &S) -> i64 {
            let a = sub.shmalloc(1).ready().expect("threaded shmalloc is immediate");
            let next = (sub.id() + 1) % sub.n_pes();
            sub.put_i64(a, next, sub.id() as i64 * 10);
            assert!(sub.barrier().is_ready());
            sub.get_i64(a, sub.id())
        }
        let r = run_spmd(ShmemConfig::new(4), |pe| ring(pe)).unwrap();
        assert_eq!(r, vec![30, 0, 10, 20]);
    }

    #[test]
    fn progress_accessors() {
        assert_eq!(Progress::Ready(7).ready(), Some(7));
        assert_eq!(Progress::<i32>::Pending.ready(), None);
        assert!(Progress::Ready(()).is_ready());
        assert!(!Progress::<()>::Pending.is_ready());
        assert!(Progress::<()>::Pending.is_pending());
        assert!(!Progress::Ready(0).is_pending());
    }

    /// Locks through the trait: try, blocking acquire, release.
    #[test]
    fn threaded_substrate_locks() {
        let r = run_spmd(ShmemConfig::new(2), |pe| {
            let lk = pe.shmalloc(crate::lock::LOCK_WORDS);
            let x = Substrate::shmalloc(pe, 1).ready().unwrap();
            for _ in 0..50 {
                assert!(Substrate::lock(pe, lk, 0).is_ready());
                let v = Substrate::get_i64(pe, x, 0);
                Substrate::put_i64(pe, x, 0, v + 1);
                Substrate::unlock(pe, lk, 0);
            }
            Substrate::barrier(pe).ready().unwrap();
            Substrate::get_i64(pe, x, 0)
        })
        .unwrap();
        assert_eq!(r, vec![100, 100]);
    }
}
