//! # lol-shmem — an OpenSHMEM-style PGAS substrate on threads
//!
//! The paper runs parallel LOLCODE on OpenSHMEM over two machines: a
//! 16-core Adapteva Epiphany-III (Parallella board) and a Cray XC40.
//! Neither is available here, so this crate is the substitution
//! (docs/ARCHITECTURE.md, "The substrate"): processing elements (PEs)
//! are OS threads, and the partitioned global address space is a per-PE
//! **symmetric heap** of `AtomicU64` words.
//!
//! The API mirrors the minimal OpenSHMEM subset the paper says it uses:
//!
//! * PE enumeration — [`Pe::id`], [`Pe::n_pes`] (`ME`, `MAH FRENZ`),
//! * symmetric allocation — [`Pe::shmalloc`] (collective, like
//!   `shmem_malloc`),
//! * one-sided remote access — [`Pe::put_i64`]/[`Pe::get_i64`] and
//!   friends (`shmem_p`/`shmem_g`), plus block transfers,
//! * atomics — [`Pe::fetch_add_i64`], [`Pe::cswap_u64`], [`Pe::swap_u64`]
//!   (`shmem_atomic_*`),
//! * synchronization — [`Pe::barrier_all`] (`HUGZ`), global locks
//!   ([`Pe::lock`]/[`Pe::try_lock`]/[`Pe::unlock`] — `IM (SRSLY) MESIN
//!   WIF` / `DUN MESIN WIF`), [`Pe::wait_until`], [`Pe::quiet`],
//! * collectives used implicitly by the backend — [`Pe::broadcast_u64`],
//!   [`Pe::reduce_i64`], [`Pe::reduce_f64`].
//!
//! ## Memory model
//!
//! All symmetric memory is word-granular atomic. Plain `put`/`get` use
//! `Relaxed` ordering — concurrent conflicting puts yield unspecified
//! *values*, exactly like unsynchronized OpenSHMEM puts, but never tear
//! and never produce undefined behaviour (the whole crate is
//! `#![forbid(unsafe_code)]`). Ordering is established only by the
//! synchronization operations: barriers and lock acquire/release edges,
//! mirroring how `shmem_barrier_all`/`shmem_set_lock` order memory.
//!
//! ## Fidelity knobs
//!
//! [`LatencyModel`] optionally charges every remote access a delay —
//! `Mesh2D` models the Epiphany eMesh (Manhattan-distance hops),
//! `Uniform` models a flat interconnect (Cray Aries analog). Barriers
//! and locks each come in two algorithms (see [`BarrierKind`],
//! [`LockKind`]) so the benches can ablate the design choices.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod barrier;
pub mod diag;
pub mod heap;
pub mod latency;
pub mod lock;
pub mod pad;
pub mod rng;
pub mod shard;
pub mod stats;
pub mod substrate;
pub mod world;

pub use barrier::BarrierKind;
pub use heap::SymAddr;
pub use latency::LatencyModel;
pub use lock::LockKind;
// Tracing/virtual-time vocabulary (defined in the leaf `lol-trace`
// crate; re-exported because `ShmemConfig` and `Pe` speak it).
pub use lol_trace::{ClockMode, EventKind, PeTrace, Trace, TraceBuffer, TraceEvent};
pub use stats::CommStats;
pub use substrate::{Progress, Substrate};
pub use world::{run_spmd, Pe, ShmemConfig, SpmdError, World};

/// Comparison operators for [`Pe::wait_until`] (mirrors
/// `SHMEM_CMP_*`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WaitCmp {
    /// Wait until the word equals the operand (`SHMEM_CMP_EQ`).
    Eq,
    /// Wait until the word differs from the operand (`SHMEM_CMP_NE`).
    Ne,
    /// Wait until the word exceeds the operand (`SHMEM_CMP_GT`).
    Gt,
    /// Wait until the word is at least the operand (`SHMEM_CMP_GE`).
    Ge,
    /// Wait until the word is below the operand (`SHMEM_CMP_LT`).
    Lt,
    /// Wait until the word is at most the operand (`SHMEM_CMP_LE`).
    Le,
}

impl WaitCmp {
    /// Apply the comparison.
    #[inline]
    pub fn test(self, lhs: i64, rhs: i64) -> bool {
        match self {
            WaitCmp::Eq => lhs == rhs,
            WaitCmp::Ne => lhs != rhs,
            WaitCmp::Gt => lhs > rhs,
            WaitCmp::Ge => lhs >= rhs,
            WaitCmp::Lt => lhs < rhs,
            WaitCmp::Le => lhs <= rhs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wait_cmp_truth_table() {
        assert!(WaitCmp::Eq.test(3, 3) && !WaitCmp::Eq.test(3, 4));
        assert!(WaitCmp::Ne.test(3, 4) && !WaitCmp::Ne.test(3, 3));
        assert!(WaitCmp::Gt.test(4, 3) && !WaitCmp::Gt.test(3, 3));
        assert!(WaitCmp::Ge.test(3, 3) && !WaitCmp::Ge.test(2, 3));
        assert!(WaitCmp::Lt.test(2, 3) && !WaitCmp::Lt.test(3, 3));
        assert!(WaitCmp::Le.test(3, 3) && !WaitCmp::Le.test(4, 3));
    }
}
