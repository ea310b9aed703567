//! The PGAS substrate timed from outside at 2 PEs: `run_spmd` jobs
//! whose bodies loop over one `Pe` operation.

use std::time::{Duration, Instant};

use lol_shmem::{run_spmd, BarrierKind, LockKind, Pe, ShmemConfig};

use crate::spans::{Ctx, Spans};
use crate::util::median;

const PES: usize = 2;

/// Substrate costs: ns per operation unless named otherwise.
pub struct Costs {
    pub spawn_us: f64,
    pub put_ns: f64,
    pub get_ns: f64,
    pub amo_ns: f64,
    pub barrier_central_ns: f64,
    pub barrier_dissem_ns: f64,
    pub lock_cas_ns: f64,
    pub lock_ticket_ns: f64,
    /// Successful acquisitions ÷ `try_lock` attempts under contention.
    pub lock_acquire_ratio: f64,
}

/// One 2-PE job: every PE allocates with `alloc`, meets the others
/// at a barrier, then runs `op` `iters` times. The job's cost is the
/// slowest PE's ns per repetition.
fn per_op<A: Copy>(
    cfg: ShmemConfig,
    iters: u32,
    alloc: impl Fn(&Pe<'_>) -> A + Sync,
    op: impl Fn(&Pe<'_>, A) + Sync,
) -> f64 {
    let per_pe = run_spmd(cfg, |pe| {
        let a = alloc(pe);
        pe.barrier_all();
        let t = Instant::now();
        for _ in 0..iters {
            op(pe, a);
        }
        t.elapsed()
    })
    .expect("substrate microbench job failed");
    let slowest = per_pe.into_iter().max().unwrap_or_default();
    slowest.as_nanos() as f64 / iters as f64
}

/// Run `job` `reps` times inside spans named `name`; the median.
fn reps(spans: &Spans, ctx: Ctx, name: &'static str, reps: usize, job: impl Fn() -> f64) -> f64 {
    let mut v: Vec<f64> = (0..reps).map(|_| spans.span(ctx, name, |_| job()).0).collect();
    median(&mut v)
}

pub fn measure(spans: &Spans, ctx: Ctx) -> Costs {
    const N: u32 = 20_000;
    const SYNC_N: u32 = 4_000;
    const REPS: usize = 5;
    let base = || ShmemConfig::new(PES).timeout(Duration::from_secs(30));

    let spawn_us = reps(spans, ctx, "shmem.spawn", REPS, || {
        let mut v: Vec<f64> = (0..50)
            .map(|_| {
                let t = Instant::now();
                run_spmd(base(), |_| ()).expect("empty job");
                t.elapsed().as_nanos() as f64 / 1e3
            })
            .collect();
        median(&mut v)
    });
    let remote = |pe: &Pe<'_>| (pe.id() + 1) % PES;
    let word = |pe: &Pe<'_>| pe.shmalloc(1);
    let put_ns = reps(spans, ctx, "shmem.put", REPS, || {
        per_op(base(), N, word, |pe, a| pe.put_u64(a, remote(pe), 1))
    });
    let get_ns = reps(spans, ctx, "shmem.get", REPS, || {
        per_op(base(), N, word, |pe, a| {
            std::hint::black_box(pe.get_u64(a, remote(pe)));
        })
    });
    let amo_ns = reps(spans, ctx, "shmem.amo", REPS, || {
        per_op(base(), N, word, |pe, a| {
            std::hint::black_box(pe.fetch_add_i64(a, remote(pe), 1));
        })
    });
    let barrier = |kind| per_op(base().barrier(kind), SYNC_N, |_| (), |pe, ()| pe.barrier_all());
    let barrier_central_ns =
        reps(spans, ctx, "shmem.barrier.central", REPS, || barrier(BarrierKind::Centralized));
    let barrier_dissem_ns =
        reps(spans, ctx, "shmem.barrier.dissem", REPS, || barrier(BarrierKind::Dissemination));
    let lock = |kind| {
        per_op(
            base().lock(kind),
            SYNC_N,
            |pe| pe.shmalloc_lock(),
            |pe, l| {
                pe.lock(l, 0);
                pe.unlock(l, 0);
            },
        )
    };
    let lock_cas_ns = reps(spans, ctx, "shmem.lock.cas", REPS, || lock(LockKind::SpinCas));
    let lock_ticket_ns = reps(spans, ctx, "shmem.lock.ticket", REPS, || lock(LockKind::Ticket));
    let lock_acquire_ratio = reps(spans, ctx, "shmem.trylock", REPS, || {
        let tries: u64 = run_spmd(base(), |pe| {
            let l = pe.shmalloc_lock();
            pe.barrier_all();
            for _ in 0..SYNC_N {
                while !pe.try_lock(l, 0) {}
                pe.unlock(l, 0);
            }
            pe.stats().lock_tries
        })
        .expect("trylock job")
        .into_iter()
        .sum();
        (SYNC_N as u64 * PES as u64) as f64 / tries as f64
    });
    Costs {
        spawn_us,
        put_ns,
        get_ns,
        amo_ns,
        barrier_central_ns,
        barrier_dissem_ns,
        lock_cas_ns,
        lock_ticket_ns,
        lock_acquire_ratio,
    }
}
