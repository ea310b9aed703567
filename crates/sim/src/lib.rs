//! # lol-sim — a discrete-event mega-scale engine for parallel LOLCODE
//!
//! Every other backend is thread-per-PE, so `n_pes` is capped by what
//! the host OS can schedule — a few thousand at best. The paper's
//! headline artifact is *scaling figures*, and TOP500-scale machines
//! have millions of cores. This crate closes that gap: it executes an
//! SPMD job as a discrete-event simulation — sequentially by default,
//! and on a bounded pool of shard workers (`sim_jobs`) at mega scale —
//! so a million-PE sweep fits on a laptop and uses its cores.
//!
//! ## How it works
//!
//! Each PE is a resumable [`lol_vm::Machine`] (no OS thread, no
//! stack) plus one lane of a per-PE lane table: clock, `CommStats`,
//! RNG, trace buffer, and why it is parked. One substrate implements
//! every PGAS operation on a lane — charging, tracing, barrier
//! arrival, put/get accounting — and the machine runs until it would
//! block: at an allocation fence, an explicit barrier, or a contended
//! lock (the only three blocking points; see `lol_shmem::substrate`).
//! The substrate parks the PE, remembers why, and a scheduler wakes
//! it when the blocking condition resolves. Allocation checks,
//! deadlock diagnosis and the report are shared routines too; only
//! where heap words live and how locks hand off differ per scheduler.
//!
//! There are two schedulers over that one core. The sequential one
//! keeps a single lane table over all PEs and resumes the PE with the
//! earliest pending event `(t_ns, tie, pe)`. Barrier episodes are O(1)
//! scheduler work: arrivals bump an episode counter (plus a running
//! clock max), and the episode's completion releases the whole cohort
//! through a single release cursor — PEs re-synchronize their clocks
//! lazily when next resumed, so no per-PE wake events ever touch the
//! event heap. The heap carries only lock hand-offs.
//!
//! The sharded scheduler ([`run_module_sharded`], picked automatically
//! by [`run_module`] for big lock-free jobs) keeps one lane table per
//! shard and runs whole barrier-to-barrier windows in parallel; see
//! [`par`] for the determinism argument. `sim_jobs = 1` takes the
//! exact sequential path.
//!
//! Time is the same per-PE *logical clock* the threaded world uses
//! under `ClockMode::Virtual`: each remote access advances the issuing
//! PE's clock by the latency model's delay plus `VIRT_OP_NS`, barriers
//! synchronize clocks to their maximum (explicit ones add
//! `VIRT_BARRIER_NS`), and waiting never advances a clock. Because a
//! PE's clock is a pure function of its own operation sequence, the
//! simulator reproduces the threaded engines' virtual walls, outputs,
//! `CommStats` and trace event streams byte-for-byte on data-race-free
//! programs — the equivalence tests pin this.
//!
//! ## Determinism
//!
//! Events at equal time are ordered by a tie-break key (PE id by
//! default, pinned by tests). For race-free programs *any* tie-break
//! order — and any shard assignment — yields identical outputs and
//! virtual walls: see [`run_module_with_order`],
//! [`run_module_sharded`] and the property tests in
//! `tests/sim_determinism.rs`. The canonical order is a presentation
//! choice, not a semantic one.
//!
//! ## Memory
//!
//! State is bounded by *live* per-PE data, not stacks or heap
//! reservations: symmetric heaps are grown to the allocation cursor
//! (the configured `heap_words` stays the diagnostic bound, exactly
//! like the threaded world's `RUN0111`), per-PE bookkeeping is kept
//! in parallel arrays (SoA) rather than one struct per PE, and a
//! fresh machine allocates nothing. A million idle PEs cost on the
//! order of a hundred bytes each.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use lol_shmem::shard::ShardPlan;
use lol_shmem::{CommStats, PeTrace, ShmemConfig, SpmdError};
use lol_vm::ops::Op;
use lol_vm::Module;

mod lane;
pub mod par;
mod seq;

use seq::run_sequential;

/// Everything a finished simulation knows, in PE order.
#[derive(Debug)]
pub struct SimReport {
    /// Captured `VISIBLE` output per PE.
    pub outputs: Vec<String>,
    /// Communication statistics per PE.
    pub stats: Vec<CommStats>,
    /// Trace streams per PE (empty `None`s when tracing is off).
    pub traces: Vec<Option<PeTrace>>,
    /// Final logical clock per PE.
    pub virtual_ns: Vec<u64>,
    /// The job's simulated makespan (maximum final clock).
    pub makespan_ns: u64,
    /// Discrete events processed (diagnostics: resume segments). The
    /// count is scheduler-independent: every PE contributes one
    /// segment per barrier episode it passes plus one final segment,
    /// plus one per lock wait it is granted out of.
    pub events: u64,
    /// Scheduler-side diagnostics beyond [`SimReport::events`].
    pub sched: SchedStats,
}

/// Scheduler internals surfaced for observability. Unlike the
/// observable fields of [`SimReport`] these are *scheduler-dependent*:
/// the sequential and sharded paths legitimately report different
/// values (only `barrier_episodes` agrees across them).
#[derive(Debug, Default, Clone, Copy)]
pub struct SchedStats {
    /// Peak size of the lock-wake event heap (sequential scheduler
    /// only; the sharded path schedules whole windows and has no
    /// event heap, so it reports 0).
    pub heap_peak: u64,
    /// Completed barrier episodes (cohort releases on the sequential
    /// path, window closes on the sharded one).
    pub barrier_episodes: u64,
    /// Single-threaded merge windows the sharded scheduler settled
    /// between phases (0 on the sequential path).
    pub merge_windows: u64,
}

/// Does the module contain lock opcodes? Lock grant order is defined
/// by the canonical *global* event order, which shard workers do not
/// observe inside a window, so lock-using programs always run on the
/// exact sequential scheduler regardless of `sim_jobs`.
pub fn module_uses_locks(module: &Module) -> bool {
    let chunk_has = |code: &[Op]| {
        code.iter().any(|op| {
            matches!(op, Op::LockAcquire { .. } | Op::LockTry { .. } | Op::LockRelease { .. })
        })
    };
    chunk_has(&module.main.code) || module.funcs.iter().any(|(_, c, _)| chunk_has(&c.code))
}

/// The shard-worker count [`run_module`] will actually use for `cfg`:
/// the `sim_jobs` request resolved against the PE count and the
/// host's parallelism (see `lol_shmem::shard::effective_jobs`).
/// Exported so the sweep scheduler can weigh sim configs by real
/// thread use instead of PE count.
pub fn planned_jobs(cfg: &ShmemConfig) -> usize {
    let available = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1);
    lol_shmem::shard::effective_jobs(cfg.sim_jobs, cfg.n_pes, available)
}

/// Run `module` on `cfg.n_pes` simulated PEs with the canonical
/// tie-break order (PE id), sharding across `cfg.sim_jobs` workers
/// when the job is big enough and lock-free (`sim_jobs = 0` resolves
/// to the host's parallelism; `1` forces the sequential scheduler).
/// Outputs are byte-identical at every `sim_jobs` setting.
pub fn run_module(
    module: &Module,
    cfg: &ShmemConfig,
    input: &[String],
) -> Result<SimReport, SpmdError> {
    let jobs = planned_jobs(cfg);
    if jobs > 1 && !module_uses_locks(module) {
        par::run_sharded(module, cfg, input, &ShardPlan::contiguous(cfg.n_pes, jobs))
    } else {
        run_sequential(module, cfg, input, None)
    }
}

/// Like [`run_module`] with an explicit worker count (overrides
/// `cfg.sim_jobs`). Exists for the jobs=1-vs-jobs=N determinism
/// battery; production callers set `ShmemConfig::sim_jobs`.
pub fn run_module_jobs(
    module: &Module,
    cfg: &ShmemConfig,
    input: &[String],
    jobs: usize,
) -> Result<SimReport, SpmdError> {
    run_module(module, &cfg.clone().sim_jobs(jobs.max(1)), input)
}

/// Like [`run_module`], with an explicit PE→shard assignment.
/// Observables are invariant under the plan (the salted-plan property
/// test pins this); lock-using modules fall back to the sequential
/// scheduler, which trivially satisfies the same contract.
pub fn run_module_sharded(
    module: &Module,
    cfg: &ShmemConfig,
    input: &[String],
    plan: &ShardPlan,
) -> Result<SimReport, SpmdError> {
    if plan.jobs() > 1 && !module_uses_locks(module) {
        par::run_sharded(module, cfg, input, plan)
    } else {
        run_sequential(module, cfg, input, None)
    }
}

/// Like [`run_module`], with a custom tie-break key for events at
/// equal `t_ns`, always on the sequential scheduler. Exists for the
/// determinism property tests: on race-free programs every order
/// function yields identical outputs and virtual walls.
pub fn run_module_with_order(
    module: &Module,
    cfg: &ShmemConfig,
    input: &[String],
    order: &dyn Fn(usize) -> u64,
) -> Result<SimReport, SpmdError> {
    run_sequential(module, cfg, input, Some(order))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lol_ast::{BinOp, LolType};
    use lol_interp::Value;
    use lol_shmem::{run_spmd, ClockMode, LatencyModel, LockKind};
    use lol_trace::{VIRT_BARRIER_NS, VIRT_OP_NS};
    use lol_vm::ops::{Chunk, Op};

    fn cfg(n: usize) -> ShmemConfig {
        ShmemConfig::new(n).clock(ClockMode::Virtual)
    }

    /// Hand-assembled ring exchange: every PE puts `me * 100` to its
    /// right neighbour, barriers, prints what landed.
    fn ring_module() -> Module {
        Module {
            consts: vec![Value::Numbr(1), Value::Numbr(100)],
            main: Chunk {
                code: vec![
                    Op::Me,
                    Op::Const(0),
                    Op::Bin(BinOp::Sum),
                    Op::MahFrenz,
                    Op::Bin(BinOp::Mod),
                    Op::PushBff,
                    Op::Me,
                    Op::Const(1),
                    Op::Bin(BinOp::Produkt),
                    Op::SharedStore { off: 0, ty: LolType::Numbr, remote: true },
                    Op::PopBff,
                    Op::Barrier,
                    Op::SharedLoad { off: 0, ty: LolType::Numbr, remote: false },
                    Op::Visible { argc: 1, newline: true },
                    Op::Halt,
                ],
                n_slots: 1,
                n_arrays: 0,
                regs: Vec::new(),
                arr_names: Vec::new(),
            },
            funcs: vec![],
            shared_words: 1,
        }
    }

    /// Hand-assembled lock counter: every PE locks PE 0's lock cell
    /// (words 0..3), bumps the counter at word 3, then prints it after
    /// a barrier.
    fn lock_module() -> Module {
        Module {
            consts: vec![Value::Numbr(0), Value::Numbr(1)],
            main: Chunk {
                code: vec![
                    Op::Const(0),
                    Op::PushBff,
                    Op::LockAcquire { off: 0, remote: true },
                    Op::SharedLoad { off: 3, ty: LolType::Numbr, remote: true },
                    Op::Const(1),
                    Op::Bin(BinOp::Sum),
                    Op::SharedStore { off: 3, ty: LolType::Numbr, remote: true },
                    Op::LockRelease { off: 0, remote: true },
                    Op::PopBff,
                    Op::Barrier,
                    Op::Const(0),
                    Op::PushBff,
                    Op::SharedLoad { off: 3, ty: LolType::Numbr, remote: true },
                    Op::PopBff,
                    Op::Visible { argc: 1, newline: true },
                    Op::Halt,
                ],
                n_slots: 1,
                n_arrays: 0,
                regs: Vec::new(),
                arr_names: Vec::new(),
            },
            funcs: vec![],
            shared_words: 4,
        }
    }

    /// Threaded reference run of the same module, collecting the same
    /// observables.
    fn threaded(module: &Module, cfg: ShmemConfig) -> (Vec<String>, Vec<CommStats>, Vec<u64>) {
        let r = run_spmd(cfg, |pe| {
            let out = lol_vm::run_on_pe(module, pe, &[]).unwrap();
            (out, pe.stats(), pe.virtual_ns())
        })
        .unwrap();
        let mut outs = Vec::new();
        let mut stats = Vec::new();
        let mut clocks = Vec::new();
        for (o, s, c) in r {
            outs.push(o);
            stats.push(s);
            clocks.push(c);
        }
        (outs, stats, clocks)
    }

    #[test]
    fn ring_matches_threaded_vm_exactly() {
        let m = ring_module();
        let c = cfg(8).latency(LatencyModel::Uniform { remote_ns: 1000 });
        let sim = run_module(&m, &c, &[]).unwrap();
        let (outs, stats, clocks) = threaded(&m, c);
        assert_eq!(sim.outputs, outs);
        assert_eq!(sim.stats, stats);
        assert_eq!(sim.virtual_ns, clocks);
        assert_eq!(sim.outputs[0], "700\n");
        assert_eq!(sim.makespan_ns, 1000 + VIRT_OP_NS + VIRT_BARRIER_NS);
    }

    #[test]
    fn lock_counter_matches_threaded_vm_for_both_kinds() {
        for kind in LockKind::ALL {
            let m = lock_module();
            let c = cfg(4).lock(kind).latency(LatencyModel::epiphany16());
            let sim = run_module(&m, &c, &[]).unwrap();
            let (outs, stats, clocks) = threaded(&m, c);
            assert_eq!(sim.outputs, outs, "{kind:?}");
            assert_eq!(sim.stats, stats, "{kind:?}");
            assert_eq!(sim.virtual_ns, clocks, "{kind:?}");
            assert_eq!(sim.outputs[3], "4\n");
        }
    }

    #[test]
    fn traces_match_threaded_signatures() {
        let m = ring_module();
        let c = cfg(4).trace(true);
        let sim = run_module(&m, &c, &[]).unwrap();
        let threaded_traces = run_spmd(c, |pe| {
            lol_vm::run_on_pe(&m, pe, &[]).unwrap();
            pe.take_trace().unwrap()
        })
        .unwrap();
        for (s, t) in sim.traces.iter().zip(&threaded_traces) {
            assert_eq!(s.as_ref().unwrap().signature(), t.signature());
        }
    }

    #[test]
    fn any_tie_break_order_is_equivalent() {
        let m = lock_module();
        let c = cfg(6).latency(LatencyModel::Uniform { remote_ns: 700 });
        let canonical = run_module(&m, &c, &[]).unwrap();
        let orders: [&dyn Fn(usize) -> u64; 3] =
            [&|pe| 1000 - pe as u64, &|pe| (pe as u64).wrapping_mul(0x9E37_79B9) & 0xFFFF, &|_| 0];
        for (i, order) in orders.iter().enumerate() {
            let r = run_module_with_order(&m, &c, &[], order).unwrap();
            assert_eq!(r.outputs, canonical.outputs, "order {i}");
            assert_eq!(r.virtual_ns, canonical.virtual_ns, "order {i}");
            assert_eq!(r.makespan_ns, canonical.makespan_ns, "order {i}");
        }
    }

    /// The sharded scheduler is byte-identical to the sequential one
    /// on a real multi-shard job, including episode/event accounting.
    #[test]
    fn sharded_matches_sequential_on_the_ring() {
        let m = ring_module();
        let c = cfg(64).latency(LatencyModel::epiphany16()).trace(true);
        let seq = run_module_jobs(&m, &c, &[], 1).unwrap();
        for jobs in [2usize, 3, 4, 7] {
            let par = run_module_jobs(&m, &c, &[], jobs).unwrap();
            assert_eq!(par.outputs, seq.outputs, "jobs {jobs}");
            assert_eq!(par.stats, seq.stats, "jobs {jobs}");
            assert_eq!(par.virtual_ns, seq.virtual_ns, "jobs {jobs}");
            assert_eq!(par.makespan_ns, seq.makespan_ns, "jobs {jobs}");
            assert_eq!(par.events, seq.events, "jobs {jobs}");
            let sigs = |r: &SimReport| {
                r.traces.iter().map(|t| t.as_ref().unwrap().signature()).collect::<Vec<_>>()
            };
            assert_eq!(sigs(&par), sigs(&seq), "jobs {jobs}");
        }
    }

    /// Lock-using modules never shard (grant order is global), so a
    /// forced jobs=4 run still matches — via the sequential fallback.
    #[test]
    fn lock_modules_fall_back_to_sequential() {
        assert!(module_uses_locks(&lock_module()));
        assert!(!module_uses_locks(&ring_module()));
        let m = lock_module();
        let c = cfg(8).lock(LockKind::Ticket);
        let seq = run_module_jobs(&m, &c, &[], 1).unwrap();
        let par = run_module_jobs(&m, &c, &[], 4).unwrap();
        assert_eq!(par.outputs, seq.outputs);
        assert_eq!(par.virtual_ns, seq.virtual_ns);
        assert_eq!(par.events, seq.events);
    }

    /// Deadlocks are detected identically on the sharded scheduler.
    #[test]
    fn deadlock_is_detected_exactly() {
        // PE 0 skips the barrier (its falsy id jumps over it).
        let m = Module {
            consts: vec![],
            main: Chunk {
                code: vec![Op::Me, Op::JumpIfFalse(3), Op::Barrier, Op::Halt],
                n_slots: 1,
                n_arrays: 0,
                regs: Vec::new(),
                arr_names: Vec::new(),
            },
            funcs: vec![],
            shared_words: 0,
        };
        for jobs in [1usize, 3] {
            let err = run_module_jobs(&m, &cfg(3), &[], jobs).unwrap_err();
            assert!(err.message.contains("RUN0191"), "jobs {jobs}: {}", err.message);
            assert!(err.message.contains("HUGZ"), "jobs {jobs}: {}", err.message);
            assert_eq!(err.pe, 1, "jobs {jobs}: first unfinished PE");
        }
    }

    /// The PGAS diagnostics give the same `(pe, message)` on the
    /// threaded VM and on both schedulers.
    #[test]
    fn diagnostics_match_the_threaded_world() {
        let module = |shared_words, consts, code| Module {
            consts,
            main: Chunk { code, n_slots: 1, ..Default::default() },
            funcs: vec![],
            shared_words,
        };
        // RUN0100: PE 2 alone stores past a 4-word heap.
        let bound = module(
            1,
            vec![Value::Numbr(2)],
            vec![
                Op::Me,
                Op::Const(0),
                Op::Bin(BinOp::BothSaem),
                Op::JumpIfFalse(6),
                Op::Const(0),
                Op::SharedStore { off: 8, ty: LolType::Numbr, remote: false },
                Op::Halt,
            ],
        );
        // RUN0111: every PE's startup allocation overflows the heap.
        let exhausted = module(8, vec![], vec![Op::Halt]);
        // RUN0191: PE 0 skips the barrier PE 1 waits at.
        let deadlock = module(0, vec![], vec![Op::Me, Op::JumpIfFalse(3), Op::Barrier, Op::Halt]);
        let cases = [
            ("RUN0100", &bound, cfg(4).heap_words(4), 2),
            ("RUN0111", &exhausted, cfg(4).heap_words(4), 0),
            ("RUN0191", &deadlock, cfg(2).timeout(std::time::Duration::from_millis(200)), 1),
        ];
        for (code, m, c, pe) in cases {
            let threaded = run_spmd(c.clone(), |p| lol_vm::run_on_pe(m, p, &[]).unwrap());
            let threaded = threaded.unwrap_err();
            assert_eq!(threaded.pe, pe, "{code}: {}", threaded.message);
            assert!(threaded.message.contains(code), "{code}: {}", threaded.message);
            for jobs in [1usize, 2] {
                let sim = run_module_jobs(m, &c, &[], jobs).unwrap_err();
                assert_eq!(sim, threaded, "{code}, jobs {jobs}");
            }
        }
        // RUN0110 cannot come from one module (every PE allocates its
        // `shared_words`), so the threaded world's mismatch is checked
        // against the routine both schedulers settle allocations with.
        // Which PE the threaded world blames depends on which call it
        // logged first; the simulator settles in PE order.
        let threaded = run_spmd(cfg(2).timeout(std::time::Duration::from_secs(5)), |p| {
            p.shmalloc(2 + p.id());
        })
        .unwrap_err();
        let settle = |reqs: &[lane::AllocReq]| {
            lane::AllocLog::default().settle(reqs, 16).expect_err("sizes differ")
        };
        let in_pe_order = settle(&[(0, 0, 2), (0, 1, 3)]);
        assert_eq!(in_pe_order.pe, 1);
        assert!(in_pe_order.message.contains("RUN0110"), "{}", in_pe_order.message);
        assert!(
            threaded == in_pe_order || threaded == settle(&[(0, 1, 3), (0, 0, 2)]),
            "{threaded:?}"
        );
    }

    #[test]
    fn lock_misuse_is_diagnosed_like_the_threaded_world() {
        let m = Module {
            consts: vec![],
            main: Chunk {
                code: vec![Op::LockRelease { off: 0, remote: false }, Op::Halt],
                n_slots: 1,
                n_arrays: 0,
                regs: Vec::new(),
                arr_names: Vec::new(),
            },
            funcs: vec![],
            shared_words: 3,
        };
        let err = run_module(&m, &cfg(2), &[]).unwrap_err();
        assert!(err.message.contains("RUN0180"), "{}", err.message);
    }

    #[test]
    fn mega_scale_65536_pes() {
        let n = 65_536;
        let m = ring_module();
        let sim = run_module(&m, &cfg(n), &[]).unwrap();
        assert_eq!(sim.outputs.len(), n);
        assert_eq!(sim.outputs[0], format!("{}\n", (n - 1) * 100));
        assert_eq!(sim.outputs[n - 1], format!("{}\n", (n - 2) * 100));
        // Off-latency: one remote put (1ns) then the explicit barrier.
        assert_eq!(sim.makespan_ns, VIRT_OP_NS + VIRT_BARRIER_NS);
        // Episode-based accounting, identical on every scheduler: the
        // ring has two barrier episodes (the startup allocation fence
        // and the explicit HUGZ), and every PE runs one segment per
        // episode plus the final segment to completion — segments =
        // n × (episodes + 1) = 3n.
        assert_eq!(sim.events, 3 * n as u64);
    }

    /// The headline scale: 2^20 > 1,000,000 PEs. Run with
    /// `cargo test --release -p lol-sim -- --ignored --nocapture`;
    /// prints its host wall for the CI mega-scale timing artifact.
    #[test]
    #[ignore = "release-mode mega-scale run (~1M PEs)"]
    fn mega_scale_one_million_pes() {
        let n = 1 << 20;
        let m = ring_module();
        let t0 = std::time::Instant::now();
        let sim = run_module(&m, &cfg(n), &[]).unwrap();
        eprintln!(
            "mega-scale wall: {} PEs in {} ms ({} shard workers)",
            n,
            t0.elapsed().as_millis(),
            planned_jobs(&cfg(n))
        );
        assert_eq!(sim.outputs.len(), n);
        for pe in [0usize, 1, n / 2, n - 1] {
            let left = (pe + n - 1) % n;
            assert_eq!(sim.outputs[pe], format!("{}\n", left * 100), "PE {pe}");
        }
        assert_eq!(sim.makespan_ns, VIRT_OP_NS + VIRT_BARRIER_NS);
        // Same episode-based formula as the 65,536-PE pin: two barrier
        // episodes → n × (2 + 1) segments on every scheduler.
        assert_eq!(sim.events, 3 * n as u64);
    }
}
