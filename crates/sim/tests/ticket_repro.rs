//! Temporary review repro: ticket lock held across a barrier.

use lol_ast::BinOp;
use lol_interp::Value;
use lol_shmem::{run_spmd, ClockMode, LockKind, ShmemConfig};
use lol_sim::run_module;
use lol_vm::ops::{Chunk, Op};
use lol_vm::Module;

/// PE0: lock L@0, HUGZ, unlock. PE1: HUGZ, lock L@0, unlock.
/// Valid program (threaded world completes); contends on the lock.
fn module() -> Module {
    Module {
        consts: vec![Value::Numbr(0)],
        main: Chunk {
            code: vec![
                Op::Me,
                Op::JumpIfFalse(9),
                // PE1 (truthy id) path:
                Op::Barrier,
                Op::Const(0),
                Op::PushBff,
                Op::LockAcquire { off: 0, remote: true },
                Op::LockRelease { off: 0, remote: true },
                Op::PopBff,
                Op::Halt,
                // PE0 path: lock held across the barrier.
                Op::Const(0),
                Op::PushBff,
                Op::LockAcquire { off: 0, remote: true },
                Op::Barrier,
                Op::LockRelease { off: 0, remote: true },
                Op::PopBff,
                Op::Halt,
            ],
            n_slots: 1,
            n_arrays: 0,
            regs: Vec::new(),
            arr_names: Vec::new(),
        },
        funcs: vec![],
        shared_words: 3,
    }
}

// silence unused import if BinOp unused
#[allow(dead_code)]
fn _unused(_: BinOp) {}

#[test]
fn lock_across_barrier_matches_threaded_for_both_kinds() {
    for kind in LockKind::ALL {
        let m = module();
        let c = ShmemConfig::new(2).clock(ClockMode::Virtual).lock(kind);
        // Threaded reference: must complete.
        let threaded = run_spmd(c.clone(), |pe| {
            lol_vm::run_on_pe(&m, pe, &[]).unwrap();
            pe.virtual_ns()
        });
        assert!(threaded.is_ok(), "{kind:?}: threaded deadlocked?");
        let sim = run_module(&m, &c, &[]);
        assert!(sim.is_ok(), "{kind:?}: sim failed: {:?}", sim.err());
    }
}
