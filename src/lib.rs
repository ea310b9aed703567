//! # I Can Has Supercomputer? — parallel LOLCODE in Rust
//!
//! Facade crate for the workspace: re-exports the public surface of the
//! toolchain so the examples and integration tests have a single import
//! root.
//!
//! The core of that surface is the compile-once/run-many API: compile
//! a program to a [`Compiled`](prelude::Compiled) artifact, run it any
//! number of times on an [`Engine`](prelude::Engine), and get a
//! structured [`RunReport`](prelude::RunReport) back from each run:
//!
//! ```
//! use icanhas::prelude::*;
//!
//! let artifact = compile(
//!     "HAI 1.2\nVISIBLE \"OH HAI PE \" ME\nKTHXBYE",
//! ).unwrap();
//! let report = engine_for(Backend::Interp)
//!     .run(&artifact, &RunConfig::new(2))
//!     .unwrap();
//! assert_eq!(report.outputs[0], "OH HAI PE 0\n");
//! assert_eq!(report.stats.len(), 2); // per-PE CommStats
//! ```
//!
//! The one-shot [`run_source`](prelude::run_source) shim remains for
//! scripts that run a program exactly once:
//!
//! ```
//! use icanhas::prelude::*;
//!
//! let outs = run_source(
//!     "HAI 1.2\nVISIBLE \"OH HAI PE \" ME\nKTHXBYE",
//!     RunConfig::new(2),
//! ).unwrap();
//! assert_eq!(outs[0], "OH HAI PE 0\n");
//! ```
//!
//! See `README.md` for the architecture tour and `docs/PERF.md` for
//! what reproduces each of the paper's tables and figures.

pub use lol_ast as ast;
pub use lol_c_codegen as codegen;
pub use lol_interp as interp;
pub use lol_sema as sema;
pub use lol_shmem as shmem;
pub use lol_sim as sim;
pub use lol_vm as vm;
pub use lolcode as driver;

/// The most common imports, bundled.
pub mod prelude {
    pub use lol_shmem::{
        run_spmd, BarrierKind, CommStats, LatencyModel, LockKind, ShmemConfig, SymAddr, WaitCmp,
    };
    pub use lolcode::corpus;
    pub use lolcode::{
        check, compile, compile_to_c, config_key, engine_for, jsonl_record, parse_jsonl_done,
        parse_program, run_source, Backend, CEngine, ClockMode, Compiled, Engine, EventKind,
        InterpEngine, LolError, PeTrace, RunConfig, RunReport, SimEngine, SweepEntry, SweepReport,
        SweepSpec, Trace, TraceEvent, TraceSpec, VmEngine,
    };
}
