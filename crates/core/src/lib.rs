//! # lolcode — the parallel LOLCODE driver
//!
//! One-stop facade over the whole toolchain:
//!
//! ```text
//! source ──lex──▶ tokens ──parse──▶ AST ──sema──▶ Compiled artifact
//!      ├── InterpEngine (tree-walking interpreter, SPMD over lol-shmem)
//!      ├── VmEngine     (bytecode VM, SPMD over lol-shmem)
//!      ├── CEngine      (emit C + OpenSHMEM — the paper's lcc — then
//!      │                 cc + multi-PE SHMEM stub, run as a binary)
//!      └── SimEngine    (discrete-event simulation via lol-sim — no
//!                        threads, PE counts to ~1M)
//! ```
//!
//! Engines dispatch through [`engine_for`], so every execution path
//! sits behind the same [`Engine`] trait.
//!
//! ## Compile once, run many
//!
//! The front end runs **once** per program ([`compile`] → [`Compiled`]);
//! executions are then cheap to repeat across PE counts, seeds, latency
//! models and backends via an [`Engine`], and each run returns a
//! structured [`RunReport`] — per-PE output, per-PE communication
//! statistics, wall-clock time and the effective config:
//!
//! ```
//! use lolcode::{compile, engine_for, Backend, RunConfig};
//!
//! let artifact = compile(
//!     "HAI 1.2\nVISIBLE \"HAI FROM PE \" ME\nKTHXBYE",
//! ).unwrap();
//!
//! // One artifact, many runs: sweep the PE count on the VM backend.
//! let engine = engine_for(Backend::Vm);
//! let sweep: Vec<RunConfig> = [1, 2, 4].into_iter().map(RunConfig::new).collect();
//! for report in engine.run_many(&artifact, &sweep) {
//!     let report = report.unwrap();
//!     assert_eq!(report.outputs.len(), report.config.n_pes);
//!     assert_eq!(report.stats.len(), report.config.n_pes); // per-PE CommStats
//! }
//!
//! // Same artifact, other backend — no re-parsing, no re-analysis.
//! let report = engine_for(Backend::Interp)
//!     .run(&artifact, &RunConfig::new(4))
//!     .unwrap();
//! assert_eq!(report.outputs[3], "HAI FROM PE 3\n");
//! ```
//!
//! ## Sweeps
//!
//! [`SweepSpec`] turns the run-many pattern into an orchestrated config
//! matrix: cartesian products over PE counts × seeds × latency models ×
//! backends, dispatched onto a bounded worker pool, aggregated into a
//! [`SweepReport`] with speedup/efficiency columns and dependency-free
//! JSON output:
//!
//! ```
//! use lolcode::{compile, SweepSpec};
//!
//! let artifact = compile("HAI 1.2\nVISIBLE ME\nKTHXBYE").unwrap();
//! let report = SweepSpec::new().pes([1, 2, 4]).run(&artifact);
//! assert!(report.all_ok());
//! println!("{}", report.speedup_table());
//! ```
//!
//! ## One-shot convenience
//!
//! [`run_source`] and [`compile_to_c`] remain as thin shims over the
//! artifact API for scripts and tests that run a program once:
//!
//! ```
//! use lolcode::{run_source, RunConfig};
//!
//! let outs = run_source(
//!     "HAI 1.2\nVISIBLE \"HAI FROM PE \" ME\nKTHXBYE",
//!     RunConfig::new(4),
//! ).unwrap();
//! assert_eq!(outs[3], "HAI FROM PE 3\n");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod corpus;
mod engine;
pub mod service;
pub mod sweep;

pub use engine::{
    engine_for, CEngine, Compiled, Engine, HotSpot, InterpEngine, PhaseTimings, ProfileReport,
    RunReport, SimEngine, SimStats, VmEngine,
};
pub use service::{QuotaViolation, Quotas};
pub use sweep::{
    config_key, config_weight, jsonl_record, parse_jsonl_done, SweepEntry, SweepReport, SweepSpec,
};

use lol_ast::{Program, SourceMap};
use lol_sema::Analysis;
pub use lol_shmem::{BarrierKind, CommStats, LatencyModel, LockKind, ShmemConfig, SpmdError};
pub use lol_trace::{ClockMode, CommMatrix, EventKind, PeTrace, Trace, TraceEvent, TraceSpec};
use std::time::Duration;

/// Which execution engine runs the program.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum Backend {
    /// Tree-walking interpreter (full language, including `SRS`).
    #[default]
    Interp,
    /// Bytecode VM (compiled path; rejects `SRS`).
    Vm,
    /// Translate to C + OpenSHMEM (the paper's `lcc`), compile with the
    /// system C compiler against the bundled multi-PE stub, and run
    /// the binary. Unsupported (cleanly) on machines without a C
    /// compiler; ignores latency models.
    C,
    /// Discrete-event simulation of the whole SPMD job (`lol-sim`):
    /// no thread per PE — a bounded shard-worker pool
    /// ([`RunConfig::sim_jobs`]) — so PE counts scale to ~1M.
    /// Deterministic at every worker count; reports the simulated
    /// makespan as its wall time and always carries a virtual wall
    /// under [`ClockMode::Virtual`].
    Sim,
}

impl Backend {
    /// Every backend, in display order.
    pub const ALL: [Backend; 4] = [Backend::Interp, Backend::Vm, Backend::C, Backend::Sim];
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Backend::Interp => "interp",
            Backend::Vm => "vm",
            Backend::C => "c",
            Backend::Sim => "sim",
        })
    }
}

impl std::str::FromStr for Backend {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim() {
            "interp" => Ok(Backend::Interp),
            "vm" => Ok(Backend::Vm),
            "c" | "cc" | "lcc" => Ok(Backend::C),
            "sim" | "des" => Ok(Backend::Sim),
            other => Err(format!("O NOES! backend IZ interp, vm, c OR sim, NOT {other}")),
        }
    }
}

/// Everything needed to launch a program.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// Number of processing elements (`MAH FRENZ`).
    pub n_pes: usize,
    /// Which execution engine runs the program.
    pub backend: Backend,
    /// Remote-access latency model (all three backends honor it).
    pub latency: LatencyModel,
    /// Barrier algorithm for `HUGZ` (ablation axis).
    pub barrier: BarrierKind,
    /// Lock algorithm for `IM MESIN WIF` (ablation axis).
    pub lock: LockKind,
    /// Base seed for the per-PE `WHATEVR` streams.
    pub seed: u64,
    /// Deadlock watchdog: how long the job may run before being
    /// declared wedged.
    pub timeout: Duration,
    /// `GIMMEH` input lines (every PE sees the same stream).
    pub input: Vec<String>,
    /// Words of symmetric heap per PE (in-process engines only; the C
    /// stub's segment is statically sized).
    pub heap_words: usize,
    /// Which clock the latency model charges against: busy-waited real
    /// time (default) or the deterministic virtual clock — see
    /// [`ClockMode`]. Under [`ClockMode::Virtual`] the report carries
    /// [`RunReport::virtual_wall`].
    pub clock: ClockMode,
    /// Record communication events; the report carries
    /// [`RunReport::trace`] when set.
    pub trace: bool,
    /// Optional *global* tracing budget (`<cap>@<stride>`): caps total
    /// buffered events across the job and samples every `stride`-th
    /// PE, so tracing survives mega-scale PE counts. `None` keeps the
    /// substrate's fixed per-PE capacity. Implies nothing unless
    /// [`RunConfig::trace`] is set.
    pub trace_spec: Option<TraceSpec>,
    /// Worker threads for the [`Backend::Sim`] scheduler: `0` (the
    /// default) picks the host's parallelism for big jobs, `1` forces
    /// the exact sequential scheduler, `N` forces `N` shards. Outputs
    /// are byte-identical at every setting; other backends ignore it.
    /// Deliberately *not* part of the serialized config identity
    /// ([`config_key`]/JSON) — it changes how fast a sim runs, never
    /// what it computes.
    pub sim_jobs: usize,
    /// Collect a bytecode execution profile ([`RunReport::profile`])
    /// on the VM backend: per-opcode counts and hot bytecode ranges.
    /// Like [`RunConfig::sim_jobs`], *not* part of the serialized
    /// config identity — profiling observes a run, it never changes
    /// what the run computes.
    pub profile: bool,
}

impl RunConfig {
    /// Defaults for `n_pes` processing elements.
    pub fn new(n_pes: usize) -> Self {
        RunConfig {
            n_pes,
            backend: Backend::Interp,
            latency: LatencyModel::Off,
            barrier: BarrierKind::Centralized,
            lock: LockKind::SpinCas,
            seed: 0xC47_F00D,
            timeout: Duration::from_secs(30),
            input: Vec::new(),
            heap_words: 1 << 16,
            clock: ClockMode::Wall,
            trace: false,
            trace_spec: None,
            sim_jobs: 0,
            profile: false,
        }
    }

    /// Change the PE count (handy when building sweeps from a base
    /// config: `(1..=8).map(|n| base.clone().pes(n))`).
    pub fn pes(mut self, n_pes: usize) -> Self {
        self.n_pes = n_pes;
        self
    }

    /// Select the execution backend.
    pub fn backend(mut self, b: Backend) -> Self {
        self.backend = b;
        self
    }

    /// Set the RNG seed (per-PE streams derive from it).
    pub fn seed(mut self, s: u64) -> Self {
        self.seed = s;
        self
    }

    /// Set the latency model.
    pub fn latency(mut self, m: LatencyModel) -> Self {
        self.latency = m;
        self
    }

    /// Set the barrier algorithm for `HUGZ`.
    pub fn barrier(mut self, b: BarrierKind) -> Self {
        self.barrier = b;
        self
    }

    /// Set the lock algorithm for `IM MESIN WIF`.
    pub fn lock(mut self, l: LockKind) -> Self {
        self.lock = l;
        self
    }

    /// Set the deadlock watchdog.
    pub fn timeout(mut self, t: Duration) -> Self {
        self.timeout = t;
        self
    }

    /// Provide `GIMMEH` input lines.
    pub fn input(mut self, lines: &[&str]) -> Self {
        self.input = lines.iter().map(|s| s.to_string()).collect();
        self
    }

    /// Set the symmetric heap size (in 8-byte words).
    pub fn heap_words(mut self, words: usize) -> Self {
        self.heap_words = words;
        self
    }

    /// Select the clock the latency model charges against.
    pub fn clock(mut self, c: ClockMode) -> Self {
        self.clock = c;
        self
    }

    /// Enable (or disable) communication-event tracing.
    pub fn trace(mut self, on: bool) -> Self {
        self.trace = on;
        self
    }

    /// Bound tracing with a global budget + PE sampling stride (see
    /// [`TraceSpec`]); also enables tracing.
    pub fn trace_spec(mut self, spec: TraceSpec) -> Self {
        self.trace = true;
        self.trace_spec = Some(spec);
        self
    }

    /// Set the simulator's worker-thread count (see
    /// [`RunConfig::sim_jobs`]).
    pub fn sim_jobs(mut self, jobs: usize) -> Self {
        self.sim_jobs = jobs;
        self
    }

    /// Enable (or disable) bytecode profiling (see
    /// [`RunConfig::profile`]).
    pub fn profile(mut self, on: bool) -> Self {
        self.profile = on;
        self
    }

    /// Check the configuration before launching: PE count, heap size,
    /// latency-model parameters. Engines call this up front, so a bad
    /// config (e.g. a zero-width mesh) is a [`LolError::Config`]
    /// instead of a mid-run panic.
    pub fn validate(&self) -> Result<(), LolError> {
        self.shmem().validate().map_err(LolError::Config)
    }

    /// The substrate configuration this run config implies.
    pub fn shmem(&self) -> ShmemConfig {
        let mut cfg = ShmemConfig::new(self.n_pes)
            .heap_words(self.heap_words)
            .latency(self.latency)
            .barrier(self.barrier)
            .lock(self.lock)
            .seed(self.seed)
            .timeout(self.timeout)
            .clock(self.clock)
            .trace(self.trace)
            .sim_jobs(self.sim_jobs);
        if let Some(spec) = self.trace_spec {
            cfg = cfg.trace_capacity(spec.per_pe_cap(self.n_pes)).trace_stride(spec.stride);
        }
        cfg
    }
}

/// Anything that can go wrong in the pipeline, with rendered
/// LOLCODE-flavoured messages.
#[derive(Debug, Clone)]
pub enum LolError {
    /// Lex/parse errors (rendered with source excerpts).
    Parse(String),
    /// Semantic errors (rendered with source excerpts).
    Sema(String),
    /// Backend compilation errors (e.g. `SRS` under the VM).
    Compile(String),
    /// Invalid run configuration (e.g. a zero-width mesh latency
    /// model), rejected before any PE launches.
    Config(String),
    /// The selected engine cannot run this config on this machine at
    /// all (e.g. the C backend without a C compiler, or with a latency
    /// model it has no way to simulate). Distinct from a failure: sweep
    /// reports render it as skipped-with-reason, and equivalence tests
    /// skip instead of failing.
    Unsupported(String),
    /// The config was deliberately not run — e.g. a resumed sweep
    /// (`lolrun --sweep --resume prev.jsonl`) found it already
    /// completed in a previous run. Never a failure.
    Skipped(String),
    /// A PE failed at runtime.
    Runtime(SpmdError),
}

impl std::fmt::Display for LolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LolError::Parse(s) => write!(f, "{s}"),
            LolError::Sema(s) => write!(f, "{s}"),
            LolError::Compile(s) => write!(f, "{s}"),
            LolError::Config(s) => write!(f, "{s}"),
            LolError::Unsupported(s) => write!(f, "{s}"),
            LolError::Skipped(s) => write!(f, "{s}"),
            LolError::Runtime(e) => write!(f, "{e}"),
        }
    }
}

impl LolError {
    /// Is this "this engine can't run that here" rather than a real
    /// failure? Sweeps and tests use this to degrade instead of die.
    pub fn is_unsupported(&self) -> bool {
        matches!(self, LolError::Unsupported(_))
    }

    /// Was this config deliberately skipped (resume) rather than run?
    pub fn is_skipped(&self) -> bool {
        matches!(self, LolError::Skipped(_))
    }
}

impl std::error::Error for LolError {}

/// Parse source into an AST (rendered diagnostics on failure).
pub fn parse_program(src: &str) -> Result<Program, LolError> {
    let out = lol_parser::parse(src);
    if out.diags.has_errors() {
        let sm = SourceMap::new(src);
        return Err(LolError::Parse(out.diags.render_all(&sm)));
    }
    Ok(out.program.expect("program present when no errors"))
}

/// Parse + semantic analysis. Warnings are returned alongside.
pub fn check(src: &str) -> Result<(Program, Analysis, Vec<String>), LolError> {
    let program = parse_program(src)?;
    let analysis = lol_sema::analyze(&program);
    let sm = SourceMap::new(src);
    if analysis.diags.has_errors() {
        return Err(LolError::Sema(analysis.diags.render_all(&sm)));
    }
    let warnings = analysis.diags.iter().map(|d| d.render(&sm)).collect();
    Ok((program, analysis, warnings))
}

/// Run the front end once, producing a reusable [`Compiled`] artifact.
///
/// Equivalent to [`Compiled::new`]; this free function reads better at
/// call sites: `compile(src)?`.
pub fn compile(src: &str) -> Result<Compiled, LolError> {
    Compiled::new(src)
}

/// Parse, analyze and execute `src` SPMD; returns per-PE `VISIBLE`
/// output in PE order.
///
/// One-shot shim over the artifact API: compiles, runs once on the
/// engine `cfg.backend` selects, and discards everything but the
/// outputs. Use [`compile`] + [`Engine::run`] to keep the artifact
/// (for repeated runs) and the full [`RunReport`] (for stats/timing).
pub fn run_source(src: &str, cfg: RunConfig) -> Result<Vec<String>, LolError> {
    let artifact = compile(src)?;
    let report = engine_for(cfg.backend).run(&artifact, &cfg)?;
    Ok(report.outputs)
}

/// Parse, analyze and translate `src` to C + OpenSHMEM (the paper's
/// `lcc` output). Shim over [`compile`] + [`Compiled::emit_c`].
pub fn compile_to_c(src: &str) -> Result<String, LolError> {
    compile(src)?.emit_c()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipeline_hello() {
        let outs = run_source("HAI 1.2\nVISIBLE \"HAI\"\nKTHXBYE", RunConfig::new(2)).unwrap();
        assert_eq!(outs, vec!["HAI\n", "HAI\n"]);
    }

    #[test]
    fn pipeline_vm_backend() {
        let outs = run_source(
            "HAI 1.2\nVISIBLE SUM OF ME AN 1\nKTHXBYE",
            RunConfig::new(3).backend(Backend::Vm),
        )
        .unwrap();
        assert_eq!(outs, vec!["1\n", "2\n", "3\n"]);
    }

    #[test]
    fn parse_error_is_rendered() {
        let e = run_source("HAI 1.2\nVISIBLE", RunConfig::new(1)).unwrap_err();
        match e {
            LolError::Parse(msg) => assert!(msg.contains("O NOES!")),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn sema_error_is_rendered() {
        let e = run_source("HAI 1.2\nghost R 1\nKTHXBYE", RunConfig::new(1)).unwrap_err();
        match e {
            LolError::Sema(msg) => assert!(msg.contains("SEM0001"), "{msg}"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn vm_rejects_srs_with_compile_error() {
        let e = run_source(
            "HAI 1.2\nI HAS A x ITZ 1\nVISIBLE SRS \"x\"\nKTHXBYE",
            RunConfig::new(1).backend(Backend::Vm),
        )
        .unwrap_err();
        match e {
            LolError::Compile(msg) => assert!(msg.contains("VMC0001"), "{msg}"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn runtime_error_carries_pe() {
        let e = run_source(
            "HAI 1.2\nBOTH SAEM ME AN 1, O RLY?\nYA RLY\nVISIBLE QUOSHUNT OF 1 AN 0\nOIC\nKTHXBYE",
            RunConfig::new(2).timeout(Duration::from_secs(5)),
        )
        .unwrap_err();
        match e {
            LolError::Runtime(se) => {
                assert_eq!(se.pe, 1);
                assert!(se.message.contains("RUN0001"));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn warnings_are_surfaced() {
        let (_, _, warnings) = check("HAI 1.2\nWIN, O RLY?\nYA RLY\nHUGZ\nOIC\nKTHXBYE").unwrap();
        assert!(warnings.iter().any(|w| w.contains("SEM0012")), "{warnings:?}");
    }

    #[test]
    fn compiled_artifact_surfaces_warnings_too() {
        let artifact = compile("HAI 1.2\nWIN, O RLY?\nYA RLY\nHUGZ\nOIC\nKTHXBYE").unwrap();
        assert!(artifact.warnings().iter().any(|w| w.contains("SEM0012")));
    }

    #[test]
    fn compile_to_c_produces_shmem_code() {
        let c = compile_to_c("HAI 1.2\nHUGZ\nVISIBLE ME\nKTHXBYE").unwrap();
        assert!(c.contains("shmem_barrier_all();"));
        assert!(c.contains("shmem_my_pe()"));
    }

    #[test]
    fn gimmeh_input_plumbs_through() {
        let outs = run_source(
            "HAI 1.2\nI HAS A x\nGIMMEH x\nVISIBLE x\nKTHXBYE",
            RunConfig::new(2).input(&["CHEEZ"]),
        )
        .unwrap();
        assert_eq!(outs, vec!["CHEEZ\n", "CHEEZ\n"]);
    }

    #[test]
    fn both_backends_agree_on_corpus_hello() {
        for prog in [corpus::HELLO_PARALLEL, corpus::RING_EXAMPLE, corpus::BARRIER_EXAMPLE] {
            let a = run_source(prog, RunConfig::new(4).seed(3)).unwrap();
            let b = run_source(prog, RunConfig::new(4).seed(3).backend(Backend::Vm)).unwrap();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn run_config_sweep_builder() {
        let base = RunConfig::new(1).seed(42).timeout(Duration::from_secs(5));
        let sweep: Vec<RunConfig> = (1..=3).map(|n| base.clone().pes(n)).collect();
        assert_eq!(sweep.iter().map(|c| c.n_pes).collect::<Vec<_>>(), vec![1, 2, 3]);
        assert!(sweep.iter().all(|c| c.seed == 42));
    }
}
