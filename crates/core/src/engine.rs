//! Compile-once / run-many execution: [`Compiled`] artifacts,
//! [`Engine`] backends and structured [`RunReport`]s.
//!
//! The front end (lex → parse → sema) runs **once**, producing a
//! [`Compiled`] artifact. Any number of executions — across PE counts,
//! seeds, latency models and backends — then reuse that artifact:
//!
//! ```
//! use lolcode::{compile, engine_for, Backend, RunConfig};
//!
//! let artifact = compile("HAI 1.2\nVISIBLE \"HAI \" ME\nKTHXBYE").unwrap();
//! let engine = engine_for(Backend::Interp);
//! let sweep: Vec<RunConfig> = (1..=4).map(RunConfig::new).collect();
//! for report in engine.run_many(&artifact, &sweep) {
//!     let report = report.unwrap();
//!     assert_eq!(report.outputs.len(), report.config.n_pes);
//! }
//! ```
//!
//! A [`RunReport`] carries everything a run produced: per-PE `VISIBLE`
//! output, per-PE communication statistics from the PGAS substrate,
//! wall-clock time, and the effective configuration — where the old
//! `run_source` API returned bare stdout strings and dropped the rest.
//!
//! Engines are looked up with [`engine_for`], one exhaustive `match`
//! over [`Backend`], so the paper's full three-path pipeline —
//! interpret ([`InterpEngine`]), run bytecode ([`VmEngine`]), or
//! translate to C over the SHMEM runtime and execute the binary
//! ([`CEngine`]) — plus the mega-scale discrete-event simulator
//! ([`SimEngine`]) sit behind one dispatch point. A new backend is a
//! new `Backend` variant, and the compiler points at the one arm to
//! add.

use crate::{Backend, LolError, RunConfig};
use lol_ast::{Program, SourceMap};
use lol_c_codegen::driver::{self, DriverError, RunRequest};
use lol_sema::Analysis;
use lol_shmem::{run_spmd, CommStats, Pe, SpmdError};
use lol_trace::{ClockMode, PeTrace, Trace};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

/// A program that has been parsed and semantically analyzed exactly
/// once, ready to run any number of times on any [`Engine`].
///
/// Backend lowering (the bytecode module for [`VmEngine`]) happens
/// lazily on first use and is cached, so an interpreter-only workload
/// never pays for it and a VM sweep pays exactly once.
pub struct Compiled {
    source: String,
    program: Program,
    analysis: Analysis,
    warnings: Vec<String>,
    /// Front-end phase costs measured by [`Compiled::new`]:
    /// `[lex_ns, parse_ns, sema_ns]`.
    front_ns: [u64; 3],
    /// Backend lowering costs, recorded by the lazy init closures
    /// below (0 until the respective lowering has run).
    vm_compile_ns: AtomicU64,
    c_build_ns: AtomicU64,
    vm_module: OnceLock<Result<lol_vm::Module, LolError>>,
    c_binary: OnceLock<Result<driver::CBinary, LolError>>,
}

impl Compiled {
    /// Lex, parse and analyze `src`. This is the only place in the
    /// pipeline that looks at source text — and therefore the place
    /// that times the front-end phases (see [`Compiled::phases`]).
    pub fn new(src: &str) -> Result<Self, LolError> {
        let t0 = Instant::now();
        let lexed = lol_lexer::lex(src);
        let lex_ns = t0.elapsed().as_nanos() as u64;
        let t1 = Instant::now();
        let out = lol_parser::parse_tokens(lexed);
        let parse_ns = t1.elapsed().as_nanos() as u64;
        let sm = SourceMap::new(src);
        if out.diags.has_errors() {
            return Err(LolError::Parse(out.diags.render_all(&sm)));
        }
        let program = out.program.expect("program present when no errors");
        let t2 = Instant::now();
        let analysis = lol_sema::analyze(&program);
        let sema_ns = t2.elapsed().as_nanos() as u64;
        if analysis.diags.has_errors() {
            return Err(LolError::Sema(analysis.diags.render_all(&sm)));
        }
        let warnings = analysis.diags.iter().map(|d| d.render(&sm)).collect();
        Ok(Compiled {
            source: src.to_string(),
            program,
            analysis,
            warnings,
            front_ns: [lex_ns, parse_ns, sema_ns],
            vm_compile_ns: AtomicU64::new(0),
            c_build_ns: AtomicU64::new(0),
            vm_module: OnceLock::new(),
            c_binary: OnceLock::new(),
        })
    }

    /// The phase-timing breakdown for a run of `backend` on this
    /// artifact that spent `exec_ns` executing. The front-end costs
    /// were paid once at [`Compiled::new`]; the compile cost is the
    /// backend's lowering (0 for the interpreter, and 0 until the
    /// first run triggers the lazy lowering). `render_ns` starts at 0
    /// — whoever renders the report fills it in.
    pub fn phases(&self, backend: Backend, exec_ns: u64) -> PhaseTimings {
        let compile_ns = match backend {
            Backend::Interp => 0,
            Backend::Vm | Backend::Sim => self.vm_compile_ns.load(Ordering::Relaxed),
            Backend::C => self.c_build_ns.load(Ordering::Relaxed),
        };
        PhaseTimings {
            lex_ns: self.front_ns[0],
            parse_ns: self.front_ns[1],
            sema_ns: self.front_ns[2],
            compile_ns,
            exec_ns,
            render_ns: 0,
        }
    }

    /// The original source text.
    pub fn source(&self) -> &str {
        &self.source
    }

    /// The parsed program.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The semantic analysis (shared layout, symbol info).
    pub fn analysis(&self) -> &Analysis {
        &self.analysis
    }

    /// Non-fatal diagnostics from analysis, already rendered.
    pub fn warnings(&self) -> &[String] {
        &self.warnings
    }

    /// The bytecode module for the VM backend, lowered on first call
    /// and cached. Fails for interpreter-only constructs (`SRS`).
    pub fn vm_module(&self) -> Result<&lol_vm::Module, LolError> {
        self.vm_module
            .get_or_init(|| {
                let t0 = Instant::now();
                let r = lol_vm::compile(&self.program, &self.analysis)
                    .map_err(|d| LolError::Compile(d.render(&SourceMap::new(&self.source))));
                self.vm_compile_ns.store(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
                r
            })
            .as_ref()
            .map_err(Clone::clone)
    }

    /// Translate to C + OpenSHMEM (the paper's `lcc` output).
    pub fn emit_c(&self) -> Result<String, LolError> {
        lol_c_codegen::emit_c(&self.program, &self.analysis)
            .map_err(|d| LolError::Compile(d.render(&SourceMap::new(&self.source))))
    }

    /// The compiled C-backend binary, emitted and built by the system
    /// C compiler on first call and cached (like [`Self::vm_module`],
    /// so a sweep across PE counts pays for `cc` exactly once). Fails
    /// with [`LolError::Unsupported`] when the machine has no C
    /// compiler, [`LolError::Compile`] for emit/`cc` errors.
    pub fn c_binary(&self) -> Result<&driver::CBinary, LolError> {
        self.c_binary
            .get_or_init(|| {
                let t0 = Instant::now();
                let r = self.emit_c().and_then(|c| {
                    driver::build(&c).map_err(|e| match e {
                        DriverError::NoCompiler => LolError::Unsupported(format!("O NOES! {e}")),
                        other => {
                            LolError::Compile(format!("O NOES! DA C BACKEND HAZ A SAD: {other}"))
                        }
                    })
                });
                self.c_build_ns.store(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
                r
            })
            .as_ref()
            .map_err(Clone::clone)
    }
}

impl std::fmt::Debug for Compiled {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Compiled")
            .field("source_bytes", &self.source.len())
            .field("warnings", &self.warnings.len())
            .field("vm_lowered", &self.vm_module.get().is_some())
            .field("c_built", &self.c_binary.get().is_some())
            .finish()
    }
}

/// Host-time cost of each pipeline phase for one run, in nanoseconds.
///
/// The front-end phases (lex/parse/sema) are paid once per artifact;
/// compile is the backend's lazy lowering (VM bytecode or the C
/// build), 0 for the interpreter and for runs that reused a cached
/// lowering; exec is the SPMD job itself; render is filled in by
/// whoever renders the report (the CLI's `--timings`), 0 otherwise.
/// All values are machine-dependent — they ride the *timing* form of
/// the report JSON, never the stable form.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseTimings {
    /// Tokenizing the source.
    pub lex_ns: u64,
    /// Parsing the token stream.
    pub parse_ns: u64,
    /// Semantic analysis (symbol/shared layout).
    pub sema_ns: u64,
    /// Backend lowering (VM bytecode compile or C emit + `cc`).
    pub compile_ns: u64,
    /// The SPMD execution itself (host time, even on `sim`).
    pub exec_ns: u64,
    /// Rendering output/report, when the caller measured it.
    pub render_ns: u64,
}

impl PhaseTimings {
    /// Sum of all phases.
    pub fn total_ns(&self) -> u64 {
        self.lex_ns + self.parse_ns + self.sema_ns + self.compile_ns + self.exec_ns + self.render_ns
    }
}

/// Scheduler counters from a [`Backend::Sim`] run (see `lol-sim`):
/// how much discrete-event work the simulated job cost the host.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Discrete events processed across all shards.
    pub events: u64,
    /// Peak size of the event heap / calendar queues.
    pub heap_peak: u64,
    /// Barrier episodes released in O(1) (all PEs arrived → epoch
    /// bump), the scheduler's fast path for `HUGZ`-heavy programs.
    pub barrier_episodes: u64,
    /// Cross-shard merge windows executed (0 on the sequential
    /// scheduler, which has no shards to merge).
    pub merge_windows: u64,
}

impl SimStats {
    /// Events per second of host time (the simulator's throughput).
    pub fn events_per_sec(&self, host_wall: Duration) -> u64 {
        let ns = host_wall.as_nanos() as u64;
        if ns == 0 {
            return 0;
        }
        (self.events as u128 * 1_000_000_000 / ns as u128) as u64
    }
}

/// One contiguous hot bytecode range from a profiled VM run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HotSpot {
    /// Which chunk (`main` or the function's source name).
    pub chunk: String,
    /// First bytecode offset of the range.
    pub start: usize,
    /// One past the last bytecode offset.
    pub end: usize,
    /// Total op executions inside the range.
    pub count: u64,
}

/// Job-wide bytecode execution profile, aggregated across PEs
/// (present iff [`RunConfig::profile`] was set on a [`Backend::Vm`]
/// run — the other backends execute no bytecode in-process).
#[derive(Clone, Debug, Default)]
pub struct ProfileReport {
    /// Total ops executed across all PEs.
    pub total_ops: u64,
    /// Share of ops that were fused superinstructions, in parts per
    /// 10 000.
    pub super_bp: u64,
    /// Executed opcodes as `(name, count, is_superinstruction)`,
    /// descending by count.
    pub ops: Vec<(String, u64, bool)>,
    /// Each time-sampled opcode's share of the sampled execution time,
    /// as `(name, parts per 10 000)`, descending.
    pub time_bp: Vec<(String, u64)>,
    /// Top contiguous hot bytecode ranges, hottest first.
    pub hot: Vec<HotSpot>,
}

/// Everything one execution produced.
///
/// ```
/// use lolcode::{compile, engine_for, Backend, RunConfig};
///
/// let artifact = compile("HAI 1.2\nVISIBLE \"OH HAI \" ME\nKTHXBYE").unwrap();
/// let report = engine_for(Backend::Vm).run(&artifact, &RunConfig::new(2)).unwrap();
/// assert_eq!(report.output(1), "OH HAI 1\n");     // per-PE VISIBLE output
/// assert_eq!(report.stats.len(), 2);              // per-PE CommStats
/// assert_eq!(report.total_stats().scalar_ops(), 0); // job-wide totals
/// assert_eq!(report.config.n_pes, 2);             // the effective config
/// ```
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Which engine ran.
    pub backend: Backend,
    /// Per-PE `VISIBLE` output, in PE order.
    pub outputs: Vec<String>,
    /// Per-PE communication statistics, in PE order.
    pub stats: Vec<CommStats>,
    /// Wall-clock time of the SPMD job (launch to join). For
    /// [`Backend::Sim`] this is the *simulated* makespan, not host
    /// time — see [`RunReport::host_wall`].
    pub wall: Duration,
    /// Real host time the run cost, on every backend. Identical to
    /// [`RunReport::wall`] for the threaded engines; for
    /// [`Backend::Sim`] (whose `wall` is simulated) this is how long
    /// the simulator itself took, which is what perf gates and the
    /// sweep thread-budget care about.
    pub host_wall: Duration,
    /// The job's *virtual* wall — the maximum final per-PE logical
    /// clock — present iff the config ran under [`ClockMode::Virtual`].
    /// Deterministic: a fixed program/config reproduces it byte for
    /// byte on any machine.
    pub virtual_wall: Option<Duration>,
    /// Per-PE communication event streams, present iff
    /// [`RunConfig::trace`] was set.
    pub trace: Option<Trace>,
    /// Host-time cost of each pipeline phase (machine-dependent;
    /// rides only the timing form of the report JSON).
    pub phases: PhaseTimings,
    /// Discrete-event scheduler counters, present iff the run was
    /// [`Backend::Sim`].
    pub sim: Option<SimStats>,
    /// Aggregated bytecode profile, present iff
    /// [`RunConfig::profile`] was set on a [`Backend::Vm`] run.
    pub profile: Option<ProfileReport>,
    /// The effective configuration the job ran with.
    pub config: RunConfig,
}

impl RunReport {
    /// Number of PEs that ran.
    pub fn n_pes(&self) -> usize {
        self.outputs.len()
    }

    /// One PE's captured output.
    pub fn output(&self, pe: usize) -> &str {
        &self.outputs[pe]
    }

    /// Job-wide communication totals (all PEs folded together).
    pub fn total_stats(&self) -> CommStats {
        self.stats.iter().sum()
    }

    /// The wall time scaling metrics should use: the virtual wall when
    /// the run accounted time ([`ClockMode::Virtual`]), the real wall
    /// otherwise. Sweeps derive speedup/efficiency from this, which is
    /// what makes `clock=virtual` scaling curves machine-independent.
    pub fn effective_wall(&self) -> Duration {
        self.virtual_wall.unwrap_or(self.wall)
    }
}

/// An execution backend that can run a [`Compiled`] artifact.
///
/// The three standard engines ([`InterpEngine`], [`VmEngine`],
/// [`CEngine`]) are reached through [`engine_for`]; all of them accept
/// the same [`RunConfig`], including the latency/barrier/lock ablation
/// axes:
///
/// ```
/// use lolcode::{compile, engine_for, Backend, Engine, RunConfig};
///
/// let artifact = compile("HAI 1.2\nVISIBLE ME\nKTHXBYE").unwrap();
/// let engine: &dyn Engine = engine_for(Backend::Interp);
/// assert_eq!(engine.backend(), Backend::Interp);
/// assert!(engine.available()); // in-process engines always are
///
/// // run_many sweeps one artifact across configs without re-parsing.
/// let sweep: Vec<RunConfig> = (1..=3).map(RunConfig::new).collect();
/// let reports = engine.run_many(&artifact, &sweep);
/// assert_eq!(reports.len(), 3);
/// assert_eq!(reports[2].as_ref().unwrap().outputs.len(), 3);
/// ```
pub trait Engine: Send + Sync {
    /// Which [`Backend`] this engine implements.
    fn backend(&self) -> Backend;

    /// Can this engine run *at all* on this machine? In-process
    /// engines always can; the C engine needs a system C compiler.
    /// When `false`, [`Engine::run`] returns [`LolError::Unsupported`]
    /// for every config.
    fn available(&self) -> bool {
        true
    }

    /// Execute the artifact once under `cfg`.
    fn run(&self, artifact: &Compiled, cfg: &RunConfig) -> Result<RunReport, LolError>;

    /// Execute the artifact once per config — a sweep over PE counts,
    /// seeds, latency models, … — reusing the artifact throughout (the
    /// front end never reruns). Reports come back in config order; a
    /// failing config does not abort the rest of the sweep.
    fn run_many(
        &self,
        artifact: &Compiled,
        configs: &[RunConfig],
    ) -> Vec<Result<RunReport, LolError>> {
        configs.iter().map(|cfg| self.run(artifact, cfg)).collect()
    }
}

/// What the in-process engines collect from each PE at the end of its
/// SPMD body.
type PeOutcome = (String, CommStats, Option<PeTrace>, u64);

/// Collect one PE's results (output, stats, trace, virtual clock) —
/// shared by the interpreter and VM engine bodies.
fn pe_outcome(pe: &Pe<'_>, out: String) -> PeOutcome {
    (out, pe.stats(), pe.take_trace(), pe.virtual_ns())
}

/// Assemble a report from per-PE outcomes.
fn report(
    backend: Backend,
    per_pe: Vec<PeOutcome>,
    wall: Duration,
    config: RunConfig,
) -> RunReport {
    let mut outputs = Vec::with_capacity(per_pe.len());
    let mut stats = Vec::with_capacity(per_pe.len());
    let mut traces = Vec::with_capacity(per_pe.len());
    let mut virtual_ns = 0u64;
    for (out, st, tr, vns) in per_pe {
        outputs.push(out);
        stats.push(st);
        traces.push(tr);
        virtual_ns = virtual_ns.max(vns);
    }
    let trace = config.trace.then(|| {
        Trace::new(config.clock, traces.into_iter().map(Option::unwrap_or_default).collect())
    });
    let virtual_wall =
        (config.clock == ClockMode::Virtual).then(|| Duration::from_nanos(virtual_ns));
    RunReport {
        backend,
        outputs,
        stats,
        wall,
        host_wall: wall,
        virtual_wall,
        trace,
        phases: PhaseTimings::default(),
        sim: None,
        profile: None,
        config,
    }
}

/// The tree-walking interpreter backend (full language, including
/// `SRS`).
#[derive(Clone, Copy, Debug, Default)]
pub struct InterpEngine;

impl Engine for InterpEngine {
    fn backend(&self) -> Backend {
        Backend::Interp
    }

    fn run(&self, artifact: &Compiled, cfg: &RunConfig) -> Result<RunReport, LolError> {
        cfg.validate()?;
        let t0 = Instant::now();
        let per_pe = run_spmd(cfg.shmem(), |pe| {
            match lol_interp::run_on_pe(&artifact.program, &artifact.analysis, pe, &cfg.input) {
                Ok(out) => pe_outcome(pe, out),
                Err(e) => pe.fail(e.to_string()),
            }
        })
        .map_err(LolError::Runtime)?;
        let wall = t0.elapsed();
        let mut r = report(Backend::Interp, per_pe, wall, cfg.clone());
        r.phases = artifact.phases(Backend::Interp, wall.as_nanos() as u64);
        Ok(r)
    }
}

/// The bytecode VM backend (compiled path; rejects `SRS`).
#[derive(Clone, Copy, Debug, Default)]
pub struct VmEngine;

impl Engine for VmEngine {
    fn backend(&self) -> Backend {
        Backend::Vm
    }

    fn run(&self, artifact: &Compiled, cfg: &RunConfig) -> Result<RunReport, LolError> {
        cfg.validate()?;
        let module = artifact.vm_module()?;
        // Per-PE profiles merge into one job-wide profile as each PE
        // finishes (merging is element-wise addition, so the result is
        // independent of completion order). The unprofiled path is
        // untouched — no lock, no counters.
        let merged = cfg.profile.then(|| Mutex::new(lol_vm::VmProfile::for_module(module)));
        let t0 = Instant::now();
        let per_pe = run_spmd(cfg.shmem(), |pe| {
            if let Some(m) = &merged {
                match lol_vm::run_on_pe_profiled(module, pe, &cfg.input) {
                    Ok((out, prof)) => {
                        m.lock().unwrap().merge(&prof);
                        pe_outcome(pe, out)
                    }
                    Err(e) => pe.fail(e.to_string()),
                }
            } else {
                match lol_vm::run_on_pe(module, pe, &cfg.input) {
                    Ok(out) => pe_outcome(pe, out),
                    Err(e) => pe.fail(e.to_string()),
                }
            }
        })
        .map_err(LolError::Runtime)?;
        let wall = t0.elapsed();
        let mut r = report(Backend::Vm, per_pe, wall, cfg.clone());
        r.phases = artifact.phases(Backend::Vm, wall.as_nanos() as u64);
        r.profile = merged.map(|m| profile_report(module, &m.into_inner().unwrap()));
        Ok(r)
    }
}

/// Convert the VM's raw counters into the report's named form.
fn profile_report(module: &lol_vm::Module, p: &lol_vm::VmProfile) -> ProfileReport {
    ProfileReport {
        total_ops: p.total(),
        super_bp: p.super_bp(),
        ops: p.op_counts().into_iter().map(|(n, c, s)| (n.to_string(), c, s)).collect(),
        time_bp: p.op_time_bp().into_iter().map(|(n, bp)| (n.to_string(), bp)).collect(),
        hot: p
            .hot_ranges(5)
            .into_iter()
            .map(|h| HotSpot {
                chunk: lol_vm::VmProfile::chunk_label(module, h.chunk),
                start: h.start,
                end: h.end,
                count: h.count,
            })
            .collect(),
    }
}

/// The out-of-process C backend: `lcc`-emitted C + the multi-PE SHMEM
/// stub, compiled by the system C compiler (probed once per process)
/// and run as a native binary; per-PE outputs and operation counts are
/// parsed back into the same [`RunReport`] shape the in-process
/// engines produce.
///
/// The full sweep matrix crosses the process boundary: interconnect
/// latency models ([`RunConfig::latency`]) and the barrier/lock
/// algorithm ablations ([`RunConfig::barrier`] / [`RunConfig::lock`])
/// ride the stub's env protocol, so the paper's third path sweeps the
/// same axes as the in-process engines.
///
/// Degradation contract: on a machine without a C compiler — or for a
/// PE count beyond the stub's thread cap — `run` returns
/// [`LolError::Unsupported`] with a clear reason instead of failing.
#[derive(Clone, Copy, Debug, Default)]
pub struct CEngine;

impl Engine for CEngine {
    fn backend(&self) -> Backend {
        Backend::C
    }

    fn available(&self) -> bool {
        driver::cc().is_some()
    }

    fn run(&self, artifact: &Compiled, cfg: &RunConfig) -> Result<RunReport, LolError> {
        cfg.validate()?;
        if cfg.n_pes > driver::MAX_PES {
            return Err(LolError::Unsupported(format!(
                "O NOES! DA C BACKEND'S STUB CAPS AT {} PE THREADS, NOT {}",
                driver::MAX_PES,
                cfg.n_pes
            )));
        }
        // Latency models, barrier algorithms and lock algorithms all
        // cross the env protocol: the stub charges the interconnect
        // model at its remote-access choke point and dispatches on the
        // selected barrier/lock algorithm, so the full ablation matrix
        // runs on all three backends. (`heap_words` is genuinely
        // meaningless here — the C symmetric segment is statically
        // sized — so it is ignored.)
        let binary = artifact.c_binary()?;
        let req = RunRequest {
            n_pes: cfg.n_pes,
            seed: cfg.seed,
            input: &cfg.input,
            timeout: cfg.timeout,
            latency: cfg.latency,
            barrier: cfg.barrier,
            lock: cfg.lock,
            clock: cfg.clock,
            trace: cfg.trace,
        };
        let t0 = Instant::now();
        match binary.run(&req) {
            Ok(out) => Ok(RunReport {
                backend: Backend::C,
                outputs: out.outputs,
                stats: out.stats,
                wall: out.wall,
                host_wall: out.wall,
                virtual_wall: out.virtual_ns.map(Duration::from_nanos),
                trace: out.traces.map(|pes| Trace::new(cfg.clock, pes)),
                phases: artifact.phases(Backend::C, out.wall.as_nanos() as u64),
                sim: None,
                profile: None,
                config: cfg.clone(),
            }),
            Err(DriverError::Program { stderr, pe, .. }) => Err(LolError::Runtime(SpmdError {
                pe: pe.unwrap_or(0),
                message: if stderr.trim().is_empty() {
                    "DA C BINARY DIED WIF NO MESSAGE".to_string()
                } else {
                    stderr.trim().to_string()
                },
            })),
            Err(DriverError::Timeout(_)) => Err(LolError::Runtime(SpmdError {
                pe: 0,
                message: format!(
                    "O NOES! [RUN0191] DA C BINARY HAZ BEEN RUNNIN {:?} — PROBABLY DEADLOCK",
                    t0.elapsed()
                ),
            })),
            Err(DriverError::NoCompiler) => {
                Err(LolError::Unsupported(format!("O NOES! {}", DriverError::NoCompiler)))
            }
            Err(other) => {
                Err(LolError::Compile(format!("O NOES! DA C BACKEND HAZ A SAD: {other}")))
            }
        }
    }
}

/// The discrete-event simulation backend (`lol-sim`): each PE is a
/// resumable VM machine driven by an event scheduler — sequential by
/// default, sharded across [`RunConfig::sim_jobs`] worker threads for
/// big lock-free jobs. PE counts scale to ~a million, executions are
/// fully deterministic at every `sim_jobs` setting, and outputs /
/// stats / traces / virtual walls are byte-identical to the threaded
/// engines on race-free programs.
///
/// Timing: the reported [`RunReport::wall`] is the *simulated*
/// makespan (the maximum final per-PE logical clock), not host time —
/// the simulator never sleeps, so a heavy latency model "slows" the
/// run without slowing you. Under [`ClockMode::Virtual`] the same
/// number also appears as [`RunReport::virtual_wall`], matching the
/// threaded engines exactly.
///
/// Compiles through the VM path, so it rejects `SRS` like [`VmEngine`].
#[derive(Clone, Copy, Debug, Default)]
pub struct SimEngine;

impl Engine for SimEngine {
    fn backend(&self) -> Backend {
        Backend::Sim
    }

    fn run(&self, artifact: &Compiled, cfg: &RunConfig) -> Result<RunReport, LolError> {
        cfg.validate()?;
        let module = artifact.vm_module()?;
        let t0 = Instant::now();
        let sim = lol_sim::run_module(module, &cfg.shmem(), &cfg.input)
            .map_err(|e| LolError::Runtime(SpmdError { pe: e.pe, message: e.message }))?;
        let host_wall = t0.elapsed();
        let per_pe = sim
            .outputs
            .into_iter()
            .zip(sim.stats)
            .zip(sim.traces)
            .zip(sim.virtual_ns)
            .map(|(((out, st), tr), vns)| (out, st, tr, vns))
            .collect();
        let wall = Duration::from_nanos(sim.makespan_ns);
        let mut r = report(Backend::Sim, per_pe, wall, cfg.clone());
        r.host_wall = host_wall;
        r.phases = artifact.phases(Backend::Sim, host_wall.as_nanos() as u64);
        r.sim = Some(SimStats {
            events: sim.events,
            heap_peak: sim.sched.heap_peak,
            barrier_episodes: sim.sched.barrier_episodes,
            merge_windows: sim.sched.merge_windows,
        });
        Ok(r)
    }
}

/// The standard engine implementing `backend`.
pub fn engine_for(backend: Backend) -> &'static dyn Engine {
    match backend {
        Backend::Interp => &InterpEngine,
        Backend::Vm => &VmEngine,
        Backend::C => &CEngine,
        Backend::Sim => &SimEngine,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus;

    fn cfg(n: usize) -> RunConfig {
        RunConfig::new(n).timeout(Duration::from_secs(30))
    }

    #[test]
    fn compiled_artifact_runs_on_both_engines() {
        let artifact = Compiled::new(corpus::HELLO_PARALLEL).unwrap();
        let a = InterpEngine.run(&artifact, &cfg(3)).unwrap();
        let b = VmEngine.run(&artifact, &cfg(3)).unwrap();
        assert_eq!(a.outputs, b.outputs);
        assert_eq!(a.backend, Backend::Interp);
        assert_eq!(b.backend, Backend::Vm);
    }

    #[test]
    fn report_carries_stats_wall_and_config() {
        let artifact = Compiled::new(corpus::BARRIER_EXAMPLE).unwrap();
        for engine in [engine_for(Backend::Interp), engine_for(Backend::Vm)] {
            let r = engine.run(&artifact, &cfg(4).seed(9)).unwrap();
            assert_eq!(r.n_pes(), 4);
            assert_eq!(r.stats.len(), 4);
            assert_eq!(r.config.n_pes, 4);
            assert_eq!(r.config.seed, 9);
            assert!(r.wall > Duration::ZERO);
            // The barrier example hugs twice plus the implicit
            // shmalloc barriers; every PE must agree on barrier count.
            for s in &r.stats {
                assert_eq!(s.barriers, r.stats[0].barriers, "{:?}", engine.backend());
                assert!(s.barriers >= 2);
            }
            // `TXT MAH BFF k, UR b R MAH a` does one remote put per PE.
            assert!(r.total_stats().remote_puts >= 4, "{:?}", engine.backend());
        }
    }

    #[test]
    fn run_many_sweeps_pe_counts_from_one_artifact() {
        let artifact = Compiled::new(corpus::HELLO_PARALLEL).unwrap();
        let sweep: Vec<RunConfig> = (1..=4).map(cfg).collect();
        let reports = InterpEngine.run_many(&artifact, &sweep);
        assert_eq!(reports.len(), 4);
        for (i, r) in reports.into_iter().enumerate() {
            let r = r.unwrap();
            assert_eq!(r.n_pes(), i + 1);
            assert_eq!(r.output(0), format!("HAI ITZ 0 OF {}\n", i + 1));
        }
    }

    #[test]
    fn run_many_continues_past_failing_configs() {
        let artifact =
            Compiled::new("HAI 1.2\nVISIBLE QUOSHUNT OF 1 AN DIFF OF ME AN 1\nKTHXBYE").unwrap();
        // 2 PEs: PE 1 divides by zero. 1 PE: fails on PE... ME=0 ->
        // ME-1 = -1, fine. Sweep mixes passing and failing configs.
        let sweep = vec![cfg(1), cfg(2).timeout(Duration::from_secs(5)), cfg(1)];
        let reports = VmEngine.run_many(&artifact, &sweep);
        assert!(reports[0].is_ok());
        assert!(matches!(reports[1], Err(LolError::Runtime(_))));
        assert!(reports[2].is_ok(), "sweep must continue after a failure");
    }

    #[test]
    fn vm_lowering_happens_once_and_is_shared() {
        let artifact = Compiled::new(corpus::RING_EXAMPLE).unwrap();
        let m1 = artifact.vm_module().unwrap() as *const _;
        VmEngine.run(&artifact, &cfg(2)).unwrap();
        let m2 = artifact.vm_module().unwrap() as *const _;
        assert_eq!(m1, m2, "module must be lowered once and cached");
    }

    #[test]
    fn vm_engine_reports_srs_as_compile_error() {
        let artifact =
            Compiled::new("HAI 1.2\nI HAS A x ITZ 1\nVISIBLE SRS \"x\"\nKTHXBYE").unwrap();
        // The interpreter runs it fine...
        let ok = InterpEngine.run(&artifact, &cfg(1)).unwrap();
        assert_eq!(ok.outputs[0], "1\n");
        // ...the VM rejects it at (lazy) lowering time.
        match VmEngine.run(&artifact, &cfg(1)) {
            Err(LolError::Compile(msg)) => assert!(msg.contains("VMC0001"), "{msg}"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn standard_registry_covers_all_backends() {
        for b in Backend::ALL {
            assert_eq!(engine_for(b).backend(), b);
        }
    }

    #[test]
    fn c_engine_runs_multi_pe_or_degrades_cleanly() {
        let engine = engine_for(Backend::C);
        let artifact = Compiled::new(corpus::HELLO_PARALLEL).unwrap();
        match engine.run(&artifact, &cfg(3)) {
            Ok(r) => {
                assert!(engine.available());
                assert_eq!(r.backend, Backend::C);
                assert_eq!(r.n_pes(), 3);
                for pe in 0..3 {
                    assert_eq!(r.output(pe), format!("HAI ITZ {pe} OF 3\n"));
                }
            }
            Err(LolError::Unsupported(msg)) => {
                assert!(!engine.available(), "unsupported only without a compiler: {msg}");
            }
            Err(other) => panic!("{other}"),
        }
    }

    #[test]
    fn c_engine_reports_over_cap_pe_counts_as_unsupported() {
        // The stub caps PE threads; wider configs must degrade, not
        // spawn a binary that refuses to start (a hard failure).
        let artifact = Compiled::new(corpus::HELLO_PARALLEL).unwrap();
        match CEngine.run(&artifact, &cfg(257)) {
            Err(LolError::Unsupported(msg)) => assert!(msg.contains("257"), "{msg}"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn c_engine_runs_the_full_ablation_matrix() {
        // Latency models, barrier algorithms and lock algorithms used
        // to be Unsupported on the C path; now every combination runs
        // (through the stub's env protocol) and produces the same
        // output as the default config.
        if !CEngine.available() {
            eprintln!("skipping: no C compiler");
            return;
        }
        use lol_shmem::{BarrierKind, LockKind};
        let artifact = Compiled::new(corpus::LOCKS_EXAMPLE).unwrap();
        let baseline = CEngine.run(&artifact, &cfg(4)).unwrap();
        for latency in [
            crate::LatencyModel::xc40(),
            crate::LatencyModel::epiphany16(),
            "torus:2x2:10:5".parse().unwrap(),
        ] {
            for barrier in BarrierKind::ALL {
                for lock in LockKind::ALL {
                    let c = cfg(4).latency(latency).barrier(barrier).lock(lock);
                    let r = CEngine.run(&artifact, &c).unwrap_or_else(|e| {
                        panic!("latency={latency} barrier={barrier} lock={lock}: {e}")
                    });
                    assert_eq!(
                        r.outputs, baseline.outputs,
                        "outputs must not depend on latency={latency} barrier={barrier} lock={lock}"
                    );
                }
            }
        }
    }

    #[test]
    fn c_engine_latency_model_slows_remote_traffic() {
        // The paper's locality shape on the third backend: the same
        // halo-exchange program must take measurably longer under a
        // heavy flat model than with latency off, with identical
        // output (the model charges time, never changes results).
        if !CEngine.available() {
            eprintln!("skipping: no C compiler");
            return;
        }
        let artifact = Compiled::new(corpus::BARRIER_EXAMPLE).unwrap();
        let off = CEngine.run(&artifact, &cfg(2)).unwrap();
        let slow = CEngine
            .run(&artifact, &cfg(2).latency(crate::LatencyModel::Uniform { remote_ns: 30_000_000 }))
            .unwrap();
        assert_eq!(off.outputs, slow.outputs);
        // BARRIER_EXAMPLE does one remote put per PE; 2 PEs × 30ms
        // dwarfs scheduling noise.
        assert!(
            slow.wall > off.wall + Duration::from_millis(20),
            "flat:30ms should slow the run: off {:?} vs flat {:?}",
            off.wall,
            slow.wall
        );
    }

    #[test]
    fn c_binary_is_built_once_and_shared() {
        if !CEngine.available() {
            eprintln!("skipping: no C compiler");
            return;
        }
        let artifact = Compiled::new(corpus::HELLO_PARALLEL).unwrap();
        let b1 = artifact.c_binary().unwrap() as *const _;
        CEngine.run(&artifact, &cfg(2)).unwrap();
        let b2 = artifact.c_binary().unwrap() as *const _;
        assert_eq!(b1, b2, "binary must be built once and cached");
    }

    #[test]
    fn c_engine_surfaces_runtime_faults() {
        if !CEngine.available() {
            eprintln!("skipping: no C compiler");
            return;
        }
        let artifact = Compiled::new("HAI 1.2\nVISIBLE QUOSHUNT OF 1 AN 0\nKTHXBYE").unwrap();
        match CEngine.run(&artifact, &cfg(1)) {
            Err(LolError::Runtime(se)) => assert!(se.message.contains("RUN0001"), "{se}"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn sim_engine_matches_vm_without_threads() {
        let artifact = Compiled::new(corpus::RING_EXAMPLE).unwrap();
        let c = cfg(8).clock(ClockMode::Virtual).trace(true);
        let vm = VmEngine.run(&artifact, &c).unwrap();
        let sim = SimEngine.run(&artifact, &c).unwrap();
        assert_eq!(sim.backend, Backend::Sim);
        assert_eq!(sim.outputs, vm.outputs);
        assert_eq!(sim.stats, vm.stats);
        assert_eq!(sim.virtual_wall, vm.virtual_wall);
        let (st, vt) = (sim.trace.unwrap(), vm.trace.unwrap());
        assert_eq!(st.signature(), vt.signature());
        // The sim's wall IS the simulated makespan.
        assert_eq!(Some(sim.wall), sim.virtual_wall);
    }

    #[test]
    fn sim_engine_simulates_latency_instead_of_sleeping() {
        let artifact = Compiled::new(corpus::RING_EXAMPLE).unwrap();
        // A full second of per-hop latency: threaded engines would
        // sleep; the simulator just adds numbers.
        let heavy = cfg(4).latency(crate::LatencyModel::Uniform { remote_ns: 1_000_000_000 });
        let t0 = Instant::now();
        let r = SimEngine.run(&artifact, &heavy).unwrap();
        assert!(t0.elapsed() < Duration::from_secs(1), "sim must not sleep");
        assert!(r.wall >= Duration::from_secs(1), "but must report the simulated time");
        // SRS still fails at VM lowering, like the VM engine.
        let srs = Compiled::new("HAI 1.2\nI HAS A x ITZ 1\nVISIBLE SRS \"x\"\nKTHXBYE").unwrap();
        match SimEngine.run(&srs, &cfg(1)) {
            Err(LolError::Compile(msg)) => assert!(msg.contains("VMC0001"), "{msg}"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn seed_sweep_changes_whatevr_streams() {
        let artifact = Compiled::new("HAI 1.2\nVISIBLE WHATEVR\nKTHXBYE").unwrap();
        let sweep = vec![cfg(2).seed(1), cfg(2).seed(1), cfg(2).seed(2)];
        let r: Vec<_> = InterpEngine
            .run_many(&artifact, &sweep)
            .into_iter()
            .map(|r| r.unwrap().outputs)
            .collect();
        assert_eq!(r[0], r[1], "same seed must reproduce");
        assert_ne!(r[0], r[2], "different seed must differ");
    }
}
