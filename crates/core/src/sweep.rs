//! Parallel sweep orchestration: config matrices, a bounded worker
//! pool, and aggregated scaling reports.
//!
//! The paper's central evidence is *scaling behaviour* — the same SPMD
//! programs swept across PE counts on a 16-core Epiphany-III mesh and a
//! Cray XC40. [`SweepSpec`] makes that the default workflow instead of
//! a hand-rolled loop: describe a cartesian product of PE counts ×
//! seeds × latency models × barrier algorithms × lock algorithms ×
//! backends, and [`SweepSpec::run`] dispatches
//! the independent jobs onto a bounded pool of scoped OS threads,
//! reusing one [`Compiled`] artifact throughout. Results come back in
//! config order regardless of completion order, so a sweep is
//! reproducible no matter how many workers ran it.
//!
//! ```
//! use lolcode::{compile, SweepSpec};
//!
//! let artifact = compile("HAI 1.2\nVISIBLE \"HAI \" ME\nKTHXBYE").unwrap();
//! let report = SweepSpec::new().pes([1, 2, 4]).seeds([7, 8]).run(&artifact);
//! assert_eq!(report.entries.len(), 6);
//! println!("{}", report.speedup_table());
//! ```
//!
//! [`SweepReport`] aggregates the per-config [`RunReport`]s into the
//! derived metrics a scaling figure needs — speedup vs. the 1-PE
//! baseline of the same (backend, latency, barrier, lock, seed) group,
//! parallel
//! efficiency, cross-backend wall-time ratios against the interpreter
//! (vm-over-interp, c-over-interp, per identical config), and job-wide
//! communication totals — and serializes to JSON without any external
//! dependency ([`SweepReport::to_json`]).
//!
//! Two scheduler/reporting refinements matter at scale:
//!
//! * **Thread budget** ([`SweepSpec::threads`]): every config is
//!   weighted by the OS threads it really occupies — PE count for the
//!   threaded backends, the scheduler's worker count for the sim
//!   backend — and jobs only launch while the in-flight weight fits
//!   the budget, so `jobs × PEs` can't oversubscribe the machine and a
//!   mega-scale sim config doesn't hog a budget it never uses.
//! * **Streaming** ([`SweepSpec::run_with`] + [`jsonl_record`]): each
//!   entry can be emitted as a JSONL record the moment it completes,
//!   so a big matrix is inspectable mid-run and a killed sweep keeps
//!   everything already finished.

use crate::{
    engine_for, Backend, BarrierKind, ClockMode, Compiled, LatencyModel, LockKind, LolError,
    RunConfig, RunReport,
};
use lol_json::{Json, Writer};
use std::collections::HashSet;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------
// SweepSpec
// ---------------------------------------------------------------------

/// Hard cap on one sweep's config count — a typo'd spec
/// (`pes=1..4000000000`) must fail fast, not allocate for hours.
pub const MAX_CONFIGS: usize = 100_000;

/// Hard cap on the values one spec-string axis clause may expand to.
const MAX_AXIS_VALUES: u64 = 65_536;

/// A cartesian product of run configurations plus a worker budget.
///
/// Axes left unset fall back to the base config's single value, so a
/// spec is never empty: `SweepSpec::new()` describes exactly one run.
///
/// ```
/// use lolcode::{BarrierKind, LockKind, SweepSpec};
///
/// // The full interconnect × synchronization ablation matrix:
/// // 2 latencies × 2 barriers × 2 locks × 3 PE counts = 24 configs.
/// let spec = SweepSpec::new()
///     .pes([1, 2, 4])
///     .latencies(["flat".parse().unwrap(), "mesh".parse().unwrap()])
///     .barriers(BarrierKind::ALL)
///     .locks(LockKind::ALL);
/// assert_eq!(spec.configs().len(), 24);
///
/// // The same matrix as a `lolrun --sweep` spec string.
/// let parsed = SweepSpec::parse(
///     "latency=flat,mesh;barrier=central,dissem;lock=cas,ticket;pes=1,2,4",
///     lolcode::RunConfig::new(1),
/// )
/// .unwrap();
/// assert_eq!(parsed.configs().len(), 24);
/// ```
#[derive(Clone, Debug)]
pub struct SweepSpec {
    base: RunConfig,
    pes: Vec<usize>,
    seeds: Vec<u64>,
    latencies: Vec<LatencyModel>,
    barriers: Vec<BarrierKind>,
    locks: Vec<LockKind>,
    clocks: Vec<ClockMode>,
    backends: Vec<Backend>,
    jobs: usize,
    threads: usize,
}

impl Default for SweepSpec {
    fn default() -> Self {
        Self::new()
    }
}

impl SweepSpec {
    /// An empty spec over the default [`RunConfig`]: one config, auto
    /// worker count.
    pub fn new() -> Self {
        Self::over(RunConfig::new(1))
    }

    /// An empty spec whose unset axes inherit from `base` (timeout,
    /// input and heap size always do).
    pub fn over(base: RunConfig) -> Self {
        SweepSpec {
            base,
            pes: Vec::new(),
            seeds: Vec::new(),
            latencies: Vec::new(),
            barriers: Vec::new(),
            locks: Vec::new(),
            clocks: Vec::new(),
            backends: Vec::new(),
            jobs: 0,
            threads: 0,
        }
    }

    /// Sweep these PE counts (innermost axis).
    pub fn pes(mut self, pes: impl IntoIterator<Item = usize>) -> Self {
        self.pes = pes.into_iter().collect();
        self
    }

    /// Sweep these RNG seeds.
    pub fn seeds(mut self, seeds: impl IntoIterator<Item = u64>) -> Self {
        self.seeds = seeds.into_iter().collect();
        self
    }

    /// Sweep `count` seeds derived from the base config's seed
    /// (`base.seed + 0 .. base.seed + count`).
    pub fn seed_count(mut self, count: u64) -> Self {
        let base = self.base.seed;
        self.seeds = (0..count).map(|i| base.wrapping_add(i)).collect();
        self
    }

    /// Sweep these latency models.
    pub fn latencies(mut self, models: impl IntoIterator<Item = LatencyModel>) -> Self {
        self.latencies = models.into_iter().collect();
        self
    }

    /// Sweep these barrier algorithms (ablation axis; see
    /// [`BarrierKind::ALL`]).
    pub fn barriers(mut self, kinds: impl IntoIterator<Item = BarrierKind>) -> Self {
        self.barriers = kinds.into_iter().collect();
        self
    }

    /// Sweep these lock algorithms (ablation axis; see
    /// [`LockKind::ALL`]).
    pub fn locks(mut self, kinds: impl IntoIterator<Item = LockKind>) -> Self {
        self.locks = kinds.into_iter().collect();
        self
    }

    /// Sweep these clock modes (see [`ClockMode::ALL`]). Virtual-time
    /// entries carry deterministic virtual walls, which feed the
    /// speedup/efficiency columns for their group — so a
    /// `clock=virtual` sweep produces machine-independent scaling
    /// curves.
    pub fn clocks(mut self, modes: impl IntoIterator<Item = ClockMode>) -> Self {
        self.clocks = modes.into_iter().collect();
        self
    }

    /// Sweep these backends (outermost axis).
    pub fn backends(mut self, backends: impl IntoIterator<Item = Backend>) -> Self {
        self.backends = backends.into_iter().collect();
        self
    }

    /// Cap the worker pool at `jobs` concurrent SPMD jobs. `0` (the
    /// default) means `min(available cores, number of configs)`.
    pub fn jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs;
        self
    }

    /// Set the global *thread* budget: the scheduler weights every
    /// queued config by its PE count, and only starts a job when the
    /// in-flight PE threads plus the job's own fit inside the budget —
    /// so `jobs × PEs` can never oversubscribe the machine, no matter
    /// how wide the worker pool is. `0` (the default) means the number
    /// of available cores. A single config wider than the whole budget
    /// still runs — alone.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// The worker cap (`0` = auto).
    pub fn jobs_requested(&self) -> usize {
        self.jobs
    }

    /// The thread budget (`0` = auto: available cores).
    pub fn threads_requested(&self) -> usize {
        self.threads
    }

    /// The thread budget a run would actually enforce.
    pub fn effective_thread_budget(&self) -> usize {
        if self.threads > 0 {
            self.threads
        } else {
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
        }
    }

    /// The worker count a sweep of `n_configs` would actually use.
    pub fn effective_jobs(&self, n_configs: usize) -> usize {
        let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        let cap = if self.jobs > 0 { self.jobs } else { cores };
        cap.min(n_configs).max(1)
    }

    /// Materialize the cartesian product, in deterministic order:
    /// backends × clocks × latencies × barriers × locks × seeds × PE
    /// counts (PE count innermost, so consecutive entries form a
    /// scaling curve).
    pub fn configs(&self) -> Vec<RunConfig> {
        fn one<T: Clone>(v: &[T], fallback: T) -> Vec<T> {
            if v.is_empty() {
                vec![fallback]
            } else {
                v.to_vec()
            }
        }
        let backends = one(&self.backends, self.base.backend);
        let clocks = one(&self.clocks, self.base.clock);
        let latencies = one(&self.latencies, self.base.latency);
        let barriers = one(&self.barriers, self.base.barrier);
        let locks = one(&self.locks, self.base.lock);
        let seeds = one(&self.seeds, self.base.seed);
        let pes = one(&self.pes, self.base.n_pes);
        let mut out = Vec::with_capacity(
            backends.len()
                * clocks.len()
                * latencies.len()
                * barriers.len()
                * locks.len()
                * seeds.len()
                * pes.len(),
        );
        for &backend in &backends {
            for &clock in &clocks {
                for &latency in &latencies {
                    for &barrier in &barriers {
                        for &lock in &locks {
                            for &seed in &seeds {
                                for &n_pes in &pes {
                                    out.push(
                                        self.base
                                            .clone()
                                            .backend(backend)
                                            .clock(clock)
                                            .latency(latency)
                                            .barrier(barrier)
                                            .lock(lock)
                                            .seed(seed)
                                            .pes(n_pes),
                                    );
                                }
                            }
                        }
                    }
                }
            }
        }
        out
    }

    /// Check the spec axis-by-axis (bad latency models, zero PE
    /// counts, absurd matrix sizes) without materializing the product.
    pub fn validate(&self) -> Result<(), LolError> {
        if let Some(&n) = self.pes.iter().find(|&&n| n == 0) {
            return Err(LolError::Config(format!(
                "O NOES! [RUN0121] A JOB NEEDS AT LEAST ONE PE, NOT {n}"
            )));
        }
        for m in &self.latencies {
            m.validate().map_err(LolError::Config)?;
        }
        self.base.validate()?;
        let total = self
            .pes
            .len()
            .max(1)
            .saturating_mul(self.seeds.len().max(1))
            .saturating_mul(self.latencies.len().max(1))
            .saturating_mul(self.barriers.len().max(1))
            .saturating_mul(self.locks.len().max(1))
            .saturating_mul(self.clocks.len().max(1))
            .saturating_mul(self.backends.len().max(1));
        if total > MAX_CONFIGS {
            return Err(LolError::Config(format!(
                "O NOES! DIS SWEEP HAZ {total} CONFIGS — MAX IZ {MAX_CONFIGS}"
            )));
        }
        Ok(())
    }

    /// Run the whole product against one artifact on a bounded worker
    /// pool and aggregate the results.
    ///
    /// Jobs are claimed from a shared queue by up to `effective_jobs`
    /// scoped OS threads, under the global [thread
    /// budget][SweepSpec::threads]: each config weighs its PE count,
    /// and a worker only starts a job when the in-flight weight plus
    /// the job's own fits the budget (a job at least as wide as the
    /// whole budget runs alone). Each result lands in its config-order
    /// slot, so the report's outputs and stats are identical whether
    /// one worker ran everything serially or the whole pool raced.
    /// Wall times are *not*: concurrent jobs contend for cores,
    /// biasing per-config walls (and the speedup/efficiency columns
    /// derived from them) upward — use [`SweepSpec::jobs`]`(1)` when
    /// the timing columns are the result. A failing config records its
    /// error and does not abort the rest.
    pub fn run(&self, artifact: &Compiled) -> SweepReport {
        self.run_with(artifact, |_, _, _| {})
    }

    /// [`SweepSpec::run`], streaming: `on_entry(index, config, result)`
    /// fires as each config *completes* (completion order, not config
    /// order — the index says which slot it is), before the aggregated
    /// report exists. This is what `lolrun --json-lines` rides: big
    /// matrices become inspectable mid-run, and a killed sweep leaves
    /// every finished entry on record. Derived columns (speedup,
    /// vs-interp ratios) need the whole matrix and therefore only
    /// appear in the final [`SweepReport`].
    ///
    /// Callbacks may fire concurrently from different worker threads;
    /// use [`jsonl_record`] (or your own locking) for serialized
    /// output.
    pub fn run_with(
        &self,
        artifact: &Compiled,
        on_entry: impl Fn(usize, &RunConfig, &Result<RunReport, LolError>) + Sync,
    ) -> SweepReport {
        self.run_inner(artifact, &|_| false, &on_entry)
    }

    /// [`SweepSpec::run_with`], resuming a previous sweep: any config
    /// whose [`config_key`] appears in `done` (the ok entries of a
    /// prior `--json-lines` file — see [`parse_jsonl_done`]) is not
    /// re-run; its slot records [`LolError::Skipped`] instead, which
    /// counts as neither a success nor a failure. Missing and failed
    /// configs run normally, so `lolrun --sweep … --resume prev.jsonl`
    /// finishes exactly the work a killed or extended sweep left over.
    pub fn run_resumable(
        &self,
        artifact: &Compiled,
        done: &HashSet<String>,
        on_entry: impl Fn(usize, &RunConfig, &Result<RunReport, LolError>) + Sync,
    ) -> SweepReport {
        self.run_inner(artifact, &|cfg| done.contains(&config_key(cfg)), &on_entry)
    }

    fn run_inner(
        &self,
        artifact: &Compiled,
        skip: &(dyn Fn(&RunConfig) -> bool + Sync),
        on_entry: &dyn EntryCallback,
    ) -> SweepReport {
        let exec = |cfg: &RunConfig| -> Result<RunReport, LolError> {
            if skip(cfg) {
                Err(LolError::Skipped("DUN THIS ONE ALREADY (--resume)".to_string()))
            } else {
                engine_for(cfg.backend).run(artifact, cfg)
            }
        };
        let configs = self.configs();
        let n = configs.len();
        let workers = self.effective_jobs(n);
        let budget = self.effective_thread_budget();
        let weight = |cfg: &RunConfig| config_weight(cfg, budget);
        let t0 = Instant::now();
        let mut slots: Vec<Mutex<Option<Result<RunReport, LolError>>>> =
            (0..n).map(|_| Mutex::new(None)).collect();

        if workers <= 1 {
            for (i, (cfg, slot)) in configs.iter().zip(&mut slots).enumerate() {
                let result = exec(cfg);
                on_entry(i, cfg, &result);
                *slot.get_mut().unwrap() = Some(result);
            }
        } else {
            struct Sched {
                claimed: Vec<bool>,
                in_flight: usize,
            }
            let sched = Mutex::new(Sched { claimed: vec![false; n], in_flight: 0 });
            let turnstile = Condvar::new();
            // Returns the claimed weight and wakes budget waiters even
            // if the job body panics (engine bug or user callback) —
            // otherwise a worker parked in `turnstile.wait` would
            // sleep forever and the scope join (which re-raises the
            // panic) would never be reached. Locks are poison-tolerant
            // for the same reason.
            struct BudgetGuard<'a> {
                sched: &'a Mutex<Sched>,
                turnstile: &'a Condvar,
                weight: usize,
            }
            impl Drop for BudgetGuard<'_> {
                fn drop(&mut self) {
                    self.sched
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner)
                        .in_flight -= self.weight;
                    self.turnstile.notify_all();
                }
            }
            std::thread::scope(|s| {
                for _ in 0..workers {
                    s.spawn(|| loop {
                        let i = {
                            let mut st =
                                sched.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
                            loop {
                                if st.claimed.iter().all(|&c| c) {
                                    return; // queue drained
                                }
                                // First unclaimed config whose PE
                                // weight fits the remaining budget
                                // (weights never exceed the budget, so
                                // an idle pool always finds one).
                                let fit = (0..n).find(|&i| {
                                    !st.claimed[i] && st.in_flight + weight(&configs[i]) <= budget
                                });
                                match fit {
                                    Some(i) => {
                                        st.claimed[i] = true;
                                        st.in_flight += weight(&configs[i]);
                                        break i;
                                    }
                                    None => {
                                        st = turnstile
                                            .wait(st)
                                            .unwrap_or_else(std::sync::PoisonError::into_inner)
                                    }
                                }
                            }
                        };
                        let _return_budget = BudgetGuard {
                            sched: &sched,
                            turnstile: &turnstile,
                            weight: weight(&configs[i]),
                        };
                        let result = exec(&configs[i]);
                        on_entry(i, &configs[i], &result);
                        *slots[i].lock().unwrap_or_else(std::sync::PoisonError::into_inner) =
                            Some(result);
                    });
                }
            });
        }

        let results = slots
            .into_iter()
            .map(|m| m.into_inner().unwrap().expect("every sweep slot filled"))
            .collect();
        SweepReport::assemble(configs, results, workers, t0.elapsed())
    }

    /// Parse a `lolrun --sweep` spec string on top of `base`.
    ///
    /// Grammar: semicolon-separated `key=value` clauses —
    ///
    /// * `pes=1..16` or `pes=1,2,4,8` — PE counts (`a..b` inclusive).
    ///   Mega-scale sugar: `k`/`m` suffixes scale by 1024/1048576
    ///   (`pes=1k,64k,1m`), and `pes=2^0..2^20` expands to the
    ///   powers of two in the exponent range — the idiomatic spelling
    ///   of a simulator scaling curve
    /// * `seeds=3` — 3 seeds derived from the base seed;
    ///   `seeds=7,9` or `seeds=0..2` — explicit seed values
    /// * `latency=off,mesh:4,torus:4x4,flat:1000` — latency models
    ///   (see [`LatencyModel::from_str`][std::str::FromStr])
    /// * `barrier=central,dissem` — barrier algorithms (ablation axis)
    /// * `lock=cas,ticket` — lock algorithms (ablation axis)
    /// * `clock=wall,virtual` — latency clock modes; `virtual` rows
    ///   report deterministic virtual walls
    /// * `backend=interp,vm,c,sim` — engines to sweep; `both` expands
    ///   to `interp,vm`, `all` to every registered backend
    /// * `trace=65536` or `trace=64k@256` — record communication
    ///   events under a *global* event budget, sampling every
    ///   `stride`-th PE (see [`crate::TraceSpec`]); keeps tracing
    ///   memory-bounded at mega-scale PE counts
    /// * `jobs=4` — worker cap (`0` = auto)
    /// * `threads=8` — global PE-thread budget (`0` = auto: cores)
    /// * `sim-jobs=4` — worker threads for every sim-backend config
    ///   (`0` = auto, `1` = exact sequential scheduler); outputs are
    ///   byte-identical at any setting
    ///
    /// Example: `"pes=1..16;seeds=3;latency=off,mesh:4"` or
    /// `"backend=all;latency=flat,mesh;barrier=central,dissem;lock=cas,ticket;pes=1,2,4"`.
    pub fn parse(spec: &str, base: RunConfig) -> Result<SweepSpec, String> {
        let mut out = SweepSpec::over(base);
        for clause in spec.split(';') {
            let clause = clause.trim();
            if clause.is_empty() {
                continue;
            }
            let (key, value) = clause
                .split_once('=')
                .ok_or_else(|| format!("O NOES! SWEEP CLAUSE NEEDS key=value, GOT: {clause}"))?;
            match key.trim() {
                "pes" => out.pes = parse_pe_list(value).map_err(|e| format!("pes: {e}"))?,
                "seeds" => {
                    let v = value.trim();
                    if !v.contains(',') && !v.contains("..") {
                        let count: u64 = v
                            .parse()
                            .map_err(|_| format!("O NOES! seeds WANTS A NUMBR, GOT: {v}"))?;
                        if count == 0 || count > MAX_AXIS_VALUES {
                            return Err(format!(
                                "O NOES! seeds WANTS 1..{MAX_AXIS_VALUES} SEEDS, NOT {count}"
                            ));
                        }
                        out = out.seed_count(count);
                    } else {
                        out.seeds = parse_int_list(value).map_err(|e| format!("seeds: {e}"))?;
                    }
                }
                "latency" => {
                    out.latencies = value
                        .split(',')
                        .map(|tok| tok.trim().parse::<LatencyModel>())
                        .collect::<Result<_, _>>()?;
                }
                "barrier" | "barriers" => {
                    out.barriers = value
                        .split(',')
                        .map(|tok| tok.trim().parse::<BarrierKind>())
                        .collect::<Result<_, _>>()?;
                }
                "lock" | "locks" => {
                    out.locks = value
                        .split(',')
                        .map(|tok| tok.trim().parse::<LockKind>())
                        .collect::<Result<_, _>>()?;
                }
                "clock" | "clocks" => {
                    out.clocks = value
                        .split(',')
                        .map(|tok| tok.trim().parse::<ClockMode>())
                        .collect::<Result<_, _>>()?;
                }
                "backend" | "backends" => {
                    let mut backends = Vec::new();
                    for tok in value.split(',') {
                        match tok.trim() {
                            "both" => backends.extend([Backend::Interp, Backend::Vm]),
                            "all" => backends.extend(Backend::ALL),
                            other => backends.push(other.parse::<Backend>().map_err(|_| {
                                format!(
                                    "O NOES! backend IZ interp, vm, c, sim, both OR all, NOT {other}"
                                )
                            })?),
                        }
                    }
                    out.backends = backends;
                }
                "trace" => {
                    out.base = out.base.trace_spec(
                        value.trim().parse().map_err(|e: String| format!("trace: {e}"))?,
                    );
                }
                "jobs" => {
                    out.jobs = value
                        .trim()
                        .parse()
                        .map_err(|_| format!("O NOES! jobs WANTS A NUMBR, GOT: {value}"))?;
                }
                "sim-jobs" | "sim_jobs" => {
                    out.base =
                        out.base.sim_jobs(value.trim().parse().map_err(|_| {
                            format!("O NOES! sim-jobs WANTS A NUMBR, GOT: {value}")
                        })?);
                }
                "threads" => {
                    out.threads = value
                        .trim()
                        .parse()
                        .map_err(|_| format!("O NOES! threads WANTS A NUMBR, GOT: {value}"))?;
                }
                other => return Err(format!("O NOES! I DUNNO DIS SWEEP AXIS: {other}")),
            }
        }
        out.validate().map_err(|e| e.to_string())?;
        Ok(out)
    }
}

/// The thread-budget weight of one config: how many OS threads it
/// actually occupies while running. The threaded backends spawn one
/// thread per PE, so they weigh their PE count. The sim backend runs
/// any PE count on its scheduler's bounded worker pool, so it weighs
/// the worker count it will really use ([`lol_sim::planned_jobs`]) —
/// weighing a 65,536-PE sim config as 65,536 threads would make every
/// mega-scale sim run hog the whole budget and serialize the sweep.
/// Weights cap at the budget so an over-wide job still runs (alone).
///
/// Public because the `lold` playground service gates request
/// admission on the same weighting: a 64k-PE sim request weighs its
/// scheduler's worker count, not 64k threads, so it can't starve the
/// service's worker pool any more than it can starve a sweep.
pub fn config_weight(cfg: &RunConfig, budget: usize) -> usize {
    let threads = match cfg.backend {
        Backend::Sim => lol_sim::planned_jobs(&cfg.shmem()),
        _ => cfg.n_pes,
    };
    threads.clamp(1, budget)
}

/// The streaming per-entry callback shape `run_with`/`run_resumable`
/// share (a named trait keeps the internal dispatch signature
/// readable).
trait EntryCallback: Fn(usize, &RunConfig, &Result<RunReport, LolError>) + Sync {}
impl<T: Fn(usize, &RunConfig, &Result<RunReport, LolError>) + Sync> EntryCallback for T {}

/// One PE-count token with mega-scale suffixes: `64`, `64k` (×1024),
/// `1m` (×1048576). Overflow is a parse error, never a wrap.
fn parse_pe_token(tok: &str) -> Result<u64, String> {
    let tok = tok.trim();
    let (digits, scale) = match tok.chars().last() {
        Some('k') | Some('K') => (&tok[..tok.len() - 1], 1024u64),
        Some('m') | Some('M') => (&tok[..tok.len() - 1], 1024 * 1024),
        _ => (tok, 1),
    };
    let n: u64 = digits
        .trim()
        .parse()
        .map_err(|_| format!("O NOES! {tok} IZ NOT A PE COUNT (try 64, 64k OR 1m)"))?;
    n.checked_mul(scale).ok_or_else(|| format!("O NOES! {tok} IZ 2 BIG"))
}

/// Parse the `pes=` axis: comma-separated counts with `k`/`m`
/// suffixes, inclusive `a..b` ranges, and `2^a..2^b` powers-of-two
/// ranges (`2^0..2^20` → 1, 2, 4, …, 1048576 — the idiomatic spelling
/// of a simulator scaling sweep).
fn parse_pe_list(s: &str) -> Result<Vec<usize>, String> {
    let to_usize =
        |v: u64, tok: &str| usize::try_from(v).map_err(|_| format!("O NOES! {tok} IZ 2 BIG"));
    let mut out = Vec::new();
    for tok in s.split(',') {
        let tok = tok.trim();
        if let Some((lo, hi)) = tok.split_once("..") {
            let (lo, hi) = (lo.trim(), hi.trim());
            if lo.starts_with("2^") || hi.starts_with("2^") {
                let exp = |t: &str| -> Result<u32, String> {
                    let e: u32 = t
                        .strip_prefix("2^")
                        .ok_or_else(|| format!("O NOES! MIXED RANGE {tok} — BOTH ENDS NEED 2^"))?
                        .trim()
                        .parse()
                        .map_err(|_| format!("O NOES! {t} IZ NOT A POWER OF 2"))?;
                    if e >= 64 {
                        return Err(format!("O NOES! {t} IZ 2 BIG"));
                    }
                    Ok(e)
                };
                let (lo, hi) = (exp(lo)?, exp(hi)?);
                if lo > hi {
                    return Err(format!("O NOES! BACKWARDS RANGE: {tok}"));
                }
                for e in lo..=hi {
                    out.push(to_usize(1u64 << e, tok)?);
                }
            } else {
                let (lo, hi) = (parse_pe_token(lo)?, parse_pe_token(hi)?);
                if lo > hi {
                    return Err(format!("O NOES! BACKWARDS RANGE: {tok}"));
                }
                if hi - lo >= MAX_AXIS_VALUES {
                    return Err(format!(
                        "O NOES! RANGE {tok} HAZ 2 MANY VALUES (MAX {MAX_AXIS_VALUES})"
                    ));
                }
                for v in lo..=hi {
                    out.push(to_usize(v, tok)?);
                }
            }
        } else {
            out.push(to_usize(parse_pe_token(tok)?, tok)?);
        }
    }
    if out.is_empty() {
        return Err("O NOES! EMPTY LIST".to_string());
    }
    Ok(out)
}

/// Parse `1,2,4` / `1..8` / mixtures of both into a list, preserving
/// order. `a..b` is inclusive on both ends.
fn parse_int_list<T>(s: &str) -> Result<Vec<T>, String>
where
    T: std::str::FromStr + TryFrom<u64>,
{
    let mut out = Vec::new();
    for tok in s.split(',') {
        let tok = tok.trim();
        if let Some((lo, hi)) = tok.split_once("..") {
            let parse = |t: &str| {
                t.trim()
                    .parse::<u64>()
                    .map_err(|_| format!("O NOES! {t} IZ NOT A NUMBR IN RANGE {tok}"))
            };
            let (lo, hi) = (parse(lo)?, parse(hi)?);
            if lo > hi {
                return Err(format!("O NOES! BACKWARDS RANGE: {tok}"));
            }
            if hi - lo >= MAX_AXIS_VALUES {
                return Err(format!(
                    "O NOES! RANGE {tok} HAZ 2 MANY VALUES (MAX {MAX_AXIS_VALUES})"
                ));
            }
            for v in lo..=hi {
                out.push(T::try_from(v).map_err(|_| format!("O NOES! {v} IZ 2 BIG"))?);
            }
        } else {
            out.push(tok.parse().map_err(|_| format!("O NOES! {tok} IZ NOT A NUMBR"))?);
        }
    }
    if out.is_empty() {
        return Err("O NOES! EMPTY LIST".to_string());
    }
    Ok(out)
}

// ---------------------------------------------------------------------
// SweepReport
// ---------------------------------------------------------------------

/// One config's slot in a sweep: the config, its outcome, and metrics
/// derived against the sweep's baselines.
#[derive(Clone, Debug)]
pub struct SweepEntry {
    /// The effective configuration (includes the backend).
    pub config: RunConfig,
    /// The run's outcome; failures don't abort the sweep.
    pub result: Result<RunReport, LolError>,
    /// Wall-time speedup vs. the 1-PE entry of the same
    /// (backend, latency, seed) group, when that baseline exists.
    ///
    /// Timing caveat: with more than one worker, concurrently-running
    /// jobs contend for cores, which *systematically* inflates walls
    /// (the 1-PE baseline most of all) — outputs and stats are exact
    /// at any worker count, but publication-grade speedup curves
    /// should come from a [`SweepSpec::jobs`]`(1)` sweep.
    pub speedup: Option<f64>,
    /// `speedup / n_pes` — parallel efficiency.
    pub efficiency: Option<f64>,
    /// Cross-backend ratio: the interpreter's wall time at the *same*
    /// (latency, seed, PE count) divided by this entry's — i.e. how
    /// many times faster than interp this backend ran this config
    /// (> 1 = faster). `Some(≈1.0)` on interp entries themselves,
    /// `None` when the matrix has no matching interp entry. The same
    /// multi-worker timing caveat as [`SweepEntry::speedup`] applies.
    pub vs_interp: Option<f64>,
}

impl SweepEntry {
    /// FNV-1a hash over the per-PE outputs (stable fingerprint for
    /// machine-readable reports without embedding full outputs).
    pub fn output_hash(&self) -> Option<u64> {
        self.result.as_ref().ok().map(output_hash)
    }

    /// Did this config fail only because the engine can't run here
    /// (e.g. C backend without a compiler)?
    pub fn is_unsupported(&self) -> bool {
        matches!(&self.result, Err(e) if e.is_unsupported())
    }

    /// Was this config deliberately not run (resumed sweep found it
    /// already completed)?
    pub fn is_skipped(&self) -> bool {
        matches!(&self.result, Err(e) if e.is_skipped())
    }
}

/// The identity of a config inside a sweep matrix, as a stable string
/// key: `backend|latency|barrier|lock|clock|seed|pes`. Resume matching
/// ([`SweepSpec::run_resumable`]) and the JSONL done-set parser agree
/// on this format.
pub fn config_key(c: &RunConfig) -> String {
    format!(
        "{}|{}|{}|{}|{}|{}|{}",
        c.backend, c.latency, c.barrier, c.lock, c.clock, c.seed, c.n_pes
    )
}

/// Collect the [`config_key`]s of every *successful* entry in a
/// previous sweep's `--json-lines` output. Feed the result to
/// [`SweepSpec::run_resumable`] to re-run only the missing/failed
/// configs. Records without a `clock` field (pre-virtual-time files)
/// parse as `wall`; summary records and malformed lines are ignored.
pub fn parse_jsonl_done(text: &str) -> HashSet<String> {
    let mut done = HashSet::new();
    for line in text.lines() {
        let Ok(record) = lol_json::parse(line) else {
            continue;
        };
        // Summary records carry a count in `ok`, never `true`.
        if record.get("ok").and_then(Json::as_bool) != Some(true) {
            continue;
        }
        let text = |name| record.get(name).and_then(Json::as_str);
        let num = |name| record.get(name).and_then(Json::as_u64);
        let (Some(backend), Some(latency), Some(barrier), Some(lock), Some(seed), Some(pes)) = (
            text("backend"),
            text("latency"),
            text("barrier"),
            text("lock"),
            num("seed"),
            num("pes"),
        ) else {
            continue;
        };
        let clock = text("clock").unwrap_or("wall");
        done.insert(format!("{backend}|{latency}|{barrier}|{lock}|{clock}|{seed}|{pes}"));
    }
    done
}

/// FNV-1a hash over per-PE outputs (stable fingerprint for
/// machine-readable reports without embedding full outputs).
pub(crate) fn output_hash(report: &RunReport) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
    };
    for out in &report.outputs {
        eat(out.as_bytes());
        eat(&[0x1E]); // record separator: "a","" != "","a"
    }
    h
}

/// One self-contained JSONL record for a completed config — the
/// streaming (`--json-lines`) serialization, also usable straight from
/// a [`SweepSpec::run_with`] callback. Contains the config, outcome,
/// wall time, output hash and comm stats; matrix-derived columns
/// (speedup/efficiency/vs-interp) don't exist until the sweep ends and
/// are deliberately absent.
pub fn jsonl_record(
    index: usize,
    config: &RunConfig,
    result: &Result<RunReport, LolError>,
) -> String {
    let mut out = String::new();
    let mut w = Writer::new(&mut out);
    w.begin_obj().key("index").num(index);
    push_config_fields(&mut w, config.backend, config);
    match result {
        Ok(r) => push_ok_json(&mut w, r, true, &[]),
        Err(err) => push_error_json(&mut w, err),
    }
    w.end_obj();
    out
}

/// The config-identity fields (`"backend"` through `"clock"`), shared
/// by the streaming records, the final report and the single-run
/// report JSON the playground service and `lolrun --json` emit
/// ([`crate::service::run_report_json`]) — one serialization, three
/// surfaces, so they can never drift apart. `backend` is the engine
/// that ran, which the single-run report takes from the report.
pub(crate) fn push_config_fields(w: &mut Writer, backend: Backend, config: &RunConfig) {
    w.key("backend").str(backend);
    w.key("pes").num(config.n_pes);
    w.key("seed").num(config.seed);
    w.key("latency").str(config.latency);
    w.key("barrier").str(config.barrier);
    w.key("lock").str(config.lock);
    w.key("clock").str(config.clock);
}

/// The shared success arm: `"ok": true`; with `timing`, the host
/// walls (the sim's `wall_ns` is the *simulated* makespan,
/// `host_wall_ns` the real host time absolute perf gates compare)
/// followed by the matrix-derived `ratios`; then the virtual wall,
/// the output hash and the stats.
fn push_ok_json(w: &mut Writer, r: &RunReport, timing: bool, ratios: &[(&str, Option<f64>)]) {
    w.key("ok").bool(true);
    if timing {
        w.key("wall_ns").num(r.wall.as_nanos());
        w.key("host_wall_ns").num(r.host_wall.as_nanos());
        for &(key, ratio) in ratios {
            w.key(key).fixed(ratio, 4);
        }
    }
    // Virtual walls are deterministic, so they belong in the
    // byte-stable JSON too — that's what lets CI diff
    // machine-independent timing.
    if let Some(vw) = r.virtual_wall {
        w.key("virtual_wall_ns").num(vw.as_nanos());
    }
    w.key("output_hash").str(format_args!("{:016x}", output_hash(r)));
    push_stats_json(w, r);
}

/// The shared failure arm: `"ok": false` plus the unsupported/skipped
/// flags and the rendered error.
fn push_error_json(w: &mut Writer, err: &LolError) {
    w.key("ok").bool(false);
    if err.is_unsupported() {
        w.key("unsupported").bool(true);
    }
    if err.is_skipped() {
        w.key("skipped").bool(true);
    }
    w.key("error").str(err);
}

/// The shared `"stats": {...}` object (job-wide totals).
pub(crate) fn push_stats_json(w: &mut Writer, r: &RunReport) {
    let t = r.total_stats();
    w.key("stats").begin_obj();
    w.key("local_gets").num(t.local_gets);
    w.key("remote_gets").num(t.remote_gets);
    w.key("local_puts").num(t.local_puts);
    w.key("remote_puts").num(t.remote_puts);
    w.key("block_get_words").num(t.block_get_words);
    w.key("block_put_words").num(t.block_put_words);
    w.key("amos").num(t.amos);
    w.key("barriers_per_pe").num(r.stats.first().map(|s| s.barriers).unwrap_or(0));
    w.key("lock_acquires").num(t.lock_acquires);
    w.key("remote_fraction").fixed(t.remote_fraction(), 4);
    w.end_obj();
}

/// Aggregated result of a [`SweepSpec::run`]: entries in config order
/// plus derived scaling metrics.
#[derive(Clone, Debug)]
pub struct SweepReport {
    /// One entry per config, in [`SweepSpec::configs`] order.
    pub entries: Vec<SweepEntry>,
    /// Worker threads the scheduler actually used.
    pub jobs: usize,
    /// Wall-clock time of the whole sweep (launch to last join).
    pub total_wall: Duration,
}

impl SweepReport {
    fn assemble(
        configs: Vec<RunConfig>,
        results: Vec<Result<RunReport, LolError>>,
        jobs: usize,
        total_wall: Duration,
    ) -> Self {
        let mut entries: Vec<SweepEntry> = configs
            .into_iter()
            .zip(results)
            .map(|(config, result)| SweepEntry {
                config,
                result,
                speedup: None,
                efficiency: None,
                vs_interp: None,
            })
            .collect();
        // Scaling baselines: the 1-PE wall time of each
        // (backend, latency, barrier, lock, clock, seed) group — every
        // ablation axis gets its own scaling curve. Virtual-clock
        // groups use their deterministic virtual walls, so their
        // speedup/efficiency columns are machine-independent.
        type GroupKey = (Backend, String, BarrierKind, LockKind, ClockMode, u64);
        let key =
            |c: &RunConfig| (c.backend, c.latency.to_string(), c.barrier, c.lock, c.clock, c.seed);
        let baselines: Vec<(GroupKey, Duration)> = entries
            .iter()
            .filter(|e| e.config.n_pes == 1)
            .filter_map(|e| e.result.as_ref().ok().map(|r| (key(&e.config), r.effective_wall())))
            .collect();
        // Cross-backend baselines: the interpreter's wall time at each
        // (latency, barrier, lock, clock, seed, PE count) — interp is
        // the paper's reference substrate, so every backend reports
        // its factor over it.
        type XKey = (String, BarrierKind, LockKind, ClockMode, u64, usize);
        let xkey =
            |c: &RunConfig| (c.latency.to_string(), c.barrier, c.lock, c.clock, c.seed, c.n_pes);
        let interp_walls: Vec<(XKey, Duration)> = entries
            .iter()
            .filter(|e| e.config.backend == Backend::Interp)
            .filter_map(|e| e.result.as_ref().ok().map(|r| (xkey(&e.config), r.effective_wall())))
            .collect();
        for e in &mut entries {
            let Ok(report) = &e.result else { continue };
            let wall = report.effective_wall().as_secs_f64();
            if wall <= 0.0 {
                continue;
            }
            let k = key(&e.config);
            if let Some((_, base)) = baselines.iter().find(|(bk, _)| *bk == k) {
                let speedup = base.as_secs_f64() / wall;
                e.speedup = Some(speedup);
                e.efficiency = Some(speedup / e.config.n_pes as f64);
            }
            let xk = xkey(&e.config);
            if let Some((_, iw)) = interp_walls.iter().find(|(bk, _)| *bk == xk) {
                e.vs_interp = Some(iw.as_secs_f64() / wall);
            }
        }
        SweepReport { entries, jobs, total_wall }
    }

    /// Number of configs that ran successfully.
    pub fn ok_count(&self) -> usize {
        self.entries.iter().filter(|e| e.result.is_ok()).count()
    }

    /// Did every config succeed?
    pub fn all_ok(&self) -> bool {
        self.ok_count() == self.entries.len()
    }

    /// Configs that failed because the engine can't run on this
    /// machine/config at all (e.g. C backend without a compiler).
    pub fn unsupported_count(&self) -> usize {
        self.entries.iter().filter(|e| e.is_unsupported()).count()
    }

    /// Configs a resumed sweep deliberately left alone (already done in
    /// the previous run's JSONL file).
    pub fn skipped_count(&self) -> usize {
        self.entries.iter().filter(|e| e.is_skipped()).count()
    }

    /// Real failures: neither ok, unsupported nor skipped. This is
    /// what a CI gate should look at — a sweep that only lost engines
    /// the machine doesn't have (or re-ran a finished matrix) is still
    /// a pass.
    pub fn hard_failure_count(&self) -> usize {
        self.entries.len() - self.ok_count() - self.unsupported_count() - self.skipped_count()
    }

    /// Render a human-readable scaling table (one row per config).
    /// `x-interp` is the cross-backend column: this backend's
    /// wall-time factor over the interpreter on the identical config
    /// (vm-over-interp, c-over-interp, ... — > 1 = faster than
    /// interp). PE counts above 10,000 render in scientific notation
    /// (`6.6e4`, `1.0e6`) so mega-scale sim rows keep the columns
    /// readable.
    pub fn speedup_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<7} {:<16} {:<7} {:<6} {:<7} {:>12} {:>5}  {:>10} {:>8} {:>5} {:>8} {:>8}  outcome\n",
            "backend",
            "latency",
            "barrier",
            "lock",
            "clock",
            "seed",
            "pes",
            "wall",
            "speedup",
            "eff",
            "x-interp",
            "remote%"
        ));
        for e in &self.entries {
            let c = &e.config;
            let opt = |v: Option<f64>, prec: usize| match v {
                Some(v) => format!("{v:.prec$}"),
                None => "-".to_string(),
            };
            match &e.result {
                Ok(r) => {
                    let total = r.total_stats();
                    out.push_str(&format!(
                        "{:<7} {:<16} {:<7} {:<6} {:<7} {:>12} {:>5}  {:>10} {:>8} {:>5} {:>8} \
                         {:>7.1}%  ok\n",
                        c.backend.to_string(),
                        c.latency.to_string(),
                        c.barrier.to_string(),
                        c.lock.to_string(),
                        c.clock.to_string(),
                        c.seed,
                        fmt_pes(c.n_pes),
                        // Virtual rows show their deterministic virtual
                        // wall (the clock column says which is which).
                        format!("{:.1?}", r.effective_wall()),
                        opt(e.speedup, 2),
                        opt(e.efficiency, 2),
                        opt(e.vs_interp, 2),
                        100.0 * total.remote_fraction(),
                    ));
                }
                Err(err) => {
                    let first = err.to_string();
                    let first = first.lines().next().unwrap_or("").to_string();
                    let outcome = if e.is_unsupported() {
                        "UNSUPPORTED"
                    } else if e.is_skipped() {
                        "SKIPPED"
                    } else {
                        "FAILED"
                    };
                    out.push_str(&format!(
                        "{:<7} {:<16} {:<7} {:<6} {:<7} {:>12} {:>5}  {:>10} {:>8} {:>5} {:>8} \
                         {:>8}  {}: {}\n",
                        c.backend.to_string(),
                        c.latency.to_string(),
                        c.barrier.to_string(),
                        c.lock.to_string(),
                        c.clock.to_string(),
                        c.seed,
                        fmt_pes(c.n_pes),
                        "-",
                        "-",
                        "-",
                        "-",
                        "-",
                        outcome,
                        first,
                    ));
                }
            }
        }
        let unsupported = self.unsupported_count();
        let skipped = self.skipped_count();
        out.push_str(&format!(
            "{} configs, {} ok{}{}, {} workers, total wall {:.1?}\n",
            self.entries.len(),
            self.ok_count(),
            if unsupported > 0 {
                format!(" ({unsupported} unsupported here)")
            } else {
                String::new()
            },
            if skipped > 0 { format!(" ({skipped} skipped via --resume)") } else { String::new() },
            self.jobs,
            self.total_wall,
        ));
        out
    }

    /// Machine-readable JSON, including timing-derived fields
    /// (`wall_ns`, `speedup`, `efficiency`, worker count).
    pub fn to_json(&self) -> String {
        self.render_json(true)
    }

    /// JSON with every timing-dependent field omitted: byte-identical
    /// across repeated runs and worker counts for a deterministic
    /// program, so it can be diffed or content-hashed in CI.
    pub fn to_json_stable(&self) -> String {
        self.render_json(false)
    }

    fn render_json(&self, timing: bool) -> String {
        let mut out = String::new();
        let mut w = Writer::new(&mut out);
        // One header field per line, one entry per line.
        w.begin_obj();
        w.sep("\n  ").key("configs").num(self.entries.len());
        w.sep("\n  ").key("ok").num(self.ok_count());
        if timing {
            w.sep("\n  ").key("jobs").num(self.jobs);
            w.sep("\n  ").key("total_wall_ns").num(self.total_wall.as_nanos());
        }
        w.sep("\n  ").key("entries").begin_arr();
        for (i, e) in self.entries.iter().enumerate() {
            w.sep("\n    ").begin_obj().key("index").num(i);
            push_config_fields(&mut w, e.config.backend, &e.config);
            match &e.result {
                Ok(r) => push_ok_json(
                    &mut w,
                    r,
                    timing,
                    &[
                        ("speedup", e.speedup),
                        ("efficiency", e.efficiency),
                        ("vs_interp", e.vs_interp),
                    ],
                ),
                Err(err) => push_error_json(&mut w, err),
            }
            w.end_obj();
        }
        w.ws("\n  ").end_arr().ws("\n").end_obj().ws("\n");
        out
    }
}

/// PE counts in tables: exact below 10,000, scientific above (`6.6e4`,
/// `1.0e6`) — a 1M-PE sim row shouldn't blow out the column grid. JSON
/// serializations always carry the exact number.
fn fmt_pes(n: usize) -> String {
    if n > 10_000 {
        format!("{:.1e}", n as f64)
    } else {
        n.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{compile, corpus};

    fn base() -> RunConfig {
        RunConfig::new(1).timeout(Duration::from_secs(30))
    }

    #[test]
    fn empty_spec_is_one_config() {
        let configs = SweepSpec::over(base()).configs();
        assert_eq!(configs.len(), 1);
        assert_eq!(configs[0].n_pes, 1);
    }

    #[test]
    fn cartesian_product_order_is_backend_latency_seed_pes() {
        let spec = SweepSpec::over(base())
            .pes([1, 2])
            .seeds([5, 6])
            .latencies([LatencyModel::Off, LatencyModel::xc40()])
            .backends([Backend::Interp, Backend::Vm]);
        let configs = spec.configs();
        assert_eq!(configs.len(), 16);
        // PE count is the innermost axis...
        assert_eq!(configs[0].n_pes, 1);
        assert_eq!(configs[1].n_pes, 2);
        // ...then seeds...
        assert_eq!((configs[0].seed, configs[2].seed), (5, 6));
        // ...then latency, then backend (outermost).
        assert_eq!(configs[4].latency, LatencyModel::xc40());
        assert_eq!(configs[8].backend, Backend::Vm);
    }

    #[test]
    fn run_returns_entries_in_config_order() {
        let artifact = compile(corpus::HELLO_PARALLEL).unwrap();
        let spec = SweepSpec::over(base()).pes([1, 2, 3, 4]).jobs(4);
        let report = spec.run(&artifact);
        assert!(report.all_ok());
        for (i, e) in report.entries.iter().enumerate() {
            assert_eq!(e.config.n_pes, i + 1);
            let r = e.result.as_ref().unwrap();
            assert_eq!(r.outputs.len(), i + 1);
            assert_eq!(r.output(0), format!("HAI ITZ 0 OF {}\n", i + 1));
        }
    }

    #[test]
    fn speedup_and_efficiency_derive_from_1pe_baseline() {
        let artifact = compile(corpus::HELLO_PARALLEL).unwrap();
        let report = SweepSpec::over(base()).pes([1, 4]).run(&artifact);
        let one = &report.entries[0];
        assert_eq!(one.speedup.map(|s| (s * 100.0).round()), Some(100.0), "baseline speedup is 1");
        assert_eq!(one.efficiency.map(|s| (s * 100.0).round()), Some(100.0));
        let four = &report.entries[1];
        let (s, e) = (four.speedup.unwrap(), four.efficiency.unwrap());
        assert!((e - s / 4.0).abs() < 1e-12, "efficiency = speedup / pes");
    }

    #[test]
    fn no_baseline_means_no_speedup() {
        let artifact = compile(corpus::HELLO_PARALLEL).unwrap();
        let report = SweepSpec::over(base()).pes([2, 4]).run(&artifact);
        assert!(report.all_ok());
        assert!(report.entries.iter().all(|e| e.speedup.is_none()));
    }

    #[test]
    fn failing_config_does_not_abort_sweep() {
        let artifact =
            compile("HAI 1.2\nVISIBLE QUOSHUNT OF 1 AN DIFF OF ME AN 1\nKTHXBYE").unwrap();
        // 1 PE: ME-1 = -1, fine. 2 PEs: PE 1 divides by zero.
        let spec = SweepSpec::over(base().timeout(Duration::from_secs(5))).pes([1, 2, 1]).jobs(2);
        let report = spec.run(&artifact);
        assert!(report.entries[0].result.is_ok());
        assert!(matches!(report.entries[1].result, Err(LolError::Runtime(_))));
        assert!(report.entries[2].result.is_ok());
        assert_eq!(report.ok_count(), 2);
        assert!(!report.all_ok());
        // The failed entry still renders in table and JSON.
        assert!(report.speedup_table().contains("FAILED"));
        assert!(report.to_json().contains("\"ok\": false"));
    }

    #[test]
    fn parallel_and_serial_sweeps_agree_exactly() {
        let artifact = compile("HAI 1.2\nVISIBLE SUM OF WHATEVR AN ME\nKTHXBYE").unwrap();
        let spec = SweepSpec::over(base()).pes([1, 2, 3]).seeds([1, 2]);
        let serial = spec.clone().jobs(1).run(&artifact);
        let parallel = spec.jobs(4).run(&artifact);
        assert_eq!(serial.entries.len(), parallel.entries.len());
        for (a, b) in serial.entries.iter().zip(&parallel.entries) {
            assert_eq!(a.config.n_pes, b.config.n_pes);
            assert_eq!(a.config.seed, b.config.seed);
            assert_eq!(a.result.as_ref().unwrap().outputs, b.result.as_ref().unwrap().outputs);
        }
        assert_eq!(serial.to_json_stable(), parallel.to_json_stable());
    }

    #[test]
    fn invalid_config_is_reported_per_entry() {
        let artifact = compile(corpus::HELLO_PARALLEL).unwrap();
        let bad = LatencyModel::Mesh2D { width: 0, base_ns: 1, hop_ns: 1 };
        let report = SweepSpec::over(base()).latencies([LatencyModel::Off, bad]).run(&artifact);
        assert!(report.entries[0].result.is_ok());
        match &report.entries[1].result {
            Err(LolError::Config(msg)) => assert!(msg.contains("RUN0120"), "{msg}"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn spec_string_round_trip() {
        let spec =
            SweepSpec::parse("pes=1..4;seeds=3;latency=off,mesh:4;backend=both", base()).unwrap();
        let configs = spec.configs();
        // 2 backends x 2 latencies x 3 seeds x 4 PE counts.
        assert_eq!(configs.len(), 48);
        assert_eq!(configs[0].backend, Backend::Interp);
        assert_eq!(configs[0].n_pes, 1);
        assert_eq!(configs[3].n_pes, 4);
        // seeds derive from the base seed.
        assert_eq!(configs[0].seed, base().seed);
        assert_eq!(configs[4].seed, base().seed + 1);
        assert_eq!(configs[47].backend, Backend::Vm);
        assert_eq!(configs[47].latency, LatencyModel::Mesh2D { width: 4, base_ns: 50, hop_ns: 11 });
    }

    #[test]
    fn spec_string_rejects_junk() {
        for bad in [
            "pes=0..2", // zero PEs fails validation
            "pes=two",
            "wat=1",
            "latency=mesh:0", // zero-width mesh rejected at parse
            "backend=fortran",
            "pes", // no '='
            "seeds=",
            "pes=4..1",                                           // backwards range
            "seeds=0",                                            // zero seeds would silently no-op
            "pes=1..4000000000", // absurd range must fail fast, not OOM
            "seeds=99999999",    // absurd seed count likewise
            "pes=1..200;seeds=600;latency=off,flat;backend=both", // product over cap
        ] {
            assert!(SweepSpec::parse(bad, base()).is_err(), "{bad} should be rejected");
        }
        // Explicit seed lists and ranges still work.
        let spec = SweepSpec::parse("seeds=7,9;jobs=2", base()).unwrap();
        assert_eq!(spec.configs().iter().map(|c| c.seed).collect::<Vec<_>>(), vec![7, 9]);
        assert_eq!(spec.jobs_requested(), 2);
    }

    #[test]
    fn json_shapes_are_wellformed_enough() {
        let artifact = compile(corpus::HELLO_PARALLEL).unwrap();
        let report = SweepSpec::over(base()).pes([1, 2]).run(&artifact);
        let full = report.to_json();
        assert!(full.contains("\"total_wall_ns\""));
        assert!(full.contains("\"speedup\""));
        assert!(full.contains("\"output_hash\""));
        let stable = report.to_json_stable();
        assert!(!stable.contains("wall_ns"));
        assert!(!stable.contains("speedup"));
        assert!(!stable.contains("\"jobs\""));
        assert!(stable.contains("\"output_hash\""));
        // Balanced braces/brackets (cheap well-formedness check).
        for json in [&full, &stable] {
            assert_eq!(json.matches('{').count(), json.matches('}').count());
            assert_eq!(json.matches('[').count(), json.matches(']').count());
        }
    }

    #[test]
    fn output_hash_distinguishes_output_boundaries() {
        let artifact = compile(corpus::HELLO_PARALLEL).unwrap();
        let r1 = SweepSpec::over(base()).pes([2]).run(&artifact);
        let r2 = SweepSpec::over(base()).pes([3]).run(&artifact);
        assert_ne!(r1.entries[0].output_hash(), r2.entries[0].output_hash());
    }

    #[test]
    fn vs_interp_ratios_cover_matching_configs_only() {
        let artifact = compile(corpus::HELLO_PARALLEL).unwrap();
        let report = SweepSpec::over(base())
            .pes([1, 2])
            .backends([Backend::Interp, Backend::Vm])
            .run(&artifact);
        assert!(report.all_ok());
        // interp entries compare against themselves: ratio ≈ 1.
        for e in &report.entries[..2] {
            let r = e.vs_interp.expect("interp has a matching interp entry");
            assert!((r - 1.0).abs() < 1e-9, "interp vs itself should be 1.0, got {r}");
        }
        // vm entries carry vm-over-interp at the same PE count.
        for e in &report.entries[2..] {
            assert_eq!(e.config.backend, Backend::Vm);
            assert!(e.vs_interp.unwrap() > 0.0);
        }
        // A vm-only sweep has no interp baseline: no ratio.
        let vm_only = SweepSpec::over(base()).pes([1, 2]).backends([Backend::Vm]).run(&artifact);
        assert!(vm_only.entries.iter().all(|e| e.vs_interp.is_none()));
        // The ratio appears in timing JSON and the table header, never
        // in the byte-stable JSON.
        assert!(report.to_json().contains("\"vs_interp\""));
        assert!(report.speedup_table().contains("x-interp"));
        assert!(!report.to_json_stable().contains("vs_interp"));
    }

    #[test]
    fn thread_budget_serializes_wide_jobs_but_keeps_results_exact() {
        let artifact = compile("HAI 1.2\nVISIBLE SUM OF WHATEVR AN ME\nKTHXBYE").unwrap();
        let spec = SweepSpec::over(base()).pes([1, 2, 4]).seeds([1, 2]).jobs(4);
        // Budget of 1 PE-thread: every job runs alone, whatever the
        // worker count says.
        let tight = spec.clone().threads(1).run(&artifact);
        let loose = spec.threads(64).run(&artifact);
        assert!(tight.all_ok() && loose.all_ok());
        assert_eq!(tight.to_json_stable(), loose.to_json_stable());
        assert_eq!(SweepSpec::parse("pes=1,2;threads=3", base()).unwrap().threads_requested(), 3);
        assert!(SweepSpec::parse("threads=lots", base()).is_err());
    }

    #[test]
    fn sim_configs_weigh_their_worker_count_not_their_pe_count() {
        let budget = 8;
        // Threaded backends: one OS thread per PE, capped at the
        // budget (an over-wide job runs alone).
        assert_eq!(config_weight(&base().pes(6), budget), 6);
        assert_eq!(config_weight(&base().pes(65_536).backend(Backend::Vm), budget), 8);
        // Sim backend: weight is the scheduler's worker count, not the
        // PE count — a mega-scale sim on one worker costs one thread.
        assert_eq!(config_weight(&base().pes(65_536).backend(Backend::Sim).sim_jobs(1), budget), 1);
        assert_eq!(config_weight(&base().pes(65_536).backend(Backend::Sim).sim_jobs(3), budget), 3);
        // Small sims auto-resolve to the sequential scheduler.
        assert_eq!(config_weight(&base().pes(16).backend(Backend::Sim), budget), 1);
        // Auto on a big sim uses the host's parallelism, still capped.
        let auto = config_weight(&base().pes(65_536).backend(Backend::Sim), budget);
        let planned = lol_sim::planned_jobs(&base().pes(65_536).backend(Backend::Sim).shmem());
        assert_eq!(auto, planned.clamp(1, budget));
    }

    /// Regression for the thread-budget weight: before sim configs
    /// weighed their worker count, any sim job with `n_pes >= budget`
    /// claimed the whole budget and the sweep serialized. With the
    /// fix, a `threads=8` sweep keeps several one-worker sim configs
    /// in flight at once. The budget is still held during `on_entry`,
    /// so overlapping callbacks prove overlapping budget claims; each
    /// callback waits (bounded) until it sees a concurrent peer.
    #[test]
    fn threads_8_sweep_runs_sim_configs_concurrently() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let artifact = compile(corpus::HELLO_PARALLEL).unwrap();
        let spec = SweepSpec::over(base().backend(Backend::Sim).sim_jobs(1))
            .pes([64, 65, 66, 67, 68, 69, 70, 71])
            .jobs(8)
            .threads(8);
        let current = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        let report = spec.run_with(&artifact, |_, cfg, result| {
            assert!(result.is_ok(), "{cfg:?}");
            let now = current.fetch_add(1, Ordering::SeqCst) + 1;
            peak.fetch_max(now, Ordering::SeqCst);
            let t0 = Instant::now();
            while peak.load(Ordering::SeqCst) < 2 && t0.elapsed() < Duration::from_secs(5) {
                std::thread::sleep(Duration::from_millis(2));
            }
            current.fetch_sub(1, Ordering::SeqCst);
        });
        assert!(report.all_ok(), "{}", report.speedup_table());
        assert!(
            peak.load(Ordering::SeqCst) >= 2,
            "a threads=8 sweep must keep one-worker sim configs concurrent"
        );
    }

    #[test]
    fn sim_jobs_clause_sets_the_base_config() {
        let spec = SweepSpec::parse("pes=1,2;backend=sim;sim-jobs=4", base()).unwrap();
        assert!(spec.configs().iter().all(|c| c.sim_jobs == 4));
        assert_eq!(SweepSpec::parse("sim_jobs=2", base()).unwrap().configs()[0].sim_jobs, 2);
        assert!(SweepSpec::parse("sim-jobs=many", base()).is_err());
        // Not part of the config identity: two configs differing only
        // in sim_jobs share a resume key, and the JSONL record never
        // mentions the knob.
        let c = spec.configs()[0].clone();
        assert_eq!(config_key(&c), config_key(&c.clone().sim_jobs(9)));
        let record = jsonl_record(0, &c, &Err(LolError::Skipped("x".into())));
        assert!(!record.contains("sim_jobs"));
    }

    #[test]
    fn run_with_streams_every_entry_exactly_once() {
        let artifact = compile(corpus::HELLO_PARALLEL).unwrap();
        let spec = SweepSpec::over(base()).pes([1, 2, 3, 4]).jobs(4);
        let seen = Mutex::new(vec![0usize; 4]);
        let report = spec.run_with(&artifact, |i, cfg, result| {
            assert_eq!(cfg.n_pes, i + 1);
            assert!(result.is_ok());
            seen.lock().unwrap()[i] += 1;
        });
        assert_eq!(*seen.lock().unwrap(), vec![1, 1, 1, 1]);
        assert!(report.all_ok());
    }

    #[test]
    fn jsonl_records_are_single_line_and_carry_outcomes() {
        let artifact =
            compile("HAI 1.2\nVISIBLE QUOSHUNT OF 1 AN DIFF OF ME AN 1\nKTHXBYE").unwrap();
        let spec = SweepSpec::over(base().timeout(Duration::from_secs(5))).pes([1, 2]);
        let lines = Mutex::new(Vec::new());
        spec.run_with(&artifact, |i, cfg, result| {
            lines.lock().unwrap().push(jsonl_record(i, cfg, result));
        });
        let mut lines = lines.into_inner().unwrap();
        lines.sort(); // completion order is racy; index is in the record
        assert_eq!(lines.len(), 2);
        for line in &lines {
            assert!(!line.contains('\n'), "JSONL records must be single-line");
            assert_eq!(line.matches('{').count(), line.matches('}').count());
        }
        assert!(lines[0].contains("\"ok\": true"));
        assert!(lines[0].contains("\"output_hash\""));
        assert!(lines[1].contains("\"ok\": false"));
        assert!(lines[1].contains("RUN0001"));
    }

    #[test]
    fn barrier_and_lock_axes_round_trip_through_the_spec_string() {
        let spec =
            SweepSpec::parse("pes=1,2;barrier=central,dissem;lock=cas,ticket", base()).unwrap();
        let configs = spec.configs();
        // 2 barriers × 2 locks × 2 PE counts, barrier outermost of the
        // two new axes, PE count innermost.
        assert_eq!(configs.len(), 8);
        assert_eq!(
            configs.iter().map(|c| (c.barrier, c.lock, c.n_pes)).collect::<Vec<_>>(),
            vec![
                (BarrierKind::Centralized, LockKind::SpinCas, 1),
                (BarrierKind::Centralized, LockKind::SpinCas, 2),
                (BarrierKind::Centralized, LockKind::Ticket, 1),
                (BarrierKind::Centralized, LockKind::Ticket, 2),
                (BarrierKind::Dissemination, LockKind::SpinCas, 1),
                (BarrierKind::Dissemination, LockKind::SpinCas, 2),
                (BarrierKind::Dissemination, LockKind::Ticket, 1),
                (BarrierKind::Dissemination, LockKind::Ticket, 2),
            ]
        );
        // Long-form aliases parse to the same values.
        let alias = SweepSpec::parse("barrier=centralized,dissemination;lock=spincas", base())
            .unwrap()
            .configs();
        assert_eq!(alias[0].barrier, BarrierKind::Centralized);
        assert_eq!(alias[1].barrier, BarrierKind::Dissemination);
        assert_eq!(alias[0].lock, LockKind::SpinCas);
        // Bad values are rejected with the axis named.
        for bad in ["barrier=tree", "lock=mcs", "barrier=", "lock=cas,"] {
            let err = SweepSpec::parse(bad, base()).unwrap_err();
            assert!(err.contains("O NOES!"), "{bad}: {err}");
        }
    }

    #[test]
    fn barrier_and_lock_groups_get_their_own_scaling_baselines() {
        let artifact = compile(corpus::HELLO_PARALLEL).unwrap();
        let report = SweepSpec::over(base())
            .pes([1, 2])
            .barriers(BarrierKind::ALL)
            .locks(LockKind::ALL)
            .run(&artifact);
        assert!(report.all_ok(), "{}", report.speedup_table());
        assert_eq!(report.entries.len(), 8);
        // Every (barrier, lock) group has its own 1-PE baseline, so
        // every entry gets a speedup column.
        for e in &report.entries {
            assert!(
                e.speedup.is_some(),
                "missing baseline for barrier={} lock={}",
                e.config.barrier,
                e.config.lock
            );
        }
        // The new axes appear in both serializations and the table.
        assert!(report.to_json().contains("\"barrier\": \"dissem\""));
        assert!(report.to_json_stable().contains("\"lock\": \"ticket\""));
        let table = report.speedup_table();
        assert!(table.contains("barrier") && table.contains("dissem"), "{table}");
        let record = jsonl_record(0, &report.entries[0].config, &report.entries[0].result);
        assert!(
            record.contains("\"barrier\": \"central\"") && record.contains("\"lock\": \"cas\"")
        );
    }

    #[test]
    fn backend_clause_accepts_c_and_all() {
        let spec = SweepSpec::parse("pes=1;backend=interp,vm,c", base()).unwrap();
        assert_eq!(
            spec.configs().iter().map(|c| c.backend).collect::<Vec<_>>(),
            vec![Backend::Interp, Backend::Vm, Backend::C]
        );
        let all = SweepSpec::parse("backend=all", base()).unwrap();
        assert_eq!(all.configs().iter().map(|c| c.backend).collect::<Vec<_>>(), Backend::ALL);
        assert!(SweepSpec::parse("backend=fortran", base()).is_err());
    }

    #[test]
    fn pes_clause_takes_suffixes_and_power_ranges() {
        // k/m suffixes: 1k = 1024, 1m = 1048576 (binary, like heap
        // sizes — a 64k sweep is a 65,536-PE sweep).
        let spec = SweepSpec::parse("pes=4,1k,64K,1m", base()).unwrap();
        assert_eq!(
            spec.configs().iter().map(|c| c.n_pes).collect::<Vec<_>>(),
            vec![4, 1024, 65_536, 1 << 20]
        );
        // Powers-of-two ranges expand the exponents.
        let spec = SweepSpec::parse("pes=2^0..2^6", base()).unwrap();
        assert_eq!(
            spec.configs().iter().map(|c| c.n_pes).collect::<Vec<_>>(),
            vec![1, 2, 4, 8, 16, 32, 64]
        );
        // The headline sweep parses (21 configs, well under the cap).
        assert_eq!(SweepSpec::parse("pes=2^0..2^20", base()).unwrap().configs().len(), 21);
        // Suffixed range endpoints work too.
        assert_eq!(SweepSpec::parse("pes=1k..1025", base()).unwrap().configs().len(), 2);
        // Overflow and junk are parse errors, not wraps or panics.
        for bad in [
            "pes=99999999999999999999m", // multiplication overflow
            "pes=2^64",                  // shift overflow
            "pes=2^1..2^999",
            "pes=2^4..16", // mixed range notation
            "pes=16..2^6", // mixed the other way
            "pes=2^a..2^b",
            "pes=4q",
            "pes=2^3..2^1", // backwards
        ] {
            let err = SweepSpec::parse(bad, base()).unwrap_err();
            assert!(err.contains("O NOES!"), "{bad}: {err}");
        }
    }

    #[test]
    fn trace_clause_sets_a_global_budget() {
        let spec = SweepSpec::parse("pes=4;trace=64k@2", base()).unwrap();
        let cfg = &spec.configs()[0];
        assert!(cfg.trace);
        assert_eq!(cfg.trace_spec, Some(crate::TraceSpec { cap: 65_536, stride: 2 }));
        // The substrate config divides the budget among sampled PEs.
        let sh = cfg.shmem();
        assert_eq!(sh.trace_capacity, 65_536 / 2);
        assert!(sh.traces_pe(0) && !sh.traces_pe(1) && sh.traces_pe(2));
        assert!(SweepSpec::parse("trace=0", base()).is_err());
        assert!(SweepSpec::parse("trace=4k@x", base()).is_err());
    }

    #[test]
    fn mega_scale_rows_render_scientifically_and_stably() {
        // A hand-assembled report (no actual 1M-PE run in a unit
        // test): one small row, one mega row, sim backend, virtual
        // clock — pinning both the table formatting and the
        // byte-stable JSON.
        let mk = |pes: usize, vns: u64| {
            let config = base().pes(pes).backend(Backend::Sim).clock(ClockMode::Virtual);
            let report = RunReport {
                backend: Backend::Sim,
                outputs: vec![String::from("HAI\n"); 2],
                stats: vec![crate::CommStats::default(); 2],
                wall: Duration::from_nanos(vns),
                host_wall: Duration::from_micros(3),
                virtual_wall: Some(Duration::from_nanos(vns)),
                trace: None,
                phases: crate::PhaseTimings::default(),
                sim: None,
                profile: None,
                config: config.clone(),
            };
            SweepEntry {
                config,
                result: Ok(report),
                speedup: None,
                efficiency: None,
                vs_interp: None,
            }
        };
        let report = SweepReport {
            entries: vec![mk(64, 1_500), mk(65_536, 23_000)],
            jobs: 1,
            total_wall: Duration::from_millis(1),
        };
        let table = report.speedup_table();
        assert!(table.contains("   64"), "small counts stay exact:\n{table}");
        assert!(table.contains("6.6e4"), "mega counts go scientific:\n{table}");
        assert!(!table.contains("65536"), "no raw mega count in the table:\n{table}");
        // The stable JSON keeps exact numbers and deterministic
        // virtual walls — byte-for-byte reproducible.
        let expected = "{\n  \"configs\": 2,\n  \"ok\": 2,\n  \"entries\": [\n    \
            {\"index\": 0, \"backend\": \"sim\", \"pes\": 64, \"seed\": 206041101, \
            \"latency\": \"off\", \"barrier\": \"central\", \"lock\": \"cas\", \
            \"clock\": \"virtual\", \"ok\": true, \"virtual_wall_ns\": 1500, \
            \"output_hash\": \"7cfcfa1d8ca9ad45\", \"stats\": {\"local_gets\": 0, \
            \"remote_gets\": 0, \"local_puts\": 0, \"remote_puts\": 0, \
            \"block_get_words\": 0, \"block_put_words\": 0, \"amos\": 0, \
            \"barriers_per_pe\": 0, \"lock_acquires\": 0, \"remote_fraction\": 0.0000}},\n    \
            {\"index\": 1, \"backend\": \"sim\", \"pes\": 65536, \"seed\": 206041101, \
            \"latency\": \"off\", \"barrier\": \"central\", \"lock\": \"cas\", \
            \"clock\": \"virtual\", \"ok\": true, \"virtual_wall_ns\": 23000, \
            \"output_hash\": \"7cfcfa1d8ca9ad45\", \"stats\": {\"local_gets\": 0, \
            \"remote_gets\": 0, \"local_puts\": 0, \"remote_puts\": 0, \
            \"block_get_words\": 0, \"block_put_words\": 0, \"amos\": 0, \
            \"barriers_per_pe\": 0, \"lock_acquires\": 0, \"remote_fraction\": 0.0000}}\n  ]\n}\n";
        assert_eq!(report.to_json_stable(), expected);
    }

    #[test]
    fn sim_backend_sweeps_alongside_the_others() {
        let artifact = compile(corpus::RING_EXAMPLE).unwrap();
        let report = SweepSpec::over(base().clock(ClockMode::Virtual))
            .pes([1, 2, 4])
            .backends([Backend::Interp, Backend::Vm, Backend::Sim])
            .run(&artifact);
        assert!(report.all_ok(), "{}", report.speedup_table());
        // Same outputs and (deterministic) virtual walls per PE count,
        // whichever engine ran.
        for i in 0..3 {
            let interp = report.entries[i].result.as_ref().unwrap();
            let vm = report.entries[3 + i].result.as_ref().unwrap();
            let sim = report.entries[6 + i].result.as_ref().unwrap();
            assert_eq!(interp.outputs, sim.outputs);
            assert_eq!(vm.outputs, sim.outputs);
            assert_eq!(interp.virtual_wall, sim.virtual_wall);
            assert_eq!(vm.virtual_wall, sim.virtual_wall);
        }
    }

    #[test]
    fn unsupported_entries_are_not_hard_failures() {
        let artifact = compile(corpus::HELLO_PARALLEL).unwrap();
        // The C stub caps PE threads at 256, so this sweep mixes ok
        // entries (interp runs 257 oversubscribed threads fine) with
        // unsupported ones (c refuses past the cap) — whatever
        // compilers the machine has.
        let report = SweepSpec::over(base())
            .pes([257])
            .backends([Backend::Interp, Backend::C])
            .run(&artifact);
        assert_eq!(report.ok_count(), 1);
        assert_eq!(report.unsupported_count(), 1);
        assert_eq!(report.hard_failure_count(), 0);
        assert!(!report.all_ok());
        assert!(report.speedup_table().contains("UNSUPPORTED"));
        assert!(report.to_json().contains("\"unsupported\": true"));
    }
}
