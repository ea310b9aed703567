//! One benchmark run of one workload: set-up, the timed phases, the
//! correctness checks, and the metrics they produce.

use std::cell::RefCell;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use lol_obs::Sample;
use lol_serve::api::{parse_run, parse_trace, TraceFormat};
use lol_serve::json;
use lolcode::service::{run_report_json, Quotas};
use lolcode::{compile, engine_for, Backend, ClockMode, CommStats, Compiled, RunConfig, RunReport};

use crate::calib::{Speed, REFERENCE_MS};
use crate::serve::{self, Lold, Phase, Served};
use crate::spans::{Ctx, Spans};
use crate::util::{fnv64, geomean, median, outputs_hash, quantile};
use crate::workload::{Case, Request, Workload};
use crate::{substrate, Report};

/// The engines each program config is timed on.
const ENGINES: [Backend; 3] = [Backend::Interp, Backend::Vm, Backend::C];
/// How many set-up passes the untraced run makes; `setup_s` is their
/// median.
const SETUP_PASSES: usize = 5;
/// Every timed phase makes at least this many rounds, so each config
/// has a median even on a slow machine.
const MIN_ROUNDS: usize = 2;
/// Untimed engine rounds before any timing. On a virtual machine the
/// cost of cross-core synchronization depends on how busy the host has
/// been for the last few seconds, so every run starts timing from a
/// host that has been busy for this long.
const WARM: Duration = Duration::from_secs(4);
/// Untimed closed-loop load before the timed load phases (still
/// checked): the server's first second of load runs measurably slower.
const SERVE_WARM: Duration = Duration::from_secs(1);
/// The timed phases take turns in this many stretches. The open loop
/// then never runs long on an idle host (on a virtual machine, waking
/// idle vCPUs gets slower the longer they have idled), and load from
/// elsewhere on the host that lasts less than half the run cannot move
/// any phase's median.
const STRETCHES: u32 = 5;

pub struct Opts {
    pub seconds: f64,
    pub lold: String,
}

/// Counts operations and failures, keeping the first few messages.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub messages: Vec<String>,
}

impl Tally {
    pub fn check(&mut self, what: impl FnOnce() -> String, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            if self.messages.len() < 20 {
                let e: String = e.chars().take(400).collect();
                self.messages.push(format!("{}: {e}", what()));
            }
        }
    }
}

/// The layer name of an engine's execution, as the metrics spell it.
fn layer(b: Backend) -> &'static str {
    match b {
        Backend::Interp => "interp",
        Backend::Vm => "vm",
        Backend::C => "codegen",
        Backend::Sim => "sim",
    }
}

fn config(case: &Case, backend: Backend) -> RunConfig {
    let mut cfg = RunConfig::new(case.pes).backend(backend).timeout(Duration::from_secs(60));
    cfg.input = case.input.clone();
    if backend == Backend::Sim {
        // Auto sharding, but never more than two workers: the benchmark
        // keeps its own load within two cores.
        let avail = std::thread::available_parallelism().map_or(1, |n| n.get());
        if lol_shmem::shard::effective_jobs(0, case.pes, avail) > 2 {
            cfg = cfg.sim_jobs(2);
        }
    }
    cfg
}

/// What must repeat exactly between runs of one config: outputs,
/// CommStats, simulator events, the virtual wall and, when the run has
/// them, the VM profile's op count and the trace's event count.
#[derive(Debug, PartialEq)]
struct Fingerprint {
    outputs: u64,
    stats: Vec<CommStats>,
    sim_events: Option<u64>,
    virtual_wall: Option<Duration>,
    vm_ops: Option<u64>,
    trace_events: Option<usize>,
}

/// The C stub counts the spins of a contended lock as AMOs, so those
/// are left out of its fingerprint.
fn fingerprint(r: &RunReport) -> Fingerprint {
    let mut stats = r.stats.clone();
    if r.backend == Backend::C {
        stats.iter_mut().for_each(|s| s.amos = 0);
    }
    Fingerprint {
        outputs: outputs_hash(&r.outputs),
        stats,
        sim_events: r.sim.map(|s| s.events),
        virtual_wall: r.virtual_wall,
        vm_ops: r.profile.as_ref().map(|p| p.total_ops),
        trace_events: r.trace.as_ref().map(|t| t.total_events()),
    }
}

/// Everything set-up builds and the timed phases reuse.
struct Prepared {
    cases: Vec<Compiled>,
    sims: Vec<Compiled>,
    launch: Compiled,
    lold: Lold,
}

/// One set-up pass: front end and VM lowering of every program, C
/// builds of the engine configs, `lold` start and warm-up.
fn setup(w: &Workload, o: &Opts, spans: &Spans, ctx: Ctx) -> Result<Prepared, String> {
    fn named(c: &Case) -> impl Fn(lolcode::LolError) -> String + '_ {
        move |e| format!("{}: {e}", c.name)
    }
    let front = |c: &Case| -> Result<Compiled, String> {
        let a = spans.span(ctx, "frontend", |_| compile(&c.source)).0.map_err(named(c))?;
        spans.span(ctx, "vm.lower", |_| a.vm_module().map(|_| ())).0.map_err(named(c))?;
        Ok(a)
    };
    let cases = w.cases.iter().map(front).collect::<Result<Vec<_>, _>>()?;
    let sims = w.sims.iter().map(front).collect::<Result<Vec<_>, _>>()?;
    let launch = front(&w.launch)?;
    for (c, a) in w.cases.iter().zip(&cases).chain([(&w.launch, &launch)]) {
        spans.span(ctx, "codegen.build", |_| a.c_binary().map(|_| ())).0.map_err(named(c))?;
    }
    let lold = spans.span(ctx, "serve.start", |_| Lold::start(&o.lold)).0?;
    spans
        .span(ctx, "serve.warmup", |_| -> Result<(), String> {
            let mut conn = serve::Conn::connect(&lold.addr).map_err(|e| e.to_string())?;
            for req in w.mix.repeating() {
                let r = conn.request("POST", req.path, &req.body).map_err(|e| e.to_string())?;
                if r.status != 200 {
                    return Err(format!("warm-up {} answered {}", req.path, r.status));
                }
            }
            Ok(())
        })
        .0?;
    Ok(Prepared { cases, sims, launch, lold })
}

/// Samples of one config on one engine.
#[derive(Default)]
struct Samples {
    wall_ms: Vec<f64>,
    exec_ms: Vec<f64>,
    first: Option<Fingerprint>,
    last: Option<RunReport>,
}

impl Samples {
    fn median_wall(&self) -> f64 {
        median(&mut self.wall_ms.clone())
    }

    fn median_exec(&self) -> f64 {
        median(&mut self.exec_ms.clone())
    }

    fn report(&self) -> &RunReport {
        self.last.as_ref().expect("every config is sampled at least once")
    }
}

/// Geomean over the configs `keep` selects of a per-config figure.
fn geo<K>(
    s: &HashMap<K, Samples>,
    keep: impl Fn(&K) -> bool,
    per: impl Fn(&K, &Samples) -> f64,
) -> f64 {
    let v: Vec<f64> = s.iter().filter(|(k, _)| keep(k)).map(|(k, x)| per(k, x)).collect();
    geomean(&v)
}

/// One config the timed phases run: which program, how, and the span
/// its runs are recorded under.
struct Slot<K> {
    key: K,
    case: usize,
    cfg: RunConfig,
    name: &'static str,
}

/// Samples of a set of configs, filled by running the configs in turn.
/// The turn carries over between calls, so a phase split into stretches
/// still samples every config about equally often.
struct Rounds<K> {
    slots: Vec<Slot<K>>,
    visits: usize,
    samples: HashMap<K, Samples>,
}

impl<K> Rounds<K> {
    fn new(slots: Vec<Slot<K>>) -> Rounds<K> {
        Rounds { slots, visits: 0, samples: HashMap::new() }
    }
}

/// What the two load phases measured, plus the server's own view.
struct ServeRun {
    closed: Phase,
    open: Phase,
    /// Closed-loop requests per second of each stretch.
    closed_rps: Vec<f64>,
    /// `/metrics` scrapes before and after the load.
    before: Vec<Sample>,
    after: Vec<Sample>,
}

/// One workload's timed phases and checks, over what set-up prepared.
struct Run<'a> {
    w: &'a Workload,
    p: Prepared,
    spans: &'a Spans,
    ctx: Ctx,
    tally: RefCell<Tally>,
    /// The host's speed, probed in the untraced run only.
    speed: RefCell<Option<Speed>>,
}

impl Run<'_> {
    fn check(&self, what: impl FnOnce() -> String, outcome: Result<(), String>) {
        self.tally.borrow_mut().check(what, outcome);
    }

    /// Run `case` once as `cfg` says, check it, and file the sample.
    fn sample(
        &self,
        spans: &Spans,
        i: usize,
        cfg: &RunConfig,
        name: &'static str,
        into: &mut Samples,
    ) {
        let (case, art) = match (cfg.backend, self.w.cases.get(i)) {
            (Backend::Sim, _) => (&self.w.sims[i], &self.p.sims[i]),
            (_, Some(case)) => (case, &self.p.cases[i]),
            (_, None) => (&self.w.launch, &self.p.launch),
        };
        let backend = cfg.backend;
        let (res, took) = spans.span(self.ctx, name, |_| engine_for(backend).run(art, cfg));
        let what = || format!("{} on {backend} at {} PEs", case.name, case.pes);
        let report = match res {
            Ok(r) => r,
            Err(e) => return self.check(what, Err(e.to_string())),
        };
        let mut outcome = case.expect.check(&report.outputs, case.pes, backend == Backend::C);
        let fp = fingerprint(&report);
        match &into.first {
            None => into.first = Some(fp),
            Some(first) if outcome.is_ok() && *first != fp => {
                outcome = Err(format!("counts changed between repeats: {first:?} then {fp:?}"));
            }
            Some(_) => {}
        }
        self.check(what, outcome);
        into.wall_ms.push(took.as_secs_f64() * 1e3);
        into.exec_ms.push(report.phases.exec_ns as f64 / 1e6);
        into.last = Some(report);
    }

    /// Untimed rounds over every config (still checked) for `slice`.
    fn warm_up(&self, slice: Duration) {
        let r = self.engine_slots(|c| c, ["warmup"; 3]);
        self.rounds(&Spans::new(false), r, slice, 1);
    }

    /// Every program config on every engine, `tune`d; `names` names the
    /// spans per engine.
    fn engine_slots(
        &self,
        tune: impl Fn(RunConfig) -> RunConfig,
        names: [&'static str; 3],
    ) -> Rounds<(usize, Backend)> {
        let mut slots = Vec::new();
        for (i, case) in self.w.cases.iter().enumerate() {
            for (b, name) in ENGINES.into_iter().zip(names) {
                slots.push(Slot { key: (i, b), case: i, cfg: tune(config(case, b)), name });
            }
        }
        Rounds::new(slots)
    }

    /// The simulator configs at each worker count of `jobs` (`None`:
    /// auto).
    fn sim_slots(&self, jobs: &[Option<usize>]) -> Rounds<(usize, Option<usize>)> {
        let mut slots = Vec::new();
        for (i, case) in self.w.sims.iter().enumerate() {
            for &j in jobs {
                let cfg = match j {
                    Some(j) => config(case, Backend::Sim).sim_jobs(j),
                    None => config(case, Backend::Sim),
                };
                slots.push(Slot { key: (i, j), case: i, cfg, name: "sim.run" });
            }
        }
        Rounds::new(slots)
    }

    /// Run `r`'s configs in turn until `slice` has passed and each has
    /// run `min_rounds` times in all.
    fn rotate<K: Copy + Eq + Hash>(
        &self,
        spans: &Spans,
        r: &mut Rounds<K>,
        slice: Duration,
        min_rounds: usize,
    ) {
        let start = Instant::now();
        while r.visits < min_rounds * r.slots.len() || start.elapsed() < slice {
            if let Some(speed) = self.speed.borrow_mut().as_mut() {
                speed.probe_if_due();
            }
            let slot = &r.slots[r.visits % r.slots.len()];
            let into = r.samples.entry(slot.key).or_default();
            self.sample(spans, slot.case, &slot.cfg, slot.name, into);
            r.visits += 1;
        }
    }

    /// `r`'s configs in turn for one stretch of `slice`, at least
    /// `min_rounds` rounds.
    fn rounds<K: Copy + Eq + Hash>(
        &self,
        spans: &Spans,
        mut r: Rounds<K>,
        slice: Duration,
        min_rounds: usize,
    ) -> HashMap<K, Samples> {
        self.rotate(spans, &mut r, slice, min_rounds);
        r.samples
    }

    /// The closed and the open loop against `lold`, taking turns with
    /// each other and with `between`, then the checks of everything
    /// served.
    fn serve_phases(
        &self,
        closed_for: Duration,
        open_for: Duration,
        mut between: impl FnMut(),
    ) -> Result<ServeRun, String> {
        let (w, spans) = (self.w, self.spans);
        let addr = self.p.lold.addr.clone();
        let served = Mutex::new(Served::default());
        serve::closed_loop(&addr, &w.mix, SERVE_WARM, &Spans::new(false), self.ctx, &served);
        let before = serve::scrape(&addr)?;
        let (mut closed, mut open) = (Phase::default(), Phase::default());
        let mut closed_rps = Vec::new();
        for _ in 0..STRETCHES {
            between();
            let span = closed_for / STRETCHES;
            if let Some(speed) = self.speed.borrow_mut().as_mut() {
                speed.probe();
            }
            let (c, _) = spans.span(self.ctx, "serve.closed_loop", |c| {
                serve::closed_loop(&addr, &w.mix, span, spans, c, &served)
            });
            closed_rps.push(c.sent as f64 / c.elapsed.as_secs_f64());
            closed.absorb(c);
            let span = open_for / STRETCHES;
            let (o, _) = spans.span(self.ctx, "serve.open_loop", |c| {
                serve::open_loop(&addr, &w.mix, w.open_rate, span, spans, c, &served)
            });
            open.absorb(o);
        }
        let after = serve::scrape(&addr)?;
        self.check_served(&served.into_inner().expect("served poisoned"));
        self.check_server_counts(&before, &after, closed.sent + open.sent);
        Ok(ServeRun { closed, open, closed_rps, before, after })
    }

    /// Every served body must be byte-identical to what the toolchain
    /// computes in-process for the same request.
    fn check_served(&self, served: &Served) {
        for e in &served.io_errors {
            self.check(|| "request".to_string(), Err(e.clone()));
        }
        for (req, status, body) in &served.bad_status {
            self.check(|| format!("{} answered {status}", req.path), Err(body.clone()));
        }
        let mut expected: HashMap<&Request, u64> = HashMap::new();
        for (req, body) in &served.first {
            let (want, _) = self.spans.span(self.ctx, "oracle.served", |_| expected_body(req));
            let outcome = want.and_then(|want| {
                (body.as_slice() == want.as_bytes())
                    .then_some(())
                    .ok_or_else(|| "served body differs from the in-process report".to_string())
            });
            expected.insert(req, fnv64(body));
            self.check(|| format!("{} {}", req.path, &req.body[..req.body.len().min(60)]), outcome);
        }
        for (req, hash) in &served.repeats {
            let outcome = (expected.get(req) == Some(hash))
                .then_some(())
                .ok_or_else(|| "a repeated request got a different body".to_string());
            self.check(|| format!("repeat of {}", req.path), outcome);
        }
    }

    /// The server must have counted exactly the requests the generator
    /// sent, and refused or failed none of them.
    fn check_server_counts(&self, before: &[Sample], after: &[Sample], sent: u64) {
        let d = |name: &str, labels: &[(&str, &str)]| serve::delta(before, after, name, labels);
        let counted = d("lold_requests_total", &[("route", "run")])
            + d("lold_requests_total", &[("route", "trace")]);
        self.check(
            || "lold request count".to_string(),
            (counted as u64 == sent)
                .then_some(())
                .ok_or(format!("lold counted {counted}, generator sent {sent}")),
        );
        for (name, labels) in [
            ("lold_errors_total", &[][..]),
            ("lold_rejected_total", &[("status", "429")][..]),
            ("lold_rejected_total", &[("status", "503")][..]),
        ] {
            let n = d(name, labels);
            self.check(
                || format!("{name} {labels:?}"),
                (n == 0.0).then_some(()).ok_or(format!("{n} during the run")),
            );
        }
    }

    /// Cross-engine check on the virtual clock: vm and sim must match
    /// the interpreter's outputs, CommStats and virtual wall; the C
    /// binary its outputs (where it shares the random stream), remote
    /// traffic and virtual wall. The virtual walls join the counts.
    fn cross_check(&self, counts: &mut Vec<(String, u64)>) {
        for (case, art) in self.w.cases.iter().zip(&self.p.cases) {
            let run = |b: Backend| {
                let cfg = config(case, b).clock(ClockMode::Virtual);
                self.spans.span(self.ctx, "oracle.run", |_| engine_for(b).run(art, &cfg)).0
            };
            let what = |b: Backend| format!("{} on {b} vs interp (virtual clock)", case.name);
            let reference = match run(Backend::Interp) {
                Ok(r) => r,
                Err(e) => {
                    self.check(|| what(Backend::Interp), Err(e.to_string()));
                    continue;
                }
            };
            let vw = reference.virtual_wall.map_or(0, |d| d.as_nanos() as u64);
            counts.push((format!("virtual_wall_ns.{}", case.name), vw));
            for b in [Backend::Vm, Backend::Sim, Backend::C] {
                let outcome = run(b).map_err(|e| e.to_string()).and_then(|r| {
                    let c = b == Backend::C;
                    let (got, want) = (r.total_stats(), reference.total_stats());
                    if (!c || case.expect.c_matches_interp()) && r.outputs != reference.outputs {
                        Err("outputs differ".to_string())
                    } else if !c && r.stats != reference.stats {
                        Err(format!("CommStats differ: {got:?} vs {want:?}"))
                    } else if c
                        && (got.remote_gets, got.remote_puts)
                            != (want.remote_gets, want.remote_puts)
                    {
                        Err(format!("remote traffic differs: {got:?} vs {want:?}"))
                    } else if r.virtual_wall != reference.virtual_wall {
                        Err(format!(
                            "virtual wall {:?} vs {:?}",
                            r.virtual_wall, reference.virtual_wall
                        ))
                    } else {
                        case.expect.check(&r.outputs, case.pes, c)
                    }
                });
                self.check(|| what(b), outcome);
            }
        }
    }

    /// Stop `lold` and hand back the tally.
    fn finish(self) -> Tally {
        let outcome = self.p.lold.stop();
        let mut tally = self.tally.into_inner();
        tally.check(|| "lold shutdown".to_string(), outcome);
        tally
    }
}

/// The body `lold` must answer, computed in-process from the same
/// request parsed the way the server parses it: for `/run` the stable
/// report JSON, for `/trace` the documented envelope around the
/// Perfetto rendering (docs/SERVE.md).
fn expected_body(req: &Request) -> Result<String, String> {
    let parsed = json::parse(&req.body).map_err(|e| e.to_string())?;
    let run = match req.path {
        "/trace" => {
            let t = parse_trace(&parsed).map_err(|e| e.message)?;
            if t.format != TraceFormat::Perfetto {
                return Err(format!("the mix asks for {:?}, not Perfetto", t.format));
            }
            t.run
        }
        _ => parse_run(&parsed).map_err(|e| e.message)?,
    };
    let cfg = Quotas::default().admit(&run.cfg).map_err(|e| e.to_string())?;
    let art = compile(&run.source).map_err(|e| e.to_string())?;
    let report = engine_for(cfg.backend).run(&art, &cfg).map_err(|e| e.to_string())?;
    Ok(match req.path {
        "/trace" => format!(
            "{{\"ok\": true, \"format\": \"perfetto\", \"pes\": {}, \"render\": \"{}\"}}",
            report.n_pes(),
            json::escape(&report.trace.as_ref().ok_or("no trace")?.to_perfetto())
        ),
        _ => run_report_json(&report, run.timing),
    })
}

/// CommStats totals of the interpreter runs, as exact counts.
fn comm_counts(
    w: &Workload,
    e: &HashMap<(usize, Backend), Samples>,
    counts: &mut Vec<(String, u64)>,
) -> CommStats {
    let mut all = CommStats::default();
    for (i, case) in w.cases.iter().enumerate() {
        let t = e[&(i, Backend::Interp)].report().total_stats();
        counts.push((format!("remote_ops.{}", case.name), t.remote_gets + t.remote_puts));
        counts.push((format!("barriers.{}", case.name), t.barriers));
        counts.push((format!("lock_acquires.{}", case.name), t.lock_acquires));
        all.absorb(&t);
    }
    all
}

/// Simulator events and makespans at auto sharding, as exact counts.
fn sim_counts(
    w: &Workload,
    s: &HashMap<(usize, Option<usize>), Samples>,
    counts: &mut Vec<(String, u64)>,
) {
    for (i, case) in w.sims.iter().enumerate() {
        let r = s[&(i, None)].report();
        let at = format!("{}@{}", case.name, case.pes);
        counts.push((format!("sim.events.{at}"), r.sim.map_or(0, |x| x.events)));
        counts.push((format!("sim.makespan_ns.{at}"), r.wall.as_nanos() as u64));
    }
}

fn elapsed_note(report: &mut Report, what: &str, clock: Instant) {
    report.note(&format!("{what} ended at {:.2} s", clock.elapsed().as_secs_f64()));
}

/// The untraced run: the end-to-end metrics, with the host's slowdown
/// over the run taken out (`calib`); the figures as measured are
/// printed as a note.
pub fn end_to_end(
    w: &Workload,
    o: &Opts,
    spans: &Spans,
    report: &mut Report,
) -> Result<(), String> {
    let ctx = spans.root();
    let mut tally = Tally::default();
    let mut speed = Speed::start()?;
    let mut setup_s = Vec::new();
    let mut prepared = None;
    for pass in 0..SETUP_PASSES {
        speed.probe();
        let (p, took) = spans.span(ctx, "setup", |c| setup(w, o, spans, c));
        setup_s.push(took.as_secs_f64());
        report.note(&format!("set-up pass {pass} took {:.2} s", took.as_secs_f64()));
        if let Some(earlier) = prepared.replace(p?) {
            tally.check(|| "lold shutdown".to_string(), earlier.lold.stop());
        }
    }
    let run = Run {
        w,
        p: prepared.expect("at least one set-up pass"),
        spans,
        ctx,
        tally: RefCell::new(tally),
        speed: RefCell::new(Some(speed)),
    };
    let total = Duration::from_secs_f64(o.seconds);
    let sp = w.split;
    let clock = Instant::now();
    run.warm_up(WARM);
    let mut eng = run.engine_slots(|c| c, ["interp.run", "vm.run", "codegen.run"]);
    // The do-nothing program on C, in turn with the rest: it times the
    // launch of a binary, the part of `c_ms` the slowdown leaves alone.
    let launch = (w.cases.len(), Backend::C);
    let cfg = config(&w.launch, Backend::C);
    eng.slots.push(Slot { key: launch, case: launch.0, cfg, name: "codegen.launch" });
    let mut sims = run.sim_slots(&[None]);
    let (eng_slice, sim_slice) =
        (total.mul_f64(sp.engines) / STRETCHES, total.mul_f64(sp.sim) / STRETCHES);
    let sv = run.serve_phases(total.mul_f64(sp.closed), total.mul_f64(sp.open), || {
        run.rotate(spans, &mut eng, eng_slice, 0);
        run.rotate(spans, &mut sims, sim_slice, 0);
    })?;
    let eng = run.rounds(spans, eng, Duration::ZERO, MIN_ROUNDS);
    let sims = run.rounds(spans, sims, Duration::ZERO, MIN_ROUNDS);
    let speed = run.speed.borrow_mut().take().expect("the untraced run probes");
    elapsed_note(report, "timed phases and the serve checks", clock);
    run.cross_check(&mut report.counts);
    elapsed_note(report, "cross-engine check", clock);
    let mut tally = run.finish();
    tally.check(
        || "reference loop".to_string(),
        (speed.wrong == 0)
            .then_some(())
            .ok_or(format!("{} loops gave a wrong answer", speed.wrong)),
    );
    report.finish_tally(tally);

    // Times are divided by the host's slowdown over the run and rates
    // multiplied by it; of a C run's time, only what it takes beyond
    // launching a binary, which does not move with the host's speed.
    let f = speed.slowdown();
    let launch_ms = eng[&launch].median_wall();
    let host = |b: Backend, ms: f64| match b {
        Backend::C => launch_ms + (ms - launch_ms).max(0.0) / f,
        _ => ms / f,
    };
    for (i, case) in w.cases.iter().enumerate() {
        for b in ENGINES {
            let ms: Vec<f64> = eng[&(i, b)].wall_ms.iter().map(|&ms| host(b, ms)).collect();
            report.row(&format!("{b}_ms"), &case.name, "ms", &ms);
        }
    }
    for (i, case) in w.sims.iter().enumerate() {
        let per_pe: Vec<f64> =
            sims[&(i, None)].wall_ms.iter().map(|ms| ms * 1e3 / case.pes as f64 / f).collect();
        report.row("sim_us_per_pe", &format!("{}@{}", case.name, case.pes), "us", &per_pe);
    }
    comm_counts(w, &eng, &mut report.counts);
    sim_counts(w, &sims, &mut report.counts);

    let is_case = |k: &(usize, Backend), b: Backend| k.1 == b && k.0 < w.cases.len();
    let engine_ms = |b: Backend| geo(&eng, |k| is_case(k, b), |_, s| s.median_wall());
    let us_per_pe = geo(&sims, |_| true, |k, s| s.median_wall() * 1e3 / w.sims[k.0].pes as f64);
    // The median stretch, so load from elsewhere on the host during one
    // or two stretches does not move it.
    let rps = median(&mut sv.closed_rps.clone());
    let setup = median(&mut setup_s);
    report.metric("setup_s", setup / f, "s");
    for (b, name) in ENGINES.into_iter().zip(["interp_ms", "vm_ms", "c_ms"]) {
        report.metric(name, geo(&eng, |k| is_case(k, b), |_, s| host(b, s.median_wall())), "ms");
    }
    report.metric("sim_us_per_pe", us_per_pe / f, "us");
    report.metric("serve_rps", rps * f, "req/s");
    let mut lat = sv.open.latency_ms.clone();
    report.ungated("serve_p50_ms", quantile(&mut lat, 0.50), "ms");
    report.ungated("serve_p99_ms", quantile(&mut lat, 0.99), "ms");
    report.note(&format!(
        "as measured, host slowdown not taken out: setup_s {setup:.4}, interp_ms {:.4}, vm_ms \
         {:.4}, c_ms {:.4}, sim_us_per_pe {us_per_pe:.4}, serve_rps {rps:.4}",
        engine_ms(Backend::Interp),
        engine_ms(Backend::Vm),
        engine_ms(Backend::C),
    ));
    report.note(&format!(
        "host slowdown {f:.4}: the reference loop took {:.4} ms (median of {}), {REFERENCE_MS} ms \
         on the reference host; launching a C binary took {launch_ms:.4} ms",
        speed.median_ms(),
        speed.loops()
    ));
    report.note(&format!(
        "serve: closed loop {} requests in {:.2} s ({:.1?} req/s per stretch); open loop {} \
         requests at {} req/s",
        sv.closed.sent,
        sv.closed.elapsed.as_secs_f64(),
        sv.closed_rps,
        sv.open.sent,
        w.open_rate
    ));
    Ok(())
}

/// Front end and lowering, called layer by layer on every distinct
/// program, until 5 % of the run has passed (at least 5 passes); then
/// the C compiler twice per engine config.
fn front_end_layers(run: &Run, total: Duration, report: &mut Report) -> Result<(), String> {
    let (spans, ctx) = (run.spans, run.ctx);
    let mut sources: Vec<&str> = Vec::new();
    for c in run.w.cases.iter().chain(&run.w.sims) {
        if !sources.contains(&c.source.as_str()) {
            sources.push(&c.source);
        }
    }
    // Per pass, µs summed over the programs: lex, parse, sema, lower, emit.
    let mut passes: [Vec<f64>; 5] = Default::default();
    let (mut tokens, mut c_bytes) = (0u64, 0u64);
    let start = Instant::now();
    while passes[0].len() < 5 || start.elapsed() < total.mul_f64(0.05) {
        let mut sum = [Duration::ZERO; 5];
        (tokens, c_bytes) = (0, 0);
        for src in &sources {
            let (lexed, t) = spans.span(ctx, "lexer", |_| lol_lexer::lex(src));
            tokens += lexed.tokens.len() as u64;
            sum[0] += t;
            let (parsed, t) = spans.span(ctx, "parser", |_| lol_parser::parse_tokens(lexed));
            sum[1] += t;
            let program = parsed.program.ok_or("parse failed")?;
            sum[2] += spans.span(ctx, "sema", |_| lol_sema::analyze(&program)).1;
            let art = compile(src).map_err(|e| e.to_string())?;
            let (m, t) = spans.span(ctx, "vm.compile", |_| art.vm_module().map(|_| ()));
            m.map_err(|e| e.to_string())?;
            sum[3] += t;
            let (c, t) = spans.span(ctx, "codegen.emit", |_| {
                lol_c_codegen::emit_c(art.program(), art.analysis())
            });
            c_bytes += c.map_err(|d| d.message)?.len() as u64;
            sum[4] += t;
        }
        for (v, s) in passes.iter_mut().zip(sum) {
            v.push(s.as_secs_f64() * 1e6);
        }
    }
    let mut cc = Vec::new();
    for _ in 0..2 {
        let mut ms = 0.0;
        for art in &run.p.cases {
            let c = art.emit_c().map_err(|e| e.to_string())?;
            let (bin, t) = spans.span(ctx, "codegen.cc", |_| lol_c_codegen::driver::build(&c));
            bin.map_err(|e| e.to_string())?;
            ms += t.as_secs_f64() * 1e3;
        }
        cc.push(ms);
    }
    let [lex, parse, sema, lower, emit] = &mut passes;
    report.metric("lexer.lex_us", median(lex), "us");
    report.count_metric("lexer.tokens", tokens);
    report.metric("parser.parse_us", median(parse), "us");
    report.metric("sema.sema_us", median(sema), "us");
    report.metric("vm.compile_us", median(lower), "us");
    report.metric("codegen.emit_us", median(emit), "us");
    report.count_metric("codegen.c_bytes", c_bytes);
    report.metric("codegen.cc_ms", median(&mut cc), "ms");
    Ok(())
}

/// Execution and tracing: plain rounds, rounds with the VM profile and
/// the communication trace on (recorded in spans), and vm runs with
/// and without the trace. Returns the plain samples.
fn execution_layers(
    run: &Run,
    slice: Duration,
    report: &mut Report,
) -> Result<HashMap<(usize, Backend), Samples>, String> {
    let (w, spans, ctx) = (run.w, run.spans, run.ctx);
    run.warm_up(WARM);
    let plain = run.engine_slots(|c| c, ["interp.run", "vm.run", "codegen.run"]);
    let plain = run.rounds(&Spans::new(false), plain, slice.mul_f64(0.3), MIN_ROUNDS);
    let traced = run
        .engine_slots(|c| c.trace(true).profile(true), ["interp.exec", "vm.exec", "codegen.exec"]);
    let traced = run.rounds(spans, traced, slice.mul_f64(0.3), MIN_ROUNDS);
    let (mut record_ratio, mut perfetto_us, mut events) = (Vec::new(), Vec::new(), 0u64);
    for (i, case) in w.cases.iter().enumerate() {
        let (mut on, mut off) = (Samples::default(), Samples::default());
        let begin = Instant::now();
        while on.exec_ms.len() < 3 || begin.elapsed() < slice.mul_f64(0.2 / w.cases.len() as f64) {
            run.sample(spans, i, &config(case, Backend::Vm), "vm.exec", &mut off);
            run.sample(spans, i, &config(case, Backend::Vm).trace(true), "vm.exec", &mut on);
        }
        record_ratio.push(on.median_exec() / off.median_exec());
        let trace = on.report().trace.as_ref().ok_or("vm run lost its trace")?;
        events += trace.total_events() as u64;
        report.counts.push((format!("trace.events.{}", case.name), trace.total_events() as u64));
        let mut t: Vec<f64> = (0..5)
            .map(|_| {
                let (_, took) = spans.span(ctx, "trace.perfetto", |_| trace.to_perfetto().len());
                took.as_secs_f64() * 1e6
            })
            .collect();
        perfetto_us.push(median(&mut t));
    }
    let (mut ops, mut super_ops, mut vm_exec_ns) = (0u64, 0f64, 0f64);
    for (i, case) in w.cases.iter().enumerate() {
        for b in ENGINES {
            report.row(&format!("{}.exec_ms", layer(b)), &case.name, "ms", &plain[&(i, b)].exec_ms);
        }
        vm_exec_ns += plain[&(i, Backend::Vm)].median_exec() * 1e6;
        let prof = traced[&(i, Backend::Vm)].report().profile.clone();
        let prof = prof.ok_or("vm run lost its profile")?;
        report.counts.push((format!("vm.ops.{}", case.name), prof.total_ops));
        ops += prof.total_ops;
        super_ops += prof.total_ops as f64 * prof.super_bp as f64;
    }
    let mut render: Vec<f64> = (0..5)
        .map(|_| {
            let (_, took) = spans.span(ctx, "core.render", |_| {
                plain.values().map(|s| run_report_json(s.report(), false).len()).sum::<usize>()
            });
            took.as_secs_f64() * 1e6
        })
        .collect();
    for b in ENGINES {
        let name = format!("{}.exec_ms", layer(b));
        report.metric(&name, geo(&plain, |k| k.1 == b, |_, s| s.median_exec()), "ms");
    }
    report.count_metric("vm.ops", ops);
    report.metric("vm.ns_per_op", vm_exec_ns / ops as f64, "ns");
    report.metric("vm.super_bp", super_ops / ops as f64, "bp");
    report.metric("core.render_us", median(&mut render), "us");
    let overhead: Vec<f64> =
        plain.iter().map(|(k, s)| traced[k].median_wall() / s.median_wall()).collect();
    report.count_metric("trace.events", events);
    report.metric("trace.record_overhead", geomean(&record_ratio), "x");
    report.metric("trace.perfetto_us", perfetto_us.iter().sum::<f64>(), "us");
    report.metric("bench.trace_overhead", geomean(&overhead), "x");
    Ok(plain)
}

/// The substrate from outside, and the CommStats of the plain runs.
fn substrate_layer(run: &Run, plain: &HashMap<(usize, Backend), Samples>, report: &mut Report) {
    let (spans, ctx) = (run.spans, run.ctx);
    let costs = spans.span(ctx, "shmem.microbench", |c| substrate::measure(spans, c)).0;
    let comm = comm_counts(run.w, plain, &mut report.counts);
    report.metric("shmem.spawn_us", costs.spawn_us, "us");
    report.metric("shmem.put_ns", costs.put_ns, "ns");
    report.metric("shmem.get_ns", costs.get_ns, "ns");
    report.metric("shmem.amo_ns", costs.amo_ns, "ns");
    report.metric("shmem.barrier_ns.central", costs.barrier_central_ns, "ns");
    report.metric("shmem.barrier_ns.dissem", costs.barrier_dissem_ns, "ns");
    report.metric("shmem.lock_ns.cas", costs.lock_cas_ns, "ns");
    report.metric("shmem.lock_ns.ticket", costs.lock_ticket_ns, "ns");
    report.count_metric("shmem.remote_ops", comm.remote_gets + comm.remote_puts);
    report.count_metric("shmem.barriers", comm.barriers);
    report.count_metric("shmem.lock_acquires", comm.lock_acquires);
    report.metric("shmem.lock_acquire_ratio", costs.lock_acquire_ratio, "ratio");
}

/// The scheduler at auto, one and two workers; the three must agree.
fn scheduler_layer(run: &Run, slice: Duration, report: &mut Report) {
    let w = run.w;
    let sims = run.rounds(run.spans, run.sim_slots(&[None, Some(1), Some(2)]), slice, MIN_ROUNDS);
    sim_counts(w, &sims, &mut report.counts);
    let (mut events, mut auto_ns, mut episodes, mut windows, mut peak) = (0, 0.0, 0, 0, 0);
    for (i, case) in w.sims.iter().enumerate() {
        let auto = &sims[&(i, None)];
        let st = auto.report().sim.expect("sim runs carry scheduler stats");
        events += st.events;
        auto_ns += auto.median_wall() * 1e6;
        episodes += st.barrier_episodes;
        peak = peak.max(st.heap_peak);
        windows += sims[&(i, Some(2))].report().sim.map_or(0, |s| s.merge_windows);
        let stable = |j| run_report_json(sims[&(i, j)].report(), false);
        let same = (stable(Some(1)) == stable(Some(2)) && stable(Some(1)) == stable(None))
            .then_some(())
            .ok_or_else(|| "sim_jobs 1, 2 and auto disagree".to_string());
        run.check(|| format!("{}@{} sharding", case.name, case.pes), same);
    }
    let per_pe = |j: usize| {
        geo(&sims, |k| k.1 == Some(j), |k, s| s.median_wall() * 1e3 / w.sims[k.0].pes as f64)
    };
    let speedup = geo(
        &sims,
        |k| k.1 == Some(1) && w.sims[k.0].lock_free,
        |k, s| s.median_wall() / sims[&(k.0, Some(2))].median_wall(),
    );
    report.count_metric("sim.events", events);
    report.metric("sim.events_per_s", events as f64 / (auto_ns / 1e9), "1/s");
    report.count_metric("sim.barrier_episodes", episodes);
    report.count_metric("sim.merge_windows", windows);
    report.count_metric("sim.heap_peak", peak);
    report.metric("sim.us_per_pe.jobs1", per_pe(1), "us");
    report.metric("sim.us_per_pe.jobs2", per_pe(2), "us");
    report.metric("sim.shard_speedup", speedup, "x");
}

/// The service: the load phases, the server's histograms and counters,
/// and the JSON parser on the mix's bodies.
fn service_layer(run: &Run, total: Duration, report: &mut Report) -> Result<(), String> {
    let (spans, ctx, sp) = (run.spans, run.ctx, run.w.split);
    let sv = run.serve_phases(total.mul_f64(sp.closed), total.mul_f64(sp.open), || {})?;
    let bodies: Vec<&String> = sv.closed.bodies.iter().chain(&sv.open.bodies).collect();
    let mut parse_us: Vec<f64> = (0..5)
        .map(|_| {
            let (_, t) = spans.span(ctx, "serve.json_parse", |_| {
                bodies.iter().filter(|b| json::parse(b).is_ok()).count()
            });
            t.as_secs_f64() * 1e6 / bodies.len() as f64
        })
        .collect();
    let (s0, s1) = (&sv.before, &sv.after);
    let d = |name: &str, labels: &[(&str, &str)]| serve::delta(s0, s1, name, labels);
    let routes = |name: &str| d(name, &[("route", "run")]) + d(name, &[("route", "trace")]);
    let quantile =
        |q| serve::histogram_quantile(s0, s1, "lold_request_latency_us", &["run", "trace"], q);
    let handler_mean =
        routes("lold_request_latency_us_sum") / routes("lold_request_latency_us_count");
    let service: Vec<f64> =
        sv.closed.service_us.iter().chain(&sv.open.service_us).copied().collect();
    let client_mean = service.iter().sum::<f64>() / service.len() as f64;
    let (hits, misses) = (d("lold_cache_hits_total", &[]), d("lold_cache_misses_total", &[]));
    report.metric("serve.json_parse_us", median(&mut parse_us), "us");
    report.metric("serve.handler_p50_us", quantile(0.5), "us");
    report.metric("serve.handler_p99_us", quantile(0.99), "us");
    report.metric("serve.outside_handler_us", client_mean - handler_mean, "us");
    report.metric("serve.cache_hit_ratio", hits / (hits + misses), "ratio");
    // Counts, but not exact ones: they depend on how many requests fit.
    report.metric("serve.cache_evictions", d("lold_cache_evictions_total", &[]), "count");
    let rejected = d("lold_rejected_total", &[("status", "429")])
        + d("lold_rejected_total", &[("status", "503")]);
    report.metric("serve.rejected", rejected, "count");
    report.metric("serve.errors", d("lold_errors_total", &[]), "count");
    let late = sv.open.late_ms.iter().sum::<f64>() / sv.open.late_ms.len().max(1) as f64;
    report.metric("serve.gen_late_ms", late, "ms");
    Ok(())
}

/// The traced run: the per-layer metrics.
pub fn per_layer(w: &Workload, o: &Opts, spans: &Spans, report: &mut Report) -> Result<(), String> {
    let ctx = spans.root();
    let p = spans.span(ctx, "setup", |c| setup(w, o, spans, c)).0?;
    let run =
        Run { w, p, spans, ctx, tally: RefCell::new(Tally::default()), speed: RefCell::new(None) };
    let total = Duration::from_secs_f64(o.seconds);
    front_end_layers(&run, total, report)?;
    let plain = execution_layers(&run, total.mul_f64(w.split.engines), report)?;
    substrate_layer(&run, &plain, report);
    scheduler_layer(&run, total.mul_f64(w.split.sim), report);
    service_layer(&run, total, report)?;
    report.finish_tally(run.finish());
    Ok(())
}
