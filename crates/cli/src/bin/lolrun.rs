//! `lolrun` — the SPMD launcher, the `coprsh -np 16 ./executable.x` /
//! `aprun` analog from Section VI.E, running parallel LOLCODE on any
//! registered engine: the thread-based PGAS substrate (interp/vm) or
//! the `lcc`-emitted C binary over the SHMEM stub (c):
//!
//! ```text
//! lolrun -np 16 code.lol
//! lolrun -np 8 --stats code.lol            # per-PE comm statistics
//! lolrun -np 4 --backend c code.lol        # the paper's C path
//! lolrun --sweep "pes=1..8;seeds=3" code.lol           # scaling table
//! lolrun --sweep "pes=1..8;backend=all" --json code.lol
//! lolrun --sweep "pes=1..64" --json-lines code.lol     # stream JSONL
//! ```
//!
//! The program is compiled once (parse + sema + lazy bytecode/C
//! lowering) and the resulting artifact is run on the selected
//! engine(s); `--sweep` fans a whole config matrix out over a worker
//! pool under a global thread budget.

use lol_json::Writer;
use lolcode::{
    compile, engine_for, jsonl_record, parse_jsonl_done, Backend, BarrierKind, ClockMode, Compiled,
    LatencyModel, LockKind, RunConfig, RunReport, SweepSpec, TraceSpec,
};
use std::process::ExitCode;

const USAGE: &str = "\
usage: lolrun [-np <N>] [--backend interp|vm|c|sim] [--sim-jobs <N>]
              [--seed <u64>] [--latency <model>] [--barrier <algo>]
              [--lock <algo>] [--clock wall|virtual] [--trace[=FORMAT]]
              [--trace-buf <cap>[@<stride>]] [--trace-out <file>]
              [--tag] [--stats] [--timings] [--profile]
              [--sweep <spec>] [--resume <prev.jsonl>] [--jobs <N>]
              [--json|--json-lines]
              <input.lol>
  -np <N>          number of processing elements (default 4)
  --backend <b>    interp (default), vm (compiled bytecode), c
                   (lcc-emitted C + SHMEM stub, compiled by the system
                   C compiler and run as a native binary), or sim
                   (discrete-event simulator: a small shard-worker
                   pool sweeps 1k-1M PEs; implies virtual timing).
                   To compare engines, sweep the backend axis:
                   --sweep \"backend=interp,vm\"
  --sim-jobs <N>   sim scheduler workers: 0 (default) picks from the
                   PE count and host cores, 1 forces the sequential
                   scheduler, N shards PEs over N workers. Results are
                   byte-identical for every N (lock-using programs
                   always run sequentially); only host wall changes
  --seed <u64>     RNG seed for WHATEVR/WHATEVAR (default 0xC47F00D)
  --latency <m>    off (default), mesh[:W[:BASE:HOP]] (Epiphany eMesh
                   analog), torus[:WxH[:BASE:HOP]] (wraparound mesh),
                   flat[:NS] (Cray-like uniform remote latency)
  --barrier <a>    HUGZ barrier algorithm: central (default) or dissem
  --lock <a>       IM MESIN WIF lock algorithm: cas (default) or ticket
  --clock <c>      wall (default): latency models busy-wait real time;
                   virtual: latency is *accounted* on a deterministic
                   per-PE logical clock instead — virtual walls are
                   machine-independent and byte-reproducible
  --trace[=F]      record communication events and render them to
                   stderr after the run. F is one of
                     gantt (default)  per-PE ASCII timeline
                     events           flat event log
                     matrix           PExPE bytes/ops matrix
                     svg              dependency-free SVG timeline
                     perfetto         Chrome trace_event JSON — open in
                                      Perfetto / chrome://tracing
                   (e.g. `lolrun --trace=svg prog.lol 2>timeline.svg`)
  --trace-buf <s>  global trace budget: at most <cap> events total,
                   sampling every <stride>-th PE (default stride 1).
                   Counts take k/m suffixes: `--trace-buf 64k@256`
                   keeps a 1M-PE trace bounded. Implies --trace;
                   untraced events are counted as dropped
  --trace-out <f>  write the --trace rendering to <f> instead of
                   stderr (a clean artifact, no log noise). Without an
                   explicit --trace format, defaults to perfetto
  --tag            prefix every output line with [PE n]
  --stats          print per-PE communication statistics and wall time
                   to stderr after the run
  --timings        print a lex/parse/sema/compile/exec/render phase
                   breakdown to stderr (plus scheduler stats on
                   --backend sim); with --json, emit the *timing* form
                   of the report (adds wall_ns/phases/sim/profile)
  --profile        count every executed opcode (vm backend) and print
                   opcode totals, the superinstruction share, each
                   opcode's sampled share of exec time and the
                   hottest bytecode ranges to stderr; other backends
                   print the phase breakdown and a note
  --sweep <spec>   run a config matrix instead of a single job and
                   print a scaling report. Spec is ;-separated clauses:
                     pes=1..16 or pes=1,2,4   PE counts
                     seeds=3                  3 seeds off the base seed
                     seeds=7,9 or seeds=0..2  explicit seed values
                     latency=off,mesh:4       latency models
                     barrier=central,dissem   barrier algorithms
                     lock=cas,ticket          lock algorithms
                     clock=wall,virtual       latency clock modes
                     backend=interp,vm,c,sim  engines to sweep (also:
                                              both = interp,vm / all)
                     pes=1k,64k,1m            k/m suffixes x1024
                     pes=2^0..2^20            power-of-two ranges
                     trace=64k@256            global trace budget
                     sim-jobs=4               sim scheduler workers
                     jobs=4                   worker cap
                     threads=8                global PE-thread budget
                   e.g. --sweep \"pes=1,2,4;backend=all;clock=virtual\"
                   Unset axes inherit -np/--seed/--latency/--barrier/
                   --lock/--clock/--backend.
  --resume <f>     with --sweep: read a previous --json-lines file and
                   re-run only the configs it is missing or records as
                   failed; already-ok configs report SKIPPED
  --jobs <N>       cap concurrent sweep jobs (default: min(cores,
                   number of configs)); jobs are additionally gated so
                   in-flight PEs fit the thread budget. Use --jobs 1
                   when the wall/speedup columns are the result:
                   concurrent jobs contend for cores and bias each
                   other's timings (virtual-time walls are immune)
  --json           emit the report as JSON on stdout. On a single run
                   this is the *stable* run-report form — the same
                   bytes the lold service returns from POST /run —
                   deterministic (no host timing fields) for a fixed
                   program/config under clock=virtual
  --json-lines     with --sweep: stream one JSONL record per config as
                   it completes (resumable/inspectable mid-run), plus
                   a final summary record
";

/// `--trace[=FORMAT]` renderings.
#[derive(Clone, Copy)]
enum TraceFormat {
    Gantt,
    Events,
    Matrix,
    Svg,
    Perfetto,
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut input: Option<String> = None;
    let mut n_pes = 4usize;
    let mut backend = Backend::Interp;
    let mut seed = 0xC47_F00Du64;
    let mut latency = LatencyModel::Off;
    let mut barrier = BarrierKind::default();
    let mut lock = LockKind::default();
    let mut clock = ClockMode::default();
    let mut sim_jobs = 0usize;
    let mut trace: Option<TraceFormat> = None;
    let mut trace_buf: Option<TraceSpec> = None;
    let mut trace_out: Option<String> = None;
    let mut tag = false;
    let mut stats = false;
    let mut timings = false;
    let mut profile = false;
    let mut sweep: Option<String> = None;
    let mut resume: Option<String> = None;
    let mut jobs: Option<usize> = None;
    let mut json = false;
    let mut json_lines = false;

    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "-np" => {
                i += 1;
                n_pes = match args.get(i).and_then(|s| s.parse().ok()) {
                    Some(n) if n >= 1 => n,
                    _ => {
                        let got = args.get(i).map(|s| s.as_str()).unwrap_or("(nothing)");
                        eprintln!("O NOES! -np NEEDS A POSITIV NUMBR, NOT {got}\n{USAGE}");
                        return ExitCode::FAILURE;
                    }
                };
            }
            "--backend" => {
                i += 1;
                backend = match args.get(i).map(|s| s.parse::<Backend>()) {
                    Some(Ok(b)) => b,
                    _ => {
                        let got = args.get(i).map(|s| s.as_str()).unwrap_or("(nothing)");
                        eprintln!("O NOES! --backend IZ interp, vm, c OR sim, NOT {got}\n{USAGE}");
                        return ExitCode::FAILURE;
                    }
                };
            }
            "--seed" => {
                i += 1;
                seed = match args.get(i).and_then(|s| s.parse().ok()) {
                    Some(s) => s,
                    None => {
                        let got = args.get(i).map(|s| s.as_str()).unwrap_or("(nothing)");
                        eprintln!("O NOES! --seed NEEDS A NUMBR, NOT {got}\n{USAGE}");
                        return ExitCode::FAILURE;
                    }
                };
            }
            "--latency" => {
                i += 1;
                latency = match args.get(i).map(|s| s.parse::<LatencyModel>()) {
                    Some(Ok(m)) => m,
                    Some(Err(e)) => {
                        eprintln!("{e}\n{USAGE}");
                        return ExitCode::FAILURE;
                    }
                    None => {
                        eprintln!("O NOES! --latency NEEDS A MODEL\n{USAGE}");
                        return ExitCode::FAILURE;
                    }
                };
            }
            "--barrier" => {
                i += 1;
                barrier = match args.get(i).map(|s| s.parse::<BarrierKind>()) {
                    Some(Ok(b)) => b,
                    Some(Err(e)) => {
                        eprintln!("{e}\n{USAGE}");
                        return ExitCode::FAILURE;
                    }
                    None => {
                        eprintln!("O NOES! --barrier IZ central OR dissem, NOT (nothing)\n{USAGE}");
                        return ExitCode::FAILURE;
                    }
                };
            }
            "--lock" => {
                i += 1;
                lock = match args.get(i).map(|s| s.parse::<LockKind>()) {
                    Some(Ok(l)) => l,
                    Some(Err(e)) => {
                        eprintln!("{e}\n{USAGE}");
                        return ExitCode::FAILURE;
                    }
                    None => {
                        eprintln!("O NOES! --lock IZ cas OR ticket, NOT (nothing)\n{USAGE}");
                        return ExitCode::FAILURE;
                    }
                };
            }
            "--clock" => {
                i += 1;
                clock = match args.get(i).map(|s| s.parse::<ClockMode>()) {
                    Some(Ok(c)) => c,
                    Some(Err(e)) => {
                        eprintln!("{e}\n{USAGE}");
                        return ExitCode::FAILURE;
                    }
                    None => {
                        eprintln!("O NOES! --clock IZ wall OR virtual, NOT (nothing)\n{USAGE}");
                        return ExitCode::FAILURE;
                    }
                };
            }
            "--sim-jobs" => {
                i += 1;
                sim_jobs = match args.get(i).and_then(|s| s.parse().ok()) {
                    Some(n) => n,
                    None => {
                        let got = args.get(i).map(|s| s.as_str()).unwrap_or("(nothing)");
                        eprintln!("O NOES! --sim-jobs NEEDS A NUMBR, NOT {got}\n{USAGE}");
                        return ExitCode::FAILURE;
                    }
                };
            }
            a if a == "--trace" || a.starts_with("--trace=") => {
                let fmt = a.strip_prefix("--trace=").unwrap_or("gantt");
                trace = match fmt {
                    "gantt" => Some(TraceFormat::Gantt),
                    "events" => Some(TraceFormat::Events),
                    "matrix" => Some(TraceFormat::Matrix),
                    "svg" => Some(TraceFormat::Svg),
                    "perfetto" => Some(TraceFormat::Perfetto),
                    other => {
                        eprintln!(
                            "O NOES! --trace FORMAT IZ gantt, events, matrix, svg OR perfetto, NOT {other}\n{USAGE}"
                        );
                        return ExitCode::FAILURE;
                    }
                };
            }
            "--trace-out" => {
                i += 1;
                trace_out = match args.get(i) {
                    Some(p) => Some(p.clone()),
                    None => {
                        eprintln!("O NOES! --trace-out NEEDS A FILE\n{USAGE}");
                        return ExitCode::FAILURE;
                    }
                };
            }
            "--trace-buf" => {
                i += 1;
                trace_buf = match args.get(i).map(|s| s.parse::<TraceSpec>()) {
                    Some(Ok(spec)) => Some(spec),
                    Some(Err(e)) => {
                        eprintln!("{e}\n{USAGE}");
                        return ExitCode::FAILURE;
                    }
                    None => {
                        eprintln!("O NOES! --trace-buf NEEDS A BUDGET (like 64k@256)\n{USAGE}");
                        return ExitCode::FAILURE;
                    }
                };
            }
            "--sweep" => {
                i += 1;
                sweep = match args.get(i) {
                    Some(s) => Some(s.clone()),
                    None => {
                        eprintln!("O NOES! --sweep NEEDS A SPEC\n{USAGE}");
                        return ExitCode::FAILURE;
                    }
                };
            }
            "--resume" => {
                i += 1;
                resume = match args.get(i) {
                    Some(s) => Some(s.clone()),
                    None => {
                        eprintln!("O NOES! --resume NEEDS A JSONL FILE\n{USAGE}");
                        return ExitCode::FAILURE;
                    }
                };
            }
            "--jobs" => {
                i += 1;
                jobs = match args.get(i).and_then(|s| s.parse().ok()) {
                    Some(n) => Some(n),
                    None => {
                        let got = args.get(i).map(|s| s.as_str()).unwrap_or("(nothing)");
                        eprintln!("O NOES! --jobs NEEDS A NUMBR, NOT {got}\n{USAGE}");
                        return ExitCode::FAILURE;
                    }
                };
            }
            "--json" => json = true,
            "--json-lines" => json_lines = true,
            "--tag" => tag = true,
            "--stats" => stats = true,
            "--timings" => timings = true,
            "--profile" => profile = true,
            "-h" | "--help" => {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            a if a.starts_with('-') => {
                eprintln!("O NOES! I DUNNO DIS FLAG: {a}\n{USAGE}");
                return ExitCode::FAILURE;
            }
            a => {
                if input.replace(a.to_string()).is_some() {
                    eprintln!("O NOES! ONLY ONE PROGRAM AT A TIME PLZ\n{USAGE}");
                    return ExitCode::FAILURE;
                }
            }
        }
        i += 1;
    }

    let Some(input) = input else {
        eprintln!("O NOES! GIMMEH A PROGRAM 2 RUN\n{USAGE}");
        return ExitCode::FAILURE;
    };
    let src = match std::fs::read_to_string(&input) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("O NOES! CANT READ {input}: {e}");
            return ExitCode::FAILURE;
        }
    };

    // Read stdin (if piped) for GIMMEH.
    let mut stdin_lines = Vec::new();
    if !atty_stdin() {
        use std::io::BufRead;
        for line in std::io::stdin().lock().lines().map_while(Result::ok) {
            stdin_lines.push(line);
        }
    }

    // Compile once; every run below reuses the artifact.
    let artifact = match compile(&src) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    for w in artifact.warnings() {
        eprint!("{w}");
    }

    // `--trace-out` without a format means a Perfetto artifact.
    if trace_out.is_some() && trace.is_none() {
        trace = Some(TraceFormat::Perfetto);
    }
    let mut cfg = RunConfig::new(n_pes)
        .seed(seed)
        .latency(latency)
        .barrier(barrier)
        .lock(lock)
        .clock(clock)
        .sim_jobs(sim_jobs)
        .profile(profile)
        .trace(trace.is_some());
    if let Some(spec) = trace_buf {
        cfg = cfg.trace_spec(spec);
        // A budget implies tracing; on a single run default the
        // rendering to the gantt view so the capped trace is shown.
        if trace.is_none() && sweep.is_none() {
            trace = Some(TraceFormat::Gantt);
        }
    }
    cfg.input = stdin_lines;

    if json && json_lines {
        eprintln!("O NOES! PICK --json OR --json-lines, NOT BOTH\n{USAGE}");
        return ExitCode::FAILURE;
    }
    if resume.is_some() && sweep.is_none() {
        eprintln!("O NOES! --resume ONLY MEANS SOMETHING WIF --sweep\n{USAGE}");
        return ExitCode::FAILURE;
    }

    if let Some(spec) = sweep {
        if stats || tag || trace.is_some() || timings || profile {
            eprintln!(
                "O NOES! --stats, --tag, --trace, --timings AN --profile DONT WORK WIF --sweep (DA REPORT HAZ DA STATS)\n{USAGE}"
            );
            return ExitCode::FAILURE;
        }
        let opts = SweepOpts { jobs, resume, json, json_lines };
        return run_sweep(&artifact, &spec, cfg.backend(backend), opts);
    }
    // Sweep-only presentation flags make no sense on a single run.
    // `--json` is fine: it selects the stable single-run report form.
    if jobs.is_some() || json_lines {
        eprintln!("O NOES! --jobs AN --json-lines ONLY MEAN SOMETHING WIF --sweep\n{USAGE}");
        return ExitCode::FAILURE;
    }
    match engine_for(backend).run(&artifact, &cfg.backend(backend)) {
        Ok(mut report) => {
            if json {
                // The byte-stable report (`timing: false`) — keep in
                // lockstep with the lold service so `lolrun --json` and
                // `POST /run` diff clean. `--timings` opts into the
                // timing form (wall_ns, phases, sim, profile riders).
                println!("{}", lolcode::service::run_report_json(&report, timings));
                return ExitCode::SUCCESS;
            }
            let render_t0 = std::time::Instant::now();
            print_outputs(&report, tag);
            report.phases.render_ns = render_t0.elapsed().as_nanos() as u64;
            if stats {
                print_stats(&report);
            }
            if timings || profile {
                print_timings(&report);
            }
            if profile {
                print_profile(&report);
            }
            if let Some(fmt) = trace {
                if print_trace(&report, fmt, trace_out.as_deref()).is_err() {
                    return ExitCode::FAILURE;
                }
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

/// Presentation/scheduling options forwarded from the flag parser to
/// [`run_sweep`].
struct SweepOpts {
    jobs: Option<usize>,
    resume: Option<String>,
    json: bool,
    json_lines: bool,
}

/// Render the recorded trace to stderr (program output stays clean on
/// stdout; `2>file.svg` captures a timeline), or to `--trace-out`'s
/// file when one was given.
fn print_trace(report: &RunReport, fmt: TraceFormat, out: Option<&str>) -> Result<(), ()> {
    let Some(trace) = &report.trace else {
        eprintln!("HMM... NO TRACE WUZ RECORDED");
        return Ok(());
    };
    let rendered = match fmt {
        TraceFormat::Gantt => format!("{}{}", trace.gantt(100), trace.comm_matrix().render()),
        TraceFormat::Events => trace.event_log(),
        TraceFormat::Matrix => trace.comm_matrix().render(),
        TraceFormat::Svg => trace.to_svg(),
        TraceFormat::Perfetto => trace.to_perfetto(),
    };
    match out {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &rendered) {
                eprintln!("O NOES! CANT WRITE {path}: {e}");
                return Err(());
            }
            eprintln!("trace written to {path}");
        }
        None => eprint!("{rendered}"),
    }
    if let Some(vw) = report.virtual_wall {
        eprintln!("virtual wall: {vw:?} (deterministic)");
    }
    Ok(())
}

/// Pretty nanoseconds for the phase table.
fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.3}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.3}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

/// `--timings`: the per-phase breakdown (and scheduler stats on sim)
/// on stderr.
fn print_timings(report: &RunReport) {
    let p = &report.phases;
    eprintln!("== {:?} phases: {} PEs ==", report.backend, report.n_pes());
    let rows = [
        ("lex", p.lex_ns),
        ("parse", p.parse_ns),
        ("sema", p.sema_ns),
        ("compile", p.compile_ns),
        ("exec", p.exec_ns),
        ("render", p.render_ns),
    ];
    for (name, ns) in rows {
        eprintln!("  {name:<8} {:>10}", fmt_ns(ns));
    }
    eprintln!("  {:<8} {:>10}", "total", fmt_ns(p.total_ns()));
    if let Some(s) = &report.sim {
        eprintln!(
            "  sim: {} events, heap peak {}, {} barrier episodes, {} merge windows, {} events/s",
            s.events,
            s.heap_peak,
            s.barrier_episodes,
            s.merge_windows,
            s.events_per_sec(report.host_wall)
        );
    }
}

/// `--profile`: opcode totals and hot bytecode ranges on stderr (vm
/// backend; everything else explains itself and still exits 0).
fn print_profile(report: &RunReport) {
    let Some(p) = &report.profile else {
        eprintln!(
            "HMM... NO BYTECODE PROFILE ON DIS BACKEND ({:?}) — ONLY vm COUNTS OPCODES",
            report.backend
        );
        return;
    };
    eprintln!(
        "== vm profile: {} ops, {:.2}% superinstructions ==",
        p.total_ops,
        p.super_bp as f64 / 100.0
    );
    for (name, count, is_super) in p.ops.iter().take(15) {
        let tag = if *is_super { " (super)" } else { "" };
        eprintln!("  {count:>12}  {name}{tag}");
    }
    if p.ops.len() > 15 {
        eprintln!("  ... {} more opcodes", p.ops.len() - 15);
    }
    if !p.time_bp.is_empty() {
        eprintln!("share of exec time (1 dispatch in 1021 sampled):");
        for (name, bp) in p.time_bp.iter().take(15) {
            eprintln!("  {:>6.2}%  {name}", *bp as f64 / 100.0);
        }
    }
    if !p.hot.is_empty() {
        eprintln!("hot bytecode ranges:");
        for h in &p.hot {
            eprintln!("  {}[{}..{}]  {} ops", h.chunk, h.start, h.end, h.count);
        }
    }
}

/// `--sweep`: parse the spec over the base config, fan the matrix out
/// over the worker pool, and print a scaling table (or JSON / JSONL).
///
/// Exit code: failure only for *hard* failures (parse errors, runtime
/// faults, backend disagreement). Engines the machine simply doesn't
/// have (e.g. `backend=c` without a C compiler) are reported as
/// UNSUPPORTED entries and don't fail the sweep.
fn run_sweep(artifact: &Compiled, spec: &str, base: RunConfig, opts: SweepOpts) -> ExitCode {
    let SweepOpts { jobs, resume, json, json_lines } = opts;
    let mut spec = match SweepSpec::parse(spec, base) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(j) = jobs {
        spec = spec.jobs(j);
    }
    // `--resume`: collect the previous run's completed configs; only
    // the missing/failed ones run below.
    let done = match &resume {
        Some(path) => match std::fs::read_to_string(path) {
            Ok(text) => {
                let done = parse_jsonl_done(&text);
                eprintln!("HMM... --resume FOUND {} FINISHED CONFIGS IN {path}", done.len());
                done
            }
            Err(e) => {
                eprintln!("O NOES! CANT READ --resume FILE {path}: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => Default::default(),
    };
    let report = if json_lines {
        // Stream one record per completed config. `println!` locks
        // stdout per call, so records from racing workers stay intact.
        let report = spec.run_resumable(artifact, &done, |i, cfg, result| {
            println!("{}", jsonl_record(i, cfg, result));
        });
        let mut summary = String::new();
        let mut w = Writer::new(&mut summary);
        w.begin_obj().key("summary").bool(true);
        w.key("configs").num(report.entries.len()).key("ok").num(report.ok_count());
        w.key("unsupported").num(report.unsupported_count());
        w.key("skipped").num(report.skipped_count()).key("jobs").num(report.jobs);
        w.key("total_wall_ns").num(report.total_wall.as_nanos()).end_obj();
        println!("{summary}");
        report
    } else {
        let report = spec.run_resumable(artifact, &done, |_, _, _| {});
        if json {
            print!("{}", report.to_json());
        } else {
            print!("{}", report.speedup_table());
        }
        report
    };
    // Cross-backend agreement: interp and vm share the substrate (and
    // its RNG), and sim replays the same per-PE RNG stream, so any two
    // ok entries that differ only in those backends must have
    // identical per-PE output, across the whole matrix. The C
    // backend is exempt: its WHATEVR stream is the stub's own RNG, so
    // only the equivalence tests (which avoid WHATEVR) pin it.
    let mut disagreement = false;
    let diffable = [Backend::Interp, Backend::Vm, Backend::Sim];
    for (i, a) in report.entries.iter().enumerate() {
        for b in &report.entries[i + 1..] {
            if a.config.backend != b.config.backend
                && diffable.contains(&a.config.backend)
                && diffable.contains(&b.config.backend)
                && a.config.n_pes == b.config.n_pes
                && a.config.seed == b.config.seed
                && a.config.latency == b.config.latency
                && a.config.barrier == b.config.barrier
                && a.config.lock == b.config.lock
                && a.config.clock == b.config.clock
                && a.result.is_ok()
                && b.result.is_ok()
                && a.output_hash() != b.output_hash()
            {
                eprintln!(
                    "O NOES! DA BACKENDS DISAGREE AT pes={} seed={}: {} != {}",
                    a.config.n_pes, a.config.seed, a.config.backend, b.config.backend
                );
                disagreement = true;
            }
        }
    }
    let hard = report.hard_failure_count();
    if report.unsupported_count() > 0 {
        eprintln!(
            "HMM... {} OF {} CONFIGS R UNSUPPORTED ON DIS MACHINE (NOT COUNTED AS FAILURES)",
            report.unsupported_count(),
            report.entries.len()
        );
    }
    if hard > 0 {
        eprintln!("O NOES! {hard} OF {} SWEEP CONFIGS HAZ A SAD", report.entries.len());
    }
    if hard == 0 && !disagreement {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn print_outputs(report: &RunReport, tag: bool) {
    for (pe, out) in report.outputs.iter().enumerate() {
        if tag {
            for line in out.lines() {
                println!("[PE {pe}] {line}");
            }
        } else {
            print!("{out}");
        }
    }
}

/// Per-PE `CommStats` plus job totals and wall time, on stderr (so
/// program output stays pipeable).
fn print_stats(report: &RunReport) {
    match report.virtual_wall {
        Some(vw) => eprintln!(
            "== {:?} stats: {} PEs, wall {:?}, virtual wall {:?} ==",
            report.backend,
            report.n_pes(),
            report.wall,
            vw
        ),
        None => {
            eprintln!(
                "== {:?} stats: {} PEs, wall {:?} ==",
                report.backend,
                report.n_pes(),
                report.wall
            )
        }
    }
    for (pe, s) in report.stats.iter().enumerate() {
        eprintln!("[PE {pe}] {s}");
    }
    // Barriers are collective: every PE counts the same episode, so
    // the job-wide number is per-PE, not a sum.
    let total = report.total_stats();
    eprintln!(
        "[job]  gets {}/{} (local/remote), puts {}/{}, block words {}/{} (get/put), \
         amos {}, barriers {}/PE, locks {}+{}t/{}r | remote fraction {:.1}%",
        total.local_gets,
        total.remote_gets,
        total.local_puts,
        total.remote_puts,
        total.block_get_words,
        total.block_put_words,
        total.amos,
        report.stats[0].barriers,
        total.lock_acquires,
        total.lock_tries,
        total.lock_releases,
        100.0 * total.remote_fraction()
    );
}

/// Crude isatty: when stdin can't give us a size hint treat it as a
/// terminal (don't block waiting for input).
fn atty_stdin() -> bool {
    use std::io::IsTerminal;
    std::io::stdin().is_terminal()
}
