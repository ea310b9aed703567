//! Sweep-orchestrator integration tests: determinism across worker
//! counts, stable-JSON byte-identity, and (ignored by default) the
//! wall-clock win from running independent configs concurrently.

use icanhas::prelude::*;
use std::time::{Duration, Instant};

/// A workload whose *duration* varies per config: the seeded `WHATEVR`
/// picks the iteration count, so different seeds/PE counts finish at
/// different times and a racing worker pool completes them out of
/// order — exactly what the config-order result contract must absorb.
const RANDOM_DURATION: &str = "\
HAI 1.2
I HAS A n ITZ SUM OF 2000 AN MOD OF WHATEVR AN 8000
I HAS A acc ITZ SRSLY A NUMBR AN ITZ 0
IM IN YR l UPPIN YR i TIL BOTH SAEM i AN n
  acc R SUM OF acc AN MOD OF PRODUKT OF i AN 7 AN 13
IM OUTTA YR l
VISIBLE \"PE \" ME \" DID \" n \" ITERASHUNS, ACC \" acc
KTHXBYE
";

fn spec() -> SweepSpec {
    SweepSpec::over(RunConfig::new(1).timeout(Duration::from_secs(60)))
        .pes([1, 2, 3, 4])
        .seeds([11, 12, 13])
        .backends([Backend::Interp, Backend::Vm])
}

#[test]
fn sweep_is_deterministic_across_job_counts() {
    let artifact = compile(RANDOM_DURATION).unwrap();
    let serial = spec().jobs(1).run(&artifact);
    let racing = spec().jobs(4).run(&artifact);
    assert_eq!(serial.entries.len(), 24);
    assert_eq!(racing.entries.len(), 24);
    for (i, (a, b)) in serial.entries.iter().zip(&racing.entries).enumerate() {
        // Same config in the same slot...
        assert_eq!(a.config.n_pes, b.config.n_pes, "slot {i}");
        assert_eq!(a.config.seed, b.config.seed, "slot {i}");
        assert_eq!(a.config.backend, b.config.backend, "slot {i}");
        // ...with identical per-PE outputs and communication shape.
        let (ra, rb) = (a.result.as_ref().unwrap(), b.result.as_ref().unwrap());
        assert_eq!(ra.outputs, rb.outputs, "slot {i}");
        assert_eq!(ra.stats, rb.stats, "slot {i}");
    }
    // The timing-free JSON renderings are byte-identical.
    assert_eq!(serial.to_json_stable(), racing.to_json_stable());
    // And a re-run of the same sweep reproduces them again.
    let again = spec().jobs(4).run(&artifact);
    assert_eq!(again.to_json_stable(), racing.to_json_stable());
}

#[test]
fn sweep_interleaves_backends_without_cross_talk() {
    // Interp and VM configs race on the same artifact (and trigger the
    // lazy VM lowering concurrently); outputs must still match the
    // engine-equivalence contract pairwise.
    let artifact = compile(RANDOM_DURATION).unwrap();
    let report = spec().jobs(6).run(&artifact);
    let (interp, vm) = report.entries.split_at(12);
    for (a, b) in interp.iter().zip(vm) {
        assert_eq!(a.config.n_pes, b.config.n_pes);
        assert_eq!(a.config.seed, b.config.seed);
        assert_eq!(
            a.result.as_ref().unwrap().outputs,
            b.result.as_ref().unwrap().outputs,
            "engines diverge at {} PEs seed {}",
            a.config.n_pes,
            a.config.seed
        );
    }
}

/// The checked-in program CI's smoke sweep runs (`corpus/heat2d_4x8.lol`)
/// must stay in sync with the corpus generator it was written from, and
/// the exact CI sweep spec must succeed against it.
#[test]
fn checked_in_heat2d_matches_corpus_and_ci_sweep_passes() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/corpus/heat2d_4x8.lol");
    let on_disk = std::fs::read_to_string(path).expect("corpus/heat2d_4x8.lol exists");
    assert_eq!(
        on_disk,
        corpus::heat2d_source(4, 8, 20),
        "regenerate corpus/heat2d_4x8.lol from corpus::heat2d_source(4, 8, 20)"
    );
    let artifact = compile(&on_disk).unwrap();
    // Same matrix as .github/workflows/ci.yml: pes=1..4, both backends.
    let report = SweepSpec::over(RunConfig::new(1).timeout(Duration::from_secs(60)))
        .pes([1, 2, 3, 4])
        .backends([Backend::Interp, Backend::Vm])
        .jobs(2)
        .run(&artifact);
    assert!(report.all_ok(), "{}", report.speedup_table());
    assert_eq!(report.entries.len(), 8);
}

/// The acceptance matrix for the C backend: the CI 3-backend smoke
/// sweep spec (`pes=1,2,4;backend=interp,vm,c`) against the checked-in
/// heat stencil. On a machine with a C compiler every config must run
/// and agree with interp per config; without one the C entries must
/// degrade to UNSUPPORTED and never count as hard failures.
#[test]
fn three_backend_ci_sweep_runs_or_degrades_cleanly() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/corpus/heat2d_4x8.lol");
    let on_disk = std::fs::read_to_string(path).unwrap();
    let artifact = compile(&on_disk).unwrap();
    let spec = SweepSpec::parse(
        "pes=1,2,4;backend=interp,vm,c",
        RunConfig::new(1).timeout(Duration::from_secs(120)),
    )
    .unwrap();
    let report = spec.run(&artifact);
    assert_eq!(report.entries.len(), 9);
    assert_eq!(report.hard_failure_count(), 0, "{}", report.speedup_table());
    let c_available = engine_for(Backend::C).available();
    if c_available {
        assert!(report.all_ok(), "{}", report.speedup_table());
        // Per-config agreement across all three backends (heat2d is
        // deterministic, so the C stub's own RNG plays no part).
        for chunk in report.entries.chunks(3) {
            // entries are grouped per backend, 3 PE counts each
            assert_eq!(chunk.len(), 3);
        }
        for i in 0..3 {
            let interp_hash = report.entries[i].output_hash();
            assert_eq!(interp_hash, report.entries[3 + i].output_hash(), "vm pes idx {i}");
            assert_eq!(interp_hash, report.entries[6 + i].output_hash(), "c pes idx {i}");
        }
        // The cross-backend columns exist for every non-interp entry.
        assert!(report.entries[3..].iter().all(|e| e.vs_interp.is_some()));
    } else {
        assert_eq!(report.unsupported_count(), 3, "{}", report.speedup_table());
        assert_eq!(report.ok_count(), 6);
    }
}

/// The full interconnect matrix (the acceptance sweep for the C
/// backend's latency/barrier/lock support): 4 backends × 2 latency
/// models × 2 barrier algorithms × 2 lock algorithms × 3 PE counts on
/// the checked-in heat stencil. With a C compiler present, **zero**
/// UNSUPPORTED rows; without one, exactly the C quarter degrades. In
/// both cases outputs must not depend on latency/barrier/lock — those
/// knobs change timing, never results.
#[test]
fn full_interconnect_matrix_has_no_unsupported_rows() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/corpus/heat2d_4x8.lol");
    let on_disk = std::fs::read_to_string(path).unwrap();
    let artifact = compile(&on_disk).unwrap();
    let spec = SweepSpec::parse(
        "backend=all;latency=flat,mesh;barrier=central,dissem;lock=cas,ticket;pes=1,2,4",
        RunConfig::new(1).timeout(Duration::from_secs(120)),
    )
    .unwrap();
    let report = spec.run(&artifact);
    assert_eq!(report.entries.len(), 4 * 2 * 2 * 2 * 3);
    assert_eq!(report.hard_failure_count(), 0, "{}", report.speedup_table());
    if engine_for(Backend::C).available() {
        assert_eq!(report.unsupported_count(), 0, "{}", report.speedup_table());
        assert!(report.all_ok());
    } else {
        assert_eq!(report.unsupported_count(), 24, "only the C quarter may degrade");
    }
    // heat2d is deterministic: every ok entry — any backend, any
    // latency model, any barrier, any lock — at the same PE count must
    // produce identical output.
    for pes in [1usize, 2, 4] {
        let hashes: Vec<_> = report
            .entries
            .iter()
            .filter(|e| e.config.n_pes == pes && e.result.is_ok())
            .filter_map(|e| e.output_hash())
            .collect();
        assert!(!hashes.is_empty());
        assert!(
            hashes.iter().all(|h| h == &hashes[0]),
            "outputs diverge across the ablation matrix at {pes} PEs"
        );
    }
    // The report JSON groups by the new axes: every combination shows
    // up as its own (barrier, lock) label pair.
    let json = report.to_json_stable();
    for needle in [
        "\"barrier\": \"central\"",
        "\"barrier\": \"dissem\"",
        "\"lock\": \"cas\"",
        "\"lock\": \"ticket\"",
    ] {
        assert!(json.contains(needle), "report JSON lacks {needle}");
    }
}

/// Resumable sweeps: a previous `--json-lines` file's ok entries are
/// skipped, failed/missing entries re-run, and the combined picture is
/// a complete matrix.
#[test]
fn resume_skips_finished_configs_and_reruns_the_rest() {
    use std::sync::Mutex;
    let artifact = compile(corpus::HELLO_PARALLEL).unwrap();
    let spec = || {
        SweepSpec::over(RunConfig::new(1).timeout(Duration::from_secs(60)))
            .pes([1, 2, 3, 4])
            .backends([Backend::Interp, Backend::Vm])
    };
    // First run: pretend the sweep died after the interp half by
    // keeping only those four JSONL records.
    let lines: Mutex<Vec<String>> = Mutex::new(Vec::new());
    let first = spec().run_with(&artifact, |i, cfg, result| {
        lines.lock().unwrap().push(lolcode::jsonl_record(i, cfg, result));
    });
    assert!(first.all_ok());
    let partial: String = {
        let mut lines = lines.into_inner().unwrap();
        lines.sort(); // completion order is racy; index field sorts interp first
        lines.truncate(4);
        lines.join("\n")
    };
    let done = parse_jsonl_done(&partial);
    assert_eq!(done.len(), 4, "{partial}");
    // Second run resumes: 4 skipped, 4 executed, zero hard failures.
    let resumed = spec().run_resumable(&artifact, &done, |_, _, _| {});
    assert_eq!(resumed.skipped_count(), 4);
    assert_eq!(resumed.ok_count(), 4);
    assert_eq!(resumed.hard_failure_count(), 0);
    assert!(!resumed.all_ok(), "skipped entries are not successes");
    let table = resumed.speedup_table();
    assert!(table.contains("SKIPPED") && table.contains("4 skipped via --resume"), "{table}");
    // Skipped entries surface in JSON with the skipped flag, and every
    // executed slot matches what the first run produced.
    assert!(resumed.to_json().contains("\"skipped\": true"));
    for (a, b) in first.entries.iter().zip(&resumed.entries) {
        assert_eq!(lolcode::config_key(&a.config), lolcode::config_key(&b.config));
        if let Ok(rb) = &b.result {
            assert_eq!(a.result.as_ref().unwrap().outputs, rb.outputs);
        }
    }
    // A fully-done file skips everything; an empty file skips nothing.
    let all_done: std::collections::HashSet<String> =
        first.entries.iter().map(|e| lolcode::config_key(&e.config)).collect();
    assert_eq!(spec().run_resumable(&artifact, &all_done, |_, _, _| {}).skipped_count(), 8);
    assert_eq!(spec().run(&artifact).skipped_count(), 0);
}

/// `parse_jsonl_done` only trusts ok records and tolerates junk,
/// summaries and legacy files without a `clock` field.
#[test]
fn jsonl_done_parser_filters_failures_and_junk() {
    let text = r#"{"index": 0, "backend": "interp", "pes": 2, "seed": 7, "latency": "off", "barrier": "central", "lock": "cas", "clock": "wall", "ok": true, "wall_ns": 5}
{"index": 1, "backend": "vm", "pes": 2, "seed": 7, "latency": "off", "barrier": "central", "lock": "cas", "clock": "wall", "ok": false, "error": "O NOES"}
{"index": 2, "backend": "c", "pes": 4, "seed": 9, "latency": "mesh:4:50:11", "barrier": "dissem", "lock": "ticket", "ok": true, "wall_ns": 5}
{"summary": true, "configs": 3, "ok": 2}
not json at all"#;
    let done = parse_jsonl_done(text);
    assert_eq!(done.len(), 2, "{done:?}");
    assert!(done.contains("interp|off|central|cas|wall|7|2"));
    // Legacy record without clock defaults to wall.
    assert!(done.contains("c|mesh:4:50:11|dissem|ticket|wall|9|4"));
}

/// The done-set reads fields by name, so a file re-serialized
/// compactly (`jq -c`, Python's `separators=(',', ':')`) or with its
/// keys reordered resumes exactly like the original, and a record cut
/// off mid-line is malformed, not done.
#[test]
fn jsonl_done_parser_ignores_layout() {
    let spaced = r#"{"index": 0, "backend": "interp", "pes": 2, "seed": 7, "latency": "off", "barrier": "central", "lock": "cas", "clock": "virtual", "ok": true, "wall_ns": 5}
{"index": 1, "backend": "vm", "pes": 2, "seed": 7, "latency": "off", "barrier": "central", "lock": "cas", "clock": "wall", "ok": false, "error": "O NOES"}
{"index": 2, "backend": "c", "pes": 4, "seed": 9, "latency": "mesh:4:50:11", "barrier": "dissem", "lock": "ticket", "ok": true, "wall_ns": 5}
{"summary": true, "configs": 3, "ok": 2}
not json at all"#;
    let compact = spaced.replace("\": ", "\":").replace(", \"", ",\"");
    assert!(!compact.contains(": "), "{compact}");
    let reordered = r#"{"ok":true,"clock":"virtual","lock":"cas","barrier":"central","latency":"off","seed":7,"pes":2,"backend":"interp"}
  { "ok" : true , "pes" : 4 , "seed" : 9 , "backend" : "c" , "latency" : "mesh:4:50:11" , "barrier" : "dissem" , "lock" : "ticket" }
{"index": 3, "backend": "sim", "pes": 8, "seed": 7, "latency": "off", "barrier": "central", "lock": "cas", "clock": "wall", "ok": true, "wall_"#;
    let done = parse_jsonl_done(spaced);
    assert_eq!(done.len(), 2, "{done:?}");
    assert!(done.contains("interp|off|central|cas|virtual|7|2"));
    assert!(done.contains("c|mesh:4:50:11|dissem|ticket|wall|9|4"));
    assert_eq!(parse_jsonl_done(&compact), done);
    assert_eq!(parse_jsonl_done(reordered), done, "the cut-off sim record is not done");
}

/// The thread budget keeps `jobs × PEs` inside the core count without
/// changing a single byte of the results.
#[test]
fn thread_budget_does_not_change_results() {
    let artifact = compile(RANDOM_DURATION).unwrap();
    let unbounded = spec().jobs(4).threads(usize::MAX).run(&artifact);
    let tight = spec().jobs(4).threads(1).run(&artifact);
    assert!(unbounded.all_ok() && tight.all_ok());
    assert_eq!(unbounded.to_json_stable(), tight.to_json_stable());
}

/// Streaming callbacks fire once per config with the final result —
/// the JSONL records and the end-of-run report must tell one story.
#[test]
fn streaming_entries_match_the_final_report() {
    use std::sync::Mutex;
    let artifact = compile(RANDOM_DURATION).unwrap();
    let streamed: Mutex<Vec<(usize, String)>> = Mutex::new(Vec::new());
    let report = spec().jobs(3).run_with(&artifact, |i, cfg, result| {
        streamed.lock().unwrap().push((i, jsonl_record(i, cfg, result)));
    });
    let mut streamed = streamed.into_inner().unwrap();
    streamed.sort_by_key(|(i, _)| *i);
    assert_eq!(streamed.len(), report.entries.len());
    for ((i, line), entry) in streamed.iter().zip(&report.entries) {
        assert!(line.contains(&format!("\"index\": {i}")));
        assert!(line.contains(&format!("\"backend\": \"{}\"", entry.config.backend)));
        let hash = format!("{:016x}", entry.output_hash().unwrap());
        assert!(line.contains(&hash), "record {i} must carry the final output hash");
    }
}

/// Acceptance check for the scheduler's point: ≥8 configs of a
/// non-trivial corpus program complete measurably faster on 4 workers
/// than on 1, with byte-identical stable reports. Timing-sensitive, so
/// ignored by default — run with `cargo test -- --ignored sweep_scales`.
#[test]
#[ignore = "timing-sensitive; run explicitly: cargo test -- --ignored"]
fn sweep_scales_with_worker_count() {
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    if cores < 2 {
        eprintln!("skipping: {cores} core(s) cannot demonstrate worker-pool speedup");
        return;
    }
    let artifact = compile(&corpus::nbody_source(10, 3)).unwrap();
    let spec = SweepSpec::over(RunConfig::new(1).timeout(Duration::from_secs(120)))
        .pes([1, 2])
        .seeds([1, 2])
        .backends([Backend::Interp, Backend::Vm]); // 8 configs
    assert!(spec.configs().len() >= 8);

    let t0 = Instant::now();
    let serial = spec.clone().jobs(1).run(&artifact);
    let serial_wall = t0.elapsed();

    let t1 = Instant::now();
    let parallel = spec.jobs(4).run(&artifact);
    let parallel_wall = t1.elapsed();

    assert!(serial.all_ok() && parallel.all_ok());
    assert_eq!(serial.to_json_stable(), parallel.to_json_stable());
    // Loose: 4 workers must beat 1 worker by a real margin (the jobs
    // are seconds-scale compute, so scheduling noise is small).
    assert!(
        parallel_wall < serial_wall.mul_f64(0.8),
        "no speedup from workers: serial {serial_wall:?} vs parallel {parallel_wall:?}"
    );
}
