//! Experiment VI.E — the command-line workflow:
//! `lcc code.lol -o out.c` and `lolrun -np N code.lol`.

use std::io::Write;
use std::process::{Command, Stdio};

fn write_temp(name: &str, content: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("lolcli_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let p = dir.join(name);
    std::fs::write(&p, content).unwrap();
    p
}

const HELLO: &str = "HAI 1.2\nVISIBLE \"HAI ITZ \" ME \" OF \" MAH FRENZ\nKTHXBYE\n";

#[test]
fn lolrun_executes_on_n_pes() {
    let prog = write_temp("hello.lol", HELLO);
    let out =
        Command::new(env!("CARGO_BIN_EXE_lolrun")).args(["-np", "3"]).arg(&prog).output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert_eq!(stdout, "HAI ITZ 0 OF 3\nHAI ITZ 1 OF 3\nHAI ITZ 2 OF 3\n");
}

#[test]
fn lolrun_vm_backend_and_tagging() {
    let prog = write_temp("hello2.lol", HELLO);
    let out = Command::new(env!("CARGO_BIN_EXE_lolrun"))
        .args(["-np", "2", "--backend", "vm", "--tag"])
        .arg(&prog)
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert_eq!(stdout, "[PE 0] HAI ITZ 0 OF 2\n[PE 1] HAI ITZ 1 OF 2\n");
}

#[test]
fn lolrun_stats_prints_per_pe_comm_stats_on_stderr() {
    let prog = write_temp("stats.lol", HELLO);
    let out = Command::new(env!("CARGO_BIN_EXE_lolrun"))
        .args(["-np", "2", "--stats"])
        .arg(&prog)
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    // Program output stays clean on stdout...
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert_eq!(stdout, "HAI ITZ 0 OF 2\nHAI ITZ 1 OF 2\n");
    // ...stats land on stderr, one line per PE plus job totals.
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("Interp stats: 2 PEs, wall"), "{stderr}");
    assert!(stderr.contains("[PE 0]"), "{stderr}");
    assert!(stderr.contains("[PE 1]"), "{stderr}");
    assert!(stderr.contains("[job]"), "{stderr}");
}

/// `--backend both` was removed: it must exit non-zero with the generic
/// `--backend` usage error and print nothing on stdout.
fn assert_backend_both_is_a_usage_error(extra: &[&str]) {
    let prog = write_temp("both.lol", HELLO);
    let out = Command::new(env!("CARGO_BIN_EXE_lolrun"))
        .args(["--backend", "both"])
        .args(extra)
        .arg(&prog)
        .output()
        .unwrap();
    assert!(!out.status.success(), "{extra:?}");
    assert!(out.stdout.is_empty(), "{extra:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--backend IZ interp, vm, c OR sim, NOT both"), "{stderr}");
    assert!(stderr.contains("usage: lolrun"), "{stderr}");
}

#[test]
fn lolrun_backend_both_is_a_usage_error() {
    assert_backend_both_is_a_usage_error(&[]);
}

#[test]
fn lolrun_backend_both_with_sweep_is_a_usage_error() {
    // A sweep spec no longer has a `--backend both` flag to override:
    // the flag is rejected before the spec is looked at.
    assert_backend_both_is_a_usage_error(&["--sweep", "backend=vm;pes=1,2"]);
}

#[test]
fn lolrun_interp_vm_sweep_rejects_interp_only_programs() {
    // SRS runs on the interpreter but cannot lower to bytecode, so the
    // sweep must fail loudly (FAILED vm entry) rather than silently
    // compare one engine against nothing.
    let prog = write_temp("srs.lol", "HAI 1.2\nI HAS A x ITZ 1\nVISIBLE SRS \"x\"\nKTHXBYE\n");
    let out = Command::new(env!("CARGO_BIN_EXE_lolrun"))
        .args(["--sweep", "backend=interp,vm"])
        .arg(&prog)
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("VMC0001"), "{stdout}");
    assert!(stdout.contains("FAILED"), "{stdout}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("HAZ A SAD"), "{stderr}");
}

#[test]
fn lolrun_c_backend_runs_or_reports_unsupported() {
    // `--backend c` is the paper's lcc path as a first-class engine:
    // with a system C compiler it must produce the same per-PE output
    // as the other engines; without one it must say so clearly.
    let prog = write_temp("cback.lol", HELLO);
    let out = Command::new(env!("CARGO_BIN_EXE_lolrun"))
        .args(["-np", "3", "--backend", "c"])
        .arg(&prog)
        .output()
        .unwrap();
    if out.status.success() {
        let stdout = String::from_utf8(out.stdout).unwrap();
        assert_eq!(stdout, "HAI ITZ 0 OF 3\nHAI ITZ 1 OF 3\nHAI ITZ 2 OF 3\n");
    } else {
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("NO C COMPILER"), "{stderr}");
    }
}

#[test]
fn lolrun_three_backend_sweep_reports_all_engines() {
    // All three of the paper's execution paths in one matrix.
    let prog = write_temp("sweep3.lol", HELLO);
    let out = Command::new(env!("CARGO_BIN_EXE_lolrun"))
        .args(["--sweep", "pes=1,2;backend=interp,vm,c", "--json"])
        .arg(&prog)
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("\"configs\": 6"), "{stdout}");
    for backend in ["interp", "vm", "c"] {
        assert!(stdout.contains(&format!("\"backend\": \"{backend}\"")), "{stdout}");
    }
    assert!(stdout.contains("\"vs_interp\""), "{stdout}");
    // Either the C engine ran (ok) or it is flagged unsupported —
    // never a hard failure.
    let c_ran = !stdout.contains("\"unsupported\": true");
    if c_ran {
        assert!(!stdout.contains("\"ok\": false"), "{stdout}");
    }
}

#[test]
fn lolrun_json_lines_streams_one_record_per_config() {
    let prog = write_temp("jsonl.lol", HELLO);
    let out = Command::new(env!("CARGO_BIN_EXE_lolrun"))
        .args(["--sweep", "pes=1..3", "--json-lines"])
        .arg(&prog)
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8(out.stdout).unwrap();
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 4, "3 entry records + 1 summary: {stdout}");
    for line in &lines[..3] {
        assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        assert!(line.contains("\"index\":"), "{line}");
        assert!(line.contains("\"output_hash\""), "{line}");
    }
    assert!(lines[3].contains("\"summary\": true"), "{stdout}");
    assert!(lines[3].contains("\"ok\": 3"), "{stdout}");
    // --json and --json-lines are mutually exclusive.
    let out = Command::new(env!("CARGO_BIN_EXE_lolrun"))
        .args(["--sweep", "pes=1", "--json", "--json-lines"])
        .arg(&prog)
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("NOT BOTH"));
}

#[test]
fn lolrun_rejects_bad_flag_values_with_usage() {
    let prog = write_temp("hello3.lol", HELLO);
    for (flag, bad) in
        [("--backend", "turbo"), ("--latency", "warp"), ("-np", "zero"), ("--seed", "cat")]
    {
        let out = Command::new(env!("CARGO_BIN_EXE_lolrun"))
            .args([flag, bad])
            .arg(&prog)
            .output()
            .unwrap();
        assert!(!out.status.success(), "{flag} {bad} should fail");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("O NOES!"), "{stderr}");
        assert!(stderr.contains(bad), "error should echo the bad value: {stderr}");
        assert!(stderr.contains("usage:"), "{stderr}");
    }
}

#[test]
fn lolrun_sweep_prints_scaling_table() {
    let prog = write_temp("sweep.lol", HELLO);
    let out = Command::new(env!("CARGO_BIN_EXE_lolrun"))
        .args(["--sweep", "pes=1..4;seeds=2", "--jobs", "2"])
        .arg(&prog)
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("backend"), "{stdout}");
    assert!(stdout.contains("speedup"), "{stdout}");
    assert!(stdout.contains("8 configs, 8 ok"), "{stdout}");
}

#[test]
fn lolrun_sweep_json_is_machine_readable() {
    let prog = write_temp("sweepj.lol", HELLO);
    let out = Command::new(env!("CARGO_BIN_EXE_lolrun"))
        .args(["--sweep", "pes=1,2;latency=off,torus:2x1", "--json"])
        .arg(&prog)
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("\"configs\": 4"), "{stdout}");
    assert!(stdout.contains("\"latency\": \"torus:2x1:50:11\""), "{stdout}");
    assert!(stdout.contains("\"output_hash\""), "{stdout}");
}

#[test]
fn lolrun_jobs_and_json_lines_require_sweep() {
    let prog = write_temp("nosweep.lol", HELLO);
    for flags in [vec!["--jobs", "2"], vec!["--json-lines"]] {
        let out =
            Command::new(env!("CARGO_BIN_EXE_lolrun")).args(&flags).arg(&prog).output().unwrap();
        assert!(!out.status.success(), "{flags:?} without --sweep should fail");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("ONLY MEAN SOMETHING WIF --sweep"), "{stderr}");
    }
}

#[test]
fn lolrun_json_works_on_single_runs() {
    // --json on a plain run prints the stable run-report body — the
    // same bytes the lold service returns from POST /run (pinned
    // byte-for-byte in tests/lold_bin.rs).
    let prog = write_temp("singlejson.lol", HELLO);
    let out = Command::new(env!("CARGO_BIN_EXE_lolrun"))
        .args(["-np", "2", "--json"])
        .arg(&prog)
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.starts_with("{\"backend\": "), "{stdout}");
    assert!(stdout.contains("\"ok\": true"), "{stdout}");
    assert!(stdout.contains("\"outputs\": ["), "{stdout}");
}

#[test]
fn lolrun_stats_and_tag_are_rejected_with_sweep() {
    // Single-run presentation flags don't apply to a sweep report;
    // reject loudly instead of silently ignoring the request.
    let prog = write_temp("sweepstats.lol", HELLO);
    for flag in ["--stats", "--tag"] {
        let out = Command::new(env!("CARGO_BIN_EXE_lolrun"))
            .args(["--sweep", "pes=1,2", flag])
            .arg(&prog)
            .output()
            .unwrap();
        assert!(!out.status.success(), "{flag} with --sweep should fail");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("DONT WORK WIF --sweep"), "{stderr}");
    }
}

#[test]
fn lolrun_sweep_rejects_absurd_matrices_fast() {
    let prog = write_temp("sweephuge.lol", HELLO);
    let t0 = std::time::Instant::now();
    let out = Command::new(env!("CARGO_BIN_EXE_lolrun"))
        .args(["--sweep", "pes=1..4000000000"])
        .arg(&prog)
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("O NOES!"));
    assert!(t0.elapsed() < std::time::Duration::from_secs(5), "rejection must be instant");
}

#[test]
fn lolrun_sweep_rejects_bad_spec_and_zero_width_mesh() {
    let prog = write_temp("sweepbad.lol", HELLO);
    for spec in ["pes=wat", "latency=mesh:0", "warp=9"] {
        let out = Command::new(env!("CARGO_BIN_EXE_lolrun"))
            .args(["--sweep", spec])
            .arg(&prog)
            .output()
            .unwrap();
        assert!(!out.status.success(), "{spec} should fail");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("O NOES!"), "{stderr}");
    }
}

#[test]
fn lolrun_reports_errors_lolcode_style() {
    let prog = write_temp("bad.lol", "HAI 1.2\nVISIBLE ghost\nKTHXBYE\n");
    let out = Command::new(env!("CARGO_BIN_EXE_lolrun")).arg(&prog).output().unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("O NOES!"), "{stderr}");
    assert!(stderr.contains("SEM0001"), "{stderr}");
}

#[test]
fn lolrun_pipes_stdin_to_gimmeh() {
    let prog =
        write_temp("echo.lol", "HAI 1.2\nI HAS A x\nGIMMEH x\nVISIBLE \"GOT \" x\nKTHXBYE\n");
    let mut child = Command::new(env!("CARGO_BIN_EXE_lolrun"))
        .args(["-np", "1"])
        .arg(&prog)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .unwrap();
    child.stdin.take().unwrap().write_all(b"CHEEZ\n").unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success());
    assert_eq!(String::from_utf8(out.stdout).unwrap(), "GOT CHEEZ\n");
}

#[test]
fn lcc_emits_c_to_stdout_and_file() {
    let prog = write_temp("tr.lol", "HAI 1.2\nHUGZ\nVISIBLE ME\nKTHXBYE\n");
    // stdout mode
    let out = Command::new(env!("CARGO_BIN_EXE_lcc")).arg(&prog).output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let c = String::from_utf8(out.stdout).unwrap();
    assert!(c.contains("shmem_barrier_all();"));
    // -o file mode with --stub
    let c_path = prog.with_file_name("tr.c");
    let out = Command::new(env!("CARGO_BIN_EXE_lcc"))
        .arg(&prog)
        .arg("-o")
        .arg(&c_path)
        .arg("--stub")
        .output()
        .unwrap();
    assert!(out.status.success());
    assert!(c_path.exists());
    assert!(c_path.with_file_name("shmem.h").exists(), "--stub writes shmem.h");
}

#[test]
fn lcc_full_paper_workflow_compiles_with_cc() {
    // Section VI.E end-to-end: lcc -> cc -> run (np=1 stub).
    let prog = write_temp(
        "work.lol",
        "HAI 1.2\nI HAS A x ITZ SRSLY A NUMBR AN ITZ 40\nx R SUM OF x AN 2\nVISIBLE x\nKTHXBYE\n",
    );
    let c_path = prog.with_file_name("work.c");
    let status = Command::new(env!("CARGO_BIN_EXE_lcc"))
        .arg(&prog)
        .arg("-o")
        .arg(&c_path)
        .arg("--stub")
        .status()
        .unwrap();
    assert!(status.success());
    let bin = prog.with_file_name("work.x");
    let cc = Command::new("cc")
        .arg("-std=c99")
        .arg("-pthread")
        .arg("-I")
        .arg(c_path.parent().unwrap())
        .arg(&c_path)
        .arg("-lm")
        .arg("-o")
        .arg(&bin)
        .output()
        .unwrap();
    assert!(cc.status.success(), "{}", String::from_utf8_lossy(&cc.stderr));
    // No env: the stub behaves like the old single-PE one.
    let run = Command::new(&bin).output().unwrap();
    assert!(run.status.success());
    assert_eq!(String::from_utf8(run.stdout).unwrap(), "42\n");
    // The same binary fans out over threads when asked to, capturing
    // each PE's output separately (multi-PE prints race on a shared
    // stdout, so the capture files are the deterministic view).
    let cap = prog.with_file_name("cap");
    let run =
        Command::new(&bin).env("LOL_STUB_NPES", "3").env("LOL_STUB_OUT", &cap).output().unwrap();
    assert!(run.status.success());
    for pe in 0..3 {
        let text = std::fs::read_to_string(prog.with_file_name(format!("cap.pe{pe}.out"))).unwrap();
        assert_eq!(text, "42\n", "PE {pe}");
    }
}

/// `lcc --stub` writes one self-contained unit and a one-file stub that
/// build with the documented one-liner; at 1 and 4 PEs the binary's
/// per-PE output matches the C engine's, which links the runtime as a
/// cached object instead.
#[test]
fn lcc_stub_output_builds_alone_and_matches_the_c_engine() {
    use lolcode::{compile, engine_for, Backend, RunConfig};
    let Some(cc) = lol_c_codegen::driver::cc() else {
        eprintln!("skipping: no C compiler");
        return;
    };
    for (name, src) in
        [("hello", HELLO), ("heat2d_4x8", include_str!("../../../corpus/heat2d_4x8.lol"))]
    {
        let prog = write_temp(&format!("{name}.lol"), src);
        let dir = prog.parent().unwrap().join(format!("{name}_stub"));
        std::fs::create_dir_all(&dir).unwrap();
        let lcc = Command::new(env!("CARGO_BIN_EXE_lcc"))
            .arg(&prog)
            .args(["-o", "out.c", "--stub"])
            .current_dir(&dir)
            .output()
            .unwrap();
        assert!(lcc.status.success(), "{}", String::from_utf8_lossy(&lcc.stderr));
        let build = Command::new(&cc.path)
            .args(["-std=c99", "-I.", "out.c", "-lm", "-pthread", "-o", "prog"])
            .current_dir(&dir)
            .output()
            .unwrap();
        assert!(build.status.success(), "{name}: {}", String::from_utf8_lossy(&build.stderr));
        let artifact = compile(src).unwrap();
        for n_pes in [1usize, 4] {
            let run = Command::new(dir.join("prog"))
                .env("LOL_STUB_NPES", n_pes.to_string())
                .env("LOL_STUB_OUT", dir.join("cap"))
                .output()
                .unwrap();
            assert!(run.status.success(), "{name}: {}", String::from_utf8_lossy(&run.stderr));
            let outputs: Vec<String> = (0..n_pes)
                .map(|pe| std::fs::read_to_string(dir.join(format!("cap.pe{pe}.out"))).unwrap())
                .collect();
            let cfg = RunConfig::new(n_pes).backend(Backend::C);
            let engine = engine_for(Backend::C).run(&artifact, &cfg).unwrap();
            assert_eq!(outputs, engine.outputs, "{name} at {n_pes} PEs");
        }
    }
}

#[test]
fn lcc_check_mode() {
    let prog = write_temp("chk.lol", "HAI 1.2\nWIN, O RLY?\nYA RLY\nHUGZ\nOIC\nKTHXBYE\n");
    let out = Command::new(env!("CARGO_BIN_EXE_lcc")).arg(&prog).arg("--check").output().unwrap();
    assert!(out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("SEM0012"), "teaching lint shown: {stderr}");
    assert!(stderr.contains("IZ GOOD"));
}

#[test]
fn usage_on_missing_args() {
    for bin in [env!("CARGO_BIN_EXE_lcc"), env!("CARGO_BIN_EXE_lolrun")] {
        let out = Command::new(bin).output().unwrap();
        assert!(!out.status.success());
        assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"));
    }
}
