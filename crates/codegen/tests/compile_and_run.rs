//! End-to-end validation of the C backend: generate C, compile it with
//! the system C compiler against the multi-PE pthread OpenSHMEM stub
//! (via the [`lol_c_codegen::driver`]), run the binary across PE
//! counts, and compare its per-PE output byte-for-byte with the
//! interpreter running the same program on the Rust substrate.
//!
//! This is the `lcc code.lol -o executable.x && coprsh -np N ...`
//! pipeline of Section VI.E, minus the real OpenSHMEM library
//! (the bundled stub stands in for it; see docs/ARCHITECTURE.md).

use lol_c_codegen::driver::{self, RunRequest};
use lol_c_codegen::emit_c;
use lol_parser::parse;
use lol_sema::analyze;
use lol_shmem::ShmemConfig;
use std::time::Duration;

/// Interpreter per-PE outputs on the Rust substrate.
fn interp_outputs(src: &str, stdin: &[&str], n_pes: usize) -> Vec<String> {
    let p = parse(src).expect_program(src);
    let a = analyze(&p);
    assert!(a.is_ok(), "sema: {:?}", a.diags.iter().collect::<Vec<_>>());
    let input: Vec<String> = stdin.iter().map(|s| s.to_string()).collect();
    lol_shmem::run_spmd(ShmemConfig::new(n_pes).timeout(Duration::from_secs(30)), |pe| {
        match lol_interp::run_on_pe(&p, &a, pe, &input) {
            Ok(out) => out,
            Err(e) => pe.fail(e.to_string()),
        }
    })
    .expect("interp")
}

/// Build once via the driver, run at every PE count, and diff per-PE
/// output against the interpreter at the same PE count.
fn differential_pes(tag: &str, src: &str, stdin: &[&str], pe_counts: &[usize]) {
    if driver::cc().is_none() {
        eprintln!("skipping {tag}: no C compiler");
        return;
    }
    let p = parse(src).expect_program(src);
    let a = analyze(&p);
    assert!(a.is_ok(), "sema: {:?}", a.diags.iter().collect::<Vec<_>>());
    let c = emit_c(&p, &a).expect("codegen");
    let binary = driver::build(&c).unwrap_or_else(|e| panic!("{tag}: build failed: {e}\n{c}"));
    let input: Vec<String> = stdin.iter().map(|s| s.to_string()).collect();
    for &n_pes in pe_counts {
        let req = RunRequest {
            n_pes,
            seed: 7,
            input: &input,
            timeout: Duration::from_secs(30),
            ..Default::default()
        };
        let run = binary.run(&req).unwrap_or_else(|e| panic!("{tag}@{n_pes}: run failed: {e}"));
        assert_eq!(run.outputs.len(), n_pes, "{tag}: one capture per PE");
        assert_eq!(run.stats.len(), n_pes, "{tag}: one stats row per PE");
        let expect = interp_outputs(src, stdin, n_pes);
        assert_eq!(
            run.outputs, expect,
            "C backend diverges from interpreter on {tag} at {n_pes} PEs:\n{src}"
        );
    }
}

/// Single-PE differential (the original Section VI.E check).
fn differential(tag: &str, src: &str, stdin: &[&str]) {
    differential_pes(tag, src, stdin, &[1]);
}

fn prog(body: &str) -> String {
    format!("HAI 1.2\n{body}\nKTHXBYE")
}

#[test]
fn hello_world_compiles_and_runs() {
    differential("hello", &prog("VISIBLE \"HAI WORLD\""), &[]);
}

#[test]
fn arithmetic_matches() {
    differential(
        "arith",
        &prog(
            "VISIBLE SUM OF 2 AN PRODUKT OF 3 AN 4\n\
             VISIBLE QUOSHUNT OF 7 AN 2\n\
             VISIBLE QUOSHUNT OF 7.0 AN 2\n\
             VISIBLE MOD OF 17 AN 5\n\
             VISIBLE BIGGR OF 3 AN 7\n\
             VISIBLE SMALLR OF 3 AN 7\n\
             VISIBLE DIFF OF 3 AN 10",
        ),
        &[],
    );
}

#[test]
fn comparisons_and_bools_match() {
    differential(
        "bools",
        &prog(
            "VISIBLE BOTH SAEM 1 AN 1\nVISIBLE DIFFRINT 1 AN 2\n\
             VISIBLE BIGGER 4 AN 3\nVISIBLE SMALLR 4 AN 3\n\
             VISIBLE BOTH OF WIN AN FAIL\nVISIBLE EITHER OF WIN AN FAIL\n\
             VISIBLE WON OF WIN AN WIN\nVISIBLE NOT FAIL\n\
             VISIBLE ALL OF WIN AN WIN AN FAIL MKAY\nVISIBLE ANY OF FAIL AN WIN MKAY",
        ),
        &[],
    );
}

#[test]
fn control_flow_matches() {
    differential(
        "ctrl",
        &prog(
            "I HAS A x ITZ 2\n\
             BOTH SAEM x AN 1, O RLY?\nYA RLY\nVISIBLE \"one\"\n\
             MEBBE BOTH SAEM x AN 2\nVISIBLE \"two\"\nNO WAI\nVISIBLE \"other\"\nOIC\n\
             x, WTF?\nOMG 1\nVISIBLE \"a\"\nOMG 2\nVISIBLE \"b\"\nOMG 3\nVISIBLE \"c\"\nGTFO\n\
             OMGWTF\nVISIBLE \"d\"\nOIC",
        ),
        &[],
    );
}

#[test]
fn loops_match() {
    differential(
        "loops",
        &prog(
            "IM IN YR l UPPIN YR i TIL BOTH SAEM i AN 5\nVISIBLE SQUAR OF i!\nIM OUTTA YR l\n\
             VISIBLE \"\"\n\
             I HAS A n ITZ 3\n\
             IM IN YR d NERFIN YR j WILE BIGGER n AN 0\nVISIBLE n!\nn R DIFF OF n AN 1\nIM OUTTA YR d\n\
             VISIBLE \"\"",
        ),
        &[],
    );
}

#[test]
fn functions_match() {
    differential(
        "funcs",
        "HAI 1.2\n\
         HOW IZ I fact YR n\n\
         BOTH SAEM n AN 0, O RLY?\nYA RLY\nFOUND YR 1\nOIC\n\
         FOUND YR PRODUKT OF n AN I IZ fact YR DIFF OF n AN 1 MKAY\n\
         IF U SAY SO\n\
         VISIBLE I IZ fact YR 10 MKAY\nKTHXBYE",
        &[],
    );
}

#[test]
fn arrays_match() {
    differential(
        "arrays",
        &prog(
            "I HAS A a ITZ SRSLY LOTZ A NUMBARS AN THAR IZ 6\n\
             IM IN YR l UPPIN YR i TIL BOTH SAEM i AN 6\n\
             a'Z i R QUOSHUNT OF i AN 2.0\nIM OUTTA YR l\n\
             VISIBLE a'Z 5",
        ),
        &[],
    );
}

#[test]
fn casts_and_smoosh_match() {
    differential(
        "casts",
        &prog(
            "VISIBLE MAEK \"42\" A NUMBR\nVISIBLE MAEK 3.7 A NUMBR\nVISIBLE MAEK 3 A NUMBAR\n\
             VISIBLE SMOOSH \"a\" AN 1 AN 2.5 AN WIN MKAY\n\
             I HAS A x ITZ \"5\"\nx IS NOW A NUMBR\nVISIBLE SUM OF x AN 1",
        ),
        &[],
    );
}

#[test]
fn shared_vars_single_pe_match() {
    // At np=1, shared semantics must still hold (own instance).
    differential(
        "shared",
        &prog(
            "WE HAS A x ITZ SRSLY A NUMBR AN IM SHARIN IT\n\
             WE HAS A pos ITZ SRSLY LOTZ A NUMBARS AN THAR IZ 4\n\
             x R SUM OF ME AN 41\nHUGZ\n\
             IM SRSLY MESIN WIF x\nx R SUM OF x AN 1\nDUN MESIN WIF x\n\
             pos'Z 0 R 1.5\npos'Z 3 R 4.5\n\
             TXT MAH BFF 0, MAH pos'Z 1 R UR pos'Z 3\n\
             VISIBLE x \" \" pos'Z 1",
        ),
        &[],
    );
}

#[test]
fn whole_array_copy_matches() {
    differential(
        "arrcopy",
        &prog(
            "WE HAS A src ITZ SRSLY LOTZ A NUMBRS AN THAR IZ 5\n\
             I HAS A dst ITZ SRSLY LOTZ A NUMBRS AN THAR IZ 5\n\
             IM IN YR l UPPIN YR i TIL BOTH SAEM i AN 5\n\
             src'Z i R PRODUKT OF i AN 11\nIM OUTTA YR l\n\
             TXT MAH BFF 0, MAH dst R UR src\n\
             VISIBLE dst'Z 4",
        ),
        &[],
    );
}

#[test]
fn gimmeh_matches() {
    differential(
        "gimmeh",
        &prog("I HAS A x\nGIMMEH x\nI HAS A y\nGIMMEH y\nVISIBLE SMOOSH x AN \"+\" AN y MKAY"),
        &["CHEEZ", "BURGER"],
    );
}

#[test]
fn interpolation_matches() {
    differential(
        "interp",
        &prog("I HAS A cat ITZ \"CEILING\"\nVISIBLE \"HAI :{cat} CAT :) BYE\""),
        &[],
    );
}

#[test]
fn trylock_pattern_matches() {
    differential(
        "trylock",
        &prog(
            "WE HAS A x ITZ A NUMBR AN IM SHARIN IT\n\
             IM MESIN WIF x, O RLY?\nYA RLY\nVISIBLE \"GOT IT\"\nDUN MESIN WIF x\n\
             NO WAI\nVISIBLE \"BUSY\"\nOIC",
        ),
        &[],
    );
}

// ---------------------------------------------------------------------
// Multi-PE: the part the single-PE stub could never check
// ---------------------------------------------------------------------

#[test]
fn hello_multi_pe_matches() {
    differential_pes(
        "hello_mp",
        &prog("VISIBLE \"HAI ITZ \" ME \" OF \" MAH FRENZ"),
        &[],
        &[1, 2, 4, 8],
    );
}

#[test]
fn barrier_and_remote_put_match_multi_pe() {
    // The paper's Section VI.C pattern: every PE puts into its
    // neighbour's symmetric b, barriers, then reads locally.
    differential_pes(
        "figure2_mp",
        &prog(
            "WE HAS A a ITZ SRSLY A NUMBR\nWE HAS A b ITZ SRSLY A NUMBR\n\
             WE HAS A c ITZ SRSLY A NUMBR\n\
             a R SUM OF ME AN 1\nHUGZ\n\
             I HAS A k ITZ MOD OF SUM OF ME AN 1 AN MAH FRENZ\n\
             TXT MAH BFF k, UR b R MAH a\nHUGZ\n\
             c R SUM OF a AN b\nVISIBLE \"PE \" ME \":: C = \" c",
        ),
        &[],
        &[2, 4, 7],
    );
}

#[test]
fn remote_reads_and_doubles_match_multi_pe() {
    // Remote element gets of a NUMBAR array (the heat-stencil halo
    // pattern): exercises shmem_double_g through address translation.
    differential_pes(
        "halo_mp",
        &prog(
            "WE HAS A u ITZ SRSLY LOTZ A NUMBARS AN THAR IZ 4\n\
             IM IN YR f UPPIN YR i TIL BOTH SAEM i AN 4\n\
             u'Z i R SUM OF PRODUKT OF ME AN 10.0 AN i\nIM OUTTA YR f\n\
             HUGZ\n\
             I HAS A nxt ITZ MOD OF SUM OF ME AN 1 AN MAH FRENZ\n\
             I HAS A got ITZ 0.0\n\
             TXT MAH BFF nxt, got R UR u'Z 3\n\
             VISIBLE \"PE \" ME \" GOT \" got",
        ),
        &[],
        &[1, 2, 4],
    );
}

#[test]
fn remote_locks_serialize_increments_multi_pe() {
    // Every PE increments PE 0's shared counter under its lock; after
    // the barrier PE 0 must see exactly MAH FRENZ increments — the
    // canonical mutual-exclusion check, via remote atomics.
    differential_pes(
        "locks_mp",
        &prog(
            "WE HAS A x ITZ A NUMBR AN IM SHARIN IT\nHUGZ\n\
             I HAS A k ITZ 0\n\
             TXT MAH BFF k AN STUFF\n\
             IM SRSLY MESIN WIF UR x\nUR x R SUM OF UR x AN 1\nDUN MESIN WIF UR x\n\
             TTYL\nHUGZ\n\
             VISIBLE \"PE \" ME \" SEES X = \" x",
        ),
        &[],
        &[1, 2, 4, 6],
    );
}

#[test]
fn gimmeh_replays_stream_per_pe() {
    // Every PE sees the same stdin stream, like the interpreter's
    // per-PE input queue.
    differential_pes(
        "gimmeh_mp",
        &prog("I HAS A x\nGIMMEH x\nI HAS A y\nGIMMEH y\nVISIBLE ME \" SEZ \" x \"+\" y"),
        &["CHEEZ", "BURGER"],
        &[1, 3],
    );
}

#[test]
fn driver_reports_comm_stats_per_pe() {
    if driver::cc().is_none() {
        eprintln!("skipping: no C compiler");
        return;
    }
    let src = prog(
        "WE HAS A a ITZ SRSLY A NUMBR\nWE HAS A b ITZ SRSLY A NUMBR\n\
         a R ME\nHUGZ\n\
         I HAS A k ITZ MOD OF SUM OF ME AN 1 AN MAH FRENZ\n\
         TXT MAH BFF k, UR b R MAH a\nHUGZ\nVISIBLE b",
    );
    let p = parse(&src).expect_program(&src);
    let a = analyze(&p);
    let c = emit_c(&p, &a).unwrap();
    let binary = driver::build(&c).unwrap();
    let req =
        RunRequest { n_pes: 4, seed: 1, timeout: Duration::from_secs(30), ..Default::default() };
    let run = binary.run(&req).unwrap();
    for (pe, s) in run.stats.iter().enumerate() {
        assert_eq!(s.barriers, 2, "PE {pe} barrier episodes");
        assert_eq!(s.remote_puts, 1, "PE {pe} one remote put");
    }
    assert!(run.wall > Duration::ZERO);
}

#[test]
fn driver_times_out_deadlocked_binaries() {
    if driver::cc().is_none() {
        eprintln!("skipping: no C compiler");
        return;
    }
    // PE 0 skips the barrier: a guaranteed deadlock at n_pes > 1.
    let src = prog("BOTH SAEM ME AN 0, O RLY?\nNO WAI\nHUGZ\nOIC");
    let p = parse(&src).expect_program(&src);
    let a = analyze(&p);
    let c = emit_c(&p, &a).unwrap();
    let binary = driver::build(&c).unwrap();
    let req =
        RunRequest { n_pes: 2, seed: 1, timeout: Duration::from_millis(400), ..Default::default() };
    match binary.run(&req) {
        Err(driver::DriverError::Timeout(_)) => {}
        other => panic!("expected timeout, got {other:?}"),
    }
}

#[test]
fn driver_surfaces_runtime_faults_with_stderr() {
    if driver::cc().is_none() {
        eprintln!("skipping: no C compiler");
        return;
    }
    let src = prog("VISIBLE QUOSHUNT OF 1 AN 0");
    let p = parse(&src).expect_program(&src);
    let a = analyze(&p);
    let c = emit_c(&p, &a).unwrap();
    let binary = driver::build(&c).unwrap();
    let req =
        RunRequest { n_pes: 2, seed: 1, timeout: Duration::from_secs(10), ..Default::default() };
    match binary.run(&req) {
        Err(driver::DriverError::Program { stderr, pe, .. }) => {
            assert!(stderr.contains("RUN0001"), "{stderr}");
            assert_eq!(pe, Some(0), "both PEs fault; the lowest is named");
        }
        other => panic!("expected program fault, got {other:?}"),
    }
}

#[test]
fn stub_barrier_and_lock_variants_agree_with_the_default() {
    // The LOL_STUB_BARRIER / LOL_STUB_LOCK env protocol swaps the
    // algorithms, never the results: the canonical lock-increment
    // program must produce identical per-PE output under every
    // barrier × lock combination, with mutual exclusion intact at
    // 6 contending PEs.
    if driver::cc().is_none() {
        eprintln!("skipping: no C compiler");
        return;
    }
    use lol_shmem::{BarrierKind, LockKind};
    let src = prog(
        "WE HAS A x ITZ A NUMBR AN IM SHARIN IT\nHUGZ\n\
         I HAS A k ITZ 0\n\
         TXT MAH BFF k AN STUFF\n\
         IM SRSLY MESIN WIF UR x\nUR x R SUM OF UR x AN 1\nDUN MESIN WIF UR x\n\
         TTYL\nHUGZ\n\
         VISIBLE \"PE \" ME \" SEES X = \" x",
    );
    let p = parse(&src).expect_program(&src);
    let a = analyze(&p);
    let c = emit_c(&p, &a).unwrap();
    let binary = driver::build(&c).unwrap();
    let baseline = binary.run(&RunRequest { n_pes: 6, ..Default::default() }).unwrap().outputs;
    assert!(baseline[0].contains("SEES X = 6"), "{baseline:?}");
    for barrier in BarrierKind::ALL {
        for lock in LockKind::ALL {
            let req = RunRequest { n_pes: 6, barrier, lock, ..Default::default() };
            let run =
                binary.run(&req).unwrap_or_else(|e| panic!("barrier={barrier} lock={lock}: {e}"));
            assert_eq!(run.outputs, baseline, "barrier={barrier} lock={lock}");
        }
    }
}

#[test]
fn stub_dissemination_barrier_orders_remote_puts() {
    // Figure 2 under the dissemination barrier at a non-power-of-two
    // PE count: the barrier must still publish every PE's remote put
    // before any PE reads.
    differential_pes_with(
        "dissem_mp",
        &prog(
            "WE HAS A a ITZ SRSLY A NUMBR\nWE HAS A b ITZ SRSLY A NUMBR\n\
             a R SUM OF ME AN 1\nHUGZ\n\
             I HAS A k ITZ MOD OF SUM OF ME AN 1 AN MAH FRENZ\n\
             TXT MAH BFF k, UR b R MAH a\nHUGZ\n\
             VISIBLE \"PE \" ME \" HAZ \" SUM OF a AN b",
        ),
        &[2, 5, 8],
        |req| req.barrier = lol_shmem::BarrierKind::Dissemination,
    );
}

/// `differential_pes` with a request tweak applied to every C run —
/// the interpreter side keeps its defaults, pinning that the tweak
/// changes timing at most, never output.
fn differential_pes_with(
    tag: &str,
    src: &str,
    pe_counts: &[usize],
    tweak: impl Fn(&mut RunRequest<'_>),
) {
    if driver::cc().is_none() {
        eprintln!("skipping {tag}: no C compiler");
        return;
    }
    let p = parse(src).expect_program(src);
    let a = analyze(&p);
    assert!(a.is_ok(), "sema: {:?}", a.diags.iter().collect::<Vec<_>>());
    let c = emit_c(&p, &a).expect("codegen");
    let binary = driver::build(&c).unwrap_or_else(|e| panic!("{tag}: build failed: {e}"));
    for &n_pes in pe_counts {
        let mut req = RunRequest { n_pes, seed: 7, ..Default::default() };
        tweak(&mut req);
        let run = binary.run(&req).unwrap_or_else(|e| panic!("{tag}@{n_pes}: run failed: {e}"));
        let expect = interp_outputs(src, &[], n_pes);
        assert_eq!(run.outputs, expect, "{tag}: divergence at {n_pes} PEs");
    }
}

#[test]
fn stub_latency_model_charges_remote_accesses() {
    // A 2-PE ping of 40 remote puts under flat:2ms must take ≥ 80ms
    // longer than with the model off, with identical output — the
    // charge sits in lol_stub_xlate, so only remote traffic pays.
    if driver::cc().is_none() {
        eprintln!("skipping: no C compiler");
        return;
    }
    let src = prog(
        "WE HAS A b ITZ SRSLY A NUMBR\n\
         I HAS A k ITZ MOD OF SUM OF ME AN 1 AN MAH FRENZ\n\
         IM IN YR l UPPIN YR i TIL BOTH SAEM i AN 40\n\
         TXT MAH BFF k, UR b R MAH i\nIM OUTTA YR l\n\
         HUGZ\nVISIBLE \"PE \" ME \" B = \" b",
    );
    let p = parse(&src).expect_program(&src);
    let a = analyze(&p);
    let c = emit_c(&p, &a).unwrap();
    let binary = driver::build(&c).unwrap();
    let off = binary.run(&RunRequest { n_pes: 2, ..Default::default() }).unwrap();
    let slow = binary
        .run(&RunRequest {
            n_pes: 2,
            latency: lol_shmem::LatencyModel::Uniform { remote_ns: 2_000_000 },
            ..Default::default()
        })
        .unwrap();
    assert_eq!(off.outputs, slow.outputs, "latency models must never change results");
    assert!(
        slow.wall >= off.wall + Duration::from_millis(60),
        "flat:2ms × 40 remote puts × 2 PEs should dominate: off {:?} vs flat {:?}",
        off.wall,
        slow.wall
    );
}

#[test]
fn stub_mesh_model_charges_by_distance() {
    // On a 1×N mesh (width N, one row), PE 0 → PE (N-1) is N-1 hops:
    // far traffic must cost measurably more than neighbour traffic
    // with the same op count.
    if driver::cc().is_none() {
        eprintln!("skipping: no C compiler");
        return;
    }
    let src = prog(
        "WE HAS A b ITZ SRSLY A NUMBR\n\
         BOTH SAEM ME AN 0, O RLY?\nYA RLY\n\
         IM IN YR l UPPIN YR i TIL BOTH SAEM i AN 30\n\
         TXT MAH BFF 1, UR b R MAH i\n\
         TXT MAH BFF DIFF OF MAH FRENZ AN 1, UR b R MAH i\n\
         IM OUTTA YR l\nOIC\n\
         HUGZ\nVISIBLE \"PE \" ME \" B = \" b",
    );
    let p = parse(&src).expect_program(&src);
    let a = analyze(&p);
    let c = emit_c(&p, &a).unwrap();
    let binary = driver::build(&c).unwrap();
    // 8 PEs on a 1-row mesh: hop(0→1)=1, hop(0→7)=7. base=0 so the
    // wall difference is purely per-hop cost.
    let near_far = |hop_ns: u64| {
        binary
            .run(&RunRequest {
                n_pes: 8,
                latency: lol_shmem::LatencyModel::Mesh2D { width: 8, base_ns: 0, hop_ns },
                ..Default::default()
            })
            .unwrap()
    };
    let cheap = near_far(1_000);
    let pricey = near_far(400_000);
    assert_eq!(cheap.outputs, pricey.outputs);
    // 30 iterations × (1 + 7 hops) × 400µs ≈ 96ms vs ≈ 0.24ms.
    assert!(
        pricey.wall >= cheap.wall + Duration::from_millis(40),
        "per-hop cost must scale the wall: {:?} vs {:?}",
        cheap.wall,
        pricey.wall
    );
}

#[test]
fn seeded_whatevr_is_deterministic_per_seed_in_c() {
    if driver::cc().is_none() {
        eprintln!("skipping: no C compiler");
        return;
    }
    let src = prog("VISIBLE MOD OF WHATEVR AN 1000");
    let p = parse(&src).expect_program(&src);
    let a = analyze(&p);
    let c = emit_c(&p, &a).unwrap();
    let binary = driver::build(&c).unwrap();
    let run = |seed| {
        let req =
            RunRequest { n_pes: 3, seed, timeout: Duration::from_secs(10), ..Default::default() };
        binary.run(&req).unwrap().outputs
    };
    assert_eq!(run(5), run(5), "same seed must reproduce");
    assert_ne!(run(5), run(6), "different seed must differ");
    let outs = run(5);
    assert_ne!(outs[0], outs[1], "PEs draw from distinct streams");
}

/// YARN locals own their buffers on the C path: slots, the arena,
/// returns out of a frame with locals, recursion, a `GTFO` out of a
/// loop whose body declares YARNs, switch arms that declare, YARN
/// arrays (stores of every type, whole-array copy) and retyping all
/// agree with the interpreter.
#[test]
fn yarn_ownership_matches() {
    let src = prog(
        "HOW IZ I grow YR s AN YR k\n\
         IM IN YR l UPPIN YR i TIL BOTH SAEM i AN k\n\
         I HAS A t ITZ SMOOSH s AN i MKAY\ns R SMOOSH s AN t MKAY\n\
         BOTH SAEM i AN 2, O RLY?\nYA RLY\nI HAS A u ITZ \"early\"\nFOUND YR SMOOSH u AN s MKAY\nOIC\n\
         IM OUTTA YR l\nFOUND YR s\nIF U SAY SO\n\
         HOW IZ I pick YR n\nI HAS A ys ITZ LOTZ A YARNS AN THAR IZ 3\n\
         ys'Z 0 R \"zero\"\nys'Z 1 R n\nys'Z 2 R SMOOSH ys'Z 0 AN ys'Z 1 MKAY\nFOUND YR ys'Z 2\n\
         IF U SAY SO\n\
         HOW IZ I rec YR n AN YR acc\nBOTH SAEM n AN 0, O RLY?\nYA RLY, FOUND YR acc\nOIC\n\
         FOUND YR I IZ rec YR DIFF OF n AN 1 AN YR SMOOSH acc AN n MKAY MKAY\nIF U SAY SO\n\
         VISIBLE I IZ grow YR \"m\" AN YR 5 MKAY\nVISIBLE I IZ grow YR \"q\" AN YR 1 MKAY\n\
         VISIBLE I IZ pick YR 42 MKAY\nVISIBLE I IZ rec YR 30 AN YR \">\" MKAY\n\
         I HAS A w ITZ \"x\"\n\
         IM IN YR o UPPIN YR j TIL BOTH SAEM j AN 4\nI HAS A v ITZ SMOOSH w AN j MKAY\n\
         w R SMOOSH w AN v MKAY\nBOTH SAEM j AN 2, O RLY?\nYA RLY, GTFO\nOIC\nIM OUTTA YR o\n\
         VISIBLE w\n\
         \"abc\", WTF?\nOMG \"abc\"\nI HAS A z ITZ SMOOSH IT AN \"!\" MKAY\nVISIBLE z\n\
         OMG \"d:{w}\"\nVISIBLE \"no\"\nGTFO\nOMGWTF\nVISIBLE \"dflt\"\nOIC\n\
         I HAS A ys ITZ LOTZ A YARNS AN THAR IZ 5\nI HAS A zs ITZ LOTZ A YARNS AN THAR IZ 5\n\
         zs'Z 4 R 3.25\nzs'Z 3 R WIN\nzs'Z 2 R -9\nys R zs\nzs'Z 4 R \"changed\"\n\
         VISIBLE ys'Z 4 \" \" ys'Z 3 \" \" ys'Z 2 \" \" ys'Z 0 \"|\" zs'Z 4\n\
         I HAS A c ITZ 0\nIM IN YR k UPPIN YR i TIL BOTH SAEM i AN 3\n\
         i R SMOOSH i AN \"\" MKAY\nc R SUM OF c AN 1\nIM OUTTA YR k\nVISIBLE c\n\
         I HAS A q ITZ 12\nq IS NOW A YARN\nq R SMOOSH q AN q MKAY\nVISIBLE q\n\
         q IS NOW A NUMBR\nVISIBLE SUM OF q AN 1\n\
         IT R \"it\"\nIT R SMOOSH IT AN IT AN IT MKAY\nVISIBLE IT",
    );
    differential_pes("yarn_ownership", &src, &[], &[1, 3]);
}

/// A launcher that runs `PROGRAM` with its stdin read from `INPUT` and
/// prints the peak resident set of that one child, in KiB, from its
/// `wait4` (not `RUSAGE_CHILDREN`, which other tests' compiler runs
/// would swell). The launcher is small and forks before the exec, so
/// the child starts from the launcher's footprint, not this test
/// process's.
const PEAK_RSS_C: &str = r#"
#define _DEFAULT_SOURCE
#include <fcntl.h>
#include <stdio.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>
/* usage: peak_rss INPUT PROGRAM [ARG...] */
int main(int argc, char **argv) {
    struct rusage ru;
    int st;
    pid_t pid;
    if (argc < 3) return 2;
    pid = fork();
    if (pid == 0) {
        int in = open(argv[1], O_RDONLY), out = open("/dev/null", O_WRONLY);
        if (in < 0 || out < 0) _exit(126);
        dup2(in, 0);
        dup2(out, 1);
        dup2(out, 2);
        execv(argv[2], argv + 2);
        _exit(127);
    }
    if (pid < 0 || wait4(pid, &st, 0, &ru) != pid) return 2;
    if (!WIFEXITED(st) || WEXITSTATUS(st) != 0) {
        fprintf(stderr, "wait status %d\n", st);
        return 3;
    }
    printf("%ld\n", ru.ru_maxrss);
    return 0;
}
"#;

/// Runs C binaries under the [`PEAK_RSS_C`] launcher, built in a
/// directory of its own that is removed on drop.
struct PeakRss {
    dir: std::path::PathBuf,
}

impl PeakRss {
    fn build(cc: &str) -> PeakRss {
        let dir = std::env::temp_dir().join(format!("lol-peak-rss-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("peak_rss.c"), PEAK_RSS_C).unwrap();
        let out = std::process::Command::new(cc)
            .current_dir(&dir)
            .args(["-O1", "peak_rss.c", "-o", "peak_rss"])
            .output()
            .unwrap();
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        PeakRss { dir }
    }

    /// The peak RSS of `bin` fed `stdin`, in KiB.
    fn kib(&self, bin: &std::path::Path, stdin: &str) -> i64 {
        let input = self.dir.join("input");
        std::fs::write(&input, stdin).unwrap();
        let out = std::process::Command::new(self.dir.join("peak_rss"))
            .arg(&input)
            .arg(bin)
            .output()
            .unwrap();
        let text = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success(),
            "{}: {}",
            bin.display(),
            String::from_utf8_lossy(&out.stderr)
        );
        text.trim().parse().unwrap_or_else(|_| panic!("peak_rss printed {text:?}"))
    }
}

impl Drop for PeakRss {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// The YARN kernel's C binary runs in flat memory: 20× the loop count
/// (100k → 2M appends, one fold every 12) stays within 4 MiB of peak
/// RSS, and the larger run within 16 MiB in all. YARNs used to be
/// `malloc`ed per SMOOSH and never freed, and the larger run reached
/// ~80 MiB.
#[cfg(target_os = "linux")]
#[test]
fn yarn_kernel_peak_rss_is_flat_in_n() {
    let Some(cc) = driver::cc() else {
        eprintln!("skipping: no C compiler");
        return;
    };
    let src = include_str!("../../../perfbench/programs/yarn_kernel.lol");
    let p = parse(src).expect_program(src);
    let a = analyze(&p);
    let binary = driver::build(&emit_c(&p, &a).unwrap()).unwrap();
    let rss = PeakRss::build(&cc.path);
    let small = rss.kib(binary.path(), "100000\n12345\n");
    let large = rss.kib(binary.path(), "2000000\n12345\n");
    let runs = format!("peak RSS {small} KiB at n = 100k, {large} KiB at n = 2M");
    assert!(large - small <= 4096, "{runs}");
    assert!(large <= 16 * 1024, "{runs}");
}
