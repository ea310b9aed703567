//! Property: for *generated* well-formed programs, the interpreter and
//! the bytecode VM produce byte-identical output.
//!
//! The corpus tests pin known programs; this generates thousands of
//! fresh ones — random arithmetic over a fixed variable pool, nested
//! conditionals, bounded loops, shared scalar/array traffic — and
//! cross-checks the two execution engines against each other. Division
//! is excluded so generated programs cannot fault (fault *equivalence*
//! is tested separately below).

use icanhas::prelude::*;
use proptest::prelude::*;
use std::time::Duration;

/// Arithmetic/boolean expression over declared vars `v0..v4`, the
/// shared scalar `s0`, array reads `a0'Z k`, and NUMBR literals.
fn gen_expr() -> impl Strategy<Value = String> {
    let leaf = prop_oneof![
        (-100i64..100).prop_map(|n| n.to_string()),
        (0usize..5).prop_map(|i| format!("v{i}")),
        Just("s0".to_string()),
        (0usize..8).prop_map(|i| format!("a0'Z {i}")),
        Just("ME".to_string()),
        Just("MAH FRENZ".to_string()),
    ];
    leaf.prop_recursive(3, 16, 2, |inner| {
        prop_oneof![
            (
                prop::sample::select(vec![
                    "SUM OF",
                    "DIFF OF",
                    "PRODUKT OF",
                    "BIGGR OF",
                    "SMALLR OF"
                ]),
                inner.clone(),
                inner.clone()
            )
                .prop_map(|(op, a, b)| format!("{op} {a} AN {b}")),
            (
                prop::sample::select(vec!["BOTH SAEM", "DIFFRINT", "BIGGER", "SMALLR"]),
                inner.clone(),
                inner.clone()
            )
                .prop_map(|(op, a, b)| format!("{op} {a} AN {b}")),
            (
                prop::sample::select(vec!["BOTH OF", "EITHER OF", "WON OF"]),
                inner.clone(),
                inner.clone()
            )
                .prop_map(|(op, a, b)| format!("{op} {a} AN {b}")),
            inner.clone().prop_map(|a| format!("NOT {a}")),
            inner.clone().prop_map(|a| format!("SQUAR OF {a}")),
            (inner.clone(), inner).prop_map(|(a, b)| format!("SMOOSH {a} AN {b} MKAY")),
        ]
    })
}

/// A statement block; `depth` bounds nesting, `loop_id` keeps loop
/// variables unique.
fn gen_stmts(depth: u32) -> BoxedStrategy<String> {
    let simple = prop_oneof![
        (0usize..5, gen_expr()).prop_map(|(i, e)| format!("v{i} R {e}")),
        gen_expr().prop_map(|e| format!("VISIBLE {e}")),
        gen_expr().prop_map(|e| format!("s0 R {e}")),
        (0usize..8, gen_expr()).prop_map(|(i, e)| format!("a0'Z {i} R {e}")),
        gen_expr().prop_map(|e| e), // bare expression: sets IT
    ];
    if depth == 0 {
        return proptest::collection::vec(simple, 1..4).prop_map(|v| v.join("\n")).boxed();
    }
    let nested = prop_oneof![
        4 => proptest::collection::vec(simple.clone(), 1..4).prop_map(|v| v.join("\n")),
        1 => (gen_expr(), gen_stmts(depth - 1), gen_stmts(depth - 1)).prop_map(
            |(c, t, e)| format!("{c}, O RLY?\nYA RLY\n{t}\nNO WAI\n{e}\nOIC")
        ),
        1 => (1u32..4, gen_stmts(depth - 1), any::<u32>()).prop_map(|(n, body, salt)| {
            let lv = format!("i{}", salt % 1000);
            format!(
                "IM IN YR lp UPPIN YR {lv} TIL BOTH SAEM {lv} AN {n}\n{body}\nIM OUTTA YR lp"
            )
        }),
    ];
    nested.boxed()
}

fn gen_program() -> impl Strategy<Value = String> {
    (proptest::collection::vec(-50i64..50, 5), gen_stmts(2), gen_stmts(2)).prop_map(
        |(inits, body1, body2)| {
            let decls: String =
                inits.iter().enumerate().map(|(i, v)| format!("I HAS A v{i} ITZ {v}\n")).collect();
            format!(
                "HAI 1.2\n\
                 WE HAS A s0 ITZ SRSLY A NUMBR\n\
                 I HAS A a0 ITZ SRSLY LOTZ A NUMBRS AN THAR IZ 8\n\
                 {decls}{body1}\n{body2}\n\
                 VISIBLE v0 \" \" v1 \" \" v2 \" \" v3 \" \" v4 \" \" s0 \" \" IT\n\
                 KTHXBYE\n"
            )
        },
    )
}

fn run_both(src: &str, n_pes: usize) -> (Result<Vec<String>, String>, Result<Vec<String>, String>) {
    let cfg = RunConfig::new(n_pes).timeout(Duration::from_secs(20)).seed(17);
    // One shared artifact: both engines execute the identical program.
    let artifact = match compile(src) {
        Ok(a) => a,
        Err(e) => {
            let e = e.to_string();
            return (Err(e.clone()), Err(e));
        }
    };
    let a = engine_for(Backend::Interp)
        .run(&artifact, &cfg)
        .map(|r| r.outputs)
        .map_err(|e| e.to_string());
    let b =
        engine_for(Backend::Vm).run(&artifact, &cfg).map(|r| r.outputs).map_err(|e| e.to_string());
    (a, b)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Single-PE equivalence over the generated sequential+shared space.
    #[test]
    fn generated_programs_agree_1_pe(src in gen_program()) {
        let (a, b) = run_both(&src, 1);
        match (a, b) {
            (Ok(x), Ok(y)) => prop_assert_eq!(x, y, "divergence on:\n{}", src),
            (Err(_), Err(_)) => {} // both faulted (e.g. YARN maths): fine
            (a, b) => prop_assert!(false, "one backend faulted: {:?} vs {:?}\n{}", a, b, src),
        }
    }

    /// Multi-PE equivalence: same programs, 4 PEs. Generated programs
    /// contain no barriers inside conditionals, so they are
    /// deadlock-free by construction.
    #[test]
    fn generated_programs_agree_4_pes(src in gen_program()) {
        let (a, b) = run_both(&src, 4);
        match (a, b) {
            (Ok(x), Ok(y)) => prop_assert_eq!(x, y, "divergence on:\n{}", src),
            (Err(_), Err(_)) => {}
            (a, b) => prop_assert!(false, "one backend faulted: {:?} vs {:?}\n{}", a, b, src),
        }
    }

    /// Fault equivalence: division by a generated (possibly zero)
    /// denominator either succeeds identically or fails on both.
    #[test]
    fn division_faults_agree(num in -20i64..20, den in -3i64..3) {
        let src = format!(
            "HAI 1.2\nVISIBLE QUOSHUNT OF {num} AN {den}\nVISIBLE MOD OF {num} AN {den}\nKTHXBYE"
        );
        let (a, b) = run_both(&src, 1);
        match (a, b) {
            (Ok(x), Ok(y)) => prop_assert_eq!(x, y),
            (Err(ea), Err(eb)) => {
                prop_assert!(ea.contains("RUN0001"), "{}", ea);
                prop_assert!(eb.contains("RUN0001"), "{}", eb);
            }
            (a, b) => prop_assert!(false, "fault divergence: {:?} vs {:?}", a, b),
        }
    }
}

// ---------------------------------------------------------------------
// C engine: generated differentials (cc-gated, so fewer cases)
// ---------------------------------------------------------------------

/// Integer-only expression: the subset whose semantics are defined
/// identically on every backend (no YARN weak-casts, no floats, no
/// division). `depth` bounds nesting.
fn int_expr(rng: &mut proptest::TestRng, depth: u32) -> String {
    if depth == 0 || rng.below(3) == 0 {
        return match rng.below(4) {
            0 => (rng.below(200) as i64 - 100).to_string(),
            1 => "ME".to_string(),
            2 => "MAH FRENZ".to_string(),
            _ => (rng.below(7) as i64).to_string(),
        };
    }
    let ops = ["SUM OF", "DIFF OF", "PRODUKT OF", "BIGGR OF", "SMALLR OF"];
    let op = ops[rng.below(ops.len() as u64) as usize];
    format!("{op} {} AN {}", int_expr(rng, depth - 1), int_expr(rng, depth - 1))
}

/// ~24 generated integer-arithmetic programs, each run on all three
/// engines at 1 and 3 PEs: the C binary's per-PE output must equal the
/// substrate engines' byte-for-byte. Skips when no C compiler exists
/// (the binary is what's under test).
#[test]
fn generated_int_programs_agree_with_c_engine() {
    let c_engine = engine_for(Backend::C);
    if !c_engine.available() {
        eprintln!("skipping: no C compiler");
        return;
    }
    let mut rng = proptest::TestRng::from_seed(0xC0DE_CAFE);
    for case in 0..24 {
        let body: String = (0..3).map(|_| format!("VISIBLE {}\n", int_expr(&mut rng, 3))).collect();
        let src = format!("HAI 1.2\n{body}KTHXBYE\n");
        let artifact = compile(&src).unwrap_or_else(|e| panic!("case {case}: {e}\n{src}"));
        for n_pes in [1usize, 3] {
            let cfg = RunConfig::new(n_pes).seed(case as u64).timeout(Duration::from_secs(30));
            let interp = InterpEngine.run(&artifact, &cfg).unwrap().outputs;
            let vm = VmEngine.run(&artifact, &cfg).unwrap().outputs;
            let c = c_engine.run(&artifact, &cfg).unwrap().outputs;
            assert_eq!(interp, vm, "case {case} at {n_pes} PEs:\n{src}");
            assert_eq!(interp, c, "case {case}: C diverges at {n_pes} PEs:\n{src}");
        }
    }
}

/// Division faults must agree across all three engines: either every
/// backend succeeds with identical output, or every backend reports
/// RUN0001.
#[test]
fn division_faults_agree_with_c_engine() {
    let c_engine = engine_for(Backend::C);
    if !c_engine.available() {
        eprintln!("skipping: no C compiler");
        return;
    }
    for den in [-2i64, -1, 0, 1, 3] {
        let src = format!("HAI 1.2\nVISIBLE QUOSHUNT OF 7 AN {den}\nKTHXBYE\n");
        let artifact = compile(&src).unwrap();
        let cfg = RunConfig::new(2).timeout(Duration::from_secs(30));
        let interp = InterpEngine.run(&artifact, &cfg);
        let c = c_engine.run(&artifact, &cfg);
        match (interp, c) {
            (Ok(a), Ok(b)) => assert_eq!(a.outputs, b.outputs, "den={den}"),
            (Err(ea), Err(eb)) => {
                assert!(ea.to_string().contains("RUN0001"), "den={den}: {ea}");
                assert!(eb.to_string().contains("RUN0001"), "den={den}: {eb}");
            }
            (a, b) => panic!(
                "den={den}: fault divergence: interp={:?} c={:?}",
                a.map(|r| r.outputs),
                b.map(|r| r.outputs)
            ),
        }
    }
}

/// NUMBR arithmetic wraps identically on interp, vm and c, in the
/// dynamic (unpinned) and the typed (pinned) lowering alike — including
/// the cases that trap or overflow in C's signed arithmetic:
/// `QUOSHUNT OF`/`MOD OF` i64::MIN by -1, and `+`/`*`/`SQUAR` past the
/// i64 range.
#[test]
fn overflow_wraps_identically_on_c_engine() {
    let c_engine = engine_for(Backend::C);
    if !c_engine.available() {
        eprintln!("skipping: no C compiler");
        return;
    }
    let src = "\
HAI 1.2
I HAS A mn ITZ DIFF OF -9223372036854775807 AN 1
I HAS A big ITZ 9223372036854775807
I HAS A pmn ITZ SRSLY A NUMBR AN ITZ mn
I HAS A pbig ITZ SRSLY A NUMBR AN ITZ big
VISIBLE QUOSHUNT OF mn AN -1 \" \" MOD OF mn AN -1
VISIBLE QUOSHUNT OF pmn AN -1 \" \" MOD OF pmn AN -1
VISIBLE SUM OF big AN 1 \" \" PRODUKT OF big AN 3 \" \" SQUAR OF big
VISIBLE SUM OF pbig AN 1 \" \" PRODUKT OF pbig AN 3 \" \" SQUAR OF pbig
KTHXBYE
";
    let artifact = compile(src).unwrap();
    let cfg = RunConfig::new(2).timeout(Duration::from_secs(30));
    let interp = InterpEngine.run(&artifact, &cfg).unwrap().outputs;
    let wrapped = "-9223372036854775808 0\n".repeat(2)
        + &"-9223372036854775808 9223372036854775805 1\n".repeat(2);
    assert_eq!(interp[0], wrapped);
    assert_eq!(VmEngine.run(&artifact, &cfg).unwrap().outputs, interp);
    assert_eq!(c_engine.run(&artifact, &cfg).unwrap().outputs, interp, "C must wrap, not trap");
}
