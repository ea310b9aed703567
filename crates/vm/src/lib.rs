//! # lol-vm — the compiled execution path for parallel LOLCODE
//!
//! The paper argues that "using a compiler for LOLCODE is more flexible
//! and efficient than an interpreter" (§II.B). Its compiler emits C;
//! ours has two back ends: the C emitter (`lol-c-codegen`, faithful to
//! the paper's output) and this bytecode VM, which is the *measurable*
//! compiled path in an environment without an OpenSHMEM C toolchain.
//!
//! [`compile`] lowers an analyzed program to a [`Module`] (slots
//! resolved, shared offsets baked in, control flow as jumps); the VM
//! executes modules SPMD over [`lol_shmem`], byte-for-byte matching the
//! interpreter's output (see the differential tests below; perfbench's
//! `kernels` workload reproduces the paper's compiled-vs-interpreted
//! claim as `vm_ms` against `interp_ms`).
//!
//! Restriction: `SRS` (dynamic identifiers) is interpreter-only; the
//! compiler rejects it with `VMC0001` (docs/LANGUAGE.md).

#![forbid(unsafe_code)]

mod compile;
pub mod machine;
pub mod ops;
pub mod profile;

pub use compile::compile;
pub use machine::{Machine, Step};
pub use ops::{Chunk, Module, Op};
pub use profile::{HotRange, VmProfile};

use lol_ast::Program;
use lol_interp::RunError;
use lol_sema::Analysis;
use lol_shmem::Pe;

/// Compile and immediately report the first error as a rendered string
/// (test/CLI convenience).
pub fn compile_checked(program: &Program, analysis: &Analysis) -> Result<Module, String> {
    compile(program, analysis).map_err(|d| d.to_string())
}

/// Run a compiled module on one PE; returns captured output.
///
/// Drives a [`Machine`] against the threaded substrate, which never
/// reports `Pending` — one `resume` runs the program to completion.
/// SPMD launching, output collection and statistics gathering live in
/// the `lolcode` driver's `VmEngine`; the discrete-event `lol-sim`
/// engine drives the same [`Machine`] from an event queue instead.
pub fn run_on_pe(module: &Module, pe: &Pe<'_>, input: &[String]) -> Result<String, RunError> {
    let mut m = Machine::new(module, input);
    match m.resume(pe)? {
        Step::Done => Ok(m.take_output()),
        Step::Blocked => unreachable!("the threaded substrate never reports Pending"),
    }
}

/// [`run_on_pe`] with bytecode profiling on: additionally returns the
/// PE's [`VmProfile`] (merge the per-PE profiles for a job-wide view).
pub fn run_on_pe_profiled(
    module: &Module,
    pe: &Pe<'_>,
    input: &[String],
) -> Result<(String, VmProfile), RunError> {
    let mut m = Machine::new(module, input);
    m.enable_profile();
    match m.resume(pe)? {
        Step::Done => {
            let out = m.take_output();
            let prof = m.take_profile().expect("profiling was enabled");
            Ok((out, prof))
        }
        Step::Blocked => unreachable!("the threaded substrate never reports Pending"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lol_parser::parse;
    use lol_sema::analyze;
    use lol_shmem::{run_spmd, ShmemConfig, SpmdError};
    use std::time::Duration;

    fn cfg(n: usize) -> ShmemConfig {
        ShmemConfig::new(n).timeout(Duration::from_secs(15))
    }

    fn build(src: &str) -> (lol_ast::Program, lol_sema::Analysis) {
        let p = parse(src).expect_program(src);
        let a = analyze(&p);
        assert!(a.is_ok(), "sema: {:?}", a.diags.iter().collect::<Vec<_>>());
        (p, a)
    }

    /// SPMD launch helper (what `lolcode`'s `VmEngine` does, minus the
    /// stats/timing plumbing).
    fn run_parallel(module: &Module, cfg: ShmemConfig) -> Result<Vec<String>, SpmdError> {
        run_spmd(cfg, |pe| match run_on_pe(module, pe, &[]) {
            Ok(out) => out,
            Err(e) => pe.fail(e.to_string()),
        })
    }

    /// Interpreter-side launch helper for the differential tests.
    fn interp_parallel(
        program: &Program,
        analysis: &Analysis,
        cfg: ShmemConfig,
    ) -> Result<Vec<String>, SpmdError> {
        run_spmd(cfg, |pe| match lol_interp::run_on_pe(program, analysis, pe, &[]) {
            Ok(out) => out,
            Err(e) => pe.fail(e.to_string()),
        })
    }

    fn run_vm(n: usize, src: &str) -> Vec<String> {
        let (p, a) = build(src);
        let m = compile(&p, &a).expect("compile failed");
        run_parallel(&m, cfg(n)).expect("vm run failed")
    }

    fn vm1(src: &str) -> String {
        run_vm(1, src).pop().unwrap()
    }

    fn prog(body: &str) -> String {
        format!("HAI 1.2\n{body}\nKTHXBYE")
    }

    /// Interpreter and VM must produce byte-identical output.
    fn differential(n: usize, src: &str) {
        let (p, a) = build(src);
        let m = compile(&p, &a).expect("compile failed");
        let vm_out = run_parallel(&m, cfg(n).seed(7)).expect("vm failed");
        let in_out = interp_parallel(&p, &a, cfg(n).seed(7)).expect("interp failed");
        assert_eq!(vm_out, in_out, "interp/VM divergence on:\n{src}");
    }

    // -----------------------------------------------------------------
    // Basics
    // -----------------------------------------------------------------

    #[test]
    fn hello_world() {
        assert_eq!(vm1(&prog("VISIBLE \"HAI WORLD\"")), "HAI WORLD\n");
    }

    #[test]
    fn arithmetic_and_it() {
        assert_eq!(vm1(&prog("SUM OF 40 AN 2\nVISIBLE IT")), "42\n");
        assert_eq!(vm1(&prog("VISIBLE QUOSHUNT OF 7 AN 2")), "3\n");
        assert_eq!(vm1(&prog("VISIBLE QUOSHUNT OF 7.0 AN 2")), "3.50\n");
    }

    #[test]
    fn control_flow() {
        let src = prog(
            "I HAS A x ITZ 2\n\
             BOTH SAEM x AN 1, O RLY?\nYA RLY\nVISIBLE \"one\"\n\
             MEBBE BOTH SAEM x AN 2\nVISIBLE \"two\"\n\
             NO WAI\nVISIBLE \"other\"\nOIC",
        );
        assert_eq!(vm1(&src), "two\n");
    }

    #[test]
    fn switch_fallthrough_gtfo() {
        let src = prog(
            "I HAS A x ITZ 1\nx, WTF?\n\
             OMG 1\nVISIBLE \"one\"\n\
             OMG 2\nVISIBLE \"two\"\nGTFO\n\
             OMG 3\nVISIBLE \"three\"\n\
             OMGWTF\nVISIBLE \"default\"\nOIC",
        );
        assert_eq!(vm1(&src), "one\ntwo\n");
    }

    #[test]
    fn loops() {
        assert_eq!(
            vm1(&prog("IM IN YR l UPPIN YR i TIL BOTH SAEM i AN 4\nVISIBLE i!\nIM OUTTA YR l")),
            "0123"
        );
    }

    #[test]
    fn functions_recursion() {
        let src = "HAI 1.2\n\
            HOW IZ I fib YR n\n\
            SMALLR n AN 2, O RLY?\nYA RLY\nFOUND YR n\nOIC\n\
            FOUND YR SUM OF I IZ fib YR DIFF OF n AN 1 MKAY AN I IZ fib YR DIFF OF n AN 2 MKAY\n\
            IF U SAY SO\n\
            VISIBLE I IZ fib YR 15 MKAY\nKTHXBYE";
        assert_eq!(vm1(src), "610\n");
    }

    #[test]
    fn local_arrays() {
        let src = prog(
            "I HAS A a ITZ SRSLY LOTZ A NUMBRS AN THAR IZ 5\n\
             IM IN YR l UPPIN YR i TIL BOTH SAEM i AN 5\n\
             a'Z i R SQUAR OF i\nIM OUTTA YR l\nVISIBLE a'Z 4",
        );
        assert_eq!(vm1(&src), "16\n");
    }

    #[test]
    fn srs_is_rejected_at_compile_time() {
        let (p, a) = build(&prog("I HAS A x ITZ 1\nVISIBLE SRS \"x\""));
        let err = compile(&p, &a).unwrap_err();
        assert_eq!(err.code, "VMC0001");
    }

    #[test]
    fn pinned_types_coerce() {
        assert_eq!(vm1(&prog("I HAS A x ITZ SRSLY A NUMBR\nx R \"42\"\nVISIBLE x")), "42\n");
    }

    #[test]
    fn yarn_interpolation() {
        assert_eq!(
            vm1(&prog("I HAS A cat ITZ \"CEILING\"\nVISIBLE \"HAI :{cat} CAT\"")),
            "HAI CEILING CAT\n"
        );
    }

    // -----------------------------------------------------------------
    // Parallel ops
    // -----------------------------------------------------------------

    #[test]
    fn me_and_frenz() {
        let outs = run_vm(4, &prog("VISIBLE \"PE \" ME \" OF \" MAH FRENZ"));
        for (i, o) in outs.iter().enumerate() {
            assert_eq!(o, &format!("PE {i} OF 4\n"));
        }
    }

    #[test]
    fn figure2_barrier_example() {
        let src = prog(
            "WE HAS A a ITZ SRSLY A NUMBR\n\
             WE HAS A b ITZ SRSLY A NUMBR\n\
             a R SUM OF ME AN 1\nHUGZ\n\
             I HAS A k ITZ MOD OF SUM OF ME AN 1 AN MAH FRENZ\n\
             TXT MAH BFF k, UR b R MAH a\nHUGZ\n\
             VISIBLE SUM OF a AN b",
        );
        let n = 5;
        let outs = run_vm(n, &src);
        for (me, o) in outs.iter().enumerate() {
            let left = (me + n - 1) % n;
            assert_eq!(o, &format!("{}\n", me + 1 + left + 1));
        }
    }

    #[test]
    fn locks_remote_increment() {
        let src = prog(
            "WE HAS A x ITZ A NUMBR AN IM SHARIN IT\nHUGZ\n\
             IM IN YR l UPPIN YR j TIL BOTH SAEM j AN 25\n\
             TXT MAH BFF 0 AN STUFF\n\
             IM SRSLY MESIN WIF UR x\n\
             UR x R SUM OF UR x AN 1\n\
             DUN MESIN WIF UR x\n\
             TTYL\nIM OUTTA YR l\nHUGZ\nVISIBLE x",
        );
        let outs = run_vm(4, &src);
        assert_eq!(outs[0], "100\n");
    }

    #[test]
    fn whole_array_copy() {
        let src = prog(
            "WE HAS A array ITZ SRSLY LOTZ A NUMBRS AN THAR IZ 8\n\
             IM IN YR l UPPIN YR i TIL BOTH SAEM i AN 8\n\
             array'Z i R SUM OF PRODUKT OF ME AN 100 AN i\nIM OUTTA YR l\nHUGZ\n\
             I HAS A mine ITZ SRSLY LOTZ A NUMBRS AN THAR IZ 8\n\
             I HAS A next ITZ MOD OF SUM OF ME AN 1 AN MAH FRENZ\n\
             TXT MAH BFF next, MAH mine R UR array\n\
             VISIBLE mine'Z 7",
        );
        let n = 3;
        let outs = run_vm(n, &src);
        for (me, o) in outs.iter().enumerate() {
            let next = (me + 1) % n;
            assert_eq!(o, &format!("{}\n", next * 100 + 7));
        }
    }

    // -----------------------------------------------------------------
    // Differential: VM ≡ interpreter
    // -----------------------------------------------------------------

    #[test]
    fn differential_sequential_corpus() {
        let corpus = [
            prog("VISIBLE \"HAI\""),
            prog("I HAS A x ITZ 5\nx R SUM OF x AN 1\nVISIBLE x"),
            prog("VISIBLE SMOOSH 1 AN \" \" AN 2.5 AN \" \" AN WIN MKAY"),
            prog("IM IN YR l UPPIN YR i TIL BOTH SAEM i AN 10\nVISIBLE SQUAR OF i!\nIM OUTTA YR l"),
            prog("I HAS A n ITZ 17\nMOD OF n AN 2, WTF?\nOMG 0\nVISIBLE \"even\"\nGTFO\nOMG 1\nVISIBLE \"odd\"\nOIC"),
            prog("I HAS A a ITZ SRSLY LOTZ A NUMBARS AN THAR IZ 4\na'Z 0 R 1.5\na'Z 1 R 2.5\nVISIBLE SUM OF a'Z 0 AN a'Z 1"),
            prog("VISIBLE BIGGR OF 3 AN 7\nVISIBLE SMALLR OF 3 AN 7\nVISIBLE BIGGER 3 AN 7\nVISIBLE SMALLR 3 AN 7"),
            prog("VISIBLE WHATEVR\nVISIBLE WHATEVAR"),
            prog("VISIBLE MAEK \"3.5\" A NUMBAR\nVISIBLE MAEK 9 A YARN\nVISIBLE MAEK 0 A TROOF"),
            "HAI 1.2\nHOW IZ I gcd YR a AN YR b\nBOTH SAEM b AN 0, O RLY?\nYA RLY\nFOUND YR a\nOIC\nFOUND YR I IZ gcd YR b AN YR MOD OF a AN b MKAY\nIF U SAY SO\nVISIBLE I IZ gcd YR 252 AN YR 105 MKAY\nKTHXBYE".to_string(),
        ];
        for src in &corpus {
            differential(1, src);
        }
    }

    #[test]
    fn differential_parallel_corpus() {
        let corpus = [
            prog("VISIBLE \"PE \" ME \"/\" MAH FRENZ"),
            prog(
                "WE HAS A x ITZ SRSLY A NUMBR\nx R PRODUKT OF ME AN 3\nHUGZ\n\
                 I HAS A k ITZ MOD OF SUM OF ME AN 1 AN MAH FRENZ\n\
                 I HAS A y\nTXT MAH BFF k, y R UR x\nVISIBLE y",
            ),
            prog(
                "WE HAS A arr ITZ SRSLY LOTZ A NUMBARS AN THAR IZ 6\n\
                 IM IN YR l UPPIN YR i TIL BOTH SAEM i AN 6\n\
                 arr'Z i R SUM OF ME AN WHATEVAR\nIM OUTTA YR l\nHUGZ\n\
                 I HAS A k ITZ MOD OF SUM OF ME AN 1 AN MAH FRENZ\n\
                 I HAS A got\nTXT MAH BFF k, got R UR arr'Z 3\nVISIBLE got",
            ),
            prog(
                "WE HAS A c ITZ A NUMBR AN IM SHARIN IT\nHUGZ\n\
                 IM IN YR l UPPIN YR i TIL BOTH SAEM i AN 10\n\
                 TXT MAH BFF 0 AN STUFF\nIM SRSLY MESIN WIF UR c\n\
                 UR c R SUM OF UR c AN 1\nDUN MESIN WIF UR c\nTTYL\nIM OUTTA YR l\n\
                 HUGZ\nVISIBLE c",
            ),
        ];
        for src in &corpus {
            differential(4, src);
        }
    }

    #[test]
    fn differential_nbody_style_kernel() {
        // A miniature of the paper's Section VI.D structure.
        let src = prog(
            "I HAS A x ITZ SRSLY A NUMBAR\n\
             I HAS A dx ITZ SRSLY A NUMBAR\n\
             I HAS A inv ITZ SRSLY A NUMBAR\n\
             WE HAS A pos ITZ SRSLY LOTZ A NUMBARS AN THAR IZ 8\n\
             IM IN YR l UPPIN YR i TIL BOTH SAEM i AN 8\n\
             pos'Z i R SUM OF ME AN WHATEVAR\nIM OUTTA YR l\nHUGZ\n\
             I HAS A acc ITZ SRSLY A NUMBAR AN ITZ 0.0\n\
             IM IN YR l UPPIN YR k TIL BOTH SAEM k AN MAH FRENZ\n\
             DIFFRINT k AN ME, O RLY?\nYA RLY\n\
             IM IN YR m UPPIN YR j TIL BOTH SAEM j AN 8\n\
             TXT MAH BFF k, dx R DIFF OF pos'Z 0 AN UR pos'Z j\n\
             inv R FLIP OF UNSQUAR OF SUM OF PRODUKT OF dx AN dx AN 0.001\n\
             acc R SUM OF acc AN inv\n\
             IM OUTTA YR m\nOIC\nIM OUTTA YR l\n\
             VISIBLE acc",
        );
        differential(4, &src);
    }

    #[test]
    fn module_structure_is_reasonable() {
        let (p, a) = build(&prog("VISIBLE \"x\"\nHUGZ"));
        let m = compile(&p, &a).unwrap();
        assert!(m.code_len() >= 3); // const+visible, barrier, halt
        assert!(m.main.code.contains(&Op::Barrier));
        assert!(matches!(m.main.code.last(), Some(Op::Halt)));
    }

    // -----------------------------------------------------------------
    // Typed lowering: casts the static types prove redundant are gone,
    // every other cast stays, and both run byte-identical to the
    // interpreter
    // -----------------------------------------------------------------

    /// Compile `src`, run it on one PE with `input` on the VM and the
    /// interpreter, assert identical output, and return the module.
    fn typed_differential(src: &str, input: &[&str]) -> (Module, String) {
        let (p, a) = build(src);
        let m = compile(&p, &a).expect("compile failed");
        let input: Vec<String> = input.iter().map(|s| s.to_string()).collect();
        let vm = run_spmd(cfg(1), |pe| run_on_pe(&m, pe, &input).map_err(|e| e.to_string()))
            .unwrap()
            .pop()
            .unwrap();
        let interp = run_spmd(cfg(1), |pe| {
            lol_interp::run_on_pe(&p, &a, pe, &input).map_err(|e| e.to_string())
        })
        .unwrap()
        .pop()
        .unwrap();
        assert_eq!(vm, interp, "interp/VM divergence on:\n{src}");
        (m, vm.expect("program should run clean"))
    }

    /// Every chunk's code, main first.
    fn all_code(m: &Module) -> impl Iterator<Item = &Op> {
        m.main.code.iter().chain(m.funcs.iter().flat_map(|(_, c, _)| c.code.iter()))
    }

    /// The coercions to `ty` left in the module, NUMBR-to-NUMBAR
    /// register widenings (`I2D`) included. A local-array store that
    /// casts counts for any `ty` (the op does not name its element
    /// type), so cases that use one keep `ty` its element type.
    fn casts_to(m: &Module, ty: lol_ast::LolType) -> usize {
        all_code(m)
            .filter(|op| match op {
                Op::Cast(t) => *t == ty,
                Op::I2D { .. } => ty == lol_ast::LolType::Numbar,
                Op::LocalArrStore { cast, .. } | Op::LocalArrStoreL { cast, .. } => *cast,
                _ => false,
            })
            .count()
    }

    /// The loops of `code`: the inclusive pc ranges backward `Jump`s
    /// close.
    fn loop_ranges(code: &[Op]) -> Vec<(usize, usize)> {
        code.iter()
            .enumerate()
            .filter_map(|(pc, op)| match op {
                Op::Jump(t) if *t as usize <= pc => Some((*t as usize, pc)),
                _ => None,
            })
            .collect()
    }

    /// The loops of `code` that contain no other loop.
    fn innermost_loops(code: &[Op]) -> Vec<(usize, usize)> {
        let all = loop_ranges(code);
        all.iter()
            .copied()
            .filter(|&(a, b)| !all.iter().any(|&(c, d)| (c, d) != (a, b) && a <= c && d <= b))
            .collect()
    }

    #[test]
    fn bench_kernels_cast_nothing_in_their_loops() {
        for (name, src) in [
            ("nbody_bench", include_str!("../../../corpus/nbody_bench.lol")),
            ("heat2d_bench", include_str!("../../../corpus/heat2d_bench.lol")),
        ] {
            let (p, a) = build(src);
            let m = compile(&p, &a).unwrap();
            let code = &m.main.code;
            for (start, end) in loop_ranges(code) {
                // The one conversion a loop keeps is `ax R 0` in n-body's
                // particle loop: a NUMBR constant widened into a NUMBAR
                // register (`I2D`), not a cast.
                assert!(
                    !code[start..=end].iter().any(|op| matches!(op, Op::Cast(_))),
                    "{name}: a cast in the loop {start}..={end}"
                );
            }
            assert!(
                !all_code(&m).any(|op| matches!(
                    op,
                    Op::LocalArrStore { cast: true, .. } | Op::LocalArrStoreL { cast: true, .. }
                )),
                "{name}: a typed array store still casts"
            );
        }
    }

    #[test]
    fn redundant_casts_are_dropped() {
        use lol_ast::LolType::*;
        // (body, type whose casts must all be gone, expected output)
        let cases = [
            // Pinned NUMBAR from NUMBAR arithmetic and a NUMBAR literal.
            (
                "I HAS A x ITZ SRSLY A NUMBAR AN ITZ 1.5\nx R PRODUKT OF x AN 2\nVISIBLE x",
                Numbar,
                "3.00",
            ),
            // Pinned NUMBR from counters, ME and MAH FRENZ.
            (
                "I HAS A n ITZ SRSLY A NUMBR\n\
                 IM IN YR l UPPIN YR i TIL BOTH SAEM i AN 3\n\
                 n R SUM OF n AN SUM OF PRODUKT OF i AN MAH FRENZ AN ME\nIM OUTTA YR l\nVISIBLE n",
                Numbr,
                "3",
            ),
            // NUMBR wrap-around stays NUMBR: the store needs no cast.
            (
                "I HAS A n ITZ SRSLY A NUMBR AN ITZ 9223372036854775807\n\
                 n R SUM OF n AN 1\nVISIBLE n",
                Numbr,
                "-9223372036854775808",
            ),
            // Typed local-array elements, and NUMBAR roots.
            (
                "I HAS A a ITZ SRSLY LOTZ A NUMBARS AN THAR IZ 2\n\
                 a'Z 1 R UNSQUAR OF 2.25\na'Z 0 R FLIP OF a'Z 1\n\
                 I HAS A x ITZ SRSLY A NUMBAR AN ITZ a'Z 0\nVISIBLE x",
                Numbar,
                "0.67",
            ),
            // Comparisons and TROOF logic into a pinned TROOF.
            (
                "I HAS A t ITZ SRSLY A TROOF\nt R BOTH OF BIGGER 2 AN 1 AN NOT FAIL\nVISIBLE t",
                Troof,
                "WIN",
            ),
            // SMOOSH into a pinned YARN, and interpolation of one.
            (
                "I HAS A s ITZ SRSLY A YARN\ns R SMOOSH \"O\" AN \"HAI\" MKAY\nVISIBLE \":{s}!\"",
                Yarn,
                "OHAI!",
            ),
        ];
        for (body, ty, want) in cases {
            let (m, out) = typed_differential(&prog(body), &[]);
            assert_eq!(out, format!("{want}\n"), "on:\n{body}");
            assert_eq!(casts_to(&m, ty), 0, "a redundant {ty:?} cast survived in:\n{body}");
        }
    }

    #[test]
    fn unproven_casts_stay() {
        use lol_ast::LolType::*;
        // (body, stdin, type whose cast must stay, expected output)
        let cases = [
            // A counter the body reassigns is no longer a NUMBR: `n R i`
            // must truncate 1.5 to 1. GTFO ends the loop, as the counter
            // never meets its integral bound.
            (
                "I HAS A n ITZ SRSLY A NUMBR\n\
                 IM IN YR l UPPIN YR i TIL BOTH SAEM i AN 100\n\
                 n R i\nVISIBLE n\ni R SUM OF i AN 0.5\n\
                 BOTH SAEM i AN 3.5, O RLY?\nYA RLY\nGTFO\nOIC\nIM OUTTA YR l",
                vec![],
                Numbr,
                "0\n1\n3",
            ),
            // GIMMEH into a counter makes it a YARN.
            (
                "I HAS A n ITZ SRSLY A NUMBR\n\
                 IM IN YR l UPPIN YR i TIL BIGGER i AN 2\n\
                 GIMMEH i\nn R i\nVISIBLE n\nIM OUTTA YR l",
                vec!["1.5"],
                Numbr,
                "1",
            ),
            // A NUMBR literal into a pinned NUMBAR.
            ("I HAS A x ITZ SRSLY A NUMBAR\nx R 3\nVISIBLE x", vec![], Numbar, "3.00"),
            // A call result is unknown.
            (
                "HOW IZ I inc YR a\nFOUND YR SUM OF a AN 1\nIF U SAY SO\n\
                 I HAS A x ITZ SRSLY A NUMBAR\nx R I IZ inc YR 2 MKAY\nVISIBLE x",
                vec![],
                Numbar,
                "3.00",
            ),
            // A numeric YARN into a pinned NUMBAR.
            ("I HAS A x ITZ SRSLY A NUMBAR\nx R \"2\"\nVISIBLE x", vec![], Numbar, "2.00"),
            // TROOF arithmetic is unknown (here it yields a NUMBR).
            (
                "I HAS A x ITZ SRSLY A NUMBAR\nx R SUM OF WIN AN 1\nVISIBLE x",
                vec![],
                Numbar,
                "2.00",
            ),
            // NUMBR wrap-around into a pinned NUMBR through an unknown
            // (TROOF) operand.
            (
                "I HAS A n ITZ SRSLY A NUMBR\nn R SUM OF 9223372036854775807 AN WIN\nVISIBLE n",
                vec![],
                Numbr,
                "-9223372036854775808",
            ),
            // A NUMBR into a NUMBAR array element.
            (
                "I HAS A a ITZ SRSLY LOTZ A NUMBARS AN THAR IZ 1\na'Z 0 R 7\nVISIBLE a'Z 0",
                vec![],
                Numbar,
                "7.00",
            ),
        ];
        for (body, input, ty, want) in cases {
            let (m, out) = typed_differential(&prog(body), &input);
            assert_eq!(out, format!("{want}\n"), "on:\n{body}");
            assert!(casts_to(&m, ty) > 0, "the {ty:?} cast was dropped in:\n{body}");
        }
    }

    #[test]
    fn typed_array_stores_keep_their_fault_order() {
        // The element cast stays inside the op, after the index check:
        // an out-of-range index faults (RUN0123) before the bad value
        // would (RUN0004), on both engines.
        let src = prog("I HAS A a ITZ SRSLY LOTZ A NUMBRS AN THAR IZ 2\na'Z 5 R \"nope\"");
        let (p, a) = build(&src);
        let m = compile(&p, &a).unwrap();
        let vm = run_spmd(cfg(1), |pe| run_on_pe(&m, pe, &[]).unwrap_err()).unwrap().pop().unwrap();
        let interp = run_spmd(cfg(1), |pe| lol_interp::run_on_pe(&p, &a, pe, &[]).unwrap_err())
            .unwrap()
            .pop()
            .unwrap();
        assert_eq!((vm.code, interp.code), ("RUN0123", "RUN0123"));
    }

    #[test]
    fn if_without_else_falls_through_without_a_jump() {
        for src in [
            prog("BOTH SAEM 1 AN 1, O RLY?\nYA RLY\nVISIBLE 1\nOIC\nVISIBLE 2"),
            prog("FAIL, O RLY?\nYA RLY\nVISIBLE 1\nMEBBE WIN\nVISIBLE 3\nOIC\nVISIBLE 2"),
            include_str!("../../../corpus/nbody_bench.lol").to_string(),
        ] {
            let (p, a) = build(&src);
            let m = compile(&p, &a).unwrap();
            for (pc, op) in m.main.code.iter().enumerate() {
                assert_ne!(op, &Op::Jump(pc as u32 + 1), "no-op jump at pc {pc} in:\n{src}");
            }
        }
        differential(
            1,
            &prog("FAIL, O RLY?\nYA RLY\nVISIBLE 1\nMEBBE WIN\nVISIBLE 3\nOIC\nVISIBLE 2"),
        );
    }

    #[test]
    fn kernels_innermost_loops_never_touch_the_stack() {
        // The VM twin of the C backend's `nbody_hot_loops_are_native`:
        // every innermost compute loop of the two kernels runs on
        // registers. The loops that print (`VISIBLE` takes its operands
        // from the stack) are output, not compute.
        for (name, src, compute_loops) in [
            ("nbody_bench", include_str!("../../../corpus/nbody_bench.lol"), 4),
            ("heat2d_bench", include_str!("../../../corpus/heat2d_bench.lol"), 6),
        ] {
            let (p, a) = build(src);
            let m = compile(&p, &a).unwrap();
            let code = &m.main.code;
            let mut checked = 0;
            for (start, end) in innermost_loops(code) {
                let body = &code[start..=end];
                if body.iter().any(|op| matches!(op, Op::Visible { .. })) {
                    continue;
                }
                checked += 1;
                for (pc, op) in body.iter().enumerate() {
                    assert!(
                        !matches!(
                            op,
                            Op::LoadLocal(_)
                                | Op::StoreLocal(_)
                                | Op::Bin(_)
                                | Op::Un(_)
                                | Op::Const(_)
                        ),
                        "{name}: {op:?} at pc {} in the innermost loop {start}..={end}",
                        start + pc
                    );
                }
            }
            assert_eq!(checked, compute_loops, "{name}: innermost compute loops");
        }
    }

    #[test]
    fn yarn_kernel_appends_to_its_yarn_in_place() {
        let (p, a) = build(include_str!("../../../perfbench/programs/yarn_kernel.lol"));
        let m = compile(&p, &a).unwrap();
        let code = &m.main.code;
        let [(start, end)] = loop_ranges(code)[..] else { panic!("one loop in {code:?}") };
        let body = &code[start..=end];
        let appends: Vec<u16> = body
            .iter()
            .filter_map(|op| match op {
                Op::SmooshInto { slot, n: 1 } => Some(*slot),
                _ => None,
            })
            .collect();
        let [s] = appends[..] else { panic!("one append in the loop: {body:?}") };
        // Only the fold every 12 digits reads `s` (`MAEK s A NUMBR` and
        // `SMOOSH "#" AN s`): the append neither loads it nor builds a
        // new YARN to store back.
        assert_eq!(body.iter().filter(|op| **op == Op::LoadLocal(s)).count(), 2, "{body:?}");
        assert!(
            !body.windows(2).any(|w| matches!(w, [Op::Smoosh(_), Op::StoreLocal(d)] if *d == s)),
            "{body:?}"
        );
    }

    #[test]
    fn appends_lower_only_onto_an_unpinned_or_yarn_local_slot() {
        // (body, lowered to `SmooshInto`, output)
        let cases = [
            ("I HAS A s ITZ \"a\"\ns R SMOOSH s AN 1 MKAY\nVISIBLE s", true, "a1"),
            ("I HAS A s ITZ SRSLY A YARN\ns R SMOOSH s AN 1.5 MKAY\nVISIBLE s", true, "1.50"),
            ("I HAS A s ITZ 3\ns R SMOOSH s MKAY\nVISIBLE SMOOSH s AN s MKAY", true, "33"),
            ("\"a\"\nIT R SMOOSH IT AN WIN MKAY\nVISIBLE IT", true, "aWIN"),
            (
                "HOW IZ I f YR s\n  s R SMOOSH s AN \"!\" MKAY\n  FOUND YR s\nIF U SAY SO\n\
                 VISIBLE I IZ f YR \"hi\" MKAY",
                true,
                "hi!",
            ),
            (
                "I HAS A s ITZ SRSLY A NUMBR AN ITZ 1\ns R SMOOSH s AN 2 MKAY\nVISIBLE s",
                false,
                "12",
            ),
            ("WE HAS A s ITZ SRSLY A NUMBR\ns R 4\ns R SMOOSH s AN 2 MKAY\nVISIBLE s", false, "42"),
            (
                "I HAS A s ITZ \"a\"\nI HAS A t ITZ \"b\"\ns R SMOOSH t AN s MKAY\nVISIBLE s",
                false,
                "ba",
            ),
            (
                "I HAS A s ITZ \"a\"\nI HAS A t ITZ \"b\"\nt R SMOOSH s AN t MKAY\nVISIBLE t",
                false,
                "ab",
            ),
        ];
        for (body, lowered, want) in cases {
            let (m, out) = typed_differential(&prog(body), &[]);
            assert_eq!(out, format!("{want}\n"), "on:\n{body}");
            let appends = all_code(&m).filter(|op| matches!(op, Op::SmooshInto { .. })).count();
            assert_eq!(appends, lowered as usize, "on:\n{body}");
        }
    }

    /// Run `src` on one PE on the VM and on the interpreter.
    fn outcomes(src: &str) -> (Module, Result<String, RunError>, Result<String, RunError>) {
        let (p, a) = build(src);
        let m = compile(&p, &a).expect("compile failed");
        let vm = run_spmd(cfg(1), |pe| run_on_pe(&m, pe, &[])).unwrap().pop().unwrap();
        let interp =
            run_spmd(cfg(1), |pe| lol_interp::run_on_pe(&p, &a, pe, &[])).unwrap().pop().unwrap();
        (m, vm, interp)
    }

    #[test]
    fn typed_register_ops_keep_every_fault_and_edge() {
        // Each case runs three times: with its locals pinned (`{N}`/`{D}`
        // expand to `SRSLY A NUMBR/NUMBAR AN ITZ`), so the operators run
        // on registers; unpinned (both expand to nothing), where
        // inference puts them in registers too; and unpinned compiled
        // without inference, so they run on the stack. Every run must
        // produce the same output or the same fault, code and message,
        // and the interpreter the same output or fault code. `want` is
        // the output, or the code.
        let cases: [(&str, &[&str], Result<&str, &str>); 10] = [
            (
                "I HAS A a ITZ {N} 7\nI HAS A z ITZ {N} 0\nVISIBLE \"GO\"\nVISIBLE QUOSHUNT OF a AN z",
                &["ArithI"],
                Err("RUN0001"),
            ),
            (
                "I HAS A a ITZ {N} 7\nI HAS A z ITZ {N} 0\nVISIBLE MOD OF a AN z",
                &["ArithI"],
                Err("RUN0001"),
            ),
            (
                "I HAS A m ITZ {N} DIFF OF -9223372036854775807 AN 1\nI HAS A n ITZ {N} -1\n\
                 VISIBLE QUOSHUNT OF m AN n\nVISIBLE MOD OF m AN n",
                &["SubI", "ArithI"],
                Ok("-9223372036854775808\n0"),
            ),
            (
                "I HAS A m ITZ {N} 9223372036854775807\nVISIBLE SUM OF m AN 1\n\
                 VISIBLE PRODUKT OF m AN 3\nVISIBLE DIFF OF DIFF OF 0 AN m AN 2",
                &["AddI", "MulI", "SubI"],
                Ok("-9223372036854775808\n9223372036854775805\n9223372036854775807"),
            ),
            (
                "I HAS A z ITZ {D} 0.0\nI HAS A q ITZ {D} QUOSHUNT OF z AN z\n\
                 VISIBLE BIGGR OF q AN 1.5\nVISIBLE BIGGR OF 1.5 AN q\n\
                 VISIBLE SMALLR OF q AN -2.0\nVISIBLE q",
                &["DivD", "ArithD"],
                Ok("1.50\n1.50\n-2.00\nnan"),
            ),
            (
                "I HAS A a ITZ {N} 9007199254740993\nI HAS A b ITZ {N} 9007199254740992\n\
                 I HAS A f ITZ {D} 9007199254740992.0\n\
                 VISIBLE BIGGER a AN b\nVISIBLE SMALLR b AN a\nVISIBLE BOTH SAEM a AN b\n\
                 VISIBLE BOTH SAEM a AN f\nVISIBLE DIFFRINT b AN f",
                &["CmpI", "I2D", "CmpD"],
                Ok("FAIL\nFAIL\nFAIL\nWIN\nFAIL"),
            ),
            (
                "I HAS A a ITZ SRSLY LOTZ A NUMBARS AN THAR IZ 3\nI HAS A i ITZ {N} 3\n\
                 VISIBLE \"GO\"\nVISIBLE a'Z i",
                &["ArrLoadR"],
                Err("RUN0123"),
            ),
            (
                // An index past 2^32 must not wrap into range.
                "I HAS A a ITZ SRSLY LOTZ A NUMBRS AN THAR IZ 3\nI HAS A i ITZ {N} 4294967297\n\
                 a'Z i R 5",
                &["ArrStoreR"],
                Err("RUN0123"),
            ),
            (
                "WE HAS A s ITZ SRSLY LOTZ A NUMBRS AN THAR IZ 2\nI HAS A i ITZ {N} -1\n\
                 VISIBLE s'Z i",
                &["SharedLoadIdxR"],
                Err("RUN0123"),
            ),
            (
                // Typed values stored into IT, through an expression
                // statement, a fused `O RLY?` and an assignment.
                "I HAS A x ITZ {N} 4\nSUM OF x AN 1\nVISIBLE IT\n\
                 BOTH SAEM x AN 4, O RLY?\nYA RLY\nVISIBLE IT\nOIC\n\
                 IT R PRODUKT OF x AN 0.5\nVISIBLE IT",
                &["AddI", "JumpCmpI", "MulD"],
                Ok("5\nWIN\n2.00"),
            ),
        ];
        for (body, ops, want) in cases {
            let typed = prog(
                &body
                    .replace("{N}", "SRSLY A NUMBR AN ITZ")
                    .replace("{D}", "SRSLY A NUMBAR AN ITZ"),
            );
            let untyped = prog(&body.replace("{N} ", "").replace("{D} ", ""));
            let (m, vm, interp) = outcomes(&typed);
            let names: Vec<&str> =
                all_code(&m).map(|op| Op::profile_name(op.profile_index())).collect();
            for op in ops {
                assert!(names.contains(op), "no {op} in the typed form of:\n{body}\n{names:?}");
            }
            let (_, inferred_vm, _) = outcomes(&untyped);
            assert_eq!(vm, inferred_vm, "pinned and inferred registers differ on:\n{body}");
            let (p, mut a) = build(&untyped);
            a.inferred.clear();
            let m = compile(&p, &a).unwrap();
            let stack_vm = run_spmd(cfg(1), |pe| run_on_pe(&m, pe, &[])).unwrap().pop().unwrap();
            assert_eq!(vm, stack_vm, "register and stack paths differ on:\n{body}");
            match (&vm, &interp, want) {
                (Ok(out), Ok(i), Ok(want)) => {
                    assert_eq!(out, &format!("{want}\n"), "on:\n{body}");
                    assert_eq!(out, i, "interp differs on:\n{body}");
                }
                (Err(e), Err(i), Err(code)) => {
                    assert_eq!((e.code, i.code), (code, code), "on:\n{body}");
                    assert_eq!(e.message, i.message, "interp words it differently:\n{body}");
                }
                other => panic!("unexpected outcome {other:?} on:\n{body}"),
            }
        }
    }

    #[test]
    fn array_faults_name_the_array_like_the_interpreter() {
        for (body, code, name) in [
            // A local array on the stack path, the fused slot-index
            // store, and a function's own array.
            ("I HAS A a ITZ LOTZ A YARNS AN THAR IZ 2\nVISIBLE a'Z 2", "RUN0123", "a"),
            ("I HAS A b ITZ LOTZ A YARNS AN THAR IZ 2\nI HAS A i ITZ 7\nb'Z i R 1", "RUN0123", "b"),
            (
                "HOW IZ I f\nI HAS A inner ITZ LOTZ A NUMBRS AN THAR IZ 1\nFOUND YR inner'Z -1\n\
                 IF U SAY SO\nVISIBLE I IZ f MKAY",
                "RUN0123",
                "inner",
            ),
            // A symmetric array, read and written.
            ("WE HAS A s ITZ LOTZ A NUMBRS AN THAR IZ 2\nVISIBLE s'Z 9", "RUN0123", "s"),
            ("WE HAS A t ITZ LOTZ A NUMBARS AN THAR IZ 2\nt'Z 2 R 1.5", "RUN0123", "t"),
            // A whole-array copy into a symmetric array of another size.
            (
                "WE HAS A d ITZ LOTZ A NUMBRS AN THAR IZ 2\nI HAS A n ITZ 3\n\
                 I HAS A src ITZ LOTZ A NUMBRS AN THAR IZ n\nMAH d R MAH src",
                "RUN0013",
                "d",
            ),
        ] {
            let (_, vm, interp) = outcomes(&prog(body));
            let (vm, interp) = (vm.unwrap_err(), interp.unwrap_err());
            assert_eq!((vm.code, interp.code), (code, code), "on:\n{body}");
            assert_eq!(vm.message, interp.message, "on:\n{body}");
            assert!(vm.message.contains(&format!(" {name} ")), "{}", vm.message);
        }
    }

    #[test]
    fn register_banks_are_sized_per_chunk() {
        // Typed locals, constants and temporaries get registers; a
        // chunk with none has an empty bank (no allocation per call).
        let (p, a) = build(
            "HAI 1.2\nHOW IZ I f YR x\nFOUND YR SMOOSH x AN \"!\" MKAY\nIF U SAY SO\n\
             I HAS A n ITZ SRSLY A NUMBR AN ITZ 3\nVISIBLE PRODUKT OF n AN SUM OF n AN 1\n\
             VISIBLE I IZ f YR n MKAY\nKTHXBYE",
        );
        let m = compile(&p, &a).unwrap();
        assert!(m.funcs[0].1.regs.is_empty(), "{:?}", m.funcs[0].1.regs);
        // n, the constants 3 and 1, and one temporary.
        assert_eq!(m.main.regs.len(), 4, "{:?}", m.main.code);
        assert!(m.main.regs.contains(&3) && m.main.regs.contains(&1));
    }

    #[test]
    fn malformed_register_ops_are_vm_bugs() {
        let with_main = |code: Vec<Op>, regs: Vec<u64>| Module {
            main: Chunk { code, n_slots: 1, n_arrays: 1, regs, ..Default::default() },
            ..Default::default()
        };
        for (what, m) in [
            ("register out of range", with_main(vec![Op::Mov { d: 0, s: 9 }, Op::Halt], vec![0])),
            ("store to a register out of range", with_main(vec![Op::Mov { d: 9, s: 0 }], vec![0])),
            (
                "raw access to a YARN array",
                with_main(
                    vec![
                        Op::Const(0),
                        Op::LocalArrNew { arr: 0, ty: lol_ast::LolType::Yarn },
                        Op::ArrLoadR { d: 0, arr: 0, idx: 0 },
                    ],
                    vec![0],
                ),
            ),
        ] {
            let m = Module { consts: vec![lol_interp::Value::Numbr(2)], ..m };
            let err = run_spmd(cfg(1), |pe| run_on_pe(&m, pe, &[]).expect_err(what))
                .unwrap()
                .pop()
                .unwrap();
            assert_eq!(err.code, "RUN0192", "{what}: {err}");
        }
    }

    // -----------------------------------------------------------------
    // Fault paths: malformed bytecode must die with RUN0192, not a
    // naked panic
    // -----------------------------------------------------------------

    /// Hand-built broken modules (the compiler never emits these — they
    /// model compiler bugs / corrupted bytecode). Each must surface the
    /// stable `RUN0192` internal-bug diagnostic from `resume`.
    fn malformed_modules() -> Vec<(&'static str, Module)> {
        use lol_ast::BinOp;
        let with_main = |code: Vec<Op>| Module {
            main: Chunk { code, n_slots: 1, ..Default::default() },
            ..Default::default()
        };
        vec![
            ("binop on empty stack", with_main(vec![Op::Bin(BinOp::Sum), Op::Halt])),
            ("load of out-of-range slot", with_main(vec![Op::LoadLocal(99), Op::Halt])),
            ("store to out-of-range slot", with_main(vec![Op::StoreLocal(7), Op::Halt])),
            ("const index out of range", with_main(vec![Op::Const(3), Op::Halt])),
            ("call of missing funkshun", with_main(vec![Op::Call { func: 0, argc: 0 }, Op::Halt])),
            ("ret with empty stack", with_main(vec![Op::Ret])),
        ]
    }

    #[test]
    fn malformed_bytecode_is_a_structured_vm_bug_error() {
        for (what, m) in malformed_modules() {
            let err = run_spmd(cfg(1), |pe| {
                run_on_pe(&m, pe, &[]).expect_err(&format!("{what}: expected an error"))
            })
            .unwrap()
            .pop()
            .unwrap();
            assert_eq!(err.code, "RUN0192", "{what}: wrong code: {err}");
            assert!(
                err.to_string().contains("DIS IZ NOT UR PROGRAMZ FAULT"),
                "{what}: message should disown the user program: {err}"
            );
        }
    }

    #[test]
    fn malformed_bytecode_surfaces_through_spmd_error() {
        // The engine path: the PE converts the RunError into `pe.fail`,
        // and the job reports a structured SpmdError (what the sweep
        // driver records as FAILED) rather than propagating a panic.
        let (_, m) = malformed_modules().pop().unwrap();
        let err = run_parallel(&m, cfg(2)).expect_err("job should fail");
        assert!(err.message.contains("RUN0192"), "missing code in: {err}");
        assert!(err.to_string().starts_with("PE "), "should name the failing PE: {err}");
    }

    #[test]
    fn machine_is_dead_after_vm_bug() {
        use lol_ast::BinOp;
        let m = Module {
            main: Chunk {
                code: vec![Op::Bin(BinOp::Sum), Op::Halt],
                n_slots: 1,
                ..Default::default()
            },
            ..Default::default()
        };
        run_spmd(cfg(1), |pe| {
            let mut mach = Machine::new(&m, &[]);
            assert_eq!(mach.resume(pe).unwrap_err().code, "RUN0192");
            // A second resume must not continue past the fault.
            assert!(mach.resume(pe).is_err(), "machine must stay dead after an error");
        })
        .unwrap();
    }

    #[test]
    fn consts_are_deduped() {
        let (p, a) = build(&prog("VISIBLE 7\nVISIBLE 7\nVISIBLE 7"));
        let m = compile(&p, &a).unwrap();
        let sevens = m.consts.iter().filter(|v| **v == lol_interp::Value::Numbr(7)).count();
        assert_eq!(sevens, 1);
    }
}
