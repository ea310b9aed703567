//! # lol-interp — SPMD tree-walking interpreter for parallel LOLCODE
//!
//! The execution engine corresponding to the original `lci` interpreter
//! [2 in the paper], extended with the paper's parallel semantics: it
//! runs the *same* program on every PE over the [`lol_shmem`] PGAS
//! substrate. `VISIBLE` output is captured per PE and returned in PE
//! order (deterministic for tests; the CLI prints it PE-tagged).
//!
//! The interpreter supports the *entire* language, including the
//! dynamic constructs (`SRS`, `IS NOW A`, dynamically sized local
//! arrays) that the compiled backends reject — exactly the
//! flexibility/efficiency trade the paper describes between its
//! interpreter and compiler paths.
//!
//! One consequence of tree-walking: a PE's mid-execution state lives
//! on the Rust call stack, so this engine is inherently
//! thread-per-PE. The discrete-event engine (`lol-sim`, which
//! simulates 1k–1M PEs on one thread) instead drives the bytecode
//! VM's resumable `Machine`, whose state is an explicit heap object
//! that can park and resume without a stack — the `SRS`-less subset
//! is the price of mega-scale.

#![forbid(unsafe_code)]

mod env;
mod exec;
pub mod value;

pub use value::{RResult, RunError, Value};

use exec::Interp;
use lol_ast::Program;
use lol_sema::Analysis;
use lol_shmem::Pe;

// The lock layout planned by sema must match the substrate's.
const _: () = assert!(lol_sema::LOCK_WORDS == lol_shmem::lock::LOCK_WORDS);

/// Run `program` on a single PE (call from inside
/// [`lol_shmem::run_spmd`], one call per PE). Returns the PE's captured
/// `VISIBLE` output.
///
/// This is the whole public execution surface of the crate: SPMD
/// launching, output collection and statistics gathering live in the
/// `lolcode` driver's `InterpEngine`, which runs a compiled artifact
/// through this entry point on every PE.
pub fn run_on_pe(
    program: &Program,
    analysis: &Analysis,
    pe: &Pe<'_>,
    input: &[String],
) -> Result<String, RunError> {
    Interp::new(program, analysis, pe, input).run(program)
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

    /// SPMD launch helper (what `lolcode`'s `InterpEngine` does, minus
    /// the stats/timing plumbing).
    fn run_parallel(
        program: &Program,
        analysis: &Analysis,
        cfg: ShmemConfig,
    ) -> Result<Vec<String>, SpmdError> {
        run_parallel_with_input(program, analysis, cfg, &[])
    }

    fn run_parallel_with_input(
        program: &Program,
        analysis: &Analysis,
        cfg: ShmemConfig,
        input: &[String],
    ) -> Result<Vec<String>, SpmdError> {
        run_spmd(cfg, |pe| match run_on_pe(program, analysis, pe, input) {
            Ok(out) => out,
            Err(e) => pe.fail(e.to_string()),
        })
    }

    /// Parse + analyze + run on `n` PEs, returning per-PE outputs.
    fn run_n(n: usize, src: &str) -> Vec<String> {
        let p = parse(src).expect_program(src);
        let a = analyze(&p);
        assert!(a.is_ok(), "sema failed: {:?}", a.diags.iter().collect::<Vec<_>>());
        run_parallel(&p, &a, cfg(n)).expect("run failed")
    }

    /// Single-PE run returning the one output.
    fn run1(src: &str) -> String {
        run_n(1, src).pop().unwrap()
    }

    fn run1_input(src: &str, input: &[&str]) -> String {
        let p = parse(src).expect_program(src);
        let a = analyze(&p);
        assert!(a.is_ok());
        let input: Vec<String> = input.iter().map(|s| s.to_string()).collect();
        run_parallel_with_input(&p, &a, cfg(1), &input).expect("run failed").pop().unwrap()
    }

    fn run_err(n: usize, src: &str) -> SpmdError {
        let p = parse(src).expect_program(src);
        let a = analyze(&p);
        assert!(a.is_ok(), "sema failed: {:?}", a.diags.iter().collect::<Vec<_>>());
        run_parallel(&p, &a, cfg(n).timeout(Duration::from_secs(5))).unwrap_err()
    }

    fn prog(body: &str) -> String {
        format!("HAI 1.2\n{body}\nKTHXBYE")
    }

    // -----------------------------------------------------------------
    // Sequential language basics (Table I)
    // -----------------------------------------------------------------

    #[test]
    fn hello_world() {
        assert_eq!(run1(&prog("VISIBLE \"HAI WORLD\"")), "HAI WORLD\n");
    }

    #[test]
    fn visible_concatenates_and_bang() {
        assert_eq!(run1(&prog("VISIBLE \"A\" \"B\" 3")), "AB3\n");
        assert_eq!(run1(&prog("VISIBLE \"X\"!")), "X");
    }

    #[test]
    fn arithmetic_chain() {
        assert_eq!(run1(&prog("VISIBLE SUM OF 2 AN PRODUKT OF 3 AN 4")), "14\n");
        assert_eq!(run1(&prog("VISIBLE QUOSHUNT OF 7 AN 2")), "3\n");
        assert_eq!(run1(&prog("VISIBLE QUOSHUNT OF 7.0 AN 2")), "3.50\n");
        assert_eq!(run1(&prog("VISIBLE MOD OF 17 AN 5")), "2\n");
        assert_eq!(run1(&prog("VISIBLE DIFF OF 3 AN 10")), "-7\n");
    }

    #[test]
    fn variables_and_assignment() {
        assert_eq!(run1(&prog("I HAS A x ITZ 5\nx R SUM OF x AN 1\nVISIBLE x")), "6\n");
    }

    #[test]
    fn typed_declaration_defaults() {
        assert_eq!(run1(&prog("I HAS A x ITZ A NUMBR\nVISIBLE x")), "0\n");
        assert_eq!(run1(&prog("I HAS A f ITZ A NUMBAR\nVISIBLE f")), "0.00\n");
        assert_eq!(run1(&prog("I HAS A t ITZ A TROOF\nVISIBLE t")), "FAIL\n");
    }

    #[test]
    fn srsly_static_typing_coerces() {
        // The paper's static typing extension: assignments coerce to
        // the pinned type.
        assert_eq!(run1(&prog("I HAS A x ITZ SRSLY A NUMBR\nx R \"42\"\nVISIBLE x")), "42\n");
        assert_eq!(run1(&prog("I HAS A x ITZ SRSLY A NUMBR\nx R 3.9\nVISIBLE x")), "3\n");
    }

    #[test]
    fn it_and_o_rly() {
        assert_eq!(
            run1(&prog(
                "BOTH SAEM 1 AN 1, O RLY?\nYA RLY\nVISIBLE \"yes\"\nNO WAI\nVISIBLE \"no\"\nOIC"
            )),
            "yes\n"
        );
        assert_eq!(
            run1(&prog(
                "BOTH SAEM 1 AN 2, O RLY?\nYA RLY\nVISIBLE \"yes\"\nNO WAI\nVISIBLE \"no\"\nOIC"
            )),
            "no\n"
        );
    }

    #[test]
    fn mebbe_arms() {
        let src = prog(
            "I HAS A x ITZ 2\n\
             BOTH SAEM x AN 1, O RLY?\n\
             YA RLY\nVISIBLE \"one\"\n\
             MEBBE BOTH SAEM x AN 2\nVISIBLE \"two\"\n\
             NO WAI\nVISIBLE \"other\"\nOIC",
        );
        assert_eq!(run1(&src), "two\n");
    }

    #[test]
    fn wtf_switch_with_fallthrough_and_gtfo() {
        let src = prog(
            "I HAS A x ITZ 1\n\
             x, WTF?\n\
             OMG 1\nVISIBLE \"one\"\n\
             OMG 2\nVISIBLE \"two\"\nGTFO\n\
             OMG 3\nVISIBLE \"three\"\n\
             OMGWTF\nVISIBLE \"default\"\nOIC",
        );
        // Arm 1 matches, falls through into arm 2, GTFO stops.
        assert_eq!(run1(&src), "one\ntwo\n");
    }

    #[test]
    fn wtf_default_arm() {
        let src = prog(
            "I HAS A x ITZ 9\nx, WTF?\nOMG 1\nVISIBLE \"one\"\nOMGWTF\nVISIBLE \"dunno\"\nOIC",
        );
        assert_eq!(run1(&src), "dunno\n");
    }

    #[test]
    fn counted_loop_uppin() {
        let src = prog("IM IN YR l UPPIN YR i TIL BOTH SAEM i AN 4\nVISIBLE i!\nIM OUTTA YR l");
        assert_eq!(run1(&src), "0123");
    }

    #[test]
    fn nerfin_wile_loop() {
        let src = prog(
            "I HAS A n ITZ 3\nIM IN YR l NERFIN YR i WILE BIGGER n AN 0\nVISIBLE n!\nn R DIFF OF n AN 1\nIM OUTTA YR l",
        );
        assert_eq!(run1(&src), "321");
    }

    #[test]
    fn gtfo_breaks_loop() {
        let src = prog(
            "IM IN YR l UPPIN YR i TIL BOTH SAEM i AN 100\n\
             BOTH SAEM i AN 3, O RLY?\nYA RLY\nGTFO\nOIC\nVISIBLE i!\nIM OUTTA YR l",
        );
        assert_eq!(run1(&src), "012");
    }

    #[test]
    fn nested_loops_same_label() {
        let src = prog(
            "IM IN YR loop UPPIN YR i TIL BOTH SAEM i AN 2\n\
             IM IN YR loop UPPIN YR j TIL BOTH SAEM j AN 2\n\
             VISIBLE SMOOSH i j MKAY!\n\
             IM OUTTA YR loop\nIM OUTTA YR loop",
        );
        assert_eq!(run1(&src), "00011011");
    }

    #[test]
    fn functions_and_recursion() {
        let src = "HAI 1.2\n\
            HOW IZ I fact YR n\n\
            BOTH SAEM n AN 0, O RLY?\n\
            YA RLY\nFOUND YR 1\nOIC\n\
            FOUND YR PRODUKT OF n AN I IZ fact YR DIFF OF n AN 1 MKAY\n\
            IF U SAY SO\n\
            VISIBLE I IZ fact YR 10 MKAY\n\
            KTHXBYE";
        assert_eq!(run1(src), "3628800\n");
    }

    #[test]
    fn function_fallthrough_returns_it() {
        let src = "HAI 1.2\nHOW IZ I f\nSUM OF 40 AN 2\nIF U SAY SO\nVISIBLE I IZ f MKAY\nKTHXBYE";
        assert_eq!(run1(src), "42\n");
    }

    #[test]
    fn function_gtfo_returns_noob_troof_cast() {
        let src =
            "HAI 1.2\nHOW IZ I f\nGTFO\nIF U SAY SO\nVISIBLE MAEK I IZ f MKAY A TROOF\nKTHXBYE";
        assert_eq!(run1(src), "FAIL\n");
    }

    #[test]
    fn infinite_recursion_is_diagnosed() {
        let src =
            "HAI 1.2\nHOW IZ I f\nFOUND YR I IZ f MKAY\nIF U SAY SO\nVISIBLE I IZ f MKAY\nKTHXBYE";
        let e = run_err(1, src);
        assert!(e.message.contains("RUN0130"), "{}", e.message);
    }

    #[test]
    fn smoosh_and_casts() {
        assert_eq!(run1(&prog("VISIBLE SMOOSH \"a\" AN 1 AN WIN MKAY")), "a1WIN\n");
        assert_eq!(run1(&prog("VISIBLE MAEK \"42\" A NUMBR")), "42\n");
        assert_eq!(run1(&prog("VISIBLE MAEK 3.7 A NUMBR")), "3\n");
        assert_eq!(run1(&prog("VISIBLE MAEK 3 A NUMBAR")), "3.00\n");
    }

    #[test]
    fn is_now_a() {
        assert_eq!(
            run1(&prog("I HAS A x ITZ \"5\"\nx IS NOW A NUMBR\nVISIBLE SUM OF x AN 1")),
            "6\n"
        );
    }

    #[test]
    fn boolean_ops() {
        assert_eq!(run1(&prog("VISIBLE BOTH OF WIN AN FAIL")), "FAIL\n");
        assert_eq!(run1(&prog("VISIBLE EITHER OF WIN AN FAIL")), "WIN\n");
        assert_eq!(run1(&prog("VISIBLE WON OF WIN AN WIN")), "FAIL\n");
        assert_eq!(run1(&prog("VISIBLE NOT FAIL")), "WIN\n");
        assert_eq!(run1(&prog("VISIBLE ALL OF WIN AN WIN AN FAIL MKAY")), "FAIL\n");
        assert_eq!(run1(&prog("VISIBLE ANY OF FAIL AN WIN MKAY")), "WIN\n");
    }

    #[test]
    fn srs_dynamic_identifiers() {
        let src = prog("I HAS A x ITZ 7\nI HAS A name ITZ \"x\"\nVISIBLE SRS name");
        assert_eq!(run1(&src), "7\n");
    }

    #[test]
    fn yarn_interpolation() {
        let src = prog("I HAS A cat ITZ \"CEILING\"\nVISIBLE \"HAI :{cat} CAT\"");
        assert_eq!(run1(&src), "HAI CEILING CAT\n");
    }

    #[test]
    fn gimmeh_reads_input() {
        let src = prog("I HAS A x\nGIMMEH x\nVISIBLE SMOOSH \"GOT \" x MKAY");
        assert_eq!(run1_input(&src, &["CHEEZ"]), "GOT CHEEZ\n");
    }

    #[test]
    fn gimmeh_without_input_errors() {
        let e = run_err(1, &prog("I HAS A x\nGIMMEH x"));
        assert!(e.message.contains("RUN0140"), "{}", e.message);
    }

    #[test]
    fn local_arrays() {
        let src = prog(
            "I HAS A a ITZ SRSLY LOTZ A NUMBRS AN THAR IZ 5\n\
             IM IN YR l UPPIN YR i TIL BOTH SAEM i AN 5\n\
             a'Z i R SQUAR OF i\n\
             IM OUTTA YR l\n\
             VISIBLE a'Z 4",
        );
        assert_eq!(run1(&src), "16\n");
    }

    #[test]
    fn dynamic_local_array_size() {
        // "real arrays that can be dynamically sized" (paper §II.B).
        let src = prog(
            "I HAS A n ITZ 3\n\
             I HAS A a ITZ SRSLY LOTZ A NUMBRS AN THAR IZ PRODUKT OF n AN 2\n\
             a'Z 5 R 99\nVISIBLE a'Z 5",
        );
        assert_eq!(run1(&src), "99\n");
    }

    #[test]
    fn array_out_of_bounds_is_diagnosed() {
        let e = run_err(1, &prog("I HAS A a ITZ SRSLY LOTZ A NUMBRS AN THAR IZ 3\nVISIBLE a'Z 5"));
        assert!(e.message.contains("RUN0123"), "{}", e.message);
    }

    #[test]
    fn division_by_zero_is_diagnosed() {
        let e = run_err(1, &prog("VISIBLE QUOSHUNT OF 1 AN 0"));
        assert!(e.message.contains("RUN0001"), "{}", e.message);
    }

    #[test]
    fn table3_math_extensions() {
        assert_eq!(run1(&prog("VISIBLE SQUAR OF 7")), "49\n");
        assert_eq!(run1(&prog("VISIBLE UNSQUAR OF 16")), "4.00\n");
        assert_eq!(run1(&prog("VISIBLE FLIP OF 4")), "0.25\n");
        // WHATEVR / WHATEVAR produce in-range values.
        let out = run1(&prog(
            "I HAS A r ITZ WHATEVR\nVISIBLE BOTH OF NOT SMALLR r AN 0 AN SMALLR r AN 2147483648",
        ));
        assert_eq!(out, "WIN\n");
        let out = run1(&prog(
            "I HAS A f ITZ WHATEVAR\nVISIBLE BOTH OF NOT SMALLR f AN 0.0 AN SMALLR f AN 1.0",
        ));
        assert_eq!(out, "WIN\n");
    }

    // -----------------------------------------------------------------
    // Parallel semantics (Table II)
    // -----------------------------------------------------------------

    #[test]
    fn me_and_mah_frenz() {
        let outs = run_n(4, &prog("VISIBLE \"PE \" ME \" OF \" MAH FRENZ"));
        for (i, o) in outs.iter().enumerate() {
            assert_eq!(o, &format!("PE {i} OF 4\n"));
        }
    }

    #[test]
    fn shared_scalar_is_per_pe() {
        let src = prog("WE HAS A x ITZ SRSLY A NUMBR\nx R PRODUKT OF ME AN 10\nHUGZ\nVISIBLE x");
        let outs = run_n(4, &src);
        for (i, o) in outs.iter().enumerate() {
            assert_eq!(o, &format!("{}\n", i * 10));
        }
    }

    #[test]
    fn txt_mah_bff_remote_read() {
        // Every PE reads PE 0's x.
        let src = prog(
            "WE HAS A x ITZ SRSLY A NUMBR\n\
             x R PRODUKT OF ME AN 10\nHUGZ\n\
             I HAS A y ITZ A NUMBR\n\
             TXT MAH BFF 0, y R UR x\n\
             VISIBLE y",
        );
        let outs = run_n(4, &src);
        for o in outs {
            assert_eq!(o, "0\n");
        }
    }

    #[test]
    fn txt_mah_bff_remote_write() {
        // Figure 2 / Section VI.C: TXT MAH BFF k, UR b R MAH a; HUGZ.
        let src = prog(
            "WE HAS A a ITZ SRSLY A NUMBR\n\
             WE HAS A b ITZ SRSLY A NUMBR\n\
             WE HAS A c ITZ SRSLY A NUMBR\n\
             a R SUM OF ME AN 1\nHUGZ\n\
             I HAS A k ITZ MOD OF SUM OF ME AN 1 AN MAH FRENZ\n\
             TXT MAH BFF k, UR b R MAH a\n\
             HUGZ\n\
             c R SUM OF a AN b\nVISIBLE c",
        );
        let n = 6;
        let outs = run_n(n, &src);
        for (me, o) in outs.iter().enumerate() {
            let left = (me + n - 1) % n;
            assert_eq!(o, &format!("{}\n", (me + 1) + (left + 1)));
        }
    }

    #[test]
    fn multi_remote_reference_statement() {
        // Section V: MAH x R SUM OF UR y AN UR z.
        let src = prog(
            "WE HAS A y ITZ SRSLY A NUMBR\n\
             WE HAS A z ITZ SRSLY A NUMBR\n\
             I HAS A x\n\
             y R SUM OF ME AN 100\nz R SUM OF ME AN 200\nHUGZ\n\
             TXT MAH BFF 0, MAH x R SUM OF UR y AN UR z\n\
             VISIBLE x",
        );
        let outs = run_n(3, &src);
        for o in outs {
            assert_eq!(o, "300\n");
        }
    }

    #[test]
    fn txt_block_with_remote_indexing() {
        let src = prog(
            "WE HAS A arr ITZ SRSLY LOTZ A NUMBRS AN THAR IZ 4\n\
             IM IN YR l UPPIN YR i TIL BOTH SAEM i AN 4\n\
             arr'Z i R SUM OF PRODUKT OF ME AN 100 AN i\n\
             IM OUTTA YR l\n\
             HUGZ\n\
             I HAS A k ITZ MOD OF SUM OF ME AN 1 AN MAH FRENZ\n\
             I HAS A got\n\
             TXT MAH BFF k AN STUFF\n\
             got R UR arr'Z 2\n\
             TTYL\n\
             VISIBLE got",
        );
        let n = 3;
        let outs = run_n(n, &src);
        for (me, o) in outs.iter().enumerate() {
            let k = (me + 1) % n;
            assert_eq!(o, &format!("{}\n", k * 100 + 2));
        }
    }

    #[test]
    fn whole_array_circular_copy_example_a() {
        // Section VI.A, complete.
        let src = prog(
            "I HAS A pe ITZ A NUMBR AN ITZ ME\n\
             I HAS A n_pes ITZ A NUMBR AN ITZ MAH FRENZ\n\
             WE HAS A array ITZ SRSLY LOTZ A NUMBRS AN THAR IZ 32\n\
             I HAS A next_pe ITZ A NUMBR AN ITZ SUM OF pe AN 1\n\
             next_pe R MOD OF next_pe AN n_pes\n\
             IM IN YR l UPPIN YR i TIL BOTH SAEM i AN 32\n\
             array'Z i R SUM OF PRODUKT OF pe AN 1000 AN i\n\
             IM OUTTA YR l\n\
             HUGZ\n\
             I HAS A mine ITZ SRSLY LOTZ A NUMBRS AN THAR IZ 32\n\
             TXT MAH BFF next_pe, MAH mine R UR array\n\
             VISIBLE mine'Z 31",
        );
        let n = 4;
        let outs = run_n(n, &src);
        for (me, o) in outs.iter().enumerate() {
            let next = (me + 1) % n;
            assert_eq!(o, &format!("{}\n", next * 1000 + 31));
        }
    }

    #[test]
    fn locks_example_b_remote_increment() {
        // Section VI.B with the faithful remote-increment variant:
        // every PE increments PE 0's x under its lock.
        let src = prog(
            "WE HAS A x ITZ A NUMBR AN IM SHARIN IT\n\
             HUGZ\n\
             I HAS A i ITZ 0\n\
             IM IN YR l UPPIN YR j TIL BOTH SAEM j AN 50\n\
             TXT MAH BFF 0 AN STUFF\n\
             IM SRSLY MESIN WIF UR x\n\
             UR x R SUM OF UR x AN 1\n\
             DUN MESIN WIF UR x\n\
             TTYL\n\
             IM OUTTA YR l\n\
             HUGZ\n\
             VISIBLE x",
        );
        let n = 4;
        let outs = run_n(n, &src);
        assert_eq!(outs[0], format!("{}\n", n * 50));
    }

    #[test]
    fn trylock_sets_it() {
        let src = prog(
            "WE HAS A x ITZ A NUMBR AN IM SHARIN IT\n\
             IM MESIN WIF x, O RLY?\n\
             YA RLY\nVISIBLE \"GOT IT\"\nDUN MESIN WIF x\n\
             NO WAI\nVISIBLE \"BUSY\"\nOIC",
        );
        assert_eq!(run1(&src), "GOT IT\n");
    }

    #[test]
    fn unlock_without_lock_is_diagnosed() {
        let e = run_err(1, &prog("WE HAS A x ITZ A NUMBR AN IM SHARIN IT\nDUN MESIN WIF x"));
        assert!(e.message.contains("RUN0180"), "{}", e.message);
    }

    #[test]
    fn bff_out_of_range_is_diagnosed() {
        let e = run_err(2, &prog("WE HAS A x ITZ SRSLY A NUMBR\nTXT MAH BFF 7, x R UR x"));
        assert!(e.message.contains("RUN0017"), "{}", e.message);
    }

    #[test]
    fn missing_hugz_race_detected_by_example() {
        // With the barrier the sum is deterministic; this is the
        // Figure 2 guarantee.
        let src = prog(
            "WE HAS A b ITZ SRSLY A NUMBR\n\
             I HAS A k ITZ MOD OF SUM OF ME AN 1 AN MAH FRENZ\n\
             TXT MAH BFF k, UR b R SUM OF ME AN 1\n\
             HUGZ\n\
             VISIBLE b",
        );
        let n = 4;
        let outs = run_n(n, &src);
        for (me, o) in outs.iter().enumerate() {
            let left = (me + n - 1) % n;
            assert_eq!(o, &format!("{}\n", left + 1));
        }
    }

    #[test]
    fn whatevr_streams_differ_across_pes() {
        let outs = run_n(4, &prog("VISIBLE WHATEVR"));
        let distinct: std::collections::HashSet<&String> = outs.iter().collect();
        assert!(distinct.len() >= 2, "PE RNG streams should differ: {outs:?}");
    }

    #[test]
    fn many_pes_smoke() {
        // A 32-PE "Cray-ish" run of a collective program.
        let src = prog(
            "WE HAS A x ITZ SRSLY A NUMBR\nx R ME\nHUGZ\n\
             I HAS A sum ITZ 0\n\
             IM IN YR l UPPIN YR t TIL BOTH SAEM t AN MAH FRENZ\n\
             TXT MAH BFF t, sum R SUM OF sum AN UR x\n\
             IM OUTTA YR l\n\
             VISIBLE sum",
        );
        let outs = run_n(32, &src);
        let want = (0..32).sum::<usize>();
        for o in outs {
            assert_eq!(o, format!("{want}\n"));
        }
    }
}
