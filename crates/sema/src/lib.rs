//! # lol-sema — semantic analysis for parallel LOLCODE
//!
//! Runs after parsing and before any backend (interpreter, VM, C
//! emitter). Produces:
//!
//! * a [`SharedLayout`]: every `WE HAS A` variable/array placed at a
//!   fixed word offset in the symmetric heap, with an extra
//!   [`LOCK_WORDS`]-word lock cell for `AN IM SHARIN IT` declarations —
//!   this is the static equivalent of the paper's symmetric data
//!   segment,
//! * a function table with arities,
//! * a [`Features`] summary (`SRS` use, `GIMMEH` use) that lets the
//!   compiled backends reject the dynamic-only constructs up front,
//! * diagnostics: scope errors, misuse of the parallel extensions
//!   (`UR` outside `TXT MAH BFF`, locking something nobody is sharing,
//!   array-size mismatches), and the teaching lints the paper's target
//!   audience needs most (`HUGZ` inside a conditional → your program
//!   hangs when PEs disagree).

#![forbid(unsafe_code)]

mod const_eval;
mod infer;
mod layout;
pub mod types;
mod walk;

pub use const_eval::const_eval_i64;
pub use layout::{SharedKind, SharedLayout, SharedVar, LOCK_WORDS};

use lol_ast::diag::Diagnostics;
use lol_ast::{Decl, LolType, LoopStmt, Program, Span, Symbol};
use std::collections::HashMap;
use types::Ty;

/// Signature of a `HOW IZ I` function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuncSig {
    pub name: Symbol,
    pub arity: usize,
}

/// Dynamic-language features a program uses (compiled backends reject
/// some of these).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Features {
    /// `SRS expr` dynamic identifiers (interpreter-only).
    pub uses_srs: bool,
    /// `GIMMEH` input.
    pub uses_gimmeh: bool,
    /// Any Table II parallel construct (useful for reporting).
    pub uses_parallel: bool,
}

/// The result of semantic analysis.
#[derive(Debug)]
pub struct Analysis {
    pub shared: SharedLayout,
    pub funcs: HashMap<Symbol, FuncSig>,
    pub features: Features,
    pub diags: Diagnostics,
    /// The inferred type of each unpinned local scalar and loop counter
    /// whose values all have one, keyed by the span of its name where it
    /// is declared (see [`Analysis::local_ty`] and
    /// [`Analysis::counter_ty`]). Empty when the program uses `SRS`.
    pub inferred: HashMap<Span, LolType>,
}

impl Analysis {
    /// True when no error-severity diagnostics were produced.
    pub fn is_ok(&self) -> bool {
        !self.diags.has_errors()
    }

    /// The one static type every value of the local scalar `d` declares
    /// has: its pinned (`ITZ SRSLY A`) type, or the NUMBR, NUMBAR or
    /// TROOF that inference found every store to it agrees on. `None`
    /// for a dynamic local.
    pub fn local_ty(&self, d: &Decl) -> Ty {
        if d.srsly {
            return d.ty;
        }
        self.inferred.get(&d.name.span).copied()
    }

    /// The static type of a counted loop's counter: NUMBR, unless a
    /// store of another type, `GIMMEH`, `IS NOW A` or a nested loop or
    /// declaration reusing the name leaves it dynamic.
    pub fn counter_ty(&self, lp: &LoopStmt) -> Ty {
        let (_, var) = lp.update.as_ref()?;
        self.inferred.get(&var.span).copied()
    }
}

/// Analyze a parsed program.
pub fn analyze(program: &Program) -> Analysis {
    let mut a = walk::Checker::run(program);
    if !a.features.uses_srs {
        a.inferred = infer::local_types(program, &a.shared);
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;
    use lol_ast::Severity;
    use lol_parser::parse;

    fn analyze_src(src: &str) -> Analysis {
        let p = parse(src).expect_program(src);
        analyze(&p)
    }

    fn ok(src: &str) -> Analysis {
        let a = analyze_src(src);
        assert!(a.is_ok(), "unexpected sema errors: {:?}", a.diags.iter().collect::<Vec<_>>());
        a
    }

    fn err_code(src: &str) -> String {
        let a = analyze_src(src);
        assert!(a.diags.has_errors(), "expected an error for {src:?}");
        let code = a.diags.iter().find(|d| d.severity == Severity::Error).unwrap().code;
        code.to_string()
    }

    fn warn_codes(src: &str) -> Vec<String> {
        analyze_src(src)
            .diags
            .iter()
            .filter(|d| d.severity == Severity::Warning)
            .map(|d| d.code.to_string())
            .collect()
    }

    // -----------------------------------------------------------------
    // Shared layout
    // -----------------------------------------------------------------

    #[test]
    fn layout_places_scalars_and_arrays() {
        let a = ok("HAI 1.2\n\
            WE HAS A x ITZ SRSLY A NUMBR\n\
            WE HAS A arr ITZ SRSLY LOTZ A NUMBARS AN THAR IZ 32\n\
            WE HAS A y ITZ SRSLY A NUMBAR\n\
            KTHXBYE");
        let x = a.shared.get(Symbol::intern("x")).unwrap();
        let arr = a.shared.get(Symbol::intern("arr")).unwrap();
        let y = a.shared.get(Symbol::intern("y")).unwrap();
        assert_eq!(x.addr, 0);
        assert_eq!(arr.addr, 1);
        assert_eq!(y.addr, 33);
        assert_eq!(a.shared.total_words, 34);
        assert!(matches!(arr.kind, SharedKind::Array { len: 32 }));
        assert!(x.lock.is_none());
    }

    #[test]
    fn sharin_it_allocates_a_lock_cell() {
        let a = ok("HAI 1.2\nWE HAS A x ITZ SRSLY A NUMBR AN IM SHARIN IT\nKTHXBYE");
        let x = a.shared.get(Symbol::intern("x")).unwrap();
        assert_eq!(x.addr, 0);
        assert_eq!(x.lock, Some(1));
        assert_eq!(a.shared.total_words, 1 + LOCK_WORDS);
    }

    #[test]
    fn paper_nbody_shared_layout() {
        let a = ok("HAI 1.2\n\
            WE HAS A pos_x ITZ SRSLY LOTZ A NUMBARS AN THAR IZ 32 AN IM SHARIN IT\n\
            WE HAS A pos_y ITZ SRSLY LOTZ A NUMBARS AN THAR IZ 32 AN IM SHARIN IT\n\
            KTHXBYE");
        assert_eq!(a.shared.total_words, 2 * (32 + LOCK_WORDS));
    }

    #[test]
    fn const_size_arithmetic() {
        let a = ok(
            "HAI 1.2\nWE HAS A arr ITZ SRSLY LOTZ A NUMBRS AN THAR IZ PRODUKT OF 4 AN 8\nKTHXBYE",
        );
        let arr = a.shared.get(Symbol::intern("arr")).unwrap();
        assert!(matches!(arr.kind, SharedKind::Array { len: 32 }));
    }

    #[test]
    fn shared_yarn_is_error() {
        assert_eq!(err_code("HAI 1.2\nWE HAS A s ITZ SRSLY A YARN\nKTHXBYE"), "SEM0003");
    }

    #[test]
    fn shared_without_type_is_error() {
        assert_eq!(err_code("HAI 1.2\nWE HAS A x\nKTHXBYE"), "SEM0003");
    }

    #[test]
    fn shared_array_nonconst_size_is_error() {
        assert_eq!(
            err_code("HAI 1.2\nI HAS A n ITZ 4\nWE HAS A a ITZ SRSLY LOTZ A NUMBRS AN THAR IZ n\nKTHXBYE"),
            "SEM0004"
        );
    }

    #[test]
    fn shared_array_nonpositive_size_is_error() {
        assert_eq!(
            err_code("HAI 1.2\nWE HAS A a ITZ SRSLY LOTZ A NUMBRS AN THAR IZ 0\nKTHXBYE"),
            "SEM0004"
        );
    }

    #[test]
    fn shared_decl_in_nested_block_is_error() {
        assert_eq!(
            err_code(
                "HAI 1.2\nIM IN YR l\nWE HAS A x ITZ SRSLY A NUMBR\nGTFO\nIM OUTTA YR l\nKTHXBYE"
            ),
            "SEM0005"
        );
    }

    #[test]
    fn sharin_private_var_is_error() {
        assert_eq!(err_code("HAI 1.2\nI HAS A x ITZ A NUMBR AN IM SHARIN IT\nKTHXBYE"), "SEM0013");
    }

    // -----------------------------------------------------------------
    // Scoping
    // -----------------------------------------------------------------

    #[test]
    fn undeclared_variable_is_error() {
        assert_eq!(err_code("HAI 1.2\nx R 5\nKTHXBYE"), "SEM0001");
    }

    #[test]
    fn declared_variable_is_fine() {
        ok("HAI 1.2\nI HAS A x\nx R 5\nVISIBLE x\nKTHXBYE");
    }

    #[test]
    fn loop_var_is_auto_declared() {
        ok("HAI 1.2\nIM IN YR l UPPIN YR i TIL BOTH SAEM i AN 3\nVISIBLE i\nIM OUTTA YR l\nKTHXBYE");
    }

    #[test]
    fn loop_var_not_visible_after_loop() {
        assert_eq!(
            err_code("HAI 1.2\nIM IN YR l UPPIN YR i TIL BOTH SAEM i AN 3\nIM OUTTA YR l\nVISIBLE i\nKTHXBYE"),
            "SEM0001"
        );
    }

    #[test]
    fn it_is_predeclared() {
        ok("HAI 1.2\nSUM OF 1 AN 2\nVISIBLE IT\nKTHXBYE");
    }

    #[test]
    fn function_params_are_in_scope() {
        ok("HAI 1.2\nHOW IZ I f YR a AN YR b\nFOUND YR SUM OF a AN b\nIF U SAY SO\nKTHXBYE");
    }

    #[test]
    fn function_cannot_see_main_locals() {
        assert_eq!(
            err_code("HAI 1.2\nI HAS A x ITZ 1\nHOW IZ I f\nFOUND YR x\nIF U SAY SO\nKTHXBYE"),
            "SEM0001"
        );
    }

    #[test]
    fn function_can_see_shared_vars() {
        ok("HAI 1.2\nWE HAS A x ITZ SRSLY A NUMBR\nHOW IZ I f\nFOUND YR x\nIF U SAY SO\nKTHXBYE");
    }

    #[test]
    fn duplicate_declaration_same_scope_is_error() {
        assert_eq!(err_code("HAI 1.2\nI HAS A x\nI HAS A x\nKTHXBYE"), "SEM0016");
    }

    #[test]
    fn shadowing_in_nested_scope_is_allowed() {
        ok("HAI 1.2\nI HAS A x ITZ 1\nIM IN YR l\nI HAS A x ITZ 2\nGTFO\nIM OUTTA YR l\nKTHXBYE");
    }

    #[test]
    fn srs_is_flagged_not_checked() {
        let a = ok("HAI 1.2\nI HAS A x\nSRS \"x\" R 5\nKTHXBYE");
        assert!(a.features.uses_srs);
    }

    // -----------------------------------------------------------------
    // Predication / locality
    // -----------------------------------------------------------------

    #[test]
    fn ur_outside_predication_is_error() {
        assert_eq!(
            err_code("HAI 1.2\nWE HAS A x ITZ SRSLY A NUMBR\nVISIBLE UR x\nKTHXBYE"),
            "SEM0002"
        );
    }

    #[test]
    fn ur_inside_txt_stmt_is_ok() {
        ok("HAI 1.2\nWE HAS A x ITZ SRSLY A NUMBR\nI HAS A y\nTXT MAH BFF 0, y R UR x\nKTHXBYE");
    }

    #[test]
    fn ur_inside_txt_block_is_ok() {
        ok("HAI 1.2\nWE HAS A x ITZ SRSLY A NUMBR\nTXT MAH BFF 0 AN STUFF\nx R UR x\nTTYL\nKTHXBYE");
    }

    #[test]
    fn ur_on_private_var_is_error() {
        assert_eq!(
            err_code("HAI 1.2\nI HAS A x ITZ 1\nTXT MAH BFF 0, x R UR x\nKTHXBYE"),
            "SEM0017"
        );
    }

    #[test]
    fn mah_outside_predication_warns() {
        let w = warn_codes("HAI 1.2\nI HAS A x ITZ 1\nVISIBLE MAH x\nKTHXBYE");
        assert!(w.contains(&"SEM0018".to_string()), "{w:?}");
    }

    #[test]
    fn nested_txt_warns() {
        let w = warn_codes(
            "HAI 1.2\nWE HAS A x ITZ SRSLY A NUMBR\nTXT MAH BFF 0 AN STUFF\nTXT MAH BFF 1, x R UR x\nTTYL\nKTHXBYE",
        );
        assert!(w.contains(&"SEM0019".to_string()), "{w:?}");
    }

    // -----------------------------------------------------------------
    // Locks
    // -----------------------------------------------------------------

    #[test]
    fn lock_on_shared_with_sharin_is_ok() {
        let a = ok("HAI 1.2\nWE HAS A x ITZ SRSLY A NUMBR AN IM SHARIN IT\nIM SRSLY MESIN WIF x\nDUN MESIN WIF x\nKTHXBYE");
        assert!(a.features.uses_parallel);
    }

    #[test]
    fn lock_without_sharin_is_error() {
        assert_eq!(
            err_code("HAI 1.2\nWE HAS A x ITZ SRSLY A NUMBR\nIM SRSLY MESIN WIF x\nKTHXBYE"),
            "SEM0006"
        );
    }

    #[test]
    fn lock_on_private_var_is_error() {
        assert_eq!(err_code("HAI 1.2\nI HAS A x\nIM MESIN WIF x\nKTHXBYE"), "SEM0006");
    }

    #[test]
    fn lock_on_undeclared_is_error() {
        assert_eq!(err_code("HAI 1.2\nIM MESIN WIF ghost\nKTHXBYE"), "SEM0001");
    }

    // -----------------------------------------------------------------
    // Functions
    // -----------------------------------------------------------------

    #[test]
    fn call_unknown_function_is_error() {
        assert_eq!(err_code("HAI 1.2\nI IZ nope MKAY\nKTHXBYE"), "SEM0007");
    }

    #[test]
    fn call_wrong_arity_is_error() {
        assert_eq!(
            err_code("HAI 1.2\nHOW IZ I f YR a\nFOUND YR a\nIF U SAY SO\nI IZ f MKAY\nKTHXBYE"),
            "SEM0008"
        );
    }

    #[test]
    fn duplicate_function_is_error() {
        assert_eq!(
            err_code(
                "HAI 1.2\nHOW IZ I f\nGTFO\nIF U SAY SO\nHOW IZ I f\nGTFO\nIF U SAY SO\nKTHXBYE"
            ),
            "SEM0011"
        );
    }

    #[test]
    fn found_yr_outside_function_is_error() {
        assert_eq!(err_code("HAI 1.2\nFOUND YR 1\nKTHXBYE"), "SEM0010");
    }

    #[test]
    fn gtfo_at_top_level_is_error() {
        assert_eq!(err_code("HAI 1.2\nGTFO\nKTHXBYE"), "SEM0009");
    }

    #[test]
    fn gtfo_in_loop_switch_function_is_ok() {
        ok("HAI 1.2\nIM IN YR l\nGTFO\nIM OUTTA YR l\nKTHXBYE");
        ok("HAI 1.2\nWTF?\nOMG 1\nGTFO\nOIC\nKTHXBYE");
        ok("HAI 1.2\nHOW IZ I f\nGTFO\nIF U SAY SO\nKTHXBYE");
    }

    // -----------------------------------------------------------------
    // Arrays
    // -----------------------------------------------------------------

    #[test]
    fn indexing_scalar_is_error() {
        assert_eq!(err_code("HAI 1.2\nI HAS A x ITZ 1\nVISIBLE x'Z 0\nKTHXBYE"), "SEM0022");
    }

    #[test]
    fn whole_array_copy_same_size_is_ok() {
        ok("HAI 1.2\n\
            WE HAS A a ITZ SRSLY LOTZ A NUMBRS AN THAR IZ 8\n\
            WE HAS A b ITZ SRSLY LOTZ A NUMBRS AN THAR IZ 8\n\
            TXT MAH BFF 0, MAH a R UR b\nKTHXBYE");
    }

    #[test]
    fn whole_array_copy_size_mismatch_is_error() {
        assert_eq!(
            err_code(
                "HAI 1.2\n\
                WE HAS A a ITZ SRSLY LOTZ A NUMBRS AN THAR IZ 8\n\
                WE HAS A b ITZ SRSLY LOTZ A NUMBRS AN THAR IZ 4\n\
                TXT MAH BFF 0, MAH a R UR b\nKTHXBYE"
            ),
            "SEM0014"
        );
    }

    #[test]
    fn array_into_scalar_is_error() {
        assert_eq!(
            err_code(
                "HAI 1.2\nI HAS A x\nI HAS A a ITZ SRSLY LOTZ A NUMBRS AN THAR IZ 4\nx R a\nKTHXBYE"
            ),
            "SEM0015"
        );
    }

    // -----------------------------------------------------------------
    // Teaching lints
    // -----------------------------------------------------------------

    #[test]
    fn hugz_inside_conditional_warns() {
        let w = warn_codes("HAI 1.2\nWIN, O RLY?\nYA RLY\nHUGZ\nOIC\nKTHXBYE");
        assert!(w.contains(&"SEM0012".to_string()), "{w:?}");
    }

    #[test]
    fn hugz_at_top_level_is_clean() {
        let a = ok("HAI 1.2\nHUGZ\nKTHXBYE");
        assert!(a.diags.is_empty());
        assert!(a.features.uses_parallel);
    }

    #[test]
    fn hugz_inside_predication_warns() {
        let w = warn_codes("HAI 1.2\nTXT MAH BFF 0 AN STUFF\nHUGZ\nTTYL\nKTHXBYE");
        assert!(w.contains(&"SEM0023".to_string()), "{w:?}");
    }

    // -----------------------------------------------------------------
    // Full paper programs
    // -----------------------------------------------------------------

    #[test]
    fn paper_example_a_analyzes_clean() {
        ok("HAI 1.2\n\
            I HAS A pe ITZ A NUMBR AN ITZ ME\n\
            I HAS A n_pes ITZ A NUMBR AN ITZ MAH FRENZ\n\
            WE HAS A array ITZ SRSLY LOTZ A NUMBRS AN THAR IZ 32\n\
            I HAS A next_pe ITZ A NUMBR AN ITZ SUM OF pe AN 1\n\
            next_pe R MOD OF next_pe AN n_pes\n\
            TXT MAH BFF next_pe, MAH array R UR array\n\
            KTHXBYE");
    }

    #[test]
    fn paper_example_b_analyzes_clean() {
        ok("HAI 1.2\n\
            I HAS A k ITZ 0\n\
            WE HAS A x ITZ A NUMBR AN IM SHARIN IT\n\
            TXT MAH BFF k AN STUFF\n\
            IM MESIN WIF UR x\n\
            x R SUM OF x AN 1\n\
            DUN MESIN WIF UR x\n\
            TTYL\n\
            KTHXBYE");
    }
}
