//! # lol-c-codegen — LOLCODE → C + OpenSHMEM (the paper's `lcc` output)
//!
//! The paper's compiler is "a source-to-source compiler, written in C,
//! \[that\] translates LOLCODE with parallel extensions to C with
//! OpenSHMEM routines" (§II). This crate reproduces that output path in
//! Rust: [`emit_c`] turns an analyzed program into a portable C99
//! translation unit that
//!
//! * declares every `WE HAS A` variable as a static symmetric object
//!   (plus a `long` lock cell for `AN IM SHARIN IT`),
//! * lowers `UR` references under `TXT MAH BFF` to `shmem_*_g` /
//!   `shmem_*_p`, `HUGZ` to `shmem_barrier_all()`, and the implicit
//!   locks to OpenSHMEM atomics,
//! * calls `shmem_init()` transparently at the top of `main` (§VI.A),
//! * carries the dynamic value semantics in a C runtime: the unit
//!   starts with the runtime header [`LOL_RUNTIME_H`] and links
//!   against [`LOL_RUNTIME_C`], as the paper's `lcc` output links
//!   against a SHMEM library.
//!
//! Because no OpenSHMEM library exists in this environment, the crate
//! also ships [`SHMEM_STUB_H`] and [`SHMEM_STUB_C`], a multi-PE pthread
//! stub good enough to compile and *run* the generated C with any C99
//! compiler — and the [`driver`] module that probes the system
//! compiler, builds the runtime and the stub once into a cached
//! object, links each generated unit against it, executes the binary
//! across PE counts, and parses the per-PE outputs and operation
//! counters back out. That driver is what makes the C path a
//! first-class engine (`Backend::C` in the `lolcode` crate) rather
//! than emit-only; the tests compile-and-run against the interpreter
//! differentially. `lcc` writes the one-file form instead
//! ([`standalone`], [`standalone_stub`]).

#![forbid(unsafe_code)]

pub mod driver;
mod emit;
pub mod runtime;

pub use runtime::{LOL_RUNTIME_C, LOL_RUNTIME_H, SHMEM_STUB_C, SHMEM_STUB_H};

use lol_ast::diag::Diagnostic;
use lol_ast::Program;
use lol_sema::Analysis;

/// Emit the C translation unit of an analyzed program: the runtime
/// header [`LOL_RUNTIME_H`], then the program. It links against the
/// runtime object [`driver::build`] keeps, or becomes one
/// self-contained file through [`standalone`].
pub fn emit_c(program: &Program, analysis: &Analysis) -> Result<String, Diagnostic> {
    emit::CEmitter::new(analysis).emit_program(program)
}

/// An [`emit_c`] unit as one self-contained file, with the runtime
/// source after the runtime header: what `lcc` writes. It builds with
/// `cc -std=c99 -I<dir of shmem.h> out.c -lm -pthread`.
pub fn standalone(unit: &str) -> String {
    unit.replacen(LOL_RUNTIME_H, &format!("{LOL_RUNTIME_H}{LOL_RUNTIME_C}"), 1)
}

/// The stub's header and source as the one `shmem.h` that
/// `lcc --stub` writes beside a [`standalone`] file.
pub fn standalone_stub() -> String {
    format!("{SHMEM_STUB_H}{SHMEM_STUB_C}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use lol_parser::parse;
    use lol_sema::analyze;

    fn build(src: &str) -> (Program, Analysis) {
        let p = parse(src).expect_program(src);
        let a = analyze(&p);
        assert!(a.is_ok(), "sema: {:?}", a.diags.iter().collect::<Vec<_>>());
        (p, a)
    }

    fn gen(src: &str) -> String {
        let (p, a) = build(src);
        emit_c(&p, &a).expect("codegen failed")
    }

    fn prog(body: &str) -> String {
        format!("HAI 1.2\n{body}\nKTHXBYE")
    }

    #[test]
    fn hello_world_shape() {
        let c = gen(&prog("VISIBLE \"HAI WORLD\""));
        assert!(c.contains("shmem_init();"));
        assert!(c.contains("shmem_finalize();"));
        assert!(c.contains("lol_print(lol_from_str(\"HAI WORLD\"));"));
        assert!(c.contains("int main(void)"));
        // Balanced braces — a cheap structural sanity check.
        assert_eq!(c.matches('{').count(), c.matches('}').count());
    }

    #[test]
    fn shared_vars_become_symmetric_statics() {
        let c = gen(&prog(
            "WE HAS A x ITZ SRSLY A NUMBR AN IM SHARIN IT\n\
             WE HAS A pos ITZ SRSLY LOTZ A NUMBARS AN THAR IZ 32",
        ));
        assert!(c.contains("static LOL_SYMMETRIC long long g_x;"), "{c}");
        assert!(c.contains("static LOL_SYMMETRIC long g_x__lock[3];"));
        assert!(c.contains("static LOL_SYMMETRIC double g_pos[32];"));
        // Every symmetric object registers (in declaration order) so
        // the multi-PE stub can translate remote addresses.
        assert!(c.contains("LOL_SYM_REG(&g_x, sizeof g_x);"));
        assert!(c.contains("LOL_SYM_REG(g_x__lock, sizeof g_x__lock);"));
        assert!(c.contains("LOL_SYM_REG(g_pos, sizeof g_pos);"));
        let reg_x = c.find("LOL_SYM_REG(&g_x,").unwrap();
        let reg_pos = c.find("LOL_SYM_REG(g_pos,").unwrap();
        let done = c.find("LOL_SYM_REG_DONE();").unwrap();
        assert!(reg_x < reg_pos && reg_pos < done, "registration order = declaration order");
    }

    #[test]
    fn hugz_is_barrier_all() {
        let c = gen(&prog("HUGZ"));
        assert!(c.contains("shmem_barrier_all();"));
    }

    #[test]
    fn remote_refs_lower_to_shmem_g_p() {
        let c = gen(&prog(
            "WE HAS A a ITZ SRSLY A NUMBR\nWE HAS A b ITZ SRSLY A NUMBAR\n\
             I HAS A y\n\
             TXT MAH BFF 0 AN STUFF\n\
             y R UR a\n\
             UR b R 1.5\n\
             TTYL",
        ));
        assert!(c.contains("shmem_longlong_g(&g_a,"), "{c}");
        assert!(c.contains("shmem_double_p(&g_b,"), "{c}");
        // BFF bounds are checked, by the runtime's `lol_pe`.
        assert!(c.contains("const int __bff1 = lol_pe(0LL);"), "{c}");
    }

    #[test]
    fn locks_lower_to_atomics() {
        let c = gen(&prog(
            "WE HAS A x ITZ A NUMBR AN IM SHARIN IT\n\
             IM SRSLY MESIN WIF x\nDUN MESIN WIF x\n\
             IM MESIN WIF x, O RLY?\nYA RLY\nDUN MESIN WIF x\nOIC",
        ));
        assert!(c.contains("lol_lock_acquire(g_x__lock, shmem_my_pe());"));
        assert!(c.contains("lol_lock_release(g_x__lock, shmem_my_pe());"));
        assert!(c.contains("lol_lock_try(g_x__lock"));
    }

    #[test]
    fn me_and_frenz_lower_to_pe_queries() {
        let c = gen(&prog("VISIBLE ME\nVISIBLE MAH FRENZ"));
        assert!(c.contains("shmem_my_pe()"));
        assert!(c.contains("shmem_n_pes()"));
    }

    #[test]
    fn functions_are_emitted_with_prototypes() {
        let c = gen("HAI 1.2\nHOW IZ I add YR a AN YR b\nFOUND YR SUM OF a AN b\nIF U SAY SO\n\
             VISIBLE I IZ add YR 1 AN YR 2 MKAY\nKTHXBYE");
        assert!(c.contains("static lol_value_t f_add(lol_value_t v_a, lol_value_t v_b);"));
        assert!(c.contains("lol_value_t __r = lol_ret(lol_sum(v_a, v_b));"), "{c}");
        assert!(c.contains("f_add(lol_from_int(1LL), lol_from_int(2LL))"));
    }

    #[test]
    fn srs_is_rejected() {
        let (p, a) = build(&prog("I HAS A x ITZ 1\nVISIBLE SRS \"x\""));
        let e = emit_c(&p, &a).unwrap_err();
        assert_eq!(e.code, "CGC0001");
    }

    #[test]
    fn deterministic_output() {
        let src = prog("WE HAS A x ITZ SRSLY A NUMBR\nx R 1\nHUGZ\nVISIBLE x");
        assert_eq!(gen(&src), gen(&src));
    }

    #[test]
    fn paper_example_c_structure() {
        // TXT MAH BFF k, UR b R MAH a / HUGZ / c R SUM OF a AN b.
        let c = gen(&prog(
            "WE HAS A a ITZ SRSLY A NUMBR\nWE HAS A b ITZ SRSLY A NUMBR\n\
             WE HAS A c ITZ SRSLY A NUMBR\nI HAS A k ITZ 0\n\
             TXT MAH BFF k, UR b R MAH a\nHUGZ\nc R SUM OF a AN b",
        ));
        let put = c.find("shmem_longlong_p(&g_b").expect("remote put");
        let bar = c.find("shmem_barrier_all();").expect("barrier");
        // Symmetric NUMBR cells are native: the sum needs no boxing.
        let sum = c.find("g_c = lol_add_i(g_a, g_b);").expect("local sum");
        assert!(put < bar && bar < sum, "paper ordering preserved");
    }

    #[test]
    fn nbody_hot_loops_are_native() {
        let c = gen(include_str!("../../../corpus/nbody_bench.lol"));
        assert!(c.contains("double v_dx = 0.0;"), "pinned NUMBAR locals are doubles");
        assert!(
            c.contains("for (long long v_j = 0LL;; v_j = lol_add_i(v_j, 1LL)) {"),
            "counters are native NUMBRs"
        );
        assert!(c.contains("lol_arr_numbar v_vel_x; v_vel_x.n = "), "native NUMBAR arrays");
        // Nothing inside the program's loops goes through the dynamic
        // runtime's arithmetic or casts.
        let main = &c[c.find("static int lol_main").unwrap()..];
        let loops = &main[main.find("for (").unwrap()..];
        for dynamic in ["lol_sum(", "lol_produkt(", "lol_cast("] {
            assert!(!loops.contains(dynamic), "{dynamic} in a loop:\n{loops}");
        }
    }

    /// The runtime functions `c` (the program part of a unit) calls
    /// inside a loop, its header included.
    fn calls_in_loops(c: &str) -> Vec<String> {
        let mut names = Vec::new();
        for (at, _) in c.match_indices("for (").chain(c.match_indices("while (")) {
            let open = at + c[at..].find('{').expect("a loop body");
            let mut depth = 0;
            let close = open
                + c[open..]
                    .find(|ch| {
                        depth += match ch {
                            '{' => 1,
                            '}' => -1,
                            _ => 0,
                        };
                        depth == 0
                    })
                    .expect("a closed loop body");
            let body = &c[at..close];
            for (i, _) in body.match_indices('(') {
                let head = &body[..i];
                let start = head
                    .rfind(|ch: char| !ch.is_ascii_alphanumeric() && ch != '_')
                    .map_or(0, |j| j + 1);
                let name = &head[start..];
                let runtime = name.starts_with("lol_") || name.starts_with("shmem_");
                if runtime && !names.iter().any(|n| n == name) {
                    names.push(name.to_string());
                }
            }
        }
        names
    }

    /// The functions `header` declares `static inline`, directly or
    /// through a generator macro (`LOL_WRAP`, `LOL_ARITH`).
    fn inline_functions(header: &str) -> Vec<String> {
        let name_before_paren = |s: &str| {
            let head = &s[..s.find('(').unwrap_or(0)];
            head.rsplit([' ', '*']).next().unwrap_or("").to_string()
        };
        let mut names = Vec::new();
        let mut macros = Vec::new();
        let lines: Vec<&str> = header.lines().collect();
        for (i, line) in lines.iter().enumerate() {
            if let Some(rest) = line.strip_prefix("#define ") {
                if lines.get(i + 1).is_some_and(|next| next.contains("static inline")) {
                    macros.push(rest[..rest.find('(').unwrap()].to_string());
                }
            } else if line.starts_with("static inline ") {
                names.push(name_before_paren(line));
            } else if let Some(m) = macros.iter().find(|m| line.starts_with(&format!("{m}("))) {
                names.push(line[m.len() + 1..line.find(',').unwrap()].to_string());
            }
        }
        names
    }

    /// Every runtime function the emitted kernels call inside a loop
    /// body is `static inline` in a header, so linking the runtime as
    /// an object never moves a hot call out of the C compiler's sight.
    #[test]
    fn loop_helpers_stay_inline() {
        let inline = inline_functions(&format!("{LOL_RUNTIME_H}{SHMEM_STUB_H}"));
        for name in ["lol_add_i", "lol_sum", "lol_idx", "shmem_double_g", "shmem_my_pe"] {
            assert!(inline.iter().any(|n| n == name), "{name} not seen as inline: {inline:?}");
        }
        for (kernel, src) in [
            ("nbody_bench", include_str!("../../../corpus/nbody_bench.lol")),
            ("heat2d_bench", include_str!("../../../corpus/heat2d_bench.lol")),
            ("yarn_kernel", include_str!("../../../perfbench/programs/yarn_kernel.lol")),
        ] {
            let c = gen(src);
            let program = &c[c.find("/* ---- end runtime ---- */").unwrap()..];
            let called = calls_in_loops(program);
            assert!(called.len() >= 8, "{kernel}: only {called:?} found in its loops");
            for f in &called {
                assert!(inline.contains(f), "{kernel} calls {f} in a loop, not inline in a header");
            }
        }
    }

    /// Typed numeric code owns no YARN: the kernels' loops neither
    /// store through a slot buffer nor touch the scratch arena.
    #[test]
    fn typed_kernel_loops_make_no_arena_calls() {
        for src in [
            include_str!("../../../corpus/nbody_bench.lol"),
            include_str!("../../../corpus/heat2d_bench.lol"),
        ] {
            let c = gen(src);
            let called = calls_in_loops(&c[c.find("/* ---- end runtime ---- */").unwrap()..]);
            for f in ["lol_release", "lol_mark", "lol_store", "lol_append", "lol_smoosh"] {
                assert!(!called.iter().any(|n| n.starts_with(f)), "{f} in {called:?}");
            }
        }
    }

    /// yarn_kernel's `s R SMOOSH s AN … MKAY` appends into `s`'s own
    /// buffer; only the fold every 12 digits makes an arena YARN, and
    /// releases it.
    #[test]
    fn yarn_kernel_appends_in_place() {
        let c = gen(include_str!("../../../perfbench/programs/yarn_kernel.lol"));
        let main = &c[c.find("static int lol_main").unwrap()..];
        assert!(main.contains("v_s = lol_append(&k_s, v_s, 1, (lol_value_t[]){"), "{main}");
        assert!(main.contains("v_last = lol_store(&k_last, lol_smoosh_n(2, (lol_value_t[]){lol_from_str(\"#\"), v_s}));"));
        assert_eq!(main.matches("lol_release(__m);").count(), 3, "two GIMMEHs and the fold");
        assert!(main.contains("free(k_s.p);") && main.contains("lol_pe_end();"));
    }

    #[test]
    fn index_checks_name_their_array() {
        let c = gen(&prog(
            "I HAS A a ITZ SRSLY LOTZ A NUMBRS AN THAR IZ 4\nI HAS A y ITZ LOTZ A YARNS AN THAR IZ 2\n\
             WE HAS A g ITZ SRSLY LOTZ A NUMBARS AN THAR IZ 3\n\
             VISIBLE a'Z 1\nVISIBLE y'Z 1\nVISIBLE g'Z 2",
        ));
        assert!(c.contains("v_a.e[lol_idx(1LL, v_a.n, \"a\")]"), "{c}");
        assert!(c.contains("lol_arr_get(&v_y, 1LL, \"y\")"), "{c}");
        assert!(c.contains("g_g[lol_idx(2LL, 3, \"g\")]"), "{c}");
    }

    #[test]
    fn unknown_types_stay_boxed() {
        let c = gen(&prog(
            "I HAS A x ITZ 2\nI HAS A p ITZ SRSLY A NUMBAR\n\
             p R SUM OF x AN 1\nVISIBLE SMOOSH p AN x MKAY\nx R PRODUKT OF p AN 2",
        ));
        assert!(c.contains("lol_value_t v_x = lol_from_int(2LL);"), "{c}");
        assert!(c.contains("v_p = lol_to_dbl(lol_sum(v_x, lol_from_int(1LL)));"), "{c}");
        assert!(
            c.contains("lol_print(lol_smoosh_n(2, (lol_value_t[]){lol_from_dbl(v_p), v_x}));"),
            "{c}"
        );
        assert!(c.contains("v_x = lol_from_dbl((v_p * (double)2LL));"), "{c}");
    }
}
