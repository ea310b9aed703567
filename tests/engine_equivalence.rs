//! Backend-equivalence suite over the paper corpus: every program in
//! `lolcode::corpus` is compiled **once** to a shared `Compiled`
//! artifact and driven through *both* `Engine` implementations across
//! seeds and PE counts; the per-PE outputs must match byte-for-byte.
//!
//! This is the corpus-pinned complement to the generated-program
//! equivalence in `backend_equivalence.rs`, and doubles as the
//! demonstration that `Engine::run_many` re-executes one artifact
//! across a config sweep without re-running the front end.

use icanhas::ast::LolType;
use icanhas::prelude::*;
use proptest::TestRng;
use std::time::Duration;

/// Every corpus program (name, source, max PE count to sweep).
fn corpus_programs() -> Vec<(&'static str, String, usize)> {
    vec![
        ("hello", corpus::HELLO_PARALLEL.to_string(), 8),
        ("ring", corpus::RING_EXAMPLE.to_string(), 8),
        ("locks", corpus::LOCKS_EXAMPLE.to_string(), 8),
        ("barrier", corpus::BARRIER_EXAMPLE.to_string(), 8),
        ("trylock", corpus::TRYLOCK_EXAMPLE.to_string(), 8),
        ("heat2d", corpus::heat2d_source(2, 4, 3), 8),
        ("histogram", corpus::histogram_source(4, 12), 8),
        ("nbody", corpus::nbody_source(4, 2), 4),
    ]
}

fn sweep(max_pes: usize) -> Vec<RunConfig> {
    let mut configs = Vec::new();
    for n in [1usize, 2, 4, 8] {
        if n > max_pes {
            break;
        }
        for seed in [0u64, 17, 0xC47_F00D] {
            configs.push(RunConfig::new(n).seed(seed).timeout(Duration::from_secs(60)));
        }
    }
    configs
}

#[test]
fn every_corpus_program_agrees_across_engines_and_seeds() {
    for (name, src, max_pes) in corpus_programs() {
        // ONE artifact per program; both engines and every config in
        // the sweep reuse it.
        let artifact = compile(&src).unwrap_or_else(|e| panic!("{name}: compile failed: {e}"));
        let configs = sweep(max_pes);
        let interp = InterpEngine.run_many(&artifact, &configs);
        let vm = VmEngine.run_many(&artifact, &configs);
        let sim = SimEngine.run_many(&artifact, &configs);
        for (((cfg, a), b), s) in configs.iter().zip(interp).zip(vm).zip(sim) {
            let a = a.unwrap_or_else(|e| {
                panic!("{name}: interp failed at {} PEs seed {}: {e}", cfg.n_pes, cfg.seed)
            });
            let b = b.unwrap_or_else(|e| {
                panic!("{name}: vm failed at {} PEs seed {}: {e}", cfg.n_pes, cfg.seed)
            });
            let s = s.unwrap_or_else(|e| {
                panic!("{name}: sim failed at {} PEs seed {}: {e}", cfg.n_pes, cfg.seed)
            });
            assert_eq!(
                a.outputs, b.outputs,
                "{name}: engine divergence at {} PEs seed {}",
                cfg.n_pes, cfg.seed
            );
            assert_eq!(
                a.outputs, s.outputs,
                "{name}: the discrete-event sim diverges at {} PEs seed {}",
                cfg.n_pes, cfg.seed
            );
            assert_eq!(a.outputs.len(), cfg.n_pes);
            // All engines run the same algorithm on the same
            // substrate: their communication *shape* must agree too.
            for (other, which) in [(&b, "vm"), (&s, "sim")] {
                assert_eq!(
                    a.stats.iter().map(|st| st.barriers).collect::<Vec<_>>(),
                    other.stats.iter().map(|st| st.barriers).collect::<Vec<_>>(),
                    "{name}: barrier-count divergence vs {which} at {} PEs seed {}",
                    cfg.n_pes,
                    cfg.seed
                );
            }
        }
    }
}

/// The discrete-event engine's reason to exist: PE counts no thread
/// pool could host. 1,024 PEs of the barrier corpus program run on one
/// OS thread in debug mode; the sim crate's own release tests push the
/// same loop to 65,536 and (ignored) 1,000,000 PEs.
#[test]
fn sim_engine_runs_1024_pes_in_debug() {
    let artifact = compile(corpus::BARRIER_EXAMPLE).unwrap();
    let cfg = RunConfig::new(1024)
        .seed(11)
        .clock(ClockMode::Virtual)
        .latency(LatencyModel::epiphany16())
        .timeout(Duration::from_secs(120));
    let r = SimEngine.run(&artifact, &cfg).unwrap();
    assert_eq!(r.outputs.len(), 1024);
    assert!(r.outputs.iter().enumerate().all(|(pe, o)| o.contains(&format!("PE {pe}"))));
    // The simulated makespan doubles as the deterministic wall.
    assert_eq!(Some(r.wall), r.virtual_wall);
    let again = SimEngine.run(&artifact, &cfg).unwrap();
    assert_eq!(r.virtual_wall, again.virtual_wall, "virtual wall must reproduce at 1k PEs");
}

// ---------------------------------------------------------------------
// Grammar-based differential testing
// ---------------------------------------------------------------------

/// A small seeded LOLCODE generator (no `SRS`) covering constructs the
/// `backend_equivalence.rs` proptest generator doesn't reach: `MAEK`
/// casts, `IS NOW A`, `WTF?` switches, `NERFIN`/`WILE` loops, seeded
/// `WHATEVR`, and a barrier-fenced remote-read phase (`TXT MAH BFF` /
/// `UR`). Generation is plain weighted recursion over one [`TestRng`],
/// so the whole 200-program battery reproduces from its seed.
struct ProgramGen {
    rng: TestRng,
    next_loop: u32,
    bucket: GenBucket,
    /// The counters of the loops being generated, innermost last.
    counters: Vec<u32>,
}

/// Generation bias. The default `Mixed` is the original balanced
/// grammar; the other buckets overweight the value-representation
/// corners this PR's interp/VM hot-path rework touches most.
#[derive(Clone, Copy, PartialEq)]
enum GenBucket {
    Mixed,
    /// SMOOSH pyramids, YARN casts and interpolation — stresses the
    /// string paths of the split scalar/heap value representation.
    YarnHeavy,
    /// i64-magnitude constants under SUM/DIFF/PRODUKT chains — every
    /// backend must wrap identically (wrapping, like C's eventual
    /// two's-complement behaviour, is the pinned semantics).
    OverflowHeavy,
    /// `SRSLY A NUMBR/NUMBAR/TROOF/YARN` locals `p0..p3` and a NUMBAR
    /// array `a1` as leaves and store targets, NUMBAR literals, and loop
    /// counters some bodies retype to NUMBAR — the paths the VM's typed
    /// lowering compiles without a runtime cast.
    Pinned,
    /// Operators, `SMOOSH` and argument lists whose operands are calls
    /// to functions that print their arguments, some after an operand
    /// that faults: every engine must evaluate operands in source order.
    Calls,
    /// Unpinned locals `u0..u3` that start as a NUMBR, a NUMBAR, a TROOF
    /// and a NUMBR and are stored to with expressions of that type, which
    /// sema's inference lets the compilers keep in registers and native
    /// C variables. Some programs break one or two of them: a store of
    /// another type, `GIMMEH`, `IS NOW A`, a shadowing redeclaration or
    /// a call result.
    Inferred,
}

/// The types of the [`GenBucket::Inferred`] locals `u0..u3`.
const U_TYS: [LolType; 4] = [LolType::Numbr, LolType::Numbar, LolType::Troof, LolType::Numbr];

/// `GIMMEH` input for the [`GenBucket::Inferred`] bucket: numeric lines,
/// so arithmetic on what was read keeps running.
const U_INPUT: [&str; 6] = ["7", "-3", "2.5", "12", "0.125", "40"];

impl ProgramGen {
    fn new(seed: u64) -> Self {
        Self::bucketed(seed, GenBucket::Mixed)
    }

    fn bucketed(seed: u64, bucket: GenBucket) -> Self {
        ProgramGen { rng: TestRng::from_seed(seed), next_loop: 0, bucket, counters: Vec::new() }
    }

    /// The `GIMMEH` input lines the bucket's programs read.
    fn input(&self) -> Vec<&'static str> {
        match self.bucket {
            GenBucket::Inferred => U_INPUT.repeat(20),
            _ => Vec::new(),
        }
    }

    /// An expression whose static type is exactly `ty` (NUMBR, NUMBAR or
    /// TROOF), over the [`GenBucket::Inferred`] locals of that type, the
    /// enclosing loops' counters and literals.
    fn typed_expr(&mut self, ty: LolType, depth: u32) -> String {
        use LolType::{Numbar, Numbr, Troof};
        let d = depth.saturating_sub(1);
        let leaf = depth == 0 || self.rng.below(3) == 0;
        match (ty, leaf) {
            (Numbr, true) => match self.rng.below(5) {
                0 => (self.rng.below(100) as i64 - 50).to_string(),
                1 => format!("u{}", self.pick(&["0", "3"])),
                2 if !self.counters.is_empty() => {
                    let i = self.rng.below(self.counters.len() as u64) as usize;
                    format!("x{}", self.counters[i])
                }
                3 => format!("MAEK {} A NUMBR", self.typed_expr(Numbar, 0)),
                _ => "u0".to_string(),
            },
            (Numbar, true) => match self.rng.below(3) {
                0 => self.pick(&["2.5", "-0.75", "0.0", "10.125"]).to_string(),
                1 => format!("MAEK {} A NUMBAR", self.typed_expr(Numbr, 0)),
                _ => "u1".to_string(),
            },
            (Troof, true) => match self.rng.below(3) {
                0 => self.pick(&["WIN", "FAIL"]).to_string(),
                _ => "u2".to_string(),
            },
            (Numbr, false) => match self.rng.below(6) {
                0..=2 => {
                    let op =
                        self.pick(&["SUM OF", "DIFF OF", "PRODUKT OF", "BIGGR OF", "SMALLR OF"]);
                    format!("{op} {} AN {}", self.typed_expr(Numbr, d), self.typed_expr(Numbr, d))
                }
                // A variable divisor may be zero: RUN0001 on every engine.
                3 if self.rng.below(4) == 0 => {
                    let op = self.pick(&["MOD OF", "QUOSHUNT OF"]);
                    format!("{op} {} AN u{}", self.typed_expr(Numbr, d), self.pick(&["0", "3"]))
                }
                3 | 4 => {
                    let op = self.pick(&["MOD OF", "QUOSHUNT OF"]);
                    let by = self.pick(&["2", "3", "7", "-5", "2147483647"]);
                    format!("{op} {} AN {by}", self.typed_expr(Numbr, d))
                }
                _ => format!("SQUAR OF {}", self.typed_expr(Numbr, d)),
            },
            (Numbar, false) => match self.rng.below(4) {
                0 | 1 => {
                    let op = self.pick(&["SUM OF", "DIFF OF", "PRODUKT OF", "QUOSHUNT OF"]);
                    let rhs = if self.rng.below(2) == 0 { Numbr } else { Numbar };
                    format!("{op} {} AN {}", self.typed_expr(Numbar, d), self.typed_expr(rhs, d))
                }
                2 => format!(
                    "{} {}",
                    self.pick(&["FLIP OF", "UNSQUAR OF"]),
                    self.typed_expr(Numbar, d)
                ),
                _ => format!("SQUAR OF {}", self.typed_expr(Numbar, d)),
            },
            (_, false) => match self.rng.below(4) {
                0 => {
                    let op = self.pick(&["BOTH SAEM", "DIFFRINT", "BIGGER", "SMALLR"]);
                    format!("{op} {} AN {}", self.typed_expr(Numbr, d), self.typed_expr(Numbr, d))
                }
                1 => {
                    let op = self.pick(&["BIGGER", "SMALLR"]);
                    format!("{op} {} AN {}", self.typed_expr(Numbar, d), self.typed_expr(Numbr, d))
                }
                2 => format!("NOT {}", self.typed_expr(Troof, d)),
                _ => {
                    let op = self.pick(&["BOTH OF", "EITHER OF", "WON OF"]);
                    format!("{op} {} AN {}", self.typed_expr(Troof, d), self.typed_expr(Troof, d))
                }
            },
            _ => unreachable!("only NUMBR, NUMBAR and TROOF locals"),
        }
    }

    /// A store to an inferred local of its own type, or a print of all
    /// four through YARN interpolation.
    fn inferred_stmt(&mut self) -> String {
        if self.rng.below(6) == 0 {
            return "VISIBLE \"U :{u0} :{u1} :{u2} :{u3}\"".to_string();
        }
        let k = self.rng.below(4) as usize;
        format!("u{k} R {}", self.typed_expr(U_TYS[k], 2))
    }

    /// A statement after which `u{k}` has no one static type.
    fn inferred_breaker(&mut self) -> String {
        let k = self.rng.below(4) as usize;
        match self.rng.below(5) {
            // A store of another type: NUMBR and NUMBAR are mismatches
            // of each other, and a YARN of either.
            0 => {
                let other = match U_TYS[k] {
                    LolType::Numbr => "2.5",
                    LolType::Numbar => "3",
                    _ => "1",
                };
                format!("u{k} R {}", self.pick(&[other, "\"7\""]))
            }
            1 => format!("GIMMEH u{k}"),
            2 => format!("u{k} IS NOW A {}", self.pick(&["NUMBR", "NUMBAR", "YARN"])),
            // The shadowing declaration's initializer does not read the
            // name it shadows: on the C engine such a read sees the new,
            // uninitialized C variable, whose scope starts at its own
            // declarator, and on interp, in a loop, the previous
            // iteration's binding. The engines disagree there whether
            // or not the local is typed.
            3 => {
                let v = self.pick(&["4", "0.5", "WIN", "\"9\""]);
                format!("WIN, O RLY?\nYA RLY\nI HAS A u{k} ITZ {v}\nVISIBLE \"S \" u{k}\nOIC")
            }
            // A call result of the local's own type.
            _ => format!("u{k} R I IZ idn YR {} MKAY", self.typed_expr(U_TYS[k], 1)),
        }
    }

    /// A YARN-flavoured expression: concat trees over (mostly numeric,
    /// so casts keep flowing) string leaves, YARN round-trips, and
    /// `:{...}` interpolation.
    fn yarn_expr(&mut self, depth: u32) -> String {
        if depth == 0 || self.rng.below(4) == 0 {
            return format!("\"{}\"", self.pick(&["42", "-7", "0", "31", "3", "O HAI"]));
        }
        match self.rng.below(4) {
            0 => format!("SMOOSH {} AN {} MKAY", self.yarn_expr(depth - 1), self.expr(depth - 1)),
            1 => format!("MAEK {} A YARN", self.expr(depth - 1)),
            2 => format!("MAEK \"{}\" A NUMBR", self.pick(&["42", "-7", "0"])),
            _ => "\"IT SEZ :{v0} AN :{s0}\"".to_string(),
        }
    }

    /// An overflow-flavoured expression: constants near the i64 rim
    /// under wrapping arithmetic.
    fn overflow_expr(&mut self, depth: u32) -> String {
        if depth == 0 || self.rng.below(3) == 0 {
            return self
                .pick(&[
                    "9223372036854775807",  // i64::MAX
                    "-9223372036854775807", // i64::MIN + 1
                    "4611686018427387904",  // 2^62
                    "3037000499",           // ~sqrt(i64::MAX)
                ])
                .to_string();
        }
        let op = self.pick(&["PRODUKT OF", "SUM OF", "DIFF OF"]);
        format!("{op} {} AN {}", self.overflow_expr(depth - 1), self.expr(depth - 1))
    }

    /// A pinned-flavoured expression: the typed locals, NUMBAR literals
    /// and the operators whose result types the VM compiler infers.
    fn pinned_expr(&mut self, depth: u32) -> String {
        if depth == 0 || self.rng.below(3) == 0 {
            return match self.rng.below(4) {
                0 => format!("p{}", self.rng.below(4)),
                1 => format!("a1'Z {}", self.rng.below(4)),
                2 => self.pick(&["2.5", "-0.75", "0.0", "10.125"]).to_string(),
                _ => format!("MAEK {} A NUMBAR", self.expr(0)),
            };
        }
        match self.rng.below(3) {
            0 => {
                let op = self.pick(&["SUM OF", "DIFF OF", "PRODUKT OF", "BIGGR OF", "SMALLR OF"]);
                format!("{op} {} AN {}", self.pinned_expr(depth - 1), self.expr(depth - 1))
            }
            1 => {
                let op = self.pick(&["SQUAR OF", "UNSQUAR OF", "FLIP OF"]);
                format!("{op} {}", self.pinned_expr(depth - 1))
            }
            _ => {
                let op = self.pick(&["BIGGER", "SMALLR", "BOTH SAEM"]);
                format!("{op} {} AN {}", self.pinned_expr(depth - 1), self.expr(depth - 1))
            }
        }
    }

    /// A call-flavoured expression: operands that are calls to the
    /// printing functions `f` and `g` (see [`ProgramGen::program`]).
    fn calls_expr(&mut self, depth: u32) -> String {
        let d = depth.saturating_sub(1);
        match self.rng.below(20) {
            0..=6 => self.call(d),
            7..=11 => {
                let op = self.pick(&["SUM OF", "DIFF OF", "BIGGR OF", "BOTH SAEM", "BIGGER"]);
                format!("{op} {} AN {}", self.call(d), self.call(d))
            }
            12 | 13 => {
                format!("SMOOSH {} AN {} AN {} MKAY", self.call(d), self.expr(d), self.call(d))
            }
            14..=16 => format!("I IZ g YR {} AN YR {} MKAY", self.call(d), self.call(d)),
            17 | 18 => format!("PRODUKT OF {} AN {}", self.expr(d), self.call(d)),
            // An operand that may fault (NUMBR division by zero) before
            // a printing call.
            _ => {
                let by = self.pick(&["0", "1", "2", "3", "5", "7"]);
                format!("SUM OF QUOSHUNT OF {} AN {by} AN {}", self.expr(d), self.call(d))
            }
        }
    }

    /// A call to `f` or `g`.
    fn call(&mut self, depth: u32) -> String {
        if self.rng.below(2) == 0 {
            format!("I IZ f YR {} MKAY", self.expr(depth))
        } else {
            format!("I IZ g YR {} AN YR {} MKAY", self.expr(depth), self.expr(depth))
        }
    }

    /// A store to a typed local or array element, or a print of every
    /// typed local through YARN interpolation.
    fn pinned_stmt(&mut self) -> String {
        match self.rng.below(6) {
            0 => format!("a1'Z {} R {}", self.rng.below(4), self.expr(2)),
            1 => "VISIBLE \"P :{p0} :{p1} :{p2} :{p3}\"".to_string(),
            _ => format!("p{} R {}", self.rng.below(4), self.expr(2)),
        }
    }

    fn pick<'a>(&mut self, options: &[&'a str]) -> &'a str {
        options[self.rng.below(options.len() as u64) as usize]
    }

    /// An expression of bounded depth over vars `v0..v4`, the local
    /// shared instance `s0`, the gathered remote value `g0`, and the
    /// array `a0`.
    fn expr(&mut self, depth: u32) -> String {
        match self.bucket {
            GenBucket::YarnHeavy if self.rng.below(2) == 0 => return self.yarn_expr(depth),
            GenBucket::OverflowHeavy if self.rng.below(2) == 0 => return self.overflow_expr(depth),
            GenBucket::Pinned if self.rng.below(2) == 0 => return self.pinned_expr(depth),
            GenBucket::Calls if self.rng.below(3) == 0 => return self.calls_expr(depth),
            GenBucket::Inferred if self.rng.below(2) == 0 => {
                let ty = U_TYS[self.rng.below(3) as usize];
                return self.typed_expr(ty, depth);
            }
            _ => {}
        }
        if depth == 0 || self.rng.below(3) == 0 {
            return match self.rng.below(9) {
                0 => (self.rng.below(200) as i64 - 100).to_string(),
                1 => format!("v{}", self.rng.below(5)),
                2 => "s0".to_string(),
                3 => "g0".to_string(),
                4 => format!("a0'Z {}", self.rng.below(8)),
                5 => "ME".to_string(),
                6 => "MAH FRENZ".to_string(),
                7 => self.pick(&["WIN", "FAIL"]).to_string(),
                // Numeric YARNs: LOLCODE's weak casts let them flow
                // through arithmetic instead of faulting everything.
                _ => format!("\"{}\"", self.pick(&["42", "7", "0", "31"])),
            };
        }
        match self.rng.below(8) {
            0 | 1 => {
                let op = self.pick(&["SUM OF", "DIFF OF", "PRODUKT OF", "BIGGR OF", "SMALLR OF"]);
                format!("{op} {} AN {}", self.expr(depth - 1), self.expr(depth - 1))
            }
            2 => {
                let op = self.pick(&["BOTH SAEM", "DIFFRINT"]);
                format!("{op} {} AN {}", self.expr(depth - 1), self.expr(depth - 1))
            }
            3 => {
                let op = self.pick(&["BOTH OF", "EITHER OF", "WON OF"]);
                format!("{op} {} AN {}", self.expr(depth - 1), self.expr(depth - 1))
            }
            4 => format!("NOT {}", self.expr(depth - 1)),
            5 => {
                let ty = self.pick(&["NUMBR", "YARN", "TROOF"]);
                format!("MAEK {} A {ty}", self.expr(depth - 1))
            }
            6 => format!("SMOOSH {} AN {} MKAY", self.expr(depth - 1), self.expr(depth - 1)),
            // The C engine's RNG is a different stream: the calls
            // battery, which runs on it, calls instead.
            _ if self.bucket == GenBucket::Calls => self.call(depth - 1),
            // Likewise for the inferred battery, which runs on it too.
            _ if self.bucket == GenBucket::Inferred => self.typed_expr(LolType::Numbr, depth - 1),
            // Seeded per-PE stream: same seed => same values on both
            // engines. Keep it bounded so arithmetic stays tame.
            _ => "MOD OF WHATEVR AN 97".to_string(),
        }
    }

    /// One statement; `depth` bounds nesting.
    fn stmt(&mut self, depth: u32) -> String {
        if self.bucket == GenBucket::Pinned && self.rng.below(3) == 0 {
            return self.pinned_stmt();
        }
        if self.bucket == GenBucket::Inferred && self.rng.below(2) == 0 {
            return self.inferred_stmt();
        }
        let simple_kinds = 6u64;
        let kinds = if depth == 0 { simple_kinds } else { simple_kinds + 3 };
        match self.rng.below(kinds) {
            0 => format!("v{} R {}", self.rng.below(5), self.expr(2)),
            1 => format!("VISIBLE {}", self.expr(2)),
            2 => format!("s0 R {}", self.expr(2)),
            3 => format!("a0'Z {} R {}", self.rng.below(8), self.expr(2)),
            4 => self.expr(2), // bare expression: sets IT
            5 => {
                let ty = self.pick(&["NUMBR", "YARN", "TROOF"]);
                format!("v{} IS NOW A {ty}", self.rng.below(5))
            }
            6 => {
                // O RLY? with optional MEBBE arm.
                let cond = self.expr(2);
                let yes = self.block(depth - 1);
                let no = self.block(depth - 1);
                if self.rng.below(2) == 0 {
                    let mebbe_cond = self.expr(1);
                    let mebbe = self.block(depth - 1);
                    format!(
                        "{cond}, O RLY?\nYA RLY\n{yes}\nMEBBE {mebbe_cond}\n{mebbe}\nNO WAI\n{no}\nOIC"
                    )
                } else {
                    format!("{cond}, O RLY?\nYA RLY\n{yes}\nNO WAI\n{no}\nOIC")
                }
            }
            7 => {
                // Bounded counted loop, UPPIN/NERFIN x TIL/WILE.
                let id = self.next_loop;
                self.next_loop += 1;
                self.counters.push(id);
                let mut body = self.block(depth - 1);
                self.counters.pop();
                if self.bucket == GenBucket::Pinned {
                    // Store the counter to a typed local, in some bodies
                    // after retyping it: it still steps by 1 and meets
                    // its integral bound, so the loop still ends.
                    let retype = if self.rng.below(2) == 0 {
                        format!("x{id} R MAEK x{id} A NUMBAR\n")
                    } else {
                        String::new()
                    };
                    body = format!("{retype}p0 R x{id}\n{body}");
                }
                let n = 1 + self.rng.below(3);
                if self.rng.below(2) == 0 {
                    format!(
                        "IM IN YR lp{id} UPPIN YR x{id} TIL BOTH SAEM x{id} AN {n}\n{body}\nIM OUTTA YR lp{id}"
                    )
                } else {
                    format!(
                        "IM IN YR lp{id} NERFIN YR x{id} WILE DIFFRINT x{id} AN -{n}\n{body}\nIM OUTTA YR lp{id}"
                    )
                }
            }
            _ => {
                // WTF? switch on IT with literal arms.
                let scrutinee = self.expr(2);
                let a = self.block(depth - 1);
                let b = self.block(depth - 1);
                let d = self.block(depth - 1);
                format!(
                    "MOD OF MAEK {scrutinee} A NUMBR AN 3\nWTF?\nOMG 0\n{a}\nGTFO\nOMG 1\n{b}\nGTFO\nOMGWTF\n{d}\nOIC"
                )
            }
        }
    }

    fn block(&mut self, depth: u32) -> String {
        let n = 1 + self.rng.below(3);
        (0..n).map(|_| self.stmt(depth)).collect::<Vec<_>>().join("\n")
    }

    /// A whole program: local phase, barrier, deterministic remote-read
    /// phase (reads a neighbour's `s0` *after* a HUGZ with no
    /// subsequent writes), barrier, second local phase, then print
    /// every variable so divergence anywhere becomes visible output.
    fn program(&mut self) -> String {
        let decls: String = (0..5)
            .map(|i| format!("I HAS A v{i} ITZ {}\n", self.rng.below(100) as i64 - 50))
            .collect();
        let (pinned_decls, pinned_print) = if self.bucket == GenBucket::Pinned {
            (
                format!(
                    "I HAS A p0 ITZ SRSLY A NUMBR AN ITZ {}\n\
                     I HAS A p1 ITZ SRSLY A NUMBAR AN ITZ {}\n\
                     I HAS A p2 ITZ SRSLY A TROOF\n\
                     I HAS A p3 ITZ SRSLY A YARN AN ITZ \"{}\"\n\
                     I HAS A a1 ITZ SRSLY LOTZ A NUMBARS AN THAR IZ 4\n",
                    self.rng.below(100) as i64 - 50,
                    self.pick(&["2.5", "-0.75", "7"]),
                    self.pick(&["42", "-3.5"]),
                ),
                "VISIBLE p0 \" \" p1 \" \" p2 \" \" p3 \" \" a1'Z 0 \" \" a1'Z 3\n",
            )
        } else {
            (String::new(), "")
        };
        let (inferred_decls, inferred_print) = if self.bucket == GenBucket::Inferred {
            (
                format!(
                    "I HAS A u0 ITZ {}\nI HAS A u1 ITZ {}\nI HAS A u2 ITZ {}\n\
                     I HAS A u3 ITZ A NUMBR AN ITZ {}\n",
                    self.rng.below(100) as i64 - 50,
                    self.pick(&["2.5", "-0.75", "7.0"]),
                    self.pick(&["WIN", "FAIL"]),
                    self.pick(&["\"12\"", "3.75", "WIN", "-8"]),
                ),
                "VISIBLE u0 \" \" u1 \" \" u2 \" \" u3\n",
            )
        } else {
            (String::new(), "")
        };
        let funcs = match self.bucket {
            GenBucket::Calls => {
                "HOW IZ I f YR x\nVISIBLE \"F \" x\nFOUND YR x\nIF U SAY SO\n\
                 HOW IZ I g YR x AN YR y\nVISIBLE \"G \" x \" \" y\nFOUND YR y\nIF U SAY SO\n"
            }
            // `idn` hands back its argument; `tri` sums the counter into
            // a local inference types.
            GenBucket::Inferred => {
                "HOW IZ I idn YR x\nFOUND YR x\nIF U SAY SO\n\
                 HOW IZ I tri YR x\nI HAS A n ITZ 0\n\
                 IM IN YR t UPPIN YR i TIL BOTH SAEM i AN 4\nn R SUM OF n AN i\nIM OUTTA YR t\n\
                 FOUND YR SMOOSH x AN \" \" AN n MKAY\nIF U SAY SO\n"
            }
            _ => "",
        };
        let mut phase1 = self.block(2);
        if self.bucket == GenBucket::Inferred {
            for _ in 0..self.rng.below(3) {
                phase1 = format!("{phase1}\n{}", self.inferred_breaker());
            }
            phase1 = format!("{phase1}\nVISIBLE I IZ tri YR u0 MKAY");
        }
        let phase2 = self.block(2);
        format!(
            "HAI 1.2\n\
             {funcs}WE HAS A s0 ITZ SRSLY A NUMBR\n\
             I HAS A a0 ITZ SRSLY LOTZ A NUMBRS AN THAR IZ 8\n\
             I HAS A g0 ITZ 0\n\
             {pinned_decls}{inferred_decls}{decls}{phase1}\n\
             s0 R SUM OF PRODUKT OF ME AN 10 AN v0\n\
             HUGZ\n\
             TXT MAH BFF MOD OF SUM OF ME AN 1 AN MAH FRENZ, g0 R UR s0\n\
             HUGZ\n\
             {phase2}\n\
             SUM OF v0 AN 1\n\
             VISIBLE v0 \" \" v1 \" \" v2 \" \" v3 \" \" v4 \" \" s0 \" \" g0 \" \" IT\n\
             {pinned_print}{inferred_print}KTHXBYE\n"
        )
    }
}

/// ~200 generated programs, each compiled once and driven through both
/// engines at 1 and 3 PEs: per-PE outputs must match byte-for-byte, or
/// both engines must fault. Extends the corpus-pinned coverage above
/// with grammar-directed coverage of casts, switches and loop forms.
#[test]
fn generated_grammar_programs_agree_across_engines() {
    battery(ProgramGen::new(0x1CA4_BEEF), None);
}

/// The same 200-program battery over the [`GenBucket::Pinned`] bucket:
/// typed locals and arrays, NUMBAR literals and retyped loop counters,
/// where the VM compiles stores without a runtime cast.
#[test]
fn pinned_bucket_programs_agree_across_engines() {
    let typed = battery(ProgramGen::bucketed(0x5125_1A7E, GenBucket::Pinned), None);
    eprintln!("pinned: {typed} register-op dispatches");
    // The battery must reach the VM's register path, not only the stack.
    assert!(typed >= 5_000, "only {typed} register-op dispatches in the pinned battery");
}

/// The 200-program battery over the [`GenBucket::Inferred`] bucket, on
/// the C engine too (where a C compiler is installed): unpinned locals
/// that inference types, and the stores, `GIMMEH`, `IS NOW A`,
/// shadowing and call results that leave them dynamic, must behave the
/// same on interp, vm, sim and c.
#[test]
fn inferred_bucket_programs_agree_across_engines() {
    let c_engine = engine_for(Backend::C);
    let c = c_engine.available().then_some(c_engine);
    if c.is_none() {
        eprintln!("no C compiler: the inferred battery runs without the C engine");
    }
    // The battery holds both kinds of program: all four locals typed,
    // and some of them left dynamic. The sim's sharded scheduler must
    // match its sequential one on each: outputs, per-PE stats and the
    // virtual wall, or the fault.
    let mut gen = ProgramGen::bucketed(0x1AFE_77ED, GenBucket::Inferred);
    let input = gen.input();
    let (mut all_typed, mut some_dynamic) = (0, 0);
    for case in 0..200u64 {
        let src = gen.program();
        let Ok(artifact) = compile(&src) else { continue };
        let inferred = &artifact.analysis().inferred;
        let name = |s: &&icanhas::ast::Span| &src[s.lo as usize..s.hi as usize];
        match inferred.keys().filter(|s| name(s).starts_with('u')).count() {
            4 => all_typed += 1,
            _ => some_dynamic += 1,
        }
        let cfg = RunConfig::new(3)
            .seed(case)
            .input(&input)
            .clock(ClockMode::Virtual)
            .latency(LatencyModel::epiphany16());
        let sim = |jobs| {
            SimEngine
                .run(&artifact, &cfg.clone().sim_jobs(jobs))
                .map(|r| (r.outputs, r.stats, r.virtual_wall))
                .map_err(|e| fault_line(&e))
        };
        assert_eq!(sim(1), sim(2), "case {case}: sim jobs=2 diverges from jobs=1 on:\n{src}");
    }
    assert!(all_typed >= 40 && some_dynamic >= 40, "{all_typed} typed, {some_dynamic} not");
    let typed = battery(ProgramGen::bucketed(0x1AFE_77ED, GenBucket::Inferred), c);
    eprintln!("inferred: {all_typed} programs all typed, {some_dynamic} not, {typed} register-op dispatches");
    // Only the inferred locals and the counters give this bucket's
    // programs typed values to keep in registers.
    assert!(typed >= 5_000, "only {typed} register-op dispatches in the inferred battery");
}

/// The register ops a profiled vm run dispatched (its typed path; `Box`
/// and `Unbox`, which cross to the stack, do not count).
fn register_dispatches(r: &RunReport) -> u64 {
    use icanhas::vm::Op;
    let names: Vec<&str> =
        (0..Op::COUNT).filter(|&i| Op::is_register_op(i)).map(Op::profile_name).collect();
    let p = r.profile.as_ref().expect("a profiled vm run");
    p.ops.iter().filter(|(n, _, _)| names.contains(&n.as_str())).map(|(_, c, _)| c).sum()
}

/// The fault line an engine reports for a failed run,
/// `O NOES! [CODE] message`, which must read the same on every engine.
/// The PE number is left out: the threaded engines name the first PE
/// to fail, which depends on thread timing, and the C stub reports
/// faults process-wide.
fn fault_line(e: &LolError) -> String {
    match e {
        LolError::Runtime(spmd) => spmd.message.trim().to_string(),
        other => other.to_string(),
    }
}

/// Drive 200 programs from `gen` through interp, vm and sim at 1 and
/// 3 PEs, and through `c` too when given (for the programs that do not
/// draw on `WHATEVR`/`WHATEVAR`: the C stub's RNG is a different
/// stream); returns the register ops the vm runs dispatched.
fn battery(mut gen: ProgramGen, c: Option<&dyn Engine>) -> u64 {
    let mut typed = 0u64;
    let mut compiled = 0usize;
    let mut faulted = 0usize;
    let mut on_c = 0usize;
    let input = gen.input();
    for case in 0..200 {
        let src = gen.program();
        // The generator can produce semantically invalid programs
        // (e.g. YARN maths at analysis time); both engines share the
        // front end, so those reject identically by construction.
        let Ok(artifact) = compile(&src) else { continue };
        compiled += 1;
        let configs: Vec<RunConfig> = [1usize, 3]
            .into_iter()
            .map(|n| {
                RunConfig::new(n).seed(case as u64).timeout(Duration::from_secs(20)).input(&input)
            })
            .collect();
        let c_runs: Vec<Option<Result<RunReport, LolError>>> = match c {
            Some(c) if !src.contains("WHATEV") => {
                on_c += 1;
                c.run_many(&artifact, &configs).into_iter().map(Some).collect()
            }
            _ => configs.iter().map(|_| None).collect(),
        };
        for (cfg, c_run) in configs.iter().zip(c_runs) {
            let n_pes = cfg.n_pes;
            let a = InterpEngine.run(&artifact, cfg);
            let b = VmEngine.run(&artifact, &cfg.clone().profile(true));
            let s = SimEngine.run(&artifact, cfg);
            match (a, b, s) {
                (Ok(x), Ok(y), Ok(z)) => {
                    typed += register_dispatches(&y);
                    assert_eq!(
                        x.outputs, y.outputs,
                        "case {case}: engine divergence at {n_pes} PEs on:\n{src}"
                    );
                    assert_eq!(
                        x.outputs, z.outputs,
                        "case {case}: sim divergence at {n_pes} PEs on:\n{src}"
                    );
                    if let Some(c_run) = c_run {
                        let outputs = c_run.map(|r| r.outputs).map_err(|e| fault_line(&e));
                        assert_eq!(
                            Ok(x.outputs),
                            outputs,
                            "case {case}: c diverges at {n_pes} PEs on:\n{src}"
                        );
                    }
                }
                (Err(x), Err(y), Err(z)) => {
                    faulted += 1;
                    assert_eq!(
                        fault_line(&x),
                        fault_line(&y),
                        "case {case}: vm faults differently at {n_pes} PEs on:\n{src}"
                    );
                    assert_eq!(
                        fault_line(&x),
                        fault_line(&z),
                        "case {case}: sim faults differently at {n_pes} PEs on:\n{src}"
                    );
                    if let Some(c_run) = c_run {
                        let c_fault = c_run.map(|r| r.outputs).map_err(|e| fault_line(&e));
                        assert_eq!(
                            Err(fault_line(&x)),
                            c_fault,
                            "case {case}: c faults differently at {n_pes} PEs on:\n{src}"
                        );
                    }
                }
                (a, b, s) => panic!(
                    "case {case}: backends disagree about faulting at {n_pes} PEs: \
                     {:?} vs {:?} vs {:?}\n{src}",
                    a.map(|r| r.outputs),
                    b.map(|r| r.outputs),
                    s.map(|r| r.outputs)
                ),
            }
        }
    }
    // The battery must mostly exercise the *run* path, not die in the
    // front end or at runtime.
    assert!(compiled >= 150, "only {compiled}/200 programs compiled — generator drifted");
    assert!(faulted <= compiled / 2, "{faulted} runtime faults in {compiled} programs");
    if c.is_some() {
        assert!(on_c >= 150, "only {on_c} programs ran on the C engine");
    }
    typed
}

/// The value-representation stress buckets: YARN-heavy and
/// NUMBR-overflow-heavy programs through interp, vm and sim with full
/// observability on — per-PE outputs, per-PE [`CommStats`], trace
/// signatures and virtual walls must all be byte-identical. This is the
/// oracle that the hot-path rework (split scalar/heap values, dense
/// dispatch, superinstructions) changed *nothing* observable.
#[test]
fn yarn_and_overflow_buckets_agree_with_full_observability() {
    for (label, bucket, seed) in [
        ("yarn-heavy", GenBucket::YarnHeavy, 0xCA7_5EED_u64),
        ("overflow-heavy", GenBucket::OverflowHeavy, 0x00F1_015E_u64),
    ] {
        let mut gen = ProgramGen::bucketed(seed, bucket);
        let mut compiled = 0usize;
        let mut ran = 0usize;
        let mut typed = 0u64;
        for case in 0..40u64 {
            let src = gen.program();
            let Ok(artifact) = compile(&src) else { continue };
            compiled += 1;
            let cfg = RunConfig::new(3)
                .seed(case)
                .timeout(Duration::from_secs(20))
                .trace(true)
                .clock(ClockMode::Virtual)
                .latency(LatencyModel::epiphany16());
            let a = InterpEngine.run(&artifact, &cfg);
            let b = VmEngine.run(&artifact, &cfg.clone().profile(true));
            let s = SimEngine.run(&artifact, &cfg);
            match (a, b, s) {
                (Ok(x), Ok(y), Ok(z)) => {
                    ran += 1;
                    typed += register_dispatches(&y);
                    for (other, which) in [(&y, "vm"), (&z, "sim")] {
                        assert_eq!(
                            x.outputs, other.outputs,
                            "{label} case {case}: output divergence vs {which} on:\n{src}"
                        );
                        assert_eq!(
                            x.stats, other.stats,
                            "{label} case {case}: CommStats divergence vs {which} on:\n{src}"
                        );
                        assert_eq!(
                            x.trace.as_ref().expect("interp trace").signature(),
                            other.trace.as_ref().expect("other trace").signature(),
                            "{label} case {case}: trace divergence vs {which} on:\n{src}"
                        );
                        assert_eq!(
                            x.virtual_wall, other.virtual_wall,
                            "{label} case {case}: virtual-wall divergence vs {which} on:\n{src}"
                        );
                    }
                }
                (Err(x), Err(y), Err(z)) => {
                    for (other, which) in [(&y, "vm"), (&z, "sim")] {
                        assert_eq!(
                            fault_line(&x),
                            fault_line(other),
                            "{label} case {case}: {which} faults differently on:\n{src}"
                        );
                    }
                }
                (a, b, s) => panic!(
                    "{label} case {case}: backends disagree about faulting: \
                     {:?} vs {:?} vs {:?}\n{src}",
                    a.map(|r| r.outputs),
                    b.map(|r| r.outputs),
                    s.map(|r| r.outputs)
                ),
            }
        }
        assert!(compiled >= 25, "{label}: only {compiled}/40 compiled — generator drifted");
        assert!(ran >= 12, "{label}: only {ran}/{compiled} ran clean — too fault-happy");
        eprintln!("{label}: {typed} register-op dispatches");
        if bucket == GenBucket::OverflowHeavy {
            // The wrapping arithmetic must reach the VM's register path.
            assert!(typed >= 500, "{label}: only {typed} register-op dispatches");
        }
    }
}

/// Non-finite NUMBARs must render identically everywhere — the
/// cross-backend bug this PR fixes: interp/vm used Rust's `NaN`/`inf`
/// spellings while the C runtime (and platform printf quirks) said
/// `nan`/`-nan`. The pinned spelling is C's lowercase `nan`, `inf`,
/// `-inf` on every backend, in VISIBLE, MAEK ... A YARN and SMOOSH.
#[test]
fn non_finite_numbars_render_identically_on_every_backend() {
    let src = "\
HAI 1.2
I HAS A nan ITZ QUOSHUNT OF 0.0 AN 0.0
I HAS A pinf ITZ QUOSHUNT OF 1.0 AN 0.0
I HAS A ninf ITZ QUOSHUNT OF -1.0 AN 0.0
I HAS A modnan ITZ MOD OF 1.0 AN 0.0
VISIBLE nan
VISIBLE pinf
VISIBLE ninf
VISIBLE modnan
VISIBLE MAEK pinf A YARN
VISIBLE SMOOSH \"N=\" AN nan AN \" P=\" AN pinf AN \" M=\" AN ninf MKAY
KTHXBYE
";
    let artifact = compile(src).unwrap();
    let cfg = RunConfig::new(2).timeout(Duration::from_secs(60));
    let reference = InterpEngine.run(&artifact, &cfg).unwrap();
    assert_eq!(
        reference.outputs[0].lines().collect::<Vec<_>>(),
        ["nan", "inf", "-inf", "nan", "inf", "N=nan P=inf M=-inf"],
        "the pinned C spelling of non-finite NUMBARs"
    );
    for backend in Backend::ALL {
        let engine = engine_for(backend);
        if !engine.available() {
            eprintln!("skipping {backend:?}: unavailable here");
            continue;
        }
        let r = engine.run(&artifact, &cfg.clone().backend(backend)).unwrap();
        assert_eq!(
            r.outputs, reference.outputs,
            "{backend:?} renders non-finite NUMBARs differently"
        );
    }
}

/// `BIGGR OF`/`SMALLR OF` with one NaN operand return the other one on
/// every backend, as Rust's `f64::max`/`min` do (C99 `fmax`/`fmin` in
/// the C runtime), for dynamic and pinned operands alike.
#[test]
fn biggr_smallr_of_skip_a_nan_operand_on_every_backend() {
    let src = "\
HAI 1.2
I HAS A nan ITZ QUOSHUNT OF 0.0 AN 0.0
I HAS A pnan ITZ SRSLY A NUMBAR AN ITZ nan
VISIBLE BIGGR OF 1.0 AN nan
VISIBLE SMALLR OF 1.0 AN nan
VISIBLE BIGGR OF pnan AN 2.5
VISIBLE SMALLR OF 2 AN pnan
VISIBLE BIGGR OF nan AN pnan
KTHXBYE
";
    agree_on_every_backend(src, &["1.00", "1.00", "2.50", "2.00", "nan"]);
}

/// NUMBAR → NUMBR conversion saturates on every backend, NaN giving 0:
/// through `MAEK`, a pinned NUMBR store, a symmetric NUMBR store, an
/// array index and a `TXT MAH BFF` target.
#[test]
fn numbar_to_numbr_saturates_on_every_backend() {
    let src = "\
HAI 1.2
WE HAS A s ITZ SRSLY A NUMBR
I HAS A nan ITZ QUOSHUNT OF 0.0 AN 0.0
I HAS A huge ITZ SRSLY A NUMBAR AN ITZ 1e300
VISIBLE MAEK 1e300 A NUMBR
VISIBLE MAEK -1e300 A NUMBR
VISIBLE MAEK nan A NUMBR
I HAS A p ITZ SRSLY A NUMBR AN ITZ PRODUKT OF huge AN -1.0
VISIBLE p
p R QUOSHUNT OF 0.0 AN 0.0
VISIBLE p
I HAS A a ITZ SRSLY LOTZ A NUMBRS AN THAR IZ 2
a'Z QUOSHUNT OF 0.0 AN 0.0 R 7
VISIBLE a'Z 0
TXT MAH BFF QUOSHUNT OF 0.0 AN 0.0, UR s R 5
HUGZ
BOTH SAEM ME AN 0, O RLY?
YA RLY
  VISIBLE s
OIC
HUGZ
s R huge
VISIBLE s
KTHXBYE
";
    agree_on_every_backend(
        src,
        &[
            "9223372036854775807",
            "-9223372036854775808",
            "0",
            "-9223372036854775808",
            "0",
            "7",
            "5",
            "9223372036854775807",
        ],
    );
}

/// Local arrays of every element type on every backend: whole-array
/// copies onto the array itself, across element types and from a
/// symmetric array, TROOF elements cast on store, and the `""` a YARN
/// array starts out with.
#[test]
fn local_arrays_agree_on_every_backend() {
    let src = "\
HAI 1.2
WE HAS A sh ITZ SRSLY LOTZ A NUMBRS AN THAR IZ 3
I HAS A a ITZ SRSLY LOTZ A NUMBRS AN THAR IZ 3
I HAS A b ITZ SRSLY LOTZ A NUMBARS AN THAR IZ 3
I HAS A t ITZ SRSLY LOTZ A TROOFS AN THAR IZ 3
I HAS A y ITZ SRSLY LOTZ A YARNS AN THAR IZ 2
IM IN YR l UPPIN YR i TIL BOTH SAEM i AN 3
  sh'Z i R PRODUKT OF i AN 10
  a'Z i R SUM OF i AN 1
IM OUTTA YR l
a R a
b R a
VISIBLE a'Z 2 \" \" b'Z 2
a R sh
VISIBLE a'Z 2
t'Z 1 R \"yes\"
t'Z 2 R 0.0
VISIBLE t'Z 0 \" \" t'Z 1 \" \" t'Z 2
y'Z 0 R 3.14159
VISIBLE y'Z 0 \"|\" y'Z 1 \"|\"
y R y
I HAS A z ITZ SRSLY LOTZ A YARNS AN THAR IZ 2
z R y
z'Z 1 R 7
VISIBLE z'Z 0 \"|\" z'Z 1 \"|\" y'Z 1
I HAS A u ITZ SRSLY LOTZ A NOOBS AN THAR IZ 2
u R u
I HAS A w ITZ SRSLY LOTZ A NOOBS AN THAR IZ 2
w R u
VISIBLE BOTH SAEM w'Z 1 AN NOOB
KTHXBYE
";
    agree_on_every_backend(src, &["3 3.00", "20", "FAIL WIN FAIL", "3.14||", "3.14|7|", "WIN"]);
}

/// A declaration a single-statement `TXT MAH BFF` makes is in scope
/// after it, on every backend: the C emitter declares it in the
/// enclosing C block. Typed (`x`, inferred; `t`, pinned) and dynamic
/// (`y`) locals alike, the last one in a function.
#[test]
fn a_predicated_declaration_stays_in_scope_on_every_backend() {
    let src = "\
HAI 1.2
HOW IZ I f YR k
  TXT MAH BFF k, I HAS A z ITZ SMOOSH \"z\" AN k MKAY
  FOUND YR z
IF U SAY SO
I HAS A k ITZ MOD OF SUM OF ME AN 1 AN MAH FRENZ
TXT MAH BFF k, I HAS A x ITZ 5
VISIBLE x
x R SUM OF x AN 1
TXT MAH BFF k, I HAS A y ITZ \"a\"
TXT MAH BFF k, I HAS A t ITZ SRSLY A NUMBAR AN ITZ x
VISIBLE SMOOSH x \" \" y \" \" t MKAY
VISIBLE I IZ f YR k MKAY
KTHXBYE
";
    agree_on_every_backend(src, &["5", "6 a 6.00", "z1"]);
}

/// Every operand of `BOTH OF`, `EITHER OF`, `WON OF`, `ALL OF` and
/// `ANY OF` is evaluated, left to right, on every backend: the calls
/// print in source order.
#[test]
fn logical_operands_run_in_source_order_on_every_backend() {
    let src = "\
HAI 1.2
HOW IZ I say YR x
  VISIBLE x
  FOUND YR x
IF U SAY SO
VISIBLE BOTH OF I IZ say YR 0 MKAY AN I IZ say YR 1 MKAY
VISIBLE EITHER OF I IZ say YR 1 MKAY AN I IZ say YR 2 MKAY
VISIBLE WON OF I IZ say YR 3 MKAY AN I IZ say YR 4 MKAY
VISIBLE ALL OF I IZ say YR 5 MKAY AN I IZ say YR 0 MKAY AN I IZ say YR 6 MKAY MKAY
VISIBLE ANY OF I IZ say YR 0 MKAY AN I IZ say YR 7 MKAY AN I IZ say YR 8 MKAY MKAY
KTHXBYE
";
    let pe0 = [
        "0", "1", "FAIL", "1", "2", "WIN", "3", "4", "FAIL", "5", "0", "6", "FAIL", "0", "7", "8",
        "WIN",
    ];
    agree_on_every_backend(src, &pe0);
}

/// Every runtime fault the C runtime raises reads the same on every
/// engine, at 1 PE and at 3 (where every PE fails the same way).
#[test]
fn runtime_faults_read_the_same_on_every_engine() {
    for (body, code) in [
        ("I HAS A a ITZ SRSLY LOTZ A NUMBRS AN THAR IZ 4\nI HAS A i ITZ 4294967297\nVISIBLE a'Z i", "RUN0123"),
        ("I HAS A y ITZ LOTZ A YARNS AN THAR IZ 2\ny'Z -1 R 3", "RUN0123"),
        ("WE HAS A s ITZ SRSLY LOTZ A NUMBARS AN THAR IZ 2\nVISIBLE s'Z 2", "RUN0123"),
        (
            "WE HAS A d ITZ LOTZ A NUMBRS AN THAR IZ 2\nI HAS A n ITZ 3\n\
             I HAS A src ITZ LOTZ A NUMBRS AN THAR IZ n\nMAH d R MAH src",
            "RUN0013",
        ),
        ("I HAS A n ITZ 0\nI HAS A a ITZ LOTZ A NUMBRS AN THAR IZ n", "RUN0014"),
        ("I HAS A x ITZ \"O HAI\"\nVISIBLE SUM OF x AN 1", "RUN0004"),
        ("I HAS A x ITZ \" 1.5x\"\nVISIBLE SUM OF x AN 1", "RUN0004"),
        ("I HAS A x\nVISIBLE SUM OF x AN 1", "RUN0002"),
        ("I HAS A x\nVISIBLE SMOOSH x AN \"!\" MKAY", "RUN0003"),
        ("I HAS A z ITZ 0\nVISIBLE QUOSHUNT OF 1 AN z", "RUN0001"),
        ("I HAS A z ITZ 0\nVISIBLE MOD OF 1 AN z", "RUN0001"),
        ("WE HAS A s0 ITZ SRSLY A NUMBR\nI HAS A k ITZ 7\nTXT MAH BFF k, VISIBLE UR s0", "RUN0017"),
        ("I HAS A line\nGIMMEH line", "RUN0140"),
    ] {
        let src = format!("HAI 1.2\nVISIBLE \"GO\"\n{body}\nKTHXBYE\n");
        let artifact = compile(&src).unwrap_or_else(|e| panic!("{e}\n{src}"));
        for n_pes in [1usize, 3] {
            let cfg = RunConfig::new(n_pes).timeout(Duration::from_secs(30));
            let reference = InterpEngine.run(&artifact, &cfg).expect_err("interp must fault");
            let line = fault_line(&reference);
            assert!(line.starts_with(&format!("O NOES! [{code}] ")), "{line}\n{src}");
            for backend in Backend::ALL {
                let engine = engine_for(backend);
                if !engine.available() {
                    continue;
                }
                let e = engine.run(&artifact, &cfg.clone().backend(backend)).unwrap_err();
                assert_eq!(fault_line(&e), line, "{backend:?} at {n_pes} PEs on:\n{src}");
            }
        }
    }
}

/// Run `src` at 1 and 3 PEs on every available engine: each ends as
/// the interpreter does, with the same per-PE outputs or the same
/// fault line. Returns the interpreter's outcome at 3 PEs.
fn same_outcome_on_every_engine(src: &str) -> Result<Vec<String>, String> {
    let artifact = compile(src).unwrap_or_else(|e| panic!("{e}\n{src}"));
    let mut reference = Err(String::new());
    for n_pes in [1usize, 3] {
        let cfg = RunConfig::new(n_pes).timeout(Duration::from_secs(60));
        let outcome = |backend: Backend| {
            engine_for(backend)
                .run(&artifact, &cfg.clone().backend(backend))
                .map(|r| r.outputs)
                .map_err(|e| fault_line(&e))
        };
        reference = outcome(Backend::Interp);
        for backend in Backend::ALL {
            if !engine_for(backend).available() {
                eprintln!("skipping {backend:?}: unavailable here");
                continue;
            }
            assert_eq!(outcome(backend), reference, "{backend:?} at {n_pes} PEs on:\n{src}");
        }
    }
    reference
}

/// `x R SMOOSH x AN … MKAY` appends to `x`'s buffer in place on the
/// VM (and so the sim) when `x` is an unpinned or YARN-pinned local.
/// Whether or not a case takes that path, every engine prints and
/// faults alike.
#[test]
fn yarn_appends_agree_on_every_engine() {
    let say = "HOW IZ I say YR x\n  VISIBLE x\n  FOUND YR x\nIF U SAY SO\n";
    /// PE 0's output lines, or the fault code.
    type Want = Result<&'static [&'static str], &'static str>;
    let cases: [(&str, String, Want); 9] = [
        (
            "an alias taken before an append keeps its text",
            "I HAS A s ITZ \"ab\"\nI HAS A t ITZ s\ns R SMOOSH s AN \"x\" MKAY\nVISIBLE s \" \" t\n\
             IM IN YR l UPPIN YR i TIL BOTH SAEM i AN 3\n  I HAS A u ITZ s\n\
             s R SMOOSH s AN i MKAY\n  VISIBLE s \" \" u\nIM OUTTA YR l"
                .to_string(),
            Ok(&["abx ab", "abx0 abx", "abx01 abx0", "abx012 abx01"]),
        ),
        (
            "a YARN-pinned local",
            "I HAS A s ITZ SRSLY A YARN AN ITZ \"p\"\n\
             IM IN YR l UPPIN YR i TIL BOTH SAEM i AN 3\n  s R SMOOSH s AN i AN \"-\" MKAY\n\
             IM OUTTA YR l\nVISIBLE s"
                .to_string(),
            Ok(&["p0-1-2-"]),
        ),
        (
            "a NUMBR-pinned local casts the YARN back",
            "I HAS A s ITZ SRSLY A NUMBR AN ITZ 4\ns R SMOOSH s AN 2 MKAY\nVISIBLE SUM OF s AN 1"
                .to_string(),
            Ok(&["43"]),
        ),
        (
            "a NOOB local faults after the calls among the operands",
            format!("{say}I HAS A s\ns R SMOOSH s AN I IZ say YR 1 MKAY MKAY"),
            Err("RUN0003"),
        ),
        (
            "an operand that faults runs before a NOOB local renders",
            "I HAS A s\ns R SMOOSH s AN QUOSHUNT OF 1 AN 0 MKAY".to_string(),
            Err("RUN0001"),
        ),
        (
            "NUMBR, NUMBAR, non-finite and TROOF operands and targets",
            "I HAS A s ITZ 7\ns R SMOOSH s AN 1.5 AN WIN AN FAIL MKAY\nI HAS A z ITZ 0.0\n\
             s R SMOOSH s AN QUOSHUNT OF 1.0 AN z AN QUOSHUNT OF -1.0 AN z AN \
             QUOSHUNT OF z AN z MKAY\nVISIBLE s\n\
             I HAS A b ITZ WIN\nb R SMOOSH b AN 2.25 AN -3 MKAY\nVISIBLE b\n\
             I HAS A f ITZ 0.125\nf R SMOOSH f MKAY\nVISIBLE f"
                .to_string(),
            Ok(&["71.50WINFAILinf-infnan", "WIN2.25-3", "0.12"]),
        ),
        (
            "a parameter named s, and IT",
            "HOW IZ I grow YR s AN YR k\n  IM IN YR l UPPIN YR i TIL BOTH SAEM i AN k\n\
             s R SMOOSH s AN i MKAY\n  IM OUTTA YR l\n  FOUND YR s\nIF U SAY SO\n\
             I HAS A s ITZ \"m\"\nVISIBLE I IZ grow YR s AN YR 3 MKAY\nVISIBLE s\n\
             \"it\"\nIT R SMOOSH IT AN s AN IT MKAY\nVISIBLE IT"
                .to_string(),
            Ok(&["m012", "m", "itmit"]),
        ),
        (
            "an append onto itself",
            "I HAS A s ITZ \"ab\"\ns R SMOOSH s AN s AN s MKAY\nVISIBLE s".to_string(),
            Ok(&["ababab"]),
        ),
        (
            "a symmetric NUMBR is not a local",
            "WE HAS A s ITZ SRSLY A NUMBR\ns R SUM OF ME AN 4\ns R SMOOSH s AN 2 MKAY\nVISIBLE s"
                .to_string(),
            Ok(&["42"]),
        ),
    ];
    for (what, body, want) in cases {
        let src = format!("HAI 1.2\n{body}\nKTHXBYE\n");
        match (same_outcome_on_every_engine(&src), want) {
            (Ok(outputs), Ok(pe0)) => {
                assert_eq!(outputs[0].lines().collect::<Vec<_>>(), pe0, "{what}:\n{src}")
            }
            (Err(line), Err(code)) => {
                assert!(line.starts_with(&format!("O NOES! [{code}] ")), "{what}: {line}\n{src}")
            }
            (got, _) => panic!("{what}: got {got:?}\n{src}"),
        }
    }
}

/// `VISIBLE` prints each operand as soon as it is evaluated, on every
/// engine: a call among the operands prints after the operands before
/// it, and an operand that cannot render faults before a later one
/// runs.
#[test]
fn visible_prints_each_operand_as_it_is_evaluated() {
    let printed = "HAI 1.2\nHOW IZ I f\n  VISIBLE \"b\"\n  FOUND YR \"r\"\nIF U SAY SO\n\
                   VISIBLE \"a\" AN I IZ f MKAY\nKTHXBYE\n";
    let outputs = same_outcome_on_every_engine(printed).unwrap();
    assert_eq!(outputs[0], "ab\nr\n");
    let noob_first = "HAI 1.2\nI HAS A s\nVISIBLE s AN QUOSHUNT OF 1 AN 0\nKTHXBYE\n";
    let line = same_outcome_on_every_engine(noob_first).unwrap_err();
    assert!(line.starts_with("O NOES! [RUN0003] "), "{line}");
}

/// NUMBR rendering at the edges of `i64` and at the values the other
/// YARN tests print, through every path that renders one (VISIBLE,
/// SMOOSH, a cast, an append, a YARN array element), reads as Rust's
/// `i64::to_string` on every engine. The C runtime renders NUMBRs with
/// a digit loop of its own, `LLONG_MIN` included.
#[test]
fn numbr_rendering_is_pinned_at_the_edges() {
    let values = [
        0,
        -1,
        1,
        7,
        9,
        10,
        -10,
        16,
        650,
        2048,
        1 << 53,
        -999_999_999_999,
        i64::MIN,
        i64::MIN + 1,
        i64::MAX,
        i64::MAX - 1,
    ];
    let mut body = String::from("I HAS A y ITZ LOTZ A YARNS AN THAR IZ 1\n");
    let mut want = Vec::new();
    for (i, v) in values.iter().enumerate() {
        body += &format!(
            "I HAS A n{i} ITZ {v}\nVISIBLE n{i} \" \" SMOOSH \"<\" AN n{i} AN \">\" MKAY \" \" MAEK n{i} A YARN\n\
             I HAS A s{i} ITZ \"#\"\ns{i} R SMOOSH s{i} AN n{i} MKAY\ny'Z 0 R n{i}\n\
             VISIBLE s{i} \" \" y'Z 0\n"
        );
        want.push(format!("{v} <{v}> {v}"));
        want.push(format!("#{v} {v}"));
    }
    let outputs = same_outcome_on_every_engine(&format!("HAI 1.2\n{body}KTHXBYE\n")).unwrap();
    assert_eq!(outputs[0].lines().collect::<Vec<_>>(), want);
}

/// The compiler flags of a sanitized build of `lcc --stub` output.
const SANITIZE: [&str; 6] = [
    "-std=c99",
    "-g",
    "-O1",
    "-fsanitize=address,undefined",
    "-fno-sanitize-recover=undefined",
    "-fno-omit-frame-pointer",
];

/// Run `bin` with `env` and `input` on its stdin, killed after 60 s.
fn run_sanitized(
    bin: &std::path::Path,
    env: &[(&str, String)],
    input: &str,
) -> std::process::Output {
    use std::io::Write as _;
    use std::process::{Command, Stdio};
    let mut child = Command::new(bin)
        .envs(env.iter().map(|(k, v)| (*k, v.as_str())))
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    child.stdin.take().unwrap().write_all(input.as_bytes()).unwrap();
    let deadline = std::time::Instant::now() + Duration::from_secs(60);
    while child.try_wait().unwrap().is_none() {
        if std::time::Instant::now() > deadline {
            let _ = child.kill();
            panic!("{} ran past 60 s", bin.display());
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    child.wait_with_output().unwrap()
}

/// YARN-building functions for the sanitizer check: parameters that
/// are appended to, an implicit IT result, a `FOUND YR` and a `GTFO`
/// from inside a loop, and recursion.
const YARN_CALLS: &str = "HAI 1.2\n\
HOW IZ I grow YR s AN YR k\n\
  IM IN YR l UPPIN YR i TIL BOTH SAEM i AN k\n\
    s R SMOOSH s AN i MKAY\n\
    BOTH SAEM i AN 5, O RLY?\n    YA RLY, FOUND YR s\n    OIC\n\
  IM OUTTA YR l\n\
  FOUND YR s\n\
IF U SAY SO\n\
HOW IZ I echo YR x\n  SMOOSH x AN \"!\" MKAY\nIF U SAY SO\n\
HOW IZ I quit YR x\n\
  IM IN YR l\n    x R SMOOSH x AN x MKAY\n    GTFO\n  IM OUTTA YR l\n\
  SMOOSH x AN x MKAY\n  GTFO\n\
IF U SAY SO\n\
HOW IZ I rec YR n AN YR acc\n\
  BOTH SAEM n AN 0, O RLY?\n  YA RLY, FOUND YR acc\n  OIC\n\
  FOUND YR I IZ rec YR DIFF OF n AN 1 AN YR SMOOSH acc AN n MKAY MKAY\n\
IF U SAY SO\n\
VISIBLE I IZ grow YR \"m\" AN YR 3 MKAY \" \" I IZ grow YR \"q\" AN YR 9 MKAY\n\
VISIBLE I IZ echo YR \"hi\" MKAY \" \" I IZ echo YR 4 MKAY\n\
I IZ quit YR \"z\" MKAY\nVISIBLE \"quit\"\n\
VISIBLE I IZ rec YR 30 AN YR \">\" MKAY\n\
KTHXBYE\n";

/// `lcc --stub` output (the self-contained unit and the one-file stub)
/// built with AddressSanitizer and UndefinedBehaviorSanitizer: the
/// YARN kernel, the corpus programs, YARN-building functions and the
/// YARN-heavy generator bucket run at 1 and 3 PEs as on the C engine (same stub, same RNG
/// seed), and no sanitizer reports anything, leaks included. A run
/// that ends in a fault must print the same fault line and is checked
/// with the leak
/// check off: the failing PE's thread ends mid-statement, and the
/// buffers of its open frames are not unwound. Skipped where the C
/// compiler cannot build and run a sanitized program.
#[test]
fn lcc_stub_output_is_sanitizer_clean() {
    use icanhas::codegen::{driver, standalone, standalone_stub};
    use std::process::Command;
    let Some(cc) = driver::cc() else {
        eprintln!("skipping: no C compiler");
        return;
    };
    let dir = std::env::temp_dir().join(format!("lolsan-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("shmem.h"), standalone_stub()).unwrap();
    let build = |name: &str, c: &str| {
        let src = dir.join(format!("{name}.c"));
        std::fs::write(&src, c).unwrap();
        let bin = dir.join(name);
        let out = Command::new(&cc.path)
            .args(SANITIZE)
            .arg("-I")
            .arg(&dir)
            .arg(&src)
            .args(["-lm", "-pthread", "-o"])
            .arg(&bin)
            .output()
            .unwrap();
        out.status
            .success()
            .then_some(bin)
            .ok_or_else(|| String::from_utf8_lossy(&out.stderr).into_owned())
    };
    match build("probe", "int main(void) { return 0; }\n") {
        Ok(bin) if run_sanitized(&bin, &[], "").status.success() => {}
        _ => {
            eprintln!("skipping: {} cannot build and run a sanitized program", cc.path);
            let _ = std::fs::remove_dir_all(&dir);
            return;
        }
    }
    let mut programs: Vec<(String, String, Vec<String>)> = vec![(
        "yarn_kernel".to_string(),
        include_str!("../perfbench/programs/yarn_kernel.lol").to_string(),
        vec!["20000".to_string(), "12345".to_string()],
    )];
    for (name, src, _) in corpus_programs() {
        programs.push((name.to_string(), src, Vec::new()));
    }
    programs.push(("calls".to_string(), YARN_CALLS.to_string(), Vec::new()));
    for name in ["heat2d_4x8", "heat2d_bench", "nbody_32x10", "nbody_bench"] {
        let src = std::fs::read_to_string(format!("corpus/{name}.lol")).unwrap();
        programs.push((name.to_string(), src, Vec::new()));
    }
    let mut gen = ProgramGen::bucketed(0xCA7_5EED, GenBucket::YarnHeavy);
    for case in 0..40 {
        programs.push((format!("yarn{case}"), gen.program(), Vec::new()));
    }
    let next = std::sync::atomic::AtomicUsize::new(0);
    let checked = std::sync::atomic::AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..3 {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                let Some((name, src, input)) = programs.get(i) else { break };
                let Ok(artifact) = compile(src) else { continue };
                let c = standalone(&artifact.emit_c().unwrap());
                let bin = build(name, &c).unwrap_or_else(|e| panic!("{name}: {e}"));
                let stdin: String = input.iter().map(|l| format!("{l}\n")).collect();
                for n_pes in [1usize, 3] {
                    let lines: Vec<&str> = input.iter().map(String::as_str).collect();
                    let cfg = RunConfig::new(n_pes).seed(7).input(&lines).backend(Backend::C);
                    let want = engine_for(Backend::C).run(&artifact, &cfg);
                    let cap = dir.join(format!("{name}.cap{n_pes}"));
                    let env = [
                        ("LOL_STUB_NPES", n_pes.to_string()),
                        ("LOL_STUB_SEED", "7".to_string()),
                        ("LOL_STUB_OUT", cap.display().to_string()),
                        ("ASAN_OPTIONS", format!("detect_leaks={}", u8::from(want.is_ok()))),
                        ("UBSAN_OPTIONS", "print_stacktrace=1".to_string()),
                    ];
                    let run = run_sanitized(&bin, &env, &stdin);
                    let stderr = String::from_utf8_lossy(&run.stderr);
                    let what = format!("{name} at {n_pes} PEs");
                    assert!(
                        !stderr.contains("Sanitizer") && !stderr.contains("runtime error"),
                        "{what}: {stderr}\n{src}"
                    );
                    match want {
                        Ok(report) => {
                            assert!(run.status.success(), "{what}: {stderr}\n{src}");
                            let outputs: Vec<String> = (0..n_pes)
                                .map(|pe| {
                                    let path = format!("{}.pe{pe}.out", cap.display());
                                    std::fs::read_to_string(path).unwrap()
                                })
                                .collect();
                            assert_eq!(outputs, report.outputs, "{what}:\n{src}");
                        }
                        Err(e) => {
                            assert_eq!(run.status.code(), Some(1), "{what}: {stderr}\n{src}");
                            assert!(stderr.contains(&fault_line(&e)), "{what}: {stderr}\n{src}");
                        }
                    }
                }
                checked.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            });
        }
    });
    let _ = std::fs::remove_dir_all(&dir);
    let checked = checked.into_inner();
    assert!(checked >= 35, "only {checked} programs built and ran");
}

/// A fault on one PE names that PE on every engine, the C engine
/// included (its stub records the failing PE next to the captures).
#[test]
fn a_fault_on_one_pe_names_that_pe_on_every_engine() {
    let src =
        "HAI 1.2\nBOTH SAEM ME AN 2, O RLY?\nYA RLY\nVISIBLE QUOSHUNT OF 1 AN 0\nOIC\nKTHXBYE\n";
    let artifact = compile(src).unwrap();
    let cfg = RunConfig::new(3).timeout(Duration::from_secs(30));
    for backend in Backend::ALL {
        let engine = engine_for(backend);
        if !engine.available() {
            continue;
        }
        match engine.run(&artifact, &cfg.clone().backend(backend)) {
            Err(LolError::Runtime(e)) => {
                assert_eq!(e.pe, 2, "{backend:?}: {e}");
                assert!(e.message.starts_with("O NOES! [RUN0001] "), "{backend:?}: {e}");
            }
            other => panic!("{backend:?}: expected a runtime fault, got {other:?}"),
        }
    }
}

/// A C binary killed at its deadline reads as the deadlock watchdog's
/// fault, in the same `O NOES! [CODE]` form as every other fault.
#[test]
fn a_timed_out_c_run_is_a_watchdog_fault() {
    let engine = engine_for(Backend::C);
    if !engine.available() {
        eprintln!("skipping: no C compiler — C engine unsupported here");
        return;
    }
    let src = "HAI 1.2\nI HAS A n ITZ 0\nIM IN YR l\nn R SUM OF n AN 1\nIM OUTTA YR l\nKTHXBYE\n";
    let artifact = compile(src).unwrap();
    let cfg = RunConfig::new(1).timeout(Duration::from_secs(1)).backend(Backend::C);
    match engine.run(&artifact, &cfg) {
        Err(LolError::Runtime(e)) => {
            assert!(e.message.starts_with("O NOES! [RUN0191] "), "{e}");
        }
        other => panic!("expected a watchdog fault, got {other:?}"),
    }
}

/// Run `src` at 2 PEs on every available backend: PE 0 prints `pe0`,
/// and every backend prints what the interpreter does.
fn agree_on_every_backend(src: &str, pe0: &[&str]) {
    let artifact = compile(src).unwrap();
    let cfg = RunConfig::new(2).timeout(Duration::from_secs(60));
    let reference = InterpEngine.run(&artifact, &cfg).unwrap();
    assert_eq!(reference.outputs[0].lines().collect::<Vec<_>>(), pe0);
    for backend in Backend::ALL {
        let engine = engine_for(backend);
        if !engine.available() {
            eprintln!("skipping {backend:?}: unavailable here");
            continue;
        }
        let r = engine.run(&artifact, &cfg.clone().backend(backend)).unwrap();
        assert_eq!(r.outputs, reference.outputs, "{backend:?} diverges");
    }
}

// ---------------------------------------------------------------------
// C engine: the third execution path against the corpus
// ---------------------------------------------------------------------

/// The corpus subset the C engine must agree with interp on, swept
/// across PE counts from one shared artifact per program. Excludes the
/// `WHATEVR`-based programs (nbody, histogram): the C stub's RNG is a
/// deliberately different stream, so only deterministic programs pin
/// output equality. Skips (rather than fails) when the machine has no
/// C compiler — mirroring the engine's own `Unsupported` degradation.
#[test]
fn c_engine_agrees_with_interp_on_corpus_subset() {
    let c_engine = engine_for(Backend::C);
    if !c_engine.available() {
        eprintln!("skipping: no C compiler — C engine unsupported here");
        // The engine must *say* so, not crash.
        let artifact = compile(corpus::HELLO_PARALLEL).unwrap();
        assert!(matches!(
            c_engine.run(&artifact, &RunConfig::new(1)),
            Err(LolError::Unsupported(_))
        ));
        return;
    }
    let programs: Vec<(&str, String)> = vec![
        ("hello", corpus::HELLO_PARALLEL.to_string()),
        ("ring", corpus::RING_EXAMPLE.to_string()),
        ("locks", corpus::LOCKS_EXAMPLE.to_string()),
        ("barrier", corpus::BARRIER_EXAMPLE.to_string()),
        ("trylock", corpus::TRYLOCK_EXAMPLE.to_string()),
        ("heat2d", corpus::heat2d_source(2, 4, 3)),
    ];
    for (name, src) in programs {
        let artifact = compile(&src).unwrap_or_else(|e| panic!("{name}: compile failed: {e}"));
        let configs: Vec<RunConfig> = [1usize, 2, 4]
            .into_iter()
            .map(|n| RunConfig::new(n).seed(3).timeout(Duration::from_secs(60)))
            .collect();
        let interp = InterpEngine.run_many(&artifact, &configs);
        let c = c_engine.run_many(&artifact, &configs);
        for ((cfg, a), b) in configs.iter().zip(interp).zip(c) {
            let a = a.unwrap_or_else(|e| panic!("{name}: interp failed at {} PEs: {e}", cfg.n_pes));
            let b = b.unwrap_or_else(|e| panic!("{name}: c failed at {} PEs: {e}", cfg.n_pes));
            assert_eq!(
                a.outputs, b.outputs,
                "{name}: C engine diverges from interp at {} PEs",
                cfg.n_pes
            );
            assert_eq!(b.backend, Backend::C);
            assert_eq!(b.stats.len(), cfg.n_pes, "{name}: per-PE stats from the C run");
        }
    }
}

/// The typed C lowering against the interpreter: programs of the
/// Pinned and OverflowHeavy buckets, each compiled once and run on the
/// C engine at 1 and 3 PEs through `run_many` on the virtual clock.
/// Per-PE outputs, remote traffic and virtual walls must match, or both
/// engines must fault. (Local symmetric accesses are plain memory
/// accesses in C, which the stub does not count.) Programs that draw on
/// `WHATEVR`/`WHATEVAR` are skipped: the C stub's RNG is a different
/// stream.
#[test]
fn c_engine_agrees_on_pinned_and_overflow_buckets() {
    let c_engine = engine_for(Backend::C);
    if !c_engine.available() {
        eprintln!("skipping: no C compiler — C engine unsupported here");
        return;
    }
    for (label, bucket, seed) in [
        ("pinned", GenBucket::Pinned, 0xC7_1A7E_u64),
        ("overflow-heavy", GenBucket::OverflowHeavy, 0xC0F1_015E_u64),
    ] {
        let mut gen = ProgramGen::bucketed(seed, bucket);
        let (mut compared, mut clean_programs) = (0usize, 0usize);
        for case in 0..60u64 {
            let src = gen.program();
            if src.contains("WHATEV") {
                continue;
            }
            let Ok(artifact) = compile(&src) else { continue };
            let configs: Vec<RunConfig> = [1usize, 3]
                .into_iter()
                .map(|n| {
                    RunConfig::new(n)
                        .seed(case)
                        .timeout(Duration::from_secs(30))
                        .clock(ClockMode::Virtual)
                        .latency(LatencyModel::epiphany16())
                })
                .collect();
            let interp = InterpEngine.run_many(&artifact, &configs);
            let c = c_engine.run_many(&artifact, &configs);
            compared += 1;
            let mut ran = 0usize;
            for ((cfg, a), b) in configs.iter().zip(interp).zip(c) {
                let n = cfg.n_pes;
                match (a, b) {
                    (Ok(x), Ok(y)) => {
                        assert_eq!(x.outputs, y.outputs, "{label} case {case} at {n} PEs:\n{src}");
                        let remote = |r: &RunReport| -> Vec<_> {
                            r.stats.iter().map(|s| (s.remote_gets, s.remote_puts, s.amos)).collect()
                        };
                        assert_eq!(
                            remote(&x),
                            remote(&y),
                            "{label} case {case}: traffic at {n} PEs"
                        );
                        assert_eq!(
                            x.virtual_wall, y.virtual_wall,
                            "{label} case {case}: virtual wall"
                        );
                        ran += 1;
                    }
                    (Err(x), Err(y)) => assert_eq!(
                        fault_line(&x),
                        fault_line(&y),
                        "{label} case {case}: c faults differently at {n} PEs:\n{src}"
                    ),
                    (a, b) => panic!(
                        "{label} case {case}: engines disagree about faulting at {n} PEs: \
                         {:?} vs {:?}\n{src}",
                        a.map(|r| r.outputs),
                        b.map(|r| r.outputs)
                    ),
                }
            }
            clean_programs += usize::from(ran > 0);
        }
        assert!(compared >= 20, "{label}: only {compared} programs compared — generator drifted");
        eprintln!("{label}: {clean_programs} of {compared} programs ran clean at some PE count");
        assert!(clean_programs >= 20, "{label}: only {clean_programs} programs ran clean");
    }
}

/// The [`GenBucket::Calls`] battery: operands that are printing calls,
/// under operators, `SMOOSH` and argument lists, must run in source order
/// on interp, vm, sim and c (at 1 and 3 PEs, virtual clock): the same
/// per-PE outputs, or a fault on every engine. The C engine is skipped
/// for programs that draw on `WHATEVR` (its RNG is a different stream)
/// and where no C compiler is installed.
#[test]
fn calls_bucket_programs_agree_on_every_engine() {
    let c_engine = engine_for(Backend::C);
    let with_c = c_engine.available();
    if !with_c {
        eprintln!("no C compiler: the calls battery runs without the C engine");
    }
    let mut gen = ProgramGen::bucketed(0xCA11_0D3E, GenBucket::Calls);
    let (mut compiled, mut clean, mut on_c) = (0usize, 0usize, 0usize);
    for case in 0..60u64 {
        let src = gen.program();
        let Ok(artifact) = compile(&src) else { continue };
        compiled += 1;
        let configs: Vec<RunConfig> = [1usize, 3]
            .into_iter()
            .map(|n| {
                RunConfig::new(n)
                    .seed(case)
                    .timeout(Duration::from_secs(30))
                    .clock(ClockMode::Virtual)
                    .latency(LatencyModel::epiphany16())
            })
            .collect();
        let mut runs = vec![
            ("interp", InterpEngine.run_many(&artifact, &configs)),
            ("vm", VmEngine.run_many(&artifact, &configs)),
            ("sim", SimEngine.run_many(&artifact, &configs)),
        ];
        if with_c && !src.contains("WHATEV") {
            runs.push(("c", c_engine.run_many(&artifact, &configs)));
            on_c += 1;
        }
        let (_, reference) = &runs[0];
        for (i, cfg) in configs.iter().enumerate() {
            let n = cfg.n_pes;
            for (engine, results) in &runs[1..] {
                match (&reference[i], &results[i]) {
                    (Ok(x), Ok(y)) => assert_eq!(
                        x.outputs, y.outputs,
                        "case {case}: {engine} diverges at {n} PEs on:\n{src}"
                    ),
                    (Err(x), Err(y)) => assert_eq!(
                        fault_line(x),
                        fault_line(y),
                        "case {case}: {engine} faults differently at {n} PEs on:\n{src}"
                    ),
                    (a, b) => panic!(
                        "case {case}: interp and {engine} disagree about faulting at {n} PEs: \
                         {:?} vs {:?}\n{src}",
                        a.as_ref().map(|r| &r.outputs),
                        b.as_ref().map(|r| &r.outputs)
                    ),
                }
            }
            clean += usize::from(reference[i].is_ok());
        }
    }
    eprintln!("calls: {compiled} programs, {clean} clean runs, {on_c} on c");
    assert!(compiled >= 45, "only {compiled}/60 programs compiled — generator drifted");
    assert!(clean >= 30, "only {clean} clean runs of {compiled} programs");
    if with_c {
        assert!(on_c >= 20, "only {on_c} programs ran on the C engine");
    }
}

/// yarn_kernel's `n`, `h`, `acc` and `len` are unpinned NUMBR locals
/// whose every store is a NUMBR. Inference types them, so the program
/// compiles to what pinning the four by hand gives: the same opcode
/// counts on the VM (1,812,533 dispatches at n = 150,000, none of them
/// the stack path's `BinLCS`/`BinLC`/`BinSC`/`BinSL`) and native
/// `long long`s in C.
#[test]
fn yarn_kernel_numbr_locals_are_inferred() {
    let src = include_str!("../perfbench/programs/yarn_kernel.lol");
    let pinned = src.replace("ITZ A NUMBR", "ITZ SRSLY A NUMBR");
    assert_eq!(pinned.matches("SRSLY").count(), 4, "{pinned}");
    let cfg = RunConfig::new(1).input(&["150000", "48271"]).profile(true);
    let run = |src: &str| VmEngine.run(&compile(src).unwrap(), &cfg).unwrap();
    let (inferred, by_hand) = (run(src), run(&pinned));
    assert_eq!(inferred.outputs, by_hand.outputs);
    let ops = |r: &RunReport| r.profile.clone().expect("a profiled run").ops;
    assert_eq!(ops(&inferred), ops(&by_hand));
    let p = inferred.profile.as_ref().unwrap();
    assert_eq!(p.total_ops, 1_812_533);
    for (name, count, _) in &p.ops {
        assert!(!["BinLCS", "BinLC", "BinSC", "BinSL"].contains(&name.as_str()), "{count} {name}");
    }
    let c = compile(src).unwrap().emit_c().unwrap();
    for local in ["n", "h", "acc", "len"] {
        assert!(c.contains(&format!("long long v_{local} = ")), "v_{local} is not native");
    }
}

/// The C runtime's YARNs are heap-allocated now (the 256-byte cap is
/// gone), so long-string programs are part of the differential
/// surface: a 2 KiB SMOOSH-doubled yarn and a >600-char GIMMEH line
/// must round-trip identically on interp, vm and c.
#[test]
fn long_yarns_agree_across_engines() {
    let src = "\
HAI 1.2
I HAS A s ITZ \"0123456789abcdef\"
IM IN YR l UPPIN YR i TIL BOTH SAEM i AN 7
s R SMOOSH s AN s MKAY
IM OUTTA YR l
I HAS A line
GIMMEH line
VISIBLE s
VISIBLE SMOOSH \"GOT \" AN line MKAY
KTHXBYE
";
    let long_line = "x".repeat(650);
    let artifact = compile(src).unwrap();
    let cfg = RunConfig::new(2).timeout(Duration::from_secs(60)).input(&[&long_line]);
    let interp = InterpEngine.run(&artifact, &cfg).unwrap();
    // 16 chars doubled 7 times = 2048; plus the echoed GIMMEH line.
    assert_eq!(interp.outputs[0].lines().next().unwrap().len(), 2048);
    assert!(interp.outputs[0].contains(&format!("GOT {long_line}")));
    let vm = VmEngine.run(&artifact, &cfg).unwrap();
    assert_eq!(interp.outputs, vm.outputs);
    match engine_for(Backend::C).run(&artifact, &cfg) {
        Ok(c) => assert_eq!(interp.outputs, c.outputs, "C yarns must not truncate"),
        Err(LolError::Unsupported(_)) => eprintln!("skipping C: no compiler"),
        Err(e) => panic!("C engine failed on long yarns: {e}"),
    }
}

/// All three engines under the interconnect models: mesh vs flat
/// latency changes *timing*, never *outputs* — the fidelity contract
/// the latency knob is built on, pinned on every backend at once.
#[test]
fn latency_models_change_timing_but_not_outputs_on_all_engines() {
    // ~40 remote puts per PE through the halo pattern, so a 3ms flat
    // model adds a wall-clock margin far beyond scheduling noise.
    let src = "\
HAI 1.2
WE HAS A b ITZ SRSLY A NUMBR
I HAS A k ITZ MOD OF SUM OF ME AN 1 AN MAH FRENZ
IM IN YR l UPPIN YR i TIL BOTH SAEM i AN 40
TXT MAH BFF k, UR b R MAH i
IM OUTTA YR l
HUGZ
VISIBLE \"PE \" ME \" B = \" b
KTHXBYE
";
    let artifact = compile(src).unwrap();
    let base = RunConfig::new(2).seed(4).timeout(Duration::from_secs(60));
    let heavy = LatencyModel::Uniform { remote_ns: 3_000_000 };
    for backend in Backend::ALL {
        let engine = engine_for(backend);
        if !engine.available() {
            eprintln!("skipping {backend:?}: unavailable here");
            continue;
        }
        let run = |latency: LatencyModel| {
            engine
                .run(&artifact, &base.clone().backend(backend).latency(latency))
                .unwrap_or_else(|e| panic!("{backend:?} under {latency}: {e}"))
        };
        let off = run(LatencyModel::Off);
        let mesh = run(LatencyModel::epiphany16());
        let flat = run(heavy);
        assert_eq!(off.outputs, mesh.outputs, "{backend:?}: mesh changed outputs");
        assert_eq!(off.outputs, flat.outputs, "{backend:?}: flat changed outputs");
        // 40 remote puts × 3ms each per PE ≥ 120ms of modelled delay.
        assert!(
            flat.wall > off.wall + Duration::from_millis(60),
            "{backend:?}: flat:3ms should slow the run (off {:?} vs flat {:?})",
            off.wall,
            flat.wall
        );
    }
}

/// The barrier/lock ablation axes on all three engines: every
/// algorithm combination must agree byte-for-byte with the default on
/// the lock-contention corpus program.
#[test]
fn barrier_and_lock_ablations_agree_on_all_engines() {
    use lolcode::{BarrierKind, LockKind};
    let artifact = compile(corpus::LOCKS_EXAMPLE).unwrap();
    let base = RunConfig::new(4).seed(7).timeout(Duration::from_secs(60));
    for backend in Backend::ALL {
        let engine = engine_for(backend);
        if !engine.available() {
            eprintln!("skipping {backend:?}: unavailable here");
            continue;
        }
        let baseline = engine.run(&artifact, &base.clone().backend(backend)).unwrap();
        for barrier in BarrierKind::ALL {
            for lock in LockKind::ALL {
                let cfg = base.clone().backend(backend).barrier(barrier).lock(lock);
                let r = engine
                    .run(&artifact, &cfg)
                    .unwrap_or_else(|e| panic!("{backend:?} barrier={barrier} lock={lock}: {e}"));
                assert_eq!(
                    r.outputs, baseline.outputs,
                    "{backend:?}: barrier={barrier} lock={lock} changed outputs"
                );
            }
        }
    }
}

/// One artifact, all three engines: the paper's "same program, three
/// substrates" demonstration in a single assertion.
#[test]
fn one_artifact_runs_on_every_registered_backend() {
    let artifact = compile(corpus::BARRIER_EXAMPLE).unwrap();
    let cfg = RunConfig::new(4).seed(11).timeout(Duration::from_secs(60));
    let mut outputs: Vec<(Backend, Vec<String>)> = Vec::new();
    for backend in Backend::ALL {
        let engine = engine_for(backend);
        match engine.run(&artifact, &cfg.clone().backend(backend)) {
            Ok(r) => outputs.push((backend, r.outputs)),
            Err(LolError::Unsupported(msg)) => {
                assert!(!engine.available(), "only an unavailable engine may bail: {msg}")
            }
            Err(e) => panic!("{backend:?}: {e}"),
        }
    }
    assert!(outputs.len() >= 2, "interp and vm always run");
    for pair in outputs.windows(2) {
        assert_eq!(
            pair[0].1, pair[1].1,
            "{:?} and {:?} disagree on the barrier example",
            pair[0].0, pair[1].0
        );
    }
}

#[test]
fn same_seed_same_engine_is_deterministic_from_shared_artifact() {
    for (name, src, max_pes) in corpus_programs() {
        let artifact = compile(&src).unwrap();
        let n = max_pes.min(4);
        let cfg = RunConfig::new(n).seed(99).timeout(Duration::from_secs(60));
        for engine in [engine_for(Backend::Interp), engine_for(Backend::Vm)] {
            let one = engine.run(&artifact, &cfg).unwrap();
            let two = engine.run(&artifact, &cfg).unwrap();
            assert_eq!(
                one.outputs,
                two.outputs,
                "{name}: {:?} engine not deterministic under a fixed seed",
                engine.backend()
            );
        }
    }
}
