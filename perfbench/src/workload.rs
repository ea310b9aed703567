//! The three workloads, generated from `--seed`.
//!
//! A workload is a set of program configs timed on the in-process
//! engines, a set of large configs timed on the simulator, and a
//! request mix sent to `lold`. The seed picks the programs' inputs
//! (passed as `GIMMEH` lines, so the program text stays fixed), the
//! never-repeated program variants and the order of the request mix.

use std::sync::Mutex;

use lol_serve::json::escape;
use lolcode::corpus;

use crate::oracle::{self, Expect};
use crate::util::Rng;

const NBODY_BENCH: &str = include_str!("../../corpus/nbody_bench.lol");
const HEAT2D_BENCH: &str = include_str!("../../corpus/heat2d_bench.lol");
const HEAT2D_4X8: &str = include_str!("../../corpus/heat2d_4x8.lol");
const YARN_KERNEL: &str = include_str!("../programs/yarn_kernel.lol");
const RING_ALLREDUCE: &str = include_str!("../programs/ring_allreduce.lol");
const LOCK_COUNTER: &str = include_str!("../programs/lock_counter.lol");
const PI_REDUCE: &str = include_str!("../programs/pi_reduce.lol");

/// Fingerprints of the checked-in corpus programs' outputs at the
/// default run seed, taken on the commit that introduced the benchmark.
const NBODY_BENCH_1PE: Expect =
    Expect::Hash { shared: 0xd92d_66cf_6c6f_a87d, c: 0xb90a_c455_24cb_86f6 };
const HEAT2D_BENCH_1PE: Expect =
    Expect::Hash { shared: 0xa4d6_71e3_b69d_4579, c: 0xa4d6_71e3_b69d_4579 };
const HEAT2D_4X8_1024PE: Expect =
    Expect::Hash { shared: 0x5e9a_847c_3bf1_cc6e, c: 0x5e9a_847c_3bf1_cc6e };
const HEAT2D_4X8_16PE: Expect =
    Expect::Hash { shared: 0xc674_6e72_a830_fe40, c: 0xc674_6e72_a830_fe40 };

/// One program at one config, with what it must print.
#[derive(Clone, Debug)]
pub struct Case {
    pub name: String,
    pub source: String,
    pub pes: usize,
    pub input: Vec<String>,
    pub expect: Expect,
    /// The program takes no locks, so the simulator may shard it.
    pub lock_free: bool,
}

impl Case {
    fn new(name: &str, source: impl Into<String>, pes: usize, expect: Expect) -> Case {
        Case {
            name: name.to_string(),
            source: source.into(),
            pes,
            input: Vec::new(),
            expect,
            lock_free: true,
        }
    }

    fn input(mut self, lines: &[u64]) -> Case {
        self.input = lines.iter().map(u64::to_string).collect();
        self
    }

    fn locks(mut self) -> Case {
        self.lock_free = false;
        self
    }

    /// The `/run` body that asks `lold` for this case on `backend`.
    pub fn run_body(&self, backend: &str, virtual_clock: bool) -> String {
        request_body(&self.source, backend, self.pes, &self.input, virtual_clock, None)
    }
}

fn request_body(
    source: &str,
    backend: &str,
    pes: usize,
    input: &[String],
    virtual_clock: bool,
    format: Option<&str>,
) -> String {
    let mut body =
        format!("{{\"source\": \"{}\", \"backend\": \"{backend}\", \"pes\": {pes}", escape(source));
    if !input.is_empty() {
        let lines: Vec<String> = input.iter().map(|l| format!("\"{}\"", escape(l))).collect();
        body.push_str(&format!(", \"input\": [{}]", lines.join(", ")));
    }
    if virtual_clock {
        body.push_str(", \"clock\": \"virtual\"");
    }
    if let Some(f) = format {
        body.push_str(&format!(", \"format\": \"{f}\""));
    }
    body.push('}');
    body
}

/// One HTTP request of the mix.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Request {
    pub path: &'static str,
    pub body: String,
}

/// How the request mix is drawn: `hot` requests repeat (cache hits
/// once warm), a `miss_pct` share are never-repeated program variants,
/// and a `heavy_pct` share are repeating requests that cost far more
/// than the hot ones (Perfetto traces, large simulations). The classes,
/// and the repeating requests within them, are dealt from shuffled
/// decks, so every stretch of the mix holds each about equally often.
pub struct Mix {
    pub hot: Vec<Request>,
    pub heavy: Vec<Request>,
    pub miss_pct: u64,
    pub heavy_pct: u64,
    state: Mutex<MixState>,
}

struct MixState {
    rng: Rng,
    variants: u64,
    class_deck: Vec<usize>,
    hot_deck: Vec<usize>,
    heavy_deck: Vec<usize>,
}

/// The next card of a deck of `n`, reshuffled when it runs out.
fn deal(rng: &mut Rng, deck: &mut Vec<usize>, n: usize) -> usize {
    if deck.is_empty() {
        deck.extend(0..n);
        for i in (1..n).rev() {
            deck.swap(i, rng.range(0, i as u64 + 1) as usize);
        }
    }
    deck.pop().expect("deck refilled")
}

impl Mix {
    fn new(hot: Vec<Request>, heavy: Vec<Request>, miss_pct: u64, heavy_pct: u64, rng: Rng) -> Mix {
        let state = MixState {
            rng,
            variants: 0,
            class_deck: Vec::new(),
            hot_deck: Vec::new(),
            heavy_deck: Vec::new(),
        };
        Mix { hot, heavy, miss_pct, heavy_pct, state: Mutex::new(state) }
    }

    /// Every request that repeats: what warm-up sends once.
    pub fn repeating(&self) -> impl Iterator<Item = &Request> {
        self.hot.iter().chain(&self.heavy)
    }

    /// The next request of the seeded sequence.
    pub fn next(&self) -> Request {
        let mut guard = self.state.lock().expect("mix state poisoned");
        let st = &mut *guard;
        let roll = deal(&mut st.rng, &mut st.class_deck, 100) as u64;
        if roll < self.miss_pct {
            st.variants += 1;
            return variant(&mut st.rng, st.variants);
        }
        if roll < self.miss_pct + self.heavy_pct && !self.heavy.is_empty() {
            return self.heavy[deal(&mut st.rng, &mut st.heavy_deck, self.heavy.len())].clone();
        }
        self.hot[deal(&mut st.rng, &mut st.hot_deck, self.hot.len())].clone()
    }
}

/// A never-repeated program: a corpus template at seeded sizes, made
/// unique by the variant number it stores and prints.
fn variant(rng: &mut Rng, id: u64) -> Request {
    let src = if rng.chance(1, 2) {
        corpus::heat2d_source(
            rng.range(2, 5) as usize,
            rng.range(4, 9) as usize,
            rng.range(2, 6) as usize,
        )
    } else {
        corpus::histogram_source(rng.range(2, 9) as usize, rng.range(8, 65) as usize)
    };
    let src = src.replace("KTHXBYE", &format!("VISIBLE \"VARIANT {id}\"\nKTHXBYE"));
    let backend = if rng.chance(1, 2) { "vm" } else { "interp" };
    Request { path: "/run", body: request_body(&src, backend, 1, &[], false, None) }
}

/// How one run splits its measuring time between its phases.
#[derive(Clone, Copy, Debug)]
pub struct Split {
    pub engines: f64,
    pub sim: f64,
    pub closed: f64,
    pub open: f64,
}

pub struct Workload {
    pub name: &'static str,
    /// Configs run on interp, vm and c (at most 2 PEs: threads).
    pub cases: Vec<Case>,
    /// Configs run on the simulator.
    pub sims: Vec<Case>,
    /// A program that does nothing, at the configs' PE count: run on
    /// the C backend, it times launching a native binary.
    pub launch: Case,
    pub mix: Mix,
    /// Fixed request rate of the open-loop phase, requests per second.
    pub open_rate: f64,
    pub split: Split,
}

pub const NAMES: [&str; 3] = ["kernels", "comm", "playground"];

pub fn build(name: &str, seed: u64) -> Option<Workload> {
    let rng = Rng::new(seed);
    match name {
        "kernels" => Some(kernels(rng)),
        "comm" => Some(comm(rng)),
        "playground" => Some(playground(rng)),
        _ => None,
    }
}

fn launch(pes: usize) -> Case {
    Case::new("launch", "HAI 1.2\nKTHXBYE\n", pes, Expect::Exact(vec![String::new(); pes]))
}

fn serve_hot(cases: &[Case], backends: &[&str], virtual_clock: bool) -> Vec<Request> {
    let mut hot = Vec::new();
    for (i, case) in cases.iter().enumerate() {
        let backend = backends[i % backends.len()];
        hot.push(Request { path: "/run", body: case.run_body(backend, virtual_clock) });
    }
    hot
}

/// Single-PE compute: execution does nearly all the work.
fn kernels(rng: Rng) -> Workload {
    let mut g = rng.fork(1);
    let yarn_n = 150_000;
    let yarn_seed = g.range(1, 2_147_483_647);
    let cases = vec![
        Case::new("nbody_bench", NBODY_BENCH, 1, NBODY_BENCH_1PE),
        Case::new("heat2d_bench", HEAT2D_BENCH, 1, HEAT2D_BENCH_1PE),
        Case::new("yarn_kernel", YARN_KERNEL, 1, Expect::Exact(oracle::yarn(yarn_n, yarn_seed)))
            .input(&[yarn_n, yarn_seed]),
    ];
    let sims = vec![Case::new("heat2d_4x8", HEAT2D_4X8, 1024, HEAT2D_4X8_1024PE)];
    let hot = serve_hot(&cases, &["vm"], false);
    Workload {
        name: "kernels",
        mix: Mix::new(hot, Vec::new(), 0, 0, rng.fork(2)),
        cases,
        sims,
        launch: launch(1),
        open_rate: 4.0,
        split: Split { engines: 0.35, sim: 0.25, closed: 0.30, open: 0.10 },
    }
}

/// Communication-heavy programs with little compute.
fn comm(rng: Rng) -> Workload {
    let mut g = rng.fork(1);
    let (mul, add) = (g.range(1, 1_000_003), g.range(0, 1_000_003));
    let pi_seed = g.range(0, 1 << 30);
    let ring = |pes: usize, steps: u64| {
        Case::new(
            "ring_allreduce",
            RING_ALLREDUCE,
            pes,
            Expect::Exact(oracle::ring(pes, steps, mul, add)),
        )
        .input(&[steps, mul, add])
    };
    let lock = |pes: usize, iters: u64| {
        Case::new(
            "lock_counter",
            LOCK_COUNTER,
            pes,
            Expect::Exact(oracle::lock_counter(pes, iters)),
        )
        .input(&[iters])
        .locks()
    };
    let hist = |pes: usize, bins: usize, samples: usize| {
        Case::new(
            "histogram",
            corpus::histogram_source(bins, samples),
            pes,
            Expect::Histogram { samples: samples as u64 },
        )
        .locks()
    };
    let pi = |pes: usize, trials: u64, samples: u64| {
        Case::new(
            "pi_reduce",
            PI_REDUCE,
            pes,
            Expect::Exact(oracle::pi(pes, trials, samples, pi_seed)),
        )
        .input(&[trials, samples, pi_seed])
    };
    let cases = vec![ring(2, 400), lock(2, 200), hist(2, 16, 2000), pi(2, 100, 8)];
    // The histogram's all-gather is O(PEs²) remote reads, so it stays
    // at 512 PEs; the others run at 4k-16k.
    let sims = vec![ring(4096, 100), lock(4096, 50), hist(512, 4, 8), pi(16384, 1, 8)];
    let hot = serve_hot(&cases, &["vm", "interp"], false);
    // Simulated jobs at a few hundred PEs: the slow tail of the mix.
    let heavy = [ring(512, 100), lock(512, 50), hist(128, 4, 8), pi(512, 1, 8)]
        .iter()
        .map(|c| Request { path: "/run", body: c.run_body("sim", false) })
        .collect();
    Workload {
        name: "comm",
        mix: Mix::new(hot, heavy, 0, 5, rng.fork(2)),
        cases,
        sims,
        launch: launch(2),
        open_rate: 100.0,
        split: Split { engines: 0.35, sim: 0.25, closed: 0.15, open: 0.25 },
    }
}

/// `lold` as deployed, under a seeded mix of hits, misses and traces.
fn playground(rng: Rng) -> Workload {
    // The threaded configs, in process and served, run at 1 PE. At 2
    // PEs a teaching program's run is mostly the two PE threads waking
    // each other across the vCPUs, whose cost on a shared 2-vCPU guest
    // spread by 0.44 of its median over ten runs; two served 2-PE jobs
    // at once would also keep four threads busy on two cores.
    let cases = vec![
        Case::new("hello", corpus::HELLO_PARALLEL, 1, Expect::Exact(oracle::hello(1))),
        Case::new("ring", corpus::RING_EXAMPLE, 1, Expect::Exact(oracle::ring_example(1))),
        Case::new("barrier", corpus::BARRIER_EXAMPLE, 1, Expect::Exact(oracle::barrier_example(1))),
        Case::new("locks", corpus::LOCKS_EXAMPLE, 1, Expect::Exact(oracle::locks_example(1)))
            .locks(),
        Case::new("trylock", corpus::TRYLOCK_EXAMPLE, 1, Expect::Exact(oracle::trylock_example(1)))
            .locks(),
    ];
    let sims = vec![
        Case::new("ring", corpus::RING_EXAMPLE, 256, Expect::Exact(oracle::ring_example(256))),
        Case::new("heat2d_4x8", HEAT2D_4X8, 16, HEAT2D_4X8_16PE),
        Case::new(
            "histogram",
            corpus::histogram_source(8, 64),
            64,
            Expect::Histogram { samples: 64 },
        )
        .locks(),
    ];
    // The mix is chosen, not measured from real traffic. Its hot set
    // spans the small configs a playground serves, all on the virtual
    // clock: each teaching program on the simulator at one of 4 to 64
    // PEs, heat2d_4x8 and the histogram on the simulator, and two
    // teaching programs on the threaded engines at 1 PE. Most are
    // simulations because docs/SERVE.md advises virtual-clock sim for
    // interactive use; two threaded configs (plus the misses, which
    // run threaded) keep the engines' thread start-up in the mix
    // without letting its run-to-run swing on a small host decide
    // `serve_rps`. Of all requests, 12 % are never-repeated variants
    // (cache misses) and 8 % are `/trace`.
    let sim = |src: &str, pes: usize| Request {
        path: "/run",
        body: request_body(src, "sim", pes, &[], true, None),
    };
    let mut hot: Vec<Request> =
        cases.iter().zip([4, 8, 16, 32, 64]).map(|(c, pes)| sim(&c.source, pes)).collect();
    hot.push(sim(HEAT2D_4X8, 8));
    hot.push(sim(&corpus::histogram_source(8, 64), 32));
    hot.push(Request { path: "/run", body: cases[0].run_body("vm", true) });
    hot.push(Request { path: "/run", body: cases[2].run_body("interp", true) });
    let traces = vec![Request {
        path: "/trace",
        body: request_body(HEAT2D_4X8, "sim", 8, &[], true, Some("perfetto")),
    }];
    Workload {
        name: "playground",
        mix: Mix::new(hot, traces, 12, 8, rng.fork(2)),
        cases,
        sims,
        launch: launch(1),
        open_rate: 80.0,
        split: Split { engines: 0.20, sim: 0.15, closed: 0.30, open: 0.35 },
    }
}
