//! Opt-in bytecode execution profiling (`lolrun --profile`).
//!
//! A [`VmProfile`] holds two counter planes, both sized once up front
//! so the hot-path hook (the crate-internal `hit`) is two array
//! increments — no allocation, no hashing, no branching beyond the
//! caller's single "is profiling on?" check:
//!
//! * **per-opcode counts** — one cell per [`Op`] discriminant
//!   ([`Op::COUNT`] of them), operand-blind, so "how much of this
//!   program is superinstructions?" is a table lookup;
//! * **per-pc heat** — one cell per bytecode offset per chunk, from
//!   which [`VmProfile::hot_ranges`] recovers the top-N contiguous hot
//!   bytecode ranges (inner loops show up as single ranges, not a
//!   smear of individual pcs).
//!
//! A third plane estimates where the time goes: every
//! [`SAMPLE_EVERY`]th dispatch is time-stamped, and the time until the
//! next dispatch, less the calibrated cost of an empty sample, is
//! charged to the sampled opcode ([`VmProfile::op_time_bp`]). A sample
//! far longer than its opcode's median sample (see [`OUTLIER_OCTAVES`])
//! counts as that median instead. Sampling one dispatch in 1021 keeps
//! the clock reads out of the measured shares.
//!
//! Profiles from different PEs of the same module share a shape and
//! [merge](VmProfile::merge) by element-wise addition, so a threaded
//! run reports one job-wide profile.

use crate::ops::{Module, Op};
use std::time::{Duration, Instant};

/// One dispatch in this many is time-sampled. A prime: a loop whose
/// dispatch count per period shares a factor with the stride is
/// sampled only at some of its ops (with 1024, a loop of an even
/// period never samples half of them).
pub const SAMPLE_EVERY: u64 = 1021;

/// How far above its opcode's median a time sample may lie, in
/// powers of two, before it counts as an outlier: one that is 2^10 to
/// 2^11 times the median. An op's cost varies with its operands (a
/// SMOOSH of a long YARN takes microseconds, of a short one tens of
/// nanoseconds), but not by a thousandfold within one run, while a
/// sample that spans a preemption lasts milliseconds, 10^5 dispatches.
/// Uncut, one such gap once claimed a third of a run's shares for the
/// `Jump` it happened to time. An outlier is charged the mean of its
/// opcode's median bucket. An opcode sampled once keeps its sample:
/// there is nothing to tell it from.
pub const OUTLIER_OCTAVES: usize = 10;

/// Time samples are counted per opcode in power-of-two buckets of
/// nanoseconds: bucket `b > 0` holds the samples of `2^(b-1)..2^b` ns,
/// bucket 0 the empty ones and the last bucket everything longer.
const BUCKETS: usize = 40;

/// The samples of one bucket: how many, and their nanoseconds.
#[derive(Clone, Copy, Debug, Default)]
struct Bucket {
    n: u64,
    ns: u64,
}

/// Execution counters for one run of a [`Module`] (see module docs).
#[derive(Clone, Debug)]
pub struct VmProfile {
    /// `ops[Op::profile_index()]` = times that opcode executed.
    ops: Vec<u64>,
    /// `heat[chunk][pc]` = times the op at `pc` executed. Chunk 0 is
    /// `main`, chunk `i + 1` is `funcs[i]`.
    heat: Vec<Vec<u64>>,
    /// `time[Op::profile_index()]` = that opcode's time samples, by
    /// length.
    time: Vec<[Bucket; BUCKETS]>,
    /// Dispatches seen, for picking every [`SAMPLE_EVERY`]th.
    ticks: u64,
    /// The open sample: when it was taken and the opcode it times.
    open: Option<(Instant, usize)>,
    /// What an empty sample (two back-to-back clock reads) costs.
    empty: Duration,
}

/// One contiguous run of executed bytecode, scored by total op count.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HotRange {
    /// Chunk index (0 = `main`, `i + 1` = `funcs[i]`).
    pub chunk: usize,
    /// First bytecode offset of the range.
    pub start: usize,
    /// One past the last bytecode offset of the range.
    pub end: usize,
    /// Total op executions inside the range.
    pub count: u64,
}

impl VmProfile {
    /// An all-zero profile shaped for `module`.
    pub fn for_module(module: &Module) -> Self {
        let mut heat = Vec::with_capacity(1 + module.funcs.len());
        heat.push(vec![0u64; module.main.code.len()]);
        for (_, chunk, _) in &module.funcs {
            heat.push(vec![0u64; chunk.code.len()]);
        }
        VmProfile {
            ops: vec![0u64; Op::COUNT],
            heat,
            time: vec![[Bucket::default(); BUCKETS]; Op::COUNT],
            ticks: 0,
            open: None,
            empty: empty_sample(),
        }
    }

    /// Record one op execution: two bounds-checked array increments,
    /// plus closing the open time sample and, on every
    /// [`SAMPLE_EVERY`]th dispatch, opening the next. Never called when
    /// profiling is off.
    #[inline]
    pub(crate) fn hit(&mut self, chunk: usize, pc: usize, op_idx: usize) {
        if let Some((t0, idx)) = self.open.take() {
            self.charge(idx, t0.elapsed());
        }
        self.ops[op_idx] += 1;
        self.heat[chunk][pc] += 1;
        self.ticks += 1;
        if self.ticks.is_multiple_of(SAMPLE_EVERY) {
            self.open = Some((Instant::now(), op_idx));
        }
    }

    /// Record for the sampled opcode `idx` a sample that took `took`,
    /// less the cost of an empty sample.
    fn charge(&mut self, idx: usize, took: Duration) {
        let ns = u64::try_from(took.saturating_sub(self.empty).as_nanos()).unwrap_or(u64::MAX);
        let b = ((u64::BITS - ns.leading_zeros()) as usize).min(BUCKETS - 1);
        let cell = &mut self.time[idx][b];
        cell.n += 1;
        cell.ns = cell.ns.saturating_add(ns);
    }

    /// Drop the open time sample (the machine is leaving its dispatch
    /// loop, so the time to the next dispatch is not the op's).
    pub(crate) fn pause(&mut self) {
        self.open = None;
    }

    /// Fold another PE's profile of the same module into this one.
    pub fn merge(&mut self, other: &VmProfile) {
        for (a, b) in self.ops.iter_mut().zip(&other.ops) {
            *a += b;
        }
        for (a, b) in self.heat.iter_mut().zip(&other.heat) {
            for (x, y) in a.iter_mut().zip(b) {
                *x += y;
            }
        }
        for (a, b) in self.time.iter_mut().zip(&other.time) {
            for (x, y) in a.iter_mut().zip(b) {
                x.n += y.n;
                x.ns = x.ns.saturating_add(y.ns);
            }
        }
    }

    /// Each time-sampled opcode's share of the sampled execution time,
    /// outliers cut (see [`OUTLIER_OCTAVES`]), as `(name, parts per
    /// 10 000)`, descending (ties by profile index). Empty when no
    /// sample closed.
    pub fn op_time_bp(&self) -> Vec<(&'static str, u64)> {
        let time: Vec<u64> = self.time.iter().map(charged).collect();
        let total: u128 = time.iter().map(|&ns| u128::from(ns)).sum();
        if total == 0 {
            return Vec::new();
        }
        let mut rows: Vec<(usize, u64)> = time
            .iter()
            .enumerate()
            .filter(|&(_, &ns)| ns > 0)
            .map(|(i, &ns)| (i, (u128::from(ns) * 10_000 / total) as u64))
            .collect();
        rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        rows.into_iter().map(|(i, bp)| (Op::profile_name(i), bp)).collect()
    }

    /// Total ops executed.
    pub fn total(&self) -> u64 {
        self.ops.iter().sum()
    }

    /// Executed opcodes as `(name, count, is_superinstruction)`,
    /// descending by count (ties broken by profile index, so the
    /// order is deterministic).
    pub fn op_counts(&self) -> Vec<(&'static str, u64, bool)> {
        let mut rows: Vec<(usize, u64)> =
            self.ops.iter().copied().enumerate().filter(|&(_, n)| n > 0).collect();
        rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        rows.into_iter()
            .map(|(i, n)| (Op::profile_name(i), n, Op::is_superinstruction(i)))
            .collect()
    }

    /// The share of executed ops that were fused superinstructions,
    /// in parts per 10 000 (avoids float in the report plumbing).
    pub fn super_bp(&self) -> u64 {
        let total = self.total();
        if total == 0 {
            return 0;
        }
        let fused: u64 = self
            .ops
            .iter()
            .enumerate()
            .filter(|(i, _)| Op::is_superinstruction(*i))
            .map(|(_, n)| n)
            .sum();
        fused * 10_000 / total
    }

    /// The top-`n` contiguous executed bytecode ranges, hottest first
    /// (ties broken by chunk then start, so the order is
    /// deterministic). A range is a maximal run of pcs that all
    /// executed at least once — a loop body surfaces as one range.
    pub fn hot_ranges(&self, n: usize) -> Vec<HotRange> {
        let mut ranges = Vec::new();
        for (chunk, heat) in self.heat.iter().enumerate() {
            let mut pc = 0;
            while pc < heat.len() {
                if heat[pc] == 0 {
                    pc += 1;
                    continue;
                }
                let start = pc;
                let mut count = 0u64;
                while pc < heat.len() && heat[pc] > 0 {
                    count += heat[pc];
                    pc += 1;
                }
                ranges.push(HotRange { chunk, start, end: pc, count });
            }
        }
        ranges.sort_by(|a, b| {
            b.count.cmp(&a.count).then(a.chunk.cmp(&b.chunk)).then(a.start.cmp(&b.start))
        });
        ranges.truncate(n);
        ranges
    }

    /// Human label for a heat-plane chunk index (`main` or the
    /// function's source name).
    pub fn chunk_label(module: &Module, chunk: usize) -> String {
        if chunk == 0 {
            "main".to_string()
        } else {
            module.funcs.get(chunk - 1).map_or_else(|| format!("chunk{chunk}"), |f| f.0.clone())
        }
    }
}

/// The nanoseconds charged to an opcode with the time samples `hist`:
/// their sum, with each outlier, a sample more than [`OUTLIER_OCTAVES`]
/// buckets above the median's, counted as the median bucket's mean.
fn charged(hist: &[Bucket; BUCKETS]) -> u64 {
    let n: u64 = hist.iter().map(|b| b.n).sum();
    let mut seen = 0;
    let Some(m) = hist.iter().position(|b| {
        seen += b.n;
        n > 0 && 2 * seen >= n
    }) else {
        return 0;
    };
    let typical = hist[m].ns / hist[m].n;
    hist.iter()
        .enumerate()
        .map(|(b, c)| if b > m + OUTLIER_OCTAVES { c.n.saturating_mul(typical) } else { c.ns })
        .fold(0, u64::saturating_add)
}

/// The cost of an empty sample: the smallest gap between two
/// back-to-back clock reads over a few tries.
fn empty_sample() -> Duration {
    (0..64)
        .map(|_| {
            let t0 = Instant::now();
            t0.elapsed()
        })
        .min()
        .unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_indices_are_a_dense_permutation() {
        // Names table and index space agree; supers are a contiguous
        // block strictly inside the range.
        assert_eq!(Op::profile_name(0), "Const");
        assert_eq!(Op::profile_name(Op::COUNT - 1), "Halt");
        assert_eq!(Op::Halt.profile_index(), Op::COUNT - 1);
        let sum = lol_ast::BinOp::Sum;
        assert!(Op::is_superinstruction(Op::BinLL { op: sum, a: 0, b: 0 }.profile_index()));
        assert!(!Op::is_superinstruction(Op::Bin(sum).profile_index()));
        let n_super = (0..Op::COUNT).filter(|&i| Op::is_superinstruction(i)).count();
        assert_eq!(n_super, 13);
    }

    #[test]
    fn merge_and_hot_ranges_are_deterministic() {
        let module = Module {
            consts: Vec::new(),
            main: crate::ops::Chunk { code: vec![Op::Halt; 8], ..Default::default() },
            funcs: Vec::new(),
            shared_words: 0,
        };
        let mut a = VmProfile::for_module(&module);
        let mut b = VmProfile::for_module(&module);
        // a executes pcs 1..=3 heavily, b executes pc 6 once.
        for _ in 0..10 {
            a.hit(0, 1, Op::Halt.profile_index());
            a.hit(0, 2, Op::Halt.profile_index());
            a.hit(0, 3, Op::Halt.profile_index());
        }
        b.hit(0, 6, Op::Halt.profile_index());
        a.merge(&b);
        assert_eq!(a.total(), 31);
        let ranges = a.hot_ranges(10);
        assert_eq!(ranges.len(), 2);
        assert_eq!(ranges[0], HotRange { chunk: 0, start: 1, end: 4, count: 30 });
        assert_eq!(ranges[1], HotRange { chunk: 0, start: 6, end: 7, count: 1 });
        let counts = a.op_counts();
        assert_eq!(counts, vec![("Halt", 31, false)]);
        assert_eq!(VmProfile::chunk_label(&module, 0), "main");
    }

    #[test]
    fn time_samples_charge_the_sampled_opcode() {
        let module = Module {
            main: crate::ops::Chunk { code: vec![Op::Halt; 2], ..Default::default() },
            ..Default::default()
        };
        let mut p = VmProfile::for_module(&module);
        assert!(p.op_time_bp().is_empty(), "no sample closed yet");
        for _ in 0..SAMPLE_EVERY - 1 {
            p.hit(0, 0, Op::Pop.profile_index());
        }
        // The SAMPLE_EVERY-th dispatch opens a sample; the time until
        // the next dispatch is that opcode's.
        p.hit(0, 1, Op::Halt.profile_index());
        std::thread::sleep(Duration::from_millis(2));
        p.hit(0, 0, Op::Pop.profile_index());
        assert_eq!(p.op_time_bp(), vec![("Halt", 10_000)]);
        // A paused sample charges nothing.
        for _ in 0..SAMPLE_EVERY - 1 {
            p.hit(0, 0, Op::Pop.profile_index());
        }
        p.pause();
        std::thread::sleep(Duration::from_millis(2));
        p.hit(0, 0, Op::Pop.profile_index());
        assert_eq!(p.op_time_bp(), vec![("Halt", 10_000)]);
    }

    #[test]
    fn a_preempted_sample_is_cut_and_a_slow_op_keeps_its_share() {
        let module = Module {
            main: crate::ops::Chunk { code: vec![Op::Halt; 2], ..Default::default() },
            ..Default::default()
        };
        let mut p = VmProfile::for_module(&module);
        p.empty = Duration::ZERO;
        // 30 jumps sampled at 40 ns, 970 pops at 30 ns and 20 SMOOSHes
        // of a long YARN at 10 µs. One jump sample then spans a 35 ms
        // preemption.
        let (jump, pop) = (Op::Jump(0).profile_index(), Op::Pop.profile_index());
        let smoosh = Op::Smoosh(2).profile_index();
        for _ in 0..30 {
            p.charge(jump, Duration::from_nanos(40));
        }
        for _ in 0..970 {
            p.charge(pop, Duration::from_nanos(30));
        }
        for _ in 0..20 {
            p.charge(smoosh, Duration::from_micros(10));
        }
        p.charge(jump, Duration::from_millis(35));
        // The gap counts as a 40 ns jump: 1.24 µs of 230.34 µs for
        // Jump, where uncut it would be 99.4 % of the time. The
        // SMOOSHes are 200 of the 230.34 µs.
        let bp = p.op_time_bp();
        assert_eq!(bp, vec![("Smoosh", 8682), ("Pop", 1263), ("Jump", 53)]);
        // Merged across PEs, the rule reads the pooled samples.
        let mut q = p.clone();
        q.merge(&p);
        assert_eq!(q.op_time_bp(), bp);
    }

    #[test]
    fn a_loop_of_even_period_is_sampled_at_every_op() {
        let module = Module {
            main: crate::ops::Chunk { code: vec![Op::Halt; 2], ..Default::default() },
            ..Default::default()
        };
        let mut p = VmProfile::for_module(&module);
        for _ in 0..2 * SAMPLE_EVERY {
            for op in [Op::Pop, Op::Halt] {
                p.hit(0, 0, op.profile_index());
                if p.open.is_some() {
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
        }
        let names: Vec<_> = p.op_time_bp().into_iter().map(|(name, _)| name).collect();
        assert_eq!(names.len(), 2, "both ops of a 2-op loop get time samples: {names:?}");
    }
}
