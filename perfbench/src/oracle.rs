//! Expected outputs the benchmark carries: closed forms and reference
//! implementations of its own programs, fingerprints of the checked-in
//! corpus programs, and invariant checks where the output depends on a
//! backend's random stream.

use crate::util::outputs_hash;

/// What a correct run of one program at one config prints.
#[derive(Clone, Debug)]
pub enum Expect {
    /// Exact per-PE output on every backend.
    Exact(Vec<String>),
    /// Fingerprints of the per-PE outputs: `shared` for the backends
    /// that share the substrate's random stream (interp, vm, sim),
    /// `c` for the C stub's own stream.
    Hash { shared: u64, c: u64 },
    /// The corpus histogram: every PE prints the same global bins, and
    /// the bins add up to `PEs × samples`. The bin counts themselves
    /// depend on the random stream.
    Histogram { samples: u64 },
}

impl Expect {
    /// Check `outputs` produced by a run on the C backend (`c`) or on
    /// one of the shared-stream backends.
    pub fn check(&self, outputs: &[String], pes: usize, c: bool) -> Result<(), String> {
        if outputs.len() != pes {
            return Err(format!("{} PE outputs, want {pes}", outputs.len()));
        }
        match self {
            Expect::Exact(want) => {
                for (pe, (got, want)) in outputs.iter().zip(want).enumerate() {
                    if got != want {
                        return Err(format!("PE {pe} printed {got:?}, want {want:?}"));
                    }
                }
                Ok(())
            }
            Expect::Hash { shared, c: c_hash } => {
                let want = if c { *c_hash } else { *shared };
                let got = outputs_hash(outputs);
                if got == want {
                    Ok(())
                } else {
                    Err(format!("output fingerprint {got:016x}, want {want:016x}"))
                }
            }
            Expect::Histogram { samples } => check_histogram(outputs, *samples),
        }
    }

    /// Whether the C backend prints the same bytes as the interpreter.
    pub fn c_matches_interp(&self) -> bool {
        matches!(self, Expect::Exact(_))
    }
}

fn check_histogram(outputs: &[String], samples: u64) -> Result<(), String> {
    let want_total = samples * outputs.len() as u64;
    let strip = |pe: usize, o: &str| o.replacen(&format!("PE {pe} "), "", 2);
    let first = strip(0, &outputs[0]);
    for (pe, o) in outputs.iter().enumerate() {
        if strip(pe, o) != first {
            return Err(format!("PE {pe} disagrees with PE 0 on the gathered bins"));
        }
    }
    let mut lines = first.lines();
    let bins: u64 = lines
        .next()
        .and_then(|l| l.strip_prefix("BINZ"))
        .ok_or("no BINZ line")?
        .split_whitespace()
        .map(|b| b.parse::<u64>().map_err(|e| e.to_string()))
        .sum::<Result<u64, String>>()?;
    let total: u64 = lines
        .next()
        .and_then(|l| l.strip_prefix("TOTAL "))
        .ok_or("no TOTAL line")?
        .parse()
        .map_err(|e: std::num::ParseIntError| e.to_string())?;
    if bins != want_total || total != want_total {
        return Err(format!("bins add to {bins}, total {total}, want {want_total}"));
    }
    Ok(())
}

/// `ring_allreduce.lol`: each PE starts with `v(pe)`, and every step
/// passes the carry to the next PE and adds what arrived.
pub fn ring(pes: usize, steps: u64, mul: u64, add: u64) -> Vec<String> {
    const M: u64 = 1_000_000_007;
    let v = |pe: usize| (mul * (pe as u64 + 1) + add) % 1_000_003;
    (0..pes)
        .map(|pe| {
            let mut total = v(pe);
            for k in 1..=steps {
                let from = (pe + pes - (k % pes as u64) as usize) % pes;
                total = (total + v(from)) % M;
            }
            format!("PE {pe} RING {total}\n")
        })
        .collect()
}

/// `lock_counter.lol`: every PE adds `iters` to PE 0's counter.
pub fn lock_counter(pes: usize, iters: u64) -> Vec<String> {
    (0..pes).map(|pe| format!("PE {pe} COUNT {}\n", pes as u64 * iters)).collect()
}

/// `pi_reduce.lol`: per-PE LCG draws, hits summed over PEs and trials.
pub fn pi(pes: usize, trials: u64, samples: u64, seed: u64) -> Vec<String> {
    const M: u64 = 1 << 30;
    let mut grand = 0u64;
    for pe in 0..pes as u64 {
        let mut x = (seed + pe * 7919) % M;
        for _ in 0..trials * samples {
            x = (x * 1_103_515_245 + 12_345) % M;
            let u = x;
            x = (x * 1_103_515_245 + 12_345) % M;
            let v = x;
            if u * u + v * v < 1 << 60 {
                grand += 1;
            }
        }
    }
    let n = trials * samples * pes as u64;
    (0..pes).map(|pe| format!("PE {pe} PI HITS {grand} OF {n}\n")).collect()
}

/// `yarn_kernel.lol`: digits appended to a YARN, folded back into a
/// NUMBR every 12 digits.
pub fn yarn(n: u64, seed: u64) -> Vec<String> {
    let mut h = seed;
    let mut acc = 0u64;
    let mut s = String::new();
    let mut last = String::new();
    for i in 0..n {
        h = (h * 48271 + i) % 2_147_483_647;
        s.push(char::from(b'0' + (h % 10) as u8));
        if s.len() == 12 {
            acc = (acc * 31 + s.parse::<u64>().expect("digits")) % 1_000_000_007;
            last = format!("#{s}");
            s.clear();
        }
    }
    vec![format!("YARN {acc} {last} {s}\n")]
}

/// `lolcode::corpus::HELLO_PARALLEL`.
pub fn hello(pes: usize) -> Vec<String> {
    (0..pes).map(|pe| format!("HAI ITZ {pe} OF {pes}\n")).collect()
}

/// `lolcode::corpus::RING_EXAMPLE`: each PE copies its right
/// neighbour's array `1000·next + i`.
pub fn ring_example(pes: usize) -> Vec<String> {
    (0..pes)
        .map(|pe| {
            let next = (pe + 1) % pes;
            format!("PE {pe} GOT {} .. {}\n", next * 1000, next * 1000 + 31)
        })
        .collect()
}

/// `lolcode::corpus::BARRIER_EXAMPLE`: `c = a + b`, where `b` came
/// from the left neighbour's `a = pe + 1`.
pub fn barrier_example(pes: usize) -> Vec<String> {
    (0..pes)
        .map(|pe| {
            let left = (pe + pes - 1) % pes;
            format!("PE {pe}: C = {}\n", pe + 1 + left + 1)
        })
        .collect()
}

/// `lolcode::corpus::LOCKS_EXAMPLE`: every PE increments PE 0's `x`.
pub fn locks_example(pes: usize) -> Vec<String> {
    (0..pes).map(|pe| format!("PE {pe} SEES X = {}\n", if pe == 0 { pes } else { 0 })).collect()
}

/// `lolcode::corpus::TRYLOCK_EXAMPLE`: every PE writes its own `x`.
pub fn trylock_example(pes: usize) -> Vec<String> {
    (0..pes).map(|pe| format!("PE {pe} WROTE 42\n")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_two_pes_matches_hand_count() {
        // v0 = 7932, v1 = 15851; PE 0 adds 200 of each over 400 steps.
        assert_eq!(ring(2, 400, 7919, 13)[0], "PE 0 RING 4764532\n");
    }

    #[test]
    fn histogram_invariants() {
        let ok = vec![
            "PE 0 BINZ 3 1\nPE 0 TOTAL 4\n".to_string(),
            "PE 1 BINZ 3 1\nPE 1 TOTAL 4\n".to_string(),
        ];
        assert!(check_histogram(&ok, 2).is_ok());
        assert!(check_histogram(&ok, 3).is_err());
    }
}
