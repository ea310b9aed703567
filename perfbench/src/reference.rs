//! `perfbench-ref`: the reference loop that measures the host's speed
//! (see `calib.rs`), in a binary of its own.
//!
//! It links nothing of the toolchain, so a change to the toolchain can
//! move neither its code nor where that code lands in memory: the loop
//! is a tight interpreter, and where its code and data fall against the
//! cache lines and branch tables moves its time by several per cent.
//! For every byte read from its standard input it runs the loop
//! `PROBES` times and prints, per loop, its time in ms and whether it
//! computed the right answer. It exits when its input closes.

use std::hint::black_box;
use std::io::{Read, Write};
use std::time::Instant;

/// Loops per request.
const PROBES: usize = 2;
/// Iterations of the reference program's loop.
const ITERATIONS: i64 = 64_000;
/// What the reference program computes; a different answer means the
/// loop did not run as written.
const CHECKSUM: i64 = 7_119_685_399_588_329_335;

/// A value of the reference machine: a number or a string, as the
/// toolchain's engines hold NUMBRs and YARNs.
#[derive(Clone, Debug)]
enum Val {
    Int(i64),
    Text(String),
}

#[derive(Clone, Copy, Debug)]
enum Op {
    Push(i64),
    Load(usize),
    Store(usize),
    Add,
    Mul,
    Xor,
    Shr(u32),
    And(i64),
    /// Pop an index, push that slot of the table.
    Get,
    /// Pop a value and an index, store the value in that slot.
    Set,
    /// Pop a number, push its decimal text.
    Format,
    /// Pop a text, push its length.
    Len,
    JumpIfNonZero(usize),
    JumpIfLess(usize),
    Halt,
}

/// The reference program: an LCG stepping through a 1,024-slot table,
/// folding each slot into an accumulator and writing it back, turning
/// the accumulator into text every 64th iteration. Locals: 0 the
/// counter, 1 the accumulator, 2 the LCG state, 3 the slot.
#[rustfmt::skip]
fn program() -> Vec<Op> {
    use Op::*;
    let (top, skip) = (0, 30);
    vec![
        // x = x * A + C
        Load(2), Push(6_364_136_223_846_793_005), Mul, Push(1_442_695_040_888_963_407), Add, Store(2),
        // slot = (x >> 20) & 1023
        Load(2), Shr(20), And(1023), Store(3),
        // acc = (acc ^ table[slot]) + (x >> 7)
        Load(1), Load(3), Get, Xor, Load(2), Shr(7), Add, Store(1),
        // table[slot] = acc
        Load(3), Load(1), Set,
        // every 64th iteration: acc = len(text(acc)) + acc
        Load(0), And(63), JumpIfNonZero(skip), Load(1), Format, Len, Load(1), Add, Store(1),
        // skip: i = i + 1; loop while i < ITERATIONS
        Load(0), Push(1), Add, Store(0), Load(0), Push(ITERATIONS), JumpIfLess(top),
        Halt,
    ]
}

fn int(v: Val) -> i64 {
    match v {
        Val::Int(n) => n,
        Val::Text(t) => t.len() as i64,
    }
}

/// Run the reference program on a small stack machine: a `match` per
/// instruction over values that may be numbers or strings, the way the
/// toolchain's interpreter and VM run LOLCODE.
fn reference_loop() -> i64 {
    let code = program();
    let mut locals =
        vec![Val::Int(0), Val::Int(1), Val::Int(black_box(0x2545_F491_4F6C_DD1D)), Val::Int(0)];
    let mut table = vec![Val::Int(0); 1024];
    let mut stack: Vec<Val> = Vec::with_capacity(16);
    let mut pc = 0;
    loop {
        let op = code[pc];
        pc += 1;
        match op {
            Op::Push(n) => stack.push(Val::Int(n)),
            Op::Load(i) => stack.push(locals[i].clone()),
            Op::Store(i) => locals[i] = stack.pop().expect("stack"),
            Op::Add | Op::Mul | Op::Xor => {
                let b = int(stack.pop().expect("stack"));
                let a = int(stack.pop().expect("stack"));
                stack.push(Val::Int(match op {
                    Op::Add => a.wrapping_add(b),
                    Op::Mul => a.wrapping_mul(b),
                    _ => a ^ b,
                }));
            }
            Op::Shr(k) => {
                let a = int(stack.pop().expect("stack"));
                stack.push(Val::Int(((a as u64) >> k) as i64));
            }
            Op::And(m) => {
                let a = int(stack.pop().expect("stack"));
                stack.push(Val::Int(a & m));
            }
            Op::Get => {
                let i = int(stack.pop().expect("stack")) as usize;
                stack.push(table[i].clone());
            }
            Op::Set => {
                let v = stack.pop().expect("stack");
                let i = int(stack.pop().expect("stack")) as usize;
                table[i] = v;
            }
            Op::Format => {
                let a = int(stack.pop().expect("stack"));
                stack.push(Val::Text(a.to_string()));
            }
            Op::Len => {
                let t = stack.pop().expect("stack");
                stack.push(Val::Int(int(t)));
            }
            Op::JumpIfNonZero(to) => {
                if int(stack.pop().expect("stack")) != 0 {
                    pc = to;
                }
            }
            Op::JumpIfLess(to) => {
                let b = int(stack.pop().expect("stack"));
                let a = int(stack.pop().expect("stack"));
                if a < b {
                    pc = to;
                }
            }
            Op::Halt => break,
        }
    }
    let acc = int(locals[1].clone());
    black_box(table.into_iter().fold(acc, |h, v| h.rotate_left(5) ^ int(v)))
}

fn main() {
    let mut out = std::io::stdout().lock();
    for byte in std::io::stdin().lock().bytes() {
        if byte.is_err() {
            break;
        }
        for _ in 0..PROBES {
            let start = Instant::now();
            let right = reference_loop() == CHECKSUM;
            let ms = start.elapsed().as_secs_f64() * 1e3;
            if writeln!(out, "{ms} {right}").and_then(|_| out.flush()).is_err() {
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_loop_computes_its_checksum() {
        assert_eq!(reference_loop(), CHECKSUM);
    }
}
