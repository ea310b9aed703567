//! Disassemble a LOLCODE program: the constant pool, the main chunk and
//! every `HOW IZ I` function chunk, one instruction per line, each chunk
//! headed by its frame sizes (value slots, local arrays, raw registers)
//! and the constants its register bank starts with.
//!
//! ```console
//! cargo run --release -p lol-vm --example dis -- corpus/nbody_bench.lol
//! ```

use lol_vm::Chunk;

fn chunk(title: &str, c: &Chunk) {
    println!("{title}  ({} slots, {} arrays, {} registers)", c.n_slots, c.n_arrays, c.regs.len());
    let consts: Vec<String> = c
        .regs
        .iter()
        .enumerate()
        .filter(|(_, w)| **w != 0)
        .map(|(r, w)| format!("r{r}={w:#x}"))
        .collect();
    if !consts.is_empty() {
        println!("  nonzero registers at entry: {}", consts.join(" "));
    }
    for (i, op) in c.code.iter().enumerate() {
        println!("{i:4}  {op:?}");
    }
}

fn main() {
    let src = std::fs::read_to_string(std::env::args().nth(1).unwrap()).unwrap();
    let prog = lol_parser::parse(&src).expect_program(&src);
    let analysis = lol_sema::analyze(&prog);
    let m = lol_vm::compile(&prog, &analysis).unwrap();
    println!("consts");
    for (k, v) in m.consts.iter().enumerate() {
        println!("{k:4}  {v:?}");
    }
    chunk("main", &m.main);
    for (name, c, arity) in &m.funcs {
        chunk(&format!("func {name}/{arity}"), c);
    }
}
