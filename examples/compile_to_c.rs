//! The `lcc` pipeline as a library call: translate the paper's
//! Figure 2 example (and the full n-body) to C + OpenSHMEM and show the
//! interesting parts of the output.
//!
//! ```text
//! cargo run --release --example compile_to_c
//! ```

use icanhas::prelude::*;

fn main() {
    println!("== Section VI.C barrier example, compiled to C ==\n");
    // The artifact API: one front-end pass feeds the C emitter (and
    // could feed the interpreter/VM engines too, without re-parsing).
    let artifact = compile(corpus::BARRIER_EXAMPLE).expect("front end failed");
    let c = artifact.emit_c().expect("codegen failed");

    // Show everything after the embedded runtime (the interesting part).
    let tail = c.split("/* ---- end runtime ---- */").nth(1).unwrap_or(&c);
    println!("{}", tail.trim_start());

    // The paper's key lowering decisions, verified:
    assert!(c.contains("static LOL_SYMMETRIC long long g_a;"), "symmetric scalar");
    assert!(c.contains("shmem_longlong_p(&g_b,"), "UR b R MAH a -> remote put");
    assert!(c.contains("shmem_barrier_all();"), "HUGZ -> barrier");
    assert!(c.contains("shmem_init();"), "transparent initialization (VI.A)");

    println!("\n== n-body (Section VI.D) C statistics ==");
    let nbody_c = compile_to_c(&corpus::nbody_paper()).expect("codegen failed");
    println!("  total lines: {}", nbody_c.lines().count());
    println!("  remote gets: {}", nbody_c.matches("shmem_double_g(").count());
    println!("  barriers:    {}", nbody_c.matches("shmem_barrier_all();").count());
    println!("  symmetric arrays: {}", nbody_c.matches("static LOL_SYMMETRIC double g_").count());
    println!("\nwrite it out wif: cargo run -p lol-cli --bin lcc -- code.lol -o code.c --stub");
}
