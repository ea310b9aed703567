//! `lcc` — the LOLCODE-to-C compiler command from Section VI.E:
//!
//! ```text
//! lcc code.lol -o executable.c
//! ```
//!
//! Translates parallel LOLCODE to C with OpenSHMEM calls: one
//! self-contained translation unit holding the runtime header, the
//! runtime source and the program. With `--stub`, also writes the
//! multi-PE pthread `shmem.h` stub (its header and source in one file)
//! next to the output so the result builds *and runs SPMD* on machines
//! without an OpenSHMEM installation:
//!
//! ```text
//! lcc code.lol -o prog.c --stub
//! cc -std=c99 -I. prog.c -lm -pthread -o prog
//! ./prog                         # 1 PE, stdout
//! LOL_STUB_NPES=8 ./prog         # 8 PE threads
//! ```
//!
//! (`lolrun --backend c` drives the same code automatically, with
//! per-PE output capture; it compiles the runtime and the stub once
//! into a cached object and links each program against it.)

use std::process::ExitCode;

const USAGE: &str = "\
usage: lcc <input.lol> [-o <output.c>] [--stub] [--check]
  -o <file>   write C output here (default: stdout)
  --stub      also write the multi-PE pthread shmem.h stub beside the
              output (build: cc -std=c99 -I. out.c -lm -pthread;
              run N PEs: LOL_STUB_NPES=N ./a.out)
  --check     parse + analyze only; print warnings, emit nothing
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut input: Option<String> = None;
    let mut output: Option<String> = None;
    let mut stub = false;
    let mut check_only = false;

    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "-o" => {
                i += 1;
                if i >= args.len() {
                    eprintln!("O NOES! -o NEEDS A FILE NAME\n{USAGE}");
                    return ExitCode::FAILURE;
                }
                output = Some(args[i].clone());
            }
            "--stub" => stub = true,
            "--check" => check_only = true,
            "-h" | "--help" => {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            a if a.starts_with('-') => {
                eprintln!("O NOES! I DUNNO DIS FLAG: {a}\n{USAGE}");
                return ExitCode::FAILURE;
            }
            a => {
                if input.replace(a.to_string()).is_some() {
                    eprintln!("O NOES! ONLY ONE INPUT FILE PLZ\n{USAGE}");
                    return ExitCode::FAILURE;
                }
            }
        }
        i += 1;
    }

    let Some(input) = input else {
        eprintln!("O NOES! GIMMEH AN INPUT FILE\n{USAGE}");
        return ExitCode::FAILURE;
    };
    let src = match std::fs::read_to_string(&input) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("O NOES! CANT READ {input}: {e}");
            return ExitCode::FAILURE;
        }
    };

    // Front end runs once; --check stops here, otherwise the same
    // artifact feeds the C emitter.
    let artifact = match lolcode::compile(&src) {
        Ok(a) => a,
        Err(e) => {
            eprint!("{e}");
            return ExitCode::FAILURE;
        }
    };
    if check_only {
        for w in artifact.warnings() {
            eprint!("{w}");
        }
        eprintln!("KTHX: {input} IZ GOOD");
        return ExitCode::SUCCESS;
    }

    let c = match artifact.emit_c() {
        Ok(unit) => lol_c_codegen::standalone(&unit),
        Err(e) => {
            eprint!("{e}");
            return ExitCode::FAILURE;
        }
    };

    match &output {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &c) {
                eprintln!("O NOES! CANT WRITE {path}: {e}");
                return ExitCode::FAILURE;
            }
            if stub {
                let dir = std::path::Path::new(path)
                    .parent()
                    .map(|p| p.to_path_buf())
                    .unwrap_or_default();
                let stub_path = dir.join("shmem.h");
                if let Err(e) = std::fs::write(&stub_path, lol_c_codegen::standalone_stub()) {
                    eprintln!("O NOES! CANT WRITE {}: {e}", stub_path.display());
                    return ExitCode::FAILURE;
                }
            }
        }
        None => print!("{c}"),
    }
    ExitCode::SUCCESS
}
