//! `lold-bench` — the self-driving load test for the `lold` service.
//!
//! Spins up an in-process server (or targets a running one via
//! `--addr`), then drives N client threads × M requests each over real
//! localhost sockets and reports throughput + latency percentiles.
//! The JSON report is what `scripts/check_perf_regression.py --serve`
//! gates in CI.
//!
//! ```text
//! lold-bench --clients 8 --requests 50 --backend sim --clock virtual \
//!            --program corpus/heat2d_4x8.lol --out serve-bench.json
//! ```

use std::process::ExitCode;

use lol_json::Writer;
use lol_serve::bench::{run, BenchSpec};
use lol_serve::{ServeConfig, Server};

const USAGE: &str = "\
usage: lold-bench [--addr HOST:PORT] [--clients N] [--requests M]
                  [--program FILE] [--backend interp|vm|c|sim] [--pes N]
                  [--clock wall|virtual] [--out FILE]
  --addr <a>       target an already-running lold instead of spawning an
                   in-process server
  --clients <N>    concurrent client threads (default 8)
  --requests <M>   requests per client (default 50)
  --program <f>    program file to POST (default: built-in parallel
                   hello-world)
  --backend <b>    backend field of the request (default sim)
  --pes <N>        PE count per request (default 8)
  --clock <c>      clock field (default virtual — deterministic bodies)
  --out <f>        write the JSON report there (default: stdout)

Exit code is non-zero when any request failed (non-200 or transport).
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut addr: Option<String> = None;
    let mut clients = 8usize;
    let mut requests = 50usize;
    let mut program: Option<String> = None;
    let mut backend = "sim".to_string();
    let mut pes = 8usize;
    let mut clock = "virtual".to_string();
    let mut out: Option<String> = None;

    let mut i = 0;
    while i < args.len() {
        macro_rules! value {
            ($flag:expr) => {{
                i += 1;
                match args.get(i) {
                    Some(v) => v.clone(),
                    None => {
                        eprintln!("O NOES! {} NEEDS A VALUE\n{USAGE}", $flag);
                        return ExitCode::FAILURE;
                    }
                }
            }};
        }
        match args[i].as_str() {
            "--addr" => addr = Some(value!("--addr")),
            "--clients" => {
                clients = match value!("--clients").parse() {
                    Ok(n) if n >= 1 => n,
                    _ => {
                        eprintln!("O NOES! --clients NEEDS A POSITIV NUMBR\n{USAGE}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--requests" => {
                requests = match value!("--requests").parse() {
                    Ok(n) if n >= 1 => n,
                    _ => {
                        eprintln!("O NOES! --requests NEEDS A POSITIV NUMBR\n{USAGE}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--program" => program = Some(value!("--program")),
            "--backend" => backend = value!("--backend"),
            "--pes" => {
                pes = match value!("--pes").parse() {
                    Ok(n) if n >= 1 => n,
                    _ => {
                        eprintln!("O NOES! --pes NEEDS A POSITIV NUMBR\n{USAGE}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--clock" => clock = value!("--clock"),
            "--out" => out = Some(value!("--out")),
            "-h" | "--help" => {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("O NOES! I DUNNO DIS FLAG: {other}\n{USAGE}");
                return ExitCode::FAILURE;
            }
        }
        i += 1;
    }

    let source = match &program {
        Some(path) => match std::fs::read_to_string(path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("O NOES! CANT READ {path}: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => lolcode::corpus::HELLO_PARALLEL.to_string(),
    };
    let mut body = String::new();
    let mut w = Writer::new(&mut body);
    w.begin_obj().key("source").str(&source).key("backend").str(&backend);
    w.key("pes").num(pes).key("clock").str(&clock).end_obj();

    // No --addr: spawn the server in-process, sized so no client ever
    // starves for a worker (each worker pins one connection).
    let (target, local) = match addr {
        Some(a) => (a, None),
        None => {
            let config = ServeConfig {
                workers: clients + 2,
                queue_cap: clients * 2 + 4,
                ..ServeConfig::default()
            };
            let server = match Server::start(config) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("O NOES! CANT BIND: {e}");
                    return ExitCode::FAILURE;
                }
            };
            (server.addr().to_string(), Some(server))
        }
    };

    let spec = BenchSpec { addr: target, clients, requests, path: "/run".to_string(), body };
    let report = run(&spec);
    eprintln!("{}", report.summary());
    let rendered = report.to_json();
    match &out {
        Some(path) => {
            if let Err(e) = std::fs::write(path, format!("{rendered}\n")) {
                eprintln!("O NOES! CANT WRITE {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
        None => println!("{rendered}"),
    }
    if let Some(server) = local {
        server.shutdown();
    }
    if report.errors == 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!("O NOES! {} OF {} REQUESTS HAZ A SAD", report.errors, report.total);
        ExitCode::FAILURE
    }
}
