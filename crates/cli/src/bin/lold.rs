//! `lold` — the playground daemon: parallel LOLCODE as a service.
//!
//! Boots the `lol-serve` JSON-over-HTTP server over every engine
//! and serves until `POST /shutdown` (exit code 0). The
//! printed `lold listening on http://ADDR` line is the machine-parsed
//! readiness signal (tests and the CI smoke job scrape it).
//!
//! ```text
//! lold                          # 127.0.0.1:0 — kernel-picked port
//! lold --addr 127.0.0.1:4040 --workers 8
//! curl -s localhost:4040/healthz
//! curl -s localhost:4040/run -d '{"source": "HAI 1.2\nVISIBLE ME\nKTHXBYE"}'
//! ```

use std::process::ExitCode;
use std::time::Duration;

use lol_serve::{ServeConfig, Server};

const USAGE: &str = "\
usage: lold [--addr HOST:PORT] [--workers N] [--queue N] [--cache N]
            [--thread-budget N] [--max-pes N] [--max-wall-ms N]
            [--max-body BYTES] [--max-configs N] [--idle-timeout-ms N]
            [--access-log PATH]
  --addr <a>            bind address (default 127.0.0.1:0 — the kernel
                        picks a port; the listening line has the real one)
  --workers <N>         worker threads; a worker is pinned to its
                        connection, so size >= expected clients (default 8)
  --queue <N>           accepted-connection queue cap; beyond it new
                        connections get 429 + Retry-After (default 32)
  --cache <N>           compiled-artifact LRU capacity (default 32)
  --thread-budget <N>   global run-admission thread budget, sweep
                        semantics (0 = host cores; default 0)
  --max-pes <N>         per-request PE cap (default 65536)
  --max-wall-ms <N>     per-request cap on the deadlock watchdog, which
                        bounds spin-waits only, not compute (default 10000)
  --max-body <N>        request body cap in bytes (default 1048576)
  --max-configs <N>     per-sweep config-count cap (default 64)
  --idle-timeout-ms <N> idle keep-alive connection allowance (default 30000)
  --access-log <PATH>   append one JSONL line per handled request
                        (method, path, status, latency; off by default)

Routes: POST /run, POST /sweep, POST /trace, GET /healthz, GET /metrics
(Prometheus exposition), POST /shutdown (graceful drain, exit code 0).
See docs/SERVE.md and docs/OBSERVABILITY.md.
";

fn parse_num(args: &[String], i: &mut usize, flag: &str) -> Result<u64, String> {
    *i += 1;
    args.get(*i).and_then(|s| s.parse().ok()).ok_or_else(|| {
        let got = args.get(*i).map(|s| s.as_str()).unwrap_or("(nothing)");
        format!("O NOES! {flag} NEEDS A NUMBR, NOT {got}")
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut config = ServeConfig::default();
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].clone();
        let outcome: Result<(), String> = match flag.as_str() {
            "--addr" => {
                i += 1;
                match args.get(i) {
                    Some(a) => {
                        config.addr = a.clone();
                        Ok(())
                    }
                    None => Err("O NOES! --addr NEEDS HOST:PORT".to_string()),
                }
            }
            "--workers" => parse_num(&args, &mut i, "--workers").map(|n| {
                config.workers = (n as usize).max(1);
            }),
            "--queue" => parse_num(&args, &mut i, "--queue").map(|n| {
                config.queue_cap = (n as usize).max(1);
            }),
            "--cache" => parse_num(&args, &mut i, "--cache").map(|n| {
                config.cache_capacity = (n as usize).max(1);
            }),
            "--thread-budget" => parse_num(&args, &mut i, "--thread-budget").map(|n| {
                config.thread_budget = n as usize;
            }),
            "--max-pes" => parse_num(&args, &mut i, "--max-pes").map(|n| {
                config.quotas.max_pes = n as usize;
            }),
            "--max-wall-ms" => parse_num(&args, &mut i, "--max-wall-ms").map(|n| {
                config.quotas.max_wall = Duration::from_millis(n);
            }),
            "--max-body" => parse_num(&args, &mut i, "--max-body").map(|n| {
                config.quotas.max_body_bytes = n as usize;
            }),
            "--max-configs" => parse_num(&args, &mut i, "--max-configs").map(|n| {
                config.quotas.max_configs = (n as usize).max(1);
            }),
            "--idle-timeout-ms" => parse_num(&args, &mut i, "--idle-timeout-ms").map(|n| {
                config.read_timeout = Duration::from_millis(n.max(1));
            }),
            "--access-log" => {
                i += 1;
                match args.get(i) {
                    Some(p) => {
                        config.access_log = Some(p.clone());
                        Ok(())
                    }
                    None => Err("O NOES! --access-log NEEDS A PATH".to_string()),
                }
            }
            "-h" | "--help" => {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => Err(format!("O NOES! I DUNNO DIS FLAG: {other}")),
        };
        if let Err(e) = outcome {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::FAILURE;
        }
        i += 1;
    }

    let server = match Server::start(config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("O NOES! CANT BIND: {e}");
            return ExitCode::FAILURE;
        }
    };
    // The readiness line — parsed by tests and the CI smoke job.
    println!("lold listening on http://{}", server.addr());
    use std::io::Write;
    let _ = std::io::stdout().flush();
    server.wait();
    eprintln!("KTHXBYE");
    ExitCode::SUCCESS
}
