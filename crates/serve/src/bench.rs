//! The self-driving load-test harness behind `lold-bench`.
//!
//! N client threads × M requests each, over real localhost sockets
//! (keep-alive — one connection per client, like a well-behaved SDK),
//! against a `lold` server that is usually in the same process. The
//! report carries throughput and latency percentiles in the JSON shape
//! `scripts/check_perf_regression.py --serve` gates on.
//!
//! The harness also scrapes `GET /metrics` before and after the run
//! and embeds the server-side counter deltas ([`ServeDeltas`]) in the
//! report — so the client's view ("I sent 400 requests") is checked
//! against the server's ("I counted 400 and zero errors") in the same
//! document.

use std::time::Instant;

use lol_obs::{parse_exposition, sample_value, Sample};

use crate::json::Writer;

/// What to throw at the server.
#[derive(Clone, Debug)]
pub struct BenchSpec {
    /// Server address, e.g. `127.0.0.1:4040`.
    pub addr: String,
    /// Concurrent client threads.
    pub clients: usize,
    /// Requests per client.
    pub requests: usize,
    /// Request path (e.g. `/run`).
    pub path: String,
    /// Request body (sent verbatim on every request).
    pub body: String,
}

/// Aggregated results of one bench run.
#[derive(Clone, Debug)]
pub struct BenchReport {
    /// Client threads that ran.
    pub clients: usize,
    /// Total requests attempted (`clients × requests`).
    pub total: usize,
    /// Responses with status 200.
    pub ok: usize,
    /// Non-200 responses plus transport failures.
    pub errors: usize,
    /// Whole-bench wall time in nanoseconds.
    pub wall_ns: u64,
    /// Completed requests per second (ok + non-200, not transport
    /// failures), derived from `wall_ns`.
    pub rps: f64,
    /// Median request latency in nanoseconds.
    pub p50_ns: u64,
    /// 90th-percentile latency in nanoseconds.
    pub p90_ns: u64,
    /// 99th-percentile latency in nanoseconds.
    pub p99_ns: u64,
    /// Worst observed latency in nanoseconds.
    pub max_ns: u64,
    /// Server-side counter deltas over the run, from the `/metrics`
    /// scrape pair. `None` when either scrape failed (e.g. an old
    /// server without the route).
    pub serve: Option<ServeDeltas>,
}

/// What the server counted between the two `/metrics` scrapes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServeDeltas {
    /// `lold_requests_total{route="run"}` growth.
    pub requests_run: u64,
    /// Artifact-cache hits.
    pub cache_hits: u64,
    /// Artifact-cache misses (compiles paid).
    pub cache_misses: u64,
    /// Artifact-cache evictions.
    pub cache_evictions: u64,
    /// Queue-full refusals (HTTP 429).
    pub rejected_429: u64,
    /// Drain refusals (HTTP 503).
    pub rejected_503: u64,
    /// Error responses the server produced (`lold_errors_total`).
    pub server_errors: u64,
}

/// One scrape of the counters [`ServeDeltas`] is computed from.
fn scrape(addr: &str) -> Option<Vec<Sample>> {
    let resp = crate::client::get(addr, "/metrics").ok()?;
    if resp.status != 200 {
        return None;
    }
    parse_exposition(&resp.text()).ok()
}

fn delta(before: &[Sample], after: &[Sample], name: &str, labels: &[(&str, &str)]) -> u64 {
    let b = sample_value(before, name, labels).unwrap_or(0.0);
    let a = sample_value(after, name, labels).unwrap_or(0.0);
    (a - b).max(0.0) as u64
}

impl ServeDeltas {
    fn between(before: &[Sample], after: &[Sample]) -> ServeDeltas {
        ServeDeltas {
            requests_run: delta(before, after, "lold_requests_total", &[("route", "run")]),
            cache_hits: delta(before, after, "lold_cache_hits_total", &[]),
            cache_misses: delta(before, after, "lold_cache_misses_total", &[]),
            cache_evictions: delta(before, after, "lold_cache_evictions_total", &[]),
            rejected_429: delta(before, after, "lold_rejected_total", &[("status", "429")]),
            rejected_503: delta(before, after, "lold_rejected_total", &[("status", "503")]),
            server_errors: delta(before, after, "lold_errors_total", &[]),
        }
    }

    /// Write the `"serve"` object embedded in [`BenchReport::to_json`].
    pub fn write_json(&self, w: &mut Writer) {
        w.begin_obj();
        w.key("requests_run").num(self.requests_run);
        w.key("cache_hits").num(self.cache_hits);
        w.key("cache_misses").num(self.cache_misses);
        w.key("cache_evictions").num(self.cache_evictions);
        w.key("rejected_429").num(self.rejected_429);
        w.key("rejected_503").num(self.rejected_503);
        w.key("server_errors").num(self.server_errors);
        w.end_obj();
    }
}

fn percentile(sorted: &[u64], num: usize, den: usize) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = (sorted.len() - 1) * num / den;
    sorted[idx]
}

impl BenchReport {
    /// The JSON document `serve-bench.json` holds; keys are consumed
    /// by `scripts/check_perf_regression.py --serve`.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let mut w = Writer::new(&mut out);
        w.begin_obj();
        w.key("clients").num(self.clients);
        w.key("total").num(self.total);
        w.key("ok").num(self.ok);
        w.key("errors").num(self.errors);
        w.key("wall_ns").num(self.wall_ns);
        w.key("rps").fixed(self.rps, 2);
        w.key("p50_ns").num(self.p50_ns);
        w.key("p90_ns").num(self.p90_ns);
        w.key("p99_ns").num(self.p99_ns);
        w.key("max_ns").num(self.max_ns);
        if let Some(s) = &self.serve {
            s.write_json(w.key("serve"));
        }
        w.end_obj();
        out
    }

    /// One human line for terminals and CI logs.
    pub fn summary(&self) -> String {
        format!(
            "{} clients × {} reqs: {} ok, {} errors, {:.1} req/s, p50 {:.2}ms p99 {:.2}ms",
            self.clients,
            self.total / self.clients.max(1),
            self.ok,
            self.errors,
            self.rps,
            self.p50_ns as f64 / 1e6,
            self.p99_ns as f64 / 1e6,
        )
    }
}

/// Run the bench. Each client keeps one connection for all its
/// requests; a transport failure mid-stream reconnects once per
/// request so one dropped socket doesn't zero a whole client's column.
pub fn run(spec: &BenchSpec) -> BenchReport {
    let before = scrape(&spec.addr);
    let started = Instant::now();
    let mut per_client: Vec<(Vec<u64>, usize, usize)> = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..spec.clients.max(1))
            .map(|_| {
                scope.spawn(|| {
                    let mut latencies = Vec::with_capacity(spec.requests);
                    let mut ok = 0usize;
                    let mut errors = 0usize;
                    let mut conn = crate::client::Conn::connect(&spec.addr).ok();
                    for _ in 0..spec.requests {
                        if conn.is_none() {
                            conn = crate::client::Conn::connect(&spec.addr).ok();
                        }
                        let Some(c) = conn.as_mut() else {
                            errors += 1;
                            continue;
                        };
                        let t0 = Instant::now();
                        match c.request("POST", &spec.path, spec.body.as_bytes()) {
                            Ok(resp) => {
                                latencies.push(t0.elapsed().as_nanos() as u64);
                                if resp.status == 200 {
                                    ok += 1;
                                } else {
                                    errors += 1;
                                }
                                if resp.header("connection") == Some("close") {
                                    conn = None;
                                }
                            }
                            Err(_) => {
                                errors += 1;
                                conn = None;
                            }
                        }
                    }
                    (latencies, ok, errors)
                })
            })
            .collect();
        for h in handles {
            if let Ok(cell) = h.join() {
                per_client.push(cell);
            }
        }
    });
    let wall_ns = started.elapsed().as_nanos() as u64;
    let serve = match (before, scrape(&spec.addr)) {
        (Some(b), Some(a)) => Some(ServeDeltas::between(&b, &a)),
        _ => None,
    };
    let mut latencies: Vec<u64> = Vec::new();
    let mut ok = 0;
    let mut errors = 0;
    for (lat, o, e) in per_client {
        latencies.extend(lat);
        ok += o;
        errors += e;
    }
    latencies.sort_unstable();
    let completed = latencies.len();
    BenchReport {
        clients: spec.clients.max(1),
        total: spec.clients.max(1) * spec.requests,
        ok,
        errors,
        wall_ns,
        rps: completed as f64 / (wall_ns.max(1) as f64 / 1e9),
        p50_ns: percentile(&latencies, 50, 100),
        p90_ns: percentile(&latencies, 90, 100),
        p99_ns: percentile(&latencies, 99, 100),
        max_ns: latencies.last().copied().unwrap_or(0),
        serve,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_on_known_data() {
        let data: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&data, 50, 100), 50);
        assert_eq!(percentile(&data, 99, 100), 99);
        assert_eq!(percentile(&data, 100, 100), 100);
        assert_eq!(percentile(&[], 50, 100), 0);
    }

    #[test]
    fn report_json_is_parseable() {
        let r = BenchReport {
            clients: 2,
            total: 10,
            ok: 9,
            errors: 1,
            wall_ns: 1_000_000,
            rps: 9000.0,
            p50_ns: 10,
            p90_ns: 20,
            p99_ns: 30,
            max_ns: 40,
            serve: None,
        };
        let json = crate::json::parse(&r.to_json()).unwrap();
        assert_eq!(json.get("ok").unwrap().as_u64(), Some(9));
        assert_eq!(json.get("p99_ns").unwrap().as_u64(), Some(30));
        assert!(json.get("serve").is_none(), "no scrape, no serve object");
        assert!(r.summary().contains("9 ok"));

        let with = BenchReport {
            serve: Some(ServeDeltas { requests_run: 10, server_errors: 0, ..Default::default() }),
            ..r
        };
        let json = crate::json::parse(&with.to_json()).unwrap();
        let serve = json.get("serve").unwrap();
        assert_eq!(serve.get("requests_run").unwrap().as_u64(), Some(10));
        assert_eq!(serve.get("server_errors").unwrap().as_u64(), Some(0));
    }
}
