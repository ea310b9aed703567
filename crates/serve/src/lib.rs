//! `lol-serve` — the `lold` playground service.
//!
//! A dependency-free JSON-over-HTTP daemon that exposes the whole
//! toolchain — every backend `engine_for` dispatches to — behind four
//! routes:
//!
//! * `POST /run` — compile (or fetch from the artifact cache) and run
//!   one config; the response body is the same stable JSON
//!   `lolrun --json` prints, byte for byte.
//! * `POST /sweep` — a full [`lolcode::SweepSpec`] product over one
//!   program,
//!   rendered as the sweep report JSON.
//! * `POST /trace` — run with tracing forced on and return a rendering
//!   (Gantt, event log, comm matrix, SVG, or Perfetto/Chrome trace
//!   JSON).
//! * `GET /healthz` — liveness plus the counters the load-test harness
//!   and the cache tests assert on.
//! * `GET /metrics` — the same counters (and more: latency histograms,
//!   per-code error counts, cache and queue gauges) as a Prometheus
//!   text exposition, backed by a `lol-obs` [`metrics::Metrics`]
//!   registry. `/healthz` reads the identical handles, so the two
//!   endpoints cannot drift.
//!
//! Design points:
//!
//! * **std only.** The HTTP server is [`http`]; JSON goes through
//!   the workspace's `lol-json` crate (re-exported as [`json`]). Both
//!   parsers are bounded, total, and fuzzed in `tests/fuzz.rs`.
//! * **Bounded worker pool.** A fixed set of worker threads serves
//!   connections from a capped queue ([`ServeConfig::queue_cap`]);
//!   when the queue is full the accept loop answers `429` with
//!   `Retry-After` instead of accepting unbounded work, and once a
//!   connection is accepted into the queue its requests are never
//!   dropped.
//! * **Anti-starvation.** Every run acquires thread-budget weight via
//!   [`lolcode::config_weight`] — the same weighting the sweep
//!   scheduler uses — so a 64k-PE sim request charges its scheduler's
//!   worker count, not 64k, and wide requests queue instead of
//!   oversubscribing the host.
//! * **Artifact cache.** A content-hash LRU ([`cache::ArtifactCache`])
//!   with single-flight compiles: N concurrent identical requests pay
//!   for exactly one front-end pass.
//! * **Quotas.** [`Quotas`] caps PE count, host wall, virtual wall and
//!   body size per request; violations degrade to structured
//!   `SRV0xxx` error JSON (`docs/SERVE.md` has the registry).
//!
//! ```no_run
//! use lol_serve::{client, Server, ServeConfig};
//!
//! let server = Server::start(ServeConfig::default()).unwrap();
//! let addr = server.addr().to_string();
//! let resp = client::post(
//!     &addr,
//!     "/run",
//!     r#"{"source": "HAI 1.2\nVISIBLE ME\nKTHXBYE", "pes": 4}"#,
//! )
//! .unwrap();
//! assert_eq!(resp.status, 200);
//! server.shutdown();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod api;
pub mod bench;
pub mod cache;
pub mod client;
pub mod http;
pub mod metrics;

pub use lol_json as json;

use std::collections::VecDeque;
use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use lol_obs::{EventLog, Field};
use lolcode::service::{run_report_json, Quotas};
use lolcode::{config_weight, engine_for, SweepSpec};

use api::{ApiError, RunRequest, TraceFormat};
use cache::ArtifactCache;
use http::{read_request, write_response, HttpError, Request};
use metrics::{Metrics, Route};

/// One socket-read slice: how often a pinned worker re-checks the
/// shutdown flag while its connection is idle.
const READ_POLL: Duration = Duration::from_millis(200);

/// Everything tunable about a [`Server`].
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Bind address; port `0` picks a free port (the default,
    /// `127.0.0.1:0`, is what tests want).
    pub addr: String,
    /// Worker threads. A worker is pinned to its connection while the
    /// connection is open, so size this at or above the expected
    /// concurrent client count.
    pub workers: usize,
    /// Accepted-but-unclaimed connection cap; beyond it the accept
    /// loop answers `429`.
    pub queue_cap: usize,
    /// Artifact-cache capacity, in compiled programs.
    pub cache_capacity: usize,
    /// Per-request quotas.
    pub quotas: Quotas,
    /// Global thread budget for run admission (`0` = available
    /// cores). Shares semantics with [`SweepSpec::threads`].
    pub thread_budget: usize,
    /// Per-read socket timeout: an idle or wedged connection releases
    /// its worker after this long.
    pub read_timeout: Duration,
    /// Opt-in JSONL access log: one line per handled request
    /// (timestamp, method, path, status, latency, body size). `None`
    /// (the default) writes nothing and costs nothing.
    pub access_log: Option<String>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 8,
            queue_cap: 32,
            cache_capacity: 32,
            quotas: Quotas::default(),
            thread_budget: 0,
            read_timeout: Duration::from_secs(30),
            access_log: None,
        }
    }
}

struct Shared {
    config: ServeConfig,
    addr: SocketAddr,
    cache: ArtifactCache,
    metrics: Metrics,
    access: Option<EventLog>,
    queue: Mutex<VecDeque<TcpStream>>,
    queue_cv: Condvar,
    shutdown: AtomicBool,
    budget: usize,
    weight: Mutex<usize>,
    weight_cv: Condvar,
    /// Runs once in a worker between its shutdown check and its wait.
    #[cfg(test)]
    before_wait: Mutex<Option<tests::Hook>>,
}

/// Releases its thread-budget weight on drop.
struct BudgetGuard<'a> {
    shared: &'a Shared,
    weight: usize,
}

impl Drop for BudgetGuard<'_> {
    fn drop(&mut self) {
        let mut used = self.shared.weight.lock().unwrap();
        *used -= self.weight;
        drop(used);
        self.shared.weight_cv.notify_all();
    }
}

impl Shared {
    /// Block until `weight` threads fit inside the budget. The weight
    /// comes from [`config_weight`], which caps at the budget, so a
    /// single over-wide request still runs — alone.
    fn acquire_weight(&self, weight: usize) -> BudgetGuard<'_> {
        let mut used = self.shared_weight_wait(weight);
        *used += weight;
        drop(used);
        BudgetGuard { shared: self, weight }
    }

    fn shared_weight_wait(&self, weight: usize) -> std::sync::MutexGuard<'_, usize> {
        let mut used = self.weight.lock().unwrap();
        while *used + weight > self.budget {
            used = self.weight_cv.wait(used).unwrap();
        }
        used
    }
}

/// A running `lold` server: accept loop + worker pool on background
/// threads. Drop does *not* stop it — call [`Server::shutdown`] (or
/// `POST /shutdown` and [`Server::wait`]).
pub struct Server {
    shared: Arc<Shared>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Bind and start serving. Returns once the socket is listening.
    pub fn start(config: ServeConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let budget = if config.thread_budget > 0 {
            config.thread_budget
        } else {
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
        };
        let access = match &config.access_log {
            Some(path) => Some(EventLog::create(std::path::Path::new(path))?),
            None => None,
        };
        let shared = Arc::new(Shared {
            cache: ArtifactCache::new(config.cache_capacity),
            addr,
            metrics: Metrics::new(config.workers, budget),
            access,
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            budget,
            weight: Mutex::new(0),
            weight_cv: Condvar::new(),
            config,
            #[cfg(test)]
            before_wait: Mutex::new(None),
        });
        let mut threads = Vec::new();
        for worker in 0..shared.config.workers.max(1) {
            let shared = shared.clone();
            threads.push(
                std::thread::Builder::new()
                    .name(format!("lold-worker-{worker}"))
                    .spawn(move || worker_loop(&shared))?,
            );
        }
        {
            let shared = shared.clone();
            threads.push(
                std::thread::Builder::new()
                    .name("lold-accept".to_string())
                    .spawn(move || accept_loop(&listener, &shared))?,
            );
        }
        Ok(Server { shared, threads })
    }

    /// The bound address (real port, even when configured as `:0`).
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Has a shutdown been requested (flag set, draining)?
    pub fn draining(&self) -> bool {
        self.shared.shutdown.load(Ordering::SeqCst)
    }

    /// Block until the server shuts down (via [`Server::shutdown`]
    /// from another thread or `POST /shutdown` from a client) and all
    /// in-flight requests drain.
    pub fn wait(self) {
        for t in self.threads {
            let _ = t.join();
        }
    }

    /// Request shutdown and block until every accepted request has
    /// been answered.
    pub fn shutdown(self) {
        trigger_shutdown(&self.shared);
        self.wait()
    }
}

/// Flip the shutdown flag, wake the workers, and poke the accept loop
/// (which is blocked in `accept`) with a throwaway connection.
///
/// The flag is stored under the queue lock: a worker checks it and
/// then waits under that lock, so the store lands either before the
/// check or after the wait has begun, and the wake-up is never lost.
fn trigger_shutdown(shared: &Shared) {
    {
        let _queue = shared.queue.lock().unwrap();
        shared.shutdown.store(true, Ordering::SeqCst);
    }
    shared.queue_cv.notify_all();
    let _ = TcpStream::connect_timeout(&shared.addr, Duration::from_secs(1));
}

fn accept_loop(listener: &TcpListener, shared: &Shared) {
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok((mut stream, _)) = listener.accept() else {
            continue;
        };
        configure_accepted(&stream);
        if shared.shutdown.load(Ordering::SeqCst) {
            // Accepted during drain (possibly the shutdown poke
            // itself): refuse politely, don't enqueue.
            shared.metrics.rejected_503.inc();
            let e = ApiError::shutting_down();
            shared.metrics.error_code(e.code);
            let _ = write_response(
                &mut stream,
                e.status,
                "application/json",
                &e.body(),
                &[("Retry-After", "1".to_string())],
                true,
            );
            break;
        }
        let mut queue = shared.queue.lock().unwrap();
        if queue.len() >= shared.config.queue_cap {
            drop(queue);
            // Backpressure: the queue is full, so this connection was
            // never admitted — tell the client when to come back.
            shared.metrics.rejected_429.inc();
            let e = ApiError::queue_full();
            shared.metrics.error_code(e.code);
            let _ = write_response(
                &mut stream,
                e.status,
                "application/json",
                &e.body(),
                &[("Retry-After", "1".to_string())],
                true,
            );
            continue;
        }
        queue.push_back(stream);
        drop(queue);
        shared.queue_cv.notify_one();
    }
}

/// Socket setup for an accepted connection. Each reply leaves in one
/// write, so Nagle's algorithm could only hold it back (waiting on the
/// client's delayed ACK). Short read slices let a worker pinned on an
/// idle keep-alive connection re-check the shutdown flag a few times a
/// second (the full idle allowance is `ServeConfig::read_timeout`,
/// enforced in `serve_connection`).
fn configure_accepted(stream: &TcpStream) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(READ_POLL));
}

fn worker_loop(shared: &Shared) {
    loop {
        let stream = {
            let mut queue = shared.queue.lock().unwrap();
            loop {
                if let Some(s) = queue.pop_front() {
                    break s;
                }
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                #[cfg(test)]
                tests::before_wait(shared);
                queue = shared.queue_cv.wait(queue).unwrap();
            }
        };
        serve_connection(shared, stream);
    }
}

/// Serve every request on one connection. An accepted connection's
/// requests are always answered — during a drain the current request
/// completes and the response carries `Connection: close`.
fn serve_connection(shared: &Shared, stream: TcpStream) {
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let mut write_half = write_half;
    let mut reader = BufReader::new(stream);
    let mut idle_since = std::time::Instant::now();
    loop {
        let max_body = shared.config.quotas.max_body_bytes;
        let request = match read_request(&mut reader, max_body) {
            Ok(Some(req)) => req,
            Ok(None) | Err(HttpError::Closed) => return,
            Err(HttpError::Idle) => {
                // Nothing arrived within one read slice: drop the
                // connection if we're draining or the client has been
                // quiet past the idle allowance; otherwise keep
                // listening.
                if shared.shutdown.load(Ordering::SeqCst)
                    || idle_since.elapsed() >= shared.config.read_timeout
                {
                    return;
                }
                continue;
            }
            Err(err) => {
                shared.metrics.errors.inc();
                let e = ApiError::from_http(&err);
                shared.metrics.error_code(e.code);
                let close = !err.reusable() || shared.shutdown.load(Ordering::SeqCst);
                let _ = write_response(
                    &mut write_half,
                    e.status,
                    "application/json",
                    &e.body(),
                    &[],
                    close,
                );
                if close {
                    return;
                }
                continue;
            }
        };
        let client_close = request.wants_close();
        shared.metrics.busy_workers.inc();
        let t0 = Instant::now();
        let reply = handle(shared, &request);
        let dur = t0.elapsed();
        shared.metrics.busy_workers.dec();
        if reply.status >= 400 {
            shared.metrics.errors.inc();
        }
        if let Some(log) = &shared.access {
            let _ = log.log(&[
                ("method", Field::Str(&request.method)),
                ("path", Field::Str(&request.path)),
                ("status", Field::U64(reply.status as u64)),
                ("dur_us", Field::U64(dur.as_micros() as u64)),
                ("body_bytes", Field::U64(reply.body.len() as u64)),
            ]);
        }
        let draining = shared.shutdown.load(Ordering::SeqCst);
        let close = client_close || draining;
        let extra: Vec<(&str, String)> =
            if reply.retry_after { vec![("Retry-After", "1".to_string())] } else { Vec::new() };
        if write_response(
            &mut write_half,
            reply.status,
            reply.content_type,
            &reply.body,
            &extra,
            close,
        )
        .is_err()
            || close
        {
            return;
        }
        idle_since = std::time::Instant::now();
    }
}

/// One routed response, ready to write.
struct Reply {
    status: u16,
    body: String,
    retry_after: bool,
    content_type: &'static str,
}

impl Reply {
    fn json(status: u16, body: String) -> Reply {
        Reply { status, body, retry_after: false, content_type: "application/json" }
    }

    fn from_api(e: &ApiError) -> Reply {
        Reply::json(e.status, e.body())
    }
}

/// Route one request.
fn handle(shared: &Shared, req: &Request) -> Reply {
    let m = &shared.metrics;
    // The three POST routes get a latency histogram; the two GETs are
    // counted but not bucketed.
    let timed = |route: Route, run: &dyn Fn() -> Result<String, ApiError>| {
        m.requests(route).inc();
        let t0 = Instant::now();
        let result = run();
        m.observe_latency(route, t0.elapsed());
        match result {
            Ok(body) => Reply::json(200, body),
            Err(e) => {
                m.error_code(e.code);
                Reply::from_api(&e)
            }
        }
    };
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => {
            m.requests(Route::Healthz).inc();
            Reply::json(200, healthz_body(shared))
        }
        ("GET", "/metrics") => {
            m.requests(Route::Metrics).inc();
            Reply {
                status: 200,
                body: metrics_body(shared),
                retry_after: false,
                content_type: "text/plain; version=0.0.4",
            }
        }
        ("POST", "/run") => timed(Route::Run, &|| handle_run(shared, &req.body)),
        ("POST", "/sweep") => timed(Route::Sweep, &|| handle_sweep(shared, &req.body)),
        ("POST", "/trace") => timed(Route::Trace, &|| handle_trace(shared, &req.body)),
        ("POST", "/shutdown") => {
            trigger_shutdown(shared);
            let mut body = String::new();
            let mut w = json::Writer::new(&mut body);
            w.begin_obj().key("ok").bool(true).key("draining").bool(true).end_obj();
            Reply::json(200, body)
        }
        (_, "/healthz" | "/metrics" | "/run" | "/sweep" | "/trace" | "/shutdown") => {
            let e = ApiError::method_not_allowed(&req.method, &req.path);
            m.error_code(e.code);
            Reply::from_api(&e)
        }
        (_, path) => {
            let e = ApiError::not_found(path);
            m.error_code(e.code);
            Reply::from_api(&e)
        }
    }
}

fn parse_body(body: &[u8]) -> Result<json::Json, ApiError> {
    let text = std::str::from_utf8(body).map_err(|_| ApiError::bad_json("BODY IZ NOT UTF-8"))?;
    json::parse(text).map_err(|e| ApiError::bad_json(format!("{e}")))
}

/// Compile-or-fetch plus quota admission — the shared front half of
/// `/run` and `/trace`.
fn admit(
    shared: &Shared,
    req: &RunRequest,
) -> Result<(std::sync::Arc<lolcode::Compiled>, lolcode::RunConfig), ApiError> {
    let cfg = shared.config.quotas.admit(&req.cfg).map_err(|v| ApiError::from_quota(&v))?;
    let artifact =
        shared.cache.get(&req.source, &req.dialect).map_err(|e| ApiError::from_lol(&e))?;
    Ok((artifact, cfg))
}

fn handle_run(shared: &Shared, body: &[u8]) -> Result<String, ApiError> {
    let req = api::parse_run(&parse_body(body)?)?;
    let (artifact, cfg) = admit(shared, &req)?;
    let report = {
        let _guard = shared.acquire_weight(config_weight(&cfg, shared.budget));
        engine_for(cfg.backend).run(&artifact, &cfg).map_err(|e| ApiError::from_lol(&e))?
    };
    shared.config.quotas.check_report(&report).map_err(|v| ApiError::from_quota(&v))?;
    Ok(run_report_json(&report, req.timing))
}

fn handle_sweep(shared: &Shared, body: &[u8]) -> Result<String, ApiError> {
    let req = api::parse_sweep(&parse_body(body)?)?;
    let base = shared.config.quotas.admit(&req.run.cfg).map_err(|v| ApiError::from_quota(&v))?;
    let mut spec = SweepSpec::parse(&req.spec, base).map_err(ApiError::bad_shape)?;
    let configs = spec.configs();
    shared.config.quotas.admit_many(&configs).map_err(|v| ApiError::from_quota(&v))?;
    // The sweep's internal thread budget nests inside the server's:
    // never wider than ours, narrower if the spec asked for less.
    let sweep_budget = match spec.threads_requested() {
        0 => shared.budget,
        n => n.min(shared.budget),
    };
    spec = spec.threads(sweep_budget);
    let artifact =
        shared.cache.get(&req.run.source, &req.run.dialect).map_err(|e| ApiError::from_lol(&e))?;
    // Charge the widest single cell — the sweep scheduler keeps its
    // own cells inside the same budget from there.
    let weight = configs.iter().map(|c| config_weight(c, shared.budget)).max().unwrap_or(1);
    let report = {
        let _guard = shared.acquire_weight(weight);
        spec.run(&artifact)
    };
    Ok(if req.run.timing { report.to_json() } else { report.to_json_stable() })
}

fn handle_trace(shared: &Shared, body: &[u8]) -> Result<String, ApiError> {
    let req = api::parse_trace(&parse_body(body)?)?;
    let (artifact, cfg) = admit(shared, &req.run)?;
    let report = {
        let _guard = shared.acquire_weight(config_weight(&cfg, shared.budget));
        engine_for(cfg.backend).run(&artifact, &cfg).map_err(|e| ApiError::from_lol(&e))?
    };
    shared.config.quotas.check_report(&report).map_err(|v| ApiError::from_quota(&v))?;
    let trace = report.trace.as_ref().ok_or_else(|| ApiError {
        status: 500,
        code: "SRV0500",
        message: "TRACE WENT MISSIN".to_string(),
    })?;
    let rendered = match req.format {
        TraceFormat::Gantt => trace.gantt(req.width),
        TraceFormat::Events => trace.event_log(),
        TraceFormat::Matrix => trace.comm_matrix().render(),
        TraceFormat::Svg => trace.to_svg(),
        TraceFormat::Perfetto => trace.to_perfetto(),
    };
    let mut body = String::with_capacity(rendered.len() + 64);
    let mut w = json::Writer::new(&mut body);
    w.begin_obj().key("ok").bool(true);
    w.key("format").str(req.format.name());
    w.key("pes").num(report.n_pes());
    w.key("render").str(&rendered);
    w.end_obj();
    Ok(body)
}

fn healthz_body(shared: &Shared) -> String {
    let m = &shared.metrics;
    let cache = shared.cache.stats();
    let queue_depth = shared.queue.lock().unwrap().len();
    let mut body = String::new();
    let mut w = json::Writer::new(&mut body);
    w.begin_obj().key("ok").bool(true);
    w.key("workers").num(shared.config.workers);
    w.key("queue_cap").num(shared.config.queue_cap);
    w.key("queue_depth").num(queue_depth);
    w.key("thread_budget").num(shared.budget);
    w.key("requests").begin_obj();
    w.key("run").num(m.requests(Route::Run).get());
    w.key("sweep").num(m.requests(Route::Sweep).get());
    w.key("trace").num(m.requests(Route::Trace).get());
    w.key("healthz").num(m.requests(Route::Healthz).get());
    w.key("rejected_429").num(m.rejected_429.get());
    w.key("rejected_503").num(m.rejected_503.get());
    w.key("errors").num(m.errors.get());
    w.end_obj();
    w.key("cache").begin_obj();
    w.key("capacity").num(cache.capacity);
    w.key("len").num(cache.len);
    w.key("hits").num(cache.hits);
    w.key("misses").num(cache.misses);
    w.key("evictions").num(cache.evictions);
    w.end_obj();
    w.end_obj();
    body
}

/// The Prometheus exposition behind `GET /metrics`: mirror the
/// externally-owned numbers (cache, queue) into the registry, then
/// render it.
fn metrics_body(shared: &Shared) -> String {
    let queue_depth = shared.queue.lock().unwrap().len();
    shared.metrics.mirror(&shared.cache.stats(), queue_depth);
    shared.metrics.registry.render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lolcode::corpus;
    use std::sync::mpsc;

    /// See [`Shared::before_wait`].
    pub(super) type Hook = Box<dyn FnOnce(&Shared) + Send>;

    /// Run (and clear) the server's hook, if one is set.
    pub(super) fn before_wait(shared: &Shared) {
        let hook = shared.before_wait.lock().unwrap().take();
        if let Some(hook) = hook {
            hook(shared);
        }
    }

    /// A worker that has checked the shutdown flag but not yet begun
    /// to wait still wakes for the shutdown. The hook holds that
    /// window open until the flag is set (or 500 ms pass, which is
    /// what happens when setting it has to wait for the worker), so a
    /// flag stored and a wake-up sent without the queue lock land
    /// inside the window and the worker then sleeps forever.
    #[test]
    fn shutdown_wakes_a_worker_caught_between_its_check_and_its_wait() {
        let server = Server::start(ServeConfig { workers: 1, ..ServeConfig::default() }).unwrap();
        let (in_window_tx, in_window) = mpsc::channel();
        {
            // Under the queue lock the worker is either waiting, and the
            // notify sends it round its loop again, or not yet in it:
            // either way its next pass runs the hook.
            let _queue = server.shared.queue.lock().unwrap();
            *server.shared.before_wait.lock().unwrap() = Some(Box::new(move |shared: &Shared| {
                in_window_tx.send(()).unwrap();
                let t0 = Instant::now();
                while !shared.shutdown.load(Ordering::SeqCst)
                    && t0.elapsed() < Duration::from_millis(500)
                {
                    std::thread::sleep(Duration::from_millis(1));
                }
            }));
            server.shared.queue_cv.notify_all();
        }
        in_window.recv_timeout(Duration::from_secs(10)).expect("the worker reaches its wait");
        let (done_tx, done) = mpsc::channel();
        std::thread::spawn(move || {
            server.shutdown();
            done_tx.send(()).unwrap();
        });
        done.recv_timeout(Duration::from_secs(10))
            .expect("shutdown hangs: the worker missed its wake-up");
    }

    #[test]
    fn accepted_connections_disable_nagle() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let _client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (accepted, _) = listener.accept().unwrap();
        configure_accepted(&accepted);
        assert!(accepted.nodelay().unwrap());
        assert_eq!(accepted.read_timeout().unwrap(), Some(READ_POLL));
    }

    fn test_server() -> Server {
        Server::start(ServeConfig { workers: 4, ..ServeConfig::default() }).unwrap()
    }

    fn run_body(source: &str) -> String {
        format!("{{\"source\": \"{}\", \"pes\": 2}}", json::escape(source))
    }

    #[test]
    fn run_healthz_shutdown_roundtrip() {
        let server = test_server();
        let addr = server.addr().to_string();
        let resp = client::post(&addr, "/run", &run_body(corpus::HELLO_PARALLEL)).unwrap();
        assert_eq!(resp.status, 200, "{}", resp.text());
        let body = resp.text();
        assert!(body.contains("\"ok\": true"), "{body}");
        assert!(body.contains("\"pes\": 2"), "{body}");

        let health = client::get(&addr, "/healthz").unwrap();
        assert_eq!(health.status, 200);
        let health_json = json::parse(&health.text()).unwrap();
        let requests = health_json.get("requests").unwrap();
        assert_eq!(requests.get("run").unwrap().as_u64(), Some(1));

        let bye = client::post(&addr, "/shutdown", "").unwrap();
        assert_eq!(bye.status, 200);
        server.wait();
    }

    #[test]
    fn unknown_route_and_method_are_structured() {
        let server = test_server();
        let addr = server.addr().to_string();
        let resp = client::post(&addr, "/nope", "{}").unwrap();
        assert_eq!(resp.status, 404);
        assert!(resp.text().contains("SRV0112"));
        let resp = client::get(&addr, "/run").unwrap();
        assert_eq!(resp.status, 405);
        assert!(resp.text().contains("SRV0113"));
        server.shutdown();
    }

    #[test]
    fn keep_alive_survives_a_client_error() {
        let server = test_server();
        let addr = server.addr().to_string();
        let mut conn = client::Conn::connect(&addr).unwrap();
        let bad = conn.request("POST", "/run", b"{\"source\": 42}").unwrap();
        assert_eq!(bad.status, 400);
        assert!(bad.text().contains("SRV0111"));
        let good =
            conn.request("POST", "/run", run_body(corpus::HELLO_PARALLEL).as_bytes()).unwrap();
        assert_eq!(good.status, 200);
        server.shutdown();
    }
}
