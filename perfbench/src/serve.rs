//! `lold` over HTTP: the daemon as a child process, a keep-alive
//! client, the closed- and open-loop load phases and the `/metrics`
//! scrapes that attribute their latency.
//!
//! The client here does not use `lol_serve::client::Conn`: that client
//! writes the head and the body of a request as two segments on a
//! socket without `TCP_NODELAY`, so Nagle's algorithm and the peer's
//! delayed ACK add about 40 ms to every request, and a load test built
//! on it measures that stall rather than `lold`. This one sends each
//! request with a single write on a `TCP_NODELAY` socket.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use lol_obs::{parse_exposition, Sample};

use crate::spans::{Ctx, Spans};
use crate::util::fnv64;
use crate::workload::{Mix, Request};

/// A running `lold` child process. Dropping it stops the process and
/// waits for it.
pub struct Lold {
    child: Child,
    pub addr: String,
}

impl Lold {
    /// Start `lold` with its default configuration and wait for its
    /// readiness line.
    pub fn start(bin: &str) -> Result<Lold, String> {
        let mut child = Command::new(bin)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {bin}: {e}"))?;
        let stdout = child.stdout.take().expect("piped stdout");
        let mut line = String::new();
        let read = BufReader::new(stdout).read_line(&mut line);
        let addr = line.trim().strip_prefix("lold listening on http://").map(str::to_string);
        match (read, addr) {
            (Ok(_), Some(addr)) => Ok(Lold { child, addr }),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!("lold did not report ready (read {line:?})"))
            }
        }
    }

    /// Ask for a graceful drain and wait for the exit; kill after 10 s.
    pub fn stop(mut self) -> Result<(), String> {
        let asked = Conn::connect(&self.addr).and_then(|mut c| c.request("POST", "/shutdown", ""));
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if let Ok(Some(status)) = self.child.try_wait() {
                return match (asked, status.success()) {
                    (Ok(_), true) => Ok(()),
                    (asked, _) => {
                        Err(format!("lold stopped badly: {status}, shutdown {:?}", asked.err()))
                    }
                };
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        Err("lold did not drain within 10 s".to_string())
    }
}

impl Drop for Lold {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// One keep-alive HTTP/1.1 connection.
pub struct Conn {
    reader: BufReader<TcpStream>,
    host: String,
    buf: Vec<u8>,
}

/// A response: status and body.
pub struct Response {
    pub status: u16,
    pub body: Vec<u8>,
}

impl Conn {
    pub fn connect(addr: &str) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        stream.set_write_timeout(Some(Duration::from_secs(60)))?;
        Ok(Conn {
            reader: BufReader::with_capacity(64 * 1024, stream),
            host: addr.to_string(),
            buf: Vec::new(),
        })
    }

    /// Send one request in a single write and read its response.
    pub fn request(&mut self, method: &str, path: &str, body: &str) -> std::io::Result<Response> {
        self.buf.clear();
        write!(self.buf, "{method} {path} HTTP/1.1\r\nHost: {}\r\n", self.host)?;
        if method == "POST" {
            write!(self.buf, "Content-Length: {}\r\n", body.len())?;
        }
        self.buf.extend_from_slice(b"\r\n");
        self.buf.extend_from_slice(body.as_bytes());
        self.reader.get_mut().write_all(&self.buf)?;
        self.read_response()
    }

    fn read_response(&mut self) -> std::io::Result<Response> {
        let bad = |m: String| std::io::Error::new(std::io::ErrorKind::InvalidData, m);
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "connection closed",
            ));
        }
        let status: u16 = line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad(format!("bad status line {line:?}")))?;
        let mut length = 0usize;
        loop {
            line.clear();
            self.reader.read_line(&mut line)?;
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    length =
                        value.trim().parse().map_err(|_| bad(format!("bad length {value:?}")))?;
                }
            }
        }
        let mut body = vec![0u8; length];
        self.reader.read_exact(&mut body)?;
        Ok(Response { status, body })
    }
}

/// Scrape and parse `GET /metrics` on a short-lived connection.
pub fn scrape(addr: &str) -> Result<Vec<Sample>, String> {
    let resp = Conn::connect(addr)
        .and_then(|mut c| c.request("GET", "/metrics", ""))
        .map_err(|e| format!("scrape: {e}"))?;
    if resp.status != 200 {
        return Err(format!("scrape: status {}", resp.status));
    }
    parse_exposition(&String::from_utf8_lossy(&resp.body))
}

/// The change of one sample between two scrapes (absent counts as 0).
pub fn delta(before: &[Sample], after: &[Sample], name: &str, labels: &[(&str, &str)]) -> f64 {
    let get = |s: &[Sample]| lol_obs::sample_value(s, name, labels).unwrap_or(0.0);
    get(after) - get(before)
}

/// The `q` quantile of the observations a Prometheus histogram gained
/// between two scrapes over `routes`, interpolated linearly inside its
/// bucket (the way Prometheus' `histogram_quantile` does).
pub fn histogram_quantile(
    before: &[Sample],
    after: &[Sample],
    name: &str,
    routes: &[&str],
    q: f64,
) -> f64 {
    let bucket = format!("{name}_bucket");
    let mut cum: Vec<(f64, f64)> = Vec::new();
    for s in after.iter().filter(|s| s.name == bucket) {
        let Some(route) = routes.iter().find(|r| s.has_labels(&[("route", r)])) else {
            continue;
        };
        let Some((_, le)) = s.labels.iter().find(|(k, _)| k == "le") else {
            continue;
        };
        let bound = if le == "+Inf" { f64::INFINITY } else { le.parse().unwrap_or(f64::NAN) };
        let gained = s.value
            - lol_obs::sample_value(before, &bucket, &[("route", route), ("le", le)])
                .unwrap_or(0.0);
        match cum.iter_mut().find(|(b, _)| *b == bound) {
            Some(entry) => entry.1 += gained,
            None => cum.push((bound, gained)),
        }
    }
    cum.sort_by(|a, b| a.0.total_cmp(&b.0));
    let total = cum.last().map_or(0.0, |b| b.1);
    if total <= 0.0 {
        return 0.0;
    }
    let rank = q * total;
    let (mut lo, mut below) = (0.0, 0.0);
    for (bound, c) in cum {
        if c >= rank {
            if !bound.is_finite() {
                return lo;
            }
            let inside = c - below;
            return if inside > 0.0 { lo + (bound - lo) * (rank - below) / inside } else { bound };
        }
        lo = bound;
        below = c;
    }
    lo
}

/// Every response of a phase, kept for the post-phase check: the first
/// body per distinct request in full, later ones as fingerprints that
/// must equal the first.
#[derive(Default)]
pub struct Served {
    pub first: std::collections::HashMap<Request, Vec<u8>>,
    pub repeats: Vec<(Request, u64)>,
    pub bad_status: Vec<(Request, u16, String)>,
    pub io_errors: Vec<String>,
}

impl Served {
    /// File one response; hashes outside the lock.
    fn keep(served: &Mutex<Served>, req: Request, resp: Response) {
        let hash = (resp.status == 200).then(|| fnv64(&resp.body));
        let mut this = served.lock().expect("served poisoned");
        match hash {
            None => {
                let text = String::from_utf8_lossy(&resp.body).into_owned();
                this.bad_status.push((req, resp.status, text));
            }
            Some(h) if this.first.contains_key(&req) => this.repeats.push((req, h)),
            Some(_) => {
                this.first.insert(req, resp.body);
            }
        }
    }
}

/// What one load phase measured.
#[derive(Default)]
pub struct Phase {
    pub sent: u64,
    /// Client latency per request, ms: from send for the closed loop,
    /// from when the request was due for the open loop.
    pub latency_ms: Vec<f64>,
    /// Send to response, µs (both loops).
    pub service_us: Vec<f64>,
    /// How late each open-loop request was sent, ms.
    pub late_ms: Vec<f64>,
    pub elapsed: Duration,
    pub bodies: Vec<String>,
}

impl Phase {
    /// Fold a later stretch of the same loop into this one.
    pub fn absorb(&mut self, other: Phase) {
        self.sent += other.sent;
        self.latency_ms.extend(other.latency_ms);
        self.service_us.extend(other.service_us);
        self.late_ms.extend(other.late_ms);
        self.elapsed += other.elapsed;
        self.bodies.extend(other.bodies);
    }
}

const CONNECTIONS: usize = 2;

/// Closed loop: `CONNECTIONS` clients, each sending its next request
/// as soon as the previous answer arrives, until `span` has passed.
pub fn closed_loop(
    addr: &str,
    mix: &Mix,
    span: Duration,
    spans: &Spans,
    ctx: Ctx,
    served: &Mutex<Served>,
) -> Phase {
    run_phase(addr, mix, spans, ctx, served, |_| None, span, u64::MAX)
}

/// Open loop: `rate` requests per second for `span`, on a fixed
/// schedule whatever the answers do; latency counts from when each
/// request was due, so a stall shows on every request it delays.
pub fn open_loop(
    addr: &str,
    mix: &Mix,
    rate: f64,
    span: Duration,
    spans: &Spans,
    ctx: Ctx,
    served: &Mutex<Served>,
) -> Phase {
    let n = (rate * span.as_secs_f64()).floor().max(1.0) as u64;
    let gap = Duration::from_secs_f64(1.0 / rate);
    run_phase(addr, mix, spans, ctx, served, move |i| Some(gap * i as u32), span * 4, n)
}

#[allow(clippy::too_many_arguments)]
fn run_phase(
    addr: &str,
    mix: &Mix,
    spans: &Spans,
    ctx: Ctx,
    served: &Mutex<Served>,
    due: impl Fn(u64) -> Option<Duration> + Sync,
    limit: Duration,
    count: u64,
) -> Phase {
    let next = AtomicU64::new(0);
    let start = Instant::now();
    let phase = Mutex::new(Phase::default());
    std::thread::scope(|s| {
        for _ in 0..CONNECTIONS {
            s.spawn(|| {
                let mut conn = match Conn::connect(addr) {
                    Ok(c) => c,
                    Err(e) => {
                        served
                            .lock()
                            .expect("served poisoned")
                            .io_errors
                            .push(format!("connect: {e}"));
                        return;
                    }
                };
                let mut mine = Phase::default();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= count || start.elapsed() >= limit {
                        break;
                    }
                    let due_at = due(i).map(|d| start + d);
                    if let Some(at) = due_at {
                        let now = Instant::now();
                        if at > now {
                            std::thread::sleep(at - now);
                        }
                    }
                    let req = mix.next();
                    let sent = Instant::now();
                    let resp = conn.request("POST", req.path, &req.body);
                    let done = Instant::now();
                    spans.record(ctx, "serve.request", sent, done);
                    mine.sent += 1;
                    let from = due_at.unwrap_or(sent);
                    mine.latency_ms.push((done - from).as_secs_f64() * 1e3);
                    mine.service_us.push((done - sent).as_secs_f64() * 1e6);
                    if let Some(at) = due_at {
                        mine.late_ms.push(sent.saturating_duration_since(at).as_secs_f64() * 1e3);
                    }
                    mine.elapsed = mine.elapsed.max(done - start);
                    if mine.bodies.len() < 64 {
                        mine.bodies.push(req.body.clone());
                    }
                    match resp {
                        Ok(r) => Served::keep(served, req, r),
                        Err(e) => {
                            served
                                .lock()
                                .expect("served poisoned")
                                .io_errors
                                .push(format!("{}: {e}", req.path));
                            break;
                        }
                    }
                }
                let mut p = phase.lock().expect("phase poisoned");
                p.sent += mine.sent;
                p.latency_ms.extend(mine.latency_ms);
                p.service_us.extend(mine.service_us);
                p.late_ms.extend(mine.late_ms);
                p.elapsed = p.elapsed.max(mine.elapsed);
                p.bodies.extend(mine.bodies);
            });
        }
    });
    phase.into_inner().expect("phase poisoned")
}
