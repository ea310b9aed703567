//! Request-body → toolchain-config translation for the `lold` routes,
//! plus the structured error envelope every failure path renders.
//!
//! The shape is strict: every field is typed, unknown fields are a
//! `400` (clients discover typos instead of silently running with
//! defaults), and all parse failures carry a registry code from
//! `docs/SERVE.md`.

use std::time::Duration;

use lolcode::service::{error_code, http_status, QuotaViolation};
use lolcode::{
    Backend, BarrierKind, ClockMode, LatencyModel, LockKind, LolError, RunConfig, TraceSpec,
};

use crate::http::HttpError;
use crate::json::{self, Json};

/// A structured service error: status + registry code + message.
/// Renders as `{"ok": false, "code": "SRVxxxx", "error": "..."}`.
#[derive(Clone, Debug)]
pub struct ApiError {
    /// HTTP status to answer with.
    pub status: u16,
    /// Stable `SRVxxxx` registry code.
    pub code: &'static str,
    /// Human-readable (LOLCODE-flavoured) description.
    pub message: String,
}

impl ApiError {
    /// Malformed JSON body (`SRV0110`, 400).
    pub fn bad_json(message: impl Into<String>) -> Self {
        ApiError { status: 400, code: "SRV0110", message: message.into() }
    }

    /// Well-formed JSON, wrong shape: unknown/missing/mistyped field
    /// (`SRV0111`, 400).
    pub fn bad_shape(message: impl Into<String>) -> Self {
        ApiError { status: 400, code: "SRV0111", message: message.into() }
    }

    /// Unknown route (`SRV0112`, 404).
    pub fn not_found(path: &str) -> Self {
        ApiError { status: 404, code: "SRV0112", message: format!("I DUNNO DIS ROUTE: {path}") }
    }

    /// Known route, wrong method (`SRV0113`, 405).
    pub fn method_not_allowed(method: &str, path: &str) -> Self {
        ApiError {
            status: 405,
            code: "SRV0113",
            message: format!("{path} DOEZ NOT SPEAK {method}"),
        }
    }

    /// Admission queue full (`SRV0301`, 429).
    pub fn queue_full() -> Self {
        ApiError {
            status: 429, code: "SRV0301", message: "2 MANY REQUESTS — TRY AGIN SOON".into()
        }
    }

    /// Server is draining for shutdown (`SRV0302`, 503).
    pub fn shutting_down() -> Self {
        ApiError { status: 503, code: "SRV0302", message: "SERVER IZ GOIN 2 SLEEP".into() }
    }

    /// Wrap a toolchain error using the exhaustive core mapping
    /// (`SRV041x`; `Unsupported` → 501, `Skipped` → 409, …).
    pub fn from_lol(err: &LolError) -> Self {
        ApiError { status: http_status(err), code: error_code(err), message: err.to_string() }
    }

    /// Wrap a quota violation (`SRV020x`).
    pub fn from_quota(v: &QuotaViolation) -> Self {
        ApiError { status: v.status(), code: v.code(), message: v.to_string() }
    }

    /// Wrap a transport-level error.
    pub fn from_http(err: &HttpError) -> Self {
        ApiError { status: err.status(), code: err.code(), message: err.to_string() }
    }

    /// The JSON error envelope.
    pub fn body(&self) -> String {
        let mut body = String::new();
        let mut w = json::Writer::new(&mut body);
        w.begin_obj().key("ok").bool(false);
        w.key("code").str(self.code).key("error").str(&self.message);
        w.end_obj();
        body
    }
}

/// A parsed `POST /run` request.
#[derive(Clone, Debug)]
pub struct RunRequest {
    /// The program text.
    pub source: String,
    /// Dialect/option string — part of the artifact-cache identity
    /// (same source under a different dialect is a distinct artifact).
    pub dialect: String,
    /// The launch configuration (before quota admission).
    pub cfg: RunConfig,
    /// Include host timing fields in the response (makes the body
    /// non-deterministic; off by default so `/run` is byte-stable).
    pub timing: bool,
}

/// A parsed `POST /sweep` request: a base run plus the sweep axes.
#[derive(Clone, Debug)]
pub struct SweepRequest {
    /// The base run (source/dialect/config shared by every cell).
    pub run: RunRequest,
    /// The axis spec, `SweepSpec::parse` syntax
    /// (e.g. `"pes=1..8;backend=both"`).
    pub spec: String,
}

/// A parsed `POST /trace` request: a run plus a rendering.
#[derive(Clone, Debug)]
pub struct TraceRequest {
    /// The traced run (tracing is forced on).
    pub run: RunRequest,
    /// Which rendering to return.
    pub format: TraceFormat,
    /// Column width for the Gantt rendering.
    pub width: usize,
}

/// The trace renderings `POST /trace` can return.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceFormat {
    /// Per-PE timeline bars (`Trace::gantt`).
    Gantt,
    /// Flat event log (`Trace::event_log`).
    Events,
    /// PE×PE communication matrix (`CommMatrix::render`).
    Matrix,
    /// SVG timeline (`Trace::to_svg`).
    Svg,
    /// Chrome `trace_event` JSON (`Trace::to_perfetto`) — load the
    /// rendering into Perfetto / `chrome://tracing`.
    Perfetto,
}

impl TraceFormat {
    /// The wire name, as accepted in the `format` field.
    pub fn name(self) -> &'static str {
        match self {
            TraceFormat::Gantt => "gantt",
            TraceFormat::Events => "events",
            TraceFormat::Matrix => "matrix",
            TraceFormat::Svg => "svg",
            TraceFormat::Perfetto => "perfetto",
        }
    }
}

fn want_str(key: &str, value: &Json) -> Result<String, ApiError> {
    value
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| ApiError::bad_shape(format!("{key} WANTS A STRING")))
}

fn want_usize(key: &str, value: &Json) -> Result<usize, ApiError> {
    value.as_usize().ok_or_else(|| ApiError::bad_shape(format!("{key} WANTS A NUMBR")))
}

fn want_u64(key: &str, value: &Json) -> Result<u64, ApiError> {
    value.as_u64().ok_or_else(|| ApiError::bad_shape(format!("{key} WANTS A NUMBR")))
}

fn want_bool(key: &str, value: &Json) -> Result<bool, ApiError> {
    value.as_bool().ok_or_else(|| ApiError::bad_shape(format!("{key} WANTS TROOF (true/false)")))
}

fn want_parsed<T: std::str::FromStr>(key: &str, value: &Json) -> Result<T, ApiError>
where
    T::Err: std::fmt::Display,
{
    let raw = want_str(key, value)?;
    raw.parse::<T>().map_err(|e| ApiError::bad_shape(format!("{key}: {e}")))
}

/// Interpret one `/run`-shaped field into the request under
/// construction; `Ok(false)` means the key is not a run field (so a
/// caller with extra fields, like `/sweep`, can try its own).
fn apply_run_field(req: &mut RunRequest, key: &str, value: &Json) -> Result<bool, ApiError> {
    match key {
        "source" => req.source = want_str(key, value)?,
        "dialect" => req.dialect = want_str(key, value)?,
        "backend" => req.cfg.backend = want_parsed::<Backend>(key, value)?,
        "pes" => req.cfg.n_pes = want_usize(key, value)?,
        "seed" => req.cfg.seed = want_u64(key, value)?,
        "latency" => req.cfg.latency = want_parsed::<LatencyModel>(key, value)?,
        "barrier" => req.cfg.barrier = want_parsed::<BarrierKind>(key, value)?,
        "lock" => req.cfg.lock = want_parsed::<LockKind>(key, value)?,
        "clock" => req.cfg.clock = want_parsed::<ClockMode>(key, value)?,
        "heap_words" => req.cfg.heap_words = want_usize(key, value)?,
        "sim_jobs" => req.cfg.sim_jobs = want_usize(key, value)?,
        "timeout_ms" => req.cfg.timeout = Duration::from_millis(want_u64(key, value)?),
        "timing" => req.timing = want_bool(key, value)?,
        "trace" => {
            let on = want_bool(key, value)?;
            req.cfg.trace = on;
        }
        "trace_spec" => {
            let spec = want_parsed::<TraceSpec>(key, value)?;
            req.cfg = req.cfg.clone().trace_spec(spec);
        }
        "input" => {
            let items = value
                .as_arr()
                .ok_or_else(|| ApiError::bad_shape("input WANTS AN ARRAY OF STRINGS"))?;
            req.cfg.input = items
                .iter()
                .map(|v| {
                    v.as_str()
                        .map(str::to_string)
                        .ok_or_else(|| ApiError::bad_shape("input WANTS AN ARRAY OF STRINGS"))
                })
                .collect::<Result<_, _>>()?;
        }
        _ => return Ok(false),
    }
    Ok(true)
}

fn base_request() -> RunRequest {
    RunRequest {
        source: String::new(),
        dialect: "1.2".to_string(),
        cfg: RunConfig::new(1),
        timing: false,
    }
}

fn finish(req: RunRequest) -> Result<RunRequest, ApiError> {
    if req.source.is_empty() {
        return Err(ApiError::bad_shape("source IZ REQUIRED"));
    }
    Ok(req)
}

/// Parse a `POST /run` body.
pub fn parse_run(body: &Json) -> Result<RunRequest, ApiError> {
    let fields = body.as_obj().ok_or_else(|| ApiError::bad_shape("BODY MUST BE A JSON OBJECT"))?;
    let mut req = base_request();
    for (key, value) in fields {
        if !apply_run_field(&mut req, key, value)? {
            return Err(ApiError::bad_shape(format!("I DUNNO DIS FIELD: {key}")));
        }
    }
    finish(req)
}

/// Parse a `POST /sweep` body: run fields plus a required `spec`.
pub fn parse_sweep(body: &Json) -> Result<SweepRequest, ApiError> {
    let fields = body.as_obj().ok_or_else(|| ApiError::bad_shape("BODY MUST BE A JSON OBJECT"))?;
    let mut req = base_request();
    let mut spec: Option<String> = None;
    for (key, value) in fields {
        if apply_run_field(&mut req, key, value)? {
            continue;
        }
        match key.as_str() {
            "spec" => spec = Some(want_str(key, value)?),
            _ => return Err(ApiError::bad_shape(format!("I DUNNO DIS FIELD: {key}"))),
        }
    }
    let spec = spec.ok_or_else(|| ApiError::bad_shape("spec IZ REQUIRED (e.g. \"pes=1..8\")"))?;
    Ok(SweepRequest { run: finish(req)?, spec })
}

/// Parse a `POST /trace` body: run fields plus `format` and `width`.
pub fn parse_trace(body: &Json) -> Result<TraceRequest, ApiError> {
    let fields = body.as_obj().ok_or_else(|| ApiError::bad_shape("BODY MUST BE A JSON OBJECT"))?;
    let mut req = base_request();
    let mut format = TraceFormat::Gantt;
    let mut width = 80usize;
    for (key, value) in fields {
        if apply_run_field(&mut req, key, value)? {
            continue;
        }
        match key.as_str() {
            "format" => {
                let raw = want_str(key, value)?;
                format = match raw.as_str() {
                    "gantt" => TraceFormat::Gantt,
                    "events" => TraceFormat::Events,
                    "matrix" => TraceFormat::Matrix,
                    "svg" => TraceFormat::Svg,
                    "perfetto" => TraceFormat::Perfetto,
                    other => {
                        return Err(ApiError::bad_shape(format!(
                            "format IZ gantt, events, matrix, svg OR perfetto, NOT {other}"
                        )))
                    }
                };
            }
            "width" => width = want_usize(key, value)?.clamp(20, 1000),
            _ => return Err(ApiError::bad_shape(format!("I DUNNO DIS FIELD: {key}"))),
        }
    }
    let mut req = finish(req)?;
    req.cfg.trace = true;
    Ok(TraceRequest { run: req, format, width })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    #[test]
    fn run_request_full_shape() {
        let body = parse(
            r#"{"source": "HAI 1.2\nKTHXBYE", "backend": "sim", "pes": 64,
                "seed": 7, "latency": "mesh:4", "barrier": "dissem",
                "lock": "ticket", "clock": "virtual", "input": ["a", "b"],
                "heap_words": 4096, "sim_jobs": 2, "timing": true,
                "timeout_ms": 500, "dialect": "1.3"}"#,
        )
        .unwrap();
        let req = parse_run(&body).unwrap();
        assert_eq!(req.cfg.backend, Backend::Sim);
        assert_eq!(req.cfg.n_pes, 64);
        assert_eq!(req.cfg.seed, 7);
        assert_eq!(req.cfg.clock, ClockMode::Virtual);
        assert_eq!(req.cfg.input, vec!["a".to_string(), "b".to_string()]);
        assert_eq!(req.cfg.timeout, Duration::from_millis(500));
        assert_eq!(req.dialect, "1.3");
        assert!(req.timing);
    }

    #[test]
    fn unknown_and_mistyped_fields_are_srv0111() {
        for body in [
            r#"{"source": "HAI", "sauce": 1}"#,
            r#"{"source": 42}"#,
            r#"{"source": "HAI", "pes": "many"}"#,
            r#"{"source": "HAI", "timing": "yes"}"#,
            r#"{"source": "HAI", "input": "not-an-array"}"#,
            r#"{"source": "HAI", "backend": "quantum"}"#,
            r#"[1, 2]"#,
            r#"{}"#,
        ] {
            let e = parse_run(&parse(body).unwrap()).unwrap_err();
            assert_eq!((e.status, e.code), (400, "SRV0111"), "{body}");
        }
    }

    #[test]
    fn sweep_needs_a_spec() {
        let no_spec = parse(r#"{"source": "HAI"}"#).unwrap();
        assert_eq!(parse_sweep(&no_spec).unwrap_err().code, "SRV0111");
        let ok = parse(r#"{"source": "HAI", "spec": "pes=1..4"}"#).unwrap();
        assert_eq!(parse_sweep(&ok).unwrap().spec, "pes=1..4");
    }

    #[test]
    fn trace_formats_parse_and_trace_is_forced() {
        let body = parse(r#"{"source": "HAI", "format": "svg", "width": 5}"#).unwrap();
        let req = parse_trace(&body).unwrap();
        assert_eq!(req.format, TraceFormat::Svg);
        assert_eq!(req.width, 20, "width clamps to a sane floor");
        assert!(req.run.cfg.trace);
        let bad = parse(r#"{"source": "HAI", "format": "interpretive-dance"}"#).unwrap();
        assert_eq!(parse_trace(&bad).unwrap_err().code, "SRV0111");
    }

    #[test]
    fn error_envelope_is_json() {
        let e = ApiError::bad_shape("quote \" and newline \n");
        let body = e.body();
        assert!(crate::json::parse(&body).is_ok(), "envelope must be valid JSON: {body}");
        assert!(body.contains("\"SRV0111\""));
    }
}
