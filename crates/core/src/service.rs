//! Service-layer plumbing shared by the `lold` playground daemon
//! (`crates/serve`) and the CLI: per-request [`Quotas`], the stable
//! single-run report JSON ([`run_report_json`]), and the exhaustive
//! [`LolError`] → HTTP status mapping ([`http_status`]).
//!
//! This lives in `lolcode` rather than `lol-serve` so that the quota
//! hooks and the response serialization are part of the execution
//! core's contract: `lolrun --json` and `POST /run` render the same
//! bytes for the same run, and adding a [`LolError`] variant without
//! deciding its service mapping is a **compile error** (the matches
//! below have no wildcard arm).

use crate::sweep;
use crate::{Backend, LolError, RunConfig, RunReport};
use lol_json::Writer;
use std::time::Duration;

// ---------------------------------------------------------------------
// Quotas
// ---------------------------------------------------------------------

/// Per-request resource quotas for a long-running service.
///
/// A playground daemon runs untrusted programs from many concurrent
/// clients; quotas bound what any single request may cost. Violations
/// degrade to structured errors ([`QuotaViolation`], rendered as
/// `SRV02xx` JSON by the service) — they never kill a worker.
///
/// ```
/// use lolcode::{service::Quotas, RunConfig};
///
/// let q = Quotas::default();
/// assert!(q.admit(&RunConfig::new(4)).is_ok());
/// assert!(q.admit(&RunConfig::new(q.max_pes + 1)).is_err());
/// ```
#[derive(Clone, Debug)]
pub struct Quotas {
    /// Largest PE count a single run may request.
    pub max_pes: usize,
    /// Cap on the deadlock watchdog: [`RunConfig::timeout`] is clamped
    /// to this. The watchdog only supervises spin-waits (barriers,
    /// locks, allocation fences), so this bounds how long a run may
    /// wait on its peers, *not* how long it may compute: a run that
    /// loops forever without waiting is not stopped by it.
    pub max_wall: Duration,
    /// Simulated/virtual wall cap in nanoseconds: a run whose virtual
    /// wall (or simulated makespan, on [`Backend::Sim`]) exceeds this
    /// is reported as a quota violation after the fact. This bounds
    /// the response's claim to simulated time (a classroom `1s/hop ×
    /// 1M PEs` request shouldn't "succeed" with a thousand-year wall),
    /// not the host cost of producing it.
    pub max_virtual_ns: u64,
    /// Largest HTTP request body the service will read, in bytes.
    pub max_body_bytes: usize,
    /// Largest config matrix one `/sweep` request may expand to.
    pub max_configs: usize,
}

impl Default for Quotas {
    /// Classroom-friendly defaults: 64k PEs, 10s of host wall, one
    /// simulated hour, 1 MiB bodies, 64-config sweeps.
    fn default() -> Self {
        Quotas {
            max_pes: 65_536,
            max_wall: Duration::from_secs(10),
            max_virtual_ns: 3_600_000_000_000,
            max_body_bytes: 1 << 20,
            max_configs: 64,
        }
    }
}

/// A request that asked for more than its [`Quotas`] allow. Each
/// variant carries what was asked and what the cap is; [`code`]
/// assigns the stable `SRV02xx` registry code the service serializes.
///
/// [`code`]: QuotaViolation::code
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum QuotaViolation {
    /// `n_pes` exceeded [`Quotas::max_pes`].
    PeCap {
        /// Requested PE count.
        want: usize,
        /// The configured cap.
        cap: usize,
    },
    /// A sweep expanded to more configs than [`Quotas::max_configs`].
    ConfigCap {
        /// Expanded config count.
        want: usize,
        /// The configured cap.
        cap: usize,
    },
    /// The run's virtual/simulated wall exceeded
    /// [`Quotas::max_virtual_ns`].
    VirtualWallCap {
        /// The wall the run produced, in nanoseconds.
        got_ns: u64,
        /// The configured cap, in nanoseconds.
        cap_ns: u64,
    },
    /// The request body exceeded [`Quotas::max_body_bytes`].
    BodyCap {
        /// Declared (or read) body size in bytes.
        got: usize,
        /// The configured cap.
        cap: usize,
    },
}

impl QuotaViolation {
    /// The stable `SRV02xx` error-registry code for this violation
    /// (see `docs/SERVE.md`).
    pub fn code(&self) -> &'static str {
        match self {
            QuotaViolation::PeCap { .. } => "SRV0201",
            QuotaViolation::ConfigCap { .. } => "SRV0202",
            QuotaViolation::VirtualWallCap { .. } => "SRV0203",
            QuotaViolation::BodyCap { .. } => "SRV0204",
        }
    }

    /// The HTTP status the service answers with: 413 for an oversized
    /// body, 422 for everything else (the request parsed fine; the
    /// *semantics* exceed policy).
    pub fn status(&self) -> u16 {
        match self {
            QuotaViolation::BodyCap { .. } => 413,
            _ => 422,
        }
    }
}

impl std::fmt::Display for QuotaViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QuotaViolation::PeCap { want, cap } => {
                write!(f, "O NOES! {want} PES IZ OVER DA QUOTA ({cap} MAX)")
            }
            QuotaViolation::ConfigCap { want, cap } => {
                write!(f, "O NOES! DIS SWEEP HAZ {want} CONFIGS — QUOTA IZ {cap}")
            }
            QuotaViolation::VirtualWallCap { got_ns, cap_ns } => {
                write!(f, "O NOES! DA RUN SIMULATED {got_ns}ns OF WALL — QUOTA IZ {cap_ns}ns")
            }
            QuotaViolation::BodyCap { got, cap } => {
                write!(f, "O NOES! DA REQUEST BODY HAZ {got} BYTES — QUOTA IZ {cap}")
            }
        }
    }
}

impl std::error::Error for QuotaViolation {}

impl Quotas {
    /// Admit one run config: reject a PE count over
    /// [`Quotas::max_pes`], clamp the watchdog timeout to
    /// [`Quotas::max_wall`], and hand back the effective config.
    pub fn admit(&self, cfg: &RunConfig) -> Result<RunConfig, QuotaViolation> {
        if cfg.n_pes > self.max_pes {
            return Err(QuotaViolation::PeCap { want: cfg.n_pes, cap: self.max_pes });
        }
        let mut out = cfg.clone();
        if out.timeout.is_zero() || out.timeout > self.max_wall {
            out.timeout = self.max_wall;
        }
        Ok(out)
    }

    /// Admit a whole sweep matrix: the config count against
    /// [`Quotas::max_configs`], then every config via
    /// [`Quotas::admit`] (first violation wins).
    pub fn admit_many(&self, configs: &[RunConfig]) -> Result<(), QuotaViolation> {
        if configs.len() > self.max_configs {
            return Err(QuotaViolation::ConfigCap { want: configs.len(), cap: self.max_configs });
        }
        for cfg in configs {
            self.admit(cfg)?;
        }
        Ok(())
    }

    /// Post-run hook: the virtual/simulated wall cap. It rejects
    /// responses that *claim* more simulated time than policy allows;
    /// it does not bound the host time the run took.
    pub fn check_report(&self, r: &RunReport) -> Result<(), QuotaViolation> {
        let simulated_ns = match r.virtual_wall {
            Some(vw) => Some(vw.as_nanos() as u64),
            // The sim backend's wall IS the simulated makespan even
            // under the default wall clock.
            None if r.backend == Backend::Sim => Some(r.wall.as_nanos() as u64),
            None => None,
        };
        if let Some(got_ns) = simulated_ns {
            if got_ns > self.max_virtual_ns {
                return Err(QuotaViolation::VirtualWallCap { got_ns, cap_ns: self.max_virtual_ns });
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// LolError -> HTTP mapping
// ---------------------------------------------------------------------

/// The HTTP status a service answers with for each [`LolError`]
/// variant.
///
/// Deliberately a `match` with **no wildcard arm**: adding a
/// [`LolError`] variant without deciding its service mapping is a
/// compile error, not a silent 500.
pub fn http_status(err: &LolError) -> u16 {
    match err {
        // The client sent a program/config the toolchain rejects.
        LolError::Parse(_) => 400,
        LolError::Sema(_) => 400,
        LolError::Compile(_) => 400,
        LolError::Config(_) => 400,
        // This machine genuinely can't run that (e.g. the C backend
        // without a C compiler): Not Implemented, not Bad Request.
        LolError::Unsupported(_) => 501,
        // Deliberately-not-run (resume bookkeeping): a conflict with
        // prior state, never a service failure.
        LolError::Skipped(_) => 409,
        // The program is valid but faulted while running; the request
        // itself was well-formed.
        LolError::Runtime(_) => 422,
    }
}

/// The stable `SRV04xx` error-registry code for each [`LolError`]
/// variant (the rendered message keeps its own `O NOES!`/`RUN0xxx`
/// detail). Exhaustive for the same reason as [`http_status`].
pub fn error_code(err: &LolError) -> &'static str {
    match err {
        LolError::Parse(_) => "SRV0411",
        LolError::Sema(_) => "SRV0412",
        LolError::Compile(_) => "SRV0413",
        LolError::Config(_) => "SRV0414",
        LolError::Unsupported(_) => "SRV0415",
        LolError::Skipped(_) => "SRV0416",
        LolError::Runtime(_) => "SRV0417",
    }
}

// ---------------------------------------------------------------------
// Single-run report JSON
// ---------------------------------------------------------------------

/// Serialize one [`RunReport`] as a single JSON object — the body of
/// the service's `POST /run` response and of single-run
/// `lolrun --json`, rendered by the same code so the two can never
/// drift apart.
///
/// With `timing == false` (the **stable** form) the object is
/// deterministic for a deterministic run: config identity, per-PE
/// outputs, output hash, comm stats, and the virtual wall when the
/// run accounted one — no host timing. `timing == true` appends
/// `wall_ns`/`host_wall_ns` plus the observability riders: a
/// `phases` breakdown, a `sim` scheduler block on [`Backend::Sim`]
/// runs, and a `profile` block when [`RunConfig::profile`] was set
/// (all machine-dependent, for benchmarking).
///
/// [`RunConfig::profile`]: crate::RunConfig::profile
///
/// ```
/// use lolcode::{compile, engine_for, service::run_report_json, Backend, RunConfig};
///
/// let artifact = compile("HAI 1.2\nVISIBLE ME\nKTHXBYE").unwrap();
/// let cfg = RunConfig::new(2).backend(Backend::Vm);
/// let a = engine_for(Backend::Vm).run(&artifact, &cfg).unwrap();
/// let b = engine_for(Backend::Vm).run(&artifact, &cfg).unwrap();
/// assert_eq!(run_report_json(&a, false), run_report_json(&b, false));
/// assert!(run_report_json(&a, true).contains("\"host_wall_ns\""));
/// ```
pub fn run_report_json(r: &RunReport, timing: bool) -> String {
    let mut out = String::with_capacity(512 + r.outputs.iter().map(String::len).sum::<usize>());
    let mut w = Writer::new(&mut out);
    w.begin_obj();
    // The backend that actually ran (callers may leave
    // RunConfig::backend at its default).
    sweep::push_config_fields(&mut w, r.backend, &r.config);
    w.key("ok").bool(true);
    if timing {
        w.key("wall_ns").num(r.wall.as_nanos());
        w.key("host_wall_ns").num(r.host_wall.as_nanos());
        // Observability riders: host-dependent like the walls, so they
        // live on the timing form only — the stable form stays pinned.
        let p = &r.phases;
        w.key("phases").begin_obj();
        w.key("lex_ns").num(p.lex_ns).key("parse_ns").num(p.parse_ns);
        w.key("sema_ns").num(p.sema_ns).key("compile_ns").num(p.compile_ns);
        w.key("exec_ns").num(p.exec_ns).key("render_ns").num(p.render_ns);
        w.end_obj();
        if let Some(s) = &r.sim {
            w.key("sim").begin_obj();
            w.key("events").num(s.events).key("heap_peak").num(s.heap_peak);
            w.key("barrier_episodes").num(s.barrier_episodes);
            w.key("merge_windows").num(s.merge_windows);
            w.key("events_per_sec").num(s.events_per_sec(r.host_wall));
            w.end_obj();
        }
        if let Some(p) = &r.profile {
            w.key("profile").begin_obj();
            w.key("total_ops").num(p.total_ops).key("super_bp").num(p.super_bp);
            w.key("ops").begin_arr();
            for (name, count, is_super) in &p.ops {
                w.begin_obj().key("op").str(name).key("count").num(count);
                w.key("super").bool(*is_super).end_obj();
            }
            w.end_arr().key("hot").begin_arr();
            for h in &p.hot {
                w.begin_obj().key("chunk").str(&h.chunk);
                w.key("start").num(h.start).key("end").num(h.end).key("count").num(h.count);
                w.end_obj();
            }
            w.end_arr().end_obj();
        }
    }
    if let Some(vw) = r.virtual_wall {
        w.key("virtual_wall_ns").num(vw.as_nanos());
    }
    w.key("output_hash").str(format_args!("{:016x}", sweep::output_hash(r)));
    w.key("outputs").begin_arr();
    for o in &r.outputs {
        w.str(o);
    }
    w.end_arr();
    sweep::push_stats_json(&mut w, r);
    w.end_obj();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{compile, engine_for, SpmdError};

    #[test]
    fn status_mapping_is_pinned() {
        // The two easy ones to get wrong: Unsupported and Skipped must
        // map to 501 and 409 — a service must not lump them in with
        // client errors or failures.
        assert_eq!(http_status(&LolError::Unsupported("no cc".into())), 501);
        assert_eq!(http_status(&LolError::Skipped("resume".into())), 409);
        assert_eq!(http_status(&LolError::Parse("x".into())), 400);
        assert_eq!(http_status(&LolError::Sema("x".into())), 400);
        assert_eq!(http_status(&LolError::Compile("x".into())), 400);
        assert_eq!(http_status(&LolError::Config("x".into())), 400);
        let rt = LolError::Runtime(SpmdError { pe: 0, message: "RUN0001".into() });
        assert_eq!(http_status(&rt), 422);
        assert_eq!(error_code(&rt), "SRV0417");
        assert_eq!(error_code(&LolError::Unsupported("x".into())), "SRV0415");
        assert_eq!(error_code(&LolError::Skipped("x".into())), "SRV0416");
    }

    #[test]
    fn quotas_admit_caps_pes_and_clamps_timeout() {
        let q = Quotas { max_pes: 8, max_wall: Duration::from_secs(2), ..Quotas::default() };
        let ok = q.admit(&RunConfig::new(8).timeout(Duration::from_secs(60))).unwrap();
        assert_eq!(ok.timeout, Duration::from_secs(2), "timeout clamps to the quota");
        let ok = q.admit(&RunConfig::new(2).timeout(Duration::from_millis(100))).unwrap();
        assert_eq!(ok.timeout, Duration::from_millis(100), "tighter timeouts survive");
        match q.admit(&RunConfig::new(9)) {
            Err(v @ QuotaViolation::PeCap { want: 9, cap: 8 }) => {
                assert_eq!(v.code(), "SRV0201");
                assert_eq!(v.status(), 422);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn quotas_admit_many_counts_configs() {
        let q = Quotas { max_configs: 2, ..Quotas::default() };
        let configs: Vec<RunConfig> = (1..=3).map(RunConfig::new).collect();
        match q.admit_many(&configs) {
            Err(v @ QuotaViolation::ConfigCap { want: 3, cap: 2 }) => {
                assert_eq!(v.code(), "SRV0202")
            }
            other => panic!("{other:?}"),
        }
        assert!(q.admit_many(&configs[..2]).is_ok());
    }

    #[test]
    fn quotas_check_report_caps_simulated_walls() {
        let artifact = compile(crate::corpus::RING_EXAMPLE).unwrap();
        // 1s/hop × a ring of puts: the sim reports a >1s makespan.
        let cfg = RunConfig::new(4)
            .backend(Backend::Sim)
            .latency(crate::LatencyModel::Uniform { remote_ns: 1_000_000_000 });
        let r = engine_for(Backend::Sim).run(&artifact, &cfg).unwrap();
        let tight = Quotas { max_virtual_ns: 1_000_000, ..Quotas::default() };
        match tight.check_report(&r) {
            Err(v @ QuotaViolation::VirtualWallCap { .. }) => assert_eq!(v.code(), "SRV0203"),
            other => panic!("{other:?}"),
        }
        assert!(Quotas::default().check_report(&r).is_ok());
        // Threaded wall-clock runs carry no simulated wall to cap.
        let wall = engine_for(Backend::Interp).run(&artifact, &RunConfig::new(2)).unwrap();
        assert!(tight.check_report(&wall).is_ok());
    }

    #[test]
    fn run_report_json_is_stable_and_carries_outputs() {
        let artifact = compile(crate::corpus::HELLO_PARALLEL).unwrap();
        let cfg = RunConfig::new(2).backend(Backend::Vm);
        let a = engine_for(Backend::Vm).run(&artifact, &cfg).unwrap();
        let b = engine_for(Backend::Vm).run(&artifact, &cfg).unwrap();
        let json = run_report_json(&a, false);
        assert_eq!(json, run_report_json(&b, false), "stable form must be byte-reproducible");
        assert!(json.contains("\"backend\": \"vm\""));
        assert!(json.contains("\"ok\": true"));
        assert!(json.contains("\"outputs\": [\"HAI ITZ 0 OF 2\\n\", \"HAI ITZ 1 OF 2\\n\"]"));
        assert!(json.contains("\"output_hash\""));
        assert!(!json.contains("wall_ns"), "stable form carries no host timing: {json}");
        let timed = run_report_json(&a, true);
        assert!(timed.contains("\"wall_ns\"") && timed.contains("\"host_wall_ns\""));
        // Balanced-brackets sanity, like the sweep JSON tests.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }
}
