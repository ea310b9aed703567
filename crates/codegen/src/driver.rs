//! Build-and-run driver for the C backend: the part of the paper's
//! `lcc code.lol -o executable.x && coprsh -np 16 ./executable.x`
//! workflow that happens *after* code generation.
//!
//! [`build`] compiles a generated unit and links it against the
//! runtime object: [`LOL_RUNTIME_C`] and the multi-PE stub's
//! [`SHMEM_STUB_C`], compiled **once** per key into a per-user cache
//! directory. The unit itself starts with the runtime header, and its
//! `#include <shmem.h>` finds the stub header [`SHMEM_STUB_H`] in the
//! build's private temp directory, so `cc` (probed once per process —
//! [`cc`]) only compiles the headers and the program each time. The
//! resulting [`CBinary`] can then be
//! [run][CBinary::run] any number of times across PE counts, seeds,
//! inputs, interconnect models and barrier/lock algorithms. Each run
//! talks to the stub over a small env protocol (`LOL_STUB_NPES` /
//! `LOL_STUB_SEED` / `LOL_STUB_OUT` / `LOL_STUB_LATENCY` /
//! `LOL_STUB_BARRIER` / `LOL_STUB_LOCK`) and reads the
//! per-PE outputs and operation counters back from capture files (and,
//! on a fault, the failing PE's number), so a C-backend run reports
//! the same per-PE shape as the in-process engines.
//!
//! # The runtime object cache
//!
//! The object lives in `$TMPDIR/lolcc-rt-<uid>/<key>.o`. The key is a
//! 64-bit FNV-1a hash over the compiler's path and `--version` line,
//! the flags, and the text of the runtime and stub headers and
//! sources, so a changed runtime or toolchain never links a stale
//! object. A missing object (first build, or deleted while the process
//! runs) is rebuilt; builders in one process wait for one compile, and
//! builders in different processes each compile under a unique name
//! and `rename` it into place, so nobody links a half-written file.
//!
//! Temp files are private. Each build directory is created fresh with
//! mode 0700 (a name that already exists is skipped, never reused),
//! and the cache directory is used only if it is a real directory that
//! we own and that nobody else can write; otherwise the object is
//! compiled into the build directory, uncached.
//!
//! Everything here degrades cleanly: no compiler on the machine is
//! [`DriverError::NoCompiler`] (callers surface it as "unsupported",
//! not a failure), and a hung binary is killed at the caller's
//! deadline.

use crate::runtime::{LOL_RUNTIME_C, LOL_RUNTIME_H, SHMEM_STUB_C, SHMEM_STUB_H};
use lol_shmem::{BarrierKind, CommStats, LatencyModel, LockKind};
use lol_trace::{ClockMode, EventKind, PeTrace, TraceEvent};
use std::io::Read as _;
use std::os::unix::fs::{DirBuilderExt as _, MetadataExt as _};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};
use std::time::{Duration, Instant};

/// The stub's hard PE-thread cap (`LOL_STUB_MAX_PES` in
/// [`SHMEM_STUB_H`]); callers should treat wider configs as
/// unsupported rather than spawn a binary that will refuse to start.
pub const MAX_PES: usize = 256;

/// The probed system C compiler.
#[derive(Debug, Clone)]
pub struct CcInfo {
    /// Invocable name or path (`cc`, `gcc`, `clang`, or `$LOL_CC`).
    pub path: String,
    /// First line of `--version` output.
    pub version: String,
}

/// Probe for a working C compiler, once per process. Honors `LOL_CC`,
/// then tries `cc`, `gcc`, `clang`. `None` means the C backend is
/// unsupported on this machine.
pub fn cc() -> Option<&'static CcInfo> {
    static PROBE: OnceLock<Option<CcInfo>> = OnceLock::new();
    PROBE
        .get_or_init(|| {
            let env = std::env::var("LOL_CC").ok();
            let candidates: Vec<&str> =
                env.as_deref().into_iter().chain(["cc", "gcc", "clang"]).collect();
            for cand in candidates {
                if let Ok(out) = Command::new(cand).arg("--version").output() {
                    if out.status.success() {
                        let version = String::from_utf8_lossy(&out.stdout)
                            .lines()
                            .next()
                            .unwrap_or("")
                            .to_string();
                        return Some(CcInfo { path: cand.to_string(), version });
                    }
                }
            }
            None
        })
        .as_ref()
}

/// Anything the build-and-run pipeline can fail with.
#[derive(Debug, Clone)]
pub enum DriverError {
    /// No usable C compiler on this machine (probe failed).
    NoCompiler,
    /// The C compiler rejected the generated translation unit.
    Build(String),
    /// Filesystem / process-spawn trouble.
    Io(String),
    /// The binary outlived the caller's deadline and was killed.
    Timeout(Duration),
    /// The binary exited nonzero (a LOLCODE runtime fault, rendered on
    /// stderr by `lol_die`).
    Program {
        /// Exit code when the process exited normally.
        status: Option<i32>,
        /// Captured stderr (the `O NOES! [RUNxxxx]` message).
        stderr: String,
        /// The lowest failing PE, as the stub recorded it next to the
        /// captures; `None` when it recorded none (a stub setup error).
        pe: Option<usize>,
    },
    /// The binary exited zero but the capture files are missing or
    /// malformed — a stub/driver protocol bug, not a user error.
    Protocol(String),
}

impl std::fmt::Display for DriverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DriverError::NoCompiler => {
                write!(f, "NO C COMPILER ON DIS MACHINE (TRIED $LOL_CC, cc, gcc, clang)")
            }
            DriverError::Build(msg) => write!(f, "DA C COMPILER SEZ NO WAI:\n{msg}"),
            DriverError::Io(msg) => write!(f, "I/O HAZ A SAD: {msg}"),
            DriverError::Timeout(d) => write!(f, "DA BINARY RAN 2 LONG (> {d:?}) AN GOT KILLED"),
            DriverError::Program { status, stderr, .. } => {
                write!(f, "DA BINARY EXITED {:?}: {}", status, stderr.trim())
            }
            DriverError::Protocol(msg) => write!(f, "STUB PROTOCOL HAZ A SAD: {msg}"),
        }
    }
}

impl std::error::Error for DriverError {}

/// One execution request against a built binary.
#[derive(Debug, Clone)]
pub struct RunRequest<'a> {
    /// Number of PE threads the stub spawns.
    pub n_pes: usize,
    /// Seed mixed into every PE's `WHATEVR` stream.
    pub seed: u64,
    /// `GIMMEH` input lines; every PE replays the same stream.
    pub input: &'a [String],
    /// Kill-and-report deadline for the whole SPMD job.
    pub timeout: Duration,
    /// Interconnect latency model the stub charges at its remote-access
    /// choke point (`LOL_STUB_LATENCY`; the model's canonical
    /// `Display` token crosses the process boundary).
    pub latency: LatencyModel,
    /// Barrier algorithm for `shmem_barrier_all` (`LOL_STUB_BARRIER`).
    pub barrier: BarrierKind,
    /// Lock algorithm for the Table II implicit locks (`LOL_STUB_LOCK`).
    pub lock: LockKind,
    /// Which clock the latency model charges (`LOL_STUB_CLOCK`):
    /// busy-waited wall time or the deterministic virtual clock, whose
    /// final per-PE values come back on the stats protocol.
    pub clock: ClockMode,
    /// Record communication events (`LOL_STUB_TRACE`); per-PE trace
    /// files are parsed back into [`CRunOutput::traces`].
    pub trace: bool,
}

impl Default for RunRequest<'_> {
    /// One PE, default seed/knobs, 30s watchdog — the base tests and
    /// sweeps override from.
    fn default() -> Self {
        RunRequest {
            n_pes: 1,
            seed: 0xC47_F00D,
            input: &[],
            timeout: Duration::from_secs(30),
            latency: LatencyModel::Off,
            barrier: BarrierKind::default(),
            lock: LockKind::default(),
            clock: ClockMode::default(),
            trace: false,
        }
    }
}

/// What one run of the binary produced (the C analog of a `RunReport`).
#[derive(Debug, Clone)]
pub struct CRunOutput {
    /// Per-PE `VISIBLE` output, in PE order.
    pub outputs: Vec<String>,
    /// Per-PE operation counts, in PE order. The stub counts scalar
    /// gets/puts (local vs remote), atomics and barriers; counters it
    /// has no instrumentation for stay zero.
    pub stats: Vec<CommStats>,
    /// Wall-clock time from spawn to exit.
    pub wall: Duration,
    /// The job's virtual wall (max final per-PE logical clock), when
    /// the request ran under [`ClockMode::Virtual`].
    pub virtual_ns: Option<u64>,
    /// Per-PE event streams parsed from the stub's trace files, when
    /// the request enabled tracing.
    pub traces: Option<Vec<PeTrace>>,
}

/// A compiled C-backend binary in its own temp directory; the
/// directory (sources, binary, per-run capture files) is removed on
/// drop. Safe to run concurrently — each run gets a private capture
/// prefix.
#[derive(Debug)]
pub struct CBinary {
    dir: PathBuf,
    bin: PathBuf,
    runs: AtomicU64,
}

impl Drop for CBinary {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// The flags of every compile, the runtime object's and each
/// program's. `_POSIX_C_SOURCE` unhides `clock_gettime`/`nanosleep`
/// under `-std=c99`: the stub's latency models busy-wait on the
/// monotonic clock (and degrade to zero-delay when the host genuinely
/// lacks it).
const CFLAGS: [&str; 4] = ["-std=c99", "-D_POSIX_C_SOURCE=200809L", "-O1", "-pthread"];

/// Compile a unit from [`emit_c`][crate::emit_c] and link it against
/// the cached runtime object.
pub fn build(c_source: &str) -> Result<CBinary, DriverError> {
    static CACHE: OnceLock<RuntimeCache> = OnceLock::new();
    build_with(CACHE.get_or_init(|| RuntimeCache::new(std::env::temp_dir())), c_source)
}

fn io(e: std::io::Error) -> DriverError {
    DriverError::Io(e.to_string())
}

fn build_with(cache: &RuntimeCache, c_source: &str) -> Result<CBinary, DriverError> {
    let cc = cc().ok_or(DriverError::NoCompiler)?;
    let dir = private_dir(&std::env::temp_dir())?;
    // From here on the binary's drop removes the directory on any error.
    let binary = CBinary { bin: dir.join("prog"), dir, runs: AtomicU64::new(0) };
    let dir = &binary.dir;
    std::fs::write(dir.join("shmem.h"), SHMEM_STUB_H).map_err(io)?;
    let c_path = dir.join("prog.c");
    std::fs::write(&c_path, c_source).map_err(io)?;
    let object = cache.object(cc, dir)?;
    let mut link = Command::new(&cc.path);
    link.args(CFLAGS).arg("-I").arg(dir).arg(&c_path).arg(object).arg("-lm");
    run_cc(link.arg("-o").arg(&binary.bin))?;
    Ok(binary)
}

/// Run one `cc` command; a nonzero exit is [`DriverError::Build`] with
/// its stderr.
fn run_cc(cmd: &mut Command) -> Result<(), DriverError> {
    let out = cmd.output().map_err(io)?;
    if !out.status.success() {
        return Err(DriverError::Build(String::from_utf8_lossy(&out.stderr).into_owned()));
    }
    Ok(())
}

/// The `<seq>` of the next build directory name.
static BUILD_SEQ: AtomicU64 = AtomicU64::new(0);

/// Create a fresh directory `lolcc-<pid>-<seq>` under `parent`, mode
/// 0700. A name that already exists may have been planted by another
/// user to swap our sources, so it is skipped for the next sequence
/// number, never reused.
fn private_dir(parent: &Path) -> Result<PathBuf, DriverError> {
    for _ in 0..1000 {
        let seq = BUILD_SEQ.fetch_add(1, Ordering::Relaxed);
        let dir = parent.join(format!("lolcc-{}-{seq}", std::process::id()));
        match std::fs::DirBuilder::new().mode(0o700).create(&dir) {
            Ok(()) => return Ok(dir),
            Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => continue,
            Err(e) => return Err(io(e)),
        }
    }
    Err(DriverError::Io(format!("no free build directory name under {}", parent.display())))
}

/// The runtime object, compiled once per key under `root` (see the
/// module docs).
struct RuntimeCache {
    root: PathBuf,
    /// Held while a builder checks for the object and, if it is
    /// missing, compiles it, so one process compiles it once.
    lock: Mutex<()>,
    key: OnceLock<u64>,
}

impl RuntimeCache {
    fn new(root: PathBuf) -> Self {
        RuntimeCache { root, lock: Mutex::new(()), key: OnceLock::new() }
    }

    /// The object to link, compiled from sources written to the
    /// private build directory `scratch` if the cache lacks it.
    fn object(&self, cc: &CcInfo, scratch: &Path) -> Result<PathBuf, DriverError> {
        // `scratch` was just created by us, so its owner is our uid.
        let uid = std::fs::metadata(scratch).map_err(io)?.uid();
        let dir = self.root.join(format!("lolcc-rt-{uid}"));
        let key = *self.key.get_or_init(|| {
            let texts = [LOL_RUNTIME_H, LOL_RUNTIME_C, SHMEM_STUB_H, SHMEM_STUB_C];
            object_key(&cc.path, &cc.version, &CFLAGS, &texts)
        });
        let _one_builder = self.lock.lock().unwrap_or_else(PoisonError::into_inner);
        if !private_cache_dir(&dir, uid) {
            let object = scratch.join("lolrt.o");
            compile_runtime(cc, scratch, &object)?;
            return Ok(object);
        }
        let object = dir.join(format!("{key:016x}.o"));
        if std::fs::symlink_metadata(&object).is_ok_and(|m| m.is_file()) {
            return Ok(object);
        }
        // Unique: this process compiles one object at a time.
        let tmp = dir.join(format!("{key:016x}.{}.tmp", std::process::id()));
        let built = compile_runtime(cc, scratch, &tmp)
            .and_then(|()| std::fs::rename(&tmp, &object).map_err(io));
        if built.is_err() {
            let _ = std::fs::remove_file(&tmp);
        }
        built.map(|()| object)
    }
}

/// Create `dir` (mode 0700) if it is missing, and say whether it is a
/// directory, not a symlink, owned by `uid` and writable by nobody
/// else.
fn private_cache_dir(dir: &Path, uid: u32) -> bool {
    let _ = std::fs::DirBuilder::new().mode(0o700).create(dir);
    std::fs::symlink_metadata(dir)
        .is_ok_and(|m| m.is_dir() && m.uid() == uid && m.mode() & 0o022 == 0)
}

/// Compile the runtime and stub sources into the object `out`.
fn compile_runtime(cc: &CcInfo, scratch: &Path, out: &Path) -> Result<(), DriverError> {
    let src = scratch.join("lolrt.c");
    std::fs::write(&src, [LOL_RUNTIME_H, LOL_RUNTIME_C, SHMEM_STUB_C].concat()).map_err(io)?;
    let mut cmd = Command::new(&cc.path);
    run_cc(cmd.args(CFLAGS).arg("-I").arg(scratch).arg("-c").arg(&src).arg("-o").arg(out))
}

/// The cache key of the runtime object: FNV-1a over the compiler's
/// identity, the flags and the texts the object is compiled from,
/// each field ended by a NUL byte.
fn object_key(cc_path: &str, cc_version: &str, flags: &[&str], texts: &[&str]) -> u64 {
    let fields =
        [cc_path, cc_version].into_iter().chain(flags.iter().copied()).chain(texts.iter().copied());
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for byte in fields.flat_map(|f| f.bytes().chain([0])) {
        h = (h ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
    }
    h
}

impl CBinary {
    /// Path of the compiled executable (inside the temp dir).
    pub fn path(&self) -> &std::path::Path {
        &self.bin
    }

    /// Execute the binary once and collect per-PE outputs and stats.
    pub fn run(&self, req: &RunRequest<'_>) -> Result<CRunOutput, DriverError> {
        let run_id = self.runs.fetch_add(1, Ordering::Relaxed);
        let out_dir = self.dir.join(format!("run{run_id}"));
        std::fs::create_dir_all(&out_dir).map_err(io)?;
        let prefix = out_dir.join("out");

        let mut child = Command::new(&self.bin)
            .env("LOL_STUB_NPES", req.n_pes.to_string())
            .env("LOL_STUB_SEED", req.seed.to_string())
            .env("LOL_STUB_OUT", &prefix)
            .env("LOL_STUB_LATENCY", req.latency.to_string())
            .env("LOL_STUB_BARRIER", req.barrier.to_string())
            .env("LOL_STUB_LOCK", req.lock.to_string())
            .env("LOL_STUB_CLOCK", req.clock.to_string())
            .env("LOL_STUB_TRACE", if req.trace { TRACE_CAP } else { "0" })
            .stdin(Stdio::piped())
            .stdout(Stdio::null()) // VISIBLE goes to the capture files
            .stderr(Stdio::piped())
            .spawn()
            .map_err(io)?;
        let t0 = Instant::now();
        {
            // Feed GIMMEH from a detached thread and close stdin so an
            // over-reading program sees EOF instead of blocking. The
            // thread matters: input larger than the OS pipe buffer
            // against a child that deadlocks before reading would
            // otherwise block *this* thread on write_all and keep the
            // timeout watchdog below from ever running. A dead child
            // (broken pipe) just ends the writer; the exit status
            // reports the failure.
            use std::io::Write as _;
            let mut stdin = child.stdin.take().expect("piped stdin");
            let mut text = req.input.join("\n");
            if !text.is_empty() {
                text.push('\n');
            }
            std::thread::spawn(move || {
                let _ = stdin.write_all(text.as_bytes());
            });
        }
        let status = loop {
            match child.try_wait().map_err(io)? {
                Some(status) => break status,
                None if t0.elapsed() > req.timeout => {
                    let _ = child.kill();
                    let _ = child.wait();
                    let _ = std::fs::remove_dir_all(&out_dir);
                    return Err(DriverError::Timeout(req.timeout));
                }
                None => std::thread::sleep(Duration::from_millis(2)),
            }
        };
        let wall = t0.elapsed();
        let mut stderr = String::new();
        if let Some(mut pipe) = child.stderr.take() {
            let _ = pipe.read_to_string(&mut stderr);
        }
        if !status.success() {
            let pe = std::fs::read_to_string(out_dir.join("out.fault"))
                .ok()
                .and_then(|text| text.trim().parse().ok());
            let _ = std::fs::remove_dir_all(&out_dir);
            return Err(DriverError::Program { status: status.code(), stderr, pe });
        }

        let mut outputs = Vec::with_capacity(req.n_pes);
        for pe in 0..req.n_pes {
            let path = out_dir.join(format!("out.pe{pe}.out"));
            outputs.push(
                std::fs::read_to_string(&path).map_err(|e| {
                    DriverError::Protocol(format!("missing capture for PE {pe}: {e}"))
                })?,
            );
        }
        let stats_text = std::fs::read_to_string(out_dir.join("out.stats"))
            .map_err(|e| DriverError::Protocol(format!("missing stats file: {e}")))?;
        let (stats, vclocks) = parse_stats(&stats_text, req.n_pes)?;
        let virtual_ns =
            (req.clock == ClockMode::Virtual).then(|| vclocks.iter().copied().max().unwrap_or(0));
        let traces = if req.trace {
            let mut pes = Vec::with_capacity(req.n_pes);
            for pe in 0..req.n_pes {
                let path = out_dir.join(format!("out.pe{pe}.trace"));
                let text = std::fs::read_to_string(&path).map_err(|e| {
                    DriverError::Protocol(format!("missing trace for PE {pe}: {e}"))
                })?;
                pes.push(parse_trace(&text, pe)?);
            }
            Some(pes)
        } else {
            None
        };
        let _ = std::fs::remove_dir_all(&out_dir);
        Ok(CRunOutput { outputs, stats, wall, virtual_ns, traces })
    }
}

/// Per-PE event cap the driver asks the stub for (`LOL_STUB_TRACE`);
/// matches the Rust substrate's default `trace_capacity`.
const TRACE_CAP: &str = "65536";

/// Parse one stub trace file: `<code> <peer> <addr> <bytes> <t_ns>`
/// event lines in issue order, then a `= <dropped> <end_ns>` trailer.
fn parse_trace(text: &str, pe: usize) -> Result<PeTrace, DriverError> {
    let bad = |line: &str| DriverError::Protocol(format!("bad trace line {line:?}"));
    let mut out = PeTrace::default();
    let mut sealed = false;
    for line in text.lines() {
        let fields: Vec<&str> = line.split_whitespace().collect();
        if sealed {
            return Err(DriverError::Protocol("trace data after trailer".to_string()));
        }
        match fields.as_slice() {
            ["=", dropped, end] => {
                out.dropped = dropped.parse().map_err(|_| bad(line))?;
                out.end_ns = end.parse().map_err(|_| bad(line))?;
                sealed = true;
            }
            [code, peer, addr, bytes, t_ns] => {
                let mut chars = code.chars();
                let (Some(c), None) = (chars.next(), chars.next()) else {
                    return Err(bad(line));
                };
                let kind = EventKind::from_code(c).ok_or_else(|| bad(line))?;
                out.events.push(TraceEvent {
                    kind,
                    pe: pe as u32,
                    peer: peer.parse().map_err(|_| bad(line))?,
                    addr: addr.parse().map_err(|_| bad(line))?,
                    bytes: bytes.parse().map_err(|_| bad(line))?,
                    seq: out.events.len() as u32,
                    t_ns: t_ns.parse().map_err(|_| bad(line))?,
                });
            }
            _ => return Err(bad(line)),
        }
    }
    if !sealed {
        return Err(DriverError::Protocol(format!("trace for PE {pe} has no trailer")));
    }
    Ok(out)
}

/// Parse the stub's stats file: one line per PE,
/// `pe local_gets remote_gets local_puts remote_puts amos barriers
/// [vclock_ns]` — the optional 8th column is the PE's final virtual
/// clock (0 under the wall clock; absent in legacy 7-column files).
fn parse_stats(text: &str, n_pes: usize) -> Result<(Vec<CommStats>, Vec<u64>), DriverError> {
    let mut out = vec![CommStats::default(); n_pes];
    let mut vclocks = vec![0u64; n_pes];
    let mut filled = vec![false; n_pes];
    for line in text.lines() {
        let fields: Vec<u64> = line
            .split_whitespace()
            .map(|f| f.parse::<u64>())
            .collect::<Result<_, _>>()
            .map_err(|e| DriverError::Protocol(format!("bad stats line {line:?}: {e}")))?;
        let (pe, local_gets, remote_gets, local_puts, remote_puts, amos, barriers, vclock) =
            match *fields.as_slice() {
                [a, b, c, d, e, f, g] => (a, b, c, d, e, f, g, 0),
                [a, b, c, d, e, f, g, v] => (a, b, c, d, e, f, g, v),
                _ => return Err(DriverError::Protocol(format!("bad stats line {line:?}"))),
            };
        let slot = out
            .get_mut(pe as usize)
            .ok_or_else(|| DriverError::Protocol(format!("stats for unknown PE {pe}")))?;
        if std::mem::replace(&mut filled[pe as usize], true) {
            return Err(DriverError::Protocol(format!("duplicate stats row for PE {pe}")));
        }
        *slot = CommStats {
            local_gets,
            remote_gets,
            local_puts,
            remote_puts,
            amos,
            barriers,
            ..CommStats::default()
        };
        vclocks[pe as usize] = vclock;
    }
    if let Some(pe) = filled.iter().position(|&f| !f) {
        return Err(DriverError::Protocol(format!("stats file has no row for PE {pe}")));
    }
    Ok((out, vclocks))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_stats_round_trip() {
        // Legacy 7-column rows parse with a zero virtual clock.
        let text = "0 1 2 3 4 5 6\n1 10 20 30 40 50 60\n";
        let (stats, vclocks) = parse_stats(text, 2).unwrap();
        assert_eq!(stats[0].local_gets, 1);
        assert_eq!(stats[0].barriers, 6);
        assert_eq!(stats[1].remote_puts, 40);
        assert_eq!(stats[1].amos, 50);
        assert_eq!(vclocks, vec![0, 0]);
        // 8-column rows carry the per-PE final virtual clock.
        let (_, vclocks) = parse_stats("0 1 2 3 4 5 6 777\n1 1 2 3 4 5 6 999\n", 2).unwrap();
        assert_eq!(vclocks, vec![777, 999]);
    }

    #[test]
    fn parse_stats_rejects_short_files_and_junk() {
        assert!(matches!(parse_stats("0 1 2 3 4 5 6\n", 2), Err(DriverError::Protocol(_))));
        assert!(matches!(parse_stats("0 1 2\n", 1), Err(DriverError::Protocol(_))));
        assert!(matches!(parse_stats("zero 1 2 3 4 5 6\n", 1), Err(DriverError::Protocol(_))));
        assert!(matches!(parse_stats("7 1 2 3 4 5 6\n", 1), Err(DriverError::Protocol(_))));
        // A duplicated PE row must not masquerade as full coverage.
        assert!(matches!(
            parse_stats("0 1 2 3 4 5 6\n0 9 9 9 9 9 9\n", 2),
            Err(DriverError::Protocol(_))
        ));
    }

    #[test]
    fn parse_trace_round_trip_and_rejects_junk() {
        let text = "P 1 3 8 150\nB 0 0 0 150\nb 0 0 0 300\n= 2 321\n";
        let pt = parse_trace(text, 0).unwrap();
        assert_eq!(pt.events.len(), 3);
        assert_eq!(pt.events[0].kind, EventKind::Put);
        assert_eq!(pt.events[0].peer, 1);
        assert_eq!(pt.events[0].addr, 3);
        assert_eq!(pt.events[0].bytes, 8);
        assert_eq!(pt.events[0].t_ns, 150);
        assert_eq!((pt.events[1].seq, pt.events[2].seq), (1, 2));
        assert_eq!(pt.dropped, 2);
        assert_eq!(pt.end_ns, 321);
        for junk in [
            "P 1 3 8\n= 0 0\n",     // short event line
            "? 1 3 8 150\n= 0 0\n", // unknown code
            "P 1 3 8 150\n",        // missing trailer
            "= 0 0\nP 1 3 8 150\n", // data after trailer
        ] {
            assert!(matches!(parse_trace(junk, 0), Err(DriverError::Protocol(_))), "{junk:?}");
        }
    }

    #[test]
    fn probe_is_cached_and_consistent() {
        // Two calls must agree (OnceLock) whatever the machine has.
        let a = cc().map(|c| c.path.clone());
        let b = cc().map(|c| c.path.clone());
        assert_eq!(a, b);
    }

    /// The unit [`crate::emit_c`] writes for `body`.
    fn unit(body: &str) -> String {
        let src = format!("HAI 1.2\n{body}\nKTHXBYE");
        let p = lol_parser::parse(&src).expect_program(&src);
        crate::emit_c(&p, &lol_sema::analyze(&p)).expect("codegen")
    }

    /// A fresh private directory to root a test's runtime cache in.
    fn scratch_root() -> PathBuf {
        private_dir(&std::env::temp_dir()).expect("a temp directory")
    }

    /// The files in the cache directory under `root`.
    fn cached(root: &Path) -> Vec<String> {
        let mut names = Vec::new();
        for entry in std::fs::read_dir(root).unwrap().flatten() {
            for file in std::fs::read_dir(entry.path()).unwrap().flatten() {
                names.push(file.file_name().to_string_lossy().into_owned());
            }
        }
        names
    }

    #[test]
    fn a_planted_build_directory_is_never_used() {
        if cc().is_none() {
            eprintln!("skipping: no C compiler");
            return;
        }
        // Another user could create the next predictable names first.
        let next = BUILD_SEQ.load(Ordering::Relaxed);
        let planted: Vec<PathBuf> = (next..next + 8)
            .map(|seq| std::env::temp_dir().join(format!("lolcc-{}-{seq}", std::process::id())))
            .filter(|dir| std::fs::create_dir(dir).is_ok())
            .collect();
        assert!(!planted.is_empty());
        let binary = build(&unit("VISIBLE \"HAI\"")).expect("build");
        let out = binary.run(&RunRequest::default()).expect("run");
        assert_eq!(out.outputs, ["HAI\n"]);
        assert!(!planted.contains(&binary.dir), "built in a planted directory");
        let mode = std::fs::metadata(&binary.dir).unwrap().mode();
        assert_eq!(mode & 0o777, 0o700, "the build directory is private");
        for dir in &planted {
            assert!(std::fs::read_dir(dir).unwrap().next().is_none(), "wrote into {dir:?}");
            std::fs::remove_dir(dir).unwrap();
        }
    }

    #[test]
    fn eight_builders_share_one_runtime_object() {
        if cc().is_none() {
            eprintln!("skipping: no C compiler");
            return;
        }
        let root = scratch_root();
        let cache = RuntimeCache::new(root.clone());
        std::thread::scope(|s| {
            for i in 0..8 {
                let cache = &cache;
                s.spawn(move || {
                    let binary = build_with(cache, &unit(&format!("VISIBLE {i}"))).expect("build");
                    let out = binary.run(&RunRequest::default()).expect("run");
                    assert_eq!(out.outputs, [format!("{i}\n")]);
                });
            }
        });
        let files = cached(&root);
        assert_eq!(files.len(), 1, "{files:?}");
        assert!(files[0].ends_with(".o"), "{files:?}");
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn a_deleted_runtime_object_is_rebuilt() {
        if cc().is_none() {
            eprintln!("skipping: no C compiler");
            return;
        }
        let root = scratch_root();
        let cache = RuntimeCache::new(root.clone());
        let hello = unit("VISIBLE \"HAI\"");
        build_with(&cache, &hello).expect("first build");
        let rt = std::fs::read_dir(&root).unwrap().next().unwrap().unwrap().path();
        let object = std::fs::read_dir(&rt).unwrap().next().unwrap().unwrap().path();
        std::fs::remove_file(&object).unwrap();
        let binary = build_with(&cache, &hello).expect("build after the delete");
        assert_eq!(binary.run(&RunRequest::default()).expect("run").outputs, ["HAI\n"]);
        assert!(object.is_file(), "the object was not rebuilt");
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn an_unsafe_cache_directory_is_not_used() {
        if cc().is_none() {
            eprintln!("skipping: no C compiler");
            return;
        }
        let root = scratch_root();
        let uid = std::fs::metadata(&root).unwrap().uid();
        let elsewhere = root.join("elsewhere");
        std::fs::create_dir(&elsewhere).unwrap();
        std::os::unix::fs::symlink(&elsewhere, root.join(format!("lolcc-rt-{uid}"))).unwrap();
        let cache = RuntimeCache::new(root.clone());
        let binary = build_with(&cache, &unit("VISIBLE \"HAI\"")).expect("build");
        assert_eq!(binary.run(&RunRequest::default()).expect("run").outputs, ["HAI\n"]);
        assert!(std::fs::read_dir(&elsewhere).unwrap().next().is_none(), "followed the symlink");
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn the_object_key_covers_compiler_flags_and_runtime() {
        let texts = [LOL_RUNTIME_H, LOL_RUNTIME_C, SHMEM_STUB_H, SHMEM_STUB_C];
        let base = object_key("cc", "cc (GCC) 12.2.0", &CFLAGS, &texts);
        assert_eq!(base, object_key("cc", "cc (GCC) 12.2.0", &CFLAGS, &texts), "stable");
        let edited = format!("{LOL_RUNTIME_C}/* edited */");
        let changed = [
            object_key("clang", "cc (GCC) 12.2.0", &CFLAGS, &texts),
            object_key("cc", "cc (GCC) 13.1.0", &CFLAGS, &texts),
            object_key("cc", "cc (GCC) 12.2.0", &["-std=c99", "-O2"], &texts),
            object_key("cc", "cc (GCC) 12.2.0", &CFLAGS, &[LOL_RUNTIME_H, &edited]),
            // Field boundaries count: moving a byte across one changes the key.
            object_key("c", "ccc (GCC) 12.2.0", &CFLAGS, &texts),
        ];
        for (i, key) in changed.iter().enumerate() {
            assert_ne!(*key, base, "change {i} kept the key");
        }
    }

    #[test]
    fn errors_render_lolcode_style() {
        assert!(DriverError::NoCompiler.to_string().contains("NO C COMPILER"));
        assert!(DriverError::Timeout(Duration::from_secs(3)).to_string().contains("KILLED"));
    }
}
