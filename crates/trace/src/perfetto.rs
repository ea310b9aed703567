//! Chrome `trace_event` JSON export — the format Perfetto
//! (<https://ui.perfetto.dev>) and `chrome://tracing` load directly.
//!
//! The mapping is deliberately simple: each PE becomes a *thread*
//! (`tid` = PE id) of one *process* (`pid` 0, the job), named via
//! `"M"` metadata events. Every traced operation becomes exactly one
//! complete (`"ph": "X"`) event:
//!
//! * barrier waits span their real duration — the matching
//!   [`EventKind::BarrierEnter`]/[`EventKind::BarrierExit`] pair turns
//!   into one `barrier` slice from enter to exit, so synchronization
//!   cost is *visible* as a block on the timeline;
//! * remote data and lock operations complete instantaneously on the
//!   issuing PE's clock (their latency is charged to the clock, not
//!   recorded as a span), so they export as zero-duration slices
//!   carrying `peer`/`addr`/`bytes`/`seq` in `args`.
//!
//! Timestamps are microseconds (the `trace_event` contract) with
//! nanosecond precision kept in the fraction, taken verbatim from the
//! trace's own clock — a [`ClockMode::Virtual`] trace therefore loads
//! as a deterministic, machine-independent timeline.
//!
//! [`ClockMode::Virtual`]: crate::ClockMode::Virtual

use std::fmt;

use lol_json::Writer;

use crate::{EventKind, Trace};

/// Nanoseconds as fractional microseconds, exactly (no float
/// rounding): `Us(5250)` displays as `5.250`.
struct Us(u64);

impl fmt::Display for Us {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{:03}", self.0 / 1000, self.0 % 1000)
    }
}

/// The slice name and category an event exports as.
fn slice_kind(kind: EventKind) -> (&'static str, &'static str) {
    match kind {
        EventKind::Put => ("put", "comm"),
        EventKind::Get => ("get", "comm"),
        EventKind::Amo => ("amo", "comm"),
        EventKind::BlockPut => ("block_put", "comm"),
        EventKind::BlockGet => ("block_get", "comm"),
        EventKind::BarrierEnter | EventKind::BarrierExit => ("barrier", "sync"),
        EventKind::LockAcquire => ("lock_acquire", "lock"),
        EventKind::LockTry => ("lock_try", "lock"),
        EventKind::LockRelease => ("lock_release", "lock"),
        EventKind::Wait => ("wait", "sync"),
    }
}

impl Trace {
    /// Render the trace as Chrome `trace_event` JSON (object form,
    /// `{"traceEvents": […]}`) — load the output straight into
    /// Perfetto. The module docs in `perfetto.rs` describe the event
    /// mapping.
    pub fn to_perfetto(&self) -> String {
        // An exported event is ~140 bytes and a barrier pair exports
        // as one, so this is a single allocation for nearly any trace.
        let mut out = String::with_capacity(144 * (self.total_events() + self.n_pes()) + 128);
        let mut w = Writer::new(&mut out);
        w.begin_obj().key("displayTimeUnit").str("ns");
        w.key("otherData").begin_obj();
        w.key("clock").str(self.clock);
        w.key("pes").num(self.n_pes());
        w.key("dropped_events").num(self.total_dropped());
        w.end_obj();
        // One event per line: `[` and a newline, the events joined by
        // `,\n` (so the very first gets no `sep`), a newline and `]`.
        w.key("traceEvents").begin_arr().ws("\n");
        for (pe, p) in self.pes.iter().enumerate() {
            if pe > 0 {
                w.sep("\n");
            }
            w.begin_obj().key("name").str("thread_name").key("ph").str("M");
            w.key("pid").num(0).key("tid").num(pe);
            w.key("args").begin_obj().key("name").str(format_args!("PE {pe}")).end_obj();
            w.end_obj();
            let mut enter: Option<u64> = None;
            for e in &p.events {
                // Barrier slices span enter to exit; every other op is
                // instantaneous (`"dur": 0`).
                let (from, dur) = match e.kind {
                    EventKind::BarrierEnter => {
                        enter = Some(e.t_ns);
                        continue;
                    }
                    EventKind::BarrierExit => {
                        let from = enter.take().unwrap_or(e.t_ns);
                        (from, Some(e.t_ns.saturating_sub(from)))
                    }
                    _ => (e.t_ns, None),
                };
                complete_slice(w.sep("\n"), e.kind, from, dur, pe);
                w.key("args").begin_obj();
                match dur {
                    Some(wait_ns) => w.key("seq").num(e.seq).key("wait_ns").num(wait_ns),
                    None => {
                        w.key("peer").num(e.peer).key("addr").num(e.addr);
                        w.key("bytes").num(e.bytes).key("seq").num(e.seq)
                    }
                };
                w.end_obj().end_obj();
            }
            // An enter with no exit (stream truncated by the buffer
            // bound): keep the op visible as a zero-duration slice.
            if let Some(from) = enter {
                complete_slice(w.sep("\n"), EventKind::BarrierEnter, from, None, pe);
                w.key("args").begin_obj().key("truncated").bool(true).end_obj().end_obj();
            }
        }
        w.ws("\n").end_arr().end_obj();
        out
    }
}

/// The fields every `"ph": "X"` slice opens with, leaving the object
/// open for its `args`. `dur_ns` is `None` for an instantaneous op.
fn complete_slice(w: &mut Writer, kind: EventKind, from_ns: u64, dur_ns: Option<u64>, pe: usize) {
    let (name, cat) = slice_kind(kind);
    w.begin_obj().key("name").str(name).key("cat").str(cat).key("ph").str("X");
    w.key("ts").num(Us(from_ns));
    match dur_ns {
        Some(ns) => w.key("dur").num(Us(ns)),
        None => w.key("dur").num(0),
    };
    w.key("pid").num(0).key("tid").num(pe);
}

#[cfg(test)]
mod tests {
    use crate::{ClockMode, EventKind, Trace, TraceBuffer};

    fn sample() -> Trace {
        let mut a = TraceBuffer::new(0, 64);
        a.record(EventKind::Put, 1, 3, 8, 1500);
        a.record(EventKind::BarrierEnter, 0, 0, 0, 2000);
        a.record(EventKind::BarrierExit, 0, 0, 0, 5250);
        let mut b = TraceBuffer::new(1, 64);
        b.record(EventKind::Get, 0, 3, 8, 900);
        b.record(EventKind::LockAcquire, 0, 7, 0, 1000);
        Trace::new(ClockMode::Virtual, vec![a.finish(5250), b.finish(1000)])
    }

    #[test]
    fn every_remote_op_is_one_complete_event() {
        let t = sample();
        let json = t.to_perfetto();
        // 2 data ops + 1 lock + 1 barrier pair = 4 "X" slices.
        assert_eq!(json.matches("\"ph\": \"X\"").count(), 4);
        assert_eq!(json.matches("\"cat\": \"comm\"").count(), 2);
        assert_eq!(json.matches("\"ph\": \"M\"").count(), 2, "one thread_name per PE");
        assert!(json.contains("\"name\": \"put\""));
        assert!(json.contains("\"name\": \"lock_acquire\""));
    }

    #[test]
    fn barrier_pairs_become_real_duration_slices() {
        let json = sample().to_perfetto();
        // Enter at 2000ns, exit at 5250ns → ts 2.000µs, dur 3.250µs.
        assert!(json.contains("\"ts\": 2.000, \"dur\": 3.250"), "{json}");
        assert!(json.contains("\"wait_ns\": 3250"));
    }

    #[test]
    fn unmatched_barrier_enter_stays_visible() {
        let mut a = TraceBuffer::new(0, 64);
        a.record(EventKind::BarrierEnter, 0, 0, 0, 100);
        let t = Trace::new(ClockMode::Wall, vec![a.finish(100)]);
        let json = t.to_perfetto();
        assert!(json.contains("\"truncated\": true"), "{json}");
    }

    #[test]
    fn header_carries_clock_and_drop_accounting() {
        let json = sample().to_perfetto();
        assert!(json.starts_with("{\"displayTimeUnit\": \"ns\""));
        assert!(json.contains("\"clock\": \"virtual\""));
        assert!(json.contains("\"pes\": 2"));
        assert!(json.trim_end().ends_with("]}"));
    }
}
