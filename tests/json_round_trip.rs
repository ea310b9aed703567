//! Every JSON emitter, read back through the one parser.
//!
//! Each emitter writes through `lol_json::Writer`; these properties
//! check the whole path end to end: hostile strings placed where an
//! emitter embeds text (program output, error messages, access-log
//! fields) must parse with `lol_json::parse` and come back exactly,
//! and a Perfetto export of any event stream must parse with every
//! event accounted for.

use std::io::{self, Write};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use lol_obs::{EventLog, Field};
use lol_serve::api::ApiError;
use lol_serve::json::{parse, Json};
use lol_trace::{ClockMode, EventKind, Trace, TraceBuffer};
use lolcode::service::run_report_json;
use lolcode::{
    compile, corpus, engine_for, jsonl_record, Backend, LolError, RunConfig, RunReport, SweepEntry,
    SweepReport,
};
use proptest::prelude::*;

/// Strings biased towards what breaks escapers: quotes, backslashes,
/// every control character, DEL, the JavaScript line separators and
/// astral-plane scalars, mixed with arbitrary chars.
fn adversarial() -> BoxedStrategy<String> {
    let mut specials: Vec<char> = (0u8..0x20).map(char::from).collect();
    specials.extend(['"', '\\', '/', '\u{7f}', '\u{2028}', '\u{2029}', '😀', '\u{10ffff}']);
    let ch = prop_oneof![proptest::sample::select(specials), any::<char>()];
    proptest::collection::vec(ch, 0..48).prop_map(|chars| chars.into_iter().collect()).boxed()
}

fn hello_report() -> RunReport {
    let artifact = compile(corpus::HELLO_PARALLEL).unwrap();
    let cfg = RunConfig::new(2).backend(Backend::Vm).timeout(Duration::from_secs(30));
    engine_for(Backend::Vm).run(&artifact, &cfg).unwrap()
}

fn field<'a>(doc: &'a Json, key: &str) -> &'a Json {
    doc.get(key).unwrap_or_else(|| panic!("no {key:?} in {doc:?}"))
}

/// A `Write` that appends into a shared buffer.
#[derive(Clone)]
struct Sink(Arc<Mutex<Vec<u8>>>);

impl Write for Sink {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

const KINDS: [EventKind; 11] = [
    EventKind::Put,
    EventKind::Get,
    EventKind::Amo,
    EventKind::BlockPut,
    EventKind::BlockGet,
    EventKind::BarrierEnter,
    EventKind::BarrierExit,
    EventKind::LockAcquire,
    EventKind::LockTry,
    EventKind::LockRelease,
    EventKind::Wait,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Program output in the run report, stable and timing forms.
    #[test]
    fn run_report_outputs_round_trip(a in adversarial(), b in adversarial()) {
        let mut report = hello_report();
        report.outputs = vec![a.clone(), b.clone()];
        for timing in [false, true] {
            let doc = parse(&run_report_json(&report, timing)).unwrap();
            let outputs = field(&doc, "outputs").as_arr().unwrap();
            prop_assert_eq!(outputs[0].as_str(), Some(a.as_str()));
            prop_assert_eq!(outputs[1].as_str(), Some(b.as_str()));
        }
    }

    /// Error messages in both sweep report forms and the JSONL record.
    #[test]
    fn sweep_error_messages_round_trip(msg in adversarial()) {
        let config = RunConfig::new(2);
        let err = LolError::Config(msg.clone());
        let record = parse(&jsonl_record(0, &config, &Err(err.clone()))).unwrap();
        prop_assert_eq!(field(&record, "error").as_str(), Some(msg.as_str()));
        let report = SweepReport {
            entries: vec![SweepEntry {
                config,
                result: Err(err),
                speedup: None,
                efficiency: None,
                vs_interp: None,
            }],
            jobs: 1,
            total_wall: Duration::from_millis(1),
        };
        for text in [report.to_json(), report.to_json_stable()] {
            let doc = parse(&text).unwrap();
            let entry = &field(&doc, "entries").as_arr().unwrap()[0];
            prop_assert_eq!(field(entry, "error").as_str(), Some(msg.as_str()));
            prop_assert_eq!(field(entry, "ok").as_bool(), Some(false));
        }
    }

    /// The service's error envelope.
    #[test]
    fn api_error_bodies_round_trip(msg in adversarial()) {
        let e = ApiError { status: 400, code: "SRV0111", message: msg.clone() };
        let doc = parse(&e.body()).unwrap();
        prop_assert_eq!(field(&doc, "error").as_str(), Some(msg.as_str()));
        prop_assert_eq!(field(&doc, "code").as_str(), Some("SRV0111"));
    }

    /// Access-log lines, with hostile values and keys.
    #[test]
    fn event_log_lines_round_trip(value in adversarial(), key in adversarial()) {
        let sink = Sink(Arc::new(Mutex::new(Vec::new())));
        let log = EventLog::from_writer(Box::new(sink.clone()));
        let key = format!("k{key}");
        log.log(&[("path", Field::Str(&value)), (&key, Field::U64(u64::MAX))]).unwrap();
        let text = String::from_utf8(sink.0.lock().unwrap().clone()).unwrap();
        prop_assert_eq!(text.lines().count(), 1);
        let doc = parse(&text).unwrap();
        prop_assert_eq!(field(&doc, "path").as_str(), Some(value.as_str()));
        prop_assert_eq!(field(&doc, &key).as_u64(), Some(u64::MAX));
        prop_assert!(field(&doc, "ts_ms").as_u64().is_some());
    }

    /// A Perfetto export of any event stream: one `M` event per PE and
    /// one `X` slice per op (a barrier pair is one slice, an unmatched
    /// enter still one), timestamps exact to the nanosecond.
    #[test]
    fn perfetto_exports_parse(
        streams in proptest::collection::vec(
            proptest::collection::vec((0usize..11, 0usize..8, any::<u64>()), 0..24),
            1..4,
        ),
    ) {
        let mut pes = Vec::new();
        let mut slices = 0;
        let mut op_ts = Vec::new();
        for (pe, stream) in streams.iter().enumerate() {
            let mut buf = TraceBuffer::new(pe, 64);
            let mut open = false;
            for &(k, peer, t_ns) in stream {
                let kind = KINDS[k];
                buf.record(kind, peer, t_ns as u32, 8, t_ns);
                match kind {
                    EventKind::BarrierEnter => open = true,
                    EventKind::BarrierExit => {
                        slices += 1;
                        open = false;
                    }
                    _ => {
                        slices += 1;
                        op_ts.push(format!("{}.{:03}", t_ns / 1000, t_ns % 1000));
                    }
                }
            }
            slices += usize::from(open);
            pes.push(buf.finish(0));
        }
        let trace = Trace::new(ClockMode::Virtual, pes);
        let doc = parse(&trace.to_perfetto()).unwrap();
        let events = field(&doc, "traceEvents").as_arr().unwrap();
        let phase = |ph: &str| events.iter().filter(|e| field(e, "ph").as_str() == Some(ph)).count();
        prop_assert_eq!(phase("M"), streams.len());
        prop_assert_eq!(phase("X"), slices);
        prop_assert_eq!(field(field(&doc, "otherData"), "pes").as_usize(), Some(streams.len()));
        let mut got_ts: Vec<String> = events
            .iter()
            .filter(|e| field(e, "ph").as_str() == Some("X"))
            .filter(|e| field(e, "name").as_str() != Some("barrier"))
            .map(|e| match field(e, "ts") {
                Json::Num(raw) => raw.clone(),
                other => panic!("ts is not a number: {other:?}"),
            })
            .collect();
        got_ts.sort();
        op_ts.sort();
        prop_assert_eq!(got_ts, op_ts);
    }
}
