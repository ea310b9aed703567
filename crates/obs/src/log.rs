//! Structured JSONL event logging (`lold --access-log`).
//!
//! One JSON object per line, append-only, flushed per event so a
//! `tail -f` (or a crashed daemon) never sees a torn record. Every
//! event automatically carries a `ts_ms` wall-clock timestamp
//! (milliseconds since the Unix epoch); callers supply the rest as
//! typed [`Field`]s, so the writer — not fifteen call sites — owns the
//! JSON escaping.

use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::Mutex;
use std::time::{SystemTime, UNIX_EPOCH};

use lol_json::Writer;

/// One typed value in an event record.
#[derive(Clone, Copy, Debug)]
pub enum Field<'a> {
    /// A JSON string (escaped by the writer).
    Str(&'a str),
    /// An unsigned integer.
    U64(u64),
}

/// A shared, append-only JSONL sink.
pub struct EventLog {
    w: Mutex<BufWriter<Box<dyn Write + Send>>>,
}

impl EventLog {
    /// Open (create or append to) the log file at `path`.
    pub fn create(path: &Path) -> io::Result<Self> {
        let file = std::fs::OpenOptions::new().create(true).append(true).open(path)?;
        Ok(EventLog::from_writer(Box::new(file)))
    }

    /// Wrap an arbitrary writer (tests use an in-memory buffer).
    pub fn from_writer(w: Box<dyn Write + Send>) -> Self {
        EventLog { w: Mutex::new(BufWriter::new(w)) }
    }

    /// Append one event. Write errors are reported, not panicked —
    /// the caller decides whether a full disk should take the service
    /// down (for an opt-in access log it should not).
    pub fn log(&self, fields: &[(&str, Field<'_>)]) -> io::Result<()> {
        let ts_ms =
            SystemTime::now().duration_since(UNIX_EPOCH).map(|d| d.as_millis() as u64).unwrap_or(0);
        let mut line = String::with_capacity(64);
        let mut w = Writer::new(&mut line);
        w.begin_obj().key("ts_ms").num(ts_ms);
        for (key, value) in fields {
            w.key(key);
            match value {
                Field::Str(s) => w.str(s),
                Field::U64(n) => w.num(n),
            };
        }
        w.end_obj().ws("\n");
        let mut sink = self.w.lock().unwrap();
        sink.write_all(line.as_bytes())?;
        sink.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex as StdMutex};

    /// A Write that appends into a shared Vec so the test can read
    /// back what the log wrote.
    #[derive(Clone)]
    struct Sink(Arc<StdMutex<Vec<u8>>>);

    impl Write for Sink {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn events_are_one_json_object_per_line() {
        let sink = Sink(Arc::new(StdMutex::new(Vec::new())));
        let log = EventLog::from_writer(Box::new(sink.clone()));
        log.log(&[
            ("method", Field::Str("POST")),
            ("path", Field::Str("/run")),
            ("status", Field::U64(200)),
            ("dur_ns", Field::U64(123_456)),
        ])
        .unwrap();
        log.log(&[("path", Field::Str("/weird\"quote\nline"))]).unwrap();

        let bytes = sink.0.lock().unwrap().clone();
        let text = String::from_utf8(bytes).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in &lines {
            assert!(line.starts_with("{\"ts_ms\": "), "every record opens with the timestamp");
            assert!(line.ends_with('}'));
        }
        assert!(lines[0].contains("\"status\": 200"));
        assert!(lines[0].contains("\"dur_ns\": 123456"));
        assert!(lines[1].contains("/weird\\\"quote\\nline"));
    }
}
