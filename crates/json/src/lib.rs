//! # lol-json — the toolchain's one JSON reader and one JSON writer
//!
//! Every JSON document the toolchain reads or writes goes through this
//! crate: `lolrun --json`/`--json-lines`, sweep reports, `lold`'s
//! request bodies and replies, the access log, `lold-bench` reports and
//! the Perfetto trace export. Std-only and dependency-free, so every
//! other crate can sit on top of it.
//!
//! * [`parse`] is the strict, total parser: any input yields a [`Json`]
//!   value or a [`JsonError`], never a panic (see the [`Json`] docs for
//!   the strictness rules).
//! * [`Writer`] streams a document into a caller's `String`. It owns
//!   quoting, escaping, the `", "` / `": "` separators and number text,
//!   so the emitters only name keys and values — and every emitter
//!   produces the same bytes for the same shape.
//!
//! ```
//! let mut out = String::new();
//! let mut w = lol_json::Writer::new(&mut out);
//! w.begin_obj();
//! w.key("ok").bool(true);
//! w.key("error").str("quote \" and newline \n");
//! w.key("ratio").fixed(0.5, 4);
//! w.end_obj();
//! assert_eq!(out, r#"{"ok": true, "error": "quote \" and newline \n", "ratio": 0.5000}"#);
//! let back = lol_json::parse(&out).unwrap();
//! assert_eq!(back.get("error").unwrap().as_str(), Some("quote \" and newline \n"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod json;
mod write;

pub use json::{parse, Json, JsonError, MAX_DEPTH};
pub use write::{escape, Writer};
