//! The streaming writer: one place that knows how JSON text is spelled.
//!
//! [`Writer`] appends straight into a caller's `String` — there is no
//! intermediate value tree, so a report renders with no allocation
//! beyond the output buffer's own growth. The writer tracks exactly one
//! bit of state, whether the next item needs a separator, which is
//! enough for any nesting: opening a container clears it, finishing an
//! item (a value or a closed container) sets it.
//!
//! The layout is fixed: `", "` between items and `": "` after keys,
//! all on one line. Documents that want line breaks (the sweep report,
//! the Perfetto export) write them between calls with [`Writer::sep`]
//! and [`Writer::ws`].

use std::fmt::{self, Display, Write as _};

/// Escape `s` for embedding in a JSON string literal: `"` and `\`,
/// the short escapes `\n` `\r` `\t`, and `\u00xx` for every other
/// control character below U+0020. Everything else, including DEL and
/// U+2028, is copied through as UTF-8.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    escape_into(&mut out, s);
    out
}

fn escape_into(out: &mut String, s: &str) {
    // Copy plain runs as slices. Every escaped character is ASCII, so a
    // run boundary never splits a multi-byte scalar (those bytes are
    // all >= 0x80).
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let short = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        out.push_str(&s[run..i]);
        out.push_str(short);
        if short.is_empty() {
            let _ = write!(out, "\\u{b:04x}");
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
}

/// `fmt::Write` adapter that escapes whatever is formatted through it.
struct Escaper<'a>(&'a mut String);

impl fmt::Write for Escaper<'_> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        escape_into(self.0, s);
        Ok(())
    }
}

/// A streaming JSON writer over a caller's `String`.
///
/// Items are written in document order; the writer puts `", "` before
/// every item that follows another in the same container and `": "`
/// after every key. It does not check nesting — an emitter that closes
/// what it opens produces valid JSON.
///
/// ```
/// let mut out = String::new();
/// let mut w = lol_json::Writer::new(&mut out);
/// w.begin_obj();
/// w.key("pes").num(4);
/// w.key("outputs").begin_arr().str("a").str("b").end_arr();
/// w.key("speedup").fixed(None, 4);
/// w.end_obj();
/// assert_eq!(out, r#"{"pes": 4, "outputs": ["a", "b"], "speedup": null}"#);
/// ```
pub struct Writer<'a> {
    out: &'a mut String,
    /// The last thing written was a complete item, so the next key or
    /// value needs a separator first.
    after_item: bool,
}

impl<'a> Writer<'a> {
    /// A writer appending to `out` (whatever `out` already holds is
    /// kept; the first item gets no separator).
    pub fn new(out: &'a mut String) -> Self {
        Writer { out, after_item: false }
    }

    /// Start an item: write the separator it is owed and hand back the
    /// buffer. Whatever follows counts as a complete item unless the
    /// caller opens a container or writes a key.
    fn item(&mut self) -> &mut String {
        if self.after_item {
            self.out.push_str(", ");
        }
        self.after_item = true;
        self.out
    }

    fn open(&mut self, bracket: char) -> &mut Self {
        self.item().push(bracket);
        self.after_item = false;
        self
    }

    fn close(&mut self, bracket: char) -> &mut Self {
        self.out.push(bracket);
        self.after_item = true;
        self
    }

    /// Open an object (`{`).
    pub fn begin_obj(&mut self) -> &mut Self {
        self.open('{')
    }

    /// Close the open object (`}`).
    pub fn end_obj(&mut self) -> &mut Self {
        self.close('}')
    }

    /// Open an array (`[`).
    pub fn begin_arr(&mut self) -> &mut Self {
        self.open('[')
    }

    /// Close the open array (`]`).
    pub fn end_arr(&mut self) -> &mut Self {
        self.close(']')
    }

    /// An object key; the next call writes its value.
    pub fn key(&mut self, key: &str) -> &mut Self {
        let out = self.item();
        out.push('"');
        escape_into(out, key);
        out.push_str("\": ");
        self.after_item = false;
        self
    }

    /// A string value: `s`'s `Display` text, escaped as it is
    /// formatted (a `&str` is copied through; other values need no
    /// intermediate `String`).
    pub fn str(&mut self, s: impl Display) -> &mut Self {
        let out = self.item();
        out.push('"');
        // Writing into a String cannot fail.
        let _ = write!(Escaper(out), "{s}");
        out.push('"');
        self
    }

    /// A number written as `v`'s `Display` text: an integer, or text
    /// already in JSON number syntax (such as a fixed-point rendering
    /// of an integer count). Never pass a float here — use
    /// [`Writer::fixed`], which knows what to do with NaN.
    pub fn num(&mut self, v: impl Display) -> &mut Self {
        let _ = write!(self.item(), "{v}");
        self
    }

    /// A float with exactly `decimals` digits after the point
    /// (`format!("{v:.4}")` for `decimals == 4`). A missing value, NaN
    /// and the infinities have no JSON number spelling: they are
    /// written as `null`.
    pub fn fixed(&mut self, v: impl Into<Option<f64>>, decimals: usize) -> &mut Self {
        let _ = match v.into() {
            Some(v) if v.is_finite() => write!(self.item(), "{v:.decimals$}"),
            _ => self.item().write_str("null"),
        };
        self
    }

    /// `true` or `false`.
    pub fn bool(&mut self, b: bool) -> &mut Self {
        self.item().push_str(if b { "true" } else { "false" });
        self
    }

    /// Write the separator owed before the next item now, with `ws` as
    /// its whitespace: `,` then `ws` after an item, bare `ws` at the
    /// start of a container. The next item then writes no separator of
    /// its own. This is how a document breaks lines between items.
    pub fn sep(&mut self, ws: &str) -> &mut Self {
        if self.after_item {
            self.out.push(',');
        }
        self.out.push_str(ws);
        self.after_item = false;
        self
    }

    /// Layout whitespace written as is, leaving the separator state
    /// alone — for line breaks before a closing bracket or after the
    /// document.
    pub fn ws(&mut self, ws: &str) -> &mut Self {
        self.out.push_str(ws);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    fn written(f: impl FnOnce(&mut Writer)) -> String {
        let mut out = String::new();
        f(&mut Writer::new(&mut out));
        out
    }

    #[test]
    fn escape_spells_every_special() {
        assert_eq!(escape("a\"b\\c\nd\re\tf"), "a\\\"b\\\\c\\nd\\re\\tf");
        assert_eq!(escape("\u{1}\u{1f}"), "\\u0001\\u001f");
        assert_eq!(escape("\u{7f}\u{2028}😀é"), "\u{7f}\u{2028}😀é", "non-controls pass through");
        assert_eq!(escape(""), "");
    }

    #[test]
    fn separators_follow_nesting() {
        let out = written(|w| {
            w.begin_obj();
            w.key("a").begin_arr().end_arr();
            w.key("b").begin_obj().key("c").num(1).key("d").bool(false).end_obj();
            w.key("e").begin_arr().begin_obj().end_obj().fixed(None, 2).end_arr();
            w.end_obj();
        });
        assert_eq!(out, r#"{"a": [], "b": {"c": 1, "d": false}, "e": [{}, null]}"#);
        parse(&out).unwrap();
    }

    #[test]
    fn numbers_keep_their_text() {
        let out = written(|w| {
            w.begin_arr();
            w.num(u64::MAX).num(u128::MAX).num(-3i64).num(format_args!("{}.{:03}", 2, 50));
            w.fixed(1.0 / 3.0, 4).fixed(2.0, 2).fixed(f64::NAN, 4).fixed(f64::INFINITY, 2);
            w.fixed(None, 4);
            w.end_arr();
        });
        assert_eq!(
            out,
            "[18446744073709551615, 340282366920938463463374607431768211455, -3, 2.050, \
             0.3333, 2.00, null, null, null]"
        );
        parse(&out).unwrap();
    }

    #[test]
    fn formatted_values_are_escaped_as_they_are_written() {
        let out = written(|w| {
            w.begin_obj().key("k\"ey").str(format_args!("{}\n{}", "x\"", 7)).end_obj();
        });
        assert_eq!(out, r#"{"k\"ey": "x\"\n7"}"#);
        assert_eq!(parse(&out).unwrap().get("k\"ey").unwrap().as_str(), Some("x\"\n7"));
    }

    #[test]
    fn sep_and_ws_lay_out_lines() {
        let doc = |n: usize| {
            written(|w| {
                w.begin_obj().sep("\n  ").key("n").num(n).sep("\n  ").key("items").begin_arr();
                for i in 0..n {
                    w.sep("\n    ").num(i);
                }
                w.ws("\n  ").end_arr().ws("\n").end_obj().ws("\n");
            })
        };
        assert_eq!(doc(0), "{\n  \"n\": 0,\n  \"items\": [\n  ]\n}\n");
        assert_eq!(doc(2), "{\n  \"n\": 2,\n  \"items\": [\n    0,\n    1\n  ]\n}\n");
        parse(&doc(2)).unwrap();
    }

    #[test]
    fn appends_after_existing_text() {
        let mut out = String::from("prefix ");
        Writer::new(&mut out).str("a").str("b");
        assert_eq!(out, r#"prefix "a", "b""#);
    }
}
