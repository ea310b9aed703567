//! A small, strict, dependency-free JSON parser for request bodies.
//!
//! The service never trusts a client: inputs are bounded before they
//! reach this module (the HTTP layer enforces the body-size quota),
//! and the parser itself is **total** — any byte sequence produces
//! either a [`Json`] value or a [`JsonError`], never a panic, never
//! unbounded work (nesting is capped at [`MAX_DEPTH`]). Strictness
//! choices that matter for a service:
//!
//! * **Duplicate keys are an error.** `{"pes": 1, "pes": 64000}`
//!   is a smuggling vector (which one did the quota check see?), so
//!   it is rejected outright instead of last-one-wins.
//! * **Numbers keep their raw text.** A `u64` seed round-trips
//!   exactly; nothing is forced through `f64`.
//! * **Exactly one value per body.** Trailing non-whitespace is an
//!   error.

/// Nesting cap: arrays/objects deeper than this are rejected (a
/// 10 kB body of `[[[[…` must not recurse 5 000 frames).
pub const MAX_DEPTH: usize = 64;

/// A parsed JSON value. Object fields keep their textual order.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number, kept as its raw text (see [`Json::as_u64`] etc.).
    Num(String),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in field order. Keys are unique (duplicates are a
    /// parse error).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object field lookup (None for missing fields or non-objects).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean payload, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Parse the raw number as `u64` (exact; no float round-trip).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// Parse the raw number as `usize`.
    pub fn as_usize(&self) -> Option<usize> {
        match self {
            Json::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The array elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The object fields, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(fields) => Some(fields),
            _ => None,
        }
    }
}

/// A parse failure: what went wrong and the byte offset it happened
/// at. Always a client error (HTTP 400).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// Human-readable description.
    pub message: String,
    /// Byte offset into the input.
    pub offset: usize,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "BAD JSON AT BYTE {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Parse exactly one JSON value from `input` (leading/trailing
/// whitespace allowed, anything else after the value is an error).
pub fn parse(input: &str) -> Result<Json, JsonError> {
    let mut p = Parser { src: input, bytes: input.as_bytes(), pos: 0 };
    p.skip_ws();
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("TRAILING GARBAGE AFTER DA VALUE"));
    }
    Ok(value)
}

struct Parser<'a> {
    src: &'a str,
    /// `src` as bytes: the grammar's punctuation is all ASCII.
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> JsonError {
        JsonError { message: msg.to_string(), offset: self.pos }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8, what: &str) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(what))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("NESTED 2 DEEP"));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal(b"true", Json::Bool(true)),
            Some(b'f') => self.literal(b"false", Json::Bool(false)),
            Some(b'n') => self.literal(b"null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(_) => Err(self.err("EXPECTED A JSON VALUE")),
            None => Err(self.err("UNEXPECTED END OF INPUT")),
        }
    }

    fn literal(&mut self, text: &[u8], value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(text) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(self.err("EXPECTED A JSON VALUE"))
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.eat(b'{', "EXPECTED {")?;
        let mut fields: Vec<(String, Json)> = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string().map_err(|mut e| {
                e.message = format!("OBJECT KEY: {}", e.message);
                e
            })?;
            if fields.iter().any(|(k, _)| *k == key) {
                return Err(self.err(&format!("DUPLICATE OBJECT KEY {key:?}")));
            }
            self.skip_ws();
            self.eat(b':', "EXPECTED : AFTER OBJECT KEY")?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("EXPECTED , OR } IN OBJECT")),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.eat(b'[', "EXPECTED [")?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("EXPECTED , OR ] IN ARRAY")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"', "EXPECTED A STRING")?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("UNTERMINATED STRING")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            self.pos += 1;
                            let cp = self.hex4()?;
                            // Surrogate pairs: a high surrogate must be
                            // followed by \uXXXX low; lone surrogates
                            // are an error (never a panic).
                            let ch = if (0xD800..0xDC00).contains(&cp) {
                                if !self.bytes[self.pos..].starts_with(b"\\u") {
                                    return Err(self.err("LONE HIGH SURROGATE"));
                                }
                                self.pos += 2;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("BAD LOW SURROGATE"));
                                }
                                let c = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(c).ok_or_else(|| self.err("BAD SURROGATE PAIR"))?
                            } else {
                                char::from_u32(cp).ok_or_else(|| self.err("LONE SURROGATE"))?
                            };
                            out.push(ch);
                            // hex4 leaves pos past the 4 digits; the
                            // shared advance below is for 1-byte
                            // escapes, so compensate.
                            self.pos -= 1;
                        }
                        _ => return Err(self.err("BAD ESCAPE IN STRING")),
                    }
                    self.pos += 1;
                }
                Some(c) if c < 0x20 => return Err(self.err("RAW CONTROL CHAR IN STRING")),
                Some(_) => {
                    // Copy the whole unescaped run as one slice. It ends
                    // at an ASCII byte (or the end), never inside a
                    // multi-byte scalar, whose bytes are all >= 0x80.
                    let start = self.pos;
                    while matches!(self.peek(), Some(c) if c != b'"' && c != b'\\' && c >= 0x20) {
                        self.pos += 1;
                    }
                    out.push_str(&self.src[start..self.pos]);
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let hex = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| self.err("TRUNCATED \\u ESCAPE"))?;
        let s = std::str::from_utf8(hex).map_err(|_| self.err("BAD \\u ESCAPE"))?;
        let cp = u32::from_str_radix(s, 16).map_err(|_| self.err("BAD \\u ESCAPE"))?;
        self.pos += 4;
        Ok(cp)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let digits_from = self.pos;
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.pos == digits_from {
            return Err(self.err("EXPECTED DIGITS IN NUMBER"));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            let frac_from = self.pos;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
            if self.pos == frac_from {
                return Err(self.err("EXPECTED DIGITS AFTER ."));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            let exp_from = self.pos;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
            if self.pos == exp_from {
                return Err(self.err("EXPECTED DIGITS IN EXPONENT"));
            }
        }
        let raw = std::str::from_utf8(&self.bytes[start..self.pos])
            .expect("number bytes are ASCII")
            .to_string();
        Ok(Json::Num(raw))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::escape;

    #[test]
    fn parses_the_request_shapes() {
        let v =
            parse(r#"{"source": "HAI", "pes": 4, "input": ["a", "b"], "timing": true}"#).unwrap();
        assert_eq!(v.get("source").unwrap().as_str(), Some("HAI"));
        assert_eq!(v.get("pes").unwrap().as_usize(), Some(4));
        assert_eq!(v.get("timing").unwrap().as_bool(), Some(true));
        let input = v.get("input").unwrap().as_arr().unwrap();
        assert_eq!(input.len(), 2);
        assert_eq!(v.get("nope"), None);
    }

    #[test]
    fn numbers_round_trip_u64_exactly() {
        let v = parse("{\"seed\": 18446744073709551615}").unwrap();
        assert_eq!(v.get("seed").unwrap().as_u64(), Some(u64::MAX));
    }

    #[test]
    fn duplicate_keys_are_rejected() {
        let e = parse(r#"{"pes": 1, "pes": 64000}"#).unwrap_err();
        assert!(e.message.contains("DUPLICATE"), "{e}");
    }

    #[test]
    fn depth_is_bounded() {
        let deep = "[".repeat(MAX_DEPTH + 8) + &"]".repeat(MAX_DEPTH + 8);
        let e = parse(&deep).unwrap_err();
        assert!(e.message.contains("2 DEEP"), "{e}");
        // And a depth inside the cap parses fine.
        let ok = "[".repeat(MAX_DEPTH / 2) + &"]".repeat(MAX_DEPTH / 2);
        parse(&ok).unwrap();
    }

    #[test]
    fn escapes_and_surrogates() {
        let v = parse(r#""a\n\t\"\\A😀b""#).unwrap();
        assert_eq!(v.as_str(), Some("a\n\t\"\\A😀b"));
        assert!(parse(r#""\ud83d""#).is_err(), "lone high surrogate");
        assert!(parse(r#""\udc00""#).is_err(), "lone low surrogate");
        assert!(parse(r#""\q""#).is_err(), "unknown escape");
    }

    #[test]
    fn trailing_garbage_and_truncation_fail() {
        assert!(parse("{} x").is_err());
        assert!(parse("{\"a\": ").is_err());
        assert!(parse("[1, 2").is_err());
        assert!(parse("\"unterminated").is_err());
        assert!(parse("01").is_err() || parse("01").is_ok()); // lenient leading zero, but total
        assert!(parse("").is_err());
        assert!(parse("nul").is_err());
    }

    #[test]
    fn a_1_mib_string_parses_in_linear_time() {
        // One string field the size of lold's default body limit, with
        // multi-byte scalars and escapes mixed into the plain runs.
        let line = r"IM IN YR loop UPPIN YR i \u00e9 😀 é\n";
        let body = format!("{{\"source\": \"{}\"}}", line.repeat((1 << 20) / line.len()));
        let t = std::time::Instant::now();
        let v = parse(&body).unwrap();
        let elapsed = t.elapsed();
        let want = "IM IN YR loop UPPIN YR i é 😀 é\n".repeat((1 << 20) / line.len());
        assert_eq!(v.get("source").unwrap().as_str(), Some(want.as_str()));
        assert!(elapsed < std::time::Duration::from_secs(1), "took {elapsed:?}");
    }

    #[test]
    fn escape_round_trips_through_parse() {
        let nasty = "a\"b\\c\nd\te\u{1}f";
        let embedded = format!("\"{}\"", escape(nasty));
        assert_eq!(parse(&embedded).unwrap().as_str(), Some(nasty));
    }
}
