//! Property battery for the writer's escaping: every string, however
//! hostile, must come back from the parser exactly as it went in.

use lol_json::{escape, parse, Writer};
use proptest::prelude::*;

/// Strings biased towards what breaks escapers: quotes, backslashes,
/// every control character, DEL, the JavaScript line separators and
/// astral-plane scalars, mixed with arbitrary chars.
fn adversarial() -> BoxedStrategy<String> {
    let mut specials: Vec<char> = (0u8..0x20).map(char::from).collect();
    specials.extend(['"', '\\', '/', '\u{7f}', '\u{2028}', '\u{2029}', '😀', '\u{10ffff}']);
    let ch = prop_oneof![proptest::sample::select(specials), any::<char>()];
    proptest::collection::vec(ch, 0..64).prop_map(|chars| chars.into_iter().collect()).boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Escaping is total and always reparses to the same string —
    /// including control characters, quotes, and astral-plane chars.
    #[test]
    fn json_escape_round_trips(s in adversarial()) {
        let quoted = format!("\"{}\"", escape(&s));
        let parsed = parse(&quoted).unwrap();
        prop_assert_eq!(parsed.as_str(), Some(s.as_str()));
    }

    /// The same strings as keys, `&str` values and formatted values
    /// of a written object.
    #[test]
    fn writer_strings_round_trip(key in adversarial(), value in adversarial()) {
        let mut out = String::new();
        let mut w = Writer::new(&mut out);
        w.begin_obj().key("k").str(&key).key("d").str(format_args!("{value}"));
        w.key(&format!("{key}!")).bool(true).end_obj();
        let doc = parse(&out).unwrap();
        prop_assert_eq!(doc.get("k").and_then(|v| v.as_str()), Some(key.as_str()));
        prop_assert_eq!(doc.get("d").and_then(|v| v.as_str()), Some(value.as_str()));
        prop_assert_eq!(doc.get(&format!("{key}!")).and_then(|v| v.as_bool()), Some(true));
    }
}
