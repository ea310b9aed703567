//! Property/fuzz battery for the hand-rolled HTTP and JSON parsers.
//!
//! Both parsers sit on the service's hostile edge: anything a socket
//! can deliver must come back as a structured error — never a panic,
//! never an unbounded loop, never an over-allocation. The generators
//! mix pure byte soup, *almost*-valid requests (valid prefixes +
//! mutations), and pathological-by-construction shapes (huge
//! Content-Length claims, deep JSON nesting, duplicate keys).

use std::io::BufReader;

use lol_serve::http::{read_request, HttpError};
use lol_serve::json::{self, Json};
use proptest::prelude::*;

fn parse_http(
    bytes: &[u8],
    max_body: usize,
) -> Result<Option<lol_serve::http::Request>, HttpError> {
    read_request(&mut BufReader::new(bytes), max_body)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Raw byte soup: the HTTP reader returns, with *some* verdict,
    /// on any input.
    #[test]
    fn http_never_panics_on_byte_soup(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = parse_http(&bytes, 1024);
    }

    /// Truncating a valid request at any byte must yield either a
    /// clean parse (cut fell after a whole request), `Closed`, or a
    /// clean EOF — never a panic or a bogus success.
    #[test]
    fn http_truncations_fail_clean(cut in 0usize..100) {
        let full: &[u8] = b"POST /run HTTP/1.1\r\nHost: x\r\nContent-Length: 11\r\n\r\n{\"a\": true}";
        let body = &full[..cut.min(full.len())];
        match parse_http(body, 1024) {
            Ok(Some(req)) => prop_assert_eq!(req.body.len(), 11),
            Ok(None) => prop_assert_eq!(cut, 0, "clean EOF only before any byte"),
            Err(e) => prop_assert!(
                matches!(e, HttpError::Closed),
                "truncation at {} must be Closed, got {:?}", cut, e
            ),
        }
    }

    /// Pathological Content-Length claims never allocate the claimed
    /// size: either a `BadLength`, or a `BodyTooLarge` whose handling
    /// reads at most cap + slack bytes.
    #[test]
    fn http_content_length_claims_are_bounded(claim in any::<u64>()) {
        let raw = format!("POST /run HTTP/1.1\r\nContent-Length: {claim}\r\n\r\n");
        match parse_http(raw.as_bytes(), 64) {
            Ok(Some(req)) => prop_assert!(req.body.len() <= 64),
            Ok(None) => prop_assert!(false, "nonempty input cannot be clean EOF"),
            Err(HttpError::BodyTooLarge { declared, .. }) => prop_assert_eq!(declared, claim),
            Err(HttpError::Closed) => prop_assert!(claim <= 64, "small claim, truncated body"),
            Err(e) => prop_assert!(false, "unexpected verdict: {:?}", e),
        }
    }

    /// JSON text soup (printable + multi-byte chars): parse returns a
    /// verdict on anything.
    #[test]
    fn json_never_panics_on_soup(s in ".{0,200}") {
        let _ = json::parse(&s);
    }

    /// Arbitrarily deep nesting is rejected at the depth bound — by
    /// error, not by stack overflow.
    #[test]
    fn json_depth_is_bounded(depth in 1usize..600) {
        let doc = format!("{}1{}", "[".repeat(depth), "]".repeat(depth));
        let result = json::parse(&doc);
        if depth <= 60 {
            prop_assert!(result.is_ok(), "depth {} should parse", depth);
        } else if depth > 64 {
            prop_assert!(result.is_err(), "depth {} must hit the bound", depth);
        }
    }
}

/// The malformed-request corpus: every case is one handcrafted wire
/// image with its required verdict. Grows whenever a fuzz run or a
/// production log turns up a new way to be wrong.
#[test]
fn malformed_request_corpus() {
    #[rustfmt::skip]
    let corpus: &[(&[u8], &str)] = &[
        (b"\r\n", "empty request line"),
        (b"\x00\x01\x02\x03\r\n\r\n", "binary garbage"),
        (b"POST\r\n\r\n", "method only"),
        (b"POST /run\r\n\r\n", "missing version"),
        (b"POST /run HTTP/2\r\n\r\n", "unsupported version"),
        (b"post /run HTTP/1.1\r\n\r\n", "lowercase method"),
        (b"POST  /run HTTP/1.1\r\n\r\n", "double space"),
        (b"POST /run HTTP/1.1\r\nColon missing\r\n\r\n", "header without colon"),
        (b"POST /run HTTP/1.1\r\nbad header: x\r\n\r\n", "space in header name"),
        (b"POST /run HTTP/1.1\r\n: empty-name\r\n\r\n", "empty header name"),
        (b"POST /run HTTP/1.1\r\nContent-Length: -1\r\n\r\n", "negative length"),
        (b"POST /run HTTP/1.1\r\nContent-Length: 1e3\r\n\r\n", "scientific length"),
        (b"POST /run HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 2\r\n\r\nxx", "duplicate length"),
        (b"POST /run HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n", "chunked"),
        (b"GET /healthz HTTP/1.1\r\nH\xc3\xa9ader: x\r\n\r\n", "non-ascii header name ok as bytes but parsed"),
    ];
    for (raw, what) in corpus {
        match parse_http(raw, 1024) {
            Err(e) => {
                assert!(!matches!(e, HttpError::Idle), "{what}: Idle is not a parse verdict");
            }
            Ok(opt) => {
                // A handful of corpus entries are *survivable* (header
                // names are only checked for structure, not charset) —
                // what matters is the parser stayed bounded and total.
                assert!(opt.is_some(), "{what}: cannot be clean EOF");
            }
        }
    }
}

/// Duplicate keys are a parse error at every depth, not a
/// last-writer-wins footgun.
#[test]
fn json_duplicate_keys_rejected_everywhere() {
    for doc in
        [r#"{"a": 1, "a": 2}"#, r#"{"outer": {"a": 1, "a": 2}}"#, r#"[{"x": true, "x": false}]"#]
    {
        assert!(json::parse(doc).is_err(), "{doc}");
    }
}

/// The JSON subset the service needs, positively: request-shaped
/// documents parse into the expected tree.
#[test]
fn json_request_shapes_parse() {
    let doc = r#"{"source": "HAI\n", "pes": 8, "timing": false,
                  "input": ["a", "b"], "nested": {"k": [1, 2.5, -3e2, null]}}"#;
    let v = json::parse(doc).unwrap();
    assert_eq!(v.get("pes").and_then(Json::as_u64), Some(8));
    assert_eq!(v.get("timing").and_then(Json::as_bool), Some(false));
    assert_eq!(v.get("input").and_then(Json::as_arr).map(<[Json]>::len), Some(2));
}
