//! Property coverage for the hand-rolled wire codecs: the JSON value
//! round-trips through render/parse for arbitrary nested documents
//! (escapes, unicode, numeric edge cases), and the HTTP request parser
//! rejects malformed input with the right error class instead of
//! panicking or buffering without bound.

use std::io::BufReader;

use proptest::prelude::*;

use isrf_serve::http::{read_request, HttpError};
use isrf_serve::{Json, Limits};

// ---------------------------------------------------------------------------
// JSON round-trip
// ---------------------------------------------------------------------------

/// Tiny deterministic generator state (the vendored proptest has no
/// recursive/string strategies, so documents are built from a sampled
/// seed).
fn xorshift(s: &mut u64) -> u64 {
    let mut x = *s | 1;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *s = x;
    x
}

/// Characters chosen to exercise every escape path: quotes, backslashes,
/// control characters (short and \u-form), multi-byte UTF-8, and astral
/// plane codepoints that need surrogate pairs in \u escapes.
const PALETTE: [char; 16] = [
    'a',
    'Z',
    '9',
    ' ',
    '"',
    '\\',
    '/',
    '\n',
    '\r',
    '\t',
    '\u{0}',
    '\u{1f}',
    'é',
    'Ω',
    '中',
    '\u{1F600}',
];

fn gen_string(s: &mut u64) -> String {
    let len = (xorshift(s) % 12) as usize;
    (0..len)
        .map(|_| PALETTE[(xorshift(s) % PALETTE.len() as u64) as usize])
        .collect()
}

/// Numbers that stress the integer fast path, the shortest-round-trip
/// float path, exponents, and sign handling.
fn gen_num(s: &mut u64) -> f64 {
    const EDGES: [f64; 12] = [
        0.0,
        -0.0,
        1.0,
        -1.0,
        0.1,
        -2.5e-10,
        1e300,
        1e-300,
        9_007_199_254_740_993.0, // 2^53 + 1 (not exactly representable)
        9.223372036854776e18,    // just past i64::MAX
        -9.3e18,
        123456.789,
    ];
    match xorshift(s) % 4 {
        0 => EDGES[(xorshift(s) % EDGES.len() as u64) as usize],
        1 => (xorshift(s) as i64) as f64,       // huge integers
        2 => (xorshift(s) % 1000) as f64 / 8.0, // small exact fractions
        _ => f64::from_bits(xorshift(s) | 0x3ff0_0000_0000_0000) % 1e9, // messy mantissas
    }
}

fn gen_json(s: &mut u64, depth: u32) -> Json {
    let pick = if depth == 0 {
        xorshift(s) % 4 // leaves only
    } else {
        xorshift(s) % 6
    };
    match pick {
        0 => Json::Null,
        1 => Json::Bool(xorshift(s).is_multiple_of(2)),
        2 => {
            let n = gen_num(s);
            Json::Num(if n.is_finite() { n } else { 0.0 })
        }
        3 => Json::Str(gen_string(s)),
        4 => {
            let len = (xorshift(s) % 5) as usize;
            Json::Arr((0..len).map(|_| gen_json(s, depth - 1)).collect())
        }
        _ => {
            let len = (xorshift(s) % 5) as usize;
            // Unique keys: the parser rejects duplicates.
            Json::Obj(
                (0..len)
                    .map(|i| {
                        (
                            format!("k{i}_{}", gen_string(s).len()),
                            gen_json(s, depth - 1),
                        )
                    })
                    .collect(),
            )
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn json_render_parse_round_trips(seed in any::<u64>(), depth in 0u32..5) {
        let mut s = seed;
        let doc = gen_json(&mut s, depth);
        let text = doc.render();
        let back = Json::parse(&text)
            .unwrap_or_else(|e| panic!("reparse failed at {}: {e}\ndoc: {text}", e.offset));
        prop_assert_eq!(&back, &doc);
        // Rendering is canonical: a second round trip is byte-identical.
        prop_assert_eq!(back.render(), text);
    }

    #[test]
    fn json_parser_never_panics_on_garbage(seed in any::<u64>(), len in 0usize..80) {
        let mut s = seed;
        let garbage: String = (0..len)
            .map(|_| PALETTE[(xorshift(&mut s) % PALETTE.len() as u64) as usize])
            .collect();
        let _ = Json::parse(&garbage); // outcome irrelevant; must not panic
    }

    #[test]
    fn http_parser_never_panics_on_garbage(seed in any::<u64>(), len in 0usize..160) {
        let mut s = seed;
        let bytes: Vec<u8> = (0..len).map(|_| (xorshift(&mut s) % 256) as u8).collect();
        let _ = read_request(&mut BufReader::new(&bytes[..]), &Limits::default());
    }
}

#[test]
fn json_numeric_edges_round_trip_exactly() {
    for v in [
        0.0,
        -0.0,
        1.5,
        -1.5,
        0.1,
        1.0 / 3.0,
        1e-9,
        1e300,
        -2.5e-10,
        9_007_199_254_740_993.0,
        u64::MAX as f64,
        i64::MIN as f64,
        9.25e18, // integral, past i64::MAX: must not saturate
        -9.25e18,
        123456.789,
    ] {
        let text = Json::Num(v).render();
        let back = Json::parse(&text).unwrap();
        assert_eq!(back.as_f64(), Some(v), "{v} via {text}");
    }
}

#[test]
fn json_as_u64_rejects_values_past_u64_max() {
    let read = |text: &str| Json::parse(text).unwrap().as_u64();
    assert_eq!(read("18446744073709551616"), None); // 2^64
    assert_eq!(
        read("18446744073709549568"),
        Some(18_446_744_073_709_549_568)
    );
    assert_eq!(read("-1"), None);
    assert_eq!(read("1.5"), None);
}

#[test]
fn json_rejects_malformed_documents() {
    for bad in [
        "",
        "   ",
        "tru",
        "nulll",
        "+1",
        "01",
        "1.",
        ".5",
        "1e",
        "--1",
        "NaN",
        "Infinity",
        "\"unterminated",
        "\"bad escape \\q\"",
        "\"bad unicode \\u12g4\"",
        "\"lone surrogate \\ud800\"",
        "\"raw control \u{1} char\"", // literal 0x01 inside a string
        "[1,2",
        "[1,,2]",
        "[1 2]",
        "{\"a\":1,}",
        "{\"a\" 1}",
        "{\"a\":1,\"a\":2}", // duplicate key
        "{1:2}",
        "1 trailing",
        "[1] []",
    ] {
        assert!(Json::parse(bad).is_err(), "accepted: {bad:?}");
    }
}

#[test]
fn json_rejects_excessive_nesting() {
    let deep = "[".repeat(200) + &"]".repeat(200);
    assert!(Json::parse(&deep).is_err());
    let ok = "[".repeat(40) + &"]".repeat(40);
    assert!(Json::parse(&ok).is_ok());
}

// ---------------------------------------------------------------------------
// HTTP parser rejection
// ---------------------------------------------------------------------------

fn parse_http(raw: &[u8]) -> Result<Option<isrf_serve::Request>, HttpError> {
    read_request(&mut BufReader::new(raw), &Limits::default())
}

#[test]
fn http_rejects_bad_method() {
    let e = parse_http(b"BREW /pot HTTP/1.1\r\n\r\n").unwrap_err();
    assert!(matches!(e, HttpError::Bad(_)), "{e}");
    assert_eq!(e.status(), 400);
}

#[test]
fn http_rejects_malformed_request_lines() {
    for raw in [
        &b"GET\r\n\r\n"[..],
        b"GET /\r\n\r\n",
        b"GET / HTTP/2.0\r\n\r\n",
        b"GET / HTTP/1.1 extra\r\n\r\n",
        b"GET nopath HTTP/1.1\r\n\r\n",
        b"GET / HTTP/1.1\r\nno-colon-line\r\n\r\n",
        b"GET / HTTP/1.1\r\nbad name: x\r\n\r\n",
        b"GET / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
        b"GET / HTTP/1.1\r\nContent-Length: abc\r\n\r\n",
        b"\xff\xfe / HTTP/1.1\r\n\r\n",
    ] {
        let e = parse_http(raw).unwrap_err();
        assert!(matches!(e, HttpError::Bad(_)), "{raw:?} -> {e}");
    }
}

#[test]
fn http_rejects_oversized_declared_body() {
    let raw = b"POST /jobs HTTP/1.1\r\nContent-Length: 999999999\r\n\r\n";
    let e = parse_http(raw).unwrap_err();
    assert_eq!(e, HttpError::TooLarge("body exceeds limit"));
    assert_eq!(e.status(), 413);
}

#[test]
fn http_rejects_oversized_header_block() {
    let mut raw = b"GET / HTTP/1.1\r\n".to_vec();
    // Default head cap is 16 KiB; a single huge header blows past it with
    // no terminator in sight.
    raw.extend_from_slice(b"X-Big: ");
    raw.extend(std::iter::repeat_n(b'a', 20 * 1024));
    let e = parse_http(&raw).unwrap_err();
    assert!(matches!(e, HttpError::TooLarge(_)), "{e}");
    assert_eq!(e.status(), 431);
}

#[test]
fn http_reports_truncation_distinctly() {
    // EOF mid-headers.
    let e = parse_http(b"GET / HTTP/1.1\r\nHost: x").unwrap_err();
    assert!(matches!(e, HttpError::Truncated(_)), "{e}");
    // EOF mid-body.
    let e = parse_http(b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc").unwrap_err();
    assert!(matches!(e, HttpError::Truncated(_)), "{e}");
}

#[test]
fn http_small_limits_are_honored() {
    let limits = Limits {
        max_head: 64,
        max_body: 8,
    };
    let ok = b"POST / HTTP/1.1\r\nContent-Length: 8\r\n\r\n12345678";
    assert!(read_request(&mut BufReader::new(&ok[..]), &limits)
        .unwrap()
        .is_some());
    let too_big = b"POST / HTTP/1.1\r\nContent-Length: 9\r\n\r\n123456789";
    let e = read_request(&mut BufReader::new(&too_big[..]), &limits).unwrap_err();
    assert_eq!(e.status(), 413);
}
