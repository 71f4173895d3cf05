//! Differential tests for the schema-directed record scanner.
//!
//! The scanner is a fast path in front of `json::parse` + `decode_record`;
//! it may decline any line, but whatever the readers decide with it in
//! place must be exactly what the generic path alone decides — the same
//! keep/skip verdict and, for a kept line, the same record. The generic
//! path is the oracle throughout (`hooks::line_verdict_generic`).
//!
//! A second property runs the other way: every line the writer emits for a
//! record without escapes must be accepted by the scanner itself, so a
//! change to `encode_record` cannot silently demote every line to the
//! generic path.
//!
//! A third follows the scanner's output to where the stream router uses
//! it: the scanner yields a `RecordView` borrowing the line, and the router
//! extracts its `WebObject` straight from that view, with one `Extractor`
//! (URL scratch buffer, referer memo, interner) for the whole run. For
//! every line here the view is the generic pair's record, field for field,
//! and extraction from it — whatever state the extractor carries over from
//! the lines before — is extraction from the generic pair's owned record
//! with a fresh extractor (`assert_view_agrees`).

use adscope::extract::Extractor;
use adscope::DegradationReport;
use http_model::headers::{RequestHeaders, ResponseHeaders};
use http_model::transaction::Method;
use http_model::{HttpTransaction, Url};
use netsim::codec::{hooks, record_to_json, write_trace};
use netsim::faults::{FaultInjector, FaultProfile};
use netsim::record::{HttpView, RecordView, TlsConnection, Trace, TraceMeta, TraceRecord};
use proptest::prelude::*;

// ---------------------------------------------------------------------------
// Strategies
// ---------------------------------------------------------------------------

/// Strings that exercise every string path: mostly plain header text (the
/// scanner's case), sometimes characters the writer must escape, raw
/// non-ASCII, NBSP and DEL.
fn any_string() -> BoxedStrategy<String> {
    let any_char = prop_oneof![
        (0x20u32..0x7f).prop_map(|c| char::from_u32(c).expect("ascii")),
        Just('"'),
        Just('\\'),
        Just('\n'),
        Just('\t'),
        Just('\u{1}'),
        Just('\u{1f}'),
        Just('\u{7f}'),
        Just('\u{a0}'),
        Just('é'),
        Just('🦀'),
    ];
    prop_oneof![
        "[a-zA-Z0-9/?=&._ -]{0,40}",
        "[a-zA-Z0-9/?=&._ -]{0,40}",
        proptest::collection::vec(any_char, 0..24).prop_map(|cs| cs.into_iter().collect()),
    ]
    .boxed()
}

fn any_f64() -> BoxedStrategy<f64> {
    prop_oneof![
        -1e6f64..1e6,
        0.0f64..100.0,
        (0u32..100_000).prop_map(f64::from),
        Just(0.0),
        Just(-0.0),
        Just(1e21),
        Just(1e-7),
        Just(f64::MAX),
        Just(5e-324),
        Just(f64::NAN),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
    ]
    .boxed()
}

/// The largest integer the scanner reads itself: 19 digits.
const MAX_19_DIGITS: u64 = 9_999_999_999_999_999_999;

fn any_u64() -> BoxedStrategy<u64> {
    prop_oneof![
        0u64..100_000,
        0u64..=u64::MAX,
        Just(0),
        Just(u64::MAX),
        Just(MAX_19_DIGITS),
        Just(MAX_19_DIGITS + 1),
    ]
    .boxed()
}

fn any_method() -> BoxedStrategy<Method> {
    prop_oneof![Just(Method::Get), Just(Method::Post), Just(Method::Head)].boxed()
}

fn any_record() -> BoxedStrategy<TraceRecord> {
    let addr = || (0u32..=u32::MAX, 0u32..=u32::MAX, 0u16..=u16::MAX);
    let http = (
        (any_f64(), addr()),
        any_method(),
        (
            any_string(),
            any_string(),
            proptest::option::of(any_string()),
            proptest::option::of(any_string()),
        ),
        (
            0u16..=u16::MAX,
            proptest::option::of(any_string()),
            proptest::option::of(any_u64()),
            proptest::option::of(any_string()),
        ),
        (any_f64(), any_f64()),
    )
        .prop_map(
            |((ts, (client_ip, server_ip, server_port)), method, rq, rs, hs)| {
                TraceRecord::Http(HttpTransaction {
                    ts,
                    client_ip,
                    server_ip,
                    server_port,
                    method,
                    request: RequestHeaders {
                        host: rq.0,
                        uri: rq.1,
                        referer: rq.2,
                        user_agent: rq.3,
                    },
                    response: ResponseHeaders {
                        status: rs.0,
                        content_type: rs.1,
                        content_length: rs.2,
                        location: rs.3,
                    },
                    tcp_handshake_ms: hs.0,
                    http_handshake_ms: hs.1,
                })
            },
        );
    let tls = (any_f64(), addr(), any_u64()).prop_map(
        |(ts, (client_ip, server_ip, server_port), bytes)| {
            TraceRecord::Https(TlsConnection {
                ts,
                client_ip,
                server_ip,
                server_port,
                bytes,
            })
        },
    );
    prop_oneof![http.boxed(), http_like_the_traces(), tls.boxed()].boxed()
}

/// Records shaped like generated traffic: finite timings, plain strings.
fn http_like_the_traces() -> BoxedStrategy<TraceRecord> {
    (
        0.0f64..86_400.0,
        0u32..5000,
        "[a-z0-9.-]{1,30}",
        "/[a-zA-Z0-9/?=&._-]{0,120}",
        proptest::option::of("http://[a-z0-9./?=&-]{1,80}"),
        (0u64..2_000_000, 0.1f64..900.0),
    )
        .prop_map(|(ts, ip, host, uri, referer, (len, ms))| {
            TraceRecord::Http(HttpTransaction {
                ts,
                client_ip: ip,
                server_ip: ip.wrapping_mul(31),
                server_port: 80,
                method: Method::Get,
                request: RequestHeaders {
                    host,
                    uri,
                    referer,
                    user_agent: Some("Mozilla/5.0 (X11; Linux x86_64) Gecko/20100101".into()),
                },
                response: ResponseHeaders {
                    status: 200,
                    content_type: Some("image/gif".into()),
                    content_length: Some(len),
                    location: None,
                },
                tcp_handshake_ms: ms,
                http_handshake_ms: ms * 3.5,
            })
        })
        .boxed()
}

// ---------------------------------------------------------------------------
// What the scanner is expected to take itself
// ---------------------------------------------------------------------------

fn floats_of(r: &TraceRecord) -> Vec<f64> {
    match r {
        TraceRecord::Http(t) => vec![t.ts, t.tcp_handshake_ms, t.http_handshake_ms],
        TraceRecord::Https(t) => vec![t.ts],
    }
}

fn u64s_of(r: &TraceRecord) -> Vec<u64> {
    match r {
        TraceRecord::Http(t) => t.response.content_length.into_iter().collect(),
        TraceRecord::Https(t) => vec![t.bytes],
    }
}

/// The writer's line for `r` is in the scanner's language: no string
/// needed an escape, every float is finite (the writer spells the others
/// `null`), every integer has at most 19 digits.
fn scanner_should_accept(r: &TraceRecord, line: &str) -> bool {
    !line.contains('\\')
        && floats_of(r).iter().all(|f| f.is_finite())
        && u64s_of(r).iter().all(|&n| n <= MAX_19_DIGITS)
}

fn assert_same_verdict(line: &[u8]) {
    assert_eq!(
        hooks::line_verdict(line),
        hooks::line_verdict_generic(line),
        "line: {:?}",
        String::from_utf8_lossy(line)
    );
}

/// Whenever the scanner takes `line` (trimmed, as the readers hand it
/// over): its view is the generic pair's record, viewing that record gives
/// the same view back, and `router` — an extractor that has seen every
/// earlier line of the caller's, as the stream router's has — extracts from
/// the borrowed view what a fresh extractor does from the owned record.
fn assert_view_agrees(line: &[u8], router: &mut Extractor) {
    let Ok(text) = std::str::from_utf8(line) else {
        return;
    };
    let Some(view) = hooks::scan_view(text.trim()) else {
        return;
    };
    let generic = hooks::line_verdict_generic(line)
        .expect("the generic path keeps what the scanner takes")
        .expect("as a record");
    assert_eq!(view.to_record(), generic, "line: {text}");
    assert_eq!(RecordView::of(&generic), view, "line: {text}");
    assert_eq!(RecordView::of(&generic).to_record(), generic);
    let (RecordView::Http(borrowed), TraceRecord::Http(owned)) = (&view, &generic) else {
        return;
    };
    let mut fresh = Extractor::default();
    let (mut from_view, mut from_owned) = <(DegradationReport, DegradationReport)>::default();
    let got = router.extract_one(7, borrowed, &mut from_view);
    let want = fresh.extract_one(7, &HttpView::of(owned), &mut from_owned);
    assert_eq!(got, want, "line: {text}");
    assert_eq!(from_view, from_owned, "line: {text}");
    // Against the definition, not only against itself: the request URL is
    // the parse of the concatenation, referer and location plain parses.
    let slash = if owned.request.uri.starts_with('/') {
        ""
    } else {
        "/"
    };
    let url = (!owned.request.host.is_empty())
        .then(|| format!("http://{}{slash}{}", owned.request.host, owned.request.uri))
        .and_then(|u| Url::parse(&u).ok());
    assert_eq!(got.as_ref().map(|o| &o.url), url.as_ref(), "line: {text}");
    if let Some(obj) = &got {
        let parsed = |s: &Option<String>| s.as_deref().and_then(|s| Url::parse(s).ok());
        assert_eq!(obj.referer, parsed(&owned.request.referer), "line: {text}");
        assert_eq!(obj.location, parsed(&owned.response.location));
        assert_eq!(
            obj.user_agent.as_deref(),
            owned.request.user_agent.as_deref()
        );
        assert_eq!(
            obj.content_type.as_deref(),
            owned.response.content_type.as_deref()
        );
    }
}

/// One record, clean, for the hand-made mutants below.
fn sample_http_line() -> String {
    record_to_json(&TraceRecord::Http(HttpTransaction {
        ts: 12.5,
        client_ip: 7,
        server_ip: 9,
        server_port: 80,
        method: Method::Get,
        request: RequestHeaders {
            host: "ads.example".into(),
            uri: "/b?id=1".into(),
            referer: Some("http://pub.example/".into()),
            user_agent: None,
        },
        response: ResponseHeaders {
            status: 200,
            content_type: Some("image/gif".into()),
            content_length: Some(43),
            location: None,
        },
        tcp_handshake_ms: 10.0,
        http_handshake_ms: 55.25,
    }))
}

fn sample_tls_line() -> String {
    record_to_json(&TraceRecord::Https(TlsConnection {
        ts: 1.5,
        client_ip: 7,
        server_ip: 9,
        server_port: 443,
        bytes: 1234,
    }))
}

/// `line` with the first `from` replaced by `to`; the edit must apply.
fn edit(line: &str, from: &str, to: &str) -> String {
    assert!(line.contains(from), "{from:?} not in {line}");
    line.replacen(from, to, 1)
}

// ---------------------------------------------------------------------------
// Properties
// ---------------------------------------------------------------------------

proptest! {
    /// Whatever the writer emits, the readers decide about it exactly what
    /// the generic path decides — and a line the generic path keeps comes
    /// back as the record that was written.
    #[test]
    fn written_lines_get_the_generic_verdict(r in any_record()) {
        let line = record_to_json(&r);
        let got = hooks::line_verdict(line.as_bytes());
        prop_assert_eq!(&got, &hooks::line_verdict_generic(line.as_bytes()), "line: {}", line);
        assert_view_agrees(line.as_bytes(), &mut Extractor::default());
        if floats_of(&r).iter().all(|f| f.is_finite()) {
            let back = got.expect("kept").expect("a record");
            // Byte-compare the re-encoding: `-0.0 == 0.0` would pass a
            // record compare.
            prop_assert_eq!(record_to_json(&back), line);
        } else {
            prop_assert_eq!(got, Err("bad_schema"));
        }
    }

    /// Lockstep with the writer: the scanner itself takes every line in its
    /// language and only those, and reads back the written record.
    #[test]
    fn scanner_accepts_what_the_writer_emits(r in any_record()) {
        let line = record_to_json(&r);
        match hooks::scan_view(&line).map(|v| v.to_record()) {
            Some(back) => {
                prop_assert!(scanner_should_accept(&r, &line), "took {}", line);
                prop_assert_eq!(record_to_json(&back), line);
            }
            None => prop_assert!(!scanner_should_accept(&r, &line), "declined {}", line),
        }
    }

    /// Generated-traffic-shaped records always take the scanner.
    #[test]
    fn trace_shaped_records_take_the_scanner(r in http_like_the_traces()) {
        let line = record_to_json(&r);
        prop_assert_eq!(hooks::scan_view(&line).map(|v| v.to_record()), Some(r));
    }

    /// Random damage to a written line: byte flips, truncation, inserted
    /// whitespace and arbitrary bytes, deletions, a doubled slice, a
    /// trailing tail. Same verdict with and without the scanner.
    #[test]
    fn mutated_lines_get_the_generic_verdict(
        r in any_record(),
        edits in proptest::collection::vec((0u8..7, 0usize..10_000, 0u8..=255, 1usize..24), 1..4),
    ) {
        let mut line = record_to_json(&r).into_bytes();
        for (kind, at, byte, span) in edits {
            let len = line.len();
            if len == 0 {
                break;
            }
            let at = at % len;
            match kind {
                0 => line[at] = byte,
                1 => line.truncate(at),
                2 => line.insert(at, b" \t\r\n"[byte as usize % 4]),
                3 => line.insert(at, byte),
                4 => {
                    line.remove(at);
                }
                5 => {
                    let end = (at + span).min(len);
                    let slice = line[at..end].to_vec();
                    line.splice(at..at, slice);
                }
                _ => line.extend(std::iter::repeat_n(byte, span)),
            }
        }
        assert_same_verdict(&line);
        assert_view_agrees(&line, &mut Extractor::default());
    }

    /// A run of lines through one extractor, as the router sees them, then
    /// the same run again: the second pass finds the referer memo, the
    /// interner and the scratch buffer as the first left them.
    #[test]
    fn a_run_of_views_extracts_like_owned_records(
        records in proptest::collection::vec(
            prop_oneof![http_like_the_traces(), http_with_awkward_urls(), any_record()],
            1..24,
        ),
    ) {
        let mut router = Extractor::default();
        for _pass in 0..2 {
            for r in &records {
                assert_view_agrees(record_to_json(r).as_bytes(), &mut router);
            }
        }
    }
}

/// Every URL shape the one-allocation paths must hand to the parser —
/// upper-case host, port, userinfo, fragment, dangling `?`, trailing
/// whitespace, empty host — in host, URI, referer and location alike, none
/// needing a JSON escape, so the scanner takes each line.
fn http_with_awkward_urls() -> BoxedStrategy<TraceRecord> {
    const HOSTS: &[&str] = &[
        "pub.example",
        "Ads.Example.COM",
        "e.example:8080",
        "user@e.example",
        "u:p@e.example:81",
        "",
        "e.example/x",
        "e.example?x",
        "e.example#x",
        "é.example",
    ];
    const URIS: &[&str] = &[
        "/",
        "/a/b.gif?x=1",
        "/p#frag",
        "/p?",
        "/p?q=1#f",
        "/p ",
        "/p?q= ",
        "p.gif",
        "",
        "?x=1",
        "/a?b?c",
    ];
    let url = || {
        (0..HOSTS.len(), 0..URIS.len(), 0usize..6).prop_map(|(h, u, scheme)| {
            let scheme = ["http://", "http://", "https://", "//", "HTTP://", ""][scheme];
            format!("{scheme}{}{}", HOSTS[h], URIS[u])
        })
    };
    (
        (0..HOSTS.len(), 0..URIS.len()),
        proptest::option::of(url()),
        proptest::option::of(url()),
        http_like_the_traces(),
    )
        .prop_map(|((h, u), referer, location, base)| {
            let TraceRecord::Http(mut tx) = base else {
                unreachable!("http_like_the_traces yields Http");
            };
            tx.request.host = HOSTS[h].into();
            tx.request.uri = URIS[u].into();
            tx.request.referer = referer;
            tx.response.location = location;
            TraceRecord::Http(tx)
        })
        .boxed()
}

/// `FaultInjector`'s semantic faults on the records and wire faults on the
/// encoded bytes, as the `dirty` benchmark input is made: every line of the
/// result, through one extractor.
#[test]
fn fault_injected_lines_get_the_generic_verdict_and_view() {
    let mut rng = proptest::TestRng::for_case(0);
    let shapes = prop_oneof![http_like_the_traces(), http_with_awkward_urls()];
    let records: Vec<TraceRecord> = (0..400).map(|_| shapes.generate(&mut rng)).collect();
    let trace = Trace {
        meta: TraceMeta {
            name: "RBN-D".into(),
            duration_secs: 86_400.0,
            subscribers: 5000,
            start_hour: 0,
            start_weekday: 0,
        },
        records,
    };
    let mut faults = FaultInjector::new(FaultProfile::uniform(0.05), 20_150_811);
    let mut encoded = Vec::new();
    write_trace(&faults.corrupt_trace(&trace), &mut encoded).expect("encode");
    let dirty = faults.corrupt_bytes(&encoded);
    let mut router = Extractor::default();
    let (mut lines, mut taken) = (0, 0);
    for line in dirty.split(|&b| b == b'\n').skip(1) {
        assert_same_verdict(line);
        assert_view_agrees(line, &mut router);
        lines += 1;
        taken +=
            usize::from(std::str::from_utf8(line).is_ok_and(|t| hooks::scan_view(t).is_some()));
    }
    assert!(
        lines > 350 && taken * 2 > lines,
        "{taken} of {lines} lines scanned"
    );
    assert!(faults.counts().total() > 20, "{:?}", faults.counts());
}

// ---------------------------------------------------------------------------
// Hand-made departures from the writer's spelling
// ---------------------------------------------------------------------------

/// Every departure the scanner must hand to the generic path, with what
/// that path makes of it. The verdict column is the oracle's; the test
/// asserts the readers agree *and* that the scanner declined.
#[test]
fn departures_from_the_writer_fall_through() {
    let h = sample_http_line();
    let t = sample_tls_line();
    assert!(hooks::scan_view(&h).is_some() && hooks::scan_view(&t).is_some());
    let kept = |line: &str| matches!(hooks::line_verdict_generic(line.as_bytes()), Ok(Some(_)));

    let cases: Vec<(&str, String, bool)> = vec![
        // Whitespace the generic parser skips.
        ("space after colon", edit(&h, "\"ts\":", "\"ts\": "), true),
        (
            "space before comma",
            edit(&h, ",\"client_ip\"", " ,\"client_ip\""),
            true,
        ),
        (
            "space inside braces",
            edit(&t, "{\"Https\"", "{ \"Https\""),
            true,
        ),
        ("tab before close", edit(&t, "}}", "}\t}"), true),
        // Key order, duplicates, extras.
        (
            "reordered keys",
            edit(
                &t,
                "\"client_ip\":7,\"server_ip\":9",
                "\"server_ip\":9,\"client_ip\":7",
            ),
            true,
        ),
        (
            "duplicate key, last wins",
            edit(&t, "\"bytes\":1234", "\"bytes\":1,\"bytes\":1234"),
            true,
        ),
        (
            "duplicate key, last is bad",
            edit(&t, "\"bytes\":1234", "\"bytes\":1234,\"bytes\":\"x\""),
            false,
        ),
        (
            "extra key",
            edit(&t, "\"bytes\":1234", "\"bytes\":1234,\"extra\":[1,2]"),
            true,
        ),
        (
            "extra key first",
            edit(&h, "{\"ts\"", "{\"zz\":null,\"ts\""),
            true,
        ),
        (
            "missing optional key",
            edit(&h, ",\"location\":null", ""),
            true,
        ),
        (
            "missing required key",
            edit(&t, ",\"bytes\":1234", ""),
            false,
        ),
        (
            "second variant key",
            edit(&t, "}}", "},\"Http\":{}}"),
            false,
        ),
        ("unknown variant", edit(&t, "\"Https\"", "\"Quic\""), false),
        // Numbers.
        (
            "integer in float slot",
            edit(&h, "\"ts\":12.5", "\"ts\":12"),
            true,
        ),
        (
            "float in integer slot",
            edit(&t, "\"bytes\":1234", "\"bytes\":1234.0"),
            false,
        ),
        (
            "exponent in integer slot",
            edit(&t, "\"bytes\":1234", "\"bytes\":1e3"),
            false,
        ),
        (
            "leading zeros",
            edit(&t, "\"bytes\":1234", "\"bytes\":001234"),
            true,
        ),
        (
            "minus zero integer",
            edit(&t, "\"bytes\":1234", "\"bytes\":-0"),
            true,
        ),
        (
            "negative integer",
            edit(&t, "\"bytes\":1234", "\"bytes\":-5"),
            false,
        ),
        (
            "20 digits, in range",
            edit(&t, "\"bytes\":1234", "\"bytes\":18446744073709551615"),
            true,
        ),
        (
            "20 digits, out of range",
            edit(&t, "\"bytes\":1234", "\"bytes\":18446744073709551616"),
            false,
        ),
        (
            "40 digits",
            edit(
                &t,
                "\"bytes\":1234",
                &format!("\"bytes\":{}", "9".repeat(40)),
            ),
            false,
        ),
        (
            "u32 overflow",
            edit(&t, "\"client_ip\":7", "\"client_ip\":4294967296"),
            false,
        ),
        (
            "u16 overflow",
            edit(&t, "\"server_port\":443", "\"server_port\":65536"),
            false,
        ),
        (
            "non-finite float",
            edit(&h, "\"ts\":12.5", "\"ts\":1e999"),
            false,
        ),
        ("two dots", edit(&h, "\"ts\":12.5", "\"ts\":1.2.5"), false),
        ("bare minus", edit(&h, "\"ts\":12.5", "\"ts\":-"), false),
        ("plus sign", edit(&h, "\"ts\":12.5", "\"ts\":+12.5"), false),
        ("null float", edit(&h, "\"ts\":12.5", "\"ts\":null"), false),
        // Strings.
        (
            "escaped quote",
            edit(&h, "/b?id=1", "/b?id=\\\"1\\\""),
            true,
        ),
        (
            "unicode escape",
            edit(&h, "ads.example", "\\u0061ds.example"),
            true,
        ),
        (
            "bad escape",
            edit(&h, "ads.example", "\\qds.example"),
            false,
        ),
        (
            "raw control byte",
            edit(&h, "ads.example", "ads\u{1}example"),
            false,
        ),
        (
            "raw tab in string",
            edit(&h, "ads.example", "ads\texample"),
            false,
        ),
        // A stop byte that is not the closing quote must not close the string.
        (
            "backslash for closing quote",
            edit(&h, "ads.example\"", "ads.example\\"),
            false,
        ),
        (
            "control byte for closing quote",
            edit(&h, "ads.example\"", "ads.example\u{1}"),
            false,
        ),
        (
            "nbsp inside structure",
            edit(&t, "{\"Https\"", "{\u{a0}\"Https\""),
            false,
        ),
        (
            "null in string slot",
            edit(&h, "\"host\":\"ads.example\"", "\"host\":null"),
            false,
        ),
        (
            "number in optional string slot",
            edit(&h, "\"user_agent\":null", "\"user_agent\":5"),
            false,
        ),
        (
            "string in integer slot",
            edit(&h, "\"content_length\":43", "\"content_length\":\"43\""),
            false,
        ),
        // Method.
        ("unknown method", edit(&h, "\"Get\"", "\"Put\""), false),
        ("method prefix", edit(&h, "\"Get\"", "\"Gets\""), false),
        // Ends.
        ("trailing byte", format!("{h}x"), false),
        ("trailing brace", format!("{t}}}"), false),
        ("two records on a line", format!("{t}{t}"), false),
        ("missing last brace", h[..h.len() - 1].to_string(), false),
        ("array wrapper", format!("[{t}]"), false),
    ];
    for (what, line, want_kept) in cases {
        assert!(
            hooks::scan_view(&line).is_none(),
            "{what}: scanner took {line}"
        );
        assert_eq!(kept(&line), want_kept, "{what}: oracle on {line}");
        assert_same_verdict(line.as_bytes());
    }
}

/// Float spellings the writer uses for other values (a sign, an exponent)
/// are the scanner's too; it reads them with the generic parser's own
/// `str::parse::<f64>`.
#[test]
fn signed_and_exponent_floats_agree() {
    let h = sample_http_line();
    for ts in [
        "-12.5", "125e-1", "1.25E1", "1e21", "1e-7", "-0.0", "0.5e+1",
    ] {
        let line = edit(&h, "\"ts\":12.5", &format!("\"ts\":{ts}"));
        assert!(
            matches!(hooks::line_verdict(line.as_bytes()), Ok(Some(_))),
            "{line}"
        );
        assert_same_verdict(line.as_bytes());
    }
}

/// Padding the shared front of the lossy path strips before either decoder
/// sees the line: `str::trim` removes ASCII and Unicode whitespace (NBSP
/// included), so these stay records — and CRLF traces stay on the scanner.
#[test]
fn trimmed_padding_keeps_the_record() {
    let h = sample_http_line();
    let clean = hooks::line_verdict(h.as_bytes());
    assert!(matches!(clean, Ok(Some(_))));
    for padded in [
        format!("{h}\r"),
        format!("  {h}\t"),
        format!("\u{a0}{h}\u{a0}"),
        format!("\u{2003}{h}"),
    ] {
        assert_eq!(hooks::line_verdict(padded.as_bytes()), clean, "{padded:?}");
        assert_same_verdict(padded.as_bytes());
    }
    for blank in ["", " ", "\r", "\u{a0}\t"] {
        assert_eq!(hooks::line_verdict(blank.as_bytes()), Ok(None));
        assert_same_verdict(blank.as_bytes());
    }
    let mut bad_utf8 = h.clone().into_bytes();
    bad_utf8[20] = 0xff;
    assert_eq!(hooks::line_verdict(&bad_utf8), Err("non_utf8"));
    assert_same_verdict(&bad_utf8);
}
