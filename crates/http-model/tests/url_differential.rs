//! Differential suite for the one-buffer `Url`.
//!
//! `url_oracle::Url` is the three-`String` implementation the live type
//! replaced. For generated, mutated and arbitrary inputs the two must give
//! the same parse verdict (and error variant), the same answer from every
//! accessor and renderer, the same `Debug` text, and agree on `==` and
//! hashes; `HttpTransaction::url()` must return what parsing
//! `"http://{host}{uri}"` returns.
//!
//! Mutation-checked: with the lowercase clause, the `tail.len()` clause
//! (fragment and dangling `?`), the `!path.is_empty()` clause or the
//! authority clause removed from the one-allocation rule in `Url::parse`,
//! `generated_urls_agree` fails; with any clause of the plain-host or
//! plain-URI test removed from `Url::from_host_and_uri`,
//! `transaction_url_is_the_parsed_concatenation` fails.

//!
//! `UrlMemo` is held to `Url::parse` the same way
//! (`memo_returns_what_parse_returns`, `a_slot_collision_replaces`): with
//! the `== tail` test of a hit loosened to a length compare, or the
//! verbatim test of an insert removed, the second fails.

mod url_oracle;

use http_model::headers::{RequestHeaders, ResponseHeaders};
use http_model::url::{Scheme, Url, UrlMemo};
use http_model::{HttpTransaction, Method};
use proptest::prelude::*;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::Arc;
use url_oracle::Url as OldUrl;

// ---------------------------------------------------------------------------
// Strategies
// ---------------------------------------------------------------------------

fn pick(options: &'static [&'static str]) -> BoxedStrategy<String> {
    (0..options.len())
        .prop_map(move |i| options[i].to_string())
        .boxed()
}

fn host() -> BoxedStrategy<String> {
    prop_oneof![
        "[a-z0-9]{1,8}\\.[a-z]{2,7}",
        "[a-z0-9]{1,8}\\.[a-z]{2,7}",
        "[a-zA-Z0-9.-]{0,12}",
        pick(&[
            "",
            "Ads.Example.COM",
            "é.example",
            "ÀB.example",
            "[::1]",
            "a b",
            "x\u{a0}"
        ]),
    ]
    .boxed()
}

fn path() -> BoxedStrategy<String> {
    prop_oneof![
        "/[a-z0-9._-]{0,8}",
        "/[a-z]{1,6}/[a-z]{1,6}\\.[a-zA-Z]{1,4}",
        pick(&[
            "",
            "/",
            "/x/BANNER.GIF",
            "/.hidden",
            "/a.b.c.toolongextension",
            "/é/ü.JS",
            "/p/",
            "/a//b",
            "/a b",
        ]),
    ]
    .boxed()
}

/// A URL assembled from the shapes the parser distinguishes.
fn generated_url() -> BoxedStrategy<String> {
    let scheme = pick(&[
        "http://", "http://", "http://", "https://", "HTTP://", "HtTpS://", "//", "ws://",
        "ftp://", "", "http:/", "http:", "://",
    ]);
    let userinfo = pick(&["", "", "", "", "user@", "u:p@", "a@b@", "@"]);
    let port = pick(&[
        "", "", "", "", ":80", ":8443", ":", ":8a", ":99999", ":65535", ":65536", ":0", ":é",
    ]);
    let query = prop_oneof![
        pick(&["", "", "?", "??", "?x=1?y=2", "?a&&b=", "?=v", "?é=ü"]),
        "\\?[a-z]{1,4}=[a-zA-Z0-9]{0,12}",
        "\\?[a-z]{1,4}=[a-zA-Z0-9]{0,12}&[a-z]{1,3}=[0-9]{0,6}",
    ];
    let fragment = pick(&["", "", "", "#", "#frag", "#f?x=1", "#a#b"]);
    let pad = || pick(&["", "", "", " ", "\t", "\n", "\u{a0}", "\u{2003} "]);
    (
        (pad(), scheme, userinfo, host(), port),
        (path(), query, fragment, pad()),
    )
        .prop_map(
            |((lead, scheme, userinfo, host, port), (path, query, fragment, trail))| {
                format!("{lead}{scheme}{userinfo}{host}{port}{path}{query}{fragment}{trail}")
            },
        )
        .boxed()
}

const MUTATION_POOL: &[char] = &[
    '/', '?', '#', '@', ':', '.', 'A', 'Z', 'a', '0', '9', ' ', '\t', 'é', '\u{a0}', '%', '&', '=',
    'h', 't', 'p', 's',
];

/// `input` after a few seeded single-char insertions, deletions and
/// replacements.
fn mutate(input: &str, edits: &[(usize, usize, usize)]) -> String {
    let mut chars: Vec<char> = input.chars().collect();
    for &(kind, at, with) in edits {
        let c = MUTATION_POOL[with % MUTATION_POOL.len()];
        let at = at % (chars.len() + 1);
        match kind % 3 {
            0 => chars.insert(at, c),
            1 if at < chars.len() => {
                chars.remove(at);
            }
            2 if at < chars.len() => chars[at] = c,
            _ => chars.push(c),
        }
    }
    chars.into_iter().collect()
}

fn mutated_url() -> BoxedStrategy<String> {
    (
        generated_url(),
        proptest::collection::vec((0usize..3, 0usize..200, 0usize..100), 1..4),
    )
        .prop_map(|(url, edits)| mutate(&url, &edits))
        .boxed()
}

fn arbitrary_string() -> BoxedStrategy<String> {
    prop_oneof![
        "\\PC{0,40}",
        "[htpsHTPS:/é ]{0,12}\\PC{0,12}",
        "[a-zA-Z0-9/?#@:=&._ -]{0,40}",
    ]
    .boxed()
}

fn any_input() -> BoxedStrategy<String> {
    prop_oneof![generated_url(), mutated_url(), arbitrary_string()].boxed()
}

fn replacement_query() -> BoxedStrategy<Option<String>> {
    prop_oneof![
        Just(None),
        Just(Some(String::new())),
        "[a-z]{1,4}=[a-zA-Z0-9?#]{0,10}".prop_map(Some),
        "\\PC{0,12}".prop_map(Some),
    ]
    .boxed()
}

// ---------------------------------------------------------------------------
// Comparison
// ---------------------------------------------------------------------------

fn hash_of<T: Hash>(value: &T) -> u64 {
    let mut h = DefaultHasher::new();
    value.hash(&mut h);
    h.finish()
}

/// Every accessor and renderer of the two types, side by side.
fn assert_agree(old: &OldUrl, new: &Url, what: &str) {
    assert_eq!(old.scheme(), new.scheme(), "scheme of {what}");
    assert_eq!(old.host(), new.host(), "host of {what}");
    assert_eq!(old.port(), new.port(), "port of {what}");
    assert_eq!(old.effective_port(), new.effective_port(), "{what}");
    assert_eq!(old.path(), new.path(), "path of {what}");
    assert_eq!(old.query(), new.query(), "query of {what}");
    assert_eq!(
        old.query_pairs().collect::<Vec<_>>(),
        new.query_pairs().collect::<Vec<_>>(),
        "query pairs of {what}"
    );
    assert_eq!(old.filename(), new.filename(), "filename of {what}");
    assert_eq!(old.extension(), new.extension(), "extension of {what}");
    assert_eq!(
        old.extension(),
        new.extension_str().map(str::to_ascii_lowercase),
        "borrowed extension of {what}"
    );
    assert_eq!(old.as_string(), new.as_string(), "as_string of {what}");
    assert_eq!(old.as_string(), new.to_string(), "Display of {what}");
    let (mut a, mut b) = (String::from("stale"), String::from("stale"));
    old.write_into(&mut a);
    new.write_into(&mut b);
    assert_eq!(a, b, "write_into of {what}");
    assert_eq!(old.without_scheme(), new.without_scheme(), "{what}");
    assert_eq!(old.without_scheme(), new.schemeless(), "{what}");
    assert_eq!(old.without_scheme(), &*new.schemeless_shared(), "{what}");
    assert_eq!(format!("{old:?}"), format!("{new:?}"), "Debug of {what}");
    assert_eq!(format!("{old:#?}"), format!("{new:#?}"), "{what}");
    assert_eq!(hash_of(old), hash_of(new), "hash of {what}");
    assert_eq!(new, &new.clone(), "clone of {what}");
}

/// Parse with both; the verdicts must match and, on success, the values.
fn parse_both(input: &str) -> Option<(OldUrl, Url)> {
    match (OldUrl::parse(input), Url::parse(input)) {
        (Ok(old), Ok(new)) => {
            assert_agree(&old, &new, input);
            Some((old, new))
        }
        (Err(old), Err(new)) => {
            assert_eq!(old, new, "error variant for {input:?}");
            None
        }
        (old, new) => panic!("verdicts differ for {input:?}: old {old:?}, new {new:?}"),
    }
}

/// Parse, parse the rendering again, and replace the query both ways.
fn check_input(input: &str, query: &Option<String>) {
    let Some((old, new)) = parse_both(input) else {
        return;
    };
    parse_both(&new.as_string());
    let what = format!("{input:?} with query {query:?}");
    let (old_with, new_with) = (old.with_query(query.clone()), new.with_query(query.clone()));
    assert_agree(&old_with, &new_with, &what);
    // The original is untouched.
    assert_agree(&old, &new, input);
}

// ---------------------------------------------------------------------------
// Properties
// ---------------------------------------------------------------------------

/// Inputs per proptest case: each case draws a batch, so the default 128
/// cases cover a few thousand inputs per property.
const BATCH: usize = 24;

proptest! {
    #[test]
    fn generated_urls_agree(
        inputs in proptest::collection::vec((generated_url(), replacement_query()), BATCH),
    ) {
        for (input, query) in &inputs {
            check_input(input, query);
        }
    }

    #[test]
    fn mutated_urls_agree(
        inputs in proptest::collection::vec((mutated_url(), replacement_query()), BATCH),
    ) {
        for (input, query) in &inputs {
            check_input(input, query);
        }
    }

    #[test]
    fn arbitrary_strings_agree_and_never_panic(
        inputs in proptest::collection::vec((arbitrary_string(), replacement_query()), BATCH),
    ) {
        for (input, query) in &inputs {
            check_input(input, query);
        }
    }

    #[test]
    fn equality_and_hash_agree_pairwise(
        inputs in proptest::collection::vec(any_input(), 2..8),
        edits in proptest::collection::vec((0usize..3, 0usize..200, 0usize..100), 0..2),
    ) {
        // Near-duplicates make equal pairs likely: each input also runs
        // upper-cased (same URL when only the host had letters), under
        // the other scheme, and lightly mutated.
        let mut variants = Vec::new();
        for input in &inputs {
            variants.push(input.clone());
            variants.push(input.to_ascii_uppercase());
            variants.push(input.replacen("http://", "https://", 1));
            variants.push(mutate(input, &edits));
        }
        let parsed: Vec<(OldUrl, Url)> = variants.iter().filter_map(|v| parse_both(v)).collect();
        for (old_a, new_a) in &parsed {
            for (old_b, new_b) in &parsed {
                prop_assert_eq!(old_a == old_b, new_a == new_b, "{:?} vs {:?}", new_a, new_b);
                if new_a == new_b {
                    prop_assert_eq!(hash_of(new_a), hash_of(new_b));
                }
            }
        }
    }

    #[test]
    fn from_parts_agrees(
        scheme in (0usize..3).prop_map(|i| [Scheme::Http, Scheme::Https, Scheme::Other][i]),
        host in host(),
        path in prop_oneof![path(), "\\PC{0,12}"],
        query in replacement_query(),
        replacement in replacement_query(),
    ) {
        let old = OldUrl::from_parts(scheme, &host, &path, query.as_deref());
        let new = Url::from_parts(scheme, &host, &path, query.as_deref());
        let what = format!("from_parts({scheme:?}, {host:?}, {path:?}, {query:?})");
        assert_agree(&old, &new, &what);
        assert_agree(
            &old.with_query(replacement.clone()),
            &new.with_query(replacement.clone()),
            &what,
        );
    }

    /// Any interleaving of inputs through one memo — generated, mutated,
    /// arbitrary, each likely to come round again — returns what
    /// `Url::parse` returns. Whether an answer came out of the memo shows
    /// in its buffer: the very allocation an earlier answer holds. Only an
    /// `http://` input whose scheme-less form is its own tail verbatim may
    /// be answered that way, and is when asked twice running.
    #[test]
    fn memo_returns_what_parse_returns(
        inputs in proptest::collection::vec(any_input(), 1..12),
        order in proptest::collection::vec(0usize..8, BATCH),
    ) {
        // Near-duplicates whose buffers are equal while their inputs are
        // not: the same URL without its port, its userinfo, its upper case,
        // its padding.
        let mut pool = Vec::new();
        for input in inputs {
            for port in [":80", ":8443", ":65535", ":0"] {
                pool.push(input.replacen(port, "", 1));
            }
            pool.push(input.replacen('@', "", 1));
            pool.push(input.to_ascii_lowercase());
            pool.push(input.trim().to_string());
            pool.push(input);
        }
        let mut memo = UrlMemo::default();
        let mut answers: Vec<Url> = Vec::new();
        for at in 0..pool.len() * 2 {
            // Twice through the pool, stirred by `order`.
            let input = &pool[(at + order[at % order.len()]) % pool.len()];
            let want = Url::parse(input).ok();
            for _twice in 0..2 {
                let got = memo.parse(input);
                prop_assert_eq!(&got, &want, "{:?}", input);
                prop_assert_eq!(format!("{got:?}"), format!("{want:?}"));
                let (Some(got), Some(want)) = (got, want.as_ref()) else {
                    continue;
                };
                prop_assert_eq!(hash_of(&got), hash_of(want));
                prop_assert_eq!((got.scheme(), got.port()), (want.scheme(), want.port()));
                let cacheable = input
                    .strip_prefix("http://")
                    .is_some_and(|tail| tail == want.schemeless());
                let served = answers
                    .iter()
                    .any(|a| Arc::ptr_eq(&a.schemeless_shared(), &got.schemeless_shared()));
                prop_assert!(cacheable || !served, "{:?} came out of the memo", input);
                if cacheable && _twice == 1 {
                    prop_assert!(served, "{:?} was parsed twice running", input);
                }
                answers.push(got);
            }
        }
    }

    #[test]
    fn transaction_url_is_the_parsed_concatenation(
        parts in proptest::collection::vec(
            (
                prop_oneof![host(), host(), arbitrary_string()],
                prop_oneof![
                    (path(), pick(&["", "", "?", "?a=1", "??", "?x#y", "#f", " ", "\u{a0}", "?q= "]))
                        .prop_map(|(p, q)| format!("{p}{q}")),
                    arbitrary_string(),
                ],
            ),
            BATCH,
        ),
    ) {
        for (host, uri) in parts {
            let tx = HttpTransaction {
                ts: 0.0,
                client_ip: 1,
                server_ip: 2,
                server_port: 80,
                method: Method::Get,
                request: RequestHeaders {
                    host: host.clone(),
                    uri: uri.clone(),
                    referer: None,
                    user_agent: None,
                },
                response: ResponseHeaders::default(),
                tcp_handshake_ms: 0.0,
                http_handshake_ms: 0.0,
            };
            let slash = if uri.starts_with('/') { "" } else { "/" };
            let expected = if host.is_empty() {
                None
            } else {
                Url::parse(&format!("http://{host}{slash}{uri}")).ok()
            };
            let got = tx.url();
            prop_assert_eq!(&got, &expected, "host {:?} uri {:?}", host, uri);
            prop_assert_eq!(format!("{got:?}"), format!("{expected:?}"));
            prop_assert_eq!(
                got.as_ref().map(Url::as_string),
                expected.as_ref().map(Url::as_string)
            );
        }
    }
}

/// More distinct cacheable inputs than the memo has slots, each asked for
/// again after all the others: collisions are certain, and an input that
/// finds its slot taken is parsed afresh and takes it over — whatever the
/// slot held, the answer is `Url::parse`'s.
#[test]
fn a_slot_collision_replaces() {
    let mut memo = UrlMemo::default();
    let inputs: Vec<String> = (0..3 * UrlMemo::SLOTS)
        .map(|i| format!("http://h{}.example/page/{i}?ref={}", i % 97, i * 31))
        .collect();
    for _pass in 0..2 {
        for input in &inputs {
            let want = Url::parse(input).unwrap();
            let first = memo.parse(input).unwrap();
            assert_eq!(first, want, "{input}");
            assert_eq!(first.as_string(), *input);
            // It holds the slot now, whoever held it before.
            let again = memo.parse(input).unwrap();
            assert!(Arc::ptr_eq(
                &first.schemeless_shared(),
                &again.schemeless_shared()
            ));
        }
    }
    // A rebuilt URL has the buffer of its plain spelling but is not that
    // URL (the port). It keys a different slot, so only a colliding pair
    // could mix them up: over 20 000 pairs some twenty collide.
    for i in 0..20_000 {
        let (ported, plain) = (
            format!("http://h{i}.example:8080/p"),
            format!("http://h{i}.example/p"),
        );
        let first = memo.parse(&ported).unwrap();
        assert_eq!(first.port(), Some(8080));
        assert_eq!(memo.parse(&plain), Url::parse(&plain).ok(), "{plain}");
        let again = memo.parse(&ported).unwrap();
        assert_eq!(again, first);
        assert!(
            !Arc::ptr_eq(&first.schemeless_shared(), &again.schemeless_shared()),
            "{ported} came out of the memo"
        );
    }
}
