//! Differential suite for the scan-back `registrable_domain`.
//!
//! `old_registrable_domain` is the split-based implementation it replaced
//! (two `Vec<&str>` per third-party check), kept verbatim as the oracle.
//! Over arbitrary hosts — empty labels (`a..b`), trailing dots, IP-like
//! strings, two-level suffixes, non-ASCII labels — the two must return the
//! same slice, and `is_third_party` must agree with the oracle's pair.

use http_model::{is_third_party, registrable_domain};
use proptest::prelude::*;

const TWO_LEVEL_SUFFIXES: &[&str] = &[
    "co.uk", "org.uk", "ac.uk", "gov.uk", "me.uk", "co.jp", "ne.jp", "or.jp", "com.au", "net.au",
    "org.au", "com.br", "net.br", "com.cn", "net.cn", "org.cn", "co.in", "com.mx", "com.tr",
    "com.ar", "co.nz", "co.za", "com.sg", "com.hk",
];

fn old_registrable_domain(host: &str) -> &str {
    let host = host.trim_end_matches('.');
    if host.is_empty() {
        return host;
    }
    if host.chars().all(|c| c.is_ascii_digit() || c == '.') {
        return host;
    }
    let labels: Vec<&str> = host.split('.').collect();
    if labels.len() <= 1 {
        return host;
    }
    if labels.len() >= 2 {
        let last2 = join_from(host, &labels, labels.len() - 2);
        if TWO_LEVEL_SUFFIXES.contains(&last2) {
            return if labels.len() >= 3 {
                join_from(host, &labels, labels.len() - 3)
            } else {
                host
            };
        }
    }
    join_from(host, &labels, labels.len() - 2)
}

fn join_from<'a>(host: &'a str, labels: &[&str], from: usize) -> &'a str {
    let skip: usize = labels[..from].iter().map(|l| l.len() + 1).sum();
    &host[skip..]
}

/// One label: ordinary, empty, numeric, a public-suffix piece, non-ASCII.
fn label() -> BoxedStrategy<String> {
    prop_oneof![
        "[a-z0-9-]{1,8}",
        Just(String::new()),
        "[0-9]{1,3}",
        (0..8usize)
            .prop_map(|i| ["co", "uk", "com", "au", "jp", "org", "net", "za"][i].to_string()),
        "[a-zé\u{a0}ÀΩ]{1,4}",
        "[A-Z]{1,4}",
    ]
    .boxed()
}

/// Hosts built from labels (twice as likely), with up to three trailing
/// dots, or short strings over the characters that matter, or anything
/// printable.
fn host() -> BoxedStrategy<String> {
    let labelled = || {
        (proptest::collection::vec(label(), 0..6), 0..4usize)
            .prop_map(|(labels, dots)| format!("{}{}", labels.join("."), ".".repeat(dots)))
    };
    prop_oneof![labelled(), labelled(), "[a-c0-9.é]{0,10}", "\\PC{0,16}"].boxed()
}

/// Cases per property: the functions are cheap, so far more than the
/// stand-in's default 128.
const CASES: u64 = 5_000;

#[test]
fn hand_picked_hosts_agree() {
    for h in [
        "",
        ".",
        "..",
        "a..b",
        "a..co.uk",
        "..co.uk",
        ".co.uk",
        "co.uk",
        "co.uk.",
        "x.co.uk...",
        "bbc.co.uk",
        "news.bbc.co.uk",
        "10.2.3.4",
        "10.2.3.4.",
        "1.2.x",
        "localhost",
        "localhost.",
        "é.example",
        "a.é.co.jp",
        "ads.tracker.example.com",
        "[::1]",
    ] {
        assert_eq!(
            registrable_domain(h),
            old_registrable_domain(h),
            "registrable_domain({h:?})"
        );
    }
}

#[test]
fn registrable_domain_agrees_with_the_split_oracle() {
    let hosts = host();
    for case in 0..CASES {
        let mut rng = TestRng::for_case(case);
        let (a, b) = (hosts.generate(&mut rng), hosts.generate(&mut rng));
        assert_eq!(registrable_domain(&a), old_registrable_domain(&a), "{a:?}");
        assert_eq!(
            is_third_party(&a, &b),
            old_registrable_domain(&a) != old_registrable_domain(&b),
            "{a:?} from {b:?}"
        );
    }
}
