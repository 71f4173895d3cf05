//! Property-based tests for the filter engine: the parser never panics, the
//! token index never changes verdicts relative to a naive scan, exceptions
//! always win, and matching is stable under URL-preserving rewrites.

use abp_filter::{parse_line, Engine, FilterList, ParsedLine, Request};
use http_model::{ContentCategory, Url};
use proptest::prelude::*;

/// Strategy for URL-ish host names.
fn host_strategy() -> impl Strategy<Value = String> {
    proptest::collection::vec("[a-z][a-z0-9]{0,8}", 2..4).prop_map(|labels| labels.join("."))
}

/// Strategy for path strings.
fn path_strategy() -> impl Strategy<Value = String> {
    proptest::collection::vec("[a-zA-Z0-9_.-]{1,8}", 0..4)
        .prop_map(|segs| format!("/{}", segs.join("/")))
}

/// Strategy for arbitrary filter-line-ish text.
fn filter_line_strategy() -> impl Strategy<Value = String> {
    prop_oneof![
        // Realistic shapes.
        host_strategy().prop_map(|h| format!("||{h}^")),
        host_strategy().prop_map(|h| format!("||{h}^$third-party")),
        path_strategy().prop_map(|p| format!("{p}/*")),
        (host_strategy(), path_strategy()).prop_map(|(h, p)| format!("@@||{h}{p}")),
        "[!-~ ]{0,40}", // arbitrary printable junk
    ]
}

proptest! {
    #[test]
    fn parser_never_panics(line in "\\PC{0,120}") {
        let _ = parse_line(&line);
    }

    #[test]
    fn parser_accepts_or_rejects_gracefully(line in filter_line_strategy()) {
        match parse_line(&line) {
            ParsedLine::Net(f) => {
                // Round-trip sanity: raw text preserved (modulo trimming).
                prop_assert_eq!(&*f.raw, line.trim());
            }
            ParsedLine::Hiding(_) | ParsedLine::Ignored | ParsedLine::Invalid { .. } => {}
        }
    }

    #[test]
    fn classification_never_panics(
        host in host_strategy(),
        path in path_strategy(),
        page_host in host_strategy(),
        rules in proptest::collection::vec(filter_line_strategy(), 0..20),
    ) {
        let list = FilterList::parse("fuzz", &rules.join("\n"));
        let mut engine = Engine::new();
        engine.add_list(list);
        let url = Url::parse(&format!("http://{host}{path}")).unwrap();
        let page = Url::parse(&format!("http://{page_host}/")).unwrap();
        for cat in ContentCategory::ALL {
            let _ = engine.classify(&Request {
                url: &url,
                source_url: Some(&page),
                category: cat,
            });
        }
    }

    #[test]
    fn exception_always_wins(
        host in host_strategy(),
        path in path_strategy(),
    ) {
        // A blocking rule and an identical exception: never blocked.
        let text = format!("||{host}^\n@@||{host}^\n");
        let mut engine = Engine::new();
        engine.add_list(FilterList::parse("t", &text));
        let url = Url::parse(&format!("http://sub.{host}{path}")).unwrap();
        let page = Url::parse("http://unrelated.page.example/").unwrap();
        let v = engine.classify(&Request {
            url: &url,
            source_url: Some(&page),
            category: ContentCategory::Image,
        });
        prop_assert!(!v.would_block(), "verdict: {v:?}");
        prop_assert!(v.exception.is_some());
    }

    #[test]
    fn case_of_url_does_not_matter(
        host in host_strategy(),
        path in "[a-z]{1,10}",
    ) {
        let text = format!("||{host}/{path}\n");
        let mut engine = Engine::new();
        engine.add_list(FilterList::parse("t", &text));
        let page = Url::parse("http://p.example/").unwrap();
        let lower = Url::parse(&format!("http://{host}/{path}")).unwrap();
        let upper = Url::parse(&format!("http://{}/{}", host.to_uppercase(), path.to_uppercase())).unwrap();
        let v1 = engine.classify(&Request { url: &lower, source_url: Some(&page), category: ContentCategory::Image });
        let v2 = engine.classify(&Request { url: &upper, source_url: Some(&page), category: ContentCategory::Image });
        prop_assert_eq!(v1.would_block(), v2.would_block());
    }

    #[test]
    fn hostname_anchor_never_matches_other_registrable_domains(
        host in host_strategy(),
        other in host_strategy(),
        path in path_strategy(),
    ) {
        prop_assume!(!other.ends_with(&host) && !host.ends_with(&other));
        let text = format!("||{host}^\n");
        let mut engine = Engine::new();
        engine.add_list(FilterList::parse("t", &text));
        let url = Url::parse(&format!("http://{other}{path}")).unwrap();
        let page = Url::parse("http://p.example/").unwrap();
        let v = engine.classify(&Request {
            url: &url,
            source_url: Some(&page),
            category: ContentCategory::Image,
        });
        // The anchored rule must not fire for an unrelated host (the URL
        // path could still contain the host string, but `||` anchors to the
        // authority; our generated paths never contain dots + slashes that
        // spell the host, so this must hold).
        if v.would_block() {
            // Only acceptable if the host text appears in the path.
            prop_assert!(url.path().contains(&host), "false block of {url}");
        }
    }
}

/// Naive reference matcher: scan every filter without the token index.
/// The engine's verdict must agree with brute force over the same rules.
#[test]
fn token_index_agrees_with_brute_force() {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(1234);
    let hosts: Vec<String> = (0..20).map(|i| format!("host{i}.example")).collect();
    let markers = ["/ads/", "/track/", "/content/", "/img/"];
    // Build a rule set.
    let mut rules = String::new();
    for (i, h) in hosts.iter().enumerate() {
        if i % 3 == 0 {
            rules.push_str(&format!("||{h}^\n"));
        }
    }
    rules.push_str("/ads/\n/track/*\n@@||host3.example/ads/allowed/\n");
    let list = FilterList::parse("t", &rules);
    // Brute force representation.
    let brute: Vec<(bool, abp_filter::NetFilter)> = list
        .blocking
        .iter()
        .map(|f| (false, f.clone()))
        .chain(list.exceptions.iter().map(|f| (true, f.clone())))
        .collect();
    let mut engine = Engine::new();
    engine.add_list(list);
    let page = Url::parse("http://page.example/").unwrap();
    for _ in 0..2000 {
        let host = &hosts[rng.gen_range(0..hosts.len())];
        let marker = markers[rng.gen_range(0..markers.len())];
        let url = Url::parse(&format!(
            "http://{host}{marker}obj{}.gif",
            rng.gen_range(0..50)
        ))
        .unwrap();
        let verdict = engine.classify(&Request {
            url: &url,
            source_url: Some(&page),
            category: ContentCategory::Image,
        });
        // Brute force.
        let lower = url.as_string().to_ascii_lowercase();
        let (hs, he) = abp_filter::matcher::host_span(&lower);
        let mut blocked = false;
        let mut excepted = false;
        for (is_exc, f) in &brute {
            if abp_filter::matcher::matches(&f.pattern, &lower, hs, he) {
                if *is_exc {
                    excepted = true;
                } else {
                    blocked = true;
                }
            }
        }
        let expected = blocked && !excepted;
        assert_eq!(
            verdict.would_block(),
            expected,
            "mismatch for {url}: engine={:?} brute=({blocked},{excepted})",
            verdict
        );
    }
}
