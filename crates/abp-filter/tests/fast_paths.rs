//! The per-request fast paths of the compiled engine, each against what it
//! replaced.
//!
//! * `host_span` is a byte scan; `old_host_span` (the `str::find` version)
//!   is kept here as its oracle, over URL-shaped and arbitrary strings.
//! * The URL tokenizer folds each run's hash in as it scans, without the
//!   case fold; `old_url_tokens` (find the run, then `hash_token` it) is its
//!   oracle over lowercased strings.
//! * The page-host memo in `ClassifyScratch`: one scratch reused across
//!   requests whose page hosts alternate, with `$document` requests and
//!   page-less requests interleaved, must give what a fresh scratch per
//!   request gives — every `Classification` field and every match-path
//!   counter — and what the reference `Engine` gives.

use abp_filter::matcher::host_span;
use abp_filter::tokenizer::{hash_token, url_tokens_with_starts_into, MIN_TOKEN_LEN};
use abp_filter::{ClassifyScratch, CompiledEngine, Engine, FilterList, Request};
use http_model::{ContentCategory, Url};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn old_host_span(url: &str) -> (usize, usize) {
    let start = url.find("://").map(|p| p + 3).unwrap_or(0);
    let end = url[start..]
        .find(['/', '?', ':'])
        .map(|p| p + start)
        .unwrap_or(url.len());
    (start, end)
}

fn old_url_tokens(url: &str) -> (Vec<u64>, Vec<usize>) {
    let bytes = url.as_bytes();
    let (mut tokens, mut starts) = (Vec::new(), Vec::new());
    let mut start = None;
    for i in 0..=bytes.len() {
        if i < bytes.len() && bytes[i].is_ascii_alphanumeric() {
            start.get_or_insert(i);
        } else if let Some(s) = start.take() {
            if i - s >= MIN_TOKEN_LEN {
                tokens.push(hash_token(&bytes[s..i]));
                starts.push(s);
            }
        }
    }
    (tokens, starts)
}

/// URL-shaped strings with every delimiter the scans look for in odd
/// places, and arbitrary printable strings.
fn url_like() -> BoxedStrategy<String> {
    prop_oneof![
        "[a-z]{0,6}://[a-zA-Z0-9.:/?é-]{0,24}",
        "[a-z:/?.]{0,12}",
        ":?/{0,3}[a-z]{0,4}://{0,2}[a-z.]{0,6}[:/?]{0,2}[a-z]{0,4}",
        "\\PC{0,40}",
    ]
    .boxed()
}

proptest! {
    #[test]
    fn host_span_agrees_with_the_find_oracle(url in url_like()) {
        prop_assert_eq!(host_span(&url), old_host_span(&url), "{:?}", url);
    }

    #[test]
    fn url_tokens_agree_with_the_two_pass_oracle(url in url_like()) {
        let lower = url.to_ascii_lowercase();
        let (mut tokens, mut starts) = (Vec::new(), Vec::new());
        url_tokens_with_starts_into(&lower, &mut tokens, &mut starts);
        prop_assert_eq!((tokens, starts), old_url_tokens(&lower), "{:?}", lower);
    }
}

#[test]
fn host_span_hand_picked() {
    for url in [
        "",
        "://",
        ":",
        ":/",
        "a:/",
        "a:/b://c/d",
        "http://",
        "http://h",
        "http://h:81",
        "http://h?q",
        "http:///x",
        "x://y://z/",
        "é://ü/é",
        "no-scheme/path:x",
    ] {
        assert_eq!(host_span(url), old_host_span(url), "{url:?}");
    }
}

/// Page-keyed rules of every kind the memo feeds: `$domain=` includes and
/// excludes, both party constraints, `$document` exceptions keyed by host
/// and by prefix, and a blocking rule on a whitelisted page's own host.
const LISTS: &[(&str, &str)] = &[
    (
        "easylist",
        "/sponsor^$domain=news.example|~shop.news.example\n\
         ||track.example^$third-party\n\
         /first/*$~third-party\n\
         ||portal.example^\n\
         /ads/$domain=portal.example|shop.news.example\n\
         /promo^\n",
    ),
    (
        "easyprivacy",
        "/pixel?$domain=~news.example\n||track.example/p^\n",
    ),
    (
        "acceptable-ads",
        "@@||portal.example^$document\n@@||wide$document\n\
         @@/ads/ok$domain=shop.news.example\n",
    ),
];

const PAGES: &[&str] = &[
    "http://news.example/",
    "http://shop.news.example/a",
    "http://portal.example/index.html",
    "http://wideopen.example/",
    "http://track.example/",
    "http://NEWS.example:8080/x",
];

const URLS: &[&str] = &[
    "http://track.example/t.js",
    "http://track.example/p/1",
    "http://news.example/first/x",
    "http://cdn.example/sponsor/x.png",
    "http://portal.example/index.html",
    "http://wideopen.example/promo/",
    "http://x.example/ads/ok.gif",
    "http://x.example/pixel?id=1",
    "http://shop.news.example/first/promo",
];

/// Classify one request three ways and require one answer.
fn check(
    engine: &Engine,
    (shared, fresh): (&CompiledEngine, &CompiledEngine),
    scratch: &mut ClassifyScratch,
    (url, page, category): (&Url, Option<&Url>, ContentCategory),
) {
    let req = Request {
        url,
        source_url: page,
        category,
    };
    let reused = shared.classify(&req, scratch);
    assert_eq!(
        reused,
        fresh.classify(&req, &mut ClassifyScratch::new()),
        "reused scratch diverged from a fresh one on {url} from {page:?} ({category:?})"
    );
    assert_eq!(
        reused,
        engine.classify(&req),
        "compiled diverged from the reference on {url} from {page:?} ({category:?})"
    );
}

#[test]
fn a_reused_scratch_classifies_like_a_fresh_one_across_page_changes() {
    let mut engine = Engine::new();
    for (name, text) in LISTS {
        engine.add_list(FilterList::parse(name, text));
    }
    let (shared_reg, fresh_reg) = (obs::Registry::new(), obs::Registry::new());
    let mut shared = CompiledEngine::compile(&engine);
    let mut fresh = shared.clone();
    shared.bind_metrics(&shared_reg);
    fresh.bind_metrics(&fresh_reg);
    let pages: Vec<Url> = PAGES.iter().map(|p| Url::parse(p).unwrap()).collect();
    let urls: Vec<Url> = URLS.iter().map(|u| Url::parse(u).unwrap()).collect();
    let mut scratch = ClassifyScratch::new();
    let mut run = |url: usize, page: Option<usize>, category| {
        check(
            &engine,
            (&shared, &fresh),
            &mut scratch,
            (&urls[url], page.map(|p| &pages[p]), category),
        );
    };

    // Hand-worked: page A; a document request (its own host hashed into
    // the scratch) from page A, then page A again; page-less; B; A; a
    // document request with no page; A.
    use ContentCategory::{Document, Image, Script};
    run(3, Some(0), Image);
    run(4, Some(0), Document);
    run(3, Some(0), Image);
    run(3, Some(1), Image);
    run(0, None, Script);
    run(3, Some(1), Image);
    run(6, Some(2), Image);
    run(6, Some(1), Image);
    run(4, None, Document);
    run(5, Some(3), Image);
    run(3, Some(5), Image);
    run(3, Some(0), Image);

    // Seeded: page views of random length, interleaved with document and
    // page-less requests.
    let mut rng = StdRng::seed_from_u64(0x3E30);
    let mut page = 0;
    for _ in 0..3_000 {
        if rng.gen_bool(0.3) {
            page = rng.gen_range(0..pages.len());
        }
        let url = rng.gen_range(0..urls.len());
        let category = ContentCategory::ALL[rng.gen_range(0..ContentCategory::ALL.len())];
        let with_page = !rng.gen_bool(0.15);
        run(url, with_page.then_some(page), category);
    }

    let (s, f) = (shared_reg.snapshot(), fresh_reg.snapshot());
    for counter in [
        "abp_requests_total",
        "abp_rules_evaluated_total",
        "abp_tokenizer_hits_total",
        "abp_candidates_total",
        "abp_prefilter_rejects_total",
        "abp_whitelist_overrides_total",
    ] {
        assert_eq!(
            s.counter(counter, &[]),
            f.counter(counter, &[]),
            "{counter}"
        );
    }
    assert!(s.counter("abp_whitelist_overrides_total", &[]) > 0);
}
