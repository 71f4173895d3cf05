//! Integration tests for the §3 methodology components across crates:
//! redirect repair, URL normalization with real filter lists, content-type
//! inference under mislabeling, and the active-measurement validation loop.

use annoyed_users::prelude::*;
use browsersim::active::run_crawl;
use browsersim::browser::vanilla;
use http_model::useragent::Os;

fn eco() -> Ecosystem {
    Ecosystem::generate(EcosystemConfig {
        publishers: 80,
        ad_companies: 10,
        trackers: 12,
        cdn_edges: 8,
        hosting_servers: 12,
        seed: 0x3717,
        ..Default::default()
    })
}

fn classifier(eco: &Ecosystem) -> PassiveClassifier {
    PassiveClassifier::new(vec![
        eco.lists.easylist(),
        eco.lists.regional(),
        eco.lists.easyprivacy(),
        eco.lists.acceptable(),
    ])
}

/// Drive a single vanilla browser over ad-heavy pages and capture.
fn one_browser_trace(eco: &Ecosystem, seed: u64) -> Trace {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut browser = vanilla(
        4242,
        UserAgent::desktop(BrowserFamily::Chrome, Os::Linux, 44),
    );
    let meta = netsim::record::TraceMeta {
        name: "methodology".into(),
        duration_secs: 600.0,
        subscribers: 1,
        start_hour: 12,
        start_weekday: 2,
    };
    let mut capture = Capture::new(meta, seed);
    let mut ts = 0.0;
    for &pub_idx in eco.top_sites.top(30) {
        let p = &eco.publishers[pub_idx];
        let (events, _) = browser.visit_page(eco, p, &p.pages[0], ts, None, &mut rng);
        for ev in &events {
            capture.observe(ev, &mut rng);
        }
        ts += 20.0;
    }
    capture.finish()
}

#[test]
fn redirect_repair_recovers_page_context() {
    // The request after a 3xx carries no Referer: only the repaired chain
    // gives it a page. Seed 1's trace follows redirects.
    use adscope::refmap::PageSource;
    let eco = eco();
    let trace = one_browser_trace(&eco, 1);
    let c = classifier(&eco);
    let explained = adscope::pipeline::explain_trace(&trace, &c, PipelineOptions::default());
    let repaired: Vec<_> = explained
        .provenance
        .iter()
        .zip(&explained.requests)
        .filter(|(p, _)| p.page_source == PageSource::RedirectRepair)
        .collect();
    assert!(
        !repaired.is_empty(),
        "no request was stitched across a redirect"
    );
    for (p, r) in repaired {
        assert!(p.page.is_some() && r.page.is_some(), "{}", p.url);
    }
}

#[test]
fn normalization_does_not_lose_ads() {
    // Dynamic query strings (cache busters) must not prevent rules from
    // matching: the raw URLs, classified with the page and category the
    // pipeline gave each request, find about as many ads as the
    // normalized ones do.
    let eco = eco();
    let trace = one_browser_trace(&eco, 2);
    let c = classifier(&eco);
    let classified = adscope::pipeline::classify_trace(&trace, &c, PipelineOptions::default());
    let objects = adscope::pipeline::extract_objects(&trace);
    assert_eq!(objects.len(), classified.requests.len());
    let ads_raw = objects
        .iter()
        .zip(&classified.requests)
        .filter(|(o, r)| c.classify(&o.url, r.page.as_ref(), r.category).is_ad())
        .count() as f64;
    let ads_normalized = classified.ad_request_count() as f64;
    assert!(
        (ads_normalized - ads_raw).abs() / ads_raw.max(1.0) < 0.05,
        "normalization changed ad count: {ads_normalized} vs {ads_raw}"
    );
}

#[test]
fn page_context_mostly_resolves_to_publisher_hosts() {
    let eco = eco();
    let trace = one_browser_trace(&eco, 3);
    let c = classifier(&eco);
    let classified = adscope::pipeline::classify_trace(&trace, &c, PipelineOptions::default());
    let with_page = classified
        .requests
        .iter()
        .filter(|r| r.page.is_some())
        .count() as f64;
    assert!(
        with_page / classified.requests.len() as f64 > 0.9,
        "page reconstruction coverage too low"
    );
    // Page roots should be publisher www hosts, not ad-tech hosts.
    let pub_pages = classified
        .requests
        .iter()
        .filter_map(|r| r.page.as_ref())
        .filter(|p| p.host().starts_with("www."))
        .count() as f64;
    let total_pages = classified
        .requests
        .iter()
        .filter(|r| r.page.is_some())
        .count() as f64;
    assert!(
        pub_pages / total_pages > 0.85,
        "page roots polluted: {:.2}",
        pub_pages / total_pages
    );
}

#[test]
fn active_crawl_validates_classifier_against_plugins() {
    // The §4 loop: for every blocker profile, the requests the passive
    // classifier would block must be (near-)absent from that profile's own
    // trace, because the plugin blocked them in-browser.
    let eco = eco();
    let results = run_crawl(&eco, &ActiveConfig { sites: 50, seed: 4 });
    let c = classifier(&eco);
    let count_blockable = |trace: &Trace| {
        let cls = adscope::pipeline::classify_trace(trace, &c, PipelineOptions::default());
        cls.requests
            .iter()
            .filter(|r| r.label.default_install_blocks())
            .count()
    };
    let vanilla_hits = count_blockable(&results.run(BrowserProfile::Vanilla).trace);
    let adbp_hits = count_blockable(&results.run(BrowserProfile::AdbpAds).trace);
    assert!(
        vanilla_hits > 100,
        "vanilla must show ad traffic: {vanilla_hits}"
    );
    // False positives (residual hits under the blocking profile) stay small.
    let fp_rate = adbp_hits as f64 / vanilla_hits as f64;
    assert!(fp_rate < 0.08, "false-positive rate {fp_rate:.3}");
}

#[test]
fn mislabeled_content_types_do_not_dominate() {
    // §4.2: the main source of misclassification is JS served as text/html.
    // The extension map catches most of it; inferred categories should be
    // script for .js URLs even when the header lies.
    let eco = eco();
    let trace = one_browser_trace(&eco, 5);
    let c = classifier(&eco);
    let classified = adscope::pipeline::classify_trace(&trace, &c, PipelineOptions::default());
    for r in &classified.requests {
        if r.url.path().ends_with(".js") {
            assert_eq!(
                r.category,
                ContentCategory::Script,
                "extension must win for {}",
                r.url
            );
        }
    }
}

#[test]
fn https_pages_break_referers_like_the_paper_says() {
    // §10: objects of HTTPS pages cannot always be associated. Our
    // simulation reproduces the mixed-content referer suppression; the
    // pipeline must still classify those requests (possibly without page
    // context) rather than dropping them.
    let eco = eco();
    let https_pub = eco
        .publishers
        .iter()
        .find(|p| browsersim::browser::page_uses_https(p) && !p.ad_companies.is_empty());
    let Some(p) = https_pub else {
        return;
    };
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let mut rng = StdRng::seed_from_u64(6);
    let mut browser = vanilla(
        777,
        UserAgent::desktop(BrowserFamily::Firefox, Os::Windows, 38),
    );
    let (events, _) = browser.visit_page(&eco, p, &p.pages[0], 0.0, None, &mut rng);
    let meta = netsim::record::TraceMeta {
        name: "https".into(),
        duration_secs: 60.0,
        subscribers: 1,
        start_hour: 0,
        start_weekday: 0,
    };
    let mut capture = Capture::new(meta, 1);
    for ev in &events {
        capture.observe(ev, &mut rng);
    }
    let trace = capture.finish();
    // The HTTPS main document is an opaque flow; HTTP subresources remain.
    assert!(trace.https_count() >= 1);
    let c = classifier(&eco);
    let classified = adscope::pipeline::classify_trace(&trace, &c, PipelineOptions::default());
    assert_eq!(classified.requests.len(), trace.http_count());
}
