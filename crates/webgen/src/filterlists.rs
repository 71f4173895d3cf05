//! Filter-list generation consistent with the synthetic ecosystem.
//!
//! The generator emits **real EasyList syntax text**, which the `abp-filter`
//! crate parses exactly as it would parse a downloaded list. Keeping the
//! lists textual (rather than constructing rules programmatically) exercises
//! the full parse-match path and keeps the paper's methodology honest: the
//! passive classifier only ever sees rule text and headers.
//!
//! Generated lists:
//!
//! * **EasyList** — blocks every ad network/exchange domain, generic ad
//!   paths, and English publishers' self-hosted ad paths; carries the
//!   element-hiding rules and a couple of legitimate `@@` exceptions
//!   (including a query-string one, the §3.1 normalization hazard).
//! * **EasyList-Regionalia** — the language-derivative list covering
//!   regional publishers' self-hosted ads.
//! * **EasyPrivacy** — blocks tracker/analytics domains and generic
//!   tracking paths.
//! * **Acceptable ads** (`exceptionrules`) — whitelists the participating
//!   networks, parts of the search giant (its ad service + analytics, and
//!   its static CDN via an *overly broad* `$document` rule, the `gstatic`
//!   case of §7.3), and the tech publisher's self-hosted platform.

use crate::adtech::{AdTechCompany, AdTechKind};
use crate::publisher::Publisher;
use abp_filter::FilterList;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write as _;

/// The four generated lists, as text and parsed.
#[derive(Debug, Clone)]
pub struct GeneratedLists {
    /// EasyList text.
    pub easylist_text: String,
    /// Language-derivative list text.
    pub regional_text: String,
    /// EasyPrivacy text.
    pub easyprivacy_text: String,
    /// Acceptable-ads whitelist text.
    pub acceptable_text: String,
}

/// Canonical list names used across the reproduction.
pub mod names {
    /// EasyList.
    pub const EASYLIST: &str = "easylist";
    /// The language-derivative list.
    pub const REGIONAL: &str = "easylist-regionalia";
    /// EasyPrivacy.
    pub const EASYPRIVACY: &str = "easyprivacy";
    /// The acceptable-ads ("non-intrusive ads") whitelist.
    pub const ACCEPTABLE: &str = "acceptable-ads";
}

impl GeneratedLists {
    /// Generate the lists for an ecosystem's companies and publishers.
    pub fn generate(
        companies: &[AdTechCompany],
        publishers: &[Publisher],
        self_platform_publisher: usize,
    ) -> GeneratedLists {
        GeneratedLists {
            easylist_text: easylist(companies, publishers),
            regional_text: regional(publishers),
            easyprivacy_text: easyprivacy(companies),
            acceptable_text: acceptable(companies, publishers, self_platform_publisher),
        }
    }

    /// Parse EasyList.
    pub fn easylist(&self) -> FilterList {
        FilterList::parse(names::EASYLIST, &self.easylist_text)
    }

    /// Parse the regional derivative.
    pub fn regional(&self) -> FilterList {
        FilterList::parse(names::REGIONAL, &self.regional_text)
    }

    /// Parse EasyPrivacy.
    pub fn easyprivacy(&self) -> FilterList {
        FilterList::parse(names::EASYPRIVACY, &self.easyprivacy_text)
    }

    /// Parse the acceptable-ads list.
    pub fn acceptable(&self) -> FilterList {
        FilterList::parse(names::ACCEPTABLE, &self.acceptable_text)
    }
}

fn easylist(companies: &[AdTechCompany], publishers: &[Publisher]) -> String {
    let mut out =
        String::from("[Adblock Plus 2.0]\n! Title: EasyList (synthetic)\n! Expires: 4 days\n");
    // Domain rules for every ad network and exchange.
    for c in companies {
        if c.listed && matches!(c.kind, AdTechKind::AdNetwork | AdTechKind::Exchange) {
            for d in &c.domains {
                // The giant's static CDN hosts fonts etc.; EasyList still
                // blacklists its ad-ish subpaths only, not the whole domain.
                if d.contains("-cdn.") {
                    out.push_str(&format!("||{d}/banners/\n"));
                } else {
                    out.push_str(&format!("||{d}^$third-party\n"));
                }
            }
        }
    }
    // Generic ad-path rules (cover self-hosted ads on English sites and any
    // network using the markers).
    out.push_str("/adserve/*$~third-party,domain=~downloads.adblockplus.example\n");
    out.push_str("/adserve/\n/banners/\n/adframe/\n&ad_box_\n");
    // Self-hosted sponsor paths of *English* publishers are in core
    // EasyList; regional ones live in the derivative list.
    for p in publishers
        .iter()
        .filter(|p| p.self_hosted_ads && !p.regional)
    {
        out.push_str(&format!("||{}/sponsor/\n", p.domain));
    }
    // A few legitimate exception rules, including the query-string hazard.
    out.push_str("@@*jsp?callback=aslHandleAds*\n");
    out.push_str("@@||downloads.adblockplus.example^\n");
    // Element hiding: generic plus search-site text ads.
    out.push_str("##.ad-banner\n##.sponsored-inline\n");
    for p in publishers {
        if p.pages.iter().any(|pg| pg.embedded_text_ads > 0) {
            out.push_str(&format!("{}##.textad\n", p.domain));
        }
    }
    out
}

fn regional(publishers: &[Publisher]) -> String {
    let mut out = String::from(
        "[Adblock Plus 2.0]\n! Title: EasyList Regionalia (synthetic)\n! Expires: 4 days\n",
    );
    for p in publishers
        .iter()
        .filter(|p| p.self_hosted_ads && p.regional)
    {
        out.push_str(&format!("||{}/sponsor/\n", p.domain));
    }
    // Regional generic rule variant.
    out.push_str("/werbung/\n/anzeigen/\n");
    out
}

fn easyprivacy(companies: &[AdTechCompany]) -> String {
    let mut out =
        String::from("[Adblock Plus 2.0]\n! Title: EasyPrivacy (synthetic)\n! Expires: 1 days\n");
    for c in companies
        .iter()
        .filter(|c| c.listed && c.is_privacy_target())
    {
        for d in &c.domains {
            out.push_str(&format!("||{d}^$third-party\n"));
        }
    }
    out.push_str("/pixel/\n/beacon/\n/collect/\n");
    out
}

fn acceptable(
    companies: &[AdTechCompany],
    publishers: &[Publisher],
    self_platform_publisher: usize,
) -> String {
    let mut out = String::from(
        "[Adblock Plus 2.0]\n! Title: Allow non-intrusive advertising (synthetic)\n! Expires: 1 days\n",
    );
    for c in companies.iter().filter(|c| c.acceptable) {
        match c.id {
            crate::ecosystem::GIANT_EXCHANGE => {
                // Partial whitelisting of the giant: the ad service yes, the
                // RTB exchange (doubleklick) no; the static CDN via an
                // overly broad $document rule — the gstatic case.
                out.push_str("@@||adservice.gigglesearch.example^\n");
                // Overly broad rules, the paper's gstatic case: one
                // whitelists the whole domain (fonts included), the other
                // whole pages hosted there.
                out.push_str("@@||static.gigglesearch-cdn.example^\n");
                out.push_str("@@||static.gigglesearch-cdn.example^$document\n");
            }
            crate::ecosystem::GIANT_ANALYTICS => {
                // Only the loader script is deemed non-intrusive; the
                // beacons stay EasyPrivacy-blockable.
                out.push_str("@@||analytics.gigglesearch.example/collect/analytics.js\n");
            }
            _ => {
                for d in &c.domains {
                    out.push_str(&format!("@@||{d}^\n"));
                }
            }
        }
    }
    // The tech publisher's own ad platform: whitelist its sponsor path.
    let tech = &publishers[self_platform_publisher];
    out.push_str(&format!("@@||{}/sponsor/\n", tech.domain));
    out
}

/// Configuration for [`easylist_scale`], the EasyList-sized synthetic list.
#[derive(Debug, Clone, Copy)]
pub struct ScaleConfig {
    /// Number of network rules to emit (real EasyList carries tens of
    /// thousands; the bench default is 40 000).
    pub rules: usize,
    /// RNG seed; the same seed reproduces the same list and URL pool.
    pub seed: u64,
}

impl Default for ScaleConfig {
    fn default() -> ScaleConfig {
        ScaleConfig {
            rules: 40_000,
            seed: 0xEA5E,
        }
    }
}

/// An EasyList-scale generated list plus the pools needed to synthesize a
/// realistic request mix against it.
#[derive(Debug, Clone)]
pub struct ScaleList {
    /// The list text, in EasyList syntax.
    pub text: String,
    /// Ad-serving domains the list blocks (for generating hit URLs).
    pub blocked_domains: Vec<String>,
    /// Path fragments the list blocks (for generating hit URLs).
    pub blocked_paths: Vec<String>,
}

const AD_WORDS: &[&str] = &[
    "ads",
    "adserv",
    "banner",
    "track",
    "click",
    "pixel",
    "sponsor",
    "promo",
    "pop",
    "affiliate",
    "metrics",
    "beacon",
    "count",
    "syndic",
    "widget",
    "media",
    "serve",
    "delivery",
    "exchange",
    "market",
];
const TLDS: &[&str] = &["com", "net", "io", "biz", "info", "co", "org"];
const PATH_WORDS: &[&str] = &[
    "banners",
    "adframe",
    "adimg",
    "popunder",
    "sponsorship",
    "clicktrack",
    "telemetry",
    "impress",
    "creative",
    "slots",
];
const TYPE_OPTS: &[&str] = &["script", "image", "xmlhttprequest", "subdocument", "media"];

/// Uniform pick from a non-empty slice (the vendored `rand` has no
/// `SliceRandom::choose`).
fn pick<'a, T>(rng: &mut StdRng, items: &'a [T]) -> &'a T {
    &items[rng.gen_range(0..items.len())]
}

fn scale_domain(rng: &mut StdRng, n: usize) -> String {
    let a = pick(rng, AD_WORDS);
    let b = pick(rng, AD_WORDS);
    let tld = pick(rng, TLDS);
    format!("{a}{b}{n}.{tld}")
}

/// Generate an EasyList-scale network-rule list with realistic shape
/// distributions: mostly `||domain^` hostname rules (some with
/// `$third-party`, type options, or `$domain=` restrictions), a tail of
/// generic path and query rules, a few percent of `@@` exceptions, and a
/// sprinkle of element-hiding rules. Every rule parses cleanly; the
/// returned pools let callers synthesize a hit/miss request mix.
pub fn easylist_scale(config: ScaleConfig) -> ScaleList {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut text = String::with_capacity(config.rules * 32);
    text.push_str("[Adblock Plus 2.0]\n! Title: EasyList (synthetic, scale)\n! Expires: 4 days\n");
    let mut blocked_domains = Vec::new();
    let mut blocked_paths = Vec::new();
    for n in 0..config.rules {
        let shape = rng.gen_range(0..100u32);
        if shape < 55 {
            // Hostname-anchored domain rule.
            let d = scale_domain(&mut rng, n);
            let _ = write!(text, "||{d}^");
            let opt = rng.gen_range(0..100u32);
            if opt < 40 {
                text.push_str("$third-party");
            } else if opt < 55 {
                let t = pick(&mut rng, TYPE_OPTS);
                let _ = write!(text, "${t}");
            } else if opt < 65 {
                let on_n = rng.gen_range(0..config.rules);
                let on = scale_domain(&mut rng, on_n);
                if rng.gen_bool(0.2) {
                    let _ = write!(text, "$domain=~{on}");
                } else {
                    let _ = write!(text, "$domain={on}");
                }
            }
            text.push('\n');
            blocked_domains.push(d);
        } else if shape < 80 {
            // Generic path rule, sometimes wildcarded.
            let w = pick(&mut rng, PATH_WORDS);
            let start = text.len();
            if rng.gen_bool(0.3) {
                let _ = write!(text, "/{w}{}/*/img^", n % 97);
            } else {
                let _ = write!(text, "/{w}{}/", n % 997);
            }
            blocked_paths.push(text[start..].trim_end_matches("*/img^").to_string());
            if rng.gen_bool(0.15) {
                text.push_str("$image");
            }
            text.push('\n');
        } else if shape < 90 {
            // Query-string rule.
            let w = pick(&mut rng, AD_WORDS);
            let _ = writeln!(text, "&{w}_id={}", n % 89);
        } else if shape < 95 {
            // Exception rule.
            let d = scale_domain(&mut rng, n);
            if rng.gen_bool(0.3) {
                let _ = writeln!(text, "@@||{d}^$document");
            } else {
                let _ = writeln!(text, "@@||{d}^");
            }
        } else {
            // Element-hiding rule (engine-relevant but not network-path).
            let w = pick(&mut rng, AD_WORDS);
            if rng.gen_bool(0.25) {
                let d = scale_domain(&mut rng, n);
                let _ = writeln!(text, "{d}##.{w}-box{}", n % 53);
            } else {
                let _ = writeln!(text, "##.{w}-unit{}", n % 53);
            }
        }
    }
    ScaleList {
        text,
        blocked_domains,
        blocked_paths,
    }
}

impl ScaleList {
    /// Synthesize a request-URL mix against this list: `hit_fraction` of
    /// URLs target blocked domains/paths, the rest are clean first-party
    /// fetches (the common case in a real trace).
    pub fn sample_urls(&self, n: usize, hit_fraction: f64, seed: u64) -> Vec<String> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                if rng.gen_bool(hit_fraction) && !self.blocked_domains.is_empty() {
                    if rng.gen_bool(0.7) {
                        let d = pick(&mut rng, &self.blocked_domains);
                        format!("http://{d}/serve/unit{}.js", i % 211)
                    } else {
                        let p = pick(&mut rng, &self.blocked_paths);
                        format!("http://cdn{}.example{p}asset{}.gif", i % 17, i % 211)
                    }
                } else {
                    format!(
                        "http://www.site{}.example/content/page{}/image{}.jpg",
                        i % 400,
                        i % 37,
                        i
                    )
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ecosystem::{Ecosystem, EcosystemConfig, GIANT_EXCHANGE};
    use abp_filter::{Engine, Request};
    use http_model::{ContentCategory, Url};

    fn eco() -> Ecosystem {
        Ecosystem::generate(EcosystemConfig {
            publishers: 50,
            ad_companies: 10,
            trackers: 10,
            cdn_edges: 8,
            hosting_servers: 16,
            seed: 7,
            ..Default::default()
        })
    }

    fn engine_for(eco: &Ecosystem) -> Engine {
        let mut e = Engine::new();
        e.add_list(eco.lists.easylist());
        e.add_list(eco.lists.regional());
        e.add_list(eco.lists.easyprivacy());
        e.add_list(eco.lists.acceptable());
        e
    }

    #[test]
    fn lists_parse_cleanly() {
        let eco = eco();
        for (name, list) in [
            ("easylist", eco.lists.easylist()),
            ("regional", eco.lists.regional()),
            ("easyprivacy", eco.lists.easyprivacy()),
            ("acceptable", eco.lists.acceptable()),
        ] {
            assert!(
                list.invalid.is_empty(),
                "{name} has invalid rules: {:?}",
                list.invalid
            );
            assert!(list.rule_count() > 0, "{name} is empty");
        }
    }

    #[test]
    fn ad_network_requests_blocked() {
        let eco = eco();
        let engine = engine_for(&eco);
        // Find a non-giant ad network and a publisher using it.
        let c = eco
            .companies
            .iter()
            .find(|c| c.kind == AdTechKind::AdNetwork)
            .unwrap();
        let url = Url::parse(&format!("http://{}/banners/b1.gif", c.primary_domain())).unwrap();
        let page = Url::parse("http://www.dailyherald000.example/").unwrap();
        let v = engine.classify(&Request {
            url: &url,
            source_url: Some(&page),
            category: ContentCategory::Image,
        });
        assert!(v.is_ad(), "network {} not classified", c.name);
    }

    #[test]
    fn tracker_requests_hit_easyprivacy() {
        let eco = eco();
        let engine = engine_for(&eco);
        let c = eco
            .companies
            .iter()
            .find(|c| c.is_privacy_target())
            .unwrap();
        let url = Url::parse(&format!("http://{}/pixel/p0_0.gif", c.primary_domain())).unwrap();
        let page = Url::parse("http://www.portalmix010.example/").unwrap();
        let v = engine.classify(&Request {
            url: &url,
            source_url: Some(&page),
            category: ContentCategory::Image,
        });
        // EasyPrivacy is list id 2 in engine_for's load order.
        let easyprivacy = abp_filter::ListId(2);
        assert!(
            v.blocking.iter().any(|f| f.list == easyprivacy),
            "verdict: {v:?}"
        );
    }

    #[test]
    fn acceptable_network_whitelisted_but_blacklisted() {
        // Whether the shared fixture contains an acceptable ad network is
        // a coin flip over the RNG stream (10 companies at 10%); this test
        // is about whitelist semantics, not that lottery, so raise the
        // acceptable-ads share until the population is guaranteed.
        let eco = Ecosystem::generate(EcosystemConfig {
            publishers: 50,
            ad_companies: 10,
            trackers: 10,
            cdn_edges: 8,
            hosting_servers: 16,
            seed: 7,
            acceptable_fraction: 0.6,
            ..Default::default()
        });
        let engine = engine_for(&eco);
        let c = eco
            .companies
            .iter()
            .find(|c| c.acceptable && c.kind == AdTechKind::AdNetwork)
            .expect("an acceptable ad network");
        let url = Url::parse(&format!("http://{}/banners/nice.gif", c.primary_domain())).unwrap();
        let page = Url::parse("http://www.shopmart003.example/").unwrap();
        let v = engine.classify(&Request {
            url: &url,
            source_url: Some(&page),
            category: ContentCategory::Image,
        });
        assert!(v.whitelisted_overriding_block(), "verdict: {v:?}");
        assert!(!v.would_block());
    }

    #[test]
    fn giant_partial_whitelisting() {
        let eco = eco();
        let engine = engine_for(&eco);
        let page = Url::parse("http://www.dailyherald001.example/").unwrap();
        // doubleklick (RTB exchange): blocked.
        let dk = Url::parse("http://doubleklick.gigglesearch.example/adserve/bid1").unwrap();
        let v = engine.classify(&Request {
            url: &dk,
            source_url: Some(&page),
            category: ContentCategory::Xhr,
        });
        assert!(v.would_block(), "doubleklick must be blocked: {v:?}");
        // adservice: whitelisted.
        let asvc = Url::parse("http://adservice.gigglesearch.example/adserve/show1.js").unwrap();
        let v2 = engine.classify(&Request {
            url: &asvc,
            source_url: Some(&page),
            category: ContentCategory::Script,
        });
        assert!(!v2.would_block(), "adservice must pass: {v2:?}");
        assert!(v2.is_ad());
    }

    #[test]
    fn gstatic_document_rule_whitelists_noncommercial_content() {
        let eco = eco();
        let engine = engine_for(&eco);
        // A font from the giant's static CDN, fetched from a page hosted on
        // that same CDN domain (e.g. a hosted landing page): the $document
        // rule whitelists the page and thus everything on it — including
        // requests no blacklist would have caught (the §7.3 anomaly).
        let font = Url::parse("http://static.gigglesearch-cdn.example/fonts/roboto.woff2").unwrap();
        let page = Url::parse("http://static.gigglesearch-cdn.example/landing/").unwrap();
        let v = engine.classify(&Request {
            url: &font,
            source_url: Some(&page),
            category: ContentCategory::Font,
        });
        assert!(v.exception.is_some(), "verdict: {v:?}");
        assert!(!v.whitelisted_overriding_block());
    }

    #[test]
    fn regional_sponsor_paths_only_in_derivative_list() {
        let eco = eco();
        let regional_pub = eco
            .publishers
            .iter()
            .find(|p| p.self_hosted_ads && p.regional);
        let Some(p) = regional_pub else {
            return; // tiny ecosystems may lack one; other seeds cover it
        };
        // Engine with EasyList only: not blocked via the domain rule.
        let mut el_only = Engine::new();
        el_only.add_list(eco.lists.easylist());
        let url = Url::parse(&format!("http://{}/sponsor/self0_0.gif", p.www_host)).unwrap();
        let page = Url::parse(&format!("http://{}/", p.www_host)).unwrap();
        let v = el_only.classify(&Request {
            url: &url,
            source_url: Some(&page),
            category: ContentCategory::Image,
        });
        // The sponsor path itself is not in core EasyList for regional pubs.
        assert!(
            v.blocking.iter().all(|f| !f.filter.contains(&p.domain)),
            "core EasyList must not carry {}'s sponsor rule",
            p.domain
        );
        // Engine with the derivative: blocked via the publisher rule.
        let mut both = Engine::new();
        both.add_list(eco.lists.easylist());
        let reg = both.add_list(eco.lists.regional());
        let v2 = both.classify(&Request {
            url: &url,
            source_url: Some(&page),
            category: ContentCategory::Image,
        });
        assert!(v2.blocking.iter().any(|f| f.list == reg), "verdict: {v2:?}");
    }

    #[test]
    fn abp_download_host_never_blocked() {
        let eco = eco();
        let engine = engine_for(&eco);
        let url = Url::parse("http://downloads.adblockplus.example/easylist.txt").unwrap();
        let v = engine.classify(&Request {
            url: &url,
            source_url: None,
            category: ContentCategory::Other,
        });
        assert!(!v.would_block(), "verdict: {v:?}");
    }

    #[test]
    fn giant_exchange_is_company_zero() {
        assert_eq!(GIANT_EXCHANGE, 0);
    }

    #[test]
    fn scale_list_parses_cleanly_and_is_deterministic() {
        let cfg = ScaleConfig {
            rules: 2_000,
            seed: 11,
        };
        let a = easylist_scale(cfg);
        let b = easylist_scale(cfg);
        assert_eq!(a.text, b.text, "same seed must reproduce the list");
        let list = FilterList::parse("easylist-scale", &a.text);
        assert!(
            list.invalid.is_empty(),
            "invalid rules: {:?}",
            &list.invalid[..list.invalid.len().min(5)]
        );
        // Network rules dominate; element hiding rides along.
        assert!(list.rule_count() > 1_800, "got {}", list.rule_count());
        assert!(!a.blocked_domains.is_empty());
        assert!(!a.blocked_paths.is_empty());
    }

    #[test]
    fn scale_list_hit_urls_block() {
        let scale = easylist_scale(ScaleConfig {
            rules: 5_000,
            seed: 3,
        });
        let mut engine = Engine::new();
        engine.add_list(FilterList::parse("easylist-scale", &scale.text));
        let urls = scale.sample_urls(500, 1.0, 99);
        let page = Url::parse("http://www.pub.example/").unwrap();
        let blocked = urls
            .iter()
            .filter(|u| {
                let url = Url::parse(u).unwrap();
                engine
                    .classify(&Request {
                        url: &url,
                        source_url: Some(&page),
                        category: ContentCategory::Script,
                    })
                    .would_block()
            })
            .count();
        // Not every "hit" URL matches (type options, $domain= restrictions,
        // exceptions), but the majority must.
        assert!(blocked > 250, "only {blocked}/500 hit URLs blocked");
    }

    #[test]
    fn scale_list_clean_urls_pass() {
        let scale = easylist_scale(ScaleConfig {
            rules: 5_000,
            seed: 3,
        });
        let mut engine = Engine::new();
        engine.add_list(FilterList::parse("easylist-scale", &scale.text));
        let urls = scale.sample_urls(200, 0.0, 7);
        let page = Url::parse("http://www.pub.example/").unwrap();
        for u in &urls {
            let url = Url::parse(u).unwrap();
            let v = engine.classify(&Request {
                url: &url,
                source_url: Some(&page),
                category: ContentCategory::Image,
            });
            assert!(!v.would_block(), "clean URL blocked: {u} by {v:?}");
        }
    }
}
