//! Differential tests: the compiled engine must produce **byte-identical**
//! [`Classification`]s to the reference engine — same blocking set in the
//! same order, same exception, same `page_whitelisted`, same
//! `first_match_depth` — over generated rule sets × URLs × options.
//!
//! `Classification` derives `PartialEq`, so one `prop_assert_eq!` covers
//! the whole contract (including per-list attribution order, since
//! `blocking` is an ordered `Vec`).

use abp_filter::{Classification, ClassifyScratch, CompiledEngine, Engine, FilterList, Request};
use http_model::{ContentCategory, Url};
use proptest::prelude::*;

fn host_strategy() -> impl Strategy<Value = String> {
    proptest::collection::vec("[a-z][a-z0-9]{0,8}", 2..4).prop_map(|labels| labels.join("."))
}

fn path_strategy() -> impl Strategy<Value = String> {
    proptest::collection::vec("[a-zA-Z0-9_.-]{1,8}", 0..4)
        .prop_map(|segs| format!("/{}", segs.join("/")))
}

/// Rule shapes covering every compiled code path: hostname anchors, start
/// anchors, path rules, wildcards, separators, type options, party
/// options, `$domain=` include/exclude, `match-case`, exceptions, and
/// `$document` page whitelists.
fn rule_strategy() -> impl Strategy<Value = String> {
    prop_oneof![
        host_strategy().prop_map(|h| format!("||{h}^")),
        host_strategy().prop_map(|h| format!("||{h}^$third-party")),
        host_strategy().prop_map(|h| format!("||{h}^$image,script")),
        host_strategy().prop_map(|h| format!("||{h}/ads/")),
        (host_strategy(), host_strategy()).prop_map(|(h, d)| format!("||{h}^$domain={d}")),
        (host_strategy(), host_strategy()).prop_map(|(h, d)| format!("||{h}^$domain=~{d}")),
        path_strategy().prop_map(|p| format!("{p}^")),
        path_strategy().prop_map(|p| format!("{p}/*")),
        path_strategy().prop_map(|p| format!("{p}$~third-party")),
        "[a-z]{3,8}".prop_map(|w| format!("&{w}_id=")),
        "[a-z]{3,8}".prop_map(|w| format!("|http://{w}.example/")),
        "[a-z]{3,8}".prop_map(|w| format!("{w}$match-case")),
        (host_strategy(), path_strategy()).prop_map(|(h, p)| format!("@@||{h}{p}")),
        host_strategy().prop_map(|h| format!("@@||{h}^$document")),
        host_strategy().prop_map(|h| format!("@@||{h}^")),
    ]
}

fn build(rule_lists: &[Vec<String>]) -> (Engine, CompiledEngine) {
    let mut engine = Engine::new();
    for (i, rules) in rule_lists.iter().enumerate() {
        engine.add_list(FilterList::parse(&format!("list{i}"), &rules.join("\n")));
    }
    let compiled = CompiledEngine::compile(&engine);
    (engine, compiled)
}

fn both(
    engine: &Engine,
    compiled: &CompiledEngine,
    scratch: &mut ClassifyScratch,
    url: &Url,
    page: Option<&Url>,
    cat: ContentCategory,
) -> (Classification, Classification) {
    let req = Request {
        url,
        source_url: page,
        category: cat,
    };
    (engine.classify(&req), compiled.classify(&req, scratch))
}

proptest! {
    #[test]
    fn compiled_verdicts_identical(
        lists in proptest::collection::vec(
            proptest::collection::vec(rule_strategy(), 1..16), 1..4),
        host in host_strategy(),
        path in path_strategy(),
        page_host in host_strategy(),
        with_page in 0..2u8,
    ) {
        let (engine, compiled) = build(&lists);
        let mut scratch = ClassifyScratch::new();
        let url = Url::parse(&format!("http://{host}{path}")).unwrap();
        let page = Url::parse(&format!("http://{page_host}/")).unwrap();
        let page = (with_page == 1).then_some(&page);
        for cat in ContentCategory::ALL {
            let (r, c) = both(&engine, &compiled, &mut scratch, &url, page, cat);
            prop_assert_eq!(r, c, "diverged on {} ({:?})", url, cat);
        }
    }

    #[test]
    fn compiled_identical_on_rule_derived_urls(
        rules in proptest::collection::vec(rule_strategy(), 1..24),
        suffix in "[a-z0-9]{0,6}",
        cat_idx in 0..ContentCategory::ALL.len(),
    ) {
        // URLs derived from the rules themselves maximize match density —
        // the interesting half of the space (random URLs mostly miss).
        let (engine, compiled) = build(std::slice::from_ref(&rules));
        let mut scratch = ClassifyScratch::new();
        let cat = ContentCategory::ALL[cat_idx];
        let page = Url::parse("http://page.example/").unwrap();
        for rule in &rules {
            let stripped = rule
                .trim_start_matches("@@")
                .trim_start_matches("||")
                .trim_start_matches('|');
            let body = stripped.split('$').next().unwrap_or("");
            let body = body.replace(['^', '*'], "/");
            let candidate = if body.starts_with("http://") {
                format!("{body}{suffix}")
            } else if body.starts_with('/') || body.starts_with('&') {
                format!("http://site.example/x{body}{suffix}")
            } else {
                format!("http://{body}{suffix}")
            };
            let Ok(url) = Url::parse(&candidate) else { continue };
            let (r, c) = both(&engine, &compiled, &mut scratch, &url, Some(&page), cat);
            prop_assert_eq!(r, c, "diverged on {} ({:?})", url, cat);
        }
    }
}

/// The token every [`fat_rule_strategy`] rule is indexed under: the other
/// runs of those rules are at most two bytes long, so this one is always
/// the longest.
const FAT_WORD: &str = "banner";

/// Rules sharing [`FAT_WORD`] as their index token with different bytes
/// around it — one bucket of hundreds, as `&<word>_id=<n>` makes at
/// EasyList scale. Sealed shapes (which carry a literal alignment) and
/// unsealed ones (which must not) are mixed, so are anchors, `$match-case`
/// and exceptions.
fn fat_rule_strategy() -> impl Strategy<Value = String> {
    let w = FAT_WORD;
    prop_oneof![
        (0..40u32).prop_map(move |n| format!("&{w}_id={n}")),
        (0..40u32).prop_map(move |n| format!("/{w}/{n}/")),
        (0..40u32).prop_map(move |n| format!("/{n}/{w}^")),
        (0..40u32).prop_map(move |n| format!("-{w}.{n}|")),
        (0..40u32).prop_map(move |n| format!("/{n}^{w}.")),
        "[a-z]{2}".prop_map(move |t| format!("||{w}.{t}^")),
        "[a-z]{2}".prop_map(move |t| format!("||{w}.{t}/a/$third-party")),
        "[a-z]{2}".prop_map(move |t| format!("|http://{w}.{t}/")),
        // Unsealed: an unanchored edge, or a `*` beside the run.
        (0..40u32).prop_map(move |n| format!("{w}_id={n}")),
        (0..40u32).prop_map(move |n| format!("/{n}/{w}")),
        (0..40u32).prop_map(move |n| format!("/{n}/*{w}*.js")),
        (0..40u32).prop_map(move |n| format!("/B{n}/{}$match-case", w.to_uppercase())),
        (0..40u32).prop_map(move |n| format!("/{w}/{n}/$match-case,image")),
        (0..40u32).prop_map(move |n| format!("@@&{w}_id={n}$script")),
        (0..40u32).prop_map(move |n| format!("@@/{w}/{n}/ok")),
    ]
}

/// URLs from one fat-bucket rule: the rule's own text as a URL, with the
/// token as it is and embedded in a longer run on either side; each of
/// those alone, with a second occurrence of the token after it (so the
/// bucket is surfaced even when the rule's own run is embedded) and with
/// two more in host and path; the plain one upper-cased; and the plain one
/// with the rule's text again after it, or another `&<token>_id=` literal
/// — two occurrences that each find an entry, the same one or another.
fn fat_urls(rule: &str, n: u32) -> Vec<String> {
    let stripped = rule
        .trim_start_matches("@@")
        .trim_start_matches("||")
        .trim_start_matches('|');
    let body = stripped.split('$').next().unwrap_or("");
    let body = body.trim_end_matches('|').replace(['^', '*'], "/");
    let base = if body.starts_with("http://") {
        format!("{body}x")
    } else if body.starts_with('&') {
        format!("http://site.example/p?q={n}{body}")
    } else if body.starts_with(['/', '-']) {
        format!("http://site.example/x{body}")
    } else {
        format!("http://{body}")
    };
    let w = FAT_WORD;
    let mut out = vec![
        base.to_uppercase(),
        format!("{base}{body}"),
        format!("{base}&{w}_id={}", n + 1),
    ];
    for shape in [
        base.replacen(w, &format!("my{w}"), 1),
        base.replacen(w, &format!("{w}{n}"), 1),
        base,
    ] {
        out.push(format!("{shape}&{w}={n}"));
        out.push(shape.replacen("site.example", &format!("{w}.example/{w}"), 1));
        out.push(shape);
    }
    out
}

proptest! {
    #[test]
    fn compiled_identical_on_fat_buckets(
        lists in proptest::collection::vec(
            proptest::collection::vec(fat_rule_strategy(), 25..100), 2..4),
        picks in proptest::collection::vec((0..10_000usize, 0..100u32), 6..16),
        with_page in 0..2u8,
    ) {
        // Every list also puts an aligned and an unaligned entry of its
        // own into the bucket, so it always mixes both across lists.
        let mut lists = lists;
        for (i, rules) in lists.iter_mut().enumerate() {
            rules.push(format!("&{FAT_WORD}_id={i}"));
            rules.push(format!("{FAT_WORD}_id={i}"));
        }
        let (engine, compiled) = build(&lists);
        let mut scratch = ClassifyScratch::new();
        let page = Url::parse("http://page.example/").unwrap();
        let page = (with_page == 1).then_some(&page);
        let rules: Vec<&String> = lists.iter().flatten().collect();
        for (i, &(pick, n)) in picks.iter().enumerate() {
            for candidate in fat_urls(rules[pick % rules.len()], n) {
                let Ok(url) = Url::parse(&candidate) else { continue };
                let cat = ContentCategory::ALL[i % ContentCategory::ALL.len()];
                let (r, c) = both(&engine, &compiled, &mut scratch, &url, page, cat);
                prop_assert_eq!(r, c, "diverged on {} ({:?})", url, cat);
            }
        }
    }
}

/// Dense seeded sweep with shared hosts/markers so candidates collide in
/// buckets across lists (exercising dup-list skips, depth accounting, and
/// the bucket-level AND early-out) — the proptest shapes above rarely
/// produce deep buckets.
#[test]
fn compiled_identical_on_colliding_buckets() {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(0xD1FF);
    let hosts: Vec<String> = (0..12).map(|i| format!("srv{i}.example")).collect();
    let markers = ["/ads/", "/banners/", "/track/", "/content/"];
    let mut lists: Vec<Vec<String>> = vec![Vec::new(); 3];
    for (i, h) in hosts.iter().enumerate() {
        lists[i % 3].push(format!("||{h}^"));
        if i % 2 == 0 {
            lists[(i + 1) % 3].push(format!("||{h}/ads/"));
        }
    }
    for m in markers {
        lists[0].push(m.to_string());
        lists[1].push(format!("{m}*img^"));
    }
    lists[2].push("@@||srv3.example/ads/allowed/".to_string());
    lists[2].push("@@||srv5.example^$document".to_string());
    let (engine, compiled) = build(&lists);
    let mut scratch = ClassifyScratch::new();
    let pages: Vec<Url> = (0..4)
        .map(|i| Url::parse(&format!("http://page{i}.example/")).unwrap())
        .collect();
    for _ in 0..4000 {
        let host = &hosts[rng.gen_range(0..hosts.len())];
        let marker = markers[rng.gen_range(0..markers.len())];
        let url = Url::parse(&format!(
            "http://{host}{marker}img{}.gif",
            rng.gen_range(0..40)
        ))
        .unwrap();
        let page = (!rng.gen_bool(0.1)).then(|| &pages[rng.gen_range(0..pages.len())]);
        let cat = ContentCategory::ALL[rng.gen_range(0..ContentCategory::ALL.len())];
        let (r, c) = both(&engine, &compiled, &mut scratch, &url, page, cat);
        assert_eq!(r, c, "diverged on {url} ({cat:?})");
    }
}
