//! End-to-end differential gates for the compiled filter engine: the
//! compiled and reference engines must classify identical labels over a
//! full synthetic trace (in the one-thread oracle, and in the stream engine
//! at 4 workers), and over an EasyList-scale generated list the per-request
//! `Classification`s must be byte-identical — clean, fault-injected, and
//! adversarial inputs alike.
//! The driven trace's own requests are also classified at EasyList scale
//! (the request mix the fat token buckets see), with the compiled engine's
//! tallies over them pinned, and every alignment record of the compiled
//! engine is audited against its bucket key. The compiled engine
//! `PassiveClassifier::new` lowers straight from the lists is held to the
//! one compiled from the reference engine, array by array.

use abp_filter::tokenizer::{filter_index_token, filter_token, hash_token};
use abp_filter::{ClassifyScratch, CompiledEngine, Engine, Request};
use adscope::pipeline::classify_trace;
use adscope::stream::{classify_stream_chunks, Fold, StreamOptions};
use annoyed_users::prelude::*;
use browsersim::drive::{drive, DriveOutput};
use netsim::stream::SliceChunks;
use webgen::{easylist_scale, ScaleConfig};

fn eco() -> Ecosystem {
    Ecosystem::generate(EcosystemConfig {
        publishers: 60,
        ad_companies: 10,
        trackers: 10,
        cdn_edges: 6,
        hosting_servers: 10,
        seed: 0xD1FF,
        ..Default::default()
    })
}

fn lists(eco: &Ecosystem) -> Vec<FilterList> {
    vec![
        eco.lists.easylist(),
        eco.lists.regional(),
        eco.lists.easyprivacy(),
        eco.lists.acceptable(),
    ]
}

/// The ecosystem's lists with the EasyList-scale list appended: the list
/// size ad-blockers ship, where `&<word>_id=<n>` makes token buckets of
/// hundreds of rules.
fn easylist_scale_lists(eco: &Ecosystem) -> Vec<FilterList> {
    let scale = easylist_scale(ScaleConfig {
        rules: 40_000,
        seed: 0xEA5E,
    });
    let mut all = lists(eco);
    all.push(FilterList::parse("easylist-scale", &scale.text));
    all
}

fn driven_trace(eco: &Ecosystem) -> Trace {
    let mut pop = Population::generate(
        eco,
        &PopulationConfig {
            households: 12,
            seed: 0xE0E0,
            ..Default::default()
        },
    );
    let DriveOutput { trace, .. } = drive(
        eco,
        &mut pop,
        &ActivityProfile::default(),
        &DriveConfig::rbn2(0.5),
    );
    trace
}

/// Each request's label and URL by its position in the trace.
#[derive(Clone, Default)]
struct Labels(Vec<(u64, AdLabel, Url)>);

impl Fold for Labels {
    fn observe(&mut self, pos: u64, req: &ClassifiedRequest) {
        self.0.push((pos, req.label.clone(), req.url.clone()));
    }
    fn merge(&mut self, part: Labels) {
        self.0.extend(part.0);
    }
}

/// `trace` through the stream engine at `threads` workers: (label, URL)
/// in trace order.
fn streamed_labels(
    trace: &Trace,
    classifier: &PassiveClassifier,
    threads: usize,
) -> Vec<(AdLabel, Url)> {
    let opts = StreamOptions {
        threads,
        ..StreamOptions::default()
    };
    let registry = obs::Registry::new();
    let (_, Labels(mut labels)) = classify_stream_chunks(
        SliceChunks(trace.records.chunks(512)),
        trace.meta.clone(),
        classifier,
        &opts,
        &registry,
        Labels::default(),
    )
    .expect("stream classify");
    labels.sort_unstable_by_key(|(pos, _, _)| *pos);
    labels.into_iter().map(|(_, l, u)| (l, u)).collect()
}

/// Compiled vs reference over a driven trace, including the pipeline's
/// fault injection (mislabeled content types, broken referrer chains are
/// part of every driven trace): the reference engine in the one-thread
/// oracle is the base, and the compiled engine in the oracle and both
/// engines in the stream engine at 4 workers must match it.
#[test]
fn trace_labels_identical_across_engines_and_threads() {
    let eco = eco();
    let trace = driven_trace(&eco);
    let compiled = PassiveClassifier::new(lists(&eco));
    let reference = PassiveClassifier::reference(lists(&eco));
    let opts = PipelineOptions::default();
    let labels = |ct: ClassifiedTrace| -> Vec<(AdLabel, Url)> {
        ct.requests.into_iter().map(|r| (r.label, r.url)).collect()
    };
    let base = labels(classify_trace(&trace, &reference, opts));
    for (name, got) in [
        (
            "compiled/1",
            labels(classify_trace(&trace, &compiled, opts)),
        ),
        ("compiled/4", streamed_labels(&trace, &compiled, 4)),
        ("reference/4", streamed_labels(&trace, &reference, 4)),
    ] {
        assert_eq!(base.len(), got.len(), "{name}: request count diverged");
        for ((a_label, a_url), (b_label, b_url)) in base.iter().zip(&got) {
            assert_eq!(a_label, b_label, "{name}: label diverged on {a_url}");
            assert_eq!(a_url, b_url, "{name}: url diverged");
        }
    }
}

/// The driven trace's own requests — normalized URL, reconstructed page,
/// inferred category — against the ecosystem lists + the EasyList-scale
/// list: trace URLs carry query strings and the ad words that surface the
/// fat buckets, which `ScaleList::sample_urls` does not.
#[test]
fn trace_requests_identical_at_easylist_scale() {
    let eco = eco();
    let trace = driven_trace(&eco);
    let classifier = PassiveClassifier::new(easylist_scale_lists(&eco));
    let engine = classifier.engine();
    let compiled = classifier.compiled().expect("compiled mode");
    let requests = classify_trace(&trace, &classifier, PipelineOptions::default());
    assert!(requests.requests.len() > 1_000, "trace too small to matter");
    let mut scratch = ClassifyScratch::new();
    let (mut ads, mut deep) = (0usize, 0usize);
    for r in &requests.requests {
        let req = Request {
            url: &r.url,
            source_url: r.page.as_ref(),
            category: r.category,
        };
        let verdict = compiled.classify(&req, &mut scratch);
        assert_eq!(engine.classify(&req), verdict, "diverged on {}", r.url);
        ads += usize::from(verdict.is_ad());
        deep += usize::from(verdict.first_match_depth.is_some_and(|d| d >= 100));
    }
    assert!(ads > 100, "only {ads} ad requests in the trace");
    assert!(deep > 0, "no request matched behind a fat bucket");
}

/// The compiled engine's tallies over the driven trace's requests at
/// EasyList scale, pinned to the counts of the entry-by-entry bucket scan:
/// how a bucket finds its aligned entries may change, how many candidates
/// are surfaced, pre-filter rejected and evaluated, and at what depth each
/// first match sits, may not.
#[test]
fn easylist_scale_tallies_are_pinned() {
    let eco = eco();
    let trace = driven_trace(&eco);
    let classifier = PassiveClassifier::new(easylist_scale_lists(&eco));
    let requests = classify_trace(&trace, &classifier, PipelineOptions::default());
    let mut compiled = CompiledEngine::compile(classifier.engine());
    let registry = obs::Registry::new();
    compiled.bind_metrics(&registry);
    let mut scratch = ClassifyScratch::new();
    for r in &requests.requests {
        let req = Request {
            url: &r.url,
            source_url: r.page.as_ref(),
            category: r.category,
        };
        compiled.classify(&req, &mut scratch);
    }
    let s = registry.snapshot();
    let depth = s
        .histogram("abp_first_match_depth", &[])
        .expect("some request matched");
    let depth_buckets: Vec<(usize, u64)> = depth
        .buckets
        .iter()
        .enumerate()
        .filter(|&(_, &n)| n > 0)
        .map(|(i, &n)| (i, n))
        .collect();
    assert_eq!(
        (
            s.counter("abp_candidates_total", &[]),
            s.counter("abp_prefilter_rejects_total", &[]),
            s.counter("abp_rules_evaluated_total", &[]),
        ),
        (70_712, 69_498, 784),
        "(candidates, pre-filter rejects, rules evaluated)"
    );
    assert_eq!(
        (depth_buckets.as_slice(), depth.sum),
        (
            &[(0, 182), (1, 108), (2, 45), (3, 12), (8, 258)][..],
            50_003
        ),
        "abp_first_match_depth (non-empty buckets, sum)"
    );
}

/// `PassiveClassifier::new` lowers the lists straight into the compiled
/// form; that must be the engine `CompiledEngine::compile` makes of the
/// reference `Engine` over the same lists, at EasyList scale: the same
/// layout (compile stats and every alignment record, in order), the same
/// tallies and byte-identical `Classification`s over the driven trace's
/// requests. The reference `Engine` the classifier builds on demand must
/// hold the same lists, rules and query literals as one loaded directly.
#[test]
fn new_lowers_the_lists_like_the_reference_engine() {
    let eco = eco();
    let trace = driven_trace(&eco);
    let classifier = PassiveClassifier::new(easylist_scale_lists(&eco));
    let reference = PassiveClassifier::reference(easylist_scale_lists(&eco));
    let mut lowered = classifier.compiled().expect("compiled mode").clone();
    let mut compiled = CompiledEngine::compile(reference.engine());
    assert_eq!(lowered.stats(), compiled.stats());
    assert!(lowered.stats().rules > 35_000);
    assert!(
        lowered.alignment_records().eq(compiled.alignment_records()),
        "alignment records differ"
    );

    let (lowered_registry, compiled_registry) = (obs::Registry::new(), obs::Registry::new());
    lowered.bind_metrics(&lowered_registry);
    compiled.bind_metrics(&compiled_registry);
    let requests = classify_trace(&trace, &reference, PipelineOptions::default());
    assert!(requests.requests.len() > 1_000, "trace too small to matter");
    let mut scratch = ClassifyScratch::new();
    for r in &requests.requests {
        let req = Request {
            url: &r.url,
            source_url: r.page.as_ref(),
            category: r.category,
        };
        assert_eq!(
            lowered.classify(&req, &mut scratch),
            compiled.classify(&req, &mut scratch),
            "diverged on {}",
            r.url
        );
    }
    assert_eq!(lowered_registry.snapshot(), compiled_registry.snapshot());

    let (lazy, loaded) = (classifier.engine(), reference.engine());
    assert_eq!(lazy.filter_count(), loaded.filter_count());
    assert_eq!(lazy.list_names(), loaded.list_names());
    assert_eq!(lazy.query_literals(), loaded.query_literals());
    assert_eq!(classifier.query_literals(), loaded.query_literals());
    assert_eq!(classifier.rule_count(), loaded.filter_count());
}

/// Structural identity at EasyList scale: lowered straight from the lists,
/// the compiled engine holds the arrays of the one compiled from the
/// reference `Engine` — every rule, text, arena, bucket, shape and probe
/// slot — not only its figures and verdicts. The same lists in another
/// load order lay out differently, so equal digests are not vacuous.
#[test]
fn from_lists_lays_out_what_compile_lays_out() {
    let eco = eco();
    let mut engine = Engine::new();
    for list in easylist_scale_lists(&eco) {
        engine.add_list(list);
    }
    let compiled = CompiledEngine::compile(&engine);
    let lowered = CompiledEngine::from_lists(easylist_scale_lists(&eco));
    assert!(lowered.stats().rules > 35_000);
    assert_eq!(lowered.stats(), compiled.stats());
    assert_eq!(lowered.layout_digest(), compiled.layout_digest());

    let mut swapped = easylist_scale_lists(&eco);
    swapped.swap(0, 1);
    let swapped = CompiledEngine::from_lists(swapped);
    assert_eq!(swapped.stats(), compiled.stats());
    assert_ne!(swapped.layout_digest(), compiled.layout_digest());
}

/// One source of truth for the index token: over every rule of the
/// ecosystem lists + the EasyList-scale list the located run hashes to the
/// bucket key, and every alignment the compiled engine stored points at
/// the run its bucket is keyed under.
#[test]
fn alignment_points_at_the_bucket_token() {
    let eco = eco();
    let all = easylist_scale_lists(&eco);
    let mut engine = Engine::new();
    let mut rules = 0usize;
    for list in all {
        for f in list.blocking.iter().chain(&list.exceptions) {
            let lits: Vec<&str> = f.pattern.literals().collect();
            let key = filter_token(lits.iter().copied());
            let located = filter_index_token(lits.iter().copied()).map(|t| {
                assert_eq!(
                    t.hash,
                    hash_token(&lits[t.literal].as_bytes()[t.offset..][..t.len])
                );
                t.hash
            });
            assert_eq!(located, key, "index token of {}", f.raw);
            rules += 1;
        }
        engine.add_list(list);
    }
    assert!(rules > 35_000, "only {rules} network rules");
    let compiled = CompiledEngine::compile(&engine);
    let mut aligned = 0usize;
    for (key, literal, offset) in compiled.alignment_records() {
        let run = &literal[offset..];
        let len = run.iter().take_while(|b| b.is_ascii_alphanumeric()).count();
        assert!(offset == 0 || !literal[offset - 1].is_ascii_alphanumeric());
        assert_eq!(
            hash_token(&run[..len]),
            key,
            "alignment off its bucket's run"
        );
        aligned += 1;
    }
    // `||domain^`, `/path/` and `&word_id=n` all seal their index token.
    assert!(
        aligned * 10 > rules * 9,
        "{aligned} of {rules} rules aligned"
    );
}

/// Compiled vs reference over the EasyList-scale generated list: tens of
/// thousands of rules, a hit/miss URL mix, plus adversarial URLs (long
/// token runs, separator storms, empty paths, uppercase).
#[test]
fn easylist_scale_classifications_identical() {
    let scale = easylist_scale(ScaleConfig {
        rules: 20_000,
        seed: 42,
    });
    let mut engine = Engine::new();
    engine.add_list(FilterList::parse("easylist-scale", &scale.text));
    let compiled = CompiledEngine::compile(&engine);
    let mut scratch = ClassifyScratch::new();
    let mut urls = scale.sample_urls(3_000, 0.5, 7);
    // Adversarial shapes: token floods, separator storms, case, no path,
    // rule-text-embedded-in-path.
    urls.push(format!("http://evil.example/{}", "a".repeat(900)));
    urls.push(format!("http://evil.example/{}", "ads/".repeat(200)));
    urls.push("http://evil.example/^^^^?%%%%".to_string());
    urls.push("HTTP://ADSERVBANNER0.COM/SERVE/UNIT1.JS".to_string());
    urls.push("http://adservbanner0.com".to_string());
    urls.push("http://x.com/||adservbanner0.com^".to_string());
    let pages = [
        Some("http://www.pub.example/"),
        Some("http://adservbanner1.com/"),
        None,
    ];
    let mut checked = 0usize;
    for (i, u) in urls.iter().enumerate() {
        let Ok(url) = Url::parse(u) else { continue };
        let page = pages[i % pages.len()].map(|p| Url::parse(p).unwrap());
        let cat = ContentCategory::ALL[i % ContentCategory::ALL.len()];
        let req = Request {
            url: &url,
            source_url: page.as_ref(),
            category: cat,
        };
        assert_eq!(
            engine.classify(&req),
            compiled.classify(&req, &mut scratch),
            "diverged on {u} ({cat:?})"
        );
        checked += 1;
    }
    assert!(checked > 2_900, "only {checked} URLs checked");
}
