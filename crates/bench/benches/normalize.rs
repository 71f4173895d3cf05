//! URL normalization against few and many protected query literals.
//!
//! The normalizer asks, per dynamic query value, whether any filter rule
//! mentions the pair. `small` asks it of the ecosystem's four lists (one
//! query literal), `easylist` of those plus the EasyList-scale list
//! (≈4 000 literals): with the literals indexed (DESIGN.md §18) the two
//! read alike, where a scan of the literals read ≈100 µs per URL at
//! EasyList scale. `bench_gate` holds `easylist` under an absolute
//! 1 500 ns/URL, so the scan cannot come back unnoticed. Elements are
//! URLs, so Criterion's per-element reading is per URL.
//!
//! `ScaleList::sample_urls` carries no query strings, so every URL gets
//! one here: the trace's own shape (`cb`, `ord`, `pub`), pairs the list's
//! literals protect or nearly protect, an opaque token, static values.
//! `build_easylist` is the once-per-run index build, per build.

use abp_filter::FilterList;
use adscope::normalize::UrlNormalizer;
use bench::{bench_classifier, bench_ecosystem};
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use http_model::Url;
use std::hint::black_box;
use webgen::{easylist_scale, ScaleConfig, ScaleList};

const URLS: usize = 2_000;

fn urls_with_queries(scale: &ScaleList) -> Vec<Url> {
    const WORDS: [&str; 5] = ["ads", "track", "click", "pixel", "u"];
    scale
        .sample_urls(URLS, 0.05, 0xBE7C)
        .iter()
        .enumerate()
        .map(|(i, raw)| {
            let w = WORDS[i % WORDS.len()];
            let query = match i % 4 {
                0 => format!(
                    "cb={}&ord={}&pub=site{}.example",
                    100_000 + i * 7,
                    1_000_000 + i * 7919,
                    i % 400
                ),
                1 => format!("{w}_id={}&cb={}&lang=en", i % 97, i * 31),
                2 => format!("sid=deadbeefcafe1234deadbeef&id={}&flag", i % 120),
                _ => format!("callback=aslHandleAds{i}&{w}_id={}7", i % 89),
            };
            Url::parse(raw)
                .expect("generated URL parses")
                .with_query(Some(query))
        })
        .collect()
}

fn run(normalizer: &UrlNormalizer, urls: &[Url]) -> usize {
    urls.iter()
        .filter(|&url| normalizer.normalize(black_box(url)).query() != url.query())
        .count()
}

fn normalize(c: &mut Criterion) {
    let eco = bench_ecosystem();
    let scale = easylist_scale(ScaleConfig {
        rules: 40_000,
        seed: 0xEA5E,
    });
    let urls = urls_with_queries(&scale);

    let small_classifier = bench_classifier(&eco);
    let small_engine = small_classifier.engine();
    let mut big_engine = small_engine.clone();
    big_engine.add_list(FilterList::parse("easylist-scale", &scale.text));
    let small = UrlNormalizer::from_engine(small_engine);
    let big = UrlNormalizer::from_engine(&big_engine);
    println!(
        "normalize: {} vs {} query literals, {} vs {} of {} URLs rewritten",
        small_engine.query_literals().len(),
        big_engine.query_literals().len(),
        run(&small, &urls),
        run(&big, &urls),
        urls.len(),
    );

    let mut group = c.benchmark_group("normalize");
    group.throughput(Throughput::Elements(urls.len() as u64));
    group.bench_function("small", |b| b.iter(|| black_box(run(&small, &urls))));
    group.bench_function("easylist", |b| b.iter(|| black_box(run(&big, &urls))));
    group.throughput(Throughput::Elements(1));
    group.bench_function("build_easylist", |b| {
        b.iter(|| black_box(UrlNormalizer::from_engine(black_box(&big_engine))))
    });
    group.finish();
}

criterion_group!(benches, normalize);
criterion_main!(benches);
