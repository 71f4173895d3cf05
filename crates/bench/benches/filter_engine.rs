//! Compiled vs reference engine throughput — the `>1 M req/s/core` gate.
//!
//! `small` runs the ecosystem's four generated lists (hundreds of rules);
//! `easylist` runs the EasyList-scale synthetic list (40 000 rules) with a
//! realistic mostly-miss request mix; `easylist_trace` runs the ecosystem's
//! lists plus that list against the ecosystem's own object URLs, query
//! strings included — the request mix of a driven trace, whose ad words
//! (`ads`, `banner`, `track`, …) surface the list's `&<word>_id=<n>`
//! buckets of ≈200 rules, which `sample_urls` never does.
//! Elements-throughput is requests, so Criterion's `elem/s` reading *is*
//! req/s/core (single-threaded loop); `bench_gate` enforces the
//! compiled-over-reference speedup floor and the absolute 1 µs/request
//! ceiling on `classify_compiled_easylist` and
//! `classify_compiled_easylist_trace`.

use abp_filter::{ClassifyScratch, CompiledEngine, Engine, FilterList, Request};
use bench::bench_ecosystem;
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use http_model::{ContentCategory, Url};
use std::hint::black_box;
use webgen::{easylist_scale, ScaleConfig};

fn parsed_urls(raw: Vec<String>) -> Vec<(Url, ContentCategory)> {
    raw.iter()
        .enumerate()
        .map(|(i, u)| {
            (
                Url::parse(u).expect("generated URL parses"),
                ContentCategory::ALL[i % ContentCategory::ALL.len()],
            )
        })
        .collect()
}

fn run_reference(engine: &Engine, urls: &[(Url, ContentCategory)], page: &Url) -> usize {
    let mut hits = 0usize;
    for (url, cat) in urls {
        let v = engine.classify(&Request {
            url: black_box(url),
            source_url: Some(page),
            category: *cat,
        });
        if v.would_block() {
            hits += 1;
        }
    }
    hits
}

fn run_compiled(
    compiled: &CompiledEngine,
    scratch: &mut ClassifyScratch,
    urls: &[(Url, ContentCategory)],
    page: &Url,
) -> usize {
    let mut hits = 0usize;
    for (url, cat) in urls {
        let v = compiled.classify(
            &Request {
                url: black_box(url),
                source_url: Some(page),
                category: *cat,
            },
            scratch,
        );
        if v.would_block() {
            hits += 1;
        }
    }
    hits
}

fn filter_engine(c: &mut Criterion) {
    let mut group = c.benchmark_group("filter_engine");

    // Small: the ecosystem's four lists, the trace-pipeline workload.
    let eco = bench_ecosystem();
    let mut small_engine = Engine::new();
    for list in [
        eco.lists.easylist(),
        eco.lists.regional(),
        eco.lists.easyprivacy(),
        eco.lists.acceptable(),
    ] {
        small_engine.add_list(list);
    }
    let small_compiled = CompiledEngine::compile(&small_engine);
    let small_urls = bench::bench_urls(&eco, 2_000);
    let page = Url::parse("http://www.dailyherald000.example/").unwrap();
    group.throughput(Throughput::Elements(small_urls.len() as u64));
    group.bench_function("classify_reference_small", |b| {
        b.iter(|| black_box(run_reference(&small_engine, &small_urls, &page)))
    });
    let mut scratch = ClassifyScratch::new();
    group.bench_function("classify_compiled_small", |b| {
        b.iter(|| {
            black_box(run_compiled(
                &small_compiled,
                &mut scratch,
                &small_urls,
                &page,
            ))
        })
    });

    // EasyList scale: 40 000 rules, ~5% of requests ad-related (a trace is
    // mostly misses — the case the prefilter exists for).
    let scale = easylist_scale(ScaleConfig {
        rules: 40_000,
        seed: 0xEA5E,
    });
    let mut big_engine = Engine::new();
    big_engine.add_list(FilterList::parse("easylist-scale", &scale.text));
    let big_compiled = CompiledEngine::compile(&big_engine);
    let big_urls = parsed_urls(scale.sample_urls(2_000, 0.05, 0xBE7C));
    group.throughput(Throughput::Elements(big_urls.len() as u64));
    group.bench_function("classify_reference_easylist", |b| {
        b.iter(|| black_box(run_reference(&big_engine, &big_urls, &page)))
    });
    group.bench_function("classify_compiled_easylist", |b| {
        b.iter(|| black_box(run_compiled(&big_compiled, &mut scratch, &big_urls, &page)))
    });

    // EasyList scale under trace-shaped requests: the e2e benchmark's
    // `easylist` list set against the ecosystem's URLs.
    let mut trace_engine = small_engine.clone();
    trace_engine.add_list(FilterList::parse("easylist-scale", &scale.text));
    let trace_compiled = CompiledEngine::compile(&trace_engine);
    group.throughput(Throughput::Elements(small_urls.len() as u64));
    group.bench_function("classify_reference_easylist_trace", |b| {
        b.iter(|| black_box(run_reference(&trace_engine, &small_urls, &page)))
    });
    group.bench_function("classify_compiled_easylist_trace", |b| {
        b.iter(|| {
            black_box(run_compiled(
                &trace_compiled,
                &mut scratch,
                &small_urls,
                &page,
            ))
        })
    });
    group.finish();
}

criterion_group!(benches, filter_engine);
criterion_main!(benches);
