//! End-to-end pipeline throughput over a captured trace — the cost of each
//! Figure-1 stage: extraction, page reconstruction, classification.

use adscope::pipeline::{classify_trace, extract_objects, PipelineOptions};
use adscope::refmap::{RefMap, RefMapOptions};
use adscope::shard::classify_trace_sharded;
use bench::{bench_classifier, bench_ecosystem, bench_trace};
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::collections::HashMap;
use std::hint::black_box;

/// Objects `pipeline/refmap_only` runs through the referrer map per
/// iteration — the element count `bench_gate` divides by, so it is fixed
/// here and not left to the generated trace's length.
const REFMAP_RECORDS: usize = 16_384;

fn pipeline(c: &mut Criterion) {
    let eco = bench_ecosystem();
    let classifier = bench_classifier(&eco);
    let trace = bench_trace(&eco);
    let n = trace.http_count() as u64;

    let mut group = c.benchmark_group("pipeline");
    group.sample_size(20);
    group.throughput(Throughput::Elements(n));

    group.bench_function("extract_only", |b| {
        b.iter(|| black_box(extract_objects(black_box(&trace))))
    });

    // The per-⟨IP, UA⟩ referrer-map pass alone, over objects extracted
    // once: what `adscope.refmap` costs in the ledger, and the line an
    // owned key or a deep-copied page root per record would show up on.
    let objects = extract_objects(&trace);
    assert!(objects.len() >= REFMAP_RECORDS, "bench trace shrank");
    let objects = &objects[..REFMAP_RECORDS];
    group.throughput(Throughput::Elements(REFMAP_RECORDS as u64));
    group.bench_function("refmap_only", |b| {
        b.iter(|| {
            let mut per_user: HashMap<(u32, Option<&str>), RefMap> = HashMap::new();
            let mut resolved = 0usize;
            for obj in black_box(objects) {
                let entry = per_user
                    .entry((obj.client_ip, obj.user_agent.as_deref()))
                    .or_insert_with(|| RefMap::new(RefMapOptions::default()))
                    .process(obj);
                resolved += usize::from(entry.ctx.page.is_some());
            }
            black_box(resolved)
        })
    });
    group.throughput(Throughput::Elements(n));

    group.bench_function("full_pipeline", |b| {
        b.iter(|| {
            black_box(classify_trace(
                black_box(&trace),
                &classifier,
                PipelineOptions::default(),
            ))
        })
    });

    group.bench_function("users_aggregation", |b| {
        let classified = classify_trace(&trace, &classifier, PipelineOptions::default());
        b.iter(|| black_box(adscope::users::aggregate_users(black_box(&classified))))
    });

    // The sharded (multi-core) pipeline at this machine's parallelism;
    // identical output to `full_pipeline` by construction, so the delta
    // is pure scheduling + merge overhead (1 core) or speedup (many).
    let threads = parallel::available_parallelism();
    group.threads(threads);
    group.bench_function("full_pipeline_sharded", |b| {
        b.iter(|| {
            black_box(classify_trace_sharded(
                black_box(&trace),
                &classifier,
                PipelineOptions::default(),
                threads,
            ))
        })
    });
    group.finish();
}

/// Instrumentation overhead on the strict-read + classify path: the same
/// work with recording on vs off (`obs::set_enabled`). The acceptance
/// budget is <5% — compare the two medians (they land side by side in
/// `BENCH_baseline.json` when `BENCH_JSON` is set).
fn obs_overhead(c: &mut Criterion) {
    let eco = bench_ecosystem();
    let classifier = bench_classifier(&eco);
    let trace = bench_trace(&eco);
    let mut encoded = Vec::new();
    netsim::codec::write_trace(&trace, &mut encoded).expect("in-memory trace write");
    let n = trace.http_count() as u64;

    let mut group = c.benchmark_group("obs_overhead");
    group.sample_size(10);
    group.throughput(Throughput::Elements(n));

    let read_classify = |encoded: &[u8]| {
        let t = netsim::codec::read_trace(encoded).expect("strict read");
        classify_trace(&t, &classifier, PipelineOptions::default())
    };

    group.bench_function("read_classify_obs_on", |b| {
        obs::set_enabled(true);
        b.iter(|| black_box(read_classify(black_box(&encoded))))
    });
    group.bench_function("read_classify_obs_off", |b| {
        obs::set_enabled(false);
        b.iter(|| black_box(read_classify(black_box(&encoded))))
    });
    obs::set_enabled(true);
    group.finish();
}

criterion_group!(benches, pipeline, obs_overhead);
criterion_main!(benches);
