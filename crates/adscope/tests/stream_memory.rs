//! The stream's in-flight memory does not follow `chunk_records`, pinned
//! with a counting global allocator that keeps the live heap and its
//! high-water mark: a 1-worker `classify_stream_file` run over a generated
//! ≈12 K-record trace file peaks, above the built classifier, at most 25 %
//! higher with chunks of 8 192 records than with chunks of 2 048. The router
//! hands a worker its batch every 256 records, so a worker holds at most a
//! full queue, the batch being filled and the one being classified of those,
//! whatever the chunk size. While a worker was handed one batch per chunk
//! the test failed: 6.61–6.65 MiB at 8 192 against 2.06–2.55 MiB at 2 048
//! (a debug build on a 2-vCPU x86-64 box). With 256-record batches it reads
//! 0.80–0.83 against 0.79–0.93 MiB.
//!
//! The counter is process-wide, like `stream_alloc.rs`'s: the router and its
//! worker are two threads. This file holds one test, so nothing else
//! allocates while it counts.

use abp_filter::FilterList;
use adscope::stream::{classify_stream_file, StreamOptions};
use adscope::PassiveClassifier;
use browsersim::{ActivityProfile, DriveConfig, Population, PopulationConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use webgen::filterlists::names;
use webgen::{Ecosystem, EcosystemConfig};

struct CountingAlloc;

// Statistics only: nothing is published through them.
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes as u64, Ordering::Relaxed) + bytes as u64;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes as u64, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrink(layout.size());
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        grow(new_size);
        shrink(layout.size());
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn in_flight_heap_does_not_grow_with_chunk_records() {
    let eco = Ecosystem::generate(EcosystemConfig {
        publishers: 120,
        ad_companies: 14,
        trackers: 16,
        seed: 20_150_811,
        ..Default::default()
    });
    let mut pop = Population::generate(
        &eco,
        &PopulationConfig {
            households: 72,
            seed: 15,
            ..Default::default()
        },
    );
    let trace = browsersim::drive::drive(
        &eco,
        &mut pop,
        &ActivityProfile::default(),
        &DriveConfig::rbn2(0.5),
    )
    .trace;
    let path = std::env::temp_dir().join(format!("adscope-stream-memory-{}", std::process::id()));
    netsim::codec::write_trace(&trace, std::fs::File::create(&path).unwrap()).unwrap();
    let records = trace.records.len() as u64;
    assert!(records > 8192, "{records} records: one chunk at 8 192");
    drop(trace);

    let lists = &eco.lists;
    let classifier = PassiveClassifier::new(vec![
        FilterList::parse(names::EASYLIST, &lists.easylist_text),
        FilterList::parse(names::REGIONAL, &lists.regional_text),
        FilterList::parse(names::EASYPRIVACY, &lists.easyprivacy_text),
        FilterList::parse(names::ACCEPTABLE, &lists.acceptable_text),
    ]);
    // The heap high-water of one run above what is live before it, in MiB.
    let high_water = |chunk_records: usize| {
        let opts = StreamOptions {
            threads: 1,
            chunk_records,
            ..StreamOptions::default()
        };
        let base = LIVE.load(Ordering::Relaxed);
        PEAK.store(base, Ordering::Relaxed);
        let report =
            classify_stream_file(&path, &classifier, &opts, &obs::Registry::new()).unwrap();
        assert_eq!(report.codec.records_read as u64, records);
        (PEAK.load(Ordering::Relaxed) - base) as f64 / (1 << 20) as f64
    };
    // The first run pays for what a process pays once (metric families,
    // lazily built tables). How full the queue gets depends on how the two
    // threads are scheduled, so each size keeps the least of three runs.
    high_water(2048);
    let least = |chunk_records| {
        (0..3)
            .map(|_| high_water(chunk_records))
            .fold(f64::MAX, f64::min)
    };
    let (small, large) = (least(2048), least(8192));
    let _ = std::fs::remove_file(&path);

    println!(
        "heap high-water above the classifier: {small:.2} MiB at 2 048, {large:.2} MiB at 8 192"
    );
    assert!(
        large <= small * 1.25,
        "{large:.2} MiB at 8 192 records a chunk against {small:.2} MiB at 2 048"
    );
}
