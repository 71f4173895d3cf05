//! Allocation budget of the 1-worker stream, pinned with a counting global
//! allocator: over a generated ≈10 K-record trace file a whole
//! `classify_stream_file` run — decode, extract, hand-off, refmap,
//! classify, windows — allocates at most 3 times per record. With an
//! owned `TraceRecord` between the line and the `WebObject` it was 10.16
//! (five header strings copied out of the line and dropped again, and the
//! request URL built in a `String` of its own before the shared buffer),
//! then 4.03 while every third-party check split both hosts into a
//! `Vec<&str>`; it reads 2.53. The test prints the bytes allocated per record
//! beside the count: 673, of which the 8-byte hash each referrer-map key
//! carries adds ≈15 (658 before).
//!
//! The counter is process-wide, not per thread as in `refmap_alloc.rs`:
//! the router and its worker are two threads. This file holds one test, so
//! nothing else allocates while it counts.

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
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

fn count(bytes: usize) {
    ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn one_worker_stream_allocates_three_times_per_record_at_most() {
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
    let path = std::env::temp_dir().join(format!("adscope-stream-alloc-{}", std::process::id()));
    netsim::codec::write_trace(&trace, std::fs::File::create(&path).unwrap()).unwrap();
    let records = trace.records.len() as u64;
    assert!(records > 5_000, "{records} records");
    drop(trace);

    let lists = &eco.lists;
    let classifier = PassiveClassifier::new(vec![
        FilterList::parse(names::EASYLIST, &lists.easylist_text),
        FilterList::parse(names::REGIONAL, &lists.regional_text),
        FilterList::parse(names::EASYPRIVACY, &lists.easyprivacy_text),
        FilterList::parse(names::ACCEPTABLE, &lists.acceptable_text),
    ]);
    let opts = StreamOptions {
        threads: 1,
        chunk_records: 2048,
        ..StreamOptions::default()
    };
    let run = || {
        let before = (
            ALLOCATIONS.load(Ordering::Relaxed),
            BYTES.load(Ordering::Relaxed),
        );
        let report =
            classify_stream_file(&path, &classifier, &opts, &obs::Registry::new()).unwrap();
        assert_eq!(report.codec.records_read as u64, records);
        assert!(report.requests * 10 > records * 7, "mostly HTTP requests");
        (
            ALLOCATIONS.load(Ordering::Relaxed) - before.0,
            BYTES.load(Ordering::Relaxed) - before.1,
        )
    };
    // The first run pays for what a process pays once (metric families,
    // lazily built tables); the second is the steady state.
    run();
    let (allocations, bytes) = run();
    let _ = std::fs::remove_file(&path);

    let per_record = allocations as f64 / records as f64;
    println!(
        "{records} records: {per_record:.2} allocations and {:.0} bytes per record",
        bytes as f64 / records as f64
    );
    assert!(
        per_record <= 3.0,
        "{allocations} allocations over {records} records = {per_record:.2} per record"
    );
}
