//! The provenance kill switch is *structurally* zero-cost: while
//! `obs::set_enabled(false)` is in effect, the pipeline takes the exact
//! untraced code path — the allocation counts of a run with the sampler
//! wide open and a run with the sampler off are identical, byte for
//! byte. Pinned with a counting global allocator.
//!
//! This file owns the process-wide obs toggle, so it stays a single
//! `#[test]` in its own integration-test binary (one process), like
//! `obs/tests/kill_switch.rs`.

use abp_filter::FilterList;
use adscope::pipeline::classify_trace;
use adscope::provenance::TraceOptions;
use adscope::{PassiveClassifier, PipelineOptions};
use http_model::headers::{RequestHeaders, ResponseHeaders};
use http_model::transaction::{HttpTransaction, Method};
use netsim::record::{Trace, TraceMeta, TraceRecord};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// System allocator wrapper that counts every `alloc` call.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn classifier() -> PassiveClassifier {
    PassiveClassifier::new(vec![
        FilterList::parse("easylist", "||ads.example^$third-party\n/banners/\n"),
        FilterList::parse("easyprivacy", "/pixel/\n"),
        FilterList::parse("acceptable-ads", "@@||niceads.example^\n"),
    ])
}

fn tx(ts: f64, client: u32, host: &str, uri: &str, referer: Option<&str>) -> TraceRecord {
    TraceRecord::Http(HttpTransaction {
        ts,
        client_ip: client,
        server_ip: 1,
        server_port: 80,
        method: Method::Get,
        request: RequestHeaders {
            host: host.into(),
            uri: uri.into(),
            referer: referer.map(str::to_string),
            user_agent: Some("UA".into()),
        },
        response: ResponseHeaders {
            status: 200,
            content_type: Some("image/gif".into()),
            content_length: Some(100),
            location: None,
        },
        tcp_handshake_ms: 1.0,
        http_handshake_ms: 2.0,
    })
}

fn sample_trace() -> Trace {
    let mut records = vec![tx(0.0, 5, "pub.example", "/", None)];
    for i in 0..40u32 {
        let (host, uri) = match i % 4 {
            0 => ("ads.example", format!("/creative{i}.gif")),
            1 => ("x.example", format!("/banners/{i}.gif")),
            2 => ("niceads.example", format!("/spot{i}.gif")),
            _ => ("cdn.example", format!("/lib{i}.js")),
        };
        records.push(tx(
            0.1 + f64::from(i) * 0.1,
            5,
            host,
            &uri,
            Some("http://pub.example/"),
        ));
    }
    Trace {
        meta: TraceMeta {
            name: "kill-switch".into(),
            duration_secs: 10.0,
            subscribers: 1,
            start_hour: 0,
            start_weekday: 0,
        },
        records,
    }
}

fn opts(sample_ppm: u32) -> PipelineOptions {
    PipelineOptions {
        trace: TraceOptions {
            sample_ppm,
            always_sample_exceptional: true,
        },
        ..Default::default()
    }
}

/// Allocations of one full pipeline run.
fn allocations_of_run(trace: &Trace, c: &PassiveClassifier, o: PipelineOptions) -> (u64, usize) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let out = classify_trace(trace, c, o);
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    (after - before, out.provenance.len())
}

#[test]
fn disabled_tracer_allocates_exactly_nothing_extra() {
    let trace = sample_trace();
    let c = classifier();

    // Warm up: interner pools, lazy statics.
    for _ in 0..2 {
        let _ = allocations_of_run(&trace, &c, opts(0));
    }

    // Sanity while enabled: a wide-open sampler collects provenance, a
    // zero rate collects none.
    assert!(obs::enabled());
    let (_, sampled) = allocations_of_run(&trace, &c, opts(1_000_000));
    assert!(sampled > 0, "wide-open sampler must collect provenance");
    let (_, unsampled) = allocations_of_run(&trace, &c, opts(0));
    assert_eq!(unsampled, 0, "ppm=0 disables the tracer entirely");

    // Kill switch on: the sampler rate must not matter — both runs take
    // the identical untraced path, down to the allocation count.
    obs::set_enabled(false);
    let (allocs_off, n_off) = allocations_of_run(&trace, &c, opts(0));
    let (allocs_open, n_open) = allocations_of_run(&trace, &c, opts(1_000_000));
    obs::set_enabled(true);

    assert_eq!(n_off, 0);
    assert_eq!(n_open, 0, "kill switch overrides the sampling rate");
    assert_eq!(
        allocs_open, allocs_off,
        "disabled tracing must be allocation-free: ppm=1M run allocated \
         {allocs_open} vs {allocs_off} at ppm=0"
    );

    // Back on: provenance flows again (the switch is a toggle, not a latch).
    let (_, sampled_again) = allocations_of_run(&trace, &c, opts(1_000_000));
    assert!(sampled_again > 0);
}
