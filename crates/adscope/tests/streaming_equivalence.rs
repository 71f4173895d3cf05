//! Streaming-pipeline equivalence: `classify_stream_file` must produce
//! the same classified requests, figures, degradation accounting, and window
//! series as the materialized `classify_trace_in` — for any trace,
//! chunk size, and thread count, including traces degraded by
//! `netsim::faults` at the in-memory and wire levels — and a run killed
//! mid-stream must resume from its checkpoint to a byte-identical final
//! report, even on a different thread count.
//!
//! Streaming forces the window watermark to infinity (cut deltas must
//! merge grouping-independently), so the materialized reference runs
//! with `watermark_secs = f64::INFINITY` too.
//!
//! Thread counts tested are {1, 2, 3, 4}.

mod common;

use adscope::characterize::Figures;
use adscope::pipeline::{classify_trace_in, ClassifiedTrace, PipelineOptions};
use adscope::stream::{classify_stream_file, classify_stream_file_with, CheckpointOptions};
use common::{classifier, messy_trace, stream_opts, temp_path, write_trace_file, Collect};
use netsim::codec::{read_trace_lossy, write_trace};
use netsim::faults::{FaultInjector, FaultProfile};
use netsim::record::{Trace, TraceRecord};
use proptest::prelude::*;
use std::path::Path;

const THREAD_COUNTS: [usize; 4] = [1, 2, 3, 4];

/// Filter-list servers: `messy_trace` has no HTTPS flows, the fault
/// injector's duplicates neither, so the household fold stays empty here
/// (`planes_algebra` feeds it).
const ABP_IPS: [u32; 1] = [900];

/// Materialized reference with the streaming window semantics
/// (infinite watermark).
fn reference(trace: &Trace) -> ClassifiedTrace {
    let mut opts = PipelineOptions::default();
    opts.window.watermark_secs = f64::INFINITY;
    classify_trace_in(trace, &classifier(), opts, &obs::Registry::new())
}

/// Stream the file at `path`, collecting every request and the figures, and
/// hold both — and the report — to the oracle's `seq`.
fn assert_streams_like(path: &Path, seq: &ClassifiedTrace, threads: usize, chunk: usize) {
    let fold = (Collect::default(), Figures::new(&ABP_IPS));
    let (rep, (collected, figures)) = classify_stream_file_with(
        path,
        &classifier(),
        &stream_opts(threads, chunk),
        &obs::Registry::new(),
        fold,
    )
    .unwrap();
    assert_eq!(
        collected.requests(),
        seq.requests,
        "requests, threads={threads}"
    );
    assert_eq!(
        figures,
        Figures::of_trace(seq, &ABP_IPS),
        "figures, threads={threads}"
    );
    assert_eq!(rep.degradation, seq.degradation, "threads={threads}");
    assert_eq!(rep.windows, seq.windows, "windows, threads={threads}");
    assert_eq!(rep.requests as usize, seq.requests.len());
    assert_eq!(rep.https_flows as usize, seq.https_flows.len());
}

/// Full equality of the streaming and materialized outputs for one
/// trace at every tested thread count.
fn assert_stream_equivalent(trace: &Trace, chunk: usize) {
    let seq = reference(trace);
    let path = write_trace_file(trace, "equiv");
    for threads in THREAD_COUNTS {
        assert_streams_like(&path, &seq, threads, chunk);
    }
    let _ = std::fs::remove_file(&path);
}

proptest! {
    /// Clean (but messy) traces: streaming == materialized.
    #[test]
    fn streaming_equals_materialized(
        n in 1usize..120,
        users in 1u32..10,
        chunk in 1usize..40,
        seed in 0u64..1000,
    ) {
        assert_stream_equivalent(&messy_trace(n, users, seed), chunk);
    }

    /// In-memory fault injection (dropped headers, skewed clocks,
    /// duplicates): the degraded trace streams identically.
    #[test]
    fn streaming_equals_materialized_under_memory_faults(
        n in 1usize..80,
        users in 1u32..8,
        rate in 0.0f64..0.8,
        chunk in 1usize..30,
        seed in 0u64..500,
    ) {
        let mut injector = FaultInjector::new(FaultProfile::uniform(rate), seed);
        let faulted = injector.corrupt_trace(&messy_trace(n, users, seed));
        assert_stream_equivalent(&faulted, chunk);
    }

    /// Wire-level garbage: whatever the incremental decoder salvages
    /// from a corrupted file matches the one-shot lossy reader, byte
    /// for byte through classification.
    #[test]
    fn streaming_equals_materialized_under_wire_garbage(
        n in 1usize..60,
        users in 1u32..8,
        rate in 0.0f64..0.5,
        chunk in 1usize..30,
        seed in 0u64..500,
    ) {
        let mut injector = FaultInjector::new(FaultProfile::uniform(rate), seed);
        let mut bytes = Vec::new();
        write_trace(&messy_trace(n, users, seed), &mut bytes).expect("write");
        let corrupted = injector.corrupt_bytes(&bytes);
        let (recovered, _) = read_trace_lossy(corrupted.as_slice()).expect("lossy read");
        let seq = reference(&recovered);

        let path = temp_path("garbage");
        std::fs::write(&path, &corrupted).unwrap();
        for threads in THREAD_COUNTS {
            assert_streams_like(&path, &seq, threads, chunk);
        }
        let _ = std::fs::remove_file(&path);
    }

    /// Kill-and-resume: a run stopped after K chunks resumes from its
    /// last checkpoint — possibly on a different thread count — and the
    /// final rendered report is byte-identical to an uninterrupted run.
    #[test]
    fn checkpoint_resume_renders_byte_identical(
        n in 20usize..120,
        users in 1u32..8,
        chunk in 3usize..17,
        kill_after in 1u64..6,
        seed in 0u64..500,
    ) {
        let trace = messy_trace(n, users, seed);
        let path = write_trace_file(&trace, "resume");
        let ckdir = temp_path("ckdir");
        std::fs::create_dir_all(&ckdir).unwrap();

        let full = stream_opts(4, chunk);
        let want = classify_stream_file(&path, &classifier(), &full, &obs::Registry::new())
            .unwrap()
            .render();

        let mut partial = stream_opts(3, chunk);
        partial.stop_after_chunks = Some(kill_after);
        partial.checkpoint = Some(CheckpointOptions {
            dir: ckdir.clone(),
            every_chunks: 1,
            resume: false,
        });
        classify_stream_file(&path, &classifier(), &partial, &obs::Registry::new()).unwrap();

        let mut resumed = stream_opts(1, chunk);
        resumed.checkpoint = Some(CheckpointOptions {
            dir: ckdir.clone(),
            every_chunks: 1,
            resume: true,
        });
        let got = classify_stream_file(&path, &classifier(), &resumed, &obs::Registry::new())
            .unwrap();
        prop_assert!(got.resumed_from.is_some());
        prop_assert_eq!(got.render(), want, "resumed render differs");

        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_dir_all(&ckdir);
    }

    /// Poison quarantine accounting: with the poison hook panicking on
    /// one host, the run still completes, every poisoned record lands
    /// in the sidecar, and classified + poisoned reconciles with the
    /// materialized total.
    #[test]
    fn poisoned_records_reconcile_with_the_materialized_total(
        n in 1usize..100,
        users in 1u32..8,
        chunk in 1usize..30,
        seed in 0u64..500,
    ) {
        let trace = messy_trace(n, users, seed);
        let seq = reference(&trace);
        let poison_hits = trace
            .records
            .iter()
            .filter(|r| matches!(r, TraceRecord::Http(h) if h.request.host == "ads.example"))
            .count();
        let path = write_trace_file(&trace, "poison");
        for threads in THREAD_COUNTS {
            let qpath = temp_path("q");
            let mut opts = stream_opts(threads, chunk);
            opts.quarantine_path = Some(qpath.clone());
            opts.poison_host = Some("ads.example".to_string());
            let rep = classify_stream_file(&path, &classifier(), &opts, &obs::Registry::new())
                .unwrap();
            prop_assert_eq!(
                rep.degradation.poisoned_records, poison_hits,
                "poisoned count, threads={}", threads
            );
            prop_assert_eq!(
                rep.requests as usize + poison_hits,
                seq.requests.len(),
                "classified + poisoned != materialized total, threads={}", threads
            );
            let sidecar = std::fs::read_to_string(&qpath).unwrap_or_default();
            let lines: Vec<&str> = sidecar.lines().collect();
            prop_assert_eq!(
                lines.len(), rep.degradation.quarantined(),
                "sidecar lines, threads={}", threads
            );
            for line in lines {
                prop_assert!(line.contains("\"Http\""), "sidecar line not a record: {line}");
            }
            let _ = std::fs::remove_file(&qpath);
        }
        let _ = std::fs::remove_file(&path);
    }
}
