//! The exposition and the [`DegradationReport`] must always agree: every
//! report counter is bridged into exactly one
//! `adscope_degradation_total{reason=...}` sample, and their totals
//! reconcile. A reason added to the report but not the bridge (or vice
//! versa) fails here. The stream engine holds the one bridge; the oracle
//! records nothing, and its report is held to the engine's.

mod common;

use abp_filter::FilterList;
use adscope::pipeline::{classify_trace, PipelineOptions};
use adscope::stream::classify_stream_file;
use adscope::{DegradationReport, PassiveClassifier};
use common::{stream_opts, write_trace_file};
use http_model::headers::{RequestHeaders, ResponseHeaders};
use http_model::transaction::Method;
use http_model::HttpTransaction;
use netsim::record::{Trace, TraceMeta, TraceRecord};

fn tx(
    ts: f64,
    host: &str,
    uri: &str,
    referer: Option<&str>,
    content_type: Option<&str>,
) -> TraceRecord {
    TraceRecord::Http(HttpTransaction {
        ts,
        client_ip: 9,
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
            content_type: content_type.map(str::to_string),
            content_length: Some(500),
            location: None,
        },
        tcp_handshake_ms: 1.0,
        http_handshake_ms: 2.0,
    })
}

/// A trace engineered to trip several distinct degradation reasons:
/// missing content types, referrers that resolve to no page (refmap
/// misses), and out-of-order timestamps.
fn degraded_trace() -> Trace {
    let records = vec![
        tx(0.0, "pub.example", "/", None, Some("text/html")),
        tx(
            0.5,
            "cdn.example",
            "/img.gif",
            Some("http://pub.example/"),
            None, // missing Content-Type, recovered from the .gif extension
        ),
        // Referer names a page never seen in the trace: refmap miss.
        tx(
            0.4, // also out of order vs the previous record
            "ads.example",
            "/banner",
            Some("http://nowhere.example/page"),
            Some("image/gif"),
        ),
        tx(1.0, "pub.example", "/style.css", None, Some("text/css")),
    ];
    Trace {
        meta: TraceMeta {
            name: "reconcile".into(),
            duration_secs: 10.0,
            subscribers: 1,
            start_hour: 0,
            start_weekday: 0,
        },
        records,
    }
}

/// Every report counter appears under its own reason label with the exact
/// same count, and nothing else does: the labeled samples are exactly the
/// report's reasons, so the totals reconcile by construction.
fn assert_bridged(registry: &obs::Registry, report: &DegradationReport, context: &str) {
    let snap = registry.snapshot();
    for (reason, count) in report.counts() {
        assert_eq!(
            snap.counter("adscope_degradation_total", &[("reason", reason)]),
            count as u64,
            "{context}: reason {reason:?} out of sync with the report"
        );
    }
    let labeled = snap
        .samples
        .iter()
        .filter(|(k, _)| k.name == "adscope_degradation_total")
        .count();
    assert_eq!(labeled, report.counts().len(), "{context}");
    assert_eq!(
        snap.counter_sum("adscope_degradation_total"),
        report.total() as u64,
        "{context}"
    );
}

fn classifier() -> PassiveClassifier {
    PassiveClassifier::new(vec![FilterList::parse("easylist", "/banner\n")])
}

/// The oracle records nothing, so its report reaches an exposition only as
/// the engine's: the one-worker stream's bridged report is the oracle's.
#[test]
fn degradation_report_reconciles_with_exposition() {
    let trace = degraded_trace();
    let oracle = classify_trace(&trace, &classifier(), PipelineOptions::default()).degradation;
    assert!(
        oracle.total() > 0,
        "fixture must actually degrade, or the test is vacuous"
    );
    let path = write_trace_file(&trace, "reconcile-one");
    let registry = obs::Registry::new();
    let report = classify_stream_file(&path, &classifier(), &stream_opts(1, 2), &registry)
        .unwrap()
        .degradation;
    let _ = std::fs::remove_file(&path);
    assert_eq!(report, oracle, "the engine's report is the oracle's");
    assert_bridged(&registry, &report, "one worker");
}

/// The bijection must also hold at any worker count: the bridge runs once
/// at the end of the run over the degradation its workers' partials merged
/// into.
#[test]
fn stream_degradation_bridge_reconciles_at_every_thread_count() {
    let path = write_trace_file(&degraded_trace(), "reconcile");
    for threads in [1usize, 2, 4, 8] {
        let registry = obs::Registry::new();
        let report =
            classify_stream_file(&path, &classifier(), &stream_opts(threads, 2), &registry)
                .unwrap()
                .degradation;
        assert!(report.total() > 0, "fixture must actually degrade");
        assert_bridged(&registry, &report, &format!("threads={threads}"));
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn repeated_runs_accumulate_in_the_same_registry() {
    let path = write_trace_file(&degraded_trace(), "reconcile-twice");
    let registry = obs::Registry::new();
    let run = || classify_stream_file(&path, &classifier(), &stream_opts(1, 2), &registry).unwrap();
    let first = run();
    run();
    let _ = std::fs::remove_file(&path);
    let snap = registry.snapshot();
    assert_eq!(
        snap.counter_sum("adscope_degradation_total"),
        2 * first.degradation.total() as u64
    );
    assert_eq!(
        snap.counter("adscope_requests_classified_total", &[]),
        2 * first.requests
    );
}
