//! Thread-count invariance of the materialized pipeline: one kernel runs
//! the per-user stages at every thread count, and `classify_trace_sharded`
//! must produce a byte-identical [`ClassifiedTrace`] to `classify_trace`
//! for any trace and count — same requests in the same order, same
//! verdicts, and an identical merged [`DegradationReport`] — including on
//! traces degraded by `netsim::faults` at both the in-memory and wire
//! levels. Two hand-worked traces at the end pin the output itself, on
//! shard layouts read back from the per-shard `refmap` spans.
//!
//! Thread counts tested are {1, 2, 3, 4, 8}; set `ANNOYED_THREADS` to add
//! an extra count (CI adds the machine's own).

mod common;

use adscope::classify::ListKind;
use adscope::pipeline::{classify_trace_in, PipelineOptions};
use adscope::provenance::TraceOptions;
use adscope::shard::classify_trace_sharded_in;
use common::{classifier, messy_trace};
use http_model::headers::{RequestHeaders, ResponseHeaders};
use http_model::transaction::Method;
use http_model::{ContentCategory, HttpTransaction};
use netsim::codec::{read_trace_lossy, write_trace};
use netsim::faults::{FaultInjector, FaultProfile};
use netsim::record::{Trace, TraceMeta, TraceRecord};
use obs::events::FieldValue;
use proptest::prelude::*;

fn thread_counts() -> Vec<usize> {
    common::thread_counts(&[1, 2, 3, 4, 8])
}

/// Full equality of the one-thread and N-thread output for one trace.
fn assert_equivalent(trace: &Trace, opts: PipelineOptions) {
    let c = classifier();
    let seq = classify_trace_in(trace, &c, opts, &obs::Registry::new());
    for threads in thread_counts() {
        let par = classify_trace_sharded_in(trace, &c, opts, threads, &obs::Registry::new());
        assert_eq!(par.requests, seq.requests, "threads={threads}");
        assert_eq!(par.degradation, seq.degradation, "threads={threads}");
        assert_eq!(par.dropped, seq.dropped, "threads={threads}");
        assert_eq!(par.https_flows, seq.https_flows, "threads={threads}");
        assert_eq!(par.meta, seq.meta, "threads={threads}");
        assert_eq!(par.windows, seq.windows, "windows, threads={threads}");
    }
}

proptest! {
    /// Clean (but messy) traces: sharded == sequential.
    #[test]
    fn sharded_equals_sequential(
        n in 1usize..120,
        users in 1u32..10,
        seed in 0u64..1000,
    ) {
        assert_equivalent(&messy_trace(n, users, seed), PipelineOptions::default());
    }

    /// Verdict provenance is thread-invariant down to the rendered
    /// bytes: with tracing on, the sampled set, the record order, every
    /// provenance field, and the NDJSON lines in the trace sink are
    /// identical at any thread count.
    #[test]
    fn sampled_provenance_is_byte_identical_across_threads(
        n in 1usize..100,
        users in 1u32..8,
        seed in 0u64..500,
    ) {
        let opts = PipelineOptions {
            trace: TraceOptions { sample_ppm: 300_000, always_sample_exceptional: true },
            ..Default::default()
        };
        let trace = messy_trace(n, users, seed);
        let c = classifier();
        let seq_reg = obs::Registry::new();
        let seq = classify_trace_in(&trace, &c, opts, &seq_reg);
        let seq_lines = seq_reg.traces().snapshot();
        for threads in thread_counts() {
            let par_reg = obs::Registry::new();
            let par = classify_trace_sharded_in(&trace, &c, opts, threads, &par_reg);
            prop_assert_eq!(&par.provenance, &seq.provenance, "threads={}", threads);
            prop_assert_eq!(&par.requests, &seq.requests, "threads={}", threads);
            let par_lines = par_reg.traces().snapshot();
            prop_assert_eq!(&par_lines, &seq_lines, "NDJSON bytes, threads={}", threads);
        }
        // The rendered lines are exactly the sampled records in order.
        prop_assert_eq!(seq_lines.len(), seq.provenance.len());
        for (line, vp) in seq_lines.iter().zip(&seq.provenance) {
            prop_assert_eq!(line, &vp.to_json());
        }
    }

    /// Ablations (normalization off) shard identically too.
    #[test]
    fn sharded_equals_sequential_without_normalization(
        n in 1usize..60,
        users in 1u32..6,
        seed in 0u64..300,
    ) {
        let opts = PipelineOptions { normalize: false, ..Default::default() };
        assert_equivalent(&messy_trace(n, users, seed), opts);
    }

    /// In-memory fault injection (dropped headers, skewed clocks,
    /// duplicates): the degraded trace classifies identically.
    #[test]
    fn sharded_equals_sequential_under_memory_faults(
        n in 1usize..80,
        users in 1u32..8,
        rate in 0.0f64..0.8,
        seed in 0u64..500,
    ) {
        let mut injector = FaultInjector::new(FaultProfile::uniform(rate), seed);
        let faulted = injector.corrupt_trace(&messy_trace(n, users, seed));
        assert_equivalent(&faulted, PipelineOptions::default());
    }

    /// Wire-level fault injection: whatever the lossy reader salvages
    /// classifies identically through both paths.
    #[test]
    fn sharded_equals_sequential_under_wire_faults(
        n in 1usize..60,
        users in 1u32..8,
        rate in 0.0f64..0.5,
        seed in 0u64..500,
    ) {
        let mut injector = FaultInjector::new(FaultProfile::uniform(rate), seed);
        let mut bytes = Vec::new();
        write_trace(&messy_trace(n, users, seed), &mut bytes).expect("write");
        let corrupted = injector.corrupt_bytes(&bytes);
        let (recovered, _) = read_trace_lossy(corrupted.as_slice()).expect("lossy read");
        assert_equivalent(&recovered, PipelineOptions::default());
    }
}

// ---------------------------------------------------------------------------
// Hand-worked traces on known shard layouts
// ---------------------------------------------------------------------------

const UA: &str = "UA-Desktop/1.0";

#[allow(clippy::too_many_arguments)]
fn rec(
    ts: f64,
    client: u32,
    ua: Option<&str>,
    host: &str,
    uri: &str,
    referer: Option<&str>,
    ct: Option<&str>,
    location: Option<&str>,
) -> TraceRecord {
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
            user_agent: ua.map(str::to_string),
        },
        response: ResponseHeaders {
            status: if location.is_some() { 302 } else { 200 },
            content_type: ct.map(str::to_string),
            content_length: Some(500),
            location: location.map(str::to_string),
        },
        tcp_handshake_ms: 1.0,
        http_handshake_ms: 2.0,
    })
}

fn hand_trace(records: Vec<TraceRecord>) -> Trace {
    Trace {
        meta: TraceMeta {
            name: "shard-layout".into(),
            duration_secs: 1.0,
            subscribers: 2,
            start_hour: 0,
            start_weekday: 0,
        },
        records,
    }
}

/// `(records_in, users)` of every `refmap` span in the registry's event
/// log — one per shard, so this is the shard layout the run used.
fn refmap_spans(registry: &obs::Registry) -> Vec<(u64, u64)> {
    let field = |e: &obs::events::Event, key: &str| {
        e.fields.iter().find_map(|(k, v)| match v {
            FieldValue::U64(n) if *k == key => Some(*n),
            _ => None,
        })
    };
    registry
        .events()
        .snapshot()
        .iter()
        .filter(|e| {
            e.fields
                .iter()
                .any(|(k, v)| *k == "labels" && *v == FieldValue::Str("stage=refmap".into()))
        })
        .map(|e| {
            (
                field(e, "records_in").expect("records_in"),
                field(e, "users").expect("users"),
            )
        })
        .collect()
}

fn page_host(r: &adscope::pipeline::ClassifiedRequest) -> Option<&str> {
    r.page.as_ref().map(|p| p.host())
}

/// User ⟨1, UA⟩ owns a redirect chain (page, untyped redirector, target
/// without a referer) and shares the trace with three other users — one
/// behind the same address on another device, one with no User-Agent that
/// fetches the very redirect target in between, one elsewhere. Its FNV-1a
/// hash puts it alone in a shard at 8, 12, 16 and 32 shards, which the
/// `(3 records, 1 user)` refmap span shows; the chain must come out
/// stitched and backfilled all the same, and nobody else's page context
/// may leak in.
#[test]
fn redirect_chain_of_a_user_alone_in_its_shard() {
    let trace = hand_trace(vec![
        rec(
            0.0,
            1,
            Some(UA),
            "pub.example",
            "/",
            None,
            Some("text/html"),
            None,
        ),
        rec(
            0.1,
            1,
            Some("UA-Mobile/2.0"),
            "other.example",
            "/",
            None,
            Some("text/html"),
            None,
        ),
        rec(
            0.2,
            1,
            Some(UA),
            "r.example",
            "/go?id=1",
            Some("http://pub.example/"),
            None,
            Some("http://media.example/spot.mp4"),
        ),
        rec(
            0.25,
            1,
            None,
            "media.example",
            "/spot.mp4",
            None,
            Some("video/mp4"),
            None,
        ),
        rec(
            0.3,
            1,
            Some(UA),
            "media.example",
            "/spot.mp4",
            None,
            Some("video/mp4"),
            None,
        ),
        rec(
            0.4,
            1,
            Some("UA-Mobile/2.0"),
            "ads.example",
            "/creative.gif",
            Some("http://other.example/"),
            Some("image/gif"),
            None,
        ),
        rec(
            0.5,
            2,
            Some(UA),
            "x.example",
            "/banners/a.gif",
            None,
            Some("image/gif"),
            None,
        ),
    ]);
    let c = classifier();
    for threads in thread_counts() {
        let registry = obs::Registry::new();
        let out =
            classify_trace_sharded_in(&trace, &c, PipelineOptions::default(), threads, &registry);
        let r = &out.requests;
        assert_eq!(r.len(), 7, "threads={threads}");
        // The chain: the redirector takes the target's type, the target
        // the redirector's page.
        assert_eq!(r[2].category, ContentCategory::Media, "threads={threads}");
        assert_eq!(page_host(&r[2]), Some("pub.example"), "threads={threads}");
        assert_eq!(r[4].category, ContentCategory::Media, "threads={threads}");
        assert_eq!(page_host(&r[4]), Some("pub.example"), "threads={threads}");
        assert!(!r[2].label.is_ad() && !r[4].label.is_ad());
        // The same URL fetched by the user with no User-Agent, before the
        // chain's owner got to it: no context of its own, and it must not
        // have consumed the owner's pending redirect.
        assert_eq!(page_host(&r[3]), None, "threads={threads}");
        assert_eq!(out.degradation.broken_redirect_chains, 0);
        // The other device behind address 1: third-party ad on its own page.
        assert_eq!(page_host(&r[5]), Some("other.example"), "threads={threads}");
        assert!(
            r[5].label.blocked_by(ListKind::EasyList),
            "threads={threads}"
        );
        // Address 2: `/banners/` needs no page context.
        assert!(
            r[6].label.blocked_by(ListKind::EasyList),
            "threads={threads}"
        );
        assert_eq!(out.ad_request_count(), 2, "threads={threads}");
        assert_eq!(out.degradation.missing_user_agent, 1);
        assert_eq!(out.degradation.content_type_fallbacks, 1, "the redirector");

        let spans = refmap_spans(&registry);
        match threads {
            1 => assert_eq!(spans, vec![(7, 4)]),
            2 | 3 | 4 | 8 => {
                assert_eq!(spans.len(), threads * 4);
                assert!(spans.contains(&(3, 1)), "threads={threads}: {spans:?}");
            }
            _ => {}
        }
    }
}

/// ⟨1, UA⟩, ⟨2, ""⟩ and ⟨12, no User-Agent⟩ all hash to shard 2 of 16, so
/// at 4 threads one shard holds the whole trace and fifteen run empty.
#[test]
fn all_users_in_one_shard_leaves_the_others_empty() {
    let trace = hand_trace(vec![
        rec(
            0.0,
            1,
            Some(UA),
            "pub.example",
            "/",
            None,
            Some("text/html"),
            None,
        ),
        rec(
            0.1,
            2,
            Some(""),
            "pub.example",
            "/",
            None,
            Some("text/html"),
            None,
        ),
        rec(
            0.2,
            1,
            Some(UA),
            "ads.example",
            "/creative.gif",
            Some("http://pub.example/"),
            Some("image/gif"),
            None,
        ),
        // Same creative, no referer, a user that never loaded a page: the
        // `$third-party` rule has nothing to compare against.
        rec(
            0.3,
            12,
            None,
            "ads.example",
            "/creative.gif",
            None,
            Some("image/gif"),
            None,
        ),
        rec(
            0.4,
            2,
            Some(""),
            "r.example",
            "/go",
            Some("http://pub.example/"),
            None,
            Some("http://media.example/spot.mp4"),
        ),
        rec(
            0.5,
            2,
            Some(""),
            "media.example",
            "/spot.mp4",
            None,
            Some("video/mp4"),
            None,
        ),
        rec(
            0.6,
            12,
            None,
            "t.example",
            "/pixel/p.gif",
            None,
            Some("image/gif"),
            None,
        ),
    ]);
    let c = classifier();
    for threads in thread_counts() {
        let registry = obs::Registry::new();
        let out =
            classify_trace_sharded_in(&trace, &c, PipelineOptions::default(), threads, &registry);
        let r = &out.requests;
        assert_eq!(r.len(), 7, "threads={threads}");
        assert_eq!(page_host(&r[2]), Some("pub.example"), "threads={threads}");
        assert!(
            r[2].label.blocked_by(ListKind::EasyList),
            "threads={threads}"
        );
        assert_eq!(page_host(&r[3]), None, "threads={threads}");
        assert!(!r[3].label.is_ad(), "threads={threads}");
        assert_eq!(r[4].category, ContentCategory::Media, "threads={threads}");
        assert_eq!(page_host(&r[5]), Some("pub.example"), "threads={threads}");
        assert_eq!(page_host(&r[6]), None, "threads={threads}");
        assert!(
            r[6].label.blocked_by(ListKind::EasyPrivacy),
            "threads={threads}"
        );
        assert_eq!(out.ad_request_count(), 2, "threads={threads}");
        assert_eq!(out.degradation.refmap_misses, 2, "both requests of user 12");
        assert_eq!(out.degradation.broken_redirect_chains, 0);

        if threads == 4 {
            let mut spans = refmap_spans(&registry);
            spans.sort_unstable();
            let mut want = vec![(0, 0); 15];
            want.push((7, 3));
            assert_eq!(spans, want);
        }
    }
}
