//! Streaming-pipeline equivalence: `classify_stream_file` must produce
//! the same classified requests, figures, user table, download households,
//! degradation accounting, and window series as the materialized
//! `classify_trace` — for any trace,
//! chunk size, and thread count, including traces degraded by
//! `netsim::faults` at the in-memory and wire levels — and a run killed
//! mid-stream must resume from its checkpoint to a byte-identical final
//! report, even on a different thread count.
//!
//! This is the one thread-count sweep: the oracle runs on one thread, and
//! the engine must equal it at every count. Thread counts tested are
//! {1, 2, 3, 4}; set `ANNOYED_THREADS` to add an extra count (CI adds the
//! machine's own). Two hand-worked traces at the end pin the oracle's
//! output itself.

mod common;

use adscope::characterize::Figures;
use adscope::classify::ListKind;
use adscope::infer::households_with_downloads;
use adscope::pipeline::{classify_trace, ClassifiedRequest, ClassifiedTrace, PipelineOptions};
use adscope::stream::{
    classify_stream_chunks, classify_stream_file, CheckpointOptions, Fold, StreamOptions,
};
use adscope::users::{aggregate_users, UserTally};
use common::{classifier, messy_trace, stream_opts, temp_path, write_trace_file, Collect};
use http_model::headers::{RequestHeaders, ResponseHeaders};
use http_model::transaction::Method;
use http_model::{ContentCategory, HttpTransaction};
use netsim::codec::{read_trace_lossy, write_trace};
use netsim::faults::{FaultInjector, FaultProfile};
use netsim::record::{TlsConnection, Trace, TraceMeta, TraceRecord};
use netsim::stream::ChunkReader;
use proptest::prelude::*;
use std::path::Path;

fn thread_counts() -> Vec<usize> {
    common::thread_counts(&[1, 2, 3, 4])
}

/// Filter-list servers: `messy_trace` has no HTTPS flows, the fault
/// injector's duplicates neither, so the download households stay empty in
/// the proptests (`planes_algebra` and the user-table test below feed them).
const ABP_IPS: [u32; 1] = [900];

/// The materialized reference.
fn reference(trace: &Trace) -> ClassifiedTrace {
    classify_trace(trace, &classifier(), PipelineOptions::default())
}

/// Stream the file at `path` through its reader, collecting every request
/// and the figures, and hold both — and the report, its user table and
/// download households included — to the oracle's `seq`.
fn assert_streams_like(path: &Path, seq: &ClassifiedTrace, threads: usize, chunk: usize) {
    let fold = (Collect::default(), Figures::new());
    let mut opts = stream_opts(threads, chunk);
    opts.abp_ips = ABP_IPS.to_vec();
    let registry = obs::Registry::new();
    let file = std::fs::File::open(path).unwrap();
    let reader = ChunkReader::with_registry(file, chunk, &registry).unwrap();
    let meta = reader.meta().clone();
    let (rep, (collected, figures)) =
        classify_stream_chunks(reader, meta, &classifier(), &opts, &registry, fold).unwrap();
    assert_eq!(
        collected.requests(),
        seq.requests,
        "requests, threads={threads}"
    );
    let mut want = Figures::new();
    for (pos, r) in seq.requests.iter().enumerate() {
        want.observe(pos as u64, r);
    }
    assert_eq!(figures, want, "figures, threads={threads}");
    let users = aggregate_users(seq);
    assert_eq!(rep.user_table, users, "user table, threads={threads}");
    let households = households_with_downloads(&seq.https_flows, &ABP_IPS);
    assert_eq!(rep.households, households, "households, threads={threads}");
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
    for threads in thread_counts() {
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
        for threads in thread_counts() {
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
        for threads in thread_counts() {
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

/// The engine's user table and download households are the oracle's —
/// `aggregate_users` and `households_with_downloads` over the one-thread run —
/// at threads {1, 2, 4} × a chunk sweep, population plane off and on, and
/// after a kill and a resume at another thread count at every kill point. An
/// address of the trace carries both a missing and an empty UA, which the
/// table sums into one user as the oracle does, and no counter stays zero.
#[test]
fn the_engines_user_table_and_households_equal_the_oracles() {
    let mut trace = messy_trace(160, 3, 17);
    // A download from address 1, and two flows that are none: the wrong port
    // to a list server, the right one elsewhere.
    for (i, (client, server, port)) in [(1, 900, 443), (2, 900, 8443), (3, 9, 443)]
        .into_iter()
        .cycle()
        .take(9)
        .enumerate()
    {
        let at = i * 17;
        trace.records.insert(
            at,
            TraceRecord::Https(TlsConnection {
                ts: at as f64 * 0.2,
                client_ip: client,
                server_ip: server,
                server_port: port,
                bytes: 4242,
            }),
        );
    }
    let seq = reference(&trace);
    let users = aggregate_users(&seq);
    let households = households_with_downloads(&seq.https_flows, &ABP_IPS);
    assert_eq!(households, [1].into());
    let has = |ip: u32, ua: Option<&str>| {
        (seq.requests.iter()).any(|r| r.client_ip == ip && r.user_agent.as_deref() == ua)
    };
    let both = (1..=3).any(|ip| has(ip, None) && has(ip, Some("")));
    assert!(both, "no address has a missing and an empty UA");
    let mut t = UserTally::default();
    seq.requests.iter().for_each(|r| t.observe(r));
    for (counter, n) in [
        ("requests", t.requests),
        ("bytes", t.bytes),
        ("ad_requests", t.ad_requests),
        ("easylist_blockable", t.easylist_blockable),
        ("easylist_hits", t.easylist_hits),
        ("regional_hits", t.regional_hits),
        ("easyprivacy_hits", t.easyprivacy_hits),
        ("whitelist_hits", t.whitelist_hits),
    ] {
        assert!(n > 0, "{counter} is 0");
    }

    let path = write_trace_file(&trace, "user-table");
    let opts = |threads: usize, chunk: usize, population: bool| {
        let mut o = stream_opts(threads, chunk);
        o.abp_ips = ABP_IPS.to_vec();
        o.pipeline.population.enabled = population;
        o
    };
    let run = |o: &StreamOptions| {
        classify_stream_file(&path, &classifier(), o, &obs::Registry::new()).unwrap()
    };
    for threads in [1, 2, 4] {
        for chunk in [1, 3, 16, 100_000] {
            for population in [false, true] {
                let rep = run(&opts(threads, chunk, population));
                let case = format!("threads={threads} chunk={chunk} population={population}");
                assert_eq!(rep.user_table, users, "{case}");
                assert_eq!(rep.households, households, "{case}");
            }
        }
    }

    let chunk = 16;
    for kill in 1..trace.records.len().div_ceil(chunk) as u64 {
        let ckdir = temp_path("user-table-ck");
        let mut killed = opts(3, chunk, true);
        killed.stop_after_chunks = Some(kill);
        killed.checkpoint = Some(CheckpointOptions {
            dir: ckdir.clone(),
            every_chunks: 1,
            resume: false,
        });
        assert!(run(&killed).stopped_early);
        let mut resumed = opts(2, chunk, true);
        resumed.checkpoint = Some(CheckpointOptions {
            resume: true,
            ..killed.checkpoint.clone().unwrap()
        });
        let rep = run(&resumed);
        assert!(rep.resumed_from.is_some());
        assert_eq!(rep.user_table, users, "kill={kill}");
        assert_eq!(rep.households, households, "kill={kill}");
        let _ = std::fs::remove_dir_all(&ckdir);
    }
    let _ = std::fs::remove_file(&path);
}

/// Chunks larger than the router's 256-record batch, which a worker is
/// handed mid-chunk as it fills while the chunk stays the unit of offsets
/// and checkpoints: a 2 400-record trace streams like the oracle at chunks of
/// 300, 777 and 2 048 at every thread count, and a run killed after each of
/// its 777-record chunks resumes, at another thread count, to the
/// uninterrupted run's bytes.
#[test]
fn chunks_larger_than_a_batch_stream_like_the_oracle() {
    let trace = messy_trace(2400, 5, 46);
    let seq = reference(&trace);
    let path = write_trace_file(&trace, "big-chunks");
    for chunk in [300, 777, 2048] {
        for threads in thread_counts() {
            assert_streams_like(&path, &seq, threads, chunk);
        }
    }

    let chunk = 777;
    let want = classify_stream_file(
        &path,
        &classifier(),
        &stream_opts(2, chunk),
        &obs::Registry::new(),
    )
    .unwrap()
    .render();
    for kill in 1..trace.records.len().div_ceil(chunk) as u64 {
        let ckdir = temp_path("big-chunks-ck");
        let mut killed = stream_opts(3, chunk);
        killed.stop_after_chunks = Some(kill);
        killed.checkpoint = Some(CheckpointOptions {
            dir: ckdir.clone(),
            every_chunks: 1,
            resume: false,
        });
        let partial = classify_stream_file(&path, &classifier(), &killed, &obs::Registry::new());
        assert!(partial.unwrap().stopped_early, "kill={kill}");
        let mut resumed = stream_opts(1, chunk);
        resumed.checkpoint = Some(CheckpointOptions {
            resume: true,
            ..killed.checkpoint.clone().unwrap()
        });
        let got =
            classify_stream_file(&path, &classifier(), &resumed, &obs::Registry::new()).unwrap();
        assert!(got.resumed_from.is_some(), "kill={kill}");
        assert_eq!(got.render(), want, "kill={kill}");
        let _ = std::fs::remove_dir_all(&ckdir);
    }
    let _ = std::fs::remove_file(&path);
}

// ---------------------------------------------------------------------------
// Hand-worked traces: the oracle's output pinned, the stream held to it
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
            name: "hand-worked".into(),
            duration_secs: 1.0,
            subscribers: 2,
            start_hour: 0,
            start_weekday: 0,
        },
        records,
    }
}

fn page_host(r: &ClassifiedRequest) -> Option<&str> {
    r.page.as_ref().map(|p| p.host())
}

/// User ⟨1, UA⟩ owns a redirect chain (page, untyped redirector, target
/// without a referer) and shares the trace with three other users — one
/// behind the same address on another device, one with no User-Agent that
/// fetches the very redirect target in between, one elsewhere. Its FNV-1a
/// hash puts it alone on its worker at two and four workers; the chain
/// must come out stitched and backfilled all the same, and nobody else's
/// page context may leak in.
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
    let out = reference(&trace);
    let r = &out.requests;
    assert_eq!(r.len(), 7);
    // The chain: the redirector takes the target's type, the target the
    // redirector's page.
    assert_eq!(r[2].category, ContentCategory::Media);
    assert_eq!(page_host(&r[2]), Some("pub.example"));
    assert_eq!(r[4].category, ContentCategory::Media);
    assert_eq!(page_host(&r[4]), Some("pub.example"));
    assert!(!r[2].label.is_ad() && !r[4].label.is_ad());
    // The same URL fetched by the user with no User-Agent, before the
    // chain's owner got to it: no context of its own, and it must not have
    // consumed the owner's pending redirect.
    assert_eq!(page_host(&r[3]), None);
    assert_eq!(out.degradation.broken_redirect_chains, 0);
    // The other device behind address 1: third-party ad on its own page.
    assert_eq!(page_host(&r[5]), Some("other.example"));
    assert!(r[5].label.blocked_by(ListKind::EasyList));
    // Address 2: `/banners/` needs no page context.
    assert!(r[6].label.blocked_by(ListKind::EasyList));
    assert_eq!(out.ad_request_count(), 2);
    assert_eq!(out.degradation.missing_user_agent, 1);
    assert_eq!(out.degradation.content_type_fallbacks, 1, "the redirector");
    assert_stream_equivalent(&trace, 3);
}

/// ⟨1, UA⟩, ⟨2, ""⟩ and ⟨12, no User-Agent⟩ all hash to shard 2 of 16, so
/// at two and four workers one worker holds the whole trace and the others
/// run empty. User 12 never loads a page, so the `$third-party` rule has
/// nothing to compare its creative against.
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
        // Same creative, no referer, a user that never loaded a page.
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
    let out = reference(&trace);
    let r = &out.requests;
    assert_eq!(r.len(), 7);
    assert_eq!(page_host(&r[2]), Some("pub.example"));
    assert!(r[2].label.blocked_by(ListKind::EasyList));
    assert_eq!(page_host(&r[3]), None);
    assert!(!r[3].label.is_ad());
    assert_eq!(r[4].category, ContentCategory::Media);
    assert_eq!(page_host(&r[5]), Some("pub.example"));
    assert_eq!(page_host(&r[6]), None);
    assert!(r[6].label.blocked_by(ListKind::EasyPrivacy));
    assert_eq!(out.ad_request_count(), 2);
    assert_eq!(out.degradation.refmap_misses, 2, "both requests of user 12");
    assert_eq!(out.degradation.broken_redirect_chains, 0);
    assert_stream_equivalent(&trace, 3);
}
