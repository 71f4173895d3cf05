//! Windowed-aggregation determinism (ISSUE 5 satellite): the per-window
//! time series must be **byte-identical** between the sequential and
//! sharded pipelines at any thread count, and late (out-of-watermark)
//! records must surface in a visible `obs_window_late_total` counter
//! rather than vanish.

mod common;

use adscope::pipeline::{classify_trace_in, PipelineOptions};
use adscope::shard::classify_trace_sharded_in;
use adscope::window::WindowOptions;
use common::classifier;
use http_model::headers::{RequestHeaders, ResponseHeaders};
use http_model::transaction::Method;
use http_model::HttpTransaction;
use netsim::record::{Trace, TraceMeta, TraceRecord};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A multi-user trace spanning several windows, with occasional
/// out-of-order timestamps (some beyond any reasonable watermark).
fn windowed_trace(n: usize, users: u32, span_secs: f64, seed: u64) -> Trace {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut records: Vec<TraceRecord> = Vec::with_capacity(n);
    for i in 0..n {
        let client = rng.gen_range(1..=users);
        let mut ts = i as f64 / n.max(1) as f64 * span_secs;
        if rng.gen_bool(0.05) {
            ts -= span_secs / 2.0; // far out of order — candidate latecomer
        }
        let (host, uri) = match rng.gen_range(0..5) {
            0 => ("pub.example", "/".to_string()),
            1 => ("ads.example", format!("/creative{i}.gif")),
            2 => ("x.example", format!("/banners/{i}.gif")),
            3 => ("nice.example", format!("/w{i}.js")),
            _ => ("t.example", format!("/pixel/{i}.gif")),
        };
        records.push(TraceRecord::Http(HttpTransaction {
            ts,
            client_ip: client,
            server_ip: rng.gen_range(10..14),
            server_port: 80,
            method: Method::Get,
            request: RequestHeaders {
                host: host.into(),
                uri,
                referer: Some("http://pub.example/".into()),
                user_agent: Some("UA/1.0".into()),
            },
            response: ResponseHeaders {
                status: 200,
                content_type: Some("image/gif".into()),
                content_length: Some(rng.gen_range(10..5000)),
                location: None,
            },
            tcp_handshake_ms: 1.0,
            http_handshake_ms: rng.gen_range(2.0..90.0),
        }));
    }
    Trace {
        meta: TraceMeta {
            name: "window-equiv".into(),
            duration_secs: span_secs,
            subscribers: users as usize,
            start_hour: 0,
            start_weekday: 0,
        },
        records,
    }
}

/// Thread counts the determinism claim is checked at; `ANNOYED_THREADS`
/// adds one more (CI runs the suite at 1 and 4).
fn thread_counts() -> Vec<usize> {
    common::thread_counts(&[1, 4])
}

proptest! {
    /// The windowed report — and its rendered NDJSON — is byte-identical
    /// between sequential and sharded runs, for narrow and wide windows
    /// and tight and loose watermarks.
    #[test]
    fn windowed_series_identical_sequential_vs_sharded(
        n in 1usize..150,
        users in 1u32..7,
        span_secs in 100.0f64..20_000.0,
        width in prop_oneof![Just(60.0f64), Just(600.0), Just(3600.0)],
        watermark in prop_oneof![Just(0.0f64), Just(60.0), Just(3600.0)],
        seed in 0u64..500,
    ) {
        let trace = windowed_trace(n, users, span_secs, seed);
        let c = classifier();
        let opts = PipelineOptions {
            window: WindowOptions { enabled: true, width_secs: width, watermark_secs: watermark },
            ..PipelineOptions::default()
        };
        let seq = classify_trace_in(&trace, &c, opts, &obs::Registry::new());
        let seq_ndjson = seq.windows.render_ndjson("adscope");
        for threads in thread_counts() {
            let reg = obs::Registry::new();
            let par = classify_trace_sharded_in(&trace, &c, opts, threads, &reg);
            prop_assert_eq!(&par.windows, &seq.windows, "report, threads={}", threads);
            prop_assert_eq!(
                &par.windows.render_ndjson("adscope"),
                &seq_ndjson,
                "NDJSON bytes, threads={}",
                threads
            );
            // The registry's window log carries exactly the report lines.
            let logged = reg.windows().snapshot().join("\n");
            let expect = seq_ndjson.trim_end_matches('\n');
            prop_assert_eq!(logged.as_str(), expect, "window log, threads={}", threads);
        }
    }

    /// Late records are counted, not silently dropped: the report's late
    /// total matches a visible `obs_window_late_total` counter, which
    /// reaches the Prometheus exposition.
    #[test]
    fn late_records_increment_visible_counter(
        threads in prop_oneof![Just(1usize), Just(4usize)],
        seed in 0u64..200,
    ) {
        let mut trace = windowed_trace(40, 3, 10_000.0, seed);
        // Force a latecomer: one record far behind the final high
        // timestamp, beyond the 60 s watermark used below.
        if let TraceRecord::Http(tx) = &mut trace.records[0] {
            tx.ts = 9_999.0;
        }
        if let TraceRecord::Http(tx) = &mut trace.records[1] {
            tx.ts = 1.0;
        }
        let opts = PipelineOptions {
            window: WindowOptions { enabled: true, width_secs: 60.0, watermark_secs: 60.0 },
            ..PipelineOptions::default()
        };
        let reg = obs::Registry::new();
        let out = classify_trace_sharded_in(&trace, &classifier(), opts, threads, &reg);
        prop_assert!(out.windows.late > 0, "fixture must produce a latecomer");
        let snap = reg.snapshot();
        prop_assert_eq!(
            snap.counter("obs_window_late_total", &[]),
            out.windows.late,
            "late counter mirrors the report"
        );
        let text = reg.render_prometheus();
        prop_assert!(
            text.contains("obs_window_late_total"),
            "late counter reaches /metrics"
        );
        // Conservation: the engine counts lateness per observation (a
        // request makes one observation per touched series), so every
        // request missing from the "requests" series accounts for at
        // least one late observation — nothing vanishes untallied.
        let landed = out.windows.total("requests");
        let missing = out.requests.len() as u64 - landed;
        prop_assert!(missing > 0, "fixture latecomer missed its window");
        prop_assert!(
            out.windows.late >= missing,
            "late {} < missing {}",
            out.windows.late,
            missing
        );
    }
}
