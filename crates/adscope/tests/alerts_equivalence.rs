//! Alert-plane equivalence properties: the rendered alert timeline is a
//! pure function of the merged window report — byte-identical across
//! thread counts and chunk sizes, identical between the streaming and
//! materialized evaluators, and preserved bit-for-bit across a
//! kill-and-resume from checkpoint.

mod common;

use adscope::pipeline::{classify_trace, PipelineOptions};
use adscope::stream::{classify_stream_file, CheckpointOptions, StreamOptions};
use common::{classifier, temp_path, write_trace_file};
use http_model::headers::{RequestHeaders, ResponseHeaders};
use http_model::transaction::Method;
use http_model::HttpTransaction;
use netsim::record::{Trace, TraceMeta, TraceRecord};
use obs::{AlertRule, DetectorSpec, Direction, SeriesSpec, Severity};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A pack sized for hour-scale synthetic traces: the same detector
/// shapes as the production pack, with evidence floors a few dozen
/// requests per window can clear.
fn pack() -> Vec<AlertRule> {
    vec![
        AlertRule {
            name: "blocked_share_drop".into(),
            series: SeriesSpec::Share {
                num: vec!["blocked_easylist".into()],
                den: "requests".into(),
            },
            detector: DetectorSpec::Cusum { drift: 0.02 },
            direction: Direction::Down,
            threshold: 0.05,
            for_windows: 2,
            min_den: 5,
            severity: Severity::Page,
        },
        AlertRule {
            name: "ad_share_jump".into(),
            series: SeriesSpec::Share {
                num: vec!["ads".into()],
                den: "requests".into(),
            },
            detector: DetectorSpec::EwmaZ { alpha: 0.3 },
            direction: Direction::Up,
            threshold: 3.0,
            for_windows: 1,
            min_den: 5,
            severity: Severity::Warn,
        },
        AlertRule {
            name: "req_burst".into(),
            series: SeriesSpec::Counter("requests".into()),
            detector: DetectorSpec::RateOfChange,
            direction: Direction::Up,
            threshold: 2.0,
            for_windows: 1,
            min_den: 0,
            severity: Severity::Warn,
        },
    ]
}

/// An hour-bucketed trace with a blocked-share regime change at `cut`:
/// before it roughly a third of requests hit a `/banners/` rule, after
/// it almost none do. Jittered timestamps, mixed hosts, and a random
/// referer mix keep the classifier's whole path busy.
fn shift_trace(hours: usize, load: usize, cut: usize, seed: u64) -> Trace {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut records = Vec::new();
    let mut i = 0usize;
    for h in 0..hours {
        for k in 0..load {
            let ts =
                h as f64 * 3600.0 + k as f64 * (3600.0 / load as f64) + rng.gen_range(0.0..1.0);
            let blocked = if h < cut {
                i.is_multiple_of(3)
            } else {
                i.is_multiple_of(19)
            };
            let (host, uri) = if blocked {
                ("x.example", format!("/banners/{i}.gif"))
            } else {
                match i % 4 {
                    0 => ("pub.example", format!("/page{i}")),
                    1 => ("static.example", format!("/img{i}.png")),
                    2 => ("cdn.example", format!("/lib{i}.js")),
                    _ => ("pub.example", format!("/article{i}")),
                }
            };
            let referer = if rng.gen_bool(0.6) {
                Some("http://pub.example/".to_string())
            } else {
                None
            };
            records.push(TraceRecord::Http(HttpTransaction {
                ts,
                client_ip: rng.gen_range(1..=5),
                server_ip: rng.gen_range(10..15),
                server_port: 80,
                method: Method::Get,
                request: RequestHeaders {
                    host: host.into(),
                    uri,
                    referer,
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
            i += 1;
        }
    }
    Trace {
        meta: TraceMeta {
            name: "alert-equiv".into(),
            duration_secs: hours as f64 * 3600.0,
            subscribers: 5,
            start_hour: 0,
            start_weekday: 0,
        },
        records,
    }
}

fn stream_opts(threads: usize, chunk: usize) -> StreamOptions {
    StreamOptions {
        alerts: pack(),
        ..common::stream_opts(threads, chunk)
    }
}

proptest! {
    /// The streamed timeline equals the materialized evaluator's, at
    /// every thread count and chunk size — the determinism contract.
    #[test]
    fn alert_timeline_is_schedule_invariant(
        hours in 6usize..16,
        load in 8usize..30,
        cut_num in 2usize..10,
        chunk in 1usize..50,
        seed in 0u64..500,
    ) {
        let cut = cut_num.min(hours - 1);
        let trace = shift_trace(hours, load, cut, seed);

        let seq = classify_trace(&trace, &classifier(), PipelineOptions::default());
        let want = adscope::alerts::evaluate(&seq.windows, pack());
        let (want_text, want_ndjson) = (want.render_text(), want.render_ndjson());

        let path = write_trace_file(&trace, "sched");
        for threads in [1usize, 4] {
            let rep = classify_stream_file(
                &path,
                &classifier(),
                &stream_opts(threads, chunk),
                &obs::Registry::new(),
            )
            .unwrap();
            let eng = rep.alerts.as_ref().expect("pack enabled");
            prop_assert_eq!(eng.render_text(), want_text.clone(), "text, threads={}", threads);
            prop_assert_eq!(eng.render_ndjson(), want_ndjson.clone(), "ndjson, threads={}", threads);
        }
        let _ = std::fs::remove_file(&path);
    }

    /// Kill-and-resume with alerting enabled: the engine state rides
    /// the checkpoint, and the resumed run — on a different thread
    /// count — renders a byte-identical report and timeline.
    #[test]
    fn alert_timeline_survives_kill_and_resume(
        hours in 6usize..14,
        load in 8usize..24,
        cut_num in 2usize..8,
        chunk in 3usize..17,
        kill_after in 1u64..6,
        seed in 0u64..500,
    ) {
        let cut = cut_num.min(hours - 1);
        let trace = shift_trace(hours, load, cut, seed);
        let path = write_trace_file(&trace, "resume");
        let ckdir = temp_path("ckdir");
        std::fs::create_dir_all(&ckdir).unwrap();

        let full = classify_stream_file(
            &path,
            &classifier(),
            &stream_opts(4, chunk),
            &obs::Registry::new(),
        )
        .unwrap();
        let want_render = full.render();
        let want_text = full.alerts.as_ref().expect("pack enabled").render_text();

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
        prop_assert_eq!(got.render(), want_render, "resumed report render differs");
        prop_assert_eq!(
            got.alerts.as_ref().expect("pack enabled").render_text(),
            want_text,
            "resumed alert timeline differs"
        );

        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_dir_all(&ckdir);
    }
}
