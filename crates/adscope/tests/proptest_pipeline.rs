//! Property tests for the passive pipeline: normalization is idempotent and
//! conservative, content inference is total, the referrer map never panics
//! on arbitrary orderings, and per-user aggregation conserves counts. The
//! one-thread oracle explains every request once, in record order, and its
//! window report, published, becomes the `/windows` body and puts the
//! late-observation tally in `obs_window_late_total`.

mod common;

use abp_filter::FilterList;
use adscope::classify::PassiveClassifier;
use adscope::content::{infer_category_traced, ContentOptions};
use adscope::normalize::UrlNormalizer;
use adscope::pipeline::{classify_trace, explain_trace, PipelineOptions};
use adscope::users::aggregate_users;
use adscope::window::WindowOptions;
use common::{classifier, messy_trace};
use http_model::headers::{RequestHeaders, ResponseHeaders};
use http_model::transaction::Method;
use http_model::{HttpTransaction, Url};
use netsim::record::{Trace, TraceMeta, TraceRecord};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn url_strategy() -> impl Strategy<Value = String> {
    (
        proptest::collection::vec("[a-z][a-z0-9]{0,6}", 2..4),
        proptest::collection::vec("[a-zA-Z0-9_.-]{1,8}", 0..4),
        proptest::option::of(proptest::collection::vec(
            ("[a-z]{1,6}", "[a-zA-Z0-9]{0,20}"),
            1..4,
        )),
    )
        .prop_map(|(host, path, query)| {
            let mut s = format!("http://{}/{}", host.join("."), path.join("/"));
            if let Some(q) = query {
                s.push('?');
                s.push_str(
                    &q.into_iter()
                        .map(|(k, v)| format!("{k}={v}"))
                        .collect::<Vec<_>>()
                        .join("&"),
                );
            }
            s
        })
}

/// A multi-user trace spanning several windows, with occasional
/// out-of-order timestamps (some hours behind the highest).
fn windowed_trace(n: usize, users: u32, span_secs: f64, seed: u64) -> Trace {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut records: Vec<TraceRecord> = Vec::with_capacity(n);
    for i in 0..n {
        let client = rng.gen_range(1..=users);
        let mut ts = i as f64 / n.max(1) as f64 * span_secs;
        if rng.gen_bool(0.05) {
            ts -= span_secs / 2.0; // far out of order
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
            name: "windowed".into(),
            duration_secs: span_secs,
            subscribers: users as usize,
            start_hour: 0,
            start_weekday: 0,
        },
        records,
    }
}

proptest! {
    /// `explain_trace` explains every request exactly once, in record order,
    /// and classifies exactly as `classify_trace` does.
    #[test]
    fn explain_trace_gives_one_record_per_request_in_record_order(
        n in 1usize..100,
        users in 1u32..8,
        seed in 0u64..500,
    ) {
        let trace = messy_trace(n, users, seed);
        let out = explain_trace(&trace, &classifier(), PipelineOptions::default());
        prop_assert_eq!(out.provenance.len(), out.requests.len());
        prop_assert!(out.provenance.windows(2).all(|w| w[0].record < w[1].record));
        for (vp, r) in out.provenance.iter().zip(&out.requests) {
            prop_assert_eq!(vp.ts.to_bits(), r.ts.to_bits());
            prop_assert_eq!(vp.client_ip, r.client_ip);
            prop_assert_eq!(&vp.normalized_url, &r.url.as_string());
        }
        let plain = classify_trace(&trace, &classifier(), PipelineOptions::default());
        prop_assert!(plain.provenance.is_empty());
        prop_assert_eq!(plain.requests, out.requests);
        prop_assert_eq!(plain.windows, out.windows);
    }

    /// Publishing the oracle's report serves exactly its NDJSON lines at
    /// `/windows`, for narrow and wide windows.
    #[test]
    fn window_log_is_the_rendered_report(
        n in 1usize..150,
        users in 1u32..7,
        span_secs in 100.0f64..20_000.0,
        width in prop_oneof![Just(60.0f64), Just(600.0), Just(3600.0)],
        seed in 0u64..500,
    ) {
        let opts = PipelineOptions {
            window: WindowOptions { width_secs: width, ..WindowOptions::default() },
            ..PipelineOptions::default()
        };
        let trace = windowed_trace(n, users, span_secs, seed);
        let out = classify_trace(&trace, &classifier(), opts);
        let registry = obs::Registry::new();
        adscope::window::publish(&out.windows, &registry);
        let served = registry.body("/windows");
        prop_assert_eq!(served, out.windows.render_ndjson("adscope"));
    }

    /// Late records are counted, not silently dropped: the report's late
    /// total, published, matches a visible `obs_window_late_total` counter,
    /// which reaches the Prometheus exposition.
    #[test]
    fn late_records_increment_visible_counter(seed in 0u64..200) {
        let mut trace = windowed_trace(40, 3, 10_000.0, seed);
        // Force a latecomer: a record whose timestamp has no window.
        if let TraceRecord::Http(tx) = &mut trace.records[1] {
            tx.ts = f64::NAN;
        }
        let out = classify_trace(&trace, &classifier(), PipelineOptions::default());
        let registry = obs::Registry::new();
        adscope::window::publish(&out.windows, &registry);
        prop_assert!(out.windows.late > 0, "fixture must produce a latecomer");
        prop_assert_eq!(
            registry.snapshot().counter("obs_window_late_total", &[]),
            out.windows.late,
            "late counter mirrors the report"
        );
        prop_assert!(
            registry.render_prometheus().contains("obs_window_late_total"),
            "late counter reaches /metrics"
        );
        // Conservation: the engine counts lateness per observation (a
        // request makes one observation per touched series), so every
        // request missing from the "requests" series accounts for at
        // least one late observation — nothing vanishes untallied.
        let missing = out.requests.len() as u64 - out.windows.total("requests");
        prop_assert!(missing > 0, "fixture latecomer missed its window");
        prop_assert!(
            out.windows.late >= missing,
            "late {} < missing {}",
            out.windows.late,
            missing
        );
    }

    #[test]
    fn normalization_is_idempotent(url_str in url_strategy()) {
        let n = UrlNormalizer::from_literals(&["callback=keepme".into()]);
        let url = Url::parse(&url_str).unwrap();
        let once = n.normalize(&url);
        let twice = n.normalize(&once);
        prop_assert_eq!(once, twice);
    }

    #[test]
    fn normalization_preserves_everything_but_query(url_str in url_strategy()) {
        let n = UrlNormalizer::from_literals(&[]);
        let url = Url::parse(&url_str).unwrap();
        let out = n.normalize(&url);
        prop_assert_eq!(out.host(), url.host());
        prop_assert_eq!(out.path(), url.path());
        prop_assert_eq!(out.query().is_some(), url.query().is_some());
        // Query keys survive in order.
        let keys_in: Vec<&str> = url.query_pairs().map(|(k, _)| k).collect();
        let keys_out: Vec<&str> = out.query_pairs().map(|(k, _)| k).collect();
        prop_assert_eq!(keys_in, keys_out);
    }

    #[test]
    fn content_inference_is_total(url_str in url_strategy(), ct in proptest::option::of("[a-z]{1,10}/[a-z0-9.+-]{1,15}")) {
        let url = Url::parse(&url_str).unwrap();
        let _ = infer_category_traced(&url, ct.as_deref(), ContentOptions::default());
    }

    #[test]
    fn aggregation_conserves_requests(
        n_requests in 1usize..60,
        n_users in 1u32..6,
        seed in 0u64..1000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let records: Vec<TraceRecord> = (0..n_requests)
            .map(|i| {
                TraceRecord::Http(HttpTransaction {
                    ts: i as f64,
                    client_ip: rng.gen_range(1..=n_users),
                    server_ip: 9,
                    server_port: 80,
                    method: Method::Get,
                    request: RequestHeaders {
                        host: "x.example".into(),
                        uri: format!("/obj{i}"),
                        referer: None,
                        user_agent: Some(format!("UA-{}", rng.gen_range(0..3))),
                    },
                    response: ResponseHeaders {
                        status: 200,
                        content_type: Some("image/gif".into()),
                        content_length: Some(10),
                        location: None,
                    },
                    tcp_handshake_ms: 1.0,
                    http_handshake_ms: 2.0,
                })
            })
            .collect();
        let trace = Trace {
            meta: TraceMeta {
                name: "prop".into(),
                duration_secs: n_requests as f64 + 1.0,
                subscribers: n_users as usize,
                start_hour: 0,
                start_weekday: 0,
            },
            records,
        };
        let classifier = PassiveClassifier::new(vec![FilterList::parse("easylist", "/ads/\n")]);
        let classified = classify_trace(&trace, &classifier, PipelineOptions::default());
        let users = aggregate_users(&classified);
        let total: u64 = users.iter().map(|u| u.counters.requests).sum();
        prop_assert_eq!(total as usize, n_requests);
        // No user aggregate can exceed the trace totals.
        for u in &users {
            prop_assert!(u.counters.ad_requests <= u.counters.requests);
            prop_assert!(u.counters.easylist_blockable <= u.counters.requests);
        }
    }

    #[test]
    fn pipeline_output_is_one_to_one_with_http_records(
        n in 1usize..40,
        seed in 0u64..500,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let records: Vec<TraceRecord> = (0..n)
            .map(|i| {
                TraceRecord::Http(HttpTransaction {
                    ts: i as f64 * 0.5,
                    client_ip: 1,
                    server_ip: rng.gen_range(1..5),
                    server_port: 80,
                    method: Method::Get,
                    request: RequestHeaders {
                        host: format!("h{}.example", rng.gen_range(0..4)),
                        uri: format!("/p{i}?cb={}", rng.gen_range(100000..999999u32)),
                        referer: if rng.gen_bool(0.5) {
                            Some("http://h0.example/".to_string())
                        } else {
                            None
                        },
                        user_agent: Some("UA".into()),
                    },
                    response: ResponseHeaders {
                        status: 200,
                        content_type: None,
                        content_length: Some(rng.gen_range(1..100_000)),
                        location: None,
                    },
                    tcp_handshake_ms: 1.0,
                    http_handshake_ms: 2.0,
                })
            })
            .collect();
        let trace = Trace {
            meta: TraceMeta {
                name: "prop2".into(),
                duration_secs: n as f64,
                subscribers: 1,
                start_hour: 0,
                start_weekday: 0,
            },
            records,
        };
        let classifier = PassiveClassifier::new(vec![FilterList::parse("easylist", "/ads/\n")]);
        let classified = classify_trace(&trace, &classifier, PipelineOptions::default());
        prop_assert_eq!(classified.requests.len() + classified.dropped, n);
        // Bytes conserved.
        let bytes_in: u64 = trace
            .http_transactions()
            .map(|t| t.response.content_length.unwrap_or(0))
            .sum();
        let bytes_out: u64 = classified.requests.iter().map(|r| r.bytes).sum();
        prop_assert_eq!(bytes_in, bytes_out);
    }

    /// End-to-end robustness: serialize a trace, corrupt it at both the
    /// in-memory and wire levels, recover with the lossy reader, and run
    /// the full pipeline. Nothing may panic, and the degradation report
    /// must reconcile with what survived.
    #[test]
    fn pipeline_never_panics_on_corrupted_traces(
        n in 1usize..50,
        rate in 0.0f64..0.6,
        seed in 0u64..1000,
    ) {
        use netsim::codec::{read_trace_lossy, write_trace};
        use netsim::faults::{FaultInjector, FaultProfile};

        let mut rng = StdRng::seed_from_u64(seed);
        let records: Vec<TraceRecord> = (0..n)
            .map(|i| {
                TraceRecord::Http(HttpTransaction {
                    ts: i as f64 * 0.5,
                    client_ip: rng.gen_range(1..4),
                    server_ip: rng.gen_range(10..15),
                    server_port: 80,
                    method: Method::Get,
                    request: RequestHeaders {
                        host: format!("h{}.example", rng.gen_range(0..4)),
                        uri: format!("/ads/o{i}"),
                        referer: Some("http://h0.example/".into()),
                        user_agent: Some("UA".into()),
                    },
                    response: ResponseHeaders {
                        status: 200,
                        content_type: Some("image/gif".into()),
                        content_length: Some(50),
                        location: None,
                    },
                    tcp_handshake_ms: 1.0,
                    http_handshake_ms: 2.0,
                })
            })
            .collect();
        let trace = Trace {
            meta: TraceMeta {
                name: "prop-corrupt".into(),
                duration_secs: n as f64,
                subscribers: 3,
                start_hour: 0,
                start_weekday: 0,
            },
            records,
        };
        let mut injector = FaultInjector::new(FaultProfile::uniform(rate), seed);
        let faulted = injector.corrupt_trace(&trace);
        let mut bytes = Vec::new();
        write_trace(&faulted, &mut bytes).expect("write");
        let corrupted = injector.corrupt_bytes(&bytes);
        let (recovered, stats) =
            read_trace_lossy(corrupted.as_slice()).expect("lossy read");

        let classifier = PassiveClassifier::new(vec![FilterList::parse("easylist", "/ads/\n")]);
        let classified = classify_trace(&recovered, &classifier, PipelineOptions::default());

        // Every salvaged HTTP record is either classified or quarantined.
        prop_assert_eq!(
            classified.requests.len() + classified.dropped,
            stats.records_read
        );
        prop_assert_eq!(classified.dropped, classified.degradation.quarantined());
        // Header-field drops surface as counted degradation, never as lost
        // records. Wire duplication can at most double each UA-less record,
        // so the count is bounded by drops + duplicates.
        prop_assert!(
            classified.degradation.missing_user_agent
                <= injector.counts().user_agents_dropped
                    + injector.counts().records_duplicated
        );
    }
}
