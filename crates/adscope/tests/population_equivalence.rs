//! Population-sketch equivalence: the merged sketch state is a pure,
//! order-insensitive function of the observed requests, and the
//! `/population` render produced by the streaming scatter-merge path is
//! byte-identical to the materialized [`population::finish_trace`] path
//! for any trace, thread count, and chunk size — including runs killed
//! mid-stream and resumed from a checkpoint. The quantile sketches stay
//! within their documented relative-error bound of the exact
//! `stats::percentile`.

mod common;

use adscope::pipeline::{classify_trace, PipelineOptions};
use adscope::population::{self, PopulationOptions, PopulationSketches};
use adscope::stream::{classify_stream_file, CheckpointOptions, StreamOptions};
use common::{classifier, temp_path, write_trace_file};
use http_model::headers::{RequestHeaders, ResponseHeaders};
use http_model::transaction::Method;
use http_model::HttpTransaction;
use netsim::record::{TlsConnection, Trace, TraceMeta, TraceRecord};
use obs::sketch::{QuantileSketch, QUANTILE_GAMMA};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const THREAD_COUNTS: [usize; 2] = [1, 4];

/// The EasyList-download server addresses the generated traces point
/// HTTPS flows at.
const ABP_IPS: [u32; 2] = [900, 901];

fn popts() -> PopulationOptions {
    PopulationOptions {
        enabled: true,
        active_min_requests: 3,
    }
}

/// A randomized multi-user trace exercising the population-sensitive
/// features: several ⟨IP, UA⟩ pairs (browser UAs, a non-browser, and
/// absent), ad and clean hosts, rule and exception hits, and HTTPS
/// flows — some to the ABP download addresses (household signal), some
/// not.
fn population_trace(n: usize, users: u32, seed: u64) -> Trace {
    let mut rng = StdRng::seed_from_u64(seed);
    let browser = http_model::UserAgent::desktop(
        http_model::BrowserFamily::Firefox,
        http_model::useragent::Os::Windows,
        38,
    )
    .raw;
    let mut records: Vec<TraceRecord> = Vec::with_capacity(n);
    for i in 0..n {
        let client = rng.gen_range(1..=users);
        if rng.gen_bool(0.1) {
            let abp = rng.gen_bool(0.5);
            records.push(TraceRecord::Https(TlsConnection {
                ts: i as f64 * 0.2,
                client_ip: client,
                server_ip: if abp {
                    ABP_IPS[rng.gen_range(0..ABP_IPS.len())]
                } else {
                    rng.gen_range(10..20)
                },
                server_port: if rng.gen_bool(0.8) { 443 } else { 8443 },
                bytes: rng.gen_range(100..10_000),
            }));
            continue;
        }
        let ua = match rng.gen_range(0..4) {
            0..=1 => Some(browser.clone()),
            2 => Some("curl/7.0".to_string()),
            _ => None,
        };
        let (host, uri) = match rng.gen_range(0..5) {
            0 => ("pub.example", "/index.html".to_string()),
            1 => ("ads.example", format!("/creative{i}.gif")),
            2 => ("x.example", format!("/banners/{i}.gif")),
            3 => ("nice.example", format!("/ok{i}.js")),
            _ => ("t.example", format!("/pixel/{i}.gif")),
        };
        records.push(TraceRecord::Http(HttpTransaction {
            ts: i as f64 * 0.2,
            client_ip: client,
            server_ip: rng.gen_range(10..20),
            server_port: 80,
            method: Method::Get,
            request: RequestHeaders {
                host: host.into(),
                uri,
                referer: Some("http://pub.example/".to_string()),
                user_agent: ua,
            },
            response: ResponseHeaders {
                status: 200,
                content_type: Some("image/gif".to_string()),
                content_length: Some(rng.gen_range(10..5000)),
                location: None,
            },
            tcp_handshake_ms: 1.0,
            http_handshake_ms: rng.gen_range(2.0..90.0),
        }));
    }
    Trace {
        meta: TraceMeta {
            name: "pop-equiv".into(),
            duration_secs: n as f64,
            subscribers: users as usize,
            start_hour: 0,
            start_weekday: 0,
        },
        records,
    }
}

/// The materialized reference render: full pipeline with population
/// sketches attached, then the shared `finish_trace` report.
fn reference_render(trace: &Trace) -> String {
    let opts = PipelineOptions {
        population: popts(),
        ..PipelineOptions::default()
    };
    let classified = classify_trace(trace, &classifier(), opts);
    population::finish_trace(&classified, &ABP_IPS, popts()).render()
}

fn stream_opts(threads: usize, chunk: usize) -> StreamOptions {
    let mut opts = StreamOptions {
        abp_ips: ABP_IPS.to_vec(),
        ..common::stream_opts(threads, chunk)
    };
    opts.pipeline.population = popts();
    opts
}

/// One IP whose requests carry no UA, an empty UA and a browser UA in turn.
/// The referrer map keeps a missing and an empty UA apart, so the stream
/// counts three users. The user table folds an absent UA into the empty one,
/// so those two are one population user. The render matches the materialized
/// path, and so does a run resumed from its checkpoint, whose lines hold the
/// two users' counters apart.
#[test]
fn a_missing_and_an_empty_ua_are_two_refmap_users_but_one_tally() {
    let mut trace = population_trace(60, 1, 7);
    let browser = http_model::UserAgent::desktop(
        http_model::BrowserFamily::Firefox,
        http_model::useragent::Os::Windows,
        38,
    )
    .raw;
    let (mut http, mut blank) = (0, 0);
    for r in &mut trace.records {
        if let TraceRecord::Http(h) = r {
            h.request.user_agent =
                [None, Some(String::new()), Some(browser.clone())][http % 3].clone();
            blank += u64::from(http % 3 != 2);
            http += 1;
        }
    }
    let want = reference_render(&trace);
    let path = write_trace_file(&trace, "blank-ua");
    let ckdir = temp_path("blank-ua-ck");
    let checkpointed = |threads: usize, resume: bool, stop: Option<u64>| {
        let mut o = stream_opts(threads, 5);
        o.checkpoint = Some(CheckpointOptions {
            dir: ckdir.clone(),
            every_chunks: 1,
            resume,
        });
        o.stop_after_chunks = stop;
        classify_stream_file(&path, &classifier(), &o, &obs::Registry::new()).unwrap()
    };

    let whole = checkpointed(2, false, None);
    assert_eq!(whole.users, 3, "absent, empty and browser UA");
    let pop = whole.population.as_ref().expect("population enabled");
    assert_eq!(
        pop.distinct_users, 2,
        "absent and empty UA are one population user"
    );
    assert_eq!(pop.render(), want);

    let log = std::fs::read_to_string(ckdir.join("checkpoint.ndjson")).unwrap();
    let tally_of = |ua: &str| {
        let line = log
            .lines()
            .rfind(|l| l.contains(&format!("\"user_agent\":{ua},")));
        let line = line.unwrap_or_else(|| panic!("no user line for UA {ua}"));
        let key = "\"counters\":[";
        let from = line.find(key).expect("the line carries its counters") + key.len();
        line[from..from + line[from..].find(',').unwrap()]
            .parse::<u64>()
            .unwrap()
    };
    let (absent, empty) = (tally_of("null"), tally_of("\"\""));
    assert!(absent > 0 && empty > 0, "{absent} and {empty} requests");
    assert_eq!(absent + empty, blank);

    checkpointed(3, false, Some(4));
    let resumed = checkpointed(1, true, None);
    assert!(resumed.resumed_from.is_some());
    assert_eq!(resumed.users, 3);
    assert_eq!(resumed.render(), whole.render());
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_dir_all(&ckdir);
}

/// The population's distinct users are counted, not estimated: the user
/// table's rows with a request, which are the oracle's `aggregate_users` rows,
/// at 1 and 3 threads and across a kill and a resume. Its request and ad
/// counts are that table's sums, which are the run's.
#[test]
fn distinct_users_are_the_user_tables_rows_with_a_request() {
    let trace = population_trace(240, 40, 11);
    let oracle = classify_trace(&trace, &classifier(), PipelineOptions::default());
    let want = adscope::users::aggregate_users(&oracle).len() as u64;
    assert!(want > 20, "{want} users");
    let path = write_trace_file(&trace, "distinct-users");
    let ckdir = temp_path("distinct-users-ck");
    let run = |threads: usize, resume: bool, stop: Option<u64>| {
        let mut o = stream_opts(threads, 7);
        o.checkpoint = Some(CheckpointOptions {
            dir: ckdir.clone(),
            every_chunks: 1,
            resume,
        });
        o.stop_after_chunks = stop;
        classify_stream_file(&path, &classifier(), &o, &obs::Registry::new()).unwrap()
    };
    let killed = run(3, false, Some(9));
    assert!(killed.stopped_early);
    for (what, report) in [
        ("1 thread", run(1, false, None)),
        ("3 threads", run(3, false, None)),
        ("killed at 3, resumed at 1", run(1, true, None)),
    ] {
        let pop = report.population.as_ref().expect("population enabled");
        assert_eq!(report.user_table.len() as u64, want, "{what}");
        assert_eq!(pop.distinct_users, want, "{what}");
        assert_eq!(pop.requests, report.requests, "{what}");
        assert_eq!(pop.ad_requests, report.ad_requests, "{what}");
    }
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_dir_all(&ckdir);
}

proptest! {
    /// Sketch merging is associative and commutative: any partition of
    /// the requests, merged in any order, yields the same state as one
    /// sequential pass (the TopK capacity is far above the generated
    /// key space, so the sketches stay in the exact regime).
    #[test]
    fn sketch_merge_is_associative_and_commutative(
        n in 1usize..120,
        users in 1u32..10,
        seed in 0u64..1000,
    ) {
        let trace = population_trace(n, users, seed);
        let classified = classify_trace(
            &trace,
            &classifier(),
            PipelineOptions::default(),
        );
        let mut rng = StdRng::seed_from_u64(seed ^ 0xABCD);
        let mut whole = PopulationSketches::new(popts());
        let mut parts = [
            PopulationSketches::new(popts()),
            PopulationSketches::new(popts()),
            PopulationSketches::new(popts()),
        ];
        for r in &classified.requests {
            whole.observe(r);
            parts[rng.gen_range(0..3)].observe(r);
        }
        let [a, b, c] = parts;
        // (a ∪ b) ∪ c
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        // a ∪ (b ∪ c)
        let mut right = b.clone();
        right.merge(&c);
        let mut assoc = a.clone();
        assoc.merge(&right);
        // c ∪ b ∪ a
        let mut rev = c;
        rev.merge(&b);
        rev.merge(&a);
        prop_assert_eq!(&left, &whole, "sequential != merged");
        prop_assert_eq!(&assoc, &whole, "associativity");
        prop_assert_eq!(&rev, &whole, "commutativity");
    }

    /// The streamed `/population` render is byte-identical to the
    /// materialized path at every thread count and chunk size.
    #[test]
    fn streamed_population_render_is_invariant(
        n in 1usize..100,
        users in 1u32..10,
        chunk in 1usize..40,
        seed in 0u64..1000,
    ) {
        let trace = population_trace(n, users, seed);
        let want = reference_render(&trace);
        let path = write_trace_file(&trace, "render");
        for threads in THREAD_COUNTS {
            for chunk in [chunk, chunk * 3 + 1] {
                let rep = classify_stream_file(
                    &path,
                    &classifier(),
                    &stream_opts(threads, chunk),
                    &obs::Registry::new(),
                )
                .unwrap();
                let got = rep.population.as_ref().expect("population enabled").render();
                prop_assert_eq!(
                    &got, &want,
                    "population render, threads={} chunk={}", threads, chunk
                );
            }
        }
        let _ = std::fs::remove_file(&path);
    }

    /// Kill-and-resume with population enabled: the checkpoint round-trips
    /// the cumulative sketches, user counters, and household set, so the
    /// resumed report (population section included) renders byte-identically.
    #[test]
    fn checkpoint_resume_preserves_population(
        n in 20usize..100,
        users in 1u32..8,
        chunk in 3usize..17,
        kill_after in 1u64..6,
        seed in 0u64..500,
    ) {
        let trace = population_trace(n, users, seed);
        let path = write_trace_file(&trace, "resume");
        let ckdir = temp_path("ckdir");
        std::fs::create_dir_all(&ckdir).unwrap();

        let want = classify_stream_file(
            &path,
            &classifier(),
            &stream_opts(4, chunk),
            &obs::Registry::new(),
        )
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
        prop_assert!(want.contains("population:"), "report carries the population section");
        prop_assert_eq!(got.render(), want, "resumed render differs");

        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_dir_all(&ckdir);
    }

    /// Every reported quantile of the log-linear sketch is within its
    /// guaranteed relative-error bound of the exact type-7 percentile.
    #[test]
    fn quantile_sketch_within_alpha_of_exact(
        n in 1usize..500,
        scale_pow in 0u32..7,
        seed in 0u64..1000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let hi = 10f64.powi(scale_pow as i32 + 1);
        let samples: Vec<f64> = (0..n).map(|_| rng.gen_range(0.01..hi)).collect();
        let mut sketch = QuantileSketch::new(QUANTILE_GAMMA);
        for &s in &samples {
            sketch.observe(s);
        }
        let alpha = sketch.alpha() + 1e-9;
        for q in [25.0, 50.0, 75.0, 90.0, 99.0] {
            let est = sketch.quantile(q).expect("non-empty sketch");
            let truth = stats::percentile(&samples, q);
            prop_assert!(
                (est - truth).abs() <= alpha * truth.abs(),
                "p{} estimate {} vs exact {} breaches alpha={}",
                q, est, truth, alpha
            );
        }
    }
}
