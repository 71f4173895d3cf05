//! The traced run: replay the pipeline stage by stage through the layers'
//! public functions, in the order `classify_trace_in` uses, on the
//! workload's own bytes and lists, with a harness-side span around each
//! call. Then measure the whole paths untraced (materialized, sharded,
//! streamed at 1 and 2 workers) and probe the layers no stage covers
//! (checkpoint, resume, channel hand-off). Never mixed into timed reps:
//! this runs in a process of its own.

use crate::fixture::ListSet;
use crate::metrics::{RunResult, PER_LAYER};
use crate::spans::Recorder;
use crate::stats::{median, quartiles, RepRule};
use crate::sys;
use crate::workload::{
    check, materialized_options, placed, run_stream, Bench, Rep, Tally, CHUNK_RECORDS,
};
use abp_filter::{ClassifyScratch, CompileStats, CompiledEngine};
use adscope::content::infer_category_traced;
use adscope::extract::extract_full;
use adscope::normalize::UrlNormalizer;
use adscope::pipeline::{classify_trace_in, ClassifiedRequest, ClassifiedTrace};
use adscope::population::PopulationSketches;
use adscope::refmap::RefMap;
use adscope::shard::classify_trace_sharded_in;
use adscope::users::aggregate_users;
use adscope::{AdLabel, ListKind, PassiveClassifier, StreamOptions};
use http_model::{ContentCategory, Url};
use netsim::codec::CodecStats;
use netsim::record::{Trace, TraceRecord};
use netsim::stream::{ChunkReader, TraceWriter};
use std::collections::HashMap;
use std::fs::{self, File};
use std::hint::black_box;
use std::io;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Untraced whole-path measurements repeat until a second has been timed,
/// 15 times at most: enough for a median on the small-list workloads, a
/// single rep where one rep already takes seconds.
const PATH_RULE: RepRule = RepRule {
    min_secs: 1.0,
    min_reps: 1,
    max_reps: 15,
};
/// Interleaved with/without-checkpoint pairs of the checkpoint probe.
const CKPT_PAIRS: usize = 3;
/// Round trips of the channel ping-pong.
const PING_PONGS: u32 = 20_000;

/// Decode the workload's file chunk by chunk, as the stream's router does.
fn decode_chunks(path: &Path) -> io::Result<(Trace, CodecStats)> {
    let mut reader =
        ChunkReader::with_registry(File::open(path)?, CHUNK_RECORDS, &obs::Registry::new())
            .map_err(|e| io::Error::other(e.to_string()))?;
    let mut records = Vec::new();
    let mut stats = CodecStats::default();
    while let Some(chunk) = reader.next_chunk() {
        stats.merge(&chunk.stats);
        records.extend(chunk.records);
    }
    let meta = reader.meta().clone();
    Ok((Trace { meta, records }, stats))
}

/// What the staged pipeline produced, and what it counted on the way.
struct Staged {
    ct: ClassifiedTrace,
    users: u64,
    rewritten: u64,
    candidates: u64,
    prefilter_rejects: u64,
}

type Verdict = (AdLabel, Option<(ListKind, Arc<str>)>);

/// The pipeline stages, one span each. Mirrors `classify_trace_in` except
/// that per-record work interleaved there (content inference inside the
/// refmap pass; normalize, match and assembly inside one closure) runs
/// here as separate passes, so that each layer gets a span without a
/// timer call per record.
fn staged_pipeline(rec: &mut Recorder, b: &Bench, trace: &Trace) -> Staged {
    let opts = materialized_options(b.wl);
    let classifier = b.classifier;

    let (objects, mut degradation, quarantined_ts) =
        rec.span("adscope.extract", |_| extract_full(trace));
    let dropped = degradation.quarantined();

    let mut categories: Vec<ContentCategory> = rec.span("adscope.content", |_| {
        objects
            .iter()
            .map(|o| infer_category_traced(&o.url, o.content_type.as_deref(), opts.content).0)
            .collect()
    });

    let (pages, users) = rec.span("adscope.refmap", |_| {
        let mut per_user: HashMap<(u32, Option<&str>), RefMap> = HashMap::new();
        let mut pages: Vec<Option<Url>> = Vec::with_capacity(objects.len());
        let mut pos_of_idx: HashMap<usize, usize> = HashMap::with_capacity(objects.len());
        let mut backfills: Vec<(usize, ContentCategory)> = Vec::new();
        let mut prev_ts = f64::NEG_INFINITY;
        for (pos, obj) in objects.iter().enumerate() {
            if obj.ts < prev_ts {
                degradation.out_of_order_records += 1;
            }
            prev_ts = obj.ts;
            pos_of_idx.insert(obj.idx, pos);
            let entry = per_user
                .entry((obj.client_ip, obj.user_agent.as_deref()))
                .or_insert_with(|| RefMap::new(opts.refmap))
                .process(obj);
            if let Some(redirecting_idx) = entry.backfill_type_to {
                backfills.push((redirecting_idx, categories[pos]));
            }
            if entry.ctx.page.is_none() {
                degradation.refmap_misses += 1;
            }
            pages.push(entry.ctx.page);
        }
        for map in per_user.values() {
            degradation.broken_redirect_chains +=
                map.redirects_inserted() - map.redirects_consumed();
        }
        for (idx, cat) in backfills {
            if let Some(&pos) = pos_of_idx.get(&idx) {
                if cat != ContentCategory::Other {
                    categories[pos] = cat;
                }
            }
        }
        for (obj, cat) in objects.iter().zip(&categories) {
            if obj.content_type.is_none() && *cat != ContentCategory::Other {
                degradation.content_type_fallbacks += 1;
            }
        }
        (pages, per_user.len() as u64)
    });

    let urls: Vec<Url> = rec.span("adscope.normalize", |_| {
        let normalizer = UrlNormalizer::from_engine(classifier.engine());
        objects
            .iter()
            .map(|o| normalizer.normalize(&o.url))
            .collect()
    });
    let rewritten = objects
        .iter()
        .zip(&urls)
        .filter(|(o, u)| o.url.query() != u.query())
        .count() as u64;

    // The compiled engine counts into the registry it was bound to when
    // it was built, which is the global one.
    let match_counters = || {
        let snap = obs::global().snapshot();
        (
            snap.counter("abp_candidates_total", &[]),
            snap.counter("abp_prefilter_rejects_total", &[]),
        )
    };
    let before = match_counters();
    let verdicts: Vec<Verdict> = rec.span("abp-filter.match", |_| {
        let mut scratch = ClassifyScratch::new();
        urls.iter()
            .zip(&pages)
            .zip(&categories)
            .map(|((url, page), &category)| {
                let (label, c) =
                    classifier.classify_traced_in(url, page.as_ref(), category, &mut scratch);
                (label, classifier.primary_rule(&c))
            })
            .collect()
    });
    let after = match_counters();

    let requests: Vec<ClassifiedRequest> = rec.span("adscope.assemble", |_| {
        objects
            .iter()
            .zip(urls)
            .zip(pages)
            .zip(verdicts)
            .zip(&categories)
            .map(
                |((((obj, url), page), (label, rule)), &category)| ClassifiedRequest {
                    ts: obj.ts,
                    client_ip: obj.client_ip,
                    server_ip: obj.server_ip,
                    url,
                    page,
                    category,
                    content_type: obj.content_type.clone(),
                    bytes: obj.bytes,
                    user_agent: obj.user_agent.clone(),
                    tcp_handshake_ms: obj.tcp_handshake_ms,
                    http_handshake_ms: obj.http_handshake_ms,
                    label,
                    rule,
                },
            )
            .collect()
    });

    let windows = rec.span("adscope.window", |_| {
        let windows = adscope::window::aggregate(&requests, &quarantined_ts, opts.window);
        adscope::window::publish(&windows, &obs::Registry::new());
        windows
    });

    let population = opts.population.enabled.then(|| {
        rec.span("adscope.population", |_| {
            let mut sketches = PopulationSketches::new(opts.population);
            for r in &requests {
                sketches.observe(r);
            }
            sketches
        })
    });

    Staged {
        ct: ClassifiedTrace {
            meta: trace.meta.clone(),
            requests,
            https_flows: trace.https_flows().cloned().collect(),
            dropped,
            degradation,
            provenance: Vec::new(),
            windows,
            population,
        },
        users,
        rewritten,
        candidates: after.0 - before.0,
        prefilter_rejects: after.1 - before.1,
    }
}

/// Layers that no pipeline stage of this workload covers, each under its
/// own span beside the pipeline. Returns the URL count and the compile
/// figures.
fn probes(
    rec: &mut Recorder,
    b: &Bench,
    trace: &Trace,
    ct: &ClassifiedTrace,
) -> io::Result<(u64, CompileStats)> {
    rec.span("adscope.users", |_| black_box(aggregate_users(ct)));
    if !b.wl.full {
        rec.span("adscope.population", |_| {
            let mut sketches =
                PopulationSketches::new(b.wl.as_full().pipeline_options().population);
            for r in &ct.requests {
                sketches.observe(r);
            }
            black_box(sketches);
        });
    }
    rec.span("obs.alert_eval", |_| {
        black_box(adscope::alerts::evaluate(
            &ct.windows,
            adscope::alerts::rule_pack(),
        ))
    });
    rec.span("netsim.encode", |_| {
        let mut w = TraceWriter::new(io::sink(), &trace.meta)?;
        for r in &trace.records {
            w.write_record(r)?;
        }
        w.finish()
    })
    .map_err(|e| io::Error::other(e.to_string()))?;

    let url_texts: Vec<String> = trace
        .records
        .iter()
        .filter_map(|r| match r {
            TraceRecord::Http(tx) => Some(format!("http://{}{}", tx.request.host, tx.request.uri)),
            TraceRecord::Https(_) => None,
        })
        .collect();
    rec.span("http-model.url_parse", |_| {
        for text in &url_texts {
            let _ = black_box(Url::parse(text));
        }
    });
    let compiled = rec.span("abp-filter.compile", |_| {
        CompiledEngine::compile(b.classifier.engine())
    });
    Ok((url_texts.len() as u64, compiled.stats()))
}

/// Repeat `one` under `rule`; ns per call of the reps whose facts matched.
fn repeat_checked(
    rule: RepRule,
    what: &str,
    reference: &str,
    tally: &mut Tally,
    mut one: impl FnMut() -> (u64, Result<String, String>),
) -> Vec<f64> {
    let mut ns = Vec::new();
    let mut timed = 0.0;
    let mut reps = 0;
    while !rule.done(timed, reps) {
        let (wall_ns, facts) = one();
        let verdict = check(&facts, reference);
        if verdict.is_ok() {
            ns.push(wall_ns as f64);
        }
        tally.record(what, verdict);
        timed += wall_ns as f64 / 1e9;
        reps += 1;
    }
    ns
}

/// Checked stream reps at one worker count, and what they cost in total.
struct StreamReps {
    ns: Vec<f64>,
    wall_ns: u64,
    cpu_ns: u64,
    last: Option<Rep>,
}

/// `free` leaves a 1-worker stream on every CPU, where `placed` would
/// restrict it to one.
fn stream_reps(b: &Bench, threads: usize, free: bool, tally: &mut Tally) -> StreamReps {
    let mut out = StreamReps {
        ns: Vec::new(),
        wall_ns: 0,
        cpu_ns: 0,
        last: None,
    };
    let mut reps = || {
        repeat_checked(PATH_RULE, "stream rep", b.reference, tally, || {
            let rep = b.rep(threads);
            out.wall_ns += rep.wall_ns;
            out.cpu_ns += rep.cpu_ns;
            let timed = (rep.wall_ns, rep.facts.clone());
            out.last = Some(rep);
            timed
        })
    };
    out.ns = if free { reps() } else { placed(threads, reps) };
    out
}

/// What the checkpoint and resume probes report.
struct CkptProbe {
    ckpt_ns_per_record: f64,
    checkpoints: u64,
    ckpt_bytes: u64,
    quarantined: u64,
    resume_ms: f64,
}

/// Checkpoint cost and resume time, always with the small lists and the
/// `full` option set on the workload's input: state size does not depend
/// on list size, and at EasyList scale the cost would drown in the
/// rep-to-rep noise of the match.
fn checkpoint_probe(b: &Bench, small: &PassiveClassifier, tally: &mut Tally) -> CkptProbe {
    let path = b.input();
    let with =
        b.wl.as_full()
            .stream_options(b.wl.threads, b.abp_ips, b.rep_dir);
    let without = StreamOptions {
        checkpoint: None,
        ..with.clone()
    };

    let mut diffs = Vec::new();
    let mut uninterrupted: Option<Rep> = None;
    for _ in 0..CKPT_PAIRS {
        let plain = run_stream(&path, small, &without, Some(b.rep_dir));
        let ckpt = run_stream(&path, small, &with, Some(b.rep_dir));
        // With and without checkpointing must agree on every fact.
        let verdict = match &plain.facts {
            Ok(reference) => check(&ckpt.facts, reference),
            Err(e) => Err(format!("call failed: {e}")),
        };
        if verdict.is_ok() {
            diffs.push(ckpt.wall_ns as f64 - plain.wall_ns as f64);
        }
        tally.record("checkpoint pair", verdict);
        uninterrupted = Some(ckpt);
    }
    let records = uninterrupted.as_ref().map_or(0, |r| r.records).max(1);
    let report = uninterrupted.as_ref().and_then(|r| r.report.as_ref());
    let ckpt_file = b
        .rep_dir
        .checkpoint_dir()
        .join(adscope::stream::CHECKPOINT_FILE);
    let ckpt_bytes = fs::metadata(ckpt_file).map_or(0, |m| m.len());

    // Resume: stop at half the chunks, then time the resumed run. Its
    // rendered report must equal the uninterrupted run's.
    let chunks = report.map_or(0, |r| r.chunks);
    let stop = StreamOptions {
        stop_after_chunks: Some(chunks.div_ceil(2).max(1)),
        ..with.clone()
    };
    let stopped = run_stream(&path, small, &stop, Some(b.rep_dir));
    let mut resume = with;
    if let Some(ck) = resume.checkpoint.as_mut() {
        ck.resume = true;
    }
    let resumed = run_stream(&path, small, &resume, None);
    let verdict = match (report, &resumed.report, &stopped.report) {
        (Some(_), Some(_), Some(partial)) if !partial.stopped_early => {
            Err("the stopped run did not stop early".to_string())
        }
        (Some(_), Some(got), Some(_)) if got.resumed_from.is_none() => {
            Err("the resumed run did not resume".to_string())
        }
        (Some(want), Some(got), Some(_)) => check(&Ok(got.render()), &want.render()),
        _ => Err("a probe call failed".to_string()),
    };
    tally.record("resume", verdict);

    CkptProbe {
        ckpt_ns_per_record: median(&diffs) / records as f64,
        checkpoints: report.map_or(0, |r| r.checkpoints_written),
        ckpt_bytes,
        quarantined: report.map_or(0, |r| r.degradation.quarantined() as u64),
        resume_ms: resumed.wall_ns as f64 / 1e6,
    }
}

/// Two threads bounce a token over two `parallel::bounded(1)` channels.
fn channel_roundtrip_ns() -> f64 {
    let (ping_tx, ping_rx) = parallel::bounded::<u32>(1);
    let (pong_tx, pong_rx) = parallel::bounded::<u32>(1);
    std::thread::scope(|scope| {
        scope.spawn(move || {
            while let Some(v) = ping_rx.recv() {
                if pong_tx.send(v).is_err() {
                    break;
                }
            }
        });
        let t = Instant::now();
        for i in 0..PING_PONGS {
            if ping_tx.send(i).is_err() || pong_rx.recv() != Some(i) {
                return f64::NAN;
            }
        }
        let ns = t.elapsed().as_nanos() as f64 / f64::from(PING_PONGS);
        // Closing the channel ends the echo thread, which the scope joins.
        drop(ping_tx);
        ns
    })
}

/// The whole traced run. `spans_out` receives the span log.
pub fn run(b: &Bench, spans_out: &Path) -> io::Result<RunResult> {
    let mut tally = Tally::default();
    let calib_before = sys::calib_ms();
    let opts = materialized_options(b.wl);

    // Staged replay, traced.
    let mut rec = Recorder::new(b.wl.name);
    let (trace, codec, staged, urls, compile_stats) = rec.span("replay", |rec| {
        let (trace, codec) = rec.span("netsim.decode", |_| decode_chunks(&b.input()))?;
        let staged = rec.span("pipeline", |rec| staged_pipeline(rec, b, &trace));
        let (urls, compile_stats) = rec.span("probes", |rec| probes(rec, b, &trace, &staged.ct))?;
        io::Result::Ok((trace, codec, staged, urls, compile_stats))
    })?;
    fs::write(spans_out, rec.to_ndjson())?;
    let replay_facts = b.facts_of_materialized(&staged.ct, &codec);
    tally.record("staged replay", b.check(&Ok(replay_facts)));

    // Whole paths, untraced.
    let materialized = repeat_checked(PATH_RULE, "materialized", b.reference, &mut tally, || {
        let t = Instant::now();
        let ct = classify_trace_in(&trace, b.classifier, opts, &obs::Registry::new());
        let ns = t.elapsed().as_nanos() as u64;
        (ns, Ok(b.facts_of_materialized(&ct, &codec)))
    });
    let sharded = repeat_checked(PATH_RULE, "sharded", b.reference, &mut tally, || {
        let t = Instant::now();
        let ct = classify_trace_sharded_in(&trace, b.classifier, opts, 2, &obs::Registry::new());
        let ns = t.elapsed().as_nanos() as u64;
        (ns, Ok(b.facts_of_materialized(&ct, &codec)))
    });
    let w1 = stream_reps(b, 1, false, &mut tally);
    let w1_free = stream_reps(b, 1, true, &mut tally);
    let w2 = stream_reps(b, 2, false, &mut tally);
    let own = if b.wl.threads == 1 { &w1 } else { &w2 };

    let t = Instant::now();
    let exposition = own.last.as_ref().map(|r| r.registry.render_prometheus());
    let render_ms = t.elapsed().as_secs_f64() * 1e3;
    let series = exposition.map_or(0, |text| {
        text.lines()
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .count()
    });
    let own_chunks = own
        .last
        .as_ref()
        .and_then(|r| r.report.as_ref())
        .map_or(0, |r| r.chunks);
    let send_stalls = own.last.as_ref().map_or(0, |r| {
        r.registry
            .snapshot()
            .counter_sum("adscope_stream_send_stalls_total")
    });

    // Probes outside the pipeline.
    let small_built;
    let small = if b.wl.lists == ListSet::Small {
        b.classifier
    } else {
        small_built = PassiveClassifier::new(b.fx.load_lists(ListSet::Small)?);
        &small_built
    };
    let probe = placed(b.wl.threads, || checkpoint_probe(b, small, &mut tally));
    let roundtrip_ns = channel_roundtrip_ns();
    let calib_after = sys::calib_ms();

    // Derivations.
    let ct = &staged.ct;
    let records = codec.records_read.max(1) as f64;
    let requests = ct.requests.len() as u64;
    let per_record = |ns: u64| ns as f64 / records;
    let ratio = |num: u64, den: u64| num as f64 / den.max(1) as f64;
    let decode_ns = rec.total_ns("netsim.decode");
    let file_bytes = fs::metadata(b.input())?.len();
    let materialized_ns = median(&materialized);
    // What the same classification costs without the stream machinery, at
    // the workload's own thread count.
    let same_threads_ns = if b.wl.threads == 1 {
        materialized_ns
    } else {
        median(&sharded)
    };
    let ledger_sum = rec.children_self_ns("pipeline");
    let (q1, own_ns, q3) = quartiles(&own.ns).unwrap_or((0.0, 0.0, 0.0));

    // One row per glossary entry, in glossary order.
    #[rustfmt::skip]
    let rows: Vec<(&str, f64)> = vec![
        ("netsim.decode_ns_per_record", per_record(decode_ns)),
        ("netsim.decode_mb_per_s", file_bytes as f64 / 1e6 / (decode_ns as f64 / 1e9)),
        ("netsim.records_read", codec.records_read as f64),
        ("netsim.records_skipped", codec.total_skipped() as f64),
        ("netsim.encode_ns_per_record", per_record(rec.self_ns("netsim.encode"))),
        ("http-model.url_parse_ns_per_url", ratio(rec.self_ns("http-model.url_parse"), urls)),
        ("adscope.extract_ns_per_record", per_record(rec.self_ns("adscope.extract"))),
        ("adscope.extract_quarantined", ct.degradation.quarantined() as f64),
        ("adscope.refmap_ns_per_record", per_record(rec.self_ns("adscope.refmap"))),
        ("adscope.refmap_miss_share", ratio(ct.degradation.refmap_misses as u64, requests)),
        ("adscope.refmap_users", staged.users as f64),
        ("adscope.content_ns_per_record", per_record(rec.self_ns("adscope.content"))),
        ("adscope.normalize_ns_per_record", per_record(rec.self_ns("adscope.normalize"))),
        ("adscope.normalize_literals", b.classifier.engine().query_literals().len() as f64),
        ("adscope.normalize_rewritten_share", ratio(staged.rewritten, requests)),
        ("abp-filter.match_ns_per_request", ratio(rec.self_ns("abp-filter.match"), requests)),
        ("abp-filter.rules", compile_stats.rules as f64),
        ("abp-filter.compile_ms", rec.self_ns("abp-filter.compile") as f64 / 1e6),
        ("abp-filter.arena_bytes", compile_stats.arena_bytes as f64),
        ("abp-filter.candidates_per_request", ratio(staged.candidates, requests)),
        ("abp-filter.prefilter_reject_share", ratio(staged.prefilter_rejects, staged.candidates)),
        ("abp-filter.ad_share", ratio(ct.ad_request_count() as u64, requests)),
        ("adscope.assemble_ns_per_record", per_record(rec.self_ns("adscope.assemble"))),
        ("adscope.window_ns_per_record", per_record(rec.self_ns("adscope.window"))),
        ("adscope.population_ns_per_record", per_record(rec.self_ns("adscope.population"))),
        ("adscope.users_ns_per_record", per_record(rec.self_ns("adscope.users"))),
        ("obs.alert_eval_ms", rec.self_ns("obs.alert_eval") as f64 / 1e6),
        ("obs.render_metrics_ms", render_ms),
        ("obs.series", series as f64),
        ("adscope.materialized_ns_per_record", materialized_ns / records),
        ("adscope.sharded_ns_per_record", median(&sharded) / records),
        ("stream.w1_ns_per_record", median(&w1.ns) / records),
        ("stream.w1_free_ns_per_record", median(&w1_free.ns) / records),
        ("stream.w1_free_cpu_over_wall", ratio(w1_free.cpu_ns, w1_free.wall_ns)),
        ("stream.w2_ns_per_record", median(&w2.ns) / records),
        ("stream.scaling_x", median(&w1.ns) / median(&w2.ns)),
        ("stream.overhead_ns_per_record", (own_ns - decode_ns as f64 - same_threads_ns) / records),
        ("stream.cpu_over_wall", ratio(own.cpu_ns, own.wall_ns)),
        ("stream.chunks", own_chunks as f64),
        ("stream.send_stalls", send_stalls as f64),
        ("stream.checkpoints", probe.checkpoints as f64),
        ("stream.ckpt_bytes", probe.ckpt_bytes as f64),
        ("stream.ckpt_ns_per_record", probe.ckpt_ns_per_record),
        ("stream.resume_ms", probe.resume_ms),
        ("stream.quarantined", probe.quarantined as f64),
        ("parallel.channel_roundtrip_ns", roundtrip_ns),
        ("ledger.sum_ns_per_record", per_record(ledger_sum)),
        ("ledger.residual_share", (materialized_ns - ledger_sum as f64) / materialized_ns),
        ("ledger.trace_overhead_share", (rec.total_ns("pipeline") as f64 - materialized_ns) / materialized_ns),
        ("harness.calib_ms", calib_before),
        ("harness.calib_after_ms", calib_after),
        ("harness.reps", own.ns.len() as f64),
        ("harness.ns_per_record_q1", q1 / records),
        ("harness.ns_per_record_q3", q3 / records),
    ];
    let mut out = RunResult {
        attempted: tally.attempted,
        failed: tally.failed,
        metrics: Vec::new(),
    };
    for (name, value) in rows {
        out.push(PER_LAYER, name, value);
    }
    Ok(out)
}
