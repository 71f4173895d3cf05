//! `experiments alerts` — the filter-list-lag drill: drive the built-in
//! alert rule pack over a trace with an injected change point.
//!
//! The scenario stitches two captures into one trace:
//!
//! 1. **Pre** — the plain RBN-1 world: the subscription's filter lists
//!    cover the ad networks actually serving, so the blocked share sits
//!    at its steady level.
//! 2. **Post** — the same world after [`webgen::Ecosystem::evolve_list_lag`]
//!    rotated the heaviest ad networks onto sibling domains the stale
//!    host-anchored rules no longer match. Timestamps are shifted by
//!    the pre-capture duration, so the cut-over lands at a known window
//!    boundary.
//!
//! The classifier keeps the **stale** (pre-evolution) lists — exactly
//! the lag failure mode the paper's §7 list-coverage discussion warns
//! about — and the stream runs with [`adscope::alerts::rule_pack`]
//! enabled, so `blocked_share_drop` (severity `page`) must walk
//! pending → firing right at the injected change point.
//!
//! `--check` is the CI gate: it asserts the pre-period is quiet for the
//! page rule, that `blocked_share_drop` goes pending at the cut-over
//! window (± one window of CUSUM ramp) and reaches `firing`, and that
//! the rendered timeline is byte-identical across thread counts and
//! chunk sizes.

use crate::cli::{die, Args};
use crate::manifest;
use crate::world::{Rbn, Scale, World};
use adscope::StreamOptions;
use netsim::record::{Trace, TraceRecord};
use std::path::PathBuf;

pub const USAGE: &str = "experiments alerts [--scale small|medium|large] [--seed N] [--threads N]
           [--chunk-records N] [--delist N] [--out PATH] [--ndjson PATH]
           [--manifest PATH] [--check]";

/// Entry point for the `alerts` subcommand. Exits the process.
pub fn run(args: &[String]) -> ! {
    let mut scale = Scale::Small;
    let mut seed: u64 = 0x5eed;
    let mut delist: usize = 9;
    let mut out_path: Option<PathBuf> = None;
    let mut ndjson_path: Option<PathBuf> = None;
    let mut manifest_path: Option<PathBuf> = None;
    let mut check = false;
    let mut opts = StreamOptions::default();
    let mut a = Args::new("alerts", USAGE, args);
    while let Some(flag) = a.next() {
        match flag {
            "--scale" => scale = a.parsed(flag),
            "--seed" => seed = a.parsed(flag),
            "--threads" => opts.threads = a.bounded(flag, 1..),
            "--chunk-records" => opts.chunk_records = a.bounded(flag, 1..),
            "--delist" => delist = a.bounded(flag, 1..),
            "--out" => out_path = Some(a.path(flag)),
            "--ndjson" => ndjson_path = Some(a.path(flag)),
            "--manifest" => manifest_path = Some(a.path(flag)),
            "--check" => check = true,
            other => a.unknown(other),
        }
    }

    // The base world and its lists — the subscription the classifier
    // keeps through the whole run (that is the point of the drill).
    let world = World::new(scale, seed, opts.threads);
    opts.abp_ips = world.eco.abp_ips.clone();
    opts.alerts = adscope::alerts::rule_pack();

    let mut m = manifest::stamp_world("alerts", &world);
    m.config("chunk_records", opts.chunk_records);
    m.config("delist", delist);
    m.config(
        "rules_fnv",
        format!("{:016x}", obs::rules_fnv(&opts.alerts)),
    );
    manifest::publish_header(&m);

    // The evolved world: the heaviest listed ad networks rotate onto
    // sibling domains the stale rules miss.
    let (evolved, rotated) = world.eco.evolve_list_lag(delist);
    eprintln!(
        "[alerts] list lag injected: {} network(s) rotated off the stale rules",
        rotated.len()
    );

    // Pre capture on the base world, post capture on the evolved one,
    // post timestamps shifted by the pre duration: one trace whose
    // change point sits at a known window boundary.
    let mut trace = world.generate(&world.eco, Rbn::One).0.trace;
    let mut post = world.generate(&evolved, Rbn::One).0.trace.records;
    let cut_secs = trace.meta.duration_secs;
    for r in &mut post {
        match r {
            TraceRecord::Http(t) => t.ts += cut_secs,
            TraceRecord::Https(c) => c.ts += cut_secs,
        }
    }
    trace.records.extend(post);
    trace.meta.name = "RBN-LAG".to_string();
    trace.meta.duration_secs = cut_secs * 2.0;
    let cut_window = (cut_secs / opts.pipeline.window.width_secs) as i64;
    eprintln!(
        "[alerts] {} records, cut-over at window {cut_window}",
        trace.records.len()
    );

    let report = world.stream_trace(&trace, &opts);
    let engine = report.alerts.as_ref().expect("rule pack was enabled");
    let text = engine.render_text();
    let ndjson = engine.render_ndjson();
    println!("{text}");

    if check {
        run_check(&world, &trace, &opts, engine, cut_window);
    }

    // Artifacts + manifest (lines digest mode; `experiments verify`
    // replays the argv below and re-checks both).
    let dir = manifest::out_dir();
    let out_path = out_path.unwrap_or_else(|| dir.join("alerts.txt"));
    let ndjson_path = ndjson_path.unwrap_or_else(|| dir.join("alerts.ndjson"));
    manifest::write_artifact(&out_path, &text);
    manifest::write_artifact(&ndjson_path, &ndjson);
    eprintln!(
        "[alerts] timeline written to {} (+ {})",
        out_path.display(),
        ndjson_path.display()
    );
    m.replay = vec![
        "alerts".to_string(),
        "--scale".into(),
        scale.as_str().into(),
        "--seed".into(),
        seed.to_string(),
        "--chunk-records".into(),
        opts.chunk_records.to_string(),
        "--delist".into(),
        delist.to_string(),
        "--out".into(),
        out_path.display().to_string(),
        "--ndjson".into(),
        ndjson_path.display().to_string(),
    ];
    manifest::add_artifact(&mut m, "alerts.txt", &out_path, obs::DigestMode::Lines);
    manifest::add_artifact(
        &mut m,
        "alerts.ndjson",
        &ndjson_path,
        obs::DigestMode::Lines,
    );
    manifest::write(m, manifest_path);
    std::process::exit(0);
}

/// The `--check` gate: the page rule is quiet pre-cut, goes pending at
/// the change point and fires, and the timeline is byte-identical
/// across thread counts and chunk sizes.
fn run_check(
    world: &World,
    trace: &Trace,
    opts: &StreamOptions,
    engine: &obs::AlertEngine,
    cut_window: i64,
) {
    let (text, ndjson) = (engine.render_text(), engine.render_ndjson());
    let rule = engine
        .rules()
        .iter()
        .position(|r| r.name == "blocked_share_drop")
        .expect("pack names blocked_share_drop");
    let events: Vec<_> = engine.events().iter().filter(|e| e.rule == rule).collect();
    if events.iter().any(|e| e.window_index < cut_window) {
        die(format!(
            "check failed: blocked_share_drop event before the cut-over \
             (window {cut_window}):\n{text}"
        ));
    }
    let pending = events
        .iter()
        .find(|e| e.kind == obs::AlertEventKind::Pending);
    // The CUSUM needs a few windows to accumulate past its noise-floor
    // threshold; "at the change point" means within its documented ramp,
    // not the literal first post-cut hour.
    match pending {
        Some(e) if e.window_index <= cut_window + 3 => {}
        Some(e) => {
            die(format!(
                "check failed: blocked_share_drop went pending at window {} \
                 but the cut-over was window {cut_window}:\n{text}",
                e.window_index
            ));
        }
        None => {
            die(format!(
                "check failed: blocked_share_drop never went pending:\n{text}"
            ));
        }
    }
    if !events.iter().any(|e| e.kind == obs::AlertEventKind::Firing) {
        die(format!(
            "check failed: blocked_share_drop never fired:\n{text}"
        ));
    }
    eprintln!(
        "[alerts] check: blocked_share_drop pending at window {}, fired — pre-period quiet",
        pending.expect("matched above").window_index
    );

    // Determinism sweep: the timeline must not depend on how the trace
    // was partitioned across workers or chunks.
    for (threads, chunk_records) in [(1, opts.chunk_records), (4, opts.chunk_records), (4, 97)] {
        let sweep = StreamOptions {
            threads,
            chunk_records,
            abp_ips: opts.abp_ips.clone(),
            alerts: opts.alerts.clone(),
            ..StreamOptions::default()
        };
        let rep = world.stream_trace(trace, &sweep);
        let eng = rep.alerts.as_ref().expect("rule pack was enabled");
        if eng.render_text() != text || eng.render_ndjson() != ndjson {
            die(format!(
                "check failed: timeline differs at threads={threads} \
                 chunk_records={chunk_records}"
            ));
        }
    }
    eprintln!("[alerts] check: timeline byte-identical across threads x chunk sizes");
}
