//! `experiments alerts` — the filter-list-lag drill: drive the built-in
//! alert rule pack over a capture with an injected change point.
//!
//! The capture is two generated ones chained into the stream engine, one
//! drive nested in the other so that neither is ever held:
//!
//! 1. **Pre** — the plain RBN-1 world: the subscription's filter lists
//!    cover the ad networks actually serving, so the blocked share sits
//!    at its steady level.
//! 2. **Post** — the same world after [`webgen::Ecosystem::evolve_list_lag`]
//!    rotated the heaviest ad networks onto sibling domains the stale
//!    host-anchored rules no longer match. Its timestamps are shifted by
//!    the pre-capture duration as its slices pass, so the cut-over lands
//!    at a known window boundary.
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
//! the rendered timeline is byte-identical when both captures are
//! generated again and streamed on one thread and on four.

use crate::cli::{die, Args};
use crate::manifest;
use crate::world::{Rbn, Scale, World};
use adscope::stream::classify_stream_chunks;
use adscope::{StreamOptions, StreamReport};
use annoyed_users::prelude::*;
use browsersim::drive::drive_pull;
use netsim::record::TraceRecord;
use netsim::stream::SliceChunks;
use std::path::PathBuf;

pub const USAGE: &str = "experiments alerts [--scale small|medium|large] [--seed N] [--threads N]
           [--delist N] [--out PATH] [--ndjson PATH] [--manifest PATH] [--check]";

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

    let (report, cut_window) = stream_lag(&world, &evolved, &opts);
    let engine = report.alerts.as_ref().expect("rule pack was enabled");
    let text = engine.render_text();
    let ndjson = engine.render_ndjson();
    println!("{text}");

    if check {
        run_check(&world, &evolved, &opts, engine, cut_window);
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

    if let Some(bytes) = obs::peak_rss_bytes() {
        eprintln!("[alerts] peak_rss_bytes={bytes}");
    }
    std::process::exit(0);
}

/// Stream the lag capture: RBN-1 over this world's ecosystem, then RBN-1
/// over `evolved` shifted by the first's duration, its drive nested in the
/// first's and its slices chained after them, so no capture is held.
/// Returns the report and the cut-over window.
fn stream_lag(world: &World, evolved: &Ecosystem, opts: &StreamOptions) -> (StreamReport, i64) {
    let (config, mut pre_pop) = world.rbn_setup(&world.eco, Rbn::One);
    let (_, mut post_pop) = world.rbn_setup(evolved, Rbn::One);
    let cut_secs = config.duration_secs;
    let cut_window = (cut_secs / opts.pipeline.window.width_secs) as i64;
    let mut meta = config.meta(pre_pop.households);
    meta.name = "RBN-LAG".to_string();
    meta.duration_secs = cut_secs * 2.0;
    let profile = ActivityProfile::default();
    let (_, (_, classified)) = drive_pull(&world.eco, &mut pre_pop, &profile, &config, |pre| {
        drive_pull(evolved, &mut post_pop, &profile, &config, |post| {
            let post = post.map(|mut slice| {
                for r in &mut slice {
                    match r {
                        TraceRecord::Http(t) => t.ts += cut_secs,
                        TraceRecord::Https(c) => c.ts += cut_secs,
                    }
                }
                slice
            });
            let chunks = SliceChunks(pre.chain(post));
            classify_stream_chunks(chunks, meta, &world.classifier, opts, obs::global(), ())
        })
    });
    let (report, ()) = classified.unwrap_or_else(|e| die(format!("stream failed: {e}")));
    eprintln!(
        "[alerts] {} requests, cut-over at window {cut_window}",
        report.requests
    );
    (report, cut_window)
}

/// The `--check` gate: the page rule is quiet pre-cut, goes pending at
/// the change point and fires, and the timeline is byte-identical when
/// the lag capture is generated and streamed again at other thread counts.
fn run_check(
    world: &World,
    evolved: &Ecosystem,
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
        .find(|e| e.kind == obs::AlertEventKind::Pending)
        .map(|e| e.window_index);
    // The CUSUM needs a few windows to accumulate past its noise-floor
    // threshold; "at the change point" means within its documented ramp,
    // not the literal first post-cut hour.
    match pending {
        Some(w) if w <= cut_window + 3 => {}
        Some(w) => die(format!(
            "check failed: blocked_share_drop went pending at window {w} \
             but the cut-over was window {cut_window}:\n{text}"
        )),
        None => die(format!(
            "check failed: blocked_share_drop never went pending:\n{text}"
        )),
    }
    if !events.iter().any(|e| e.kind == obs::AlertEventKind::Firing) {
        die(format!(
            "check failed: blocked_share_drop never fired:\n{text}"
        ));
    }
    eprintln!(
        "[alerts] check: blocked_share_drop pending at window {}, fired — pre-period quiet",
        pending.expect("matched above")
    );

    // Determinism sweep: each leg drives both captures again (the generator
    // is deterministic), and the timeline must not depend on how the
    // records were partitioned across workers. A generated source is
    // chunked by slice; `alerts_equivalence` sweeps chunk sizes.
    for threads in [1, 4] {
        let sweep = StreamOptions {
            threads,
            ..opts.clone()
        };
        let (rep, _) = stream_lag(world, evolved, &sweep);
        let eng = rep.alerts.as_ref().expect("rule pack was enabled");
        if eng.render_text() != text || eng.render_ndjson() != ndjson {
            die(format!(
                "check failed: timeline differs at threads={threads}"
            ));
        }
    }
    eprintln!("[alerts] check: timeline byte-identical across threads 1 and 4");
}
