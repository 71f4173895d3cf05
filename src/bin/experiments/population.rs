//! `experiments population` — streaming population analytics over an
//! RBN-1-scale run.
//!
//! Generates the RBN-1 trace, stream-classifies it with population
//! sketches enabled (the trace is chunked through the same scatter-merge
//! dataflow `experiments stream` uses), and renders the paper-style
//! population tables — Table 3 class tallies, top ad-serving domains,
//! top fired rules, and the per-user/object distributions — exactly as
//! `/population` serves them live.
//!
//! `--exact-check` is the determinism-and-accuracy gate: it re-runs the
//! *materialized* pipeline over the identical records, builds the same
//! report through [`adscope::population::finish_trace`], and requires
//!
//! * the streamed render to be **byte-identical** to the materialized
//!   one (top-K rankings, class counts, every line), and
//! * every sketch quantile to sit within the sketch's documented
//!   relative-error bound of the exact `stats::percentile` over the
//!   materialized values.
//!
//! Artifacts (`population.txt`, `population.ndjson`) are stamped into a
//! run manifest in unordered-lines digest mode with a replay argv, so
//! `experiments verify --manifest` covers them like every other run.

use crate::cli::{die, Args};
use crate::manifest;
use crate::world::{Rbn, Scale, World};
use adscope::population::{finish_trace, PopulationReport, TOPK_CAPACITY};
use adscope::users::aggregate_users;
use adscope::{PassiveClassifier, StreamOptions};
use netsim::record::Trace;
use std::path::PathBuf;

pub const USAGE: &str =
    "experiments population [--scale small|medium|large] [--seed N] [--threads N]
           [--chunk-records N] [--out PATH] [--ndjson PATH] [--manifest PATH]
           [--exact-check]";

/// Entry point for the `population` subcommand. Exits the process.
pub fn run(args: &[String]) -> ! {
    let mut scale = Scale::Small;
    let mut seed: u64 = 0x5eed;
    let mut out_path: Option<PathBuf> = None;
    let mut ndjson_path: Option<PathBuf> = None;
    let mut manifest_path: Option<PathBuf> = None;
    let mut exact_check = false;
    let mut opts = StreamOptions::default();
    opts.pipeline.population.enabled = true;
    let mut a = Args::new("population", USAGE, args);
    while let Some(flag) = a.next() {
        match flag {
            "--scale" => scale = a.parsed(flag),
            "--seed" => seed = a.parsed(flag),
            "--threads" => opts.threads = a.bounded(flag, 1..),
            "--chunk-records" => opts.chunk_records = a.bounded(flag, 1..),
            "--out" => out_path = Some(a.path(flag)),
            "--ndjson" => ndjson_path = Some(a.path(flag)),
            "--manifest" => manifest_path = Some(a.path(flag)),
            "--exact-check" => exact_check = true,
            other => a.unknown(other),
        }
    }

    // Same world as `experiments stream`: scale + seed reproduce the
    // filter lists, the ABP download hosts, and the trace.
    let world = World::new(scale, seed, opts.threads);
    opts.abp_ips = world.eco.abp_ips.clone();

    let mut m = manifest::stamp_world("population", &world);
    m.config("chunk_records", opts.chunk_records);
    manifest::publish_header(&m);

    // Generate RBN-1 once, materialized, so the streamed run and the
    // exact-check both consume the identical records.
    let trace = world.generate(&world.eco, Rbn::One).0.trace;

    // Streamed run: the trace chunked through the scatter-merge dataflow
    // (the same router + shard workers as `experiments stream`).
    let report = world.stream_trace(&trace, &opts);
    let streamed = report.population.expect("population sketches were enabled");
    let text = streamed.render();
    let ndjson = streamed.render_ndjson();
    println!("{text}");

    if exact_check {
        run_exact_check(&trace, &world.classifier, &opts, &streamed, &text);
    }

    // Artifacts + manifest (lines digest mode; `experiments verify`
    // replays the argv below and re-checks both).
    let dir = manifest::out_dir();
    let out_path = out_path.unwrap_or_else(|| dir.join("population.txt"));
    let ndjson_path = ndjson_path.unwrap_or_else(|| dir.join("population.ndjson"));
    manifest::write_artifact(&out_path, &text);
    manifest::write_artifact(&ndjson_path, &ndjson);
    eprintln!(
        "[population] report written to {} (+ {})",
        out_path.display(),
        ndjson_path.display()
    );
    m.replay = vec![
        "population".to_string(),
        "--scale".into(),
        scale.as_str().into(),
        "--seed".into(),
        seed.to_string(),
        "--chunk-records".into(),
        opts.chunk_records.to_string(),
        "--out".into(),
        out_path.display().to_string(),
        "--ndjson".into(),
        ndjson_path.display().to_string(),
    ];
    manifest::add_artifact(&mut m, "population.txt", &out_path, obs::DigestMode::Lines);
    manifest::add_artifact(
        &mut m,
        "population.ndjson",
        &ndjson_path,
        obs::DigestMode::Lines,
    );
    manifest::write(m, manifest_path);

    if let Some(bytes) = obs::peak_rss_bytes() {
        eprintln!("[population] peak_rss_bytes={bytes}");
    }
    std::process::exit(0);
}

/// The `--exact-check` gate: byte-identical renders between the streamed
/// and materialized paths, and sketch quantiles within the documented
/// relative-error bound of exact percentiles.
fn run_exact_check(
    trace: &Trace,
    classifier: &PassiveClassifier,
    opts: &StreamOptions,
    streamed: &PopulationReport,
    streamed_text: &str,
) {
    let popts = opts.pipeline;
    let classified = adscope::pipeline::classify_trace(trace, classifier, popts);
    let exact_text = finish_trace(&classified, &opts.abp_ips, popts.population).render();
    if streamed_text != exact_text {
        eprintln!("error: exact-check failed: streamed render differs from materialized render");
        diff_first_line(streamed_text, &exact_text);
        std::process::exit(1);
    }
    if !streamed.exact_topk {
        die(format!(
            "exact-check failed: top-K sketches left the exact regime \
             (capacity {TOPK_CAPACITY}) — rankings are not partition-invariant"
        ));
    }

    // Quantile accuracy against the exact order statistics. The gamma
    // bucket bound guarantees alpha relative error on every non-zero
    // order statistic; interpolation between two bounded statistics
    // stays within the same bound (plus float noise).
    let alpha = streamed.quantile_alpha + 1e-9;
    let mut ad_share: Vec<f64> = Vec::new();
    for u in aggregate_users(&classified) {
        if u.is_browser() && u.is_active(popts.population.active_min_requests) {
            ad_share.push(u.ad_ratio_pct());
        }
    }
    let mut object_bytes: Vec<f64> = Vec::new();
    let mut rtb: Vec<f64> = Vec::new();
    for r in &classified.requests {
        if r.label.is_ad() {
            object_bytes.push(r.bytes as f64);
            rtb.push(r.backend_gap_ms());
        }
    }
    type Series<'a> = (&'a str, &'a [f64], &'a [(f64, f64)]);
    let series: [Series; 3] = [
        ("ad_share_pct", &ad_share, &streamed.ad_share_pct),
        ("object_bytes", &object_bytes, &streamed.object_bytes),
        ("rtb_gap_ms", &rtb, &streamed.rtb_gap_ms),
    ];
    let mut checked = 0u32;
    for (name, values, sketched) in series {
        for &(q, est) in sketched {
            let truth = stats::percentile(values, q);
            if truth.is_nan() {
                continue;
            }
            // Values the sketch maps to the zero bucket (x <= 0) are
            // estimated as exactly 0; the relative bound applies to the
            // positive range.
            let tolerance = alpha * truth.abs().max(f64::MIN_POSITIVE);
            if (est - truth).abs() > tolerance && truth > 0.0 {
                die(format!(
                    "exact-check failed: {name} p{q:.0} estimate {est} is outside \
                     the alpha={alpha:.4} bound of exact {truth}"
                ));
            }
            checked += 1;
        }
    }
    eprintln!(
        "[population] exact-check ok: renders byte-identical, {checked} quantiles within \
         alpha={:.4}",
        streamed.quantile_alpha
    );
}

fn diff_first_line(a: &str, b: &str) {
    for (i, (la, lb)) in a.lines().zip(b.lines()).enumerate() {
        if la != lb {
            eprintln!("  first differing line {}:", i + 1);
            eprintln!("    streamed:     {la}");
            eprintln!("    materialized: {lb}");
            return;
        }
    }
    eprintln!(
        "  one render is a prefix of the other ({} vs {} bytes)",
        a.len(),
        b.len()
    );
}
