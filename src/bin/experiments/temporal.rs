//! `experiments temporal` — the per-hour-of-day ad-share table (the
//! paper's §5 temporal characterization, Figure-5 shape).
//!
//! With `--trace`, the NDJSON capture is streamed through the lossy
//! reader and classified against the same fixture rule set `explain`
//! uses, so the output is a pure function of the file bytes — which is
//! what lets the golden test pin it. Without `--trace`, the shared
//! world's RBN-1 capture is generated at the requested scale straight into
//! the stream engine and its windowed series are collapsed onto the
//! 24-hour clock.
//!
//! The table collapses the engine's windowed series
//! ([`adscope::window`]) onto the hour-of-day axis using the trace's
//! wall-clock `start_hour`; the stream's watermark is infinite so every
//! record lands in its window and the table is a complete census
//! (lateness is a live-scrape concern, not a batch-table one). A window is
//! filed under the hour it starts in, so `--width` must divide the hour.

use crate::cli::{die, Args};
use crate::manifest;
use crate::world::{Rbn, Scale, World};
use adscope::StreamOptions;
use std::path::PathBuf;

pub const USAGE: &str = "experiments temporal [--trace <file>] [--width SECS]
           [--scale small|medium|large] [--seed N] [--threads N]";

/// Entry point for the `temporal` subcommand. Exits the process.
pub fn run(args: &[String]) -> ! {
    let mut trace_arg: Option<PathBuf> = None;
    let mut width: f64 = 3600.0;
    let mut scale = Scale::Small;
    let mut seed: u64 = 0x5eed;
    let mut threads = parallel::available_parallelism();
    let mut a = Args::new("temporal", USAGE, args);
    while let Some(flag) = a.next() {
        match flag {
            "--trace" => trace_arg = Some(a.path(flag)),
            "--width" => width = a.bounded(flag, f64::MIN_POSITIVE..=f64::MAX),
            "--scale" => scale = a.parsed(flag),
            "--seed" => seed = a.parsed(flag),
            "--threads" => threads = a.bounded(flag, 1..),
            other => a.unknown(other),
        }
    }
    if (3600.0 / width).fract() != 0.0 {
        // A window wider than an hour, or one straddling the turn of one,
        // would be counted whole under the hour of its start.
        a.usage_error(&format!(
            "bad --width value {width}: a window must divide the hour"
        ));
    }

    let mut opts = StreamOptions {
        threads,
        ..StreamOptions::default()
    };
    opts.pipeline.window.width_secs = width;

    let mut filter_hash: Option<u64> = None;
    let report = match &trace_arg {
        Some(path) => {
            let classifier = crate::explain::fixture_classifier();
            let shown = path.display();
            let report = adscope::classify_stream_file(path, &classifier, &opts, obs::global())
                .unwrap_or_else(|e| die(format!("cannot read trace {shown}: {e}")));
            if report.codec.total_skipped() > 0 {
                let skipped = report.codec.total_skipped();
                eprintln!("[temporal] lossy read skipped {skipped} line(s) of {shown}");
            }
            report
        }
        None => {
            let world = World::new(scale, seed, threads);
            filter_hash = Some(manifest::filter_fnv(&world.eco));
            world.stream_rbn(Rbn::One, &opts, ()).0
        }
    };

    let table = render(&report.meta, &report.windows);
    print!("{table}");

    // Artifact + manifest. Stdout is golden-pinned, so everything below
    // goes to files and stderr only.
    let path = manifest::out_dir().join("temporal.txt");
    manifest::write_artifact(&path, &table);
    let mut m = manifest::stamp("temporal");
    m.config("width_secs", width);
    m.config("threads", threads);
    m.filter_fnv = filter_hash;
    let mut replay = vec!["temporal".to_string()];
    match &trace_arg {
        Some(p) => {
            m.config("trace", p.display());
            manifest::set_dataset(&mut m, p);
            replay.extend(["--trace".into(), p.display().to_string()]);
        }
        None => {
            m.config("scale", scale.as_str());
            m.config("seed", seed);
            replay.extend([
                "--scale".into(),
                scale.as_str().into(),
                "--seed".into(),
                seed.to_string(),
            ]);
        }
    }
    replay.extend(["--width".into(), width.to_string()]);
    m.replay = replay;
    manifest::add_artifact(&mut m, "temporal.txt", &path, obs::DigestMode::Exact);
    manifest::write(m, None);
    std::process::exit(0);
}

/// Render the deterministic per-hour table (golden-pinned).
fn render(meta: &netsim::record::TraceMeta, w: &obs::WindowReport) -> String {
    use std::fmt::Write;
    let start = meta.start_hour;
    let requests = w.hour_totals(start, "requests");
    let ads = w.hour_totals(start, "ads");
    let blocked_el = w.hour_totals(start, "blocked_easylist");
    let blocked_ep = w.hour_totals(start, "blocked_easyprivacy");
    let whitelisted = w.hour_totals(start, "whitelisted");
    let mut s = String::new();
    let _ = writeln!(
        s,
        "# Temporal ad share by hour of day — trace {:?}, start hour {}, {} windows",
        meta.name,
        start,
        w.windows.len()
    );
    let _ = writeln!(
        s,
        "{:>4}  {:>9}  {:>9}  {:>12}  {:>9}  {:>11}",
        "hour", "requests", "ads", "ad_share_pct", "blocked", "whitelisted"
    );
    for h in 0..24 {
        let share = if requests[h] > 0 {
            format!("{:.1}", 100.0 * ads[h] as f64 / requests[h] as f64)
        } else {
            "-".to_string()
        };
        let _ = writeln!(
            s,
            "{:>4}  {:>9}  {:>9}  {:>12}  {:>9}  {:>11}",
            format!("{h:02}"),
            requests[h],
            ads[h],
            share,
            blocked_el[h] + blocked_ep[h],
            whitelisted[h]
        );
    }
    let total_req: u64 = requests.iter().sum();
    let total_ads: u64 = ads.iter().sum();
    let total_share = if total_req > 0 {
        format!("{:.1}", 100.0 * total_ads as f64 / total_req as f64)
    } else {
        "-".to_string()
    };
    let _ = writeln!(
        s,
        "{:>4}  {:>9}  {:>9}  {:>12}  {:>9}  {:>11}",
        "all",
        total_req,
        total_ads,
        total_share,
        blocked_el.iter().sum::<u64>() + blocked_ep.iter().sum::<u64>(),
        whitelisted.iter().sum::<u64>()
    );
    s
}
