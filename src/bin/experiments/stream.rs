//! `experiments stream` — the fault-tolerant streaming pipeline driver.
//!
//! Three source modes:
//!
//! * `--trace PATH` — stream-classify an existing trace file in bounded
//!   memory. The only mode supporting `--checkpoint-dir`/`--resume`
//!   (checkpoints record byte offsets into the file).
//! * `--rbn1`/`--rbn2 --write-trace PATH` — *generate* the RBN trace
//!   slice-by-slice straight to disk (never materializing it), then
//!   stream-classify the file. Checkpointing works here too.
//! * `--rbn1`/`--rbn2` alone — wire the generator to the classifier
//!   through a bounded channel (`World::stream_rbn`): records flow
//!   generator → router → shard workers with no file and no full-trace
//!   buffer anywhere.
//!
//! Every run stamps a run manifest (default `<report>.manifest.json`
//! next to the report, or `stream.manifest.json` under the experiments
//! dir): config identity, filter-list hash, dataset hash, and a digest
//! for each artifact. The manifest's replay argv deliberately excludes
//! `--resume`/`--checkpoint-dir`, so `experiments verify` on a resumed
//! run's manifest replays an *uninterrupted* run and proves the reports
//! byte-identical — the fault-tolerance contract.
//!
//! With `--serve-port`, the obs endpoint serves `/metrics`, `/statusz`
//! and `/healthz` live during the run (`--serve-linger` keeps it up
//! after the run until `GET /quitz`, for CI polling). `--watchdog-ms`
//! arms the stall watchdog; a `--throttle-ms` above it makes every chunk
//! a stall, which is how CI tests it.
//!
//! The final report is printed to stdout; `--report PATH` additionally
//! writes the deterministic [`adscope::StreamReport::render`] form,
//! which a kill-and-resume run reproduces byte-identically (CI asserts
//! exactly that). Peak RSS goes to stderr for the CI memory ceiling.

use crate::cli::{die, Args};
use crate::manifest;
use crate::world::{Rbn, Scale, World};
use adscope::stream::{classify_stream_file, CHECKPOINT_FILE};
use adscope::{CheckpointOptions, StreamOptions};
use annoyed_users::prelude::*;
use browsersim::drive::drive_stream;
use netsim::stream::TraceWriter;
use std::path::PathBuf;
use std::time::Duration;

pub const USAGE: &str = "experiments stream --trace PATH | --rbn1 | --rbn2 [--write-trace PATH]
           [--chunk-records N] [--checkpoint-dir D] [--checkpoint-every N] [--resume]
           [--quarantine PATH] [--report PATH] [--windows PATH] [--manifest PATH]
           [--throttle-ms N] [--stop-after-chunks N] [--serve-port N]
           [--serve-port-file PATH] [--serve-linger] [--watchdog-ms N] [--population]
           [--scale small|medium|large] [--seed N] [--threads N]";

enum Source {
    TraceFile(PathBuf),
    Rbn(Rbn),
}

/// Entry point for the `stream` subcommand. Exits the process.
pub fn run(args: &[String]) -> ! {
    let mut source: Option<Source> = None;
    let mut write_trace: Option<PathBuf> = None;
    let mut checkpoint_dir: Option<PathBuf> = None;
    let mut checkpoint_every: u64 = 64;
    let mut resume = false;
    let mut report_path: Option<PathBuf> = None;
    let mut windows_path: Option<PathBuf> = None;
    let mut manifest_path: Option<PathBuf> = None;
    let mut serve_port: Option<u16> = None;
    let mut serve_port_file: Option<PathBuf> = None;
    let mut serve_linger = false;
    let mut watchdog_ms: u64 = 0;
    let mut scale = Scale::Small;
    let mut seed: u64 = 0x5eed;
    let mut population = false;
    let mut opts = StreamOptions::default();
    let mut a = Args::new("stream", USAGE, args);
    while let Some(flag) = a.next() {
        match flag {
            "--trace" => source = Some(Source::TraceFile(a.path(flag))),
            "--rbn1" => source = Some(Source::Rbn(Rbn::One)),
            "--rbn2" => source = Some(Source::Rbn(Rbn::Two)),
            "--write-trace" => write_trace = Some(a.path(flag)),
            "--checkpoint-dir" => checkpoint_dir = Some(a.path(flag)),
            "--checkpoint-every" => checkpoint_every = a.bounded(flag, 1..),
            "--resume" => resume = true,
            "--population" => population = true,
            "--quarantine" => opts.quarantine_path = Some(a.path(flag)),
            "--report" => report_path = Some(a.path(flag)),
            "--windows" => windows_path = Some(a.path(flag)),
            "--manifest" => manifest_path = Some(a.path(flag)),
            "--serve-port" => serve_port = Some(a.parsed(flag)),
            "--serve-port-file" => serve_port_file = Some(a.path(flag)),
            "--serve-linger" => serve_linger = true,
            "--watchdog-ms" => watchdog_ms = a.bounded(flag, 1..),
            "--chunk-records" => opts.chunk_records = a.bounded(flag, 1..),
            "--throttle-ms" => opts.throttle_ms = a.parsed(flag),
            "--stop-after-chunks" => opts.stop_after_chunks = Some(a.bounded(flag, 1..)),
            "--scale" => scale = a.parsed(flag),
            "--seed" => seed = a.parsed(flag),
            "--threads" => opts.threads = a.bounded(flag, 1..),
            other => a.unknown(other),
        }
    }
    let Some(source) = source else {
        a.usage_error("stream requires a source: --trace PATH, --rbn1, or --rbn2");
    };
    if let Some(dir) = checkpoint_dir.clone() {
        opts.checkpoint = Some(CheckpointOptions {
            dir,
            every_chunks: checkpoint_every,
            resume,
        });
    } else if resume {
        a.usage_error("--resume requires --checkpoint-dir");
    }
    if opts.checkpoint.is_some() && write_trace.is_none() && matches!(source, Source::Rbn(_)) {
        // Checkpoints record byte offsets into a file.
        a.usage_error("checkpointing requires a trace file; add --write-trace PATH");
    }

    // The classifier is derived from the generated ecosystem's filter
    // lists, exactly as the materialized experiments build it — the same
    // scale and seed reproduce the same lists, so a trace written by one
    // invocation classifies identically in another.
    let world = World::new(scale, seed, opts.threads);
    let (eco, classifier) = (&world.eco, &world.classifier);
    if population {
        // Population sketches ride the scatter-merge dataflow; the ABP
        // server addresses feed the household-download indicator, and
        // every checkpoint barrier republishes the live `/population`
        // plane.
        opts.pipeline.population.enabled = true;
        opts.abp_ips = eco.abp_ips.clone();
    }
    let registry = obs::global();

    // The manifest skeleton is built before the run so /statusz can show
    // the run's config identity from the first scrape.
    let mut m = manifest::stamp_world("stream", &world);
    let source_name = match &source {
        Source::TraceFile(p) => format!("trace:{}", p.display()),
        Source::Rbn(Rbn::One) => "rbn1".to_string(),
        Source::Rbn(Rbn::Two) => "rbn2".to_string(),
    };
    m.config("source", &source_name);
    m.config("chunk_records", opts.chunk_records);
    manifest::publish_header(&m);

    // Live health plane: the obs endpoint during (and optionally after)
    // the run, plus the stall watchdog.
    let serve_handle = serve_port.map(|port| crate::serve::bind(port, serve_port_file.as_deref()));
    let _watchdog = (watchdog_ms > 0).then(|| {
        obs::spawn_watchdog(registry, Duration::from_millis(watchdog_ms))
            .unwrap_or_else(|e| die(format!("cannot spawn watchdog: {e}")))
    });

    let report = match &source {
        Source::TraceFile(path) => {
            eprintln!("[stream] classifying {} in streaming mode", path.display());
            classify_stream_file(path, classifier, &opts, registry)
        }
        Source::Rbn(which) => match &write_trace {
            Some(path) => {
                // Generate straight to disk, slice by slice, then
                // stream-classify the file (checkpointable).
                let (config, mut pop) = world.rbn_setup(eco, *which);
                let meta = config.meta(pop.households);
                eprintln!(
                    "[stream] generating {} to {} ({} households)",
                    config.name,
                    path.display(),
                    pop.households
                );
                let file = std::fs::File::create(path)
                    .unwrap_or_else(|e| die(format!("cannot create trace file: {e}")));
                let mut writer = TraceWriter::new(std::io::BufWriter::new(file), &meta)
                    .unwrap_or_else(|e| die(format!("trace header write: {e}")));
                let mut write_err = None;
                drive_stream(
                    eco,
                    &mut pop,
                    &ActivityProfile::default(),
                    &config,
                    |batch| {
                        if write_err.is_some() {
                            return;
                        }
                        for r in &batch {
                            if let Err(e) = writer.write_record(r) {
                                write_err = Some(e);
                                break;
                            }
                        }
                    },
                );
                if let Some(e) = write_err {
                    die(format!("trace write failed: {e}"));
                }
                let (records, bytes) = writer
                    .finish()
                    .unwrap_or_else(|e| die(format!("trace finish failed: {e}")));
                eprintln!("[stream] wrote {records} records ({bytes} bytes)");
                classify_stream_file(path, classifier, &opts, registry)
            }
            // No file anywhere: the generator feeds the classifier.
            None => Ok(world.stream_rbn(*which, &opts, ()).0),
        },
    };
    let report = report.unwrap_or_else(|e| die(e));

    let rendered = report.render();
    println!("{rendered}");
    if report.stopped_early {
        eprintln!(
            "[stream] stopped early after --stop-after-chunks (checkpoints written: {})",
            report.checkpoints_written
        );
    }
    if let Some(off) = report.resumed_from {
        eprintln!("[stream] resumed from byte offset {off}");
    }
    if let Some(path) = &report_path {
        manifest::write_artifact(path, &rendered);
        eprintln!("[stream] report written to {}", path.display());
    }
    if let Some(path) = &windows_path {
        // Both windowed series, cumulative across resumes, so a resumed
        // run's windows NDJSON is byte-identical to an uninterrupted
        // run's (same property CI asserts for the report).
        let mut nd = report.windows.render_ndjson("adscope");
        nd.push_str(&report.decode_windows.render_ndjson("decode"));
        manifest::write_artifact(path, &nd);
        eprintln!("[stream] windows written to {}", path.display());
    }

    // Stamp the run manifest: dataset identity, replay argv, artifact
    // digests. A run stopped early by --stop-after-chunks is partial —
    // its artifacts get digests (drift detection) but no replay argv.
    if let Source::TraceFile(p) = &source {
        manifest::set_dataset(&mut m, p);
    }
    if !report.stopped_early {
        let mut replay = vec!["stream".to_string()];
        match &source {
            Source::TraceFile(p) => replay.extend(["--trace".into(), p.display().to_string()]),
            Source::Rbn(Rbn::One) => replay.push("--rbn1".into()),
            Source::Rbn(Rbn::Two) => replay.push("--rbn2".into()),
        }
        if let Some(p) = &write_trace {
            replay.extend(["--write-trace".into(), p.display().to_string()]);
        }
        replay.extend([
            "--scale".into(),
            scale.as_str().into(),
            "--seed".into(),
            seed.to_string(),
            "--chunk-records".into(),
            opts.chunk_records.to_string(),
        ]);
        if population {
            // Affects the rendered report (population section), so the
            // replay must carry it.
            replay.push("--population".into());
        }
        if let Some(p) = &opts.quarantine_path {
            replay.extend(["--quarantine".into(), p.display().to_string()]);
        }
        if let Some(p) = &report_path {
            replay.extend(["--report".into(), p.display().to_string()]);
        }
        if let Some(p) = &windows_path {
            replay.extend(["--windows".into(), p.display().to_string()]);
        }
        // Deliberately excluded: --resume/--checkpoint-dir (so a resumed
        // run's manifest replays uninterrupted), --throttle-ms/
        // --serve-* (timing-only), --threads (results thread-invariant).
        m.replay = replay;
    }
    if let Some(p) = &report_path {
        manifest::add_artifact(&mut m, "report", p, obs::DigestMode::Exact);
    }
    if let Some(p) = &windows_path {
        manifest::add_artifact(&mut m, "windows", p, obs::DigestMode::Exact);
    }
    if let Some(p) = &write_trace {
        manifest::add_artifact(&mut m, "trace", p, obs::DigestMode::Exact);
    }
    if let Some(p) = &opts.quarantine_path {
        // Line order across workers is nondeterministic; the digest is
        // the unordered-lines mode.
        if p.exists() {
            manifest::add_artifact(&mut m, "quarantine", p, obs::DigestMode::Lines);
        }
    }
    if let Some(dir) = &checkpoint_dir {
        let ck = dir.join(CHECKPOINT_FILE);
        if ck.exists() {
            manifest::add_artifact(&mut m, "checkpoint", &ck, obs::DigestMode::Recorded);
        }
    }
    let beside_report =
        report_path.map(|r| PathBuf::from(format!("{}.manifest.json", r.display())));
    manifest::write(m, manifest_path.or(beside_report));

    // Machine-parseable for the CI memory ceiling.
    if let Some(bytes) = obs::peak_rss_bytes() {
        eprintln!("[stream] peak_rss_bytes={bytes}");
    }
    if let Some(handle) = serve_handle {
        if serve_linger {
            eprintln!("[stream] lingering; GET /quitz to stop");
            while !handle.shutdown_requested() {
                std::thread::sleep(Duration::from_millis(50));
            }
        }
        handle.join();
    }
    std::process::exit(0);
}
