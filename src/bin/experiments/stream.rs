//! `experiments stream` — the fault-tolerant streaming pipeline driver.
//!
//! ```text
//! experiments stream --trace PATH [--checkpoint-dir D [--checkpoint-every N] [--resume]]
//! experiments stream --rbn1|--rbn2 [--write-trace PATH] [--scale ...] [--seed N]
//! common: [--chunk-records N] [--threads N] [--quarantine PATH] [--report PATH]
//!         [--windows PATH] [--manifest PATH] [--throttle-ms N] [--stop-after-chunks N]
//!         [--population]
//! health: [--serve-port N] [--serve-port-file PATH] [--serve-linger]
//!         [--watchdog-ms N] [--stall-after-chunks N] [--stall-ms N]
//! ```
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
//!   through a bounded channel: records flow generator → router →
//!   shard workers with no file and no full-trace buffer anywhere.
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
//! arms the stall watchdog; `--stall-after-chunks`/`--stall-ms` inject
//! one deterministic router stall to test it.
//!
//! The final report is printed to stdout; `--report PATH` additionally
//! writes the deterministic [`adscope::StreamReport::render`] form,
//! which a kill-and-resume run reproduces byte-identically (CI asserts
//! exactly that). Peak RSS goes to stderr for the CI memory ceiling.

use crate::world::Scale;
use adscope::stream::{classify_stream_chunks, classify_stream_file, CHECKPOINT_FILE};
use adscope::{CheckpointOptions, PassiveClassifier, StreamOptions};
use annoyed_users::prelude::*;
use browsersim::drive::drive_stream;
use netsim::codec::CodecStats;
use netsim::record::TraceMeta;
use netsim::stream::{StreamChunk, TraceWriter};
use std::path::PathBuf;
use std::time::Duration;

enum Source {
    TraceFile(PathBuf),
    Rbn1,
    Rbn2,
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
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--trace" => {
                i += 1;
                let p = args.get(i).unwrap_or_else(|| fail("missing --trace path"));
                source = Some(Source::TraceFile(PathBuf::from(p)));
            }
            "--rbn1" => source = Some(Source::Rbn1),
            "--rbn2" => source = Some(Source::Rbn2),
            "--write-trace" => {
                i += 1;
                let p = args
                    .get(i)
                    .unwrap_or_else(|| fail("missing --write-trace path"));
                write_trace = Some(PathBuf::from(p));
            }
            "--checkpoint-dir" => {
                i += 1;
                let p = args
                    .get(i)
                    .unwrap_or_else(|| fail("missing --checkpoint-dir path"));
                checkpoint_dir = Some(PathBuf::from(p));
            }
            "--checkpoint-every" => {
                i += 1;
                checkpoint_every = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| fail("bad --checkpoint-every value"));
            }
            "--resume" => resume = true,
            "--population" => population = true,
            "--quarantine" => {
                i += 1;
                let p = args
                    .get(i)
                    .unwrap_or_else(|| fail("missing --quarantine path"));
                opts.quarantine_path = Some(PathBuf::from(p));
            }
            "--report" => {
                i += 1;
                let p = args.get(i).unwrap_or_else(|| fail("missing --report path"));
                report_path = Some(PathBuf::from(p));
            }
            "--windows" => {
                i += 1;
                let p = args
                    .get(i)
                    .unwrap_or_else(|| fail("missing --windows path"));
                windows_path = Some(PathBuf::from(p));
            }
            "--manifest" => {
                i += 1;
                let p = args
                    .get(i)
                    .unwrap_or_else(|| fail("missing --manifest path"));
                manifest_path = Some(PathBuf::from(p));
            }
            "--serve-port" => {
                i += 1;
                serve_port = Some(
                    args.get(i)
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| fail("bad --serve-port value")),
                );
            }
            "--serve-port-file" => {
                i += 1;
                let p = args
                    .get(i)
                    .unwrap_or_else(|| fail("missing --serve-port-file path"));
                serve_port_file = Some(PathBuf::from(p));
            }
            "--serve-linger" => serve_linger = true,
            "--watchdog-ms" => {
                i += 1;
                watchdog_ms = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| fail("bad --watchdog-ms value"));
            }
            "--stall-after-chunks" => {
                i += 1;
                opts.stall_after_chunks = Some(
                    args.get(i)
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| fail("bad --stall-after-chunks value")),
                );
            }
            "--stall-ms" => {
                i += 1;
                opts.stall_ms = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| fail("bad --stall-ms value"));
            }
            "--chunk-records" => {
                i += 1;
                opts.chunk_records = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| fail("bad --chunk-records value"));
            }
            "--throttle-ms" => {
                i += 1;
                opts.throttle_ms = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| fail("bad --throttle-ms value"));
            }
            "--stop-after-chunks" => {
                i += 1;
                opts.stop_after_chunks = Some(
                    args.get(i)
                        .and_then(|s| s.parse().ok())
                        .filter(|&n| n >= 1)
                        .unwrap_or_else(|| fail("bad --stop-after-chunks value")),
                );
            }
            "--scale" => {
                i += 1;
                scale = args
                    .get(i)
                    .and_then(|s| Scale::parse(s))
                    .unwrap_or_else(|| fail("bad --scale value"));
            }
            "--seed" => {
                i += 1;
                seed = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| fail("bad --seed value"));
            }
            "--threads" => {
                i += 1;
                opts.threads = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| fail("bad --threads value"));
            }
            other => fail(&format!("unknown stream argument {other:?}")),
        }
        i += 1;
    }
    let Some(source) = source else {
        fail("stream requires a source: --trace PATH, --rbn1, or --rbn2");
    };
    if let Some(dir) = checkpoint_dir.clone() {
        opts.checkpoint = Some(CheckpointOptions {
            dir,
            every_chunks: checkpoint_every,
            resume,
        });
    } else if resume {
        fail("--resume requires --checkpoint-dir");
    }

    // The classifier is derived from the generated ecosystem's filter
    // lists, exactly as the materialized experiments build it — the same
    // scale and seed reproduce the same lists, so a trace written by one
    // invocation classifies identically in another.
    let (publishers, ad_companies, trackers, ..) = scale.knobs();
    let eco = Ecosystem::generate(EcosystemConfig {
        publishers,
        ad_companies,
        trackers,
        seed,
        ..Default::default()
    });
    let classifier = PassiveClassifier::new(vec![
        eco.lists.easylist(),
        eco.lists.regional(),
        eco.lists.easyprivacy(),
        eco.lists.acceptable(),
    ]);
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
    let mut m = crate::manifest::stamp("stream");
    let source_name = match &source {
        Source::TraceFile(p) => format!("trace:{}", p.display()),
        Source::Rbn1 => "rbn1".to_string(),
        Source::Rbn2 => "rbn2".to_string(),
    };
    m.config("source", &source_name);
    m.config("scale", scale.as_str());
    m.config("seed", seed);
    m.config("chunk_records", opts.chunk_records);
    m.config("threads", opts.threads);
    m.filter_fnv = Some(crate::manifest::filter_fnv(&eco));
    registry
        .health()
        .set_header(format!("stream config_fnv={:016x}", m.config_fnv()));

    // Live health plane: the obs endpoint during (and optionally after)
    // the run, plus the stall watchdog.
    let serve_handle = serve_port.map(|port| {
        let handle = obs::serve(registry, port)
            .unwrap_or_else(|e| fail(&format!("cannot bind 127.0.0.1:{port}: {e}")));
        eprintln!("[stream] serving health plane on http://{}", handle.addr());
        if let Some(path) = &serve_port_file {
            // Written atomically so a poller never reads a half-written
            // port number.
            let port_line = format!("{}\n", handle.port());
            if let Err(e) = obs::atomic_write(path, port_line.as_bytes()) {
                fail(&format!("cannot write port file {}: {e}", path.display()));
            }
        }
        handle
    });
    let _watchdog = (watchdog_ms > 0).then(|| {
        obs::spawn_watchdog(registry, Duration::from_millis(watchdog_ms))
            .unwrap_or_else(|e| fail(&format!("cannot spawn watchdog: {e}")))
    });

    let report = match &source {
        Source::TraceFile(path) => {
            eprintln!("[stream] classifying {} in streaming mode", path.display());
            classify_stream_file(path, &classifier, &opts, registry)
        }
        rbn => {
            let (.., rbn2_households, rbn2_hours, rbn1_households, rbn1_days) = scale.knobs();
            let (config, households, pop_seed) = match rbn {
                Source::Rbn1 => (DriveConfig::rbn1(rbn1_days), rbn1_households, 0xB51),
                _ => (DriveConfig::rbn2(rbn2_hours), rbn2_households, 0xB52),
            };
            let mut pop = Population::generate(
                &eco,
                &PopulationConfig {
                    households,
                    seed: pop_seed,
                    ..Default::default()
                },
            );
            match &write_trace {
                Some(path) => {
                    // Generate straight to disk, slice by slice, then
                    // stream-classify the file (checkpointable).
                    eprintln!(
                        "[stream] generating {} to {} ({} households)",
                        config.name,
                        path.display(),
                        households
                    );
                    let meta = TraceMeta {
                        name: config.name.clone(),
                        duration_secs: config.duration_secs,
                        subscribers: households,
                        start_hour: config.start_hour,
                        start_weekday: config.start_weekday,
                    };
                    let file = std::fs::File::create(path)
                        .unwrap_or_else(|e| fail(&format!("cannot create trace file: {e}")));
                    let mut writer = TraceWriter::new(std::io::BufWriter::new(file), &meta)
                        .unwrap_or_else(|e| fail(&format!("trace header write: {e}")));
                    let mut write_err = None;
                    drive_stream(
                        &eco,
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
                        fail(&format!("trace write failed: {e}"));
                    }
                    let (records, bytes) = writer
                        .finish()
                        .unwrap_or_else(|e| fail(&format!("trace finish failed: {e}")));
                    eprintln!("[stream] wrote {records} records ({bytes} bytes)");
                    classify_stream_file(path, &classifier, &opts, registry)
                }
                None => {
                    // No file anywhere: generator thread feeds the
                    // classifier over a bounded channel (a full queue
                    // pauses the simulation — backpressure end to end).
                    if opts.checkpoint.is_some() {
                        fail("checkpointing requires a trace file; add --write-trace PATH");
                    }
                    eprintln!(
                        "[stream] piping {} generator -> classifier ({} households)",
                        config.name, households
                    );
                    let meta = TraceMeta {
                        name: config.name.clone(),
                        duration_secs: config.duration_secs,
                        subscribers: households,
                        start_hour: config.start_hour,
                        start_weekday: config.start_weekday,
                    };
                    let (tx, rx) = parallel::bounded::<Vec<netsim::record::TraceRecord>>(4);
                    std::thread::scope(|scope| {
                        let eco = &eco;
                        let config = &config;
                        let pop = &mut pop;
                        scope.spawn(move || {
                            drive_stream(eco, pop, &ActivityProfile::default(), config, |batch| {
                                // A dead receiver means the classifier
                                // failed; drop remaining batches.
                                let _ = tx.send(batch);
                            });
                        });
                        let chunks = rx
                            .into_iter()
                            .enumerate()
                            .map(|(seq, records)| StreamChunk {
                                seq: seq as u64,
                                stats: CodecStats {
                                    records_read: records.len(),
                                    ..CodecStats::default()
                                },
                                end_offset: 0,
                                records,
                            });
                        classify_stream_chunks(chunks, meta, &classifier, &opts, registry)
                    })
                }
            }
        }
    };

    let report = report.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(1);
    });

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
        if let Err(e) = std::fs::write(path, &rendered) {
            eprintln!("error: cannot write report {}: {e}", path.display());
            std::process::exit(1);
        }
        eprintln!("[stream] report written to {}", path.display());
    }
    if let Some(path) = &windows_path {
        // Both windowed series, cumulative across resumes, so a resumed
        // run's windows NDJSON is byte-identical to an uninterrupted
        // run's (same property CI asserts for the report).
        let mut nd = report.windows.render_ndjson("adscope");
        nd.push_str(&report.decode_windows.render_ndjson("decode"));
        if let Err(e) = std::fs::write(path, &nd) {
            eprintln!("error: cannot write windows {}: {e}", path.display());
            std::process::exit(1);
        }
        eprintln!("[stream] windows written to {}", path.display());
    }

    // Stamp the run manifest: dataset identity, replay argv, artifact
    // digests. A run stopped early by --stop-after-chunks is partial —
    // its artifacts get digests (drift detection) but no replay argv.
    if let Source::TraceFile(p) = &source {
        if let Err(e) = m.set_dataset(p) {
            eprintln!("error: cannot hash dataset {}: {e}", p.display());
            std::process::exit(1);
        }
    }
    if !report.stopped_early {
        let mut replay = vec!["stream".to_string()];
        match &source {
            Source::TraceFile(p) => replay.extend(["--trace".into(), p.display().to_string()]),
            Source::Rbn1 => replay.push("--rbn1".into()),
            Source::Rbn2 => replay.push("--rbn2".into()),
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
        // run's manifest replays uninterrupted), --throttle-ms/--stall-*/
        // --serve-* (timing-only), --threads (results thread-invariant).
        m.replay = replay;
    }
    let mut stamp_artifact = |name: &str, path: &std::path::Path, mode: obs::DigestMode| {
        if let Err(e) = m.add_artifact(name, path, mode) {
            eprintln!("error: cannot digest {} {}: {e}", name, path.display());
            std::process::exit(1);
        }
    };
    if let Some(p) = &report_path {
        stamp_artifact("report", p, obs::DigestMode::Exact);
    }
    if let Some(p) = &windows_path {
        stamp_artifact("windows", p, obs::DigestMode::Exact);
    }
    if let Some(p) = &write_trace {
        stamp_artifact("trace", p, obs::DigestMode::Exact);
    }
    if let Some(p) = &opts.quarantine_path {
        // Line order across workers is nondeterministic; the digest is
        // the unordered-lines mode.
        if p.exists() {
            stamp_artifact("quarantine", p, obs::DigestMode::Lines);
        }
    }
    if let Some(dir) = &checkpoint_dir {
        let ck = dir.join(CHECKPOINT_FILE);
        if ck.exists() {
            stamp_artifact("checkpoint", &ck, obs::DigestMode::Recorded);
        }
    }
    let manifest_out = manifest_path.unwrap_or_else(|| match &report_path {
        Some(r) => PathBuf::from(format!("{}.manifest.json", r.display())),
        None => crate::manifest::out_dir().join("stream.manifest.json"),
    });
    crate::manifest::write(m, &manifest_out);

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

fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: experiments stream --trace PATH | --rbn1 | --rbn2 [--write-trace PATH]\n\
         \x20      [--chunk-records N] [--checkpoint-dir D] [--checkpoint-every N] [--resume]\n\
         \x20      [--quarantine PATH] [--report PATH] [--windows PATH] [--manifest PATH]\n\
         \x20      [--throttle-ms N] [--stop-after-chunks N] [--serve-port N]\n\
         \x20      [--serve-port-file PATH] [--serve-linger] [--watchdog-ms N]\n\
         \x20      [--stall-after-chunks N] [--stall-ms N] [--population]\n\
         \x20      [--scale small|medium|large] [--seed N] [--threads N]"
    );
    std::process::exit(2);
}
