//! `experiments serve` / `experiments fetch` — the live scrape mode.
//!
//! ```text
//! experiments serve --port N [--port-file PATH] [--pace SECS]
//!                   [--scale small|medium|large] [--seed N] [--threads N]
//! experiments fetch --port N --path /metrics [--retries N] [--check-metrics]
//!                   [--check-ndjson]
//! ```
//!
//! `serve` binds the [`obs::serve`] endpoint on the global registry
//! (`--port 0` picks an ephemeral port; `--port-file` writes the bound
//! port for scripts to poll), then replays the shared world's RBN-1
//! trace through the sharded pipeline so every scrape of `/metrics`,
//! `/windows`, and `/profile` sees real data. With `--pace`, the
//! last-window gauges are re-published one closed window at a time with
//! that many wall-clock seconds between windows — a slow-motion replay
//! of trace time for watching a live dashboard. After the replay the
//! profiler's collapsed stacks land in
//! `target/experiments/profile.folded`, and the process keeps serving
//! until `GET /quitz` (or SIGKILL).
//!
//! `fetch` is the zero-dependency counterpart of `curl` for CI smoke
//! tests: it GETs one path, prints the body to stdout, and exits
//! non-zero on connection failure (after `--retries`), a non-200
//! status, or — with `--check-metrics` — a body that fails
//! [`obs::validate_exposition`]. `--check-ndjson` instead requires a
//! non-empty body whose every line parses as JSON (the `/windows`,
//! `/events`, and `/population/ndjson` planes).

use crate::world::{Scale, World};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Entry point for the `serve` subcommand. Exits the process.
pub fn run_serve(args: &[String]) -> ! {
    let mut port: Option<u16> = None;
    let mut port_file: Option<String> = None;
    let mut pace: f64 = 0.0;
    let mut scale = Scale::Small;
    let mut seed: u64 = 0x5eed;
    let mut threads = parallel::available_parallelism();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--port" => {
                i += 1;
                port = args.get(i).and_then(|s| s.parse().ok());
                if port.is_none() {
                    fail_serve("bad --port value");
                }
            }
            "--port-file" => {
                i += 1;
                port_file = args.get(i).cloned();
            }
            "--pace" => {
                i += 1;
                pace = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .filter(|p: &f64| *p >= 0.0 && p.is_finite())
                    .unwrap_or_else(|| fail_serve("bad --pace value"));
            }
            "--scale" => {
                i += 1;
                scale = args
                    .get(i)
                    .and_then(|s| Scale::parse(s))
                    .unwrap_or_else(|| fail_serve("bad --scale value"));
            }
            "--seed" => {
                i += 1;
                seed = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| fail_serve("bad --seed value"));
            }
            "--threads" => {
                i += 1;
                threads = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| fail_serve("bad --threads value"));
            }
            other => fail_serve(&format!("unknown serve argument {other:?}")),
        }
        i += 1;
    }
    let Some(port) = port else {
        fail_serve("serve requires --port N (0 picks an ephemeral port)");
    };

    let registry = obs::global();
    // Record something before the first scrape: `validate_exposition`
    // (rightly) rejects an exposition with zero samples, and a fast
    // scraper can beat world construction to `/metrics`.
    registry.counter("obs_serve_starts_total").add(1);
    let handle = match obs::serve(registry, port) {
        Ok(h) => h,
        Err(e) => fail_serve(&format!("cannot bind 127.0.0.1:{port}: {e}")),
    };
    eprintln!("[serve] listening on http://{}", handle.addr());
    if let Some(path) = &port_file {
        // Written atomically so a poller never reads a half-written port
        // number.
        let port_line = format!("{}\n", handle.port());
        if let Err(e) = obs::atomic_write(std::path::Path::new(path), port_line.as_bytes()) {
            fail_serve(&format!("cannot write port file {path:?}: {e}"));
        }
    }

    // Replay: build the world and push RBN-1 through the sharded
    // pipeline. Classification records into the global registry, so
    // scrapes see stage counters and spans grow live.
    let mut world = World::new(scale, seed, threads);
    let abp_ips = world.eco.abp_ips.clone();
    let data = world.rbn1();
    eprintln!(
        "[serve] replayed RBN-1: {} classified requests, {} closed windows, {} late",
        data.classified.requests.len(),
        data.classified.windows.windows.len(),
        data.classified.windows.late
    );

    // Population plane: build the sketch report over the replayed trace
    // and publish it, so `/population`, `/population/ndjson`, and the
    // `obs_sketch_*` / class gauges serve real data.
    let popts = adscope::PopulationOptions {
        enabled: true,
        ..adscope::PopulationOptions::default()
    };
    let population = adscope::population::finish_trace(&data.classified, &abp_ips, popts);
    population.publish(registry);
    eprintln!(
        "[serve] population published: {} active browsers, topk {}",
        population.active_browsers,
        if population.exact_topk {
            "exact"
        } else {
            "approximate"
        }
    );

    // Alert plane: evaluate the built-in rule pack over the replayed
    // windows and publish the timeline, so `/alerts`, `/alerts/ndjson`,
    // `/statusz`, and the `obs_alerts_*` metrics serve real data. A
    // clean RBN-1 replay keeps every page-severity rule idle, so
    // `/healthz` stays "ok" — the CI smoke gate checks exactly that.
    let mut alerts =
        adscope::alerts::evaluate(&data.classified.windows, adscope::alerts::rule_pack());
    alerts.publish(registry);
    eprintln!(
        "[serve] alerts published: {} rules, {} events, {} firing",
        alerts.rules().len(),
        alerts.events().len(),
        alerts.firing().len()
    );

    // Optional slow-motion replay of the windowed series for dashboard
    // watching: re-publish the last-window gauges one window at a time.
    if pace > 0.0 {
        for w in &data.classified.windows.windows {
            let requests = w.counter("requests");
            let ads = w.counter("ads");
            registry
                .gauge("adscope_window_last_requests")
                .set(requests as f64);
            if requests > 0 {
                registry
                    .gauge("adscope_window_last_ad_share_pct")
                    .set(100.0 * ads as f64 / requests as f64);
            }
            std::thread::sleep(Duration::from_secs_f64(pace));
            if handle.shutdown_requested() {
                break;
            }
        }
    }

    // Export the profiler's collapsed stacks for flamegraph tooling.
    let folded = registry.profile().render_folded();
    let dir = crate::manifest::out_dir();
    let path = dir.join("profile.folded");
    if std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, folded.as_bytes()))
        .is_ok()
    {
        eprintln!("[serve] profile written to {}", path.display());
    }

    // Manifest: the profile is wall-time-bearing, so it is recorded for
    // tamper evidence only and the run carries no replay argv.
    let mut m = crate::manifest::stamp("serve");
    m.config("scale", scale.as_str());
    m.config("seed", seed);
    m.config("threads", threads);
    m.config("pace_secs", pace);
    m.filter_fnv = Some(crate::manifest::filter_fnv(&world.eco));
    if let Err(e) = m.add_artifact("profile.folded", &path, obs::DigestMode::Recorded) {
        eprintln!("error: cannot digest {}: {e}", path.display());
    }
    crate::manifest::write(m, &dir.join("serve.manifest.json"));

    eprintln!("[serve] ready; GET /quitz to stop");
    while !handle.shutdown_requested() {
        std::thread::sleep(Duration::from_millis(50));
    }
    handle.join();
    eprintln!("[serve] stopped");
    std::process::exit(0);
}

/// Entry point for the `fetch` subcommand. Exits the process.
pub fn run_fetch(args: &[String]) -> ! {
    let mut port: Option<u16> = None;
    let mut path: Option<String> = None;
    let mut retries: u32 = 0;
    let mut check_metrics = false;
    let mut check_ndjson = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--port" => {
                i += 1;
                port = args.get(i).and_then(|s| s.parse().ok());
                if port.is_none() {
                    fail_fetch("bad --port value");
                }
            }
            "--path" => {
                i += 1;
                path = args.get(i).cloned();
            }
            "--retries" => {
                i += 1;
                retries = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| fail_fetch("bad --retries value"));
            }
            "--check-metrics" => check_metrics = true,
            "--check-ndjson" => check_ndjson = true,
            other => fail_fetch(&format!("unknown fetch argument {other:?}")),
        }
        i += 1;
    }
    let Some(port) = port else {
        fail_fetch("fetch requires --port N");
    };
    let Some(path) = path else {
        fail_fetch("fetch requires --path <p>");
    };

    let mut attempt = 0;
    let (status, body) = loop {
        match fetch_once(port, &path) {
            Ok(r) => break r,
            Err(e) if attempt < retries => {
                attempt += 1;
                eprintln!("[fetch] attempt {attempt}/{retries} failed: {e}; retrying");
                std::thread::sleep(Duration::from_millis(200));
            }
            Err(e) => {
                eprintln!("error: GET 127.0.0.1:{port}{path} failed: {e}");
                std::process::exit(1);
            }
        }
    };
    if status != 200 {
        eprintln!("error: GET {path} returned status {status}");
        std::process::exit(1);
    }
    if check_metrics {
        if let Err(e) = obs::validate_exposition(&body) {
            eprintln!("error: exposition check failed: {e}");
            std::process::exit(1);
        }
        eprintln!("[fetch] exposition OK ({} bytes)", body.len());
    }
    if check_ndjson {
        let mut lines = 0usize;
        for line in body.lines().filter(|l| !l.is_empty()) {
            if let Err(e) = netsim::json::parse(line) {
                eprintln!("error: NDJSON check failed on line {}: {e}", lines + 1);
                eprintln!("  {line}");
                std::process::exit(1);
            }
            lines += 1;
        }
        if lines == 0 {
            eprintln!("error: NDJSON check failed: body has no lines");
            std::process::exit(1);
        }
        eprintln!("[fetch] NDJSON OK ({lines} lines)");
    }
    print!("{body}");
    std::process::exit(0);
}

/// One HTTP/1.1 GET over a fresh connection; returns (status, body).
///
/// Connecting uses a bounded timeout and up to three attempts with
/// exponential backoff (100/200/400 ms), so a server mid-restart costs
/// under a second instead of hanging a CI job on a blocking connect.
fn fetch_once(port: u16, path: &str) -> std::io::Result<(u16, String)> {
    let addr = std::net::SocketAddr::from(([127, 0, 0, 1], port));
    let mut stream = {
        let mut backoff = Duration::from_millis(100);
        let mut attempt = 1;
        loop {
            match TcpStream::connect_timeout(&addr, Duration::from_secs(2)) {
                Ok(s) => break s,
                Err(_) if attempt < 3 => {
                    std::thread::sleep(backoff);
                    backoff *= 2;
                    attempt += 1;
                }
                Err(e) => return Err(e),
            }
        }
    };
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: 127.0.0.1:{port}\r\nConnection: close\r\n\r\n"
    )?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw)?;
    let status: u16 = raw
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::InvalidData, "malformed status line")
        })?;
    let body = match raw.find("\r\n\r\n") {
        Some(i) => raw[i + 4..].to_string(),
        None => String::new(),
    };
    Ok((status, body))
}

fn fail_serve(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: experiments serve --port N [--port-file PATH] [--pace SECS] \
         [--scale small|medium|large] [--seed N] [--threads N]"
    );
    std::process::exit(2);
}

fn fail_fetch(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: experiments fetch --port N --path <p> [--retries N] [--check-metrics] \
         [--check-ndjson]"
    );
    std::process::exit(2);
}
