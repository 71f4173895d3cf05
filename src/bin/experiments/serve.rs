//! `experiments serve` / `experiments fetch` — the live scrape mode.
//!
//! `serve` binds the [`obs::serve()`] endpoint on the global registry
//! (`--port 0` picks an ephemeral port; `--port-file` writes the bound
//! port for scripts to poll), then generates the shared world's RBN-1
//! capture straight into the stream engine, population and alert planes
//! on, so every scrape of `/metrics`, `/windows`, `/population` and
//! `/alerts` sees real data. After the replay the process keeps serving
//! until `GET /quitz` (or SIGKILL); `/profile` serves the stage table of
//! the span histograms.
//!
//! `fetch` is the zero-dependency counterpart of `curl` for CI smoke
//! tests: it GETs one path, prints the body to stdout, and exits
//! non-zero on connection failure (after `--retries`), a non-200
//! status, or — with `--check-metrics` — a body that fails
//! [`obs::validate_exposition`]. `--check-ndjson` instead requires a
//! non-empty body whose every line parses as JSON (the `/windows`,
//! `/events`, and `/population/ndjson` planes).

use crate::cli::{die, Args};
use crate::manifest;
use crate::world::{Rbn, Scale, World};
use adscope::StreamOptions;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::time::Duration;

pub const SERVE_USAGE: &str = "experiments serve --port N [--port-file PATH]
           [--scale small|medium|large] [--seed N] [--threads N]";
pub const FETCH_USAGE: &str = "experiments fetch --port N --path <p> [--retries N]
           [--check-metrics] [--check-ndjson]";

/// Entry point for the `serve` subcommand. Exits the process.
pub fn run_serve(args: &[String]) -> ! {
    let mut port: Option<u16> = None;
    let mut port_file: Option<PathBuf> = None;
    let mut scale = Scale::Small;
    let mut seed: u64 = 0x5eed;
    let mut threads = parallel::available_parallelism();
    let mut a = Args::new("serve", SERVE_USAGE, args);
    while let Some(flag) = a.next() {
        match flag {
            "--port" => port = Some(a.parsed(flag)),
            "--port-file" => port_file = Some(a.path(flag)),
            "--scale" => scale = a.parsed(flag),
            "--seed" => seed = a.parsed(flag),
            "--threads" => threads = a.bounded(flag, 1..),
            other => a.unknown(other),
        }
    }
    let Some(port) = port else {
        a.usage_error("serve requires --port N (0 picks an ephemeral port)");
    };

    let registry = obs::global();
    // Record something before the first scrape: `validate_exposition`
    // (rightly) rejects an exposition with zero samples, and a fast
    // scraper can beat world construction to `/metrics`.
    registry.counter("obs_serve_starts_total").add(1);
    let handle = bind(port, port_file.as_deref());

    // Replay: build the world and stream RBN-1 through the engine, which
    // records into the global registry and publishes what it merges: the
    // window series; the population plane, so `/population`,
    // `/population/ndjson` and the class gauges serve real data; and the
    // built-in rule pack's timeline, so `/alerts`,
    // `/alerts/ndjson`, `/statusz` and the `obs_alerts_*` metrics do. A
    // clean RBN-1 replay keeps every page-severity rule idle, so `/healthz`
    // stays "ok" — the CI smoke gate checks exactly that.
    let world = World::new(scale, seed, threads);
    let mut opts = StreamOptions {
        threads,
        abp_ips: world.eco.abp_ips.clone(),
        alerts: adscope::alerts::rule_pack(),
        ..StreamOptions::default()
    };
    opts.pipeline.population.enabled = true;
    opts.pipeline.population.active_min_requests = world.active_threshold();
    let report = world.stream_rbn(Rbn::One, &opts, ()).0;
    eprintln!(
        "[serve] replayed RBN-1: {} classified requests, {} closed windows, {} late",
        report.requests,
        report.windows.windows.len(),
        report.windows.late
    );
    let population = report.population.expect("the population plane was on");
    eprintln!(
        "[serve] population published: {} active browsers, topk {}",
        population.active_browsers,
        if population.exact_topk {
            "exact"
        } else {
            "approximate"
        }
    );

    let alerts = report.alerts.expect("the rule pack was passed");
    eprintln!(
        "[serve] alerts published: {} rules, {} events, {} firing",
        alerts.rules().len(),
        alerts.events().len(),
        alerts.firing().len()
    );

    // Manifest: a live endpoint writes no artifact, so the run carries no
    // replay argv; the stamp records the world it served.
    manifest::write(manifest::stamp_world("serve", &world), None);

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
    let mut path: Option<&str> = None;
    let mut retries: u32 = 0;
    let mut check_metrics = false;
    let mut check_ndjson = false;
    let mut a = Args::new("fetch", FETCH_USAGE, args);
    while let Some(flag) = a.next() {
        match flag {
            "--port" => port = Some(a.parsed(flag)),
            "--path" => path = Some(a.value(flag)),
            "--retries" => retries = a.parsed(flag),
            "--check-metrics" => check_metrics = true,
            "--check-ndjson" => check_ndjson = true,
            other => a.unknown(other),
        }
    }
    let Some(port) = port else {
        a.usage_error("fetch requires --port N");
    };
    let Some(path) = path else {
        a.usage_error("fetch requires --path <p>");
    };

    let mut attempt = 0;
    let (status, body) = loop {
        match fetch_once(port, path) {
            Ok(r) => break r,
            Err(e) if attempt < retries => {
                attempt += 1;
                eprintln!("[fetch] attempt {attempt}/{retries} failed: {e}; retrying");
                std::thread::sleep(Duration::from_millis(200));
            }
            Err(e) => die(format!("GET 127.0.0.1:{port}{path} failed: {e}")),
        }
    };
    if status != 200 {
        die(format!("GET {path} returned status {status}"));
    }
    if check_metrics {
        if let Err(e) = obs::validate_exposition(&body) {
            die(format!("exposition check failed: {e}"));
        }
        eprintln!("[fetch] exposition OK ({} bytes)", body.len());
    }
    if check_ndjson {
        match manifest::check_ndjson(&body) {
            Ok(0) => die("NDJSON check failed: body has no lines"),
            Ok(lines) => eprintln!("[fetch] NDJSON OK ({lines} lines)"),
            Err(e) => die(format!("NDJSON check failed on {e}")),
        }
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

/// Bind the obs endpoint on the global registry and, for scripts that
/// poll, write the bound port to `port_file` — atomically, so a poller
/// never reads a half-written port number.
pub fn bind(port: u16, port_file: Option<&Path>) -> obs::ServerHandle {
    let handle = obs::serve(obs::global(), port)
        .unwrap_or_else(|e| die(format!("cannot bind 127.0.0.1:{port}: {e}")));
    eprintln!("[serve] listening on http://{}", handle.addr());
    if let Some(path) = port_file {
        let port_line = format!("{}\n", handle.port());
        if let Err(e) = obs::atomic_write(path, port_line.as_bytes()) {
            die(format!("cannot write port file {}: {e}", path.display()));
        }
    }
    handle
}
