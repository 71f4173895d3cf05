//! Golden test for `experiments temporal` — the per-hour-of-day
//! ad-share table (paper §5).
//!
//! The fixture is a fully deterministic 48-hour diurnal trace (no RNG:
//! arithmetic schedule only) written through the real codec and read
//! back by the subcommand's lossy reader, so the pinned output covers
//! the whole path: bytes → records → classification → windowed series
//! → hour-of-day collapse → table formatting. The trace starts at wall
//! hour 6, so window indices and hours of day are deliberately offset.

use http_model::headers::{RequestHeaders, ResponseHeaders};
use http_model::transaction::Method;
use http_model::HttpTransaction;
use netsim::record::{Trace, TraceMeta, TraceRecord};
use std::process::Command;

/// Two days of diurnal traffic: quiet overnight, heavy evenings, with a
/// fixed rotation of page / ad / banner / whitelisted / tracker /
/// static requests matching the `explain` fixture rule set.
fn diurnal_fixture() -> Trace {
    let mut records = Vec::new();
    let mut i = 0usize;
    for hour in 0..48u64 {
        let hod = (6 + hour) % 24;
        let load = match hod {
            0..=6 => 2,
            7..=16 => 5,
            17..=22 => 9,
            _ => 4,
        };
        for k in 0..load {
            let ts = hour as f64 * 3600.0 + k as f64 * 180.0 + 7.0;
            let (host, uri, referer) = match i % 7 {
                0 | 1 => ("pub.example", format!("/page{i}"), None),
                2 => (
                    "ads.example",
                    format!("/creative{i}.gif"),
                    Some("http://pub.example/"),
                ),
                3 => (
                    "x.example",
                    format!("/banners/{i}.gif"),
                    Some("http://pub.example/"),
                ),
                4 => (
                    "niceads.example",
                    format!("/ok{i}.js"),
                    Some("http://pub.example/"),
                ),
                5 => (
                    "tracker.example",
                    format!("/pixel/{i}.gif"),
                    Some("http://pub.example/"),
                ),
                _ => (
                    "static.example",
                    format!("/img{i}.png"),
                    Some("http://pub.example/"),
                ),
            };
            records.push(TraceRecord::Http(HttpTransaction {
                ts,
                client_ip: 1 + (i as u32 % 5),
                server_ip: 10 + (i as u32 % 3),
                server_port: 80,
                method: Method::Get,
                request: RequestHeaders {
                    host: host.into(),
                    uri,
                    referer: referer.map(Into::into),
                    user_agent: Some("UA/1.0".into()),
                },
                response: ResponseHeaders {
                    status: 200,
                    content_type: Some("image/gif".into()),
                    content_length: Some(100 + (i as u64 % 400)),
                    location: None,
                },
                tcp_handshake_ms: 1.0,
                http_handshake_ms: 2.0 + (i % 50) as f64,
            }));
            i += 1;
        }
    }
    Trace {
        meta: TraceMeta {
            name: "temporal-fixture".into(),
            duration_secs: 48.0 * 3600.0,
            subscribers: 5,
            start_hour: 6,
            start_weekday: 3,
        },
        records,
    }
}

/// Write the fixture through the real codec into `dir` and return the
/// file path.
fn write_fixture(dir: &str) -> std::path::PathBuf {
    std::fs::create_dir_all(dir).expect("create the test's directory");
    let path = std::path::Path::new(dir).join("temporal_fixture.ndjson");
    let mut bytes = Vec::new();
    netsim::codec::write_trace(&diurnal_fixture(), &mut bytes).expect("encode fixture");
    std::fs::write(&path, &bytes).expect("write fixture");
    path
}

/// Run `experiments temporal` over the fixture at `path`, with the run's
/// artifacts (the run manifest) under `dir`, so tests running side by
/// side never write the same file.
fn run_temporal(dir: &str, path: &std::path::Path, extra: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["temporal", "--trace", path.to_str().unwrap()])
        .args(extra)
        .env("ANNOYED_EXPERIMENTS_DIR", dir)
        .output()
        .expect("run experiments temporal");
    assert!(
        out.status.success(),
        "temporal {extra:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("UTF-8 stdout")
}

#[test]
fn temporal_table_matches_golden() {
    let dir = "target/experiments/temporal_golden";
    let stdout = run_temporal(dir, &write_fixture(dir), &[]);
    // `BLESS=1 cargo test temporal_table_matches_golden` regenerates
    // the pinned file after an intentional format change.
    if std::env::var_os("BLESS").is_some() {
        std::fs::write("tests/golden/temporal_table.txt", &stdout).expect("bless golden");
    }
    let golden = std::fs::read_to_string("tests/golden/temporal_table.txt")
        .expect("read tests/golden/temporal_table.txt");
    assert_eq!(
        stdout, golden,
        "temporal output drifted from tests/golden/temporal_table.txt \
         (if the change is intentional, regenerate the golden file)"
    );
    // Load-bearing shape checks, independent of exact formatting: the
    // diurnal fixture must show its evening peak and the header must
    // carry the wall-clock start hour.
    assert!(
        stdout.contains("start hour 6"),
        "header start hour:\n{stdout}"
    );
    assert!(
        stdout.contains("48 windows"),
        "one window per hour:\n{stdout}"
    );
}

#[test]
fn temporal_table_is_thread_invariant() {
    let dir = "target/experiments/temporal_threads";
    let path = write_fixture(dir);
    let one = run_temporal(dir, &path, &["--threads", "1"]);
    for threads in ["2", "4", "8"] {
        assert_eq!(
            one,
            run_temporal(dir, &path, &["--threads", threads]),
            "table drifts at --threads {threads}"
        );
    }
}
