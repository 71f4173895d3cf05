//! Golden test for `experiments alerts` — the filter-list-lag drill
//! (paper §7's list-coverage failure mode as a detection scenario).
//!
//! The subcommand chains a pre-capture (lists cover the serving ad
//! networks) and a post-capture (the heaviest networks rotated onto
//! sibling domains the stale rules miss) into the stream engine as one
//! capture, with the built-in rule pack, and prints the alert timeline.
//! The pinned output covers the whole path: ecosystem generation →
//! list-lag evolution → browsing drive → stream classification →
//! windowed series → detectors → lifecycle → rendering. Everything is
//! seeded, so the timeline is reproducible byte-for-byte.
//!
//! The one run is taken at `--threads 4`, so it also checks that the flag
//! reaches the stream and leaves the timeline alone. The thread × chunk
//! sweep is the in-process proptest in
//! `crates/adscope/tests/alerts_equivalence.rs`; `experiments alerts
//! --check` in `ci.sh` drives the capture again at one thread and at four.

use std::process::Command;

/// Run the subcommand with artifacts redirected under `dir` (so
/// parallel tests never clobber each other's output files) and return
/// stdout — the rendered alert timeline.
fn run_alerts(dir: &str, extra: &[&str]) -> String {
    let mut args = vec!["alerts", "--scale", "small"];
    args.extend_from_slice(extra);
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(&args)
        .env("ANNOYED_EXPERIMENTS_DIR", dir)
        .output()
        .expect("run experiments alerts");
    assert!(
        out.status.success(),
        "alerts {extra:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("UTF-8 stdout")
}

const GOLDEN: &str = "tests/golden/alerts_timeline.txt";

#[test]
fn alerts_timeline_matches_golden() {
    let stdout = run_alerts("target/experiments/alerts_golden", &["--threads", "4"]);
    // `BLESS=1 cargo test alerts_timeline_matches_golden` regenerates
    // the pinned file after an intentional rule-pack or format change.
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(GOLDEN, &stdout).expect("bless golden");
    }
    let golden = std::fs::read_to_string(GOLDEN).expect("read the golden file");
    assert_eq!(
        stdout, golden,
        "alerts timeline drifted from tests/golden/alerts_timeline.txt \
         (if the change is intentional, regenerate the golden file)"
    );
    // Load-bearing shape checks, independent of exact formatting: the
    // page rule must walk pending → firing after the injected cut-over
    // (window 24 at small scale), and nothing may fire before it.
    let lines: Vec<&str> = stdout
        .lines()
        .filter(|l| l.starts_with("window ") && l.contains("blocked_share_drop"))
        .collect();
    assert!(
        !lines.is_empty(),
        "no blocked_share_drop events in:\n{stdout}"
    );
    for line in &lines {
        let idx: i64 = line
            .split_whitespace()
            .nth(1)
            .and_then(|w| w.parse().ok())
            .expect("window index");
        assert!(idx >= 24, "event before the cut-over: {line}");
    }
    assert!(
        lines.iter().any(|l| l.contains(" firing ")),
        "the drop never fired:\n{stdout}"
    );
}
