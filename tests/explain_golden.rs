//! Golden test for `experiments explain` on the whitelist-override
//! fixture (acceptable-ads, paper §3.1).
//!
//! The fixture rule set blocks `niceads.example` via `easylist` and
//! excepts it via `acceptable-ads`, so the verdict is "whitelisted" with
//! cause "anomalous" — the most provenance-rich path through the
//! decision tree. Everything `explain` prints is deterministic (trace
//! and span ids are derived, no wall-clock appears), so the full stdout
//! is compared byte-for-byte against the committed golden file.

use std::process::{Command, Output};

/// Run `experiments explain --url <url>` with its artifacts (NDJSON trace,
/// run manifest) under `dir`, so tests running side by side never write
/// the same file.
fn run_explain(dir: &str, url: &str) -> Output {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["explain", "--url", url])
        .env("ANNOYED_EXPERIMENTS_DIR", dir)
        .output()
        .expect("run experiments explain")
}

#[test]
fn explain_whitelist_override_matches_golden() {
    let dir = "target/experiments/explain_golden";
    let out = run_explain(dir, "http://niceads.example/banner.gif");
    assert!(
        out.status.success(),
        "explain failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    // The last line names the NDJSON artifact; the golden file was
    // recorded with it in the default directory.
    let stdout = String::from_utf8(out.stdout)
        .expect("UTF-8 stdout")
        .replace(&format!("{dir}/"), "target/experiments/");
    let golden = include_str!("golden/explain_whitelist.txt");
    assert_eq!(
        stdout, golden,
        "explain output drifted from tests/golden/explain_whitelist.txt \
         (if the change is intentional, regenerate the golden file)"
    );

    // Spot-check the load-bearing lines independently of formatting.
    for needle in [
        "||niceads.example^",                  // matched blocking rule text
        "[easylist]",                          // its source list
        "@@||niceads.example^",                // the exception that overrode it
        "[acceptable-ads]",                    // exception source list
        "referer_chain, 1 hop",                // referrer-chain reconstruction
        "category image  (source: extension)", // content-type path
        "first-match depth 0",                 // engine depth
        "verdict: whitelisted",
    ] {
        assert!(stdout.contains(needle), "missing {needle:?} in:\n{stdout}");
    }
}

#[test]
fn explain_ndjson_artifact_parses() {
    let out = run_explain(
        "target/experiments/explain_ndjson",
        "http://ads.example/creative.gif",
    );
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("trace: VALID"),
        "explain must self-validate its NDJSON: {stdout}"
    );
    let ndjson = std::fs::read_to_string("target/experiments/explain_ndjson/explain_trace.ndjson")
        .expect("explain writes the NDJSON artifact");
    assert!(!ndjson.trim().is_empty());
    for line in ndjson.lines() {
        let value = netsim::json::parse(line).expect("every line parses");
        assert!(value.get("event").is_some());
    }
}
