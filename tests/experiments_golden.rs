//! Golden test for the paper's output: every table and figure id of
//! `experiments` at `--scale small`, byte for byte.
//!
//! The ids are read off `experiments --help` (its `ids:` line is
//! `ALL_IDS`), so a new id joins the golden without an edit here. `metrics`
//! is left out: its rows are timings. Everything else is seeded. The one
//! run is taken at two threads, so an ordering that depends on the schedule
//! or on `HashMap` iteration fails here instead of flaking; invariance over
//! the thread count itself is `streaming_equivalence`'s sweep, in process.

use std::process::Command;

const GOLDEN: &str = "tests/golden/experiments_small.txt";

fn experiments() -> Command {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
}

/// Every id `--help` lists, in paper order, without `metrics` and `all`.
fn ids() -> Vec<String> {
    let out = experiments().arg("--help").output().expect("run --help");
    let usage = String::from_utf8(out.stderr).expect("UTF-8 usage");
    let line = usage
        .lines()
        .find_map(|l| l.strip_prefix("ids: "))
        .expect("--help prints an `ids:` line");
    line.split_whitespace()
        .filter(|id| !matches!(*id, "metrics" | "all"))
        .map(String::from)
        .collect()
}

#[test]
fn every_id_matches_golden_at_two_threads() {
    let ids = ids();
    assert!(ids.len() >= 18, "ids line shrank: {ids:?}");
    // All ids in one process, artifacts redirected under the target dir.
    let out = experiments()
        .args(&ids)
        .args(["--scale", "small", "--threads", "2"])
        .env("ANNOYED_EXPERIMENTS_DIR", "target/experiments/golden_t2")
        .output()
        .expect("run experiments");
    assert!(
        out.status.success(),
        "experiments --threads 2 failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 stdout");
    // `BLESS=1 cargo test --test experiments_golden` regenerates the pinned
    // file after an intentional change to a table or figure.
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(GOLDEN, &stdout).expect("bless golden");
    }
    let golden = std::fs::read_to_string(GOLDEN).expect("read the golden file");
    if let Some((n, (got, want))) = stdout
        .lines()
        .zip(golden.lines())
        .enumerate()
        .find(|(_, (got, want))| got != want)
    {
        panic!(
            "line {} drifted from {GOLDEN}\n  got:  {got}\n  want: {want}\n\
             (if the change is intentional, regenerate the golden file)",
            n + 1
        );
    }
    assert_eq!(
        stdout.len(),
        golden.len(),
        "output and {GOLDEN} differ in length"
    );
}
