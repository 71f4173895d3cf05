//! Golden test for the paper's output: every table and figure id of
//! `experiments` at `--scale small`, byte for byte.
//!
//! The ids are read off `experiments --help` (its `ids:` line is
//! `ALL_IDS`), so a new id joins the golden without an edit here. `metrics`
//! is left out: its rows are timings. Everything else is seeded, and the
//! run is taken at two thread counts so an ordering that depends on the
//! schedule or on `HashMap` iteration fails here instead of flaking.

use std::process::{Child, Command, Stdio};

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

/// All `ids` in one process at `threads`, artifacts redirected under `dir`.
fn spawn_ids(ids: &[String], threads: &str, dir: &str) -> Child {
    experiments()
        .args(ids)
        .args(["--scale", "small", "--threads", threads])
        .env("ANNOYED_EXPERIMENTS_DIR", dir)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("run experiments")
}

fn stdout_of(child: Child, threads: &str) -> String {
    let out = child.wait_with_output().expect("wait for experiments");
    assert!(
        out.status.success(),
        "experiments --threads {threads} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("UTF-8 stdout")
}

#[test]
fn every_id_matches_golden_at_one_and_two_threads() {
    let ids = ids();
    assert!(ids.len() >= 18, "ids line shrank: {ids:?}");
    // Side by side: the test profile is unoptimized, and one run is ≈25 s.
    let first = spawn_ids(&ids, "1", "target/experiments/golden_t1");
    let second = spawn_ids(&ids, "2", "target/experiments/golden_t2");
    let (one, two) = (stdout_of(first, "1"), stdout_of(second, "2"));
    // `BLESS=1 cargo test --test experiments_golden` regenerates the pinned
    // file after an intentional change to a table or figure.
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(GOLDEN, &one).expect("bless golden");
    }
    let golden = std::fs::read_to_string(GOLDEN).expect("read the golden file");
    for (threads, stdout) in [(1, &one), (2, &two)] {
        if let Some((n, (got, want))) = stdout
            .lines()
            .zip(golden.lines())
            .enumerate()
            .find(|(_, (got, want))| got != want)
        {
            panic!(
                "--threads {threads}: line {} drifted from {GOLDEN}\n  got:  {got}\n  want: {want}\n\
                 (if the change is intentional, regenerate the golden file)",
                n + 1
            );
        }
        assert_eq!(
            stdout.len(),
            golden.len(),
            "--threads {threads}: output and {GOLDEN} differ in length"
        );
    }
}
