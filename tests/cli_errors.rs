//! The `experiments` driver's argument grammar, one row per (subcommand,
//! flag).
//!
//! Every subcommand parses through the one cursor in
//! `src/bin/experiments/cli.rs`, so every row is held to the same
//! contract: a flag that needs a value and gets none, a number that is not
//! one, and a flag nobody defined each exit 2 with the first stderr line
//! naming the flag — before a world is generated or a byte is written —
//! while `--help` exits 0 with a usage text that mentions every flag in
//! the rows below (and no flag that is not). A row that regresses to the
//! old behaviour (exit 0 after analysing a *different* dataset) fails
//! here, and so does a usage text that drifts from the parser.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

#[derive(Clone, Copy, PartialEq, Debug)]
enum Kind {
    /// Takes no value.
    Switch,
    /// Takes any text: a path, a URL.
    Text,
    /// Parsed into a number or a choice: `x` is refused.
    Parsed,
    /// A count of at least one or a positive width: `x` and `0` are refused.
    Positive,
}
use Kind::*;

struct Sub {
    /// Empty for the generic `experiments <id>...` grammar.
    name: &'static str,
    /// Arguments that satisfy the subcommand on their own, so the flag a
    /// row appends is the only thing wrong — and `--scale large` wherever
    /// it is accepted, so a parse error that slipped through would be
    /// seen building the large world.
    prefix: &'static [&'static str],
    flags: &'static [(&'static str, Kind)],
}

const SUBS: &[Sub] = &[
    Sub {
        name: "",
        prefix: &["table1", "--scale", "large"],
        flags: &[
            ("--scale", Parsed),
            ("--seed", Parsed),
            ("--threads", Positive),
        ],
    },
    Sub {
        name: "explain",
        prefix: &["--url", "http://niceads.example/banner.gif"],
        flags: &[("--url", Text), ("--trace", Text)],
    },
    Sub {
        name: "temporal",
        prefix: &["--scale", "large"],
        flags: &[
            ("--trace", Text),
            ("--width", Positive),
            ("--scale", Parsed),
            ("--seed", Parsed),
            ("--threads", Positive),
        ],
    },
    Sub {
        name: "serve",
        prefix: &["--port", "0", "--scale", "large"],
        flags: &[
            ("--port", Parsed),
            ("--port-file", Text),
            ("--scale", Parsed),
            ("--seed", Parsed),
            ("--threads", Positive),
        ],
    },
    Sub {
        name: "fetch",
        prefix: &["--port", "1", "--path", "/healthz"],
        flags: &[
            ("--port", Parsed),
            ("--path", Text),
            ("--retries", Parsed),
            ("--check-metrics", Switch),
            ("--check-ndjson", Switch),
        ],
    },
    Sub {
        name: "stream",
        prefix: &["--rbn1", "--scale", "large"],
        flags: &[
            ("--trace", Text),
            ("--rbn1", Switch),
            ("--rbn2", Switch),
            ("--write-trace", Text),
            ("--chunk-records", Positive),
            ("--checkpoint-dir", Text),
            ("--checkpoint-every", Positive),
            ("--resume", Switch),
            ("--quarantine", Text),
            ("--report", Text),
            ("--windows", Text),
            ("--manifest", Text),
            ("--throttle-ms", Parsed),
            ("--stop-after-chunks", Positive),
            ("--serve-port", Parsed),
            ("--serve-port-file", Text),
            ("--serve-linger", Switch),
            ("--watchdog-ms", Positive),
            ("--population", Switch),
            ("--scale", Parsed),
            ("--seed", Parsed),
            ("--threads", Positive),
        ],
    },
    Sub {
        name: "population",
        prefix: &["--scale", "large"],
        flags: &[
            ("--scale", Parsed),
            ("--seed", Parsed),
            ("--threads", Positive),
            ("--out", Text),
            ("--ndjson", Text),
            ("--manifest", Text),
            ("--exact-check", Switch),
        ],
    },
    Sub {
        name: "alerts",
        prefix: &["--scale", "large"],
        flags: &[
            ("--scale", Parsed),
            ("--seed", Parsed),
            ("--threads", Positive),
            ("--delist", Positive),
            ("--out", Text),
            ("--ndjson", Text),
            ("--manifest", Text),
            ("--check", Switch),
        ],
    },
    Sub {
        name: "verify",
        prefix: &["--manifest", "no-such.manifest.json"],
        flags: &[
            ("--manifest", Text),
            ("--scratch", Text),
            ("--skip-replay", Switch),
        ],
    },
];

/// A fresh per-test experiments directory, as the golden suites use, so
/// "nothing was written" can be asserted as "it still does not exist".
fn fresh_dir(test: &str) -> PathBuf {
    let dir = PathBuf::from(format!("target/experiments/cli_errors/{test}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn run(dir: &Path, sub: &Sub, tail: &[&str]) -> Output {
    let name = Some(sub.name).filter(|n| !n.is_empty());
    Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(name.into_iter().chain(sub.prefix.iter().copied()))
        .args(tail)
        .env("ANNOYED_EXPERIMENTS_DIR", dir)
        .output()
        .expect("run experiments")
}

/// Exit 2, the first stderr line names `flag`, the usage follows, no world
/// was generated and nothing was written.
fn assert_refused(out: &Output, dir: &Path, flag: &str, what: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{what}: {stderr}");
    let first = stderr.lines().next().unwrap_or_default();
    assert!(
        first.starts_with("error: ") && first.contains(flag),
        "{what}: first stderr line does not name {flag}: {stderr}"
    );
    assert!(stderr.contains("\nusage: experiments "), "{what}: {stderr}");
    assert!(
        !stderr.contains("[world]"),
        "{what} built a world: {stderr}"
    );
    assert!(out.stdout.is_empty(), "{what} printed to stdout");
    assert!(!dir.exists(), "{what} wrote under {}", dir.display());
}

#[test]
fn a_value_flag_given_last_is_refused() {
    let dir = fresh_dir("missing_value");
    for sub in SUBS {
        for &(flag, kind) in sub.flags.iter().filter(|(_, k)| *k != Switch) {
            let out = run(&dir, sub, &[flag]);
            let what = format!("{} ... {flag} <nothing> ({kind:?})", sub.name);
            assert_refused(&out, &dir, flag, &what);
        }
    }
}

#[test]
fn a_malformed_number_is_refused() {
    let dir = fresh_dir("bad_number");
    for sub in SUBS {
        for &(flag, kind) in sub.flags {
            let bad: &[&str] = match kind {
                Switch | Text => &[],
                Parsed => &["x"],
                Positive => &["x", "0"],
            };
            for value in bad {
                let out = run(&dir, sub, &[flag, value]);
                let what = format!("{} ... {flag} {value}", sub.name);
                assert_refused(&out, &dir, flag, &what);
            }
        }
    }
}

#[test]
fn an_unknown_flag_is_refused() {
    let dir = fresh_dir("unknown_flag");
    for sub in SUBS {
        let out = run(&dir, sub, &["--no-such-flag"]);
        let what = format!("{} ... --no-such-flag", sub.name);
        assert_refused(&out, &dir, "--no-such-flag", &what);
    }
}

/// The `--flag` tokens of a usage text.
fn flags_in(usage: &str) -> Vec<&str> {
    let mut flags: Vec<&str> = usage
        .split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
        .filter(|t| t.starts_with("--"))
        .collect();
    flags.sort_unstable();
    flags.dedup();
    flags
}

#[test]
fn help_prints_exactly_the_flags_the_rows_name() {
    let dir = fresh_dir("help");
    for sub in SUBS.iter().filter(|s| !s.name.is_empty()) {
        for help in ["--help", "-h"] {
            let out = run(&dir, sub, &[help]);
            let usage = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(0), "{} {help}: {usage}", sub.name);
            assert!(
                usage.starts_with(&format!("usage: experiments {} ", sub.name)),
                "{} {help}: {usage}",
                sub.name
            );
            let mut rows: Vec<&str> = sub.flags.iter().map(|(f, _)| *f).collect();
            rows.sort_unstable();
            assert_eq!(flags_in(&usage), rows, "{} usage vs rows", sub.name);
            assert!(!dir.exists());
        }
    }
}

#[test]
fn top_level_help_is_assembled_from_every_subcommand() {
    let dir = fresh_dir("top_help");
    let generic = &SUBS[0];
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .arg("--help")
        .env("ANNOYED_EXPERIMENTS_DIR", &dir)
        .output()
        .expect("run experiments");
    let usage = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{usage}");
    let mut all: Vec<&str> = SUBS
        .iter()
        .flat_map(|s| s.flags.iter().map(|(f, _)| *f))
        .collect();
    all.sort_unstable();
    all.dedup();
    assert_eq!(flags_in(&usage), all);
    for sub in SUBS.iter().filter(|s| !s.name.is_empty()) {
        let line = format!("\n       experiments {} ", sub.name);
        assert!(usage.contains(&line), "no {} line in: {usage}", sub.name);
    }
    for (flag, _) in generic.flags {
        let head = usage
            .split("experiments explain")
            .next()
            .unwrap_or_default();
        assert!(head.contains(flag), "generic usage lacks {flag}: {usage}");
    }
    assert!(usage.contains("\nids: table1 "), "{usage}");
    assert!(!dir.exists());
}

#[test]
fn a_bad_id_is_refused_before_the_world_is_generated() {
    let dir = fresh_dir("bad_id");
    let bare = Sub {
        name: "",
        prefix: &[],
        flags: &[],
    };
    let out = run(&dir, &bare, &["--bogus", "--scale", "large"]);
    assert_refused(&out, &dir, "unknown flag \"--bogus\"", "--bogus");
    let out = run(&dir, &bare, &["table1x", "--scale", "large"]);
    assert_refused(&out, &dir, "unknown experiment \"table1x\"", "table1x");
    let out = run(&dir, &bare, &["table1", "fig99", "--scale", "large"]);
    assert_refused(&out, &dir, "unknown experiment \"fig99\"", "fig99");
    let out = run(&dir, &bare, &["--scale", "large"]);
    assert_refused(&out, &dir, "no experiment given", "no id");
}

#[test]
fn cross_flag_requirements_keep_their_messages() {
    let dir = fresh_dir("cross_flag");
    let sub = |name| SUBS.iter().find(|s| s.name == name).expect("a SUBS row");
    let bare = |name| Sub {
        name,
        prefix: &[],
        flags: &[],
    };
    let out = run(&dir, sub("stream"), &["--resume"]);
    assert_refused(&out, &dir, "--resume requires --checkpoint-dir", "resume");
    let out = run(&dir, &bare("stream"), &["--scale", "large"]);
    assert_refused(&out, &dir, "stream requires a source", "no source");
    let out = run(&dir, sub("stream"), &["--checkpoint-dir", "ck"]);
    assert_refused(&out, &dir, "add --write-trace PATH", "checkpoint, no file");
    // A window is filed under the hour it starts in: one that does not
    // divide the hour used to print a table with every second row empty.
    for width in ["7200", "5400", "2700"] {
        let out = run(&dir, sub("temporal"), &["--width", width]);
        assert_refused(&out, &dir, "--width", "temporal, width off the hour");
    }
    let out = run(&dir, &bare("explain"), &[]);
    assert_refused(&out, &dir, "explain requires --url", "explain, no url");
    let out = run(&dir, &bare("explain"), &["--url", "not a url"]);
    assert_refused(&out, &dir, "--url", "explain, bad url");
    let out = run(&dir, &bare("serve"), &["--scale", "large"]);
    assert_refused(&out, &dir, "serve requires --port", "serve, no port");
    let out = run(&dir, &bare("fetch"), &["--port", "1"]);
    assert_refused(&out, &dir, "fetch requires --path", "fetch, no path");
    let out = run(&dir, &bare("verify"), &[]);
    assert_refused(&out, &dir, "verify requires --manifest", "verify, none");
}

/// A failure that is not the command line's fault — a file that is not
/// there — exits 1 with one `error:` line and no usage text.
#[test]
fn a_runtime_failure_exits_1_without_the_usage() {
    let dir = fresh_dir("runtime");
    let sub = |name| SUBS.iter().find(|s| s.name == name).expect("a SUBS row");
    for (name, tail) in [
        ("verify", &[][..]),
        ("explain", &["--trace", "no-such.trace"][..]),
    ] {
        let out = run(&dir, sub(name), tail);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{name}: {stderr}");
        assert!(
            stderr.starts_with("error: cannot read "),
            "{name}: {stderr}"
        );
        assert!(!stderr.contains("usage:"), "{name}: {stderr}");
        assert!(!dir.exists(), "{name} wrote under {}", dir.display());
    }
}
