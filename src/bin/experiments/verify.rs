//! `experiments verify` — re-check a run manifest.
//!
//! Two layers of checking, rendered as one per-artifact PASS/FAIL
//! table:
//!
//! * **disk** — every artifact (and the input dataset, when recorded)
//!   is re-digested where it sits and compared against the manifest.
//!   Detects drift: a later run overwrote the file, the file was
//!   edited, the dataset changed under the run.
//! * **replay** — when the manifest carries a canonical replay argv,
//!   the current binary is re-invoked with it, artifact paths rewritten
//!   into a scratch directory (`ANNOYED_EXPERIMENTS_DIR` redirects the
//!   default-dir artifacts), and each `exact`/`lines` artifact's replay
//!   digest is compared against the recorded one. `recorded`-mode
//!   artifacts (timing-bearing: checkpoints, expositions) are
//!   disk-checked only.
//!
//! A resumed stream run's manifest records a replay argv *without*
//! `--resume`/`--checkpoint-dir`, so verifying it proves the resumed
//! report is byte-identical to an uninterrupted run's — the
//! fault-tolerance contract, checked by `ci.sh`.

use crate::cli::{die, Args};
use obs::manifest::DigestMode;
use obs::{fnv64_file, fnv64_lines_unordered};
use std::path::{Path, PathBuf};

pub const USAGE: &str = "experiments verify --manifest <path> [--scratch DIR] [--skip-replay]";

struct ArtifactRow {
    name: String,
    path: String,
    fnv: u64,
    mode: DigestMode,
}

enum Check {
    Pass,
    Fail(String),
    Skip(&'static str),
}

impl Check {
    fn cell(&self) -> String {
        match self {
            Check::Pass => "PASS".to_string(),
            Check::Fail(why) => format!("FAIL ({why})"),
            Check::Skip(why) => format!("skip ({why})"),
        }
    }

    fn ok(&self) -> bool {
        !matches!(self, Check::Fail(_))
    }
}

/// Entry point for the `verify` subcommand. Exits the process: 0 iff
/// every check passed.
pub fn run(args: &[String]) -> ! {
    let mut manifest_path: Option<PathBuf> = None;
    let mut scratch: Option<PathBuf> = None;
    let mut skip_replay = false;
    let mut a = Args::new("verify", USAGE, args);
    while let Some(flag) = a.next() {
        match flag {
            "--manifest" => manifest_path = Some(a.path(flag)),
            "--scratch" => scratch = Some(a.path(flag)),
            "--skip-replay" => skip_replay = true,
            other => a.unknown(other),
        }
    }
    let Some(manifest_path) = manifest_path else {
        a.usage_error("verify requires --manifest <path>");
    };

    let text = std::fs::read_to_string(&manifest_path).unwrap_or_else(|e| {
        die(format!(
            "cannot read manifest {}: {e}",
            manifest_path.display()
        ))
    });
    let doc = netsim::json::parse(&text)
        .unwrap_or_else(|e| die(format!("manifest is not valid JSON: {e}")));
    if doc.get("kind").and_then(|v| v.as_str()) != Some("annoyed-users-run") {
        die("not an annoyed-users run manifest (kind mismatch)");
    }
    let subcommand = doc
        .get("subcommand")
        .and_then(|v| v.as_str())
        .unwrap_or_else(|| die("manifest has no subcommand"))
        .to_string();
    let out_dir_rec = doc
        .get("out_dir")
        .and_then(|v| v.as_str())
        .unwrap_or("target/experiments")
        .to_string();
    let replay = str_array(&doc, "replay");
    let artifacts: Vec<ArtifactRow> = match doc.get("artifacts") {
        Some(netsim::json::Value::Array(items)) => items
            .iter()
            .map(|a| ArtifactRow {
                name: a
                    .get("name")
                    .and_then(|v| v.as_str())
                    .unwrap_or_else(|| die("artifact without name"))
                    .to_string(),
                path: a
                    .get("path")
                    .and_then(|v| v.as_str())
                    .unwrap_or_else(|| die("artifact without path"))
                    .to_string(),
                fnv: a
                    .get("fnv")
                    .and_then(|v| v.as_u64())
                    .unwrap_or_else(|| die("artifact without fnv")),
                mode: a
                    .get("mode")
                    .and_then(|v| v.as_str())
                    .and_then(DigestMode::parse)
                    .unwrap_or_else(|| die("artifact with unknown digest mode")),
            })
            .collect(),
        _ => Vec::new(),
    };
    let dataset: Option<(String, u64)> = doc.get("dataset").and_then(|d| {
        Some((
            d.get("path")?.as_str()?.to_string(),
            d.get("fnv")?.as_u64()?,
        ))
    });

    println!(
        "# verify {} — subcommand {subcommand:?}, {} artifact(s)",
        manifest_path.display(),
        artifacts.len()
    );

    // Layer 1: disk checks — re-digest every file where it sits.
    let disk: Vec<Check> = artifacts.iter().map(|a| digest_check(a, &a.path)).collect();
    let dataset_check = dataset
        .as_ref()
        .map(|(path, fnv)| match fnv64_file(Path::new(path)) {
            Ok((h, _)) if h == *fnv => Check::Pass,
            Ok((h, _)) => Check::Fail(format!("fnv {h:016x} != recorded {fnv:016x}")),
            Err(e) => Check::Fail(format!("unreadable: {e}")),
        });

    // Layer 2: replay — re-run the canonical argv against a scratch
    // dir and compare the reproducible artifacts.
    let comparable = artifacts.iter().any(|a| a.mode != DigestMode::Recorded);
    let replay_checks: Vec<Check> = if skip_replay {
        artifacts
            .iter()
            .map(|_| Check::Skip("--skip-replay"))
            .collect()
    } else if replay.is_empty() {
        artifacts
            .iter()
            .map(|_| Check::Skip("run not replayable"))
            .collect()
    } else if !comparable {
        artifacts
            .iter()
            .map(|_| Check::Skip("no reproducible artifacts"))
            .collect()
    } else {
        run_replay(&artifacts, &replay, &out_dir_rec, scratch)
    };

    // The PASS/FAIL table.
    let name_w = artifacts
        .iter()
        .map(|a| a.name.len())
        .chain([8])
        .max()
        .unwrap_or(8);
    println!(
        "{:<name_w$}  {:<8}  {:<28}  replay",
        "artifact", "mode", "disk"
    );
    let mut all_ok = true;
    for (i, a) in artifacts.iter().enumerate() {
        all_ok &= disk[i].ok() && replay_checks[i].ok();
        println!(
            "{:<name_w$}  {:<8}  {:<28}  {}",
            a.name,
            a.mode.as_str(),
            disk[i].cell(),
            replay_checks[i].cell()
        );
    }
    if let (Some((path, _)), Some(check)) = (&dataset, &dataset_check) {
        all_ok &= check.ok();
        println!("dataset {path}: {}", check.cell());
    }
    println!("verify: {}", if all_ok { "PASS" } else { "FAIL" });
    std::process::exit(if all_ok { 0 } else { 1 });
}

/// Re-run the manifest's replay argv and digest-compare the
/// reproducible artifacts. Returns one check per artifact, index-aligned
/// with `artifacts`.
fn run_replay(
    artifacts: &[ArtifactRow],
    replay: &[String],
    out_dir_rec: &str,
    scratch: Option<PathBuf>,
) -> Vec<Check> {
    let scratch = scratch.unwrap_or_else(|| crate::manifest::out_dir().join("verify-scratch"));
    // A fresh scratch dir, so a stale artifact from a previous verify
    // can never masquerade as this replay's output.
    let _ = std::fs::remove_dir_all(&scratch);
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        die(format!(
            "cannot create scratch dir {}: {e}",
            scratch.display()
        ));
    }

    // Rewrite artifact paths into the scratch dir: flag-addressed paths
    // are substituted in the argv; default-dir artifacts follow the
    // child's redirected out dir.
    let mut child_args: Vec<String> = replay.to_vec();
    let mut dest: Vec<Option<PathBuf>> = Vec::with_capacity(artifacts.len());
    for a in artifacts {
        if a.mode == DigestMode::Recorded {
            dest.push(None);
            continue;
        }
        if let Some(pos) = child_args.iter().position(|arg| *arg == a.path) {
            let d = scratch.join(&a.name);
            child_args[pos] = d.display().to_string();
            dest.push(Some(d));
        } else if let Ok(rel) = Path::new(&a.path).strip_prefix(out_dir_rec) {
            dest.push(Some(scratch.join(rel)));
        } else {
            dest.push(None);
        }
    }

    let exe = std::env::current_exe()
        .unwrap_or_else(|e| die(format!("cannot locate the experiments binary: {e}")));
    eprintln!("[verify] replaying: experiments {}", child_args.join(" "));
    let status = std::process::Command::new(&exe)
        .args(&child_args)
        .env("ANNOYED_EXPERIMENTS_DIR", &scratch)
        .stdout(std::process::Stdio::null())
        .status();
    let failure: Option<String> = match status {
        Ok(s) if s.success() => None,
        Ok(s) => Some(format!("replay exited with {s}")),
        Err(e) => Some(format!("replay spawn failed: {e}")),
    };

    artifacts
        .iter()
        .zip(&dest)
        .map(|(a, d)| match (&failure, d) {
            (Some(why), _) => Check::Fail(why.clone()),
            (None, None) if a.mode == DigestMode::Recorded => Check::Skip("recorded only"),
            (None, None) => Check::Skip("not replay-addressable"),
            (None, Some(d)) => digest_check(a, &d.display().to_string()),
        })
        .collect()
}

/// Digest `path` under the artifact's mode and compare.
fn digest_check(a: &ArtifactRow, path: &str) -> Check {
    let digested = match a.mode {
        DigestMode::Lines => fnv64_lines_unordered(Path::new(path)),
        _ => fnv64_file(Path::new(path)),
    };
    match digested {
        Ok((h, _)) if h == a.fnv => Check::Pass,
        Ok((h, _)) => Check::Fail(format!("fnv {h:016x} != recorded {:016x}", a.fnv)),
        Err(e) => Check::Fail(format!("unreadable: {e}")),
    }
}

/// Extract a top-level array of strings from the manifest document.
fn str_array(doc: &netsim::json::Value<'_>, key: &str) -> Vec<String> {
    match doc.get(key) {
        Some(netsim::json::Value::Array(items)) => items
            .iter()
            .filter_map(|v| v.as_str().map(str::to_string))
            .collect(),
        _ => Vec::new(),
    }
}
