//! Artifact writing and manifest stamping shared by every `experiments`
//! subcommand.
//!
//! Each subcommand writes its artifacts through [`write_artifact`],
//! builds a [`RunManifest`] through [`stamp`] (or [`stamp_world`], which
//! also records the world's identity), decides which artifacts, digest
//! modes and replay argv to record, and writes it through [`write`] next
//! to the artifacts under [`out_dir`]. The `ANNOYED_EXPERIMENTS_DIR`
//! variable overrides the default `target/experiments` — that is how
//! `experiments verify` redirects a replay's artifacts into a scratch
//! directory without disturbing the originals.

use crate::cli::die;
use crate::world::World;
use obs::{DigestMode, RunManifest};
use std::path::{Path, PathBuf};
use webgen::Ecosystem;

/// The experiments output directory: `$ANNOYED_EXPERIMENTS_DIR` when
/// set and non-empty, `target/experiments` otherwise.
pub fn out_dir() -> PathBuf {
    match std::env::var_os("ANNOYED_EXPERIMENTS_DIR") {
        Some(d) if !d.is_empty() => PathBuf::from(d),
        _ => PathBuf::from("target/experiments"),
    }
}

/// Start a manifest for `subcommand`: the literal argv, the output
/// directory, the workspace crate versions, and the registry's logical
/// start clock are filled in; the caller adds config, dataset, replay
/// argv and artifacts.
pub fn stamp(subcommand: &str) -> RunManifest {
    let mut m = RunManifest::new(subcommand, obs::global().elapsed_ns());
    m.args = std::env::args().skip(1).collect();
    m.out_dir = out_dir().display().to_string();
    m.crates = vec![
        ("abp-filter".into(), abp_filter::VERSION.into()),
        ("adscope".into(), adscope::VERSION.into()),
        ("annoyed-users".into(), env!("CARGO_PKG_VERSION").into()),
        ("browsersim".into(), browsersim::VERSION.into()),
        ("netsim".into(), netsim::VERSION.into()),
        ("obs".into(), obs::VERSION.into()),
        ("webgen".into(), webgen::VERSION.into()),
    ];
    m
}

/// [`stamp`] plus what every world-backed run records: scale, seed,
/// thread count and the filter lists' hash.
pub fn stamp_world(subcommand: &str, world: &World) -> RunManifest {
    let mut m = stamp(subcommand);
    m.config("scale", world.scale.as_str());
    m.config("seed", world.seed);
    m.config("threads", world.threads);
    m.filter_fnv = Some(filter_fnv(&world.eco));
    m
}

/// Show the run's config identity on `/statusz` from the first scrape
/// (call once the config is complete).
pub fn publish_header(m: &RunManifest) {
    let header = format!("{} config_fnv={:016x}", m.subcommand, m.config_fnv());
    obs::global().health().set_header(header);
}

/// FNV-64 over the generated filter lists' raw rule text in canonical
/// order — the identity of the classifier a run used. (The parsed
/// `FilterList` does not retain rule text; the generated ecosystem
/// does.)
pub fn filter_fnv(eco: &Ecosystem) -> u64 {
    let mut s = String::with_capacity(
        eco.lists.easylist_text.len()
            + eco.lists.regional_text.len()
            + eco.lists.easyprivacy_text.len()
            + eco.lists.acceptable_text.len()
            + 4,
    );
    for text in [
        &eco.lists.easylist_text,
        &eco.lists.regional_text,
        &eco.lists.easyprivacy_text,
        &eco.lists.acceptable_text,
    ] {
        s.push_str(text);
        s.push('\u{0}');
    }
    obs::fnv64(s.as_bytes())
}

/// Write one artifact, creating its directory first; a run whose
/// artifact cannot land exits.
pub fn write_artifact(path: &Path, bytes: impl AsRef<[u8]>) {
    let dir = path.parent().unwrap_or(Path::new(""));
    if let Err(e) = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(path, bytes)) {
        die(format!("cannot write {}: {e}", path.display()));
    }
}

/// Digest `path` under `mode` and record it in `m` as artifact `name`.
pub fn add_artifact(m: &mut RunManifest, name: &str, path: &Path, mode: DigestMode) {
    if let Err(e) = m.add_artifact(name, path, mode) {
        die(format!("cannot digest {name} {}: {e}", path.display()));
    }
}

/// Hash the trace file a run read and record it in `m`.
pub fn set_dataset(m: &mut RunManifest, path: &Path) {
    if let Err(e) = m.set_dataset(path) {
        die(format!("cannot hash dataset {}: {e}", path.display()));
    }
}

/// Count the lines of an NDJSON body, each of which must parse as JSON.
pub fn check_ndjson(body: &str) -> Result<usize, String> {
    let mut lines = 0;
    for line in body.lines().filter(|l| !l.is_empty()) {
        lines += 1;
        netsim::json::parse(line).map_err(|e| format!("line {lines}: {e}\n  {line}"))?;
    }
    Ok(lines)
}

/// Stamp the end clock and write `m` atomically to `path`, by default
/// `<subcommand>.manifest.json` under [`out_dir`] (a one-line stderr note
/// on success; the process exits on failure — a run whose manifest
/// cannot land is not a recorded run).
pub fn write(mut m: RunManifest, path: Option<PathBuf>) {
    let path = path.unwrap_or_else(|| out_dir().join(format!("{}.manifest.json", m.subcommand)));
    m.end_ns = obs::global().elapsed_ns();
    if let Err(e) = m.write_atomic(&path) {
        die(format!("cannot write manifest {}: {e}", path.display()));
    }
    eprintln!(
        "[manifest] {} run stamped -> {} (config_fnv={:016x})",
        m.subcommand,
        path.display(),
        m.config_fnv()
    );
}
