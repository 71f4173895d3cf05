//! The experiment driver: regenerates every table and figure of the paper
//! (`experiments <id>...`) and hosts the subcommands of [`SUBCOMMANDS`].
//!
//! `experiments --help` prints the whole grammar, `experiments
//! <subcommand> --help` one subcommand's; each usage text lives beside the
//! `match` that parses it (`cli.rs` has the one cursor they all use).
//! Results are byte-identical at every `--threads` count — only wall-clock
//! changes.

mod alerts;
mod cli;
mod experiments;
mod explain;
mod manifest;
mod population;
mod serve;
mod stream;
mod temporal;
mod verify;
mod world;

use experiments::ALL_IDS;
use std::io::Write;
use world::{Scale, World};

const USAGE: &str = "experiments <id>... [--scale small|medium|large] [--seed N] [--threads N]";

/// A subcommand's entry point: parses its arguments, runs, exits.
type Run = fn(&[String]) -> !;

/// Every subcommand: its name, its usage text, its entry point. A first
/// token found here owns the rest of the argv; anything else is the
/// generic `<id>...` grammar.
const SUBCOMMANDS: [(&str, &str, Run); 8] = [
    ("explain", explain::USAGE, explain::run),
    ("temporal", temporal::USAGE, temporal::run),
    ("serve", serve::SERVE_USAGE, serve::run_serve),
    ("fetch", serve::FETCH_USAGE, serve::run_fetch),
    ("stream", stream::USAGE, stream::run),
    ("population", population::USAGE, population::run),
    ("alerts", alerts::USAGE, alerts::run),
    ("verify", verify::USAGE, verify::run),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let first = args.first().map(String::as_str);
    if let Some((.., run)) = SUBCOMMANDS.iter().find(|(name, ..)| Some(*name) == first) {
        run(&args[1..]);
    }
    let mut usage = USAGE.to_string();
    for (_, sub, _) in SUBCOMMANDS {
        usage.push_str("\n       ");
        usage.push_str(sub);
    }
    usage.push_str(&format!("\nids: {} all", ALL_IDS.join(" ")));

    let mut ids: Vec<&str> = Vec::new();
    let mut scale = Scale::Medium;
    let mut seed: u64 = 0x5eed;
    let mut threads = parallel::available_parallelism();
    let mut a = cli::Args::new("experiments", &usage, &args);
    while let Some(token) = a.next() {
        match token {
            "--scale" => scale = a.parsed(token),
            "--seed" => seed = a.parsed(token),
            "--threads" => threads = a.bounded(token, 1..),
            flag if flag.starts_with("--") => a.usage_error(&format!("unknown flag {flag:?}")),
            id if id == "all" || ALL_IDS.contains(&id) => ids.push(id),
            id => a.usage_error(&format!("unknown experiment {id:?}")),
        }
    }
    if ids.is_empty() {
        a.usage_error("no experiment given");
    }
    if ids.contains(&"all") {
        ids = ALL_IDS.to_vec();
    }
    let world = World::new(scale, seed, threads);
    let mut out = String::new();
    for id in &ids {
        let section = experiments::run(id, &world).expect("ids were checked against ALL_IDS");
        println!("{section}");
        stamp_id(id, &section, &world);
        out.push_str(&section);
        out.push('\n');
    }
    // Persist the combined output for EXPERIMENTS.md refreshes. It lands
    // under target/ (with the metrics artifacts), not the repo root, so a
    // stale copy can never be committed.
    if ids.len() > 1 {
        let dir = manifest::out_dir();
        let path = dir.join("experiments_output.txt");
        if std::fs::create_dir_all(&dir).is_ok() {
            if let Ok(mut f) = std::fs::File::create(&path) {
                let _ = f.write_all(out.as_bytes());
                eprintln!(
                    "[experiments] combined output written to {}",
                    path.display()
                );
            }
        }
    }
    // Machine-parseable for the CI memory ceiling.
    if let Some(bytes) = obs::peak_rss_bytes() {
        eprintln!("[experiments] peak_rss_bytes={bytes}");
    }
}

/// Stamp a run manifest for the generic-loop ids that emit artifacts.
/// `robustness` is a pure function of (scale, seed) — its table is an
/// `exact` artifact with a replay argv. `metrics` is timing-bearing —
/// its artifacts are stamped `recorded` (drift detection only).
fn stamp_id(id: &str, section: &str, world: &World) {
    if id != "metrics" && id != "robustness" {
        return;
    }
    let dir = manifest::out_dir();
    let txt = dir.join(format!("{id}.txt"));
    manifest::write_artifact(&txt, section);
    let mut m = manifest::stamp_world(id, world);
    let mode = if id == "robustness" {
        m.replay = vec![
            id.to_string(),
            "--scale".into(),
            world.scale.as_str().into(),
            "--seed".into(),
            world.seed.to_string(),
        ];
        obs::DigestMode::Exact
    } else {
        obs::DigestMode::Recorded
    };
    manifest::add_artifact(&mut m, &format!("{id}.txt"), &txt, mode);
    if id == "metrics" {
        // The timing-bearing exposition the experiment writes itself.
        let name = "metrics.prom";
        manifest::add_artifact(&mut m, name, &dir.join(name), obs::DigestMode::Recorded);
    }
    manifest::write(m, None);
}
