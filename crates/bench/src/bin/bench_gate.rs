//! Benchmark regression gate.
//!
//! ```text
//! bench_gate [<baseline.json> [<latest.json>]] [--stamp S] [--history PATH]
//!            [--manifest PATH]
//! ```
//!
//! Reads two `BENCH_JSON` NDJSON files (default `BENCH_baseline.json`
//! and `BENCH_latest.json` in the working directory) and:
//!
//! 1. fails (exit 1) when a *gated* benchmark regressed more than 20%
//!    against the baseline — the gated set is `trace_io/read`,
//!    `pipeline/full_pipeline_sharded`,
//!    `streaming_pipeline/stream_file_sharded` and
//!    `filter_engine/classify_compiled_easylist` (`GATES` below);
//! 2. computes the verdict-provenance tracing overhead from the latest
//!    run (`trace_overhead/sharded_ppm_10000` vs `sharded_ppm_0`) and
//!    fails when 1% sampling costs more than 15% — a lenient ceiling
//!    over the 5% design budget, so CI-machine noise doesn't flake the
//!    build while a real regression still trips it;
//! 3. computes the windowed-metrics overhead the same way
//!    (`window_overhead/sharded_windows_on` vs `sharded_windows_off`)
//!    against the same 15% ceiling over the 5% design budget;
//! 4. computes the population-sketch overhead on the streaming path
//!    (`sketch_overhead/stream_sketches_on` vs `stream_sketches_off`)
//!    against the same 15% ceiling over the 5% design budget;
//! 5. computes the alert-detector overhead the same way
//!    (`detector_overhead/stream_alerts_on` vs `stream_alerts_off`)
//!    against the same 15% ceiling — the per-barrier full recompute of
//!    the rule pack must stay in the instrumentation noise;
//! 6. holds absolute per-element ceilings on the latest run: the
//!    compiled engine's 1 000 ns/request (on the mostly-miss and on the
//!    trace-shaped request mix) and the normalizer's 1 500 ns/URL, all
//!    at EasyList scale, the chunked trace reader's 900 ns/record and
//!    the referrer-map pass's 450 ns/record.
//!
//! Every run appends one NDJSON line of its results to a history file
//! (default `BENCH_history.ndjson`, committed, so the perf record
//! travels with the repo). The line is stamped with `--stamp` —
//! typically the short commit hash — never with in-process wall-clock,
//! keeping the gate itself deterministic and replayable. With
//! `--manifest PATH` the line also carries the named run manifest's
//! `config_fnv` and dataset `fnv`, so a history row joins to the exact
//! run configuration and input that produced the numbers.
//!
//! The compared statistic is `low_ns` — the best observed sample, not
//! the median. On a loaded CI box, interference only ever *adds* time,
//! so the minimum tracks the code's true cost while the median swings
//! 20–30% with background load (observed on the 1-core reference
//! container: identical code, median +28%, minimum +15%).
//!
//! Lines are parsed with `netsim::json` (no serde in the workspace);
//! unknown groups and extra fields are ignored, so the gate tolerates
//! baselines produced by older or newer bench sets.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::process::exit;

/// Gated benchmarks: (group, name, allowed latest/baseline ratio).
const GATES: [(&str, &str, f64); 4] = [
    ("trace_io", "read", 1.20),
    ("pipeline", "full_pipeline_sharded", 1.20),
    ("streaming_pipeline", "stream_file_sharded", 1.20),
    ("filter_engine", "classify_compiled_easylist", 1.20),
];

/// Self-relative overhead gates within the latest run:
/// (group, on-name, off-name, label, ceiling).
const OVERHEAD_GATES: [(&str, &str, &str, &str, f64); 4] = [
    (
        "trace_overhead",
        "sharded_ppm_10000",
        "sharded_ppm_0",
        "1% sampling",
        1.15,
    ),
    (
        "window_overhead",
        "sharded_windows_on",
        "sharded_windows_off",
        "hourly windowing",
        1.15,
    ),
    (
        "sketch_overhead",
        "stream_sketches_on",
        "stream_sketches_off",
        "population sketches",
        1.15,
    ),
    (
        "detector_overhead",
        "stream_alerts_on",
        "stream_alerts_off",
        "alert detectors",
        1.15,
    ),
];

/// Compiled-engine speedup floor, self-relative within the latest run:
/// the compiled engine's `low_ns` must be at most this fraction of the
/// reference engine's on the same corpus. (Measured ~0.55 on the 1-core
/// reference container; 0.80 trips a real regression without flaking.)
/// `_trace` is the same list size under trace-shaped requests, where the
/// literal-alignment pre-filter does the work (measured ~0.2–0.26).
const SPEEDUP_FLOORS: [(&str, &str, &str, f64); 2] = [
    (
        "filter_engine",
        "classify_compiled_easylist",
        "classify_reference_easylist",
        0.80,
    ),
    (
        "filter_engine",
        "classify_compiled_easylist_trace",
        "classify_reference_easylist_trace",
        0.80,
    ),
];

/// Absolute throughput floor: (group, name, elements per iteration,
/// ceiling in ns per element, what an element is).
/// `classify_compiled_easylist` classifies 2000 requests per iteration;
/// 1000 ns/request is the 1 M req/s/core acceptance line, held on the
/// mostly-miss mix and on the trace-shaped one (`_trace`, whose requests
/// surface the ≈200-rule query buckets: ≈2 000 ns/request before the
/// literal-alignment pre-filter).
/// `normalize/easylist` normalizes 2000 URLs against ≈4 000 protected
/// query literals; the indexed lookup reads a few hundred ns/URL where a
/// scan of the literals read ≈100 000, so 1500 ns/URL trips on the scan
/// coming back and on nothing else.
/// `trace_io/read_chunks` decodes 16 384 records through `ChunkReader`
/// (`CHUNKED_RECORDS` in `benches/trace_io.rs`); the schema-directed
/// scanner with in-place framing reads ≈450–600 ns/record across this
/// box's clock levels where the `Value`-tree decode read ≈1 450, so 900
/// trips on the tree coming back. The relative `trace_io/read` gate above
/// cannot: its baseline row predates the scanner.
/// `pipeline/refmap_only` runs 16 384 extracted objects
/// (`REFMAP_RECORDS` in `benches/pipeline.rs`) through the per-⟨IP, UA⟩
/// referrer maps; with keys and page roots shared from the URL's buffer
/// the pass reads ≈230–330 ns/record across this box's clock levels
/// where owned keys and deep-copied roots (8.6 allocations per record)
/// read ≈700 at the slow level, so 450 trips on the allocations coming
/// back.
const THROUGHPUT_FLOORS: [(&str, &str, f64, f64, &str); 5] = [
    (
        "filter_engine",
        "classify_compiled_easylist",
        2000.0,
        1000.0,
        "request",
    ),
    (
        "filter_engine",
        "classify_compiled_easylist_trace",
        2000.0,
        1000.0,
        "request",
    ),
    ("normalize", "easylist", 2000.0, 1500.0, "URL"),
    ("trace_io", "read_chunks", 16384.0, 900.0, "record"),
    ("pipeline", "refmap_only", 16384.0, 450.0, "record"),
];

fn load(path: &str) -> HashMap<(String, String), f64> {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("bench_gate: cannot read {path}: {e}");
            exit(1);
        }
    };
    let mut lows = HashMap::new();
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let value = match netsim::json::parse(line) {
            Ok(v) => v,
            Err(e) => {
                eprintln!("bench_gate: {path}:{}: bad JSON: {e}", lineno + 1);
                exit(1);
            }
        };
        let group = value.get("group").and_then(|v| v.as_str());
        let name = value.get("name").and_then(|v| v.as_str());
        let low = value.get("low_ns").and_then(|v| v.as_f64());
        if let (Some(group), Some(name), Some(low)) = (group, name, low) {
            lows.insert((group.to_string(), name.to_string()), low);
        }
    }
    lows
}

/// One check's outcome, kept for the history line.
struct Check {
    name: String,
    base_ns: f64,
    latest_ns: f64,
    ceiling: f64,
    ok: bool,
}

/// `config_fnv` / dataset `fnv` lifted from a run manifest, for joining
/// history rows to the run that produced them.
#[derive(Default)]
struct ManifestJoin {
    config_fnv: Option<u64>,
    dataset_fnv: Option<u64>,
}

/// Read the two joinable hashes out of a run manifest written by
/// `experiments` (`obs::RunManifest` JSON). Any parse problem is fatal:
/// a history row silently missing its join key defeats the point.
fn load_manifest_join(path: &str) -> ManifestJoin {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("bench_gate: cannot read manifest {path}: {e}");
            exit(1);
        }
    };
    let doc = match netsim::json::parse(&text) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("bench_gate: manifest {path} is not valid JSON: {e}");
            exit(1);
        }
    };
    if doc.get("kind").and_then(|v| v.as_str()) != Some("annoyed-users-run") {
        eprintln!("bench_gate: {path} is not an annoyed-users run manifest");
        exit(1);
    }
    ManifestJoin {
        config_fnv: doc.get("config_fnv").and_then(|v| v.as_u64()),
        dataset_fnv: doc
            .get("dataset")
            .and_then(|d| d.get("fnv"))
            .and_then(|v| v.as_u64()),
    }
}

/// Render the run as one NDJSON history line (parseable by
/// `netsim::json`, like every other artifact in the workspace).
fn history_line(stamp: &str, passed: bool, checks: &[Check], join: &ManifestJoin) -> String {
    let mut line = String::from("{\"event\":\"bench_gate\",\"stamp\":");
    netsim::json::write_str(&mut line, stamp);
    let _ = write!(line, ",\"passed\":{passed},");
    match join.config_fnv {
        Some(h) => {
            let _ = write!(line, "\"config_fnv\":{h},");
        }
        None => line.push_str("\"config_fnv\":null,"),
    }
    match join.dataset_fnv {
        Some(h) => {
            let _ = write!(line, "\"dataset_fnv\":{h},");
        }
        None => line.push_str("\"dataset_fnv\":null,"),
    }
    line.push_str("\"checks\":[");
    for (i, c) in checks.iter().enumerate() {
        if i > 0 {
            line.push(',');
        }
        line.push_str("{\"check\":");
        netsim::json::write_str(&mut line, &c.name);
        let _ = write!(
            line,
            ",\"base_ns\":{},\"latest_ns\":{},\"ratio\":{:.4},\"ceiling\":{},\"ok\":{}}}",
            c.base_ns,
            c.latest_ns,
            if c.base_ns > 0.0 {
                c.latest_ns / c.base_ns
            } else {
                0.0
            },
            c.ceiling,
            c.ok
        );
    }
    line.push_str("]}");
    line
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut positional: Vec<String> = Vec::new();
    let mut stamp = String::from("unstamped");
    let mut history_path = String::from("BENCH_history.ndjson");
    let mut manifest_arg: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--stamp" => {
                i += 1;
                match args.get(i) {
                    Some(s) => stamp = s.clone(),
                    None => {
                        eprintln!("bench_gate: --stamp requires a value");
                        exit(1);
                    }
                }
            }
            "--history" => {
                i += 1;
                match args.get(i) {
                    Some(s) => history_path = s.clone(),
                    None => {
                        eprintln!("bench_gate: --history requires a value");
                        exit(1);
                    }
                }
            }
            "--manifest" => {
                i += 1;
                match args.get(i) {
                    Some(s) => manifest_arg = Some(s.clone()),
                    None => {
                        eprintln!("bench_gate: --manifest requires a value");
                        exit(1);
                    }
                }
            }
            other => positional.push(other.to_string()),
        }
        i += 1;
    }
    let baseline_path = positional
        .first()
        .map(String::as_str)
        .unwrap_or("BENCH_baseline.json");
    let latest_path = positional
        .get(1)
        .map(String::as_str)
        .unwrap_or("BENCH_latest.json");

    let join = manifest_arg
        .as_deref()
        .map(load_manifest_join)
        .unwrap_or_default();
    let baseline = load(baseline_path);
    let latest = load(latest_path);
    let mut failed = false;
    let mut checks: Vec<Check> = Vec::new();

    for (group, name, ceiling) in GATES {
        let key = (group.to_string(), name.to_string());
        let Some(&new) = latest.get(&key) else {
            eprintln!(
                "bench_gate: FAIL {group}/{name}: missing from {latest_path} (bench did not run)"
            );
            failed = true;
            continue;
        };
        let Some(&old) = baseline.get(&key) else {
            println!("bench_gate: skip {group}/{name}: not in baseline {baseline_path}");
            continue;
        };
        let ratio = new / old;
        let ok = ratio <= ceiling;
        let verdict = if ok { "ok" } else { "FAIL" };
        println!(
            "bench_gate: {verdict} {group}/{name}: {:.2}ms -> {:.2}ms ({:+.1}%, ceiling {:+.0}%)",
            old / 1e6,
            new / 1e6,
            (ratio - 1.0) * 100.0,
            (ceiling - 1.0) * 100.0,
        );
        checks.push(Check {
            name: format!("{group}/{name}"),
            base_ns: old,
            latest_ns: new,
            ceiling,
            ok,
        });
        if !ok {
            failed = true;
        }
    }

    // Instrumentation overheads, measured within the latest run
    // (self-relative, so machine speed cancels out). Missing pairs fail:
    // an overhead we stopped measuring is an overhead we stopped
    // bounding.
    for (group, on_name, off_name, label, ceiling) in OVERHEAD_GATES {
        let off = latest.get(&(group.to_string(), off_name.to_string()));
        let on = latest.get(&(group.to_string(), on_name.to_string()));
        match (off, on) {
            (Some(&off), Some(&on)) if off > 0.0 => {
                let ratio = on / off;
                let ok = ratio <= ceiling;
                let verdict = if ok { "ok" } else { "FAIL" };
                println!(
                    "bench_gate: {verdict} {group}: {label} costs {:+.1}% \
                     ({:.2}ms -> {:.2}ms, ceiling {:+.0}%)",
                    (ratio - 1.0) * 100.0,
                    off / 1e6,
                    on / 1e6,
                    (ceiling - 1.0) * 100.0,
                );
                checks.push(Check {
                    name: format!("{group}/{on_name}:{off_name}"),
                    base_ns: off,
                    latest_ns: on,
                    ceiling,
                    ok,
                });
                if !ok {
                    failed = true;
                }
            }
            _ => {
                eprintln!(
                    "bench_gate: FAIL {group}: {off_name}/{on_name} missing from {latest_path}"
                );
                failed = true;
            }
        }
    }

    // Compiled-engine speedup floors, measured within the latest run
    // (self-relative, so machine speed cancels out).
    for (group, fast_name, slow_name, floor) in SPEEDUP_FLOORS {
        let slow = latest.get(&(group.to_string(), slow_name.to_string()));
        let fast = latest.get(&(group.to_string(), fast_name.to_string()));
        match (slow, fast) {
            (Some(&slow), Some(&fast)) if slow > 0.0 => {
                let ratio = fast / slow;
                let ok = ratio <= floor;
                let verdict = if ok { "ok" } else { "FAIL" };
                println!(
                    "bench_gate: {verdict} {group}: {fast_name} is {:.2}x {slow_name} \
                     ({:.2}ms vs {:.2}ms, floor {:.2}x)",
                    ratio,
                    fast / 1e6,
                    slow / 1e6,
                    floor,
                );
                checks.push(Check {
                    name: format!("{group}/{fast_name}:{slow_name}"),
                    base_ns: slow,
                    latest_ns: fast,
                    ceiling: floor,
                    ok,
                });
                if !ok {
                    failed = true;
                }
            }
            _ => {
                eprintln!(
                    "bench_gate: FAIL {group}: {slow_name}/{fast_name} missing from {latest_path}"
                );
                failed = true;
            }
        }
    }

    // Absolute per-element ceilings: the one place the gate compares
    // against a wall-clock constant instead of a ratio, because the
    // claim itself ("over 1 M req/s/core") is absolute.
    for (group, name, elements, ceiling_ns, unit) in THROUGHPUT_FLOORS {
        match latest.get(&(group.to_string(), name.to_string())) {
            Some(&low) if low > 0.0 => {
                let per_elem = low / elements;
                let ok = per_elem <= ceiling_ns;
                let verdict = if ok { "ok" } else { "FAIL" };
                println!(
                    "bench_gate: {verdict} {group}/{name}: {:.0} ns/{unit} = \
                     {:.2} M {unit}s/s/core (ceiling {:.0} ns/{unit})",
                    per_elem,
                    1e3 / per_elem,
                    ceiling_ns,
                );
                checks.push(Check {
                    name: format!("{group}/{name}:per_element"),
                    base_ns: ceiling_ns,
                    latest_ns: per_elem,
                    ceiling: 1.0,
                    ok,
                });
                if !ok {
                    failed = true;
                }
            }
            _ => {
                eprintln!("bench_gate: FAIL {group}/{name}: missing from {latest_path}");
                failed = true;
            }
        }
    }

    // Append the run to the committed history (best-effort: a read-only
    // checkout must not turn a perf pass into a build failure).
    let line = history_line(&stamp, !failed, &checks, &join);
    match netsim::json::parse(&line) {
        Ok(_) => {
            use std::io::Write;
            let appended = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(&history_path)
                .and_then(|mut f| writeln!(f, "{line}"));
            match appended {
                Ok(()) => println!("bench_gate: history appended to {history_path} ({stamp})"),
                Err(e) => eprintln!("bench_gate: cannot append {history_path}: {e}"),
            }
        }
        Err(e) => {
            // Unreachable by construction; a corrupt line must never
            // poison the committed history.
            eprintln!("bench_gate: internal: history line does not parse: {e}");
        }
    }

    if failed {
        exit(1);
    }
    println!("bench_gate: all gates passed");
}
