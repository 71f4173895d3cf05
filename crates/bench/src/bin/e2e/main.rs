//! `e2e` — the repo benchmark: EasyList-scale stream classification, four
//! workloads, a staged per-layer ledger. See `README.md` beside this file
//! for the glossary, the workloads and the entry points it calls.
//!
//! Three process roles share this binary:
//!
//! * **orchestrator** (`e2e [--seed N] [--sets K] [--quick] [--workload W]`):
//!   runs every workload, tracing off then on, each in a child process, and
//!   prints every metric with unit, direction and bound;
//! * **one run** (`e2e --workload W --seed N --seconds S --trace 0|1`): the
//!   contract `BENCHMARK.json` describes — set-up, reference, measurement,
//!   one JSON result on the last line of stdout;
//! * **measuring child** (internal): loads the generated files, builds the
//!   classifier, and does nothing but the warm-up and the timed reps, so
//!   that its peak RSS is the stream path's and not the generators'.

mod fixture;
mod ledger;
mod metrics;
mod spans;
mod stats;
mod sys;
mod workload;

use adscope::PassiveClassifier;
use fixture::{Fixture, Sizes, FULL, QUICK};
use metrics::{MetricDef, RunResult, END_TO_END, FAIL_SHARE, PER_LAYER};
use stats::{median, quartiles, rel_diff, RepRule};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;
use workload::{Bench, RepDir, Tally, Workload, WORKLOADS};

/// Seed used when `--seed` is absent (RBN-2's capture date).
const DEFAULT_SEED: u64 = 20_150_811;
/// Timed seconds per run when `--seconds` is absent; `run_seconds` of
/// `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 30.0;
/// Set-up runs this many times per run; `setup_s` is the median.
const SETUP_REPEATS: usize = 9;
/// Timed reps: at least this many, and at most this many.
const MIN_REPS: usize = 3;
const MAX_REPS: usize = 2000;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    quick: bool,
    sets: usize,
    self_test: bool,
    measure_in: Option<PathBuf>,
}

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: e2e [--seed N] [--seconds S] [--workload NAME] [--trace 0|1] [--sets K] [--quick] [--self-test]\n\
         workloads: {}\n\
         without --trace: run the chosen workloads (default all) in child processes, tracing off then on\n\
         with --trace: one run of --workload; the last stdout line is the JSON result",
        names.join(" ")
    )
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: None,
        quick: false,
        sets: 1,
        self_test: false,
        measure_in: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?.clone()),
            "--seed" => args.seed = value()?.parse().map_err(|_| "bad --seed")?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|_| "bad --seconds")?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--trace" => {
                args.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--sets" => {
                args.sets = value()?.parse().map_err(|_| "bad --sets")?;
                if args.sets == 0 {
                    return Err("--sets must be at least 1".into());
                }
            }
            "--quick" => args.quick = true,
            "--self-test" => args.self_test = true,
            "--measure-in" => args.measure_in = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if let Some(name) = &args.workload {
        if workload::by_name(name).is_none() {
            return Err(format!("unknown workload {name}"));
        }
    }
    if (args.trace.is_some() || args.measure_in.is_some()) && args.workload.is_none() {
        return Err("--trace needs --workload".into());
    }
    Ok(args)
}

impl Args {
    fn sizes(&self) -> &'static Sizes {
        if self.quick {
            &QUICK
        } else {
            &FULL
        }
    }

    /// `--quick` runs two reps whatever the clock says.
    fn rep_rule(&self) -> RepRule {
        if self.quick {
            RepRule {
                min_secs: 0.0,
                min_reps: 2,
                max_reps: 2,
            }
        } else {
            RepRule {
                min_secs: self.seconds,
                min_reps: MIN_REPS,
                max_reps: MAX_REPS,
            }
        }
    }
}

/// `<target dir>/e2e-work`: beside the `release/` directory this binary
/// runs from, so inside whatever target directory the build used.
fn work_root() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|exe| Some(exe.parent()?.parent()?.join("e2e-work")))
        .unwrap_or_else(|| PathBuf::from("target/e2e-work"))
}

/// A per-process work directory, removed when the run succeeds.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create() -> io::Result<WorkDir> {
        let dir = work_root().join(format!("run-{}", std::process::id()));
        fs::create_dir_all(&dir)?;
        Ok(WorkDir(dir))
    }
    fn fixture_dir(&self) -> PathBuf {
        self.0.join("fixture")
    }
    fn reference_path(&self) -> PathBuf {
        self.0.join("reference.txt")
    }
    fn rep_dir(&self) -> RepDir {
        RepDir(self.0.join("rep"))
    }
}

/// Last line of a child's stdout, parsed; earlier lines are echoed.
fn run_child(cmd: &mut Command, echo_prefix: &str) -> Result<RunResult, String> {
    let out = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start child: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().unwrap_or("");
    for l in lines {
        println!("{echo_prefix}{l}");
    }
    if !out.status.success() {
        return Err(format!("child exited with {}", out.status));
    }
    RunResult::from_json(last).map_err(|e| format!("bad result line {last:?}: {e}"))
}

fn self_command() -> io::Result<Command> {
    Ok(Command::new(std::env::current_exe()?))
}

// ---------------------------------------------------------------------------
// One run (the BENCHMARK.json contract)
// ---------------------------------------------------------------------------

/// One timed set-up: fixture generation and encoding, then this
/// workload's list parse and compile.
fn set_up(
    dir: &Path,
    seed: u64,
    sizes: &Sizes,
    wl: &Workload,
) -> io::Result<(Fixture, fixture::FixtureInfo, PassiveClassifier, f64)> {
    let t = Instant::now();
    let (fx, info) = Fixture::generate(dir, seed, sizes)?;
    let classifier = PassiveClassifier::new(fx.load_lists(wl.lists)?);
    Ok((fx, info, classifier, t.elapsed().as_secs_f64()))
}

fn one_run(args: &Args, wl: &Workload, traced: bool) -> Result<RunResult, String> {
    let io_err = |e: io::Error| e.to_string();
    let work = WorkDir::create().map_err(io_err)?;
    let sizes = args.sizes();
    println!(
        "e2e {} seed {} trace {} seconds {}{}",
        wl.name,
        args.seed,
        u8::from(traced),
        args.seconds,
        if args.quick {
            " QUICK (numbers not comparable)"
        } else {
            ""
        }
    );
    println!("sizes {sizes:?}");

    // The traced run reports no set-up time, so it sets up once.
    let repeats = if traced { 1 } else { SETUP_REPEATS };
    let mut setup_secs = Vec::new();
    let mut last = None;
    let mut before = sys::slowdown();
    for _ in 0..repeats {
        let (fx, info, classifier, secs) =
            set_up(&work.fixture_dir(), args.seed, sizes, wl).map_err(io_err)?;
        let after = sys::slowdown();
        println!("set-up raw {secs:.4} s at slowdown {before:.3} .. {after:.3}");
        setup_secs.push(secs / ((before + after) / 2.0));
        last = Some((fx, info, classifier));
        before = after;
    }
    let (fx, info, classifier) = last.expect("at least one set-up");
    let abp_ips = fx.abp_ips().map_err(io_err)?;
    println!(
        "fixture records {} clean_bytes {} dirty_bytes {} scale_list_bytes {} setup_s {:?}",
        info.records, info.clean_bytes, info.dirty_bytes, info.scale_rules_text_bytes, setup_secs
    );

    let t = Instant::now();
    let reference = workload::reference(wl, &fx, &classifier, &abp_ips).map_err(io_err)?;
    println!("reference computed in {:.3} s", t.elapsed().as_secs_f64());

    let result = if traced {
        let spans = work_root().join(format!("spans.{}.ndjson", wl.name));
        let bench = Bench {
            wl,
            fx: &fx,
            classifier: &classifier,
            abp_ips: &abp_ips,
            reference: &reference,
            rep_dir: &work.rep_dir(),
        };
        let r = ledger::run(&bench, &spans).map_err(io_err)?;
        println!("spans written to {}", spans.display());
        r
    } else {
        drop(classifier);
        fs::write(work.reference_path(), &reference).map_err(io_err)?;
        let mut cmd = self_command().map_err(io_err)?;
        cmd.arg("--measure-in")
            .arg(&work.0)
            .args(["--workload", wl.name])
            .args(["--seconds", &args.seconds.to_string()]);
        if args.quick {
            cmd.arg("--quick");
        }
        let child = run_child(&mut cmd, "")?;
        let mut r = RunResult {
            attempted: child.attempted,
            failed: child.failed,
            metrics: Vec::new(),
        };
        for def in END_TO_END {
            let value = match def.name {
                "setup_s" => median(&setup_secs),
                name => child
                    .get(name)
                    .ok_or(format!("child did not report {name}"))?,
            };
            r.push(END_TO_END, def.name, value);
        }
        r
    };
    if result.correct() {
        let _ = fs::remove_dir_all(&work.0);
    } else {
        eprintln!("[e2e] work directory kept at {}", work.0.display());
    }
    Ok(result)
}

// ---------------------------------------------------------------------------
// Measuring child
// ---------------------------------------------------------------------------

/// Warm-up rep, then timed reps under `rule`; every rep is checked, and
/// the machine's speed is read before and after each. `ns_per_record` is
/// the median of the reps' times at the reference speed (README, "The
/// reference job"); the raw times are printed beside it.
fn measure(b: &Bench, rule: RepRule) -> RunResult {
    let mut tally = Tally::default();
    let calib_before = sys::calib_ms();
    let one = |what: &str, tally: &mut Tally| {
        let rep = b.rep(b.wl.threads);
        let verdict = b.check(&rep.facts);
        let ok = verdict.is_ok();
        tally.record(what, verdict);
        (rep, ok)
    };
    let (mut raw, mut slowdowns, mut at_reference) = (Vec::new(), Vec::new(), Vec::new());
    let (mut cpu_ns, mut records) = (0u64, 0u64);
    workload::placed(b.wl.threads, || {
        one("warm-up rep", &mut tally);
        let (mut timed_secs, mut reps) = (0.0, 0);
        let mut before = sys::slowdown();
        while !rule.done(timed_secs, reps) {
            let (rep, ok) = one("timed rep", &mut tally);
            let after = sys::slowdown();
            timed_secs += rep.wall_ns as f64 / 1e9;
            reps += 1;
            if ok && rep.records > 0 {
                let ns_per_record = rep.wall_ns as f64 / rep.records as f64;
                let slowdown = (before + after) / 2.0;
                raw.push(ns_per_record);
                slowdowns.push(slowdown);
                at_reference.push(ns_per_record / slowdown);
                cpu_ns += rep.cpu_ns;
                records += rep.records;
            }
            before = after;
        }
    });
    let calib_after = sys::calib_ms();
    let (q1, med, q3) = quartiles(&raw).unwrap_or((0.0, 0.0, 0.0));
    println!(
        "reps {} raw ns_per_record q1 {q1:.1} median {med:.1} q3 {q3:.1} raw cpu_ns_per_record {:.1} calib_ms {calib_before:.2} -> {calib_after:.2}",
        raw.len(),
        cpu_ns as f64 / records.max(1) as f64
    );
    println!("each rep, raw ns_per_record: {raw:.0?}");
    println!("each rep, slowdown: {slowdowns:.3?}");

    let mut out = RunResult {
        attempted: tally.attempted,
        failed: tally.failed,
        metrics: Vec::new(),
    };
    out.push(END_TO_END, "ns_per_record", median(&at_reference));
    out.push(END_TO_END, "peak_rss_mb", sys::peak_rss_mib());
    out
}

fn measuring_child(args: &Args, wl: &Workload, dir: &Path) -> Result<RunResult, String> {
    let io_err = |e: io::Error| e.to_string();
    let work = WorkDir(dir.to_path_buf());
    let fx = Fixture {
        dir: work.fixture_dir(),
    };
    let classifier = PassiveClassifier::new(fx.load_lists(wl.lists).map_err(io_err)?);
    let abp_ips = fx.abp_ips().map_err(io_err)?;
    let reference = fs::read_to_string(work.reference_path()).map_err(io_err)?;
    let bench = Bench {
        wl,
        fx: &fx,
        classifier: &classifier,
        abp_ips: &abp_ips,
        reference: &reference,
        rep_dir: &work.rep_dir(),
    };
    Ok(measure(&bench, args.rep_rule()))
}

// ---------------------------------------------------------------------------
// Orchestrator
// ---------------------------------------------------------------------------

/// One workload's results in one set: tracing off, tracing on.
struct SetRow {
    workload: &'static str,
    e2e: RunResult,
    layers: RunResult,
}

fn run_set(args: &Args, chosen: &[&'static Workload]) -> Result<Vec<SetRow>, String> {
    let mut rows = Vec::new();
    for wl in chosen {
        let mut results = Vec::new();
        for trace in ["0", "1"] {
            let mut cmd = self_command().map_err(|e| e.to_string())?;
            cmd.args(["--workload", wl.name])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", trace]);
            if args.quick {
                cmd.arg("--quick");
            }
            results.push(run_child(&mut cmd, "  | ")?);
        }
        let layers = results.pop().expect("two results");
        let e2e = results.pop().expect("two results");
        rows.push(SetRow {
            workload: wl.name,
            e2e,
            layers,
        });
    }
    Ok(rows)
}

fn describe(def: &MetricDef) -> String {
    let bound = match def.bound {
        Some(b) if def.name == FAIL_SHARE.name => format!("bound {b} absolute"),
        Some(b) => format!("bound {b}"),
        None => "no bound".to_string(),
    };
    format!("[{}, {} is better, {bound}]", def.unit, def.better.as_str())
}

fn print_set(rows: &[SetRow]) {
    println!("\n== end-to-end (tracing off), one row per workload ==");
    for def in END_TO_END {
        println!("{} {}: {}", def.name, describe(def), def.definition);
        for row in rows {
            println!(
                "  {:<16} {}",
                row.workload,
                row.e2e.get(def.name).unwrap_or(f64::NAN)
            );
        }
    }
    println!(
        "{} {}: {}",
        FAIL_SHARE.name,
        describe(&FAIL_SHARE),
        FAIL_SHARE.definition
    );
    for row in rows {
        let (a, f) = (
            row.e2e.attempted + row.layers.attempted,
            row.e2e.failed + row.layers.failed,
        );
        println!(
            "  {:<16} {} ({f} of {a} operations)",
            row.workload,
            f as f64 / a.max(1) as f64
        );
    }
    println!("\n== per layer (traced run), one column per workload ==");
    print!("{:<40}", "");
    for row in rows {
        print!(" {:>16}", row.workload);
    }
    println!();
    for def in PER_LAYER {
        print!("{:<40}", format!("{} [{}]", def.name, def.unit));
        for row in rows {
            print!(" {:>16.4}", row.layers.get(def.name).unwrap_or(f64::NAN));
        }
        println!();
        if def.name == "ledger.residual_share" {
            for row in rows {
                let v = row.layers.get(def.name).unwrap_or(f64::NAN);
                println!(
                    "  ledger residual @ {}: {:.2} % of the untraced materialized time (target <= 5 %)",
                    row.workload,
                    v * 100.0
                );
            }
        }
    }
}

/// Per end-to-end metric × workload: the value in every set, the widest
/// relative difference from the first, and PASS / UNRESOLVED against the
/// metric's own bound. UNRESOLVED is a statement about the box, not a
/// failure; the return value says whether the counts repeated exactly,
/// which they must.
fn print_agreement(sets: &[Vec<SetRow>]) -> bool {
    println!("\n== agreement of {} sets of the same code ==", sets.len());
    let mut counts_repeat = true;
    for def in END_TO_END {
        let bound = def.bound.unwrap_or(0.0);
        for (i, row) in sets[0].iter().enumerate() {
            let values: Vec<f64> = sets
                .iter()
                .map(|s| s[i].e2e.get(def.name).unwrap_or(f64::NAN))
                .collect();
            let widest = values[1..]
                .iter()
                .map(|&v| rel_diff(values[0], v))
                .fold(0.0f64, |a, d| if d.abs() > a.abs() { d } else { a });
            let pass = widest.abs() <= bound;
            println!(
                "{:<18} {:<16} {:?} diff {:+.2} % vs bound {:.0} % {}",
                def.name,
                row.workload,
                values,
                widest * 100.0,
                bound * 100.0,
                if pass { "PASS" } else { "UNRESOLVED" }
            );
        }
    }
    for (i, row) in sets[0].iter().enumerate() {
        for name in [
            "netsim.records_read",
            "adscope.normalize_literals",
            "stream.chunks",
            "stream.ckpt_bytes",
            "abp-filter.rules",
        ] {
            let values: Vec<f64> = sets
                .iter()
                .map(|s| s[i].layers.get(name).unwrap_or(f64::NAN))
                .collect();
            let same = values.iter().all(|v| *v == values[0]);
            counts_repeat &= same;
            if !same {
                println!("{name} @ {} does not repeat: {values:?}", row.workload);
            }
        }
    }
    println!(
        "counts (records_read, normalize_literals, chunks, ckpt_bytes, rules) repeat exactly: {counts_repeat}"
    );
    counts_repeat
}

fn orchestrate(args: &Args) -> Result<bool, String> {
    let chosen: Vec<&'static Workload> = WORKLOADS
        .iter()
        .filter(|w| args.workload.is_none() || args.workload.as_deref() == Some(w.name))
        .collect();
    println!(
        "e2e benchmark: seed {} seconds {} sets {} cores {}{}",
        args.seed,
        args.seconds,
        args.sets,
        parallel::available_parallelism(),
        if args.quick {
            " QUICK (numbers not comparable)"
        } else {
            ""
        }
    );
    println!("sizes {:?}", args.sizes());
    for wl in &chosen {
        let listed = if wl.contract {
            ""
        } else {
            " (not in BENCHMARK.json: too noisy to hold to a bound)"
        };
        println!("workload {}{listed}: {}", wl.name, wl.why);
    }
    let mut sets = Vec::new();
    for set in 0..args.sets {
        println!("\n#### set {} of {}", set + 1, args.sets);
        let rows = run_set(args, &chosen)?;
        print_set(&rows);
        sets.push(rows);
    }
    let mut ok = sets
        .iter()
        .flatten()
        .all(|r| r.e2e.correct() && r.layers.correct());
    if sets.len() > 1 {
        ok &= print_agreement(&sets);
    }
    println!("\n== per-layer glossary ==");
    for def in PER_LAYER {
        println!("{} {}: {}", def.name, describe(def), def.definition);
    }
    Ok(ok)
}

// ---------------------------------------------------------------------------
// Self-test of the checker
// ---------------------------------------------------------------------------

/// A checker that cannot fail verifies nothing: run one real rep on a
/// quick fixture, then show that a perturbed reference and a failed call
/// each push `fail_share` above 0.
fn self_test(args: &Args) -> Result<bool, String> {
    let io_err = |e: io::Error| e.to_string();
    let work = WorkDir::create().map_err(io_err)?;
    let wl = &WORKLOADS[3];
    let (fx, _, classifier, _) =
        set_up(&work.fixture_dir(), args.seed, &QUICK, wl).map_err(io_err)?;
    let abp_ips = fx.abp_ips().map_err(io_err)?;
    let reference = workload::reference(wl, &fx, &classifier, &abp_ips).map_err(io_err)?;
    let bench = Bench {
        wl,
        fx: &fx,
        classifier: &classifier,
        abp_ips: &abp_ips,
        reference: &reference,
        rep_dir: &work.rep_dir(),
    };
    let rep = bench.rep(wl.threads);

    let fail_share = |facts: &Result<String, String>, reference: &str| {
        let mut tally = Tally::default();
        tally.record("self-test operation", workload::check(facts, reference));
        tally.failed as f64 / tally.attempted as f64
    };
    let honest = fail_share(&rep.facts, &reference);
    // Perturb one field of the reference: one more ad request.
    let perturbed: String = reference
        .lines()
        .map(|l| match l.strip_prefix("ad_requests ") {
            Some(n) => format!("ad_requests {}\n", n.parse::<u64>().unwrap_or(0) + 1),
            None => format!("{l}\n"),
        })
        .collect();
    eprintln!("[e2e] the two FAILED lines below are the self-test's expected outcome");
    let on_perturbed = fail_share(&rep.facts, &perturbed);
    let on_err = fail_share(&Err("injected error".to_string()), &reference);
    println!("self-test: fail_share honest {honest} perturbed-reference {on_perturbed} failed-call {on_err}");
    let ok = perturbed != reference && honest == 0.0 && on_perturbed > 0.0 && on_err > 0.0;
    if ok {
        let _ = fs::remove_dir_all(&work.0);
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let wl = args.workload.as_deref().and_then(workload::by_name);
    let outcome = match (&args.measure_in, args.trace, wl) {
        _ if args.self_test => self_test(&args),
        (Some(dir), _, Some(wl)) => measuring_child(&args, wl, dir).map(|r| {
            println!("{}", r.to_json());
            r.correct()
        }),
        (None, Some(traced), Some(wl)) => one_run(&args, wl, traced).map(print_result),
        _ => orchestrate(&args),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("[e2e] FAILED: see the lines above");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("[e2e] error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The result line goes last on stdout; the run succeeded if it is correct.
fn print_result(r: RunResult) -> bool {
    println!(
        "fail_share {} ({} of {} operations)",
        r.fail_share(),
        r.failed,
        r.attempted
    );
    println!("{}", r.to_json());
    r.correct()
}
