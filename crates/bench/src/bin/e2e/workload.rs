//! The four workloads, the reference computation each is checked against,
//! and one timed rep of the system under test.

use crate::fixture::{Fixture, Input, ListSet};
use crate::sys;
use adscope::pipeline::{classify_trace_in, ClassifiedTrace, PipelineOptions};
use adscope::stream::{classify_stream_file, CheckpointOptions, StreamOptions, StreamReport};
use adscope::PassiveClassifier;
use netsim::codec::{read_trace_lossy, CodecStats};
use std::collections::HashSet;
use std::fmt::Write as _;
use std::fs::{self, File};
use std::io::{self, BufReader};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Records per stream chunk, for every workload and for the traced run's
/// decode. A quarter of the CLI default (8192): the trace, cut to fit the
/// time cap, holds a quarter of the issue's records, and this keeps its 13
/// or so chunks, so the router and the workers reach a steady state of
/// hand-offs and backpressure instead of starting up and draining.
pub const CHUNK_RECORDS: usize = 2048;
/// Window width in trace seconds, for every workload and its reference.
/// A twelfth of the default hour, as the trace is half an hour long where
/// the issue's was six: 6 windows, so window aggregation has windows to
/// merge and the alert detectors leave their 3-window warm-up.
pub const WINDOW_SECS: f64 = 300.0;
/// `dirty_full_w1` checkpoints after every second chunk.
pub const CHECKPOINT_EVERY_CHUNKS: u64 = 2;

/// One benchmark workload: a closed loop of `classify_stream_file` calls
/// over one on-disk trace, CLI-default `StreamOptions` except
/// `chunk_records`, the window width, and as stated.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub input: Input,
    pub lists: ListSet,
    pub threads: usize,
    /// Every analytics plane on, checkpoints, quarantine sidecar: the
    /// configuration that writes state beside reading it.
    pub full: bool,
    /// Listed in `BENCHMARK.json`, so the driver holds it to the bounds.
    /// Not `easylist_w2`: its router and two workers are three busy threads
    /// on this box's two CPUs, and two sets of ten runs of the same code
    /// spread by 14 and 32 % against a largest allowed bound of 25 %. This
    /// harness still runs and checks it, and every traced run times the
    /// 2-worker stream (`stream.w2_ns_per_record`, `stream.scaling_x`).
    pub contract: bool,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "easylist_w1",
        input: Input::Clean,
        lists: ListSet::Easylist,
        threads: 1,
        full: false,
        contract: true,
        why: "The paper's configuration and the headline: the list-size-dependent layers (adscope normalize, abp-filter) do most of the work.",
    },
    Workload {
        name: "easylist_w2",
        input: Input::Clean,
        lists: ListSet::Easylist,
        threads: 2,
        full: false,
        contract: false,
        why: "Same bytes and lists with router + 2 workers: whether a gain survives routing and backpressure, and the router's serial ceiling.",
    },
    Workload {
        name: "smalllists_w1",
        input: Input::Clean,
        lists: ListSet::Small,
        threads: 1,
        full: false,
        contract: true,
        why: "Bypass for list-size-dependent layers (1 query literal): decode, extract, refmap and the stream hand-off do most of the work.",
    },
    Workload {
        name: "dirty_full_w1",
        input: Input::Dirty,
        lists: ListSet::Small,
        threads: 1,
        full: true,
        contract: true,
        why: "Same layers used differently: lossy salvage, checkpoint and quarantine writes, population, download indicator and alert planes on.",
    },
];

pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Where one rep of a `full` workload writes its state. Emptied before
/// every rep, so no rep ever resumes.
pub struct RepDir(pub PathBuf);

impl RepDir {
    pub fn checkpoint_dir(&self) -> PathBuf {
        self.0.join("ckpt")
    }
    pub fn quarantine_path(&self) -> PathBuf {
        self.0.join("quarantine.ndjson")
    }
    pub fn reset(&self) -> io::Result<()> {
        if self.0.exists() {
            fs::remove_dir_all(&self.0)?;
        }
        fs::create_dir_all(&self.0)
    }
}

impl Workload {
    /// Stage options shared by the stream call and the reference.
    pub fn pipeline_options(&self) -> PipelineOptions {
        let mut opts = PipelineOptions::default();
        opts.population.enabled = self.full;
        opts.window.width_secs = WINDOW_SECS;
        opts
    }

    /// The options of one stream call at `threads` workers.
    pub fn stream_options(&self, threads: usize, abp_ips: &[u32], rep: &RepDir) -> StreamOptions {
        let mut opts = StreamOptions {
            pipeline: self.pipeline_options(),
            threads,
            chunk_records: CHUNK_RECORDS,
            ..StreamOptions::default()
        };
        if self.full {
            opts.abp_ips = abp_ips.to_vec();
            opts.alerts = adscope::alerts::rule_pack();
            opts.quarantine_path = Some(rep.quarantine_path());
            opts.checkpoint = Some(CheckpointOptions {
                every_chunks: CHECKPOINT_EVERY_CHUNKS,
                ..CheckpointOptions::new(rep.checkpoint_dir())
            });
        }
        opts
    }

    /// The same workload with every plane, the sidecar and checkpointing
    /// switched on: what the checkpoint and resume probes run.
    pub fn as_full(&self) -> Workload {
        Workload {
            full: true,
            ..*self
        }
    }
}

/// Everything a run is compared on, as text (one fact per line, so the
/// first differing line names what drifted).
struct Facts<'a> {
    records_read: usize,
    records_skipped: usize,
    requests: u64,
    ad_requests: u64,
    https_flows: u64,
    users: u64,
    degradation: &'a adscope::DegradationReport,
    windows: &'a obs::WindowReport,
    population: Option<String>,
    alerts: Option<String>,
}

impl Facts<'_> {
    fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "records_read {}", self.records_read);
        let _ = writeln!(out, "records_skipped {}", self.records_skipped);
        let _ = writeln!(out, "requests {}", self.requests);
        let _ = writeln!(out, "ad_requests {}", self.ad_requests);
        let _ = writeln!(out, "https_flows {}", self.https_flows);
        let _ = writeln!(out, "users {}", self.users);
        let _ = writeln!(out, "degradation {:?}", self.degradation);
        let _ = writeln!(out, "windows late {}", self.windows.late);
        out.push_str(&self.windows.render_ndjson("adscope"));
        if let Some(p) = &self.population {
            out.push_str("population\n");
            out.push_str(p);
        }
        if let Some(a) = &self.alerts {
            out.push_str("alerts\n");
            out.push_str(a);
        }
        out
    }
}

/// The facts of a materialized result (reference, replay, sharded run).
pub fn facts_of_materialized(
    wl: &Workload,
    ct: &ClassifiedTrace,
    codec: &CodecStats,
    abp_ips: &[u32],
) -> String {
    let users: HashSet<(u32, Option<&str>)> = ct
        .requests
        .iter()
        .map(|r| (r.client_ip, r.user_agent.as_deref()))
        .collect();
    let popts = wl.pipeline_options().population;
    Facts {
        records_read: codec.records_read,
        records_skipped: codec.total_skipped(),
        requests: ct.requests.len() as u64,
        ad_requests: ct.ad_request_count() as u64,
        https_flows: ct.https_flows.len() as u64,
        users: users.len() as u64,
        degradation: &ct.degradation,
        windows: &ct.windows,
        population: wl
            .full
            .then(|| adscope::population::finish_trace(ct, abp_ips, popts).render()),
        alerts: wl.full.then(|| {
            adscope::alerts::evaluate(&ct.windows, adscope::alerts::rule_pack()).render_text()
        }),
    }
    .render()
}

/// The facts of a stream result.
fn facts_of_stream(rep: &StreamReport) -> String {
    Facts {
        records_read: rep.codec.records_read,
        records_skipped: rep.codec.total_skipped(),
        requests: rep.requests,
        ad_requests: rep.ad_requests,
        https_flows: rep.https_flows,
        users: rep.users,
        degradation: &rep.degradation,
        windows: &rep.windows,
        population: rep.population.as_ref().map(|p| p.render()),
        alerts: rep.alerts.as_ref().map(|a| a.render_text()),
    }
    .render()
}

/// Streaming windows run with an infinite watermark, so the materialized
/// runs they are compared with must too.
pub fn materialized_options(wl: &Workload) -> PipelineOptions {
    let mut opts = wl.pipeline_options();
    opts.window.watermark_secs = f64::INFINITY;
    opts
}

/// Reference computation: one-shot lossy decode + the materialized
/// pipeline over the same bytes, lists and planes.
pub fn reference(
    wl: &Workload,
    fx: &Fixture,
    classifier: &PassiveClassifier,
    abp_ips: &[u32],
) -> io::Result<String> {
    let file = BufReader::new(File::open(fx.trace_path(wl.input))?);
    let (trace, codec) = read_trace_lossy(file).map_err(|e| io::Error::other(e.to_string()))?;
    let ct = classify_trace_in(
        &trace,
        classifier,
        materialized_options(wl),
        &obs::Registry::new(),
    );
    Ok(facts_of_materialized(wl, &ct, &codec, abp_ips))
}

/// Counts checked operations; a failure is reported as it happens.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn record(&mut self, what: &str, verdict: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = verdict {
            self.failed += 1;
            eprintln!("[e2e] FAILED {what}: {e}");
        }
    }
}

/// One operation's verdict: `Err` names the first line that differs.
pub fn check(got: &Result<String, String>, reference: &str) -> Result<(), String> {
    let got = got.as_ref().map_err(|e| format!("call failed: {e}"))?;
    if got == reference {
        return Ok(());
    }
    let mut want_lines = reference.lines();
    for (i, g) in got.lines().enumerate() {
        match want_lines.next() {
            Some(w) if w == g => {}
            Some(w) => {
                return Err(format!(
                    "line {}: got {:?}, want {:?}",
                    i + 1,
                    clip(g),
                    clip(w)
                ))
            }
            None => return Err(format!("line {}: unexpected {:?}", i + 1, clip(g))),
        }
    }
    Err(format!(
        "missing {:?}",
        clip(want_lines.next().unwrap_or(""))
    ))
}

fn clip(s: &str) -> &str {
    match s.char_indices().nth(160) {
        Some((i, _)) => &s[..i],
        None => s,
    }
}

/// Where stream calls at `threads` workers run. On a 2-vCPU VM the guest
/// scheduler either stacks a 1-worker stream's router and worker on one
/// vCPU or spreads them over two; spread, the same small-list call takes
/// twice the wall (10 against 4.5 us per record) and 2.4x the CPU, and
/// which of the two it picks holds for minutes and flips without notice:
/// of eight runs in a row at one seed, seven read 9.8-11.4 us and one 5.2.
/// The contract refuses a benchmark whose ten runs spread by more than the
/// bound or whose two medians differ by more, so the `_w1` workloads
/// cannot be that coin. A 1-worker stream is measured restricted to one
/// CPU, where it costs router + worker + hand-off in series; the traced
/// run also times it with every CPU free (`stream.w1_free_*`), which is
/// where overlap and cross-core hand-off show, unbounded. With 2 workers
/// the stream keeps every CPU: that is the workload that measures what the
/// second core buys.
pub fn placed<T>(threads: usize, f: impl FnOnce() -> T) -> T {
    if threads != 1 {
        return f();
    }
    let (out, pinned) = sys::on_one_cpu(f);
    if !pinned {
        eprintln!("[e2e] CPU affinity unavailable: 1-worker reps ran unpinned and may be bimodal");
    }
    out
}

/// What one stream call cost and produced.
pub struct Rep {
    pub wall_ns: u64,
    pub cpu_ns: u64,
    pub records: u64,
    pub facts: Result<String, String>,
    /// Kept for the traced run's counters; `None` when the call failed.
    pub report: Option<StreamReport>,
    pub registry: obs::Registry,
}

/// One workload bound to its generated files, its compiled lists, and the
/// facts every result must equal.
pub struct Bench<'a> {
    pub wl: &'a Workload,
    pub fx: &'a Fixture,
    pub classifier: &'a PassiveClassifier,
    pub abp_ips: &'a [u32],
    pub reference: &'a str,
    pub rep_dir: &'a RepDir,
}

impl Bench<'_> {
    pub fn input(&self) -> PathBuf {
        self.fx.trace_path(self.wl.input)
    }

    /// One closed-loop operation: a fresh registry, a fresh state
    /// directory for `full` workloads, then a single timed
    /// `classify_stream_file` call. The harness starts no thread of its
    /// own around it.
    pub fn rep(&self, threads: usize) -> Rep {
        let opts = self.wl.stream_options(threads, self.abp_ips, self.rep_dir);
        let reset = self.wl.full.then_some(self.rep_dir);
        run_stream(&self.input(), self.classifier, &opts, reset)
    }

    pub fn check(&self, facts: &Result<String, String>) -> Result<(), String> {
        check(facts, self.reference)
    }

    pub fn facts_of_materialized(&self, ct: &ClassifiedTrace, codec: &CodecStats) -> String {
        facts_of_materialized(self.wl, ct, codec, self.abp_ips)
    }
}

/// Time one `classify_stream_file` call with the given options. `reset`
/// names a state directory to empty first.
pub fn run_stream(
    path: &Path,
    classifier: &PassiveClassifier,
    opts: &StreamOptions,
    reset: Option<&RepDir>,
) -> Rep {
    let registry = obs::Registry::new();
    let (wall_ns, cpu_ns, out) = match reset.map(RepDir::reset) {
        Some(Err(e)) => (0, 0, Err(format!("state directory: {e}"))),
        _ => {
            let cpu0 = sys::cpu_time_ns();
            let t = Instant::now();
            let out = classify_stream_file(path, classifier, opts, &registry);
            let wall_ns = t.elapsed().as_nanos() as u64;
            let cpu_ns = sys::cpu_time_ns() - cpu0;
            (wall_ns, cpu_ns, out.map_err(|e| e.to_string()))
        }
    };
    Rep {
        wall_ns,
        cpu_ns,
        records: out.as_ref().map_or(0, |r| r.codec.records_read as u64),
        facts: out.as_ref().map(facts_of_stream).map_err(String::clone),
        report: out.ok(),
        registry,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_names_the_first_difference() {
        let want = "requests 10\nads 2\n";
        assert_eq!(check(&Ok(want.to_string()), want), Ok(()));
        let e = check(&Ok("requests 10\nads 3\n".to_string()), want).unwrap_err();
        assert!(e.starts_with("line 2:"), "{e}");
        let e = check(&Ok("requests 10\n".to_string()), want).unwrap_err();
        assert!(e.starts_with("missing"), "{e}");
        let e = check(&Ok(format!("{want}extra\n")), want).unwrap_err();
        assert!(e.starts_with("line 3: unexpected"), "{e}");
        let e = check(&Err("boom".to_string()), want).unwrap_err();
        assert_eq!(e, "call failed: boom");
    }

    #[test]
    fn only_the_full_workload_writes_state() {
        let rep = RepDir(PathBuf::from("/nonexistent/rep"));
        for wl in &WORKLOADS {
            let opts = wl.stream_options(wl.threads, &[7], &rep);
            assert_eq!(opts.threads, wl.threads);
            assert_eq!(opts.chunk_records, CHUNK_RECORDS);
            assert_eq!(opts.checkpoint.is_some(), wl.full);
            assert_eq!(opts.quarantine_path.is_some(), wl.full);
            assert_eq!(opts.pipeline.population.enabled, wl.full);
            assert_eq!(opts.alerts.is_empty(), !wl.full);
            assert!(opts
                .checkpoint
                .iter()
                .all(|c| c.every_chunks == CHECKPOINT_EVERY_CHUNKS && !c.resume));
        }
        assert_eq!(WORKLOADS.iter().filter(|w| w.full).count(), 1);
        assert!(by_name("easylist_w2").is_some_and(|w| w.threads == 2));
        assert!(by_name("nope").is_none());
    }
}
