//! Live run-health plane: heartbeats, a monotonic progress ledger, and
//! a stall watchdog.
//!
//! Long streaming runs (hours at the target scale) need to be
//! *watchable*: is the run alive, how far along is it, which worker is
//! the slow one, has it wedged? Every [`crate::registry::Registry`]
//! owns one [`Health`]: the `adscope::stream` router calls
//! [`Health::advance`] per chunk, each shard worker beats its
//! [`WorkerHealth`] per batch, and the serve layer renders the whole
//! picture at `/statusz` (human table + NDJSON) and folds the tri-state
//! verdict (`ok` / `degraded` / `stalled`) into `/healthz`.
//!
//! The ledger is monotonic by construction — done-bytes is a
//! `fetch_max` over absolute offsets, records/chunks only add — so a
//! watcher polling `/statusz` never sees progress move backwards, even
//! mid-merge. The [`Watchdog`] is a tiny thread that flips the
//! `stalled` flag and emits a structured `health_stall` event when
//! *nothing* (router or any worker) has progressed inside the wall-time
//! budget, and clears it (emitting `health_recovered`) as soon as
//! progress resumes. A finished run is never stalled.

use crate::events::FieldValue;
use crate::registry::Registry;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Duration;

/// Per-worker liveness: records processed, batches seen, and the
/// logical timestamp of the last beat. Shared with the worker as an
/// `Arc` so beats are one relaxed store each.
#[derive(Debug, Default)]
pub struct WorkerHealth {
    /// Worker index (shard id).
    id: u64,
    records: AtomicU64,
    batches: AtomicU64,
    last_beat_ns: AtomicU64,
}

impl WorkerHealth {
    /// Record a processed batch of `records` at logical time `now_ns`.
    pub fn beat(&self, now_ns: u64, records: u64) {
        self.records.fetch_add(records, Ordering::Relaxed);
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.last_beat_ns.store(now_ns, Ordering::Relaxed);
    }

    /// Worker index.
    pub fn id(&self) -> u64 {
        self.id
    }
}

/// Point-in-time copy of one worker's liveness.
#[derive(Debug, Clone)]
pub struct WorkerSnapshot {
    /// Worker index (shard id).
    pub id: u64,
    /// Records processed so far.
    pub records: u64,
    /// Batches processed so far.
    pub batches: u64,
    /// Logical time of the last beat (0 = never).
    pub last_beat_ns: u64,
}

/// Point-in-time copy of the whole health plane.
#[derive(Debug, Clone)]
pub struct HealthSnapshot {
    /// Is a run currently active (begun and not finished)?
    pub active: bool,
    /// Human label of the current/last run (source + mode).
    pub label: String,
    /// One-line run-manifest header (config identity), if stamped.
    pub header: Option<String>,
    /// Logical time the run began.
    pub started_ns: u64,
    /// Total input bytes, when known (0 = unknown).
    pub total_bytes: u64,
    /// Input bytes consumed (monotonic high-water mark).
    pub done_bytes: u64,
    /// Records routed so far.
    pub done_records: u64,
    /// Chunks routed so far.
    pub done_chunks: u64,
    /// Logical time of the last progress (router or any worker).
    pub last_progress_ns: u64,
    /// Is the watchdog currently reporting a stall?
    pub stalled: bool,
    /// How many stalls the watchdog has flagged over the run.
    pub stalls: u64,
    /// Per-worker liveness, by worker index.
    pub workers: Vec<WorkerSnapshot>,
}

impl HealthSnapshot {
    /// Fraction of input consumed, when the total is known.
    pub fn percent(&self) -> Option<f64> {
        if self.total_bytes == 0 {
            return None;
        }
        Some(100.0 * self.done_bytes as f64 / self.total_bytes as f64)
    }

    /// Mean throughput in bytes/s since the run began.
    pub fn bytes_per_sec(&self, now_ns: u64) -> f64 {
        let elapsed = now_ns.saturating_sub(self.started_ns).max(1) as f64 / 1e9;
        self.done_bytes as f64 / elapsed
    }

    /// Mean throughput in records/s since the run began.
    pub fn records_per_sec(&self, now_ns: u64) -> f64 {
        let elapsed = now_ns.saturating_sub(self.started_ns).max(1) as f64 / 1e9;
        self.done_records as f64 / elapsed
    }

    /// Estimated seconds to completion at the mean byte rate, when the
    /// total is known and any progress has been made.
    pub fn eta_secs(&self, now_ns: u64) -> Option<f64> {
        if self.total_bytes == 0 || self.done_bytes == 0 {
            return None;
        }
        let rate = self.bytes_per_sec(now_ns);
        if rate <= 0.0 {
            return None;
        }
        Some(self.total_bytes.saturating_sub(self.done_bytes) as f64 / rate)
    }
}

/// The health plane owned by a registry. All mutation is lock-free
/// atomics except run begin/finish and worker registration.
#[derive(Debug, Default)]
pub struct Health {
    label: Mutex<String>,
    header: Mutex<Option<String>>,
    active: AtomicBool,
    started_ns: AtomicU64,
    total_bytes: AtomicU64,
    done_bytes: AtomicU64,
    done_records: AtomicU64,
    done_chunks: AtomicU64,
    last_progress_ns: AtomicU64,
    stalled: AtomicBool,
    stalls: AtomicU64,
    workers: RwLock<Vec<Arc<WorkerHealth>>>,
}

impl Health {
    /// Start (or restart) a run: reset the ledger and worker table.
    /// `total_bytes` is the input size when known (0 = unknown).
    pub fn begin_run(&self, label: &str, total_bytes: u64, now_ns: u64) {
        *self.label.lock().expect("health label") = label.to_string();
        self.total_bytes.store(total_bytes, Ordering::Relaxed);
        self.done_bytes.store(0, Ordering::Relaxed);
        self.done_records.store(0, Ordering::Relaxed);
        self.done_chunks.store(0, Ordering::Relaxed);
        self.started_ns.store(now_ns, Ordering::Relaxed);
        self.last_progress_ns.store(now_ns, Ordering::Relaxed);
        self.stalled.store(false, Ordering::Relaxed);
        self.workers.write().expect("health workers").clear();
        self.active.store(true, Ordering::Release);
    }

    /// Attach the run-manifest header line shown at `/statusz` (the
    /// run's config identity).
    pub fn set_header(&self, header: String) {
        *self.header.lock().expect("health header") = Some(header);
    }

    /// Register (or fetch) the liveness slot for worker `id`.
    pub fn worker(&self, id: u64) -> Arc<WorkerHealth> {
        {
            let workers = self.workers.read().expect("health workers");
            if let Some(w) = workers.iter().find(|w| w.id == id) {
                return Arc::clone(w);
            }
        }
        let mut workers = self.workers.write().expect("health workers");
        if let Some(w) = workers.iter().find(|w| w.id == id) {
            return Arc::clone(w);
        }
        let w = Arc::new(WorkerHealth {
            id,
            ..WorkerHealth::default()
        });
        workers.push(Arc::clone(&w));
        workers.sort_by_key(|w| w.id);
        w
    }

    /// Router-side progress: input consumed up to absolute offset
    /// `bytes_offset` (monotonic `fetch_max`; pass 0 when offsets are
    /// meaningless), `records` and `chunks` newly routed.
    pub fn advance(&self, now_ns: u64, bytes_offset: u64, records: u64, chunks: u64) {
        self.done_bytes.fetch_max(bytes_offset, Ordering::Relaxed);
        self.done_records.fetch_add(records, Ordering::Relaxed);
        self.done_chunks.fetch_add(chunks, Ordering::Relaxed);
        self.last_progress_ns.store(now_ns, Ordering::Relaxed);
    }

    /// Mark the run finished: a completed run is never stalled.
    pub fn finish_run(&self, now_ns: u64) {
        self.last_progress_ns.store(now_ns, Ordering::Relaxed);
        self.active.store(false, Ordering::Release);
        self.stalled.store(false, Ordering::Relaxed);
    }

    /// Is a run currently active?
    pub fn active(&self) -> bool {
        self.active.load(Ordering::Acquire)
    }

    /// Is the watchdog currently reporting a stall? Pairs with the
    /// `Release` in the watchdog's `Health::flag_stall`: a reader that sees `true` also
    /// sees the stall counter, gauge and event published before it.
    pub fn stalled(&self) -> bool {
        self.stalled.load(Ordering::Acquire)
    }

    /// Logical time of the most recent progress anywhere: the router's
    /// last advance or any worker's last beat, whichever is later.
    pub fn last_progress_ns(&self) -> u64 {
        let mut last = self.last_progress_ns.load(Ordering::Relaxed);
        for w in self.workers.read().expect("health workers").iter() {
            last = last.max(w.last_beat_ns.load(Ordering::Relaxed));
        }
        last
    }

    /// Point-in-time copy of the whole plane.
    pub fn snapshot(&self) -> HealthSnapshot {
        let workers = self
            .workers
            .read()
            .expect("health workers")
            .iter()
            .map(|w| WorkerSnapshot {
                id: w.id,
                records: w.records.load(Ordering::Relaxed),
                batches: w.batches.load(Ordering::Relaxed),
                last_beat_ns: w.last_beat_ns.load(Ordering::Relaxed),
            })
            .collect();
        HealthSnapshot {
            active: self.active(),
            label: self.label.lock().expect("health label").clone(),
            header: self.header.lock().expect("health header").clone(),
            started_ns: self.started_ns.load(Ordering::Relaxed),
            total_bytes: self.total_bytes.load(Ordering::Relaxed),
            done_bytes: self.done_bytes.load(Ordering::Relaxed),
            done_records: self.done_records.load(Ordering::Relaxed),
            done_chunks: self.done_chunks.load(Ordering::Relaxed),
            last_progress_ns: self.last_progress_ns.load(Ordering::Relaxed),
            stalled: self.stalled(),
            stalls: self.stalls.load(Ordering::Relaxed),
            workers,
        }
    }

    /// Watchdog-side transition into the stalled state; a no-op when
    /// already stalled. `announce` (the watchdog's counter, gauge and
    /// event) runs before the flag is published (`Release`, read with
    /// `Acquire` in [`Health::stalled`]), so nobody can observe the stall
    /// without them. Only the watchdog thread sets the flag, so
    /// check-then-set cannot announce one stall twice.
    fn flag_stall(&self, announce: impl FnOnce()) {
        if self.stalled.load(Ordering::Relaxed) {
            return;
        }
        self.stalls.fetch_add(1, Ordering::Relaxed);
        announce();
        self.stalled.store(true, Ordering::Release);
    }

    /// Watchdog-side recovery. Returns true if this call cleared it.
    fn clear_stall(&self) -> bool {
        self.stalled.swap(false, Ordering::Relaxed)
    }
}

/// Handle to a running [`Watchdog`] thread; requests shutdown and joins
/// on drop.
#[derive(Debug)]
pub struct Watchdog {
    shutdown: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl Watchdog {
    /// Ask the watchdog loop to exit and wait for it.
    pub fn join(mut self) {
        self.shutdown.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// Spawn a watchdog over `registry`'s health plane: while a run is
/// active, if no router advance and no worker beat lands within
/// `budget`, bump `obs_health_stalls_total`, set the
/// `obs_health_stalled` gauge, emit a `health_stall` event and then flip
/// the stalled flag (last, so whoever sees the flag sees the rest);
/// clear and emit `health_recovered` when progress resumes. The loop
/// polls at `budget / 4` clamped to [10 ms, 250 ms], so a stall is
/// flagged within ~1.25× the budget.
pub fn spawn_watchdog(registry: &'static Registry, budget: Duration) -> std::io::Result<Watchdog> {
    let shutdown = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&shutdown);
    let budget_ns = budget.as_nanos() as u64;
    let tick = (budget / 4).clamp(Duration::from_millis(10), Duration::from_millis(250));
    let thread = std::thread::Builder::new()
        .name("obs-watchdog".into())
        .spawn(move || {
            let health = registry.health();
            while !flag.load(Ordering::Relaxed) {
                std::thread::sleep(tick);
                if !health.active() {
                    if health.clear_stall() {
                        registry.gauge("obs_health_stalled").set(0.0);
                    }
                    continue;
                }
                let now = registry.elapsed_ns();
                let idle = now.saturating_sub(health.last_progress_ns());
                if idle > budget_ns {
                    health.flag_stall(|| {
                        registry.counter("obs_health_stalls_total").inc();
                        registry.gauge("obs_health_stalled").set(1.0);
                        registry.event(
                            "health_stall",
                            vec![
                                ("idle_ms", FieldValue::U64(idle / 1_000_000)),
                                ("budget_ms", FieldValue::U64(budget_ns / 1_000_000)),
                                (
                                    "done_records",
                                    FieldValue::U64(health.snapshot().done_records),
                                ),
                            ],
                        );
                    });
                } else if health.clear_stall() {
                    registry.gauge("obs_health_stalled").set(0.0);
                    registry.event(
                        "health_recovered",
                        vec![("idle_ms", FieldValue::U64(idle / 1_000_000))],
                    );
                }
            }
        })?;
    Ok(Watchdog {
        shutdown,
        thread: Some(thread),
    })
}

/// Tri-state verdict folded into `/healthz`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Everything nominal.
    Ok,
    /// Progressing, but something was lost or recovered along the way
    /// (dropped event lines, quarantined poison, a paging alert).
    Degraded,
    /// The watchdog says nothing is progressing.
    Stalled,
}

impl Verdict {
    /// Wire name (`ok` / `degraded` / `stalled`).
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Degraded => "degraded",
            Verdict::Stalled => "stalled",
        }
    }
}

/// Compute the current verdict: stalled beats degraded beats ok.
/// Degraded means lossy-but-alive: the event log dropped lines, or
/// poison records were quarantined — or the alert plane has a
/// page-severity alert firing (see [`crate::alert`]). Dataset-quality
/// degradation reasons (content-type fallbacks, refmap misses, ...)
/// deliberately do NOT trip it — they describe the input, not the run's
/// health, and are non-zero on every realistic trace.
pub fn verdict(registry: &Registry) -> Verdict {
    if registry.health().stalled() {
        return Verdict::Stalled;
    }
    let snap = registry.snapshot();
    let lossy = snap.counter_sum("obs_events_dropped_total")
        + snap.counter(
            "adscope_degradation_total",
            &[("reason", "poisoned_records")],
        );
    let paging = matches!(
        snap.get("obs_alerts_firing", &[("severity", "page")]),
        Some(crate::registry::SampleValue::Gauge(g)) if *g > 0.0
    );
    if lossy > 0 || paging {
        Verdict::Degraded
    } else {
        Verdict::Ok
    }
}

fn fmt_bytes(b: u64) -> String {
    if b >= 1 << 30 {
        format!("{:.2} GiB", b as f64 / (1u64 << 30) as f64)
    } else if b >= 1 << 20 {
        format!("{:.2} MiB", b as f64 / (1u64 << 20) as f64)
    } else if b >= 1 << 10 {
        format!("{:.1} KiB", b as f64 / 1024.0)
    } else {
        format!("{b} B")
    }
}

/// Render the human `/statusz` table.
pub fn render_statusz(registry: &Registry) -> String {
    let now = registry.elapsed_ns();
    let s = registry.health().snapshot();
    let v = verdict(registry);
    let snap = registry.snapshot();
    let mut out = String::with_capacity(1024);
    let _ = writeln!(out, "# statusz — run health plane");
    if let Some(h) = &s.header {
        let _ = writeln!(out, "manifest:  {h}");
    }
    let _ = writeln!(
        out,
        "run:       {}  ({})",
        if s.label.is_empty() { "-" } else { &s.label },
        if s.active { "active" } else { "idle" }
    );
    let _ = writeln!(
        out,
        "health:    {} (stalls so far: {})",
        v.as_str(),
        s.stalls
    );
    match s.percent() {
        Some(pct) => {
            let _ = writeln!(
                out,
                "progress:  {:.1}%  ({} / {})",
                pct,
                fmt_bytes(s.done_bytes),
                fmt_bytes(s.total_bytes)
            );
        }
        None => {
            let _ = writeln!(
                out,
                "progress:  {} (total unknown)",
                fmt_bytes(s.done_bytes)
            );
        }
    }
    let _ = writeln!(
        out,
        "routed:    {} records in {} chunks",
        s.done_records, s.done_chunks
    );
    let _ = writeln!(
        out,
        "rate:      {}/s, {:.0} records/s",
        fmt_bytes(s.bytes_per_sec(now) as u64),
        s.records_per_sec(now)
    );
    match s.eta_secs(now) {
        Some(eta) => {
            let _ = writeln!(out, "eta:       {eta:.1} s");
        }
        None => {
            let _ = writeln!(out, "eta:       -");
        }
    }
    let _ = writeln!(
        out,
        "last beat: {:.0} ms ago",
        now.saturating_sub(registry.health().last_progress_ns()) as f64 / 1e6
    );
    if let Some(rss) = crate::process::peak_rss_bytes() {
        let _ = writeln!(out, "peak rss:  {}", fmt_bytes(rss));
    }
    // Table-3-so-far: the streaming population plane publishes per-class
    // gauges at each checkpoint barrier; show them whenever present so a
    // live run's population health is visible in one place.
    let class_counts: Vec<String> = ["A", "B", "C", "D"]
        .iter()
        .filter_map(
            |c| match snap.get("obs_population_class_users", &[("class", c)]) {
                Some(crate::registry::SampleValue::Gauge(g)) => Some(format!("{c}={}", *g as u64)),
                _ => None,
            },
        )
        .collect();
    if !class_counts.is_empty() {
        let _ = writeln!(out, "classes:   {}", class_counts.join("  "));
    }
    // Alert-plane-so-far: firing counts per severity, published by the
    // alert engine at each barrier (absent until one runs).
    let alert_counts: Vec<String> = ["info", "warn", "page"]
        .iter()
        .filter_map(
            |sev| match snap.get("obs_alerts_firing", &[("severity", sev)]) {
                Some(crate::registry::SampleValue::Gauge(g)) => {
                    Some(format!("{sev}={}", *g as u64))
                }
                _ => None,
            },
        )
        .collect();
    if !alert_counts.is_empty() {
        let _ = writeln!(out, "alerts:    {}", alert_counts.join("  "));
    }
    if !s.workers.is_empty() {
        let _ = writeln!(out, "\nworker   records      batches   queue   beat-age-ms");
        for w in &s.workers {
            let depth = match snap.get(
                "adscope_stream_queue_depth",
                &[("worker", &w.id.to_string())],
            ) {
                Some(crate::registry::SampleValue::Gauge(g)) => *g as i64,
                _ => 0,
            };
            let age_ms = if w.last_beat_ns == 0 {
                -1.0
            } else {
                now.saturating_sub(w.last_beat_ns) as f64 / 1e6
            };
            let _ = writeln!(
                out,
                "{:<6}   {:<11}  {:<8}  {:<6}  {:.0}",
                w.id, w.records, w.batches, depth, age_ms
            );
        }
    }
    out
}

/// Render `/statusz/ndjson`: one `statusz` line followed by one
/// `worker` line per worker (same escaping as `netsim::json`).
pub fn render_statusz_ndjson(registry: &Registry) -> String {
    let now = registry.elapsed_ns();
    let s = registry.health().snapshot();
    let v = verdict(registry);
    let snap = registry.snapshot();
    let mut out = String::with_capacity(512);
    out.push_str("{\"event\":\"statusz\",\"status\":");
    crate::events::write_json_str(&mut out, v.as_str());
    out.push_str(",\"run\":");
    crate::events::write_json_str(&mut out, &s.label);
    out.push_str(",\"manifest\":");
    match &s.header {
        Some(h) => crate::events::write_json_str(&mut out, h),
        None => out.push_str("null"),
    }
    let _ = write!(
        out,
        ",\"active\":{},\"stalled\":{},\"stalls\":{},\"total_bytes\":{},\"done_bytes\":{},\
         \"done_records\":{},\"done_chunks\":{},\"workers\":{}",
        s.active,
        s.stalled,
        s.stalls,
        s.total_bytes,
        s.done_bytes,
        s.done_records,
        s.done_chunks,
        s.workers.len()
    );
    match s.percent() {
        Some(p) => {
            let _ = write!(out, ",\"percent\":{p:.3}");
        }
        None => out.push_str(",\"percent\":null"),
    }
    let _ = write!(out, ",\"bytes_per_sec\":{:.1}", s.bytes_per_sec(now));
    match s.eta_secs(now) {
        Some(e) => {
            let _ = write!(out, ",\"eta_secs\":{e:.3}");
        }
        None => out.push_str(",\"eta_secs\":null"),
    }
    out.push_str("}\n");
    for w in &s.workers {
        let depth = match snap.get(
            "adscope_stream_queue_depth",
            &[("worker", &w.id.to_string())],
        ) {
            Some(crate::registry::SampleValue::Gauge(g)) => *g as i64,
            _ => 0,
        };
        let _ = writeln!(
            out,
            "{{\"event\":\"worker\",\"id\":{},\"records\":{},\"batches\":{},\"queue_depth\":{},\
             \"last_beat_ns\":{}}}",
            w.id, w.records, w.batches, depth, w.last_beat_ns
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_is_monotonic_and_resets_on_begin() {
        let r = Registry::new();
        let h = r.health();
        h.begin_run("test", 1000, 5);
        h.advance(10, 400, 7, 1);
        h.advance(20, 300, 3, 1); // lower offset must not move bytes back
        let s = h.snapshot();
        assert_eq!(s.done_bytes, 400);
        assert_eq!(s.done_records, 10);
        assert_eq!(s.done_chunks, 2);
        assert!(s.active);
        h.finish_run(30);
        assert!(!h.snapshot().active);
        h.begin_run("again", 0, 40);
        let s = h.snapshot();
        assert_eq!(s.done_bytes, 0);
        assert_eq!(s.done_records, 0);
        assert_eq!(s.label, "again");
    }

    #[test]
    fn worker_beats_feed_last_progress() {
        let r = Registry::new();
        let h = r.health();
        h.begin_run("test", 0, 1);
        let w0 = h.worker(0);
        let w1 = h.worker(1);
        w0.beat(50, 10);
        w1.beat(90, 20);
        assert_eq!(h.last_progress_ns(), 90);
        assert_eq!(h.worker(0).records.load(Ordering::Relaxed), 10);
        assert_eq!(h.snapshot().workers.len(), 2);
        // Re-registration returns the same slot.
        h.worker(0).beat(100, 1);
        assert_eq!(h.snapshot().workers[0].records, 11);
    }

    #[test]
    fn eta_and_percent_derive_from_the_ledger() {
        let r = Registry::new();
        let h = r.health();
        h.begin_run("test", 1_000, 0);
        h.advance(2_000_000_000, 250, 5, 1); // 250 bytes in 2 s
        let s = h.snapshot();
        assert_eq!(s.percent(), Some(25.0));
        let rate = s.bytes_per_sec(2_000_000_000);
        assert!((rate - 125.0).abs() < 1.0, "rate {rate}");
        let eta = s.eta_secs(2_000_000_000).unwrap();
        assert!((eta - 6.0).abs() < 0.1, "eta {eta}");
    }

    #[test]
    fn watchdog_flags_a_stall_and_recovers() {
        let r: &'static Registry = Box::leak(Box::new(Registry::new()));
        let h = r.health();
        h.begin_run("stall-test", 0, r.elapsed_ns());
        let wd = spawn_watchdog(r, Duration::from_millis(60)).expect("spawn");
        // No progress: the watchdog must flip stalled within ~a budget
        // plus a few ticks.
        let mut saw_stall = false;
        for _ in 0..100 {
            std::thread::sleep(Duration::from_millis(10));
            if h.stalled() {
                saw_stall = true;
                break;
            }
        }
        assert!(saw_stall, "watchdog never flagged the stall");
        assert_eq!(r.snapshot().counter("obs_health_stalls_total", &[]), 1);
        // Progress resumes: the flag must clear.
        h.advance(r.elapsed_ns(), 10, 1, 1);
        let mut recovered = false;
        for _ in 0..100 {
            if !h.stalled() {
                recovered = true;
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
            h.advance(r.elapsed_ns(), 20, 1, 1);
        }
        assert!(recovered, "watchdog never cleared the stall");
        // A finished run is never stalled.
        h.finish_run(r.elapsed_ns());
        std::thread::sleep(Duration::from_millis(150));
        assert!(!h.stalled());
        wd.join();
        let events = r.events_ndjson();
        assert!(events.contains("\"event\":\"health_stall\""), "{events}");
    }

    #[test]
    fn verdict_prefers_stalled_then_degraded() {
        let r = Registry::new();
        assert_eq!(verdict(&r), Verdict::Ok);
        // Dataset-quality degradation never trips the verdict...
        r.counter_with("adscope_degradation_total", &[("reason", "refmap_misses")])
            .add(100);
        assert_eq!(verdict(&r), Verdict::Ok);
        // ...but quarantined poison does.
        r.counter_with(
            "adscope_degradation_total",
            &[("reason", "poisoned_records")],
        )
        .inc();
        assert_eq!(verdict(&r), Verdict::Degraded);
        r.health().begin_run("t", 0, 0);
        r.health().flag_stall(|| {});
        assert_eq!(verdict(&r), Verdict::Stalled);
        r.health().clear_stall();
        assert_eq!(verdict(&r), Verdict::Degraded);
    }

    #[test]
    fn statusz_renders_both_forms() {
        let r = Registry::new();
        let h = r.health();
        h.begin_run("rbn1-file", 1000, 0);
        h.set_header("stream config_fnv=42".into());
        h.advance(1_000_000, 500, 42, 3);
        h.worker(0).beat(1_000_000, 40);
        let text = render_statusz(&r);
        assert!(text.contains("rbn1-file"), "{text}");
        assert!(text.contains("50.0%"), "{text}");
        assert!(text.contains("config_fnv=42"), "{text}");
        assert!(text.contains("worker"), "{text}");
        let nd = render_statusz_ndjson(&r);
        let first = nd.lines().next().unwrap();
        assert!(first.contains("\"event\":\"statusz\""), "{first}");
        assert!(first.contains("\"done_records\":42"), "{first}");
        assert!(nd.lines().any(|l| l.contains("\"event\":\"worker\"")));
    }
}
