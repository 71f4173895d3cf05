//! **obs** — the workspace's observability core.
//!
//! The pipeline is a multi-stage funnel (extract → refmap → content-type
//! inference → normalize → ABP match → user inference), and every perf or
//! scaling claim about it needs to know *where* requests, bytes and time
//! go. This crate is the measurement substrate: a structured-event core
//! small enough to live below every other crate in the workspace.
//!
//! Design constraints, in order:
//!
//! 1. **Zero dependencies** — `obs` sits underneath `netsim`, `abp-filter`
//!    and `adscope`, so it can only use `std`. (Its NDJSON output is
//!    escaped by [`write_json_str`], which `netsim::json::write_str`
//!    delegates to, and the integration tests parse it back with
//!    `netsim::json::parse`.)
//! 2. **Atomic hot paths** — [`Counter::add`] and [`Histogram::record`]
//!    are one relaxed atomic RMW each. Registry lookups (hashing, a
//!    read-write lock) happen only when a handle is acquired; hot loops
//!    acquire handles once and batch their adds.
//! 3. **Global or injected** — [`global()`] returns the process-wide
//!    [`Registry`]; every instrumented API also accepts an explicit
//!    registry so tests can observe a hermetic one.
//! 4. **Kill switch** — [`set_enabled`]`(false)` turns every record/add
//!    into a branch on one relaxed atomic load, which is how the bench
//!    suite measures the instrumentation overhead against an
//!    uninstrumented baseline.
//!
//! Two snapshot-consistent sinks render a [`Registry`]:
//! [`Registry::render_prometheus`] (text exposition, see [`prometheus`])
//! and [`Registry::events_ndjson`] (the structured span/event log, see
//! [`events`]). The span histograms are the one record of wall time;
//! [`span::render_stages`] renders them as the stage table.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alert;
pub mod detect;
pub mod events;
pub mod health;
pub mod manifest;
pub mod metric;
pub mod process;
pub mod prometheus;
pub mod registry;
pub mod serve;
pub mod sketch;
pub mod span;
pub mod trace;
pub mod window;

pub use alert::{
    rules_fnv, AlertEngine, AlertEvent, AlertEventKind, AlertRule, Direction, Phase, SeriesSpec,
    Severity,
};
pub use detect::{Detector, DetectorSpec};
pub use events::{find_newline, find_string_stop, write_json_str, Event, EventLog, FieldValue};
pub use health::{spawn_watchdog, Health, HealthSnapshot, Verdict, Watchdog, WorkerHealth};
pub use manifest::{
    atomic_write, atomic_write_with, fnv64, fnv64_file, fnv64_lines_unordered, sum64,
    sweep_temp_files, Artifact, DigestMode, RunManifest, Sum64,
};
pub use metric::{Counter, Gauge, Histogram, HistogramSnapshot, BUCKETS};
pub use process::{open_fds, peak_rss_bytes, record_peak_rss, record_process, start_time_seconds};
pub use prometheus::{escape_label, unescape_label, validate_exposition};
pub use registry::{MetricKey, Registry, SampleValue, Snapshot};
pub use serve::{serve, ServerHandle};
pub use sketch::{Distinct64, QuantileSketch, TopEntry, TopK, QUANTILE_GAMMA};
pub use span::Span;
pub use trace::{SampleCause, SpanId, TraceId};
pub use window::{ClosedWindow, Slot, WindowReport, WindowSeries};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

static GLOBAL: OnceLock<Registry> = OnceLock::new();
static ENABLED: AtomicBool = AtomicBool::new(true);

/// The process-wide registry. Created on first use; never torn down.
pub fn global() -> &'static Registry {
    GLOBAL.get_or_init(Registry::new)
}

/// This crate's version, recorded in run manifests.
pub const VERSION: &str = env!("CARGO_PKG_VERSION");

/// Turn all recording on or off, process-wide (affects injected
/// registries too). Off, every hot-path call reduces to one relaxed
/// atomic load — the uninstrumented baseline for overhead benches.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Is recording currently enabled?
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_registry_is_shared() {
        let c1 = global().counter("obs_selftest_total");
        let c2 = global().counter("obs_selftest_total");
        let before = c1.get();
        c2.add(3);
        assert_eq!(c1.get(), before + 3, "handles share the same cell");
    }
}
