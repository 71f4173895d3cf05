//! Deterministic time-window engine.
//!
//! Aggregate-at-exit snapshots (the [`crate::registry::Snapshot`] model)
//! cannot answer "what did hour 14 look like" — the paper's §5 temporal
//! characterization, and any live view of a long replay, need *windowed*
//! series. The engine here keeps fixed-width buckets keyed on a **logical
//! clock fed from trace timestamps**, never the wall clock, so the output
//! is a pure function of the observed `(ts, series, value)` stream:
//! reproducible across runs and merge-safe across shards.
//!
//! Model:
//!
//! * Window `i` covers `[i·width, (i+1)·width)` seconds. The index is
//!   derived from each observation's timestamp, so there is no "current"
//!   window in wall-clock terms.
//! * Every window closes at [`WindowEngine::finish`], and windows may open
//!   in any index order: the result does not depend on arrival order. The
//!   paper's traces are counted offline, a full census, so no record can
//!   arrive too late for its hour.
//! * Observations with a non-finite timestamp have no window: they are
//!   **late**, and increment a visible counter instead of being silently
//!   dropped — the stream engine bridges it to `obs_window_late_total`.
//! * Only windows that record something exist at all: the open set is
//!   sparse (sorted by index), so an outlier timestamp costs one
//!   window's allocation, never a dense span — a corrupt-but-finite
//!   timestamp in a lossy-decoded trace cannot balloon memory. As a
//!   final backstop the open set is capped at [`MAX_OPEN_WINDOWS`];
//!   beyond it the extreme window is force-closed early, and
//!   [`WindowEngine::finish`] folds any resulting duplicate indices back
//!   together, so the report stays exact.
//!
//! Series are registered up front and addressed by dense ids
//! ([`CounterId`], [`HistId`]), keeping the per-observation cost at a
//! sparse lookup plus a vector index — no hashing on the hot path.
//! Histogram series reuse the crate's log2 buckets
//! ([`HistogramSnapshot`]), so per-window histograms merge bucket-wise
//! exactly like registry ones.
//!
//! [`WindowEngine::finish`] closes everything and returns a
//! [`WindowReport`] — a sorted, sparse sequence of [`ClosedWindow`]s
//! that merges losslessly with reports built over other partitions of
//! the same stream ([`WindowReport::merge`]): counters add, histograms
//! add bucket-wise, lateness adds. Partition a trace by records, window
//! each part, merge in any order — the result is byte-identical to
//! windowing the whole trace, which is what lets the streaming engine cut
//! window deltas per worker and per checkpoint barrier without giving up
//! determinism.

use crate::metric::{bucket_index, HistogramSnapshot, BUCKETS};
use std::collections::VecDeque;

/// A histogram snapshot with its buckets allocated (the `Default` one is
/// empty, for cheap merge targets).
fn empty_hist() -> HistogramSnapshot {
    HistogramSnapshot {
        buckets: vec![0; BUCKETS],
        sum: 0,
    }
}

/// Window geometry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowConfig {
    /// Window width in (trace) seconds.
    pub width_secs: f64,
}

impl Default for WindowConfig {
    fn default() -> WindowConfig {
        WindowConfig { width_secs: 3600.0 }
    }
}

/// Dense id of a registered counter series.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterId(usize);

/// Dense id of a registered histogram series.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistId(usize);

/// Hard cap on simultaneously open windows. The open set is sparse, so
/// only pathological input (thousands of distinct far-apart timestamps)
/// can approach this; past it the engine force-closes the
/// extreme window rather than growing, and [`WindowEngine::finish`]
/// re-merges any index that was closed early and touched again.
pub const MAX_OPEN_WINDOWS: usize = 4096;

/// One still-open window's cells. An open window exists only once an
/// observation lands in it, so there is no "untouched" state.
#[derive(Debug, Clone)]
struct OpenWindow {
    counters: Vec<u64>,
    hists: Vec<HistogramSnapshot>,
}

impl OpenWindow {
    fn new(ncounters: usize, nhists: usize) -> OpenWindow {
        OpenWindow {
            counters: vec![0; ncounters],
            hists: (0..nhists).map(|_| empty_hist()).collect(),
        }
    }
}

/// An immutable closed window: only the series that recorded anything,
/// sorted by name.
#[derive(Debug, Clone, PartialEq)]
pub struct ClosedWindow {
    /// Window index (`floor(ts / width)`).
    pub index: i64,
    /// Window start in trace seconds (`index · width`).
    pub start_secs: f64,
    /// Window width in seconds.
    pub width_secs: f64,
    /// Non-zero counter series, sorted by name.
    pub counters: Vec<(&'static str, u64)>,
    /// Non-empty histogram series, sorted by name.
    pub hists: Vec<(&'static str, HistogramSnapshot)>,
}

impl ClosedWindow {
    /// A counter's value in this window (0 if the series is absent).
    pub fn counter(&self, name: &str) -> u64 {
        match self.counters.binary_search_by(|(n, _)| (*n).cmp(name)) {
            Ok(i) => self.counters[i].1,
            Err(_) => 0,
        }
    }

    /// A counter as a per-second rate over the window width.
    pub fn rate(&self, name: &str) -> f64 {
        if self.width_secs > 0.0 {
            self.counter(name) as f64 / self.width_secs
        } else {
            0.0
        }
    }

    /// A histogram series, if it recorded anything in this window.
    pub fn hist(&self, name: &str) -> Option<&HistogramSnapshot> {
        match self.hists.binary_search_by(|(n, _)| (*n).cmp(name)) {
            Ok(i) => Some(&self.hists[i].1),
            Err(_) => None,
        }
    }

    /// One NDJSON line describing this window, tagged with a scope so
    /// multiple producers (pipeline, decoder) can share one sink.
    /// Histograms are summarized (count / sum / mean / p50 / p95); the
    /// full buckets stay in memory for merges but don't serialize.
    pub fn to_json(&self, scope: &str) -> String {
        use std::fmt::Write;
        let mut out = String::with_capacity(128);
        out.push_str("{\"event\":\"window\",\"scope\":");
        crate::events::write_json_str(&mut out, scope);
        let _ = write!(
            out,
            ",\"index\":{},\"start_secs\":{},\"width_secs\":{}",
            self.index,
            fmt_f64(self.start_secs),
            fmt_f64(self.width_secs),
        );
        for (name, v) in &self.counters {
            let _ = write!(out, ",\"{name}\":{v}");
        }
        for (name, h) in &self.hists {
            let _ = write!(
                out,
                ",\"{name}\":{{\"count\":{},\"sum\":{},\"mean\":{},\"p50\":{},\"p95\":{}}}",
                h.count(),
                h.sum,
                fmt_f64(h.mean()),
                h.approx_quantile(0.50),
                h.approx_quantile(0.95),
            );
        }
        out.push('}');
        out
    }

    /// Merge another closed window of the same index into this one.
    fn absorb(&mut self, other: &ClosedWindow) {
        debug_assert_eq!(self.index, other.index);
        for (name, v) in &other.counters {
            match self.counters.binary_search_by(|(n, _)| n.cmp(name)) {
                Ok(i) => self.counters[i].1 += v,
                Err(i) => self.counters.insert(i, (name, *v)),
            }
        }
        for (name, h) in &other.hists {
            match self.hists.binary_search_by(|(n, _)| n.cmp(name)) {
                Ok(i) => self.hists[i].1.merge(h),
                Err(i) => self.hists.insert(i, (name, h.clone())),
            }
        }
    }
}

/// JSON number formatting: finite shortest-round-trip, with a decimal
/// point not required (integers print bare). Non-finite never reaches
/// here — timestamps are guarded at observation.
fn fmt_f64(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// The deterministic sequence of closed windows one engine (or a merge
/// of several) produced.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WindowReport {
    /// Window width all entries share.
    pub width_secs: f64,
    /// Closed windows, sorted by index; indices are sparse (empty
    /// windows are elided).
    pub windows: Vec<ClosedWindow>,
    /// Observations whose timestamp is not finite, so has no window.
    /// Never silently dropped: bridged to `obs_window_late_total`.
    pub late: u64,
}

impl WindowReport {
    /// Sum of a counter series across all windows.
    pub fn total(&self, name: &str) -> u64 {
        self.windows.iter().map(|w| w.counter(name)).sum()
    }

    /// Merge another report (same width) into this one: windows align by
    /// index, counters add, histograms merge, lateness adds. Merging is
    /// associative and commutative, so any partition of an observation
    /// stream folds back to the unpartitioned result. Aligning windows
    /// by index is only meaningful when both reports share a width;
    /// merging non-empty reports of different geometry is a caller bug
    /// (debug-asserted — the sharded producers all window with one
    /// shared config).
    pub fn merge(&mut self, other: &WindowReport) {
        if self.windows.is_empty() && self.width_secs == 0.0 {
            self.width_secs = other.width_secs;
        }
        debug_assert!(
            other.windows.is_empty() || self.width_secs == other.width_secs,
            "merging window reports of different widths ({} vs {})",
            self.width_secs,
            other.width_secs,
        );
        self.late += other.late;
        for w in &other.windows {
            match self.windows.binary_search_by_key(&w.index, |x| x.index) {
                Ok(i) => self.windows[i].absorb(w),
                Err(i) => self.windows.insert(i, w.clone()),
            }
        }
    }

    /// Collapse the series onto the 24-hour clock (paper §5): window
    /// starts map to an hour of day via the trace's wall-clock
    /// `start_hour`, and same-hour windows from different days add.
    pub fn hour_totals(&self, start_hour: u32, name: &str) -> [u64; 24] {
        let mut out = [0u64; 24];
        for w in &self.windows {
            let hour = ((f64::from(start_hour) * 3600.0 + w.start_secs) / 3600.0).floor() as i64;
            out[hour.rem_euclid(24) as usize] += w.counter(name);
        }
        out
    }

    /// All windows as NDJSON lines under one scope tag.
    pub fn render_ndjson(&self, scope: &str) -> String {
        let mut out = String::new();
        for w in &self.windows {
            out.push_str(&w.to_json(scope));
            out.push('\n');
        }
        out
    }
}

/// The rolling engine. See the module docs for the model.
#[derive(Debug)]
pub struct WindowEngine {
    cfg: WindowConfig,
    counter_names: Vec<&'static str>,
    hist_names: Vec<&'static str>,
    /// Open windows, sparse, sorted by index. Only indices that recorded
    /// an observation exist; the set extends backward as well as forward
    /// (out-of-order streams).
    open: VecDeque<(i64, OpenWindow)>,
    closed: Vec<ClosedWindow>,
    late: u64,
}

impl WindowEngine {
    /// A new engine. Register series before observing.
    pub fn new(cfg: WindowConfig) -> WindowEngine {
        WindowEngine {
            cfg: WindowConfig {
                width_secs: if cfg.width_secs > 0.0 && cfg.width_secs.is_finite() {
                    cfg.width_secs
                } else {
                    WindowConfig::default().width_secs
                },
            },
            counter_names: Vec::new(),
            hist_names: Vec::new(),
            open: VecDeque::new(),
            closed: Vec::new(),
            late: 0,
        }
    }

    /// Register a counter series (idempotent per name).
    pub fn counter_series(&mut self, name: &'static str) -> CounterId {
        if let Some(i) = self.counter_names.iter().position(|n| *n == name) {
            return CounterId(i);
        }
        self.counter_names.push(name);
        for (_, w) in &mut self.open {
            w.counters.push(0);
        }
        CounterId(self.counter_names.len() - 1)
    }

    /// Register a histogram series (idempotent per name).
    pub fn hist_series(&mut self, name: &'static str) -> HistId {
        if let Some(i) = self.hist_names.iter().position(|n| *n == name) {
            return HistId(i);
        }
        self.hist_names.push(name);
        for (_, w) in &mut self.open {
            w.hists.push(empty_hist());
        }
        HistId(self.hist_names.len() - 1)
    }

    /// Add `n` to a counter series in the window containing `ts`.
    pub fn count(&mut self, ts: f64, id: CounterId, n: u64) {
        if let Some(w) = self.slot(ts) {
            w.counters[id.0] += n;
        }
    }

    /// Record one histogram observation in the window containing `ts`.
    pub fn observe(&mut self, ts: f64, id: HistId, v: u64) {
        if let Some(w) = self.slot(ts) {
            let h = &mut w.hists[id.0];
            h.buckets[bucket_index(v)] += 1;
            h.sum = h.sum.wrapping_add(v);
        }
    }

    /// Observations without a finite timestamp so far.
    pub fn late(&self) -> u64 {
        self.late
    }

    /// Close everything and return the report.
    pub fn finish(mut self) -> WindowReport {
        while !self.open.is_empty() {
            self.close_front();
        }
        // Cap evictions can close one index twice (force-close, reopen,
        // close again); fold duplicates so the report is sorted and
        // unique. The common no-eviction path is already both, so this
        // only appends.
        let mut windows: Vec<ClosedWindow> = Vec::with_capacity(self.closed.len());
        for w in std::mem::take(&mut self.closed) {
            match windows.binary_search_by_key(&w.index, |x| x.index) {
                Ok(i) => windows[i].absorb(&w),
                Err(i) => windows.insert(i, w),
            }
        }
        WindowReport {
            width_secs: self.cfg.width_secs,
            windows,
            late: self.late,
        }
    }

    /// Locate (creating as needed) the open window containing `ts`.
    /// `None` means the timestamp is not finite; the observation has been
    /// counted late.
    fn slot(&mut self, ts: f64) -> Option<&mut OpenWindow> {
        if !ts.is_finite() {
            self.late += 1;
            return None;
        }
        let idx = (ts / self.cfg.width_secs).floor() as i64;
        // Sparse sorted lookup; the monotonic hot path hits the back.
        let pos = match self.open.back() {
            Some((i, _)) if *i == idx => self.open.len() - 1,
            Some((i, _)) if *i < idx => {
                self.open.push_back((idx, self.fresh_window()));
                self.evict_over_cap(self.open.len() - 1)
            }
            _ => match self.open.binary_search_by_key(&idx, |(i, _)| *i) {
                Ok(p) => p,
                Err(p) => {
                    self.open.insert(p, (idx, self.fresh_window()));
                    self.evict_over_cap(p)
                }
            },
        };
        Some(&mut self.open[pos].1)
    }

    fn fresh_window(&self) -> OpenWindow {
        OpenWindow::new(self.counter_names.len(), self.hist_names.len())
    }

    /// Enforce [`MAX_OPEN_WINDOWS`] after an insert at `pos`: when over
    /// the cap, force-close the window at the opposite extreme from the
    /// insertion so the slot just created survives. Returns the (possibly
    /// shifted) position of the inserted window. Early-closed indices can
    /// reopen later; [`WindowEngine::finish`] folds the duplicates.
    fn evict_over_cap(&mut self, pos: usize) -> usize {
        if self.open.len() <= MAX_OPEN_WINDOWS {
            return pos;
        }
        if pos == 0 {
            if let Some((i, w)) = self.open.pop_back() {
                self.push_closed(i, w);
            }
            pos
        } else {
            self.close_front();
            pos - 1
        }
    }

    /// Close the lowest-index open window.
    fn close_front(&mut self) {
        if let Some((i, w)) = self.open.pop_front() {
            self.push_closed(i, w);
        }
    }

    fn push_closed(&mut self, index: i64, w: OpenWindow) {
        let mut counters: Vec<(&'static str, u64)> = self
            .counter_names
            .iter()
            .zip(&w.counters)
            .filter(|(_, v)| **v > 0)
            .map(|(n, v)| (*n, *v))
            .collect();
        counters.sort_by_key(|(n, _)| *n);
        let mut hists: Vec<(&'static str, HistogramSnapshot)> = self
            .hist_names
            .iter()
            .zip(w.hists)
            .filter(|(_, h)| h.count() > 0)
            .map(|(n, h)| (*n, h))
            .collect();
        hists.sort_by_key(|(n, _)| *n);
        self.closed.push(ClosedWindow {
            index,
            start_secs: index as f64 * self.cfg.width_secs,
            width_secs: self.cfg.width_secs,
            counters,
            hists,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine(width: f64) -> (WindowEngine, CounterId, HistId) {
        let mut e = WindowEngine::new(WindowConfig { width_secs: width });
        let c = e.counter_series("requests");
        let h = e.hist_series("lat_ms");
        (e, c, h)
    }

    #[test]
    fn buckets_by_timestamp_not_arrival() {
        let (mut e, c, _) = engine(10.0);
        e.count(1.0, c, 1);
        e.count(25.0, c, 2);
        e.count(3.0, c, 4); // out of order: lands in window 0 all the same
        let r = e.finish();
        assert_eq!(r.late, 0);
        assert_eq!(r.windows.len(), 2);
        assert_eq!(r.windows[0].index, 0);
        assert_eq!(r.windows[0].counter("requests"), 5);
        assert_eq!(r.windows[1].index, 2);
        assert_eq!(r.windows[1].counter("requests"), 2);
        assert_eq!(r.windows[1].rate("requests"), 0.2);
    }

    #[test]
    fn non_finite_ts_counts_late() {
        let (mut e, c, _) = engine(10.0);
        e.count(f64::NAN, c, 1);
        e.count(f64::INFINITY, c, 1);
        let r = e.finish();
        assert_eq!(r.late, 2);
        assert!(r.windows.is_empty());
    }

    #[test]
    fn histograms_bucket_per_window() {
        let (mut e, _, h) = engine(10.0);
        e.observe(1.0, h, 100);
        e.observe(2.0, h, 200);
        e.observe(15.0, h, 1000);
        let r = e.finish();
        assert_eq!(r.windows[0].hist("lat_ms").unwrap().count(), 2);
        assert_eq!(r.windows[0].hist("lat_ms").unwrap().sum, 300);
        assert_eq!(r.windows[1].hist("lat_ms").unwrap().count(), 1);
        assert!(r.windows[0].hist("absent").is_none());
    }

    #[test]
    fn empty_windows_are_elided() {
        let (mut e, c, _) = engine(1.0);
        e.count(0.5, c, 1);
        e.count(5.5, c, 1);
        let r = e.finish();
        let indices: Vec<i64> = r.windows.iter().map(|w| w.index).collect();
        assert_eq!(indices, vec![0, 5]);
    }

    #[test]
    fn merge_of_partitions_equals_whole() {
        // Partition an observation stream in two, window each part,
        // merge — must equal windowing the whole.
        let obs: Vec<(f64, u64)> = (0..200).map(|i| ((i * 7 % 100) as f64, i as u64)).collect();
        let run = |items: &[(f64, u64)]| {
            let (mut e, c, h) = engine(10.0);
            for (ts, v) in items {
                e.count(*ts, c, 1);
                e.observe(*ts, h, *v);
            }
            e.finish()
        };
        let whole = run(&obs);
        let (a, b): (Vec<_>, Vec<_>) = obs.iter().partition(|(_, v)| v % 3 == 0);
        let mut merged = run(&a);
        merged.merge(&run(&b));
        assert_eq!(merged, whole);
        // And merging commutes.
        let mut flipped = run(&b);
        flipped.merge(&run(&a));
        assert_eq!(flipped, whole);
    }

    #[test]
    fn hour_totals_rotate_by_start_hour() {
        let (mut e, c, _) = engine(3600.0);
        e.count(100.0, c, 5); // trace hour 0
        e.count(3700.0, c, 7); // trace hour 1
        e.count(90_000.0, c, 11); // trace hour 25 → same clock hour as 1
        let r = e.finish();
        let hours = r.hour_totals(23, "requests");
        assert_eq!(hours[23], 5);
        assert_eq!(hours[0], 18);
    }

    #[test]
    fn ndjson_lines_are_valid_and_tagged() {
        let (mut e, c, h) = engine(10.0);
        e.count(1.0, c, 3);
        e.observe(1.0, h, 50);
        let r = e.finish();
        let json = r.render_ndjson("test\"scope");
        assert!(json.contains("\"event\":\"window\""));
        assert!(json.contains("\\\"scope\""), "scope is escaped");
        assert!(json.contains("\"requests\":3"));
        assert!(json.contains("\"count\":1"));
        assert!(json.ends_with('\n'));
    }

    #[test]
    fn negative_timestamps_window_correctly() {
        let (mut e, c, _) = engine(10.0);
        e.count(-5.0, c, 1);
        e.count(5.0, c, 1);
        let r = e.finish();
        assert_eq!(r.windows[0].index, -1);
        assert_eq!(r.windows[0].start_secs, -10.0);
        assert_eq!(r.windows[1].index, 0);
    }

    #[test]
    fn outlier_timestamp_does_not_balloon_the_open_set() {
        // One corrupt-but-finite timestamp must cost one window, not a
        // dense span — a ring would allocate every index up to the
        // outlier.
        let (mut e, c, _) = engine(3600.0);
        e.count(10.0, c, 1);
        e.count(1.0e15, c, 1);
        e.count(20.0, c, 1);
        assert!(
            e.open.len() <= 2,
            "open set stays sparse, len={}",
            e.open.len()
        );
        let r = e.finish();
        assert_eq!(r.late, 0);
        assert_eq!(r.windows.len(), 2);
        assert_eq!(r.windows[0].counter("requests"), 2);
        assert_eq!(r.windows[1].counter("requests"), 1);
    }

    #[test]
    fn windows_are_order_insensitive() {
        // Every arrival order of the same observations gives the same
        // report: a record an hour (or a day) behind the highest timestamp
        // still lands in its window, and nothing finite is late.
        let obs: Vec<(f64, u64)> = vec![(5.0, 1), (100.0, 2), (3.0, 4), (86_400.0, 8), (15.0, 16)];
        let run = |items: &[(f64, u64)]| {
            let (mut e, c, h) = engine(10.0);
            for (ts, v) in items {
                e.count(*ts, c, *v);
                e.observe(*ts, h, *v);
            }
            e.finish()
        };
        let sorted = {
            let mut s = obs.clone();
            s.sort_by(|a, b| a.0.total_cmp(&b.0));
            run(&s)
        };
        let mut reversed = obs.clone();
        reversed.reverse();
        for order in [obs.clone(), reversed] {
            assert_eq!(run(&order), sorted);
        }
        assert_eq!(sorted.late, 0);
        let indices: Vec<i64> = sorted.windows.iter().map(|w| w.index).collect();
        assert_eq!(indices, vec![0, 1, 10, 8640]);
        assert_eq!(sorted.windows[0].counter("requests"), 5);
    }

    #[test]
    fn open_cap_force_closes_and_finish_refolds() {
        let (mut e, c, _) = engine(1.0);
        let n = MAX_OPEN_WINDOWS + 10;
        for i in 0..n {
            e.count(i as f64 + 0.5, c, 1);
            assert!(e.open.len() <= MAX_OPEN_WINDOWS);
        }
        // Window 0 was force-closed by the cap; touching it again must
        // reopen it and fold back together at finish.
        e.count(0.5, c, 2);
        let r = e.finish();
        assert_eq!(r.late, 0);
        assert_eq!(r.windows.len(), n);
        let indices: Vec<i64> = r.windows.iter().map(|w| w.index).collect();
        assert!(indices.windows(2).all(|p| p[0] < p[1]), "sorted, unique");
        assert_eq!(r.windows[0].counter("requests"), 3);
        assert_eq!(r.total("requests"), n as u64 + 2);
    }

    #[test]
    fn zero_or_bad_width_falls_back_to_default() {
        let e = WindowEngine::new(WindowConfig { width_secs: 0.0 });
        assert_eq!(e.cfg.width_secs, 3600.0);
    }
}
