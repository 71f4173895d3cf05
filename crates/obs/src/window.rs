//! Deterministic time-window series.
//!
//! Aggregate-at-exit snapshots (the [`crate::registry::Snapshot`] model)
//! cannot answer "what did hour 14 look like" — the paper's §5 temporal
//! characterization, and any live view of a long replay, need *windowed*
//! series. A [`WindowSeries`] keeps fixed-width buckets keyed on a **logical
//! clock fed from trace timestamps**, never the wall clock, so its content
//! is a pure function of the observed `(ts, series, value)` stream:
//! reproducible across runs and merge-safe across shards.
//!
//! Model:
//!
//! * Window `i` covers `[i·width, (i+1)·width)` seconds. The index is
//!   derived from each observation's timestamp, so there is no "current"
//!   window in wall-clock terms, and windows may open in any index order:
//!   the result does not depend on arrival order. The paper's traces are
//!   counted offline, a full census, so no record arrives too late for its
//!   hour and every window closes at the end of a run.
//! * Observations with a non-finite timestamp have no window: they are
//!   **late**, counted once per series observation instead of being
//!   silently dropped — the stream engine bridges them to
//!   `obs_window_late_total`.
//! * The series a window carries are a static schema: two name tables,
//!   counters and histograms, each name spelled once by its producer. A
//!   window holds one cell per series, dense in table order and addressed
//!   by position — no hashing on the hot path. A histogram cell's buckets
//!   ([`HistogramSnapshot`], the crate's log2 buckets) are allocated on its
//!   first observation.
//! * Only windows that record something exist at all: the windows are
//!   sparse (sorted by index), so an outlier timestamp costs one window,
//!   never a dense span — a corrupt-but-finite timestamp in a lossy-decoded
//!   trace cannot balloon memory.
//!
//! A series is additive in place: [`WindowSeries::merge`] adds another
//! series of the same schema cell by cell, so any partition of an
//! observation stream, merged in any grouping, equals the series of the
//! whole — which is what lets the streaming engine cut a series per worker
//! and per checkpoint barrier without giving up determinism.
//! [`WindowSeries::report`] is the one conversion to a [`WindowReport`], the
//! sorted, sparse sequence of [`ClosedWindow`]s a run renders, alerts on and
//! persists: per window, the series that recorded anything, sorted by name.

use crate::metric::{bucket_index, HistogramSnapshot, BUCKETS};

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
        crate::json::write_json_str(&mut out, scope);
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

/// One window's cells: a counter per counter series and a histogram per
/// histogram series of its [`WindowSeries`]'s schema, in table order. A
/// histogram cell's buckets are empty until it is observed.
#[derive(Debug, Clone, PartialEq)]
pub struct Window {
    counters: Box<[u64]>,
    hists: Box<[HistogramSnapshot]>,
}

/// Where a series observation lands: its window's cells, or — its timestamp
/// not finite — the late count, which each observation adds one to.
pub enum Slot<'a> {
    /// The cells of the window holding the timestamp.
    Window(&'a mut Window),
    /// The series' late count.
    Late(&'a mut u64),
}

impl Slot<'_> {
    /// Add `n` to counter series `counter` (its position in the schema).
    #[inline]
    pub fn count(&mut self, counter: usize, n: u64) {
        match self {
            Slot::Window(w) => w.counters[counter] += n,
            Slot::Late(late) => **late += 1,
        }
    }

    /// Record `v` in histogram series `hist` (its position in the schema).
    #[inline]
    pub fn observe(&mut self, hist: usize, v: u64) {
        match self {
            Slot::Window(w) => {
                let h = &mut w.hists[hist];
                if h.buckets.is_empty() {
                    h.buckets = vec![0; BUCKETS];
                }
                h.buckets[bucket_index(v)] += 1;
                h.sum = h.sum.wrapping_add(v);
            }
            Slot::Late(late) => **late += 1,
        }
    }

    /// Add the observations `h` holds to histogram series `hist`: how a
    /// persisted window is restored.
    pub fn merge_hist(&mut self, hist: usize, h: &HistogramSnapshot) {
        match self {
            Slot::Window(w) => w.hists[hist].merge(h),
            Slot::Late(late) => **late += h.count(),
        }
    }
}

/// Windowed series over a static schema. See the module docs for the model.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowSeries {
    counter_names: &'static [&'static str],
    hist_names: &'static [&'static str],
    width_secs: f64,
    /// Sparse, sorted by index: only windows that recorded an observation.
    windows: Vec<(i64, Window)>,
    /// Series observations whose timestamp is not finite.
    pub late: u64,
}

impl WindowSeries {
    /// An empty series of the named counters and histograms, `width_secs`
    /// wide (an hour unless positive and finite).
    pub fn new(
        counters: &'static [&'static str],
        hists: &'static [&'static str],
        width_secs: f64,
    ) -> WindowSeries {
        WindowSeries {
            counter_names: counters,
            hist_names: hists,
            width_secs: if width_secs > 0.0 && width_secs.is_finite() {
                width_secs
            } else {
                3600.0
            },
            windows: Vec::new(),
            late: 0,
        }
    }

    /// The counter names, in cell order.
    pub fn counter_names(&self) -> &'static [&'static str] {
        self.counter_names
    }

    /// The histogram names, in cell order.
    pub fn hist_names(&self) -> &'static [&'static str] {
        self.hist_names
    }

    /// Where observations at `ts` land.
    #[inline]
    pub fn at(&mut self, ts: f64) -> Slot<'_> {
        if ts.is_finite() {
            Slot::Window(self.cells((ts / self.width_secs).floor() as i64))
        } else {
            Slot::Late(&mut self.late)
        }
    }

    /// Where observations in window `index` land.
    pub fn window(&mut self, index: i64) -> Slot<'_> {
        Slot::Window(self.cells(index))
    }

    /// Window `index`'s cells, inserted empty in index order if it has none
    /// yet. The hot path — a stream in time order — finds it last.
    fn cells(&mut self, index: i64) -> &mut Window {
        let windows = &mut self.windows;
        let at = match windows.last() {
            Some((last, _)) if *last == index => windows.len() - 1,
            _ => match windows.binary_search_by_key(&index, |(i, _)| *i) {
                Ok(at) => at,
                Err(at) => {
                    let fresh = Window {
                        counters: vec![0; self.counter_names.len()].into(),
                        hists: vec![HistogramSnapshot::default(); self.hist_names.len()].into(),
                    };
                    windows.insert(at, (index, fresh));
                    at
                }
            },
        };
        &mut windows[at].1
    }

    /// Add `other` (same schema and width) in, cell by cell. Merging is
    /// associative and commutative, so any partition of an observation
    /// stream folds back to the series of the whole.
    pub fn merge(&mut self, other: &WindowSeries) {
        self.late += other.late;
        for (index, theirs) in &other.windows {
            let mine = self.cells(*index);
            for (a, b) in mine.counters.iter_mut().zip(&theirs.counters) {
                *a += b;
            }
            for (a, b) in mine.hists.iter_mut().zip(&theirs.hists) {
                if !b.buckets.is_empty() {
                    a.merge(b);
                }
            }
        }
    }

    /// The report: per window, the non-zero series sorted by name.
    pub fn report(&self) -> WindowReport {
        let windows = self.windows.iter().map(|(index, w)| {
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
                .zip(&w.hists)
                .filter(|(_, h)| h.count() > 0)
                .map(|(n, h)| (*n, h.clone()))
                .collect();
            hists.sort_by_key(|(n, _)| *n);
            ClosedWindow {
                index: *index,
                start_secs: *index as f64 * self.width_secs,
                width_secs: self.width_secs,
                counters,
                hists,
            }
        });
        WindowReport {
            width_secs: self.width_secs,
            windows: windows.collect(),
            late: self.late,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    const COUNTERS: &[&str] = &["requests", "ads", "bytes"];
    const HISTS: &[&str] = &["lat_ms", "gap_ms"];
    const REQUESTS: usize = 0;
    const LAT: usize = 0;

    fn series(width: f64) -> WindowSeries {
        WindowSeries::new(COUNTERS, HISTS, width)
    }

    #[test]
    fn buckets_by_timestamp_not_arrival() {
        let mut e = series(10.0);
        e.at(1.0).count(REQUESTS, 1);
        e.at(25.0).count(REQUESTS, 2);
        e.at(3.0).count(REQUESTS, 4); // out of order: lands in window 0 all the same
        let r = e.report();
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
        let mut e = series(10.0);
        e.at(f64::NAN).count(REQUESTS, 1);
        let mut slot = e.at(f64::INFINITY);
        slot.count(REQUESTS, 1);
        slot.observe(LAT, 5);
        let r = e.report();
        assert_eq!(r.late, 3);
        assert!(r.windows.is_empty());
    }

    #[test]
    fn histograms_bucket_per_window() {
        let mut e = series(10.0);
        e.at(1.0).observe(LAT, 100);
        e.at(2.0).observe(LAT, 200);
        e.at(15.0).observe(LAT, 1000);
        let r = e.report();
        assert_eq!(r.windows[0].hist("lat_ms").unwrap().count(), 2);
        assert_eq!(r.windows[0].hist("lat_ms").unwrap().sum, 300);
        assert_eq!(r.windows[1].hist("lat_ms").unwrap().count(), 1);
        assert!(r.windows[0].hist("gap_ms").is_none());
        assert!(r.windows[0].hist("absent").is_none());
    }

    #[test]
    fn empty_windows_are_elided() {
        let mut e = series(1.0);
        e.at(0.5).count(REQUESTS, 1);
        e.at(5.5).count(REQUESTS, 1);
        let r = e.report();
        let indices: Vec<i64> = r.windows.iter().map(|w| w.index).collect();
        assert_eq!(indices, vec![0, 5]);
    }

    #[test]
    fn hour_totals_rotate_by_start_hour() {
        let mut e = series(3600.0);
        e.at(100.0).count(REQUESTS, 5); // trace hour 0
        e.at(3700.0).count(REQUESTS, 7); // trace hour 1
        e.at(90_000.0).count(REQUESTS, 11); // trace hour 25 → same clock hour as 1
        let hours = e.report().hour_totals(23, "requests");
        assert_eq!(hours[23], 5);
        assert_eq!(hours[0], 18);
    }

    #[test]
    fn ndjson_lines_are_valid_and_tagged() {
        let mut e = series(10.0);
        e.at(1.0).count(REQUESTS, 3);
        e.at(1.0).observe(LAT, 50);
        let json = e.report().render_ndjson("test\"scope");
        assert!(json.contains("\"event\":\"window\""));
        assert!(json.contains("\\\"scope\""), "scope is escaped");
        assert!(json.contains("\"requests\":3"));
        assert!(json.contains("\"count\":1"));
        assert!(json.ends_with('\n'));
    }

    #[test]
    fn negative_timestamps_window_correctly() {
        let mut e = series(10.0);
        e.at(-5.0).count(REQUESTS, 1);
        e.at(5.0).count(REQUESTS, 1);
        let r = e.report();
        assert_eq!(r.windows[0].index, -1);
        assert_eq!(r.windows[0].start_secs, -10.0);
        assert_eq!(r.windows[1].index, 0);
    }

    #[test]
    fn outlier_timestamp_costs_one_window() {
        // One corrupt-but-finite timestamp must cost one window, not a
        // dense span — a ring would allocate every index up to the
        // outlier.
        let mut e = series(3600.0);
        e.at(10.0).count(REQUESTS, 1);
        e.at(1.0e15).count(REQUESTS, 1);
        e.at(20.0).count(REQUESTS, 1);
        assert_eq!(e.windows.len(), 2);
        let r = e.report();
        assert_eq!(r.late, 0);
        assert_eq!(r.windows[0].counter("requests"), 2);
        assert_eq!(r.windows[1].counter("requests"), 1);
    }

    #[test]
    fn zero_or_bad_width_falls_back_to_default() {
        for width in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert_eq!(series(width).report().width_secs, 3600.0);
        }
    }

    /// A timestamp: mostly a few days either side of 0, sometimes not
    /// finite, sometimes a far outlier.
    fn ts() -> impl Strategy<Value = f64> {
        let odd = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1e15, -1e15];
        (0usize..16, -20_000.0f64..400_000.0)
            .prop_map(move |(k, t)| odd.get(k).copied().unwrap_or(t))
    }

    fn value() -> impl Strategy<Value = u64> {
        prop_oneof![Just(0u64), 0u64..100, 0u64..(1 << 40)]
    }

    /// SplitMix64: the parts and the grouping, from one generated seed.
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    proptest! {
        /// A stream of `(ts, series, value)` observations, shuffled, dealt
        /// into random parts, each part folded into its own series and the
        /// parts merged in a random grouping, reports what a naive fold into
        /// ordered maps of the stream reports: the windows, each one's
        /// non-zero series sorted by name, histogram buckets and sums, and
        /// the late count.
        #[test]
        fn window_series_matches_a_naive_fold(
            obs in proptest::collection::vec((ts(), 0usize..5, value()), 0..150),
            parts in 1usize..6,
            seed in 0u64..u64::MAX,
            width in prop_oneof![Just(3600.0), Just(10.0), 0.5f64..5000.0],
        ) {
            type Cells = (BTreeMap<&'static str, u64>, BTreeMap<&'static str, HistogramSnapshot>);
            let mut naive: BTreeMap<i64, Cells> = BTreeMap::new();
            let mut late = 0;
            for &(ts, s, v) in &obs {
                if !ts.is_finite() {
                    late += 1;
                    continue;
                }
                let (counters, hists) = naive.entry((ts / width).floor() as i64).or_default();
                if s < COUNTERS.len() {
                    *counters.entry(COUNTERS[s]).or_default() += v;
                } else {
                    let h = hists.entry(HISTS[s - COUNTERS.len()]).or_default();
                    if h.buckets.is_empty() {
                        h.buckets = vec![0; BUCKETS];
                    }
                    h.buckets[bucket_index(v)] += 1;
                    h.sum = h.sum.wrapping_add(v);
                }
            }
            let want = WindowReport {
                width_secs: width,
                windows: naive
                    .into_iter()
                    .map(|(index, (counters, hists))| ClosedWindow {
                        index,
                        start_secs: index as f64 * width,
                        width_secs: width,
                        counters: counters.into_iter().filter(|(_, v)| *v > 0).collect(),
                        hists: hists.into_iter().collect(),
                    })
                    .collect(),
                late,
            };

            let mut rng = seed;
            let mut order: Vec<usize> = (0..obs.len()).collect();
            for i in (1..order.len()).rev() {
                order.swap(i, next(&mut rng) as usize % (i + 1));
            }
            let mut folded: Vec<WindowSeries> = (0..parts).map(|_| series(width)).collect();
            for i in order {
                let (ts, s, v) = obs[i];
                let mut slot = folded[next(&mut rng) as usize % parts].at(ts);
                if s < COUNTERS.len() {
                    slot.count(s, v);
                } else {
                    slot.observe(s - COUNTERS.len(), v);
                }
            }
            while folded.len() > 1 {
                let from = folded.swap_remove(next(&mut rng) as usize % folded.len());
                let into = next(&mut rng) as usize % folded.len();
                folded[into].merge(&from);
            }
            prop_assert_eq!(folded[0].report(), want);
        }
    }
}
