//! RAII span timers. A [`Span`] measures the wall time between its
//! creation and its drop and records it into the `{name}_duration_ns`
//! histogram on its registry.
//!
//! The histograms are the one record of wall time: [`render_stages`]
//! turns them into the stage table `/profile` serves. Every span opened
//! outside tests is a root on its thread, so a stage's self time is its
//! total and no call tree is kept.

use crate::metric::Histogram;
use crate::registry::{Registry, SampleValue, Snapshot};
use std::fmt::Write as _;
use std::time::Instant;

/// A running span timer (see module docs). Records when dropped.
#[must_use = "a span measures the scope it lives in; binding it to _ ends it immediately"]
#[derive(Debug)]
pub struct Span {
    /// The span's histogram, acquired at the start while recording is
    /// enabled.
    histogram: Option<Histogram>,
    start: Instant,
}

impl Span {
    pub(crate) fn start(registry: &Registry, name: &'static str, labels: &[(&str, &str)]) -> Span {
        let histogram = crate::enabled()
            .then(|| registry.histogram_with(&format!("{name}_duration_ns"), labels));
        Span {
            histogram,
            start: Instant::now(),
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(histogram) = &self.histogram {
            histogram.record(self.start.elapsed().as_nanos() as u64);
        }
    }
}

/// The stage table: one row per non-empty `*_duration_ns` histogram in
/// `snap` — calls, total, mean and p95 wall time (the p95 is its log2
/// bucket's upper bound), then the span name and labels — in snapshot
/// order.
pub fn render_stages(snap: &Snapshot) -> String {
    let ms = |ns: f64| ns / 1e6;
    let mut out = format!(
        "{:>10}  {:>12}  {:>12}  {:>12}  stage\n",
        "calls", "total_ms", "mean_ms", "p95_ms"
    );
    for (key, value) in &snap.samples {
        let (Some(stage), SampleValue::Histogram(h)) =
            (key.name.strip_suffix("_duration_ns"), value)
        else {
            continue;
        };
        if h.count() == 0 {
            continue;
        }
        let _ = write!(
            out,
            "{:>10}  {:>12.3}  {:>12.3}  {:>12.3}  {stage}",
            h.count(),
            ms(h.sum as f64),
            ms(h.mean()),
            ms(h.approx_quantile(0.95) as f64),
        );
        for (k, v) in &key.labels {
            let _ = write!(out, " {k}={v}");
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;

    #[test]
    fn span_records_its_histogram() {
        let r = Registry::new();
        drop(r.span_with("stage", &[("stage", "extract")]));
        let snap = r.snapshot();
        let h = snap
            .histogram("stage_duration_ns", &[("stage", "extract")])
            .expect("histogram recorded");
        assert_eq!(h.count(), 1);
    }

    #[test]
    fn stage_table_has_one_row_per_span_histogram() {
        let r = Registry::new();
        drop(r.span_with("stage", &[("stage", "extract")]));
        drop(r.span_with("stage", &[("stage", "extract")]));
        drop(r.span("codec_read"));
        r.histogram("not_a_span_ns").record(5);
        let table = render_stages(&r.snapshot());
        let rows: Vec<&str> = table.lines().skip(1).collect();
        assert!(table.starts_with("     calls"), "{table}");
        assert_eq!(rows.len(), 2, "{table}");
        assert!(rows[0].trim_start().starts_with("1 ") && rows[0].ends_with("  codec_read"));
        assert!(rows[1].trim_start().starts_with("2 "));
        assert!(rows[1].ends_with("  stage stage=extract"), "{table}");
    }
}
