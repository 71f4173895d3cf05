//! RAII span timers. A [`Span`] measures the wall time between its
//! creation and its drop, records it into the `{name}_duration_ns`
//! histogram on its registry, and appends a `span` event to the event
//! log. Extra counts attached with [`Span::count`] ride along on the
//! event, which is how stages report records-in/records-out without a
//! second logging call.
//!
//! The histograms are the one record of wall time: [`render_stages`]
//! turns them into the stage table `/profile` serves. Every span opened
//! outside tests is a root on its thread, so a stage's self time is its
//! total and no call tree is kept.

use crate::events::FieldValue;
use crate::registry::{Registry, SampleValue, Snapshot};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// A running span timer (see module docs). Ends when dropped, or
/// explicitly via [`Span::end`].
#[must_use = "a span measures the scope it lives in; binding it to _ ends it immediately"]
#[derive(Debug)]
pub struct Span<'r> {
    registry: &'r Registry,
    name: &'static str,
    labels: Vec<(String, String)>,
    counts: Vec<(&'static str, u64)>,
    start: Instant,
    finished: bool,
}

impl<'r> Span<'r> {
    pub(crate) fn start(
        registry: &'r Registry,
        name: &'static str,
        labels: &[(&str, &str)],
    ) -> Span<'r> {
        let labels: Vec<(String, String)> = if crate::enabled() {
            labels
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect()
        } else {
            Vec::new()
        };
        Span {
            registry,
            name,
            labels,
            counts: Vec::new(),
            start: Instant::now(),
            finished: false,
        }
    }

    /// Attach a named count to this span's completion event (last write
    /// for a key wins).
    pub fn count(&mut self, key: &'static str, value: u64) {
        if !crate::enabled() {
            return;
        }
        if let Some(slot) = self.counts.iter_mut().find(|(k, _)| *k == key) {
            slot.1 = value;
        } else {
            self.counts.push((key, value));
        }
    }

    /// End the span now and return its duration.
    pub fn end(mut self) -> Duration {
        let elapsed = self.start.elapsed();
        self.finish(elapsed);
        elapsed
    }

    fn finish(&mut self, elapsed: Duration) {
        if self.finished {
            return;
        }
        self.finished = true;
        let ns = elapsed.as_nanos() as u64;
        if !crate::enabled() {
            return;
        }
        let label_refs: Vec<(&str, &str)> = self
            .labels
            .iter()
            .map(|(k, v)| (k.as_str(), v.as_str()))
            .collect();
        let hist_name = format!("{}_duration_ns", self.name);
        self.registry
            .histogram_with(&hist_name, &label_refs)
            .record(ns);
        let mut fields: Vec<(&'static str, FieldValue)> =
            Vec::with_capacity(2 + self.labels.len() + self.counts.len());
        fields.push(("span", FieldValue::Str(self.name.to_string())));
        fields.push(("duration_ns", FieldValue::U64(ns)));
        // Label keys are dynamic strings; the event schema wants static
        // keys, so labels fold into one "labels" field.
        if !self.labels.is_empty() {
            let rendered = self
                .labels
                .iter()
                .map(|(k, v)| format!("{k}={v}"))
                .collect::<Vec<_>>()
                .join(",");
            fields.push(("labels", FieldValue::Str(rendered)));
        }
        for (k, v) in &self.counts {
            fields.push((k, FieldValue::U64(*v)));
        }
        self.registry.event("span", fields);
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        let elapsed = self.start.elapsed();
        self.finish(elapsed);
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
    fn span_records_histogram_and_event() {
        let r = Registry::new();
        {
            let mut s = r.span_with("stage", &[("stage", "extract")]);
            s.count("records_in", 10);
            s.count("records_out", 8);
            s.count("records_in", 11); // last write wins
        }
        let snap = r.snapshot();
        let h = snap
            .histogram("stage_duration_ns", &[("stage", "extract")])
            .expect("histogram recorded");
        assert_eq!(h.count(), 1);
        let events = r.events().snapshot();
        assert_eq!(events.len(), 1);
        let e = &events[0];
        assert_eq!(e.name, "span");
        assert!(e
            .fields
            .iter()
            .any(|(k, v)| *k == "records_in" && *v == FieldValue::U64(11)));
        assert!(e
            .fields
            .iter()
            .any(|(k, v)| *k == "labels" && *v == FieldValue::Str("stage=extract".into())));
    }

    #[test]
    fn explicit_end_prevents_double_record() {
        let r = Registry::new();
        let s = r.span("once");
        let d = s.end();
        assert!(d.as_nanos() > 0 || d.as_nanos() == 0); // no panic on drop
        let snap = r.snapshot();
        assert_eq!(snap.histogram("once_duration_ns", &[]).unwrap().count(), 1);
        assert_eq!(r.events().len(), 1);
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
