//! The [`Registry`]: a named, labeled collection of metrics, with
//! deterministic snapshots for the exposition, plus the run-health plane
//! and the bodies `serve` publishes.

use crate::health::Health;
use crate::metric::{Counter, Gauge, Histogram, HistogramSnapshot};
use crate::span::Span;
use std::collections::HashMap;
use std::sync::RwLock;
use std::time::Instant;

/// A metric's identity: its name plus a sorted list of label pairs.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MetricKey {
    /// Metric name (e.g. `adscope_stage_records_total`).
    pub name: String,
    /// Label pairs, sorted by label name (so `{a,b}` and `{b,a}` are the
    /// same metric).
    pub labels: Vec<(String, String)>,
}

impl MetricKey {
    /// Build a key, sorting the labels.
    pub fn new(name: &str, labels: &[(&str, &str)]) -> MetricKey {
        let mut labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        labels.sort();
        MetricKey {
            name: name.to_string(),
            labels,
        }
    }
}

#[derive(Debug, Clone)]
enum MetricEntry {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

/// The value of one metric in a [`Snapshot`].
#[derive(Debug, Clone, PartialEq)]
pub enum SampleValue {
    /// A counter's current value.
    Counter(u64),
    /// A gauge's current value.
    Gauge(f64),
    /// A histogram's buckets and sum.
    Histogram(HistogramSnapshot),
}

/// A point-in-time, deterministic copy of a registry's metrics, sorted
/// by key. Snapshots from different registries (e.g. per-shard) merge
/// losslessly for counters and histograms.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// `(key, value)` pairs, sorted by key.
    pub samples: Vec<(MetricKey, SampleValue)>,
}

impl Snapshot {
    /// Look up a sample by name and labels.
    pub fn get(&self, name: &str, labels: &[(&str, &str)]) -> Option<&SampleValue> {
        let key = MetricKey::new(name, labels);
        self.samples
            .binary_search_by(|(k, _)| k.cmp(&key))
            .ok()
            .map(|i| &self.samples[i].1)
    }

    /// A counter's value (0 if absent — an untouched counter and a
    /// never-created one are indistinguishable by design).
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> u64 {
        match self.get(name, labels) {
            Some(SampleValue::Counter(v)) => *v,
            _ => 0,
        }
    }

    /// A histogram's snapshot, if present.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Option<&HistogramSnapshot> {
        match self.get(name, labels) {
            Some(SampleValue::Histogram(h)) => Some(h),
            _ => None,
        }
    }

    /// Sum of all counters whose name matches `name` (any labels).
    pub fn counter_sum(&self, name: &str) -> u64 {
        self.samples
            .iter()
            .filter(|(k, _)| k.name == name)
            .map(|(_, v)| match v {
                SampleValue::Counter(c) => *c,
                _ => 0,
            })
            .sum()
    }

    /// Merge `other` into `self`: counters add, histograms add
    /// bucket-wise, gauges take `other`'s (later) value. No count is
    /// ever lost — the property the proptest pins down.
    pub fn merge(&mut self, other: &Snapshot) {
        for (key, value) in &other.samples {
            match self.samples.binary_search_by(|(k, _)| k.cmp(key)) {
                Ok(i) => match (&mut self.samples[i].1, value) {
                    (SampleValue::Counter(a), SampleValue::Counter(b)) => *a += b,
                    (SampleValue::Histogram(a), SampleValue::Histogram(b)) => a.merge(b),
                    (SampleValue::Gauge(a), SampleValue::Gauge(b)) => *a = *b,
                    // Kind mismatch between registries: keep ours.
                    _ => {}
                },
                Err(i) => self.samples.insert(i, (key.clone(), value.clone())),
            }
        }
    }
}

/// A collection of metrics, the run-health plane and the bodies published
/// for `serve`'s routes.
///
/// Handle acquisition (`counter`, `histogram_with`, …) takes a write
/// lock once per (name, labels) pair; the returned handles are lock-free
/// atomics, so hot loops should acquire handles outside the loop.
#[derive(Debug)]
pub struct Registry {
    start: Instant,
    metrics: RwLock<HashMap<MetricKey, MetricEntry>>,
    health: Health,
    bodies: RwLock<HashMap<&'static str, String>>,
}

impl Default for Registry {
    fn default() -> Registry {
        Registry::new()
    }
}

impl Registry {
    /// An empty registry whose clock starts now.
    pub fn new() -> Registry {
        Registry {
            start: Instant::now(),
            metrics: RwLock::new(HashMap::new()),
            health: Health::default(),
            bodies: RwLock::new(HashMap::new()),
        }
    }

    /// Nanoseconds since this registry was created (the health plane's
    /// clock).
    pub fn elapsed_ns(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }

    /// Get or create an unlabeled counter.
    pub fn counter(&self, name: &str) -> Counter {
        self.counter_with(name, &[])
    }

    /// Get or create a labeled counter.
    pub fn counter_with(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        let key = MetricKey::new(name, labels);
        if let Some(MetricEntry::Counter(c)) = self.metrics.read().expect("registry").get(&key) {
            return c.clone();
        }
        let mut map = self.metrics.write().expect("registry");
        match map
            .entry(key)
            .or_insert_with(|| MetricEntry::Counter(Counter::default()))
        {
            MetricEntry::Counter(c) => c.clone(),
            // Name already registered as another kind: hand back a
            // detached cell rather than panicking in a metrics path.
            _ => Counter::default(),
        }
    }

    /// Get or create an unlabeled gauge.
    pub fn gauge(&self, name: &str) -> Gauge {
        self.gauge_with(name, &[])
    }

    /// Get or create a labeled gauge.
    pub fn gauge_with(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        let key = MetricKey::new(name, labels);
        if let Some(MetricEntry::Gauge(g)) = self.metrics.read().expect("registry").get(&key) {
            return g.clone();
        }
        let mut map = self.metrics.write().expect("registry");
        match map
            .entry(key)
            .or_insert_with(|| MetricEntry::Gauge(Gauge::default()))
        {
            MetricEntry::Gauge(g) => g.clone(),
            _ => Gauge::default(),
        }
    }

    /// Get or create an unlabeled histogram.
    pub fn histogram(&self, name: &str) -> Histogram {
        self.histogram_with(name, &[])
    }

    /// Get or create a labeled histogram.
    pub(crate) fn histogram_with(&self, name: &str, labels: &[(&str, &str)]) -> Histogram {
        let key = MetricKey::new(name, labels);
        if let Some(MetricEntry::Histogram(h)) = self.metrics.read().expect("registry").get(&key) {
            return h.clone();
        }
        let mut map = self.metrics.write().expect("registry");
        match map
            .entry(key)
            .or_insert_with(|| MetricEntry::Histogram(Histogram::default()))
        {
            MetricEntry::Histogram(h) => h.clone(),
            _ => Histogram::default(),
        }
    }

    /// Start an unlabeled span timer (see [`Span`]).
    pub fn span(&self, name: &'static str) -> Span {
        self.span_with(name, &[])
    }

    /// Start a labeled span timer. On drop it records into the
    /// `{name}_duration_ns` histogram.
    pub fn span_with(&self, name: &'static str, labels: &[(&str, &str)]) -> Span {
        Span::start(self, name, labels)
    }

    /// The live run-health plane (heartbeats, progress ledger, stall
    /// flag; see [`crate::health`]).
    pub fn health(&self) -> &Health {
        &self.health
    }

    /// A deterministic (sorted) point-in-time copy of all metrics.
    pub fn snapshot(&self) -> Snapshot {
        let map = self.metrics.read().expect("registry");
        let mut samples: Vec<(MetricKey, SampleValue)> = map
            .iter()
            .map(|(k, v)| {
                let value = match v {
                    MetricEntry::Counter(c) => SampleValue::Counter(c.get()),
                    MetricEntry::Gauge(g) => SampleValue::Gauge(g.get()),
                    MetricEntry::Histogram(h) => SampleValue::Histogram(h.snapshot()),
                };
                (k.clone(), value)
            })
            .collect();
        drop(map);
        samples.sort_by(|(a, _), (b, _)| a.cmp(b));
        Snapshot { samples }
    }

    /// Render all metrics in the Prometheus text exposition format.
    pub fn render_prometheus(&self) -> String {
        crate::prometheus::render(&self.snapshot())
    }

    /// Install pre-rendered bodies for `serve`'s published routes
    /// (`/windows`, `/population`, `/alerts` and their NDJSON forms), each
    /// replacing the route's last body, all under one lock so that no
    /// scrape sees one form of a plane newer than the other. The producer
    /// renders; the registry only stores bytes, so `obs` stays independent
    /// of the analytics layer.
    pub fn publish<const N: usize>(&self, bodies: [(&'static str, String); N]) {
        let mut store = self.bodies.write().expect("bodies lock");
        for (route, body) in bodies {
            store.insert(route, body);
        }
    }

    /// The body last published for `route` (empty until one is).
    pub fn body(&self, route: &str) -> String {
        let store = self.bodies.read().expect("bodies lock");
        store.get(route).cloned().unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_order_insensitive() {
        let r = Registry::new();
        let a = r.counter_with("x_total", &[("a", "1"), ("b", "2")]);
        let b = r.counter_with("x_total", &[("b", "2"), ("a", "1")]);
        a.inc();
        assert_eq!(b.get(), 1);
        assert_eq!(r.snapshot().samples.len(), 1);
    }

    #[test]
    fn kind_mismatch_returns_detached_handle() {
        let r = Registry::new();
        let c = r.counter("mixed");
        c.add(5);
        let h = r.histogram("mixed");
        h.record(9); // goes nowhere visible
        let snap = r.snapshot();
        assert_eq!(snap.counter("mixed", &[]), 5);
        assert_eq!(snap.samples.len(), 1);
    }

    #[test]
    fn snapshot_is_sorted_and_queryable() {
        let r = Registry::new();
        r.counter("z_total").add(1);
        r.counter("a_total").add(2);
        r.counter_with("m_total", &[("stage", "extract")]).add(3);
        r.gauge("g").set(1.5);
        r.histogram("h_ns").record(100);
        let snap = r.snapshot();
        let names: Vec<&str> = snap.samples.iter().map(|(k, _)| k.name.as_str()).collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);
        assert_eq!(snap.counter("a_total", &[]), 2);
        assert_eq!(snap.counter("m_total", &[("stage", "extract")]), 3);
        assert_eq!(snap.counter_sum("m_total"), 3);
        assert_eq!(snap.histogram("h_ns", &[]).unwrap().count(), 1);
        assert!(matches!(snap.get("g", &[]), Some(SampleValue::Gauge(v)) if *v == 1.5));
    }

    #[test]
    fn merge_adds_counters_and_histograms() {
        let r1 = Registry::new();
        let r2 = Registry::new();
        r1.counter("c_total").add(10);
        r2.counter("c_total").add(32);
        r2.counter("only2_total").add(7);
        r1.histogram("h_ns").record(4);
        r2.histogram("h_ns").record(1000);
        r1.gauge("g").set(1.0);
        r2.gauge("g").set(2.0);
        let mut m = r1.snapshot();
        m.merge(&r2.snapshot());
        assert_eq!(m.counter("c_total", &[]), 42);
        assert_eq!(m.counter("only2_total", &[]), 7);
        assert_eq!(m.histogram("h_ns", &[]).unwrap().count(), 2);
        assert!(matches!(m.get("g", &[]), Some(SampleValue::Gauge(v)) if *v == 2.0));
    }
}
