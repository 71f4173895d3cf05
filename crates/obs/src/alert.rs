//! Declarative alerting over windowed series: rules, lifecycle, engine.
//!
//! [`crate::detect`] scores single series for drift; this module runs a
//! *rule pack* over a merged [`WindowReport`] and maintains each rule's
//! alert lifecycle:
//!
//! ```text
//!   idle ──breach──► pending ──breach×for_windows──► firing
//!    ▲                  │                              │
//!    └────clear─────────┘          clear×for_windows───┘ (resolved)
//! ```
//!
//! Every transition into `pending`, `firing`, or back to `idle`
//! (`resolved`) is recorded as an [`AlertEvent`] on the trace's logical
//! clock (the window index), never the wall clock.
//!
//! **Determinism contract.** [`AlertEngine::eval_report`] is a *full
//! recomputation*: it resets all detector and lifecycle state and folds
//! the report's windows in index order. Streaming merges may retrofill
//! an already-seen window index (a later partition contributes to an
//! earlier hour), so incremental evaluation over "new" windows would
//! depend on barrier placement; recomputing from the merged report makes
//! the timeline a pure function of the final report — byte-identical at
//! any thread count, chunk size, or kill/resume schedule, and identical
//! between the streaming and materialized pipelines by construction.
//! Windows absent from the report (hours with no activity) carry no
//! evidence and are skipped, not read as zeros.

use crate::detect::{Detector, DetectorSpec};
use crate::registry::Registry;
use crate::window::{ClosedWindow, WindowReport};
use std::fmt::Write as _;

/// How urgent a firing alert is. `Page` participates in the `/healthz`
/// verdict (a firing page-severity alert degrades the process).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// Informational; rendered but never actionable on its own.
    Info,
    /// Worth a look; does not change the health verdict.
    Warn,
    /// Someone should be paged; `/healthz` reports `degraded` while
    /// firing.
    Page,
}

impl Severity {
    /// Stable lowercase keyword (metric labels, renders).
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warn => "warn",
            Severity::Page => "page",
        }
    }
}

/// Which side of the threshold a rule watches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Breach when the score rises to `threshold` or above.
    Up,
    /// Breach when the score falls to `-threshold` or below.
    Down,
}

impl Direction {
    /// Stable lowercase keyword.
    pub fn as_str(self) -> &'static str {
        match self {
            Direction::Up => "up",
            Direction::Down => "down",
        }
    }
}

/// The value a rule reads out of each closed window.
#[derive(Debug, Clone, PartialEq)]
pub enum SeriesSpec {
    /// A raw counter count per window (0 when the series is absent).
    Counter(String),
    /// `Σ num / den` per window; 0 when the denominator is 0.
    Share {
        /// Numerator counters, summed.
        num: Vec<String>,
        /// Denominator counter.
        den: String,
    },
    /// An approximate quantile of a histogram series; 0 when the window
    /// has no histogram or it is empty.
    HistQuantile {
        /// Histogram series name.
        name: String,
        /// Quantile in `[0, 1]`.
        q: f64,
    },
}

impl SeriesSpec {
    /// Extract this spec's value from one closed window.
    pub fn value(&self, w: &ClosedWindow) -> f64 {
        match self {
            SeriesSpec::Counter(name) => w.counter(name) as f64,
            SeriesSpec::Share { num, den } => {
                let d = w.counter(den);
                if d == 0 {
                    0.0
                } else {
                    num.iter().map(|n| w.counter(n)).sum::<u64>() as f64 / d as f64
                }
            }
            SeriesSpec::HistQuantile { name, q } => match w.hist(name) {
                Some(h) if h.count() > 0 => h.approx_quantile(*q) as f64,
                _ => 0.0,
            },
        }
    }

    /// How much evidence a window holds for this spec: the denominator
    /// count for [`SeriesSpec::Share`], the sample count for
    /// [`SeriesSpec::HistQuantile`]. Counters are their own evidence, so
    /// they report unlimited — [`AlertRule::min_den`] never skips them.
    pub fn sample_base(&self, w: &ClosedWindow) -> u64 {
        match self {
            SeriesSpec::Counter(_) => u64::MAX,
            SeriesSpec::Share { den, .. } => w.counter(den),
            SeriesSpec::HistQuantile { name, .. } => w.hist(name).map(|h| h.count()).unwrap_or(0),
        }
    }

    /// Compact human rendering, e.g. `share(ads/requests)`.
    pub fn render(&self) -> String {
        match self {
            SeriesSpec::Counter(name) => format!("counter({name})"),
            SeriesSpec::Share { num, den } => format!("share({}/{den})", num.join("+")),
            SeriesSpec::HistQuantile { name, q } => format!("q{q}({name})"),
        }
    }
}

/// One declarative alert rule: which series, which detector, and how
/// persistent a breach must be before it fires.
#[derive(Debug, Clone, PartialEq)]
pub struct AlertRule {
    /// Stable rule name (render key; unique within a pack).
    pub name: String,
    /// The value read from each window.
    pub series: SeriesSpec,
    /// The detector scoring that value sequence.
    pub detector: DetectorSpec,
    /// Breach side.
    pub direction: Direction,
    /// Breach magnitude (always positive; [`Direction::Down`] breaches
    /// at `-threshold`).
    pub threshold: f64,
    /// Consecutive breached windows before `pending` becomes `firing`,
    /// and consecutive clear windows before `firing` resolves.
    pub for_windows: u32,
    /// Minimum [`SeriesSpec::sample_base`] a window must hold before
    /// this rule reads it; thinner windows (a trace's ragged tail hour,
    /// a near-idle bucket) are skipped like absent windows, so a
    /// 40-request tail cannot z-spike a share rule. `0` disables the
    /// gate; counter series are never gated.
    pub min_den: u64,
    /// Urgency once firing.
    pub severity: Severity,
}

/// Lifecycle transition kinds an [`AlertEvent`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlertEventKind {
    /// First breached window of a streak (`idle → pending`).
    Pending,
    /// Breach persisted `for_windows` windows (`→ firing`).
    Firing,
    /// Clear persisted `for_windows` windows (`firing → idle`).
    Resolved,
}

impl AlertEventKind {
    /// Stable lowercase keyword.
    pub fn as_str(self) -> &'static str {
        match self {
            AlertEventKind::Pending => "pending",
            AlertEventKind::Firing => "firing",
            AlertEventKind::Resolved => "resolved",
        }
    }
}

/// One lifecycle transition on the logical clock.
#[derive(Debug, Clone, PartialEq)]
pub struct AlertEvent {
    /// Window index (trace hour) the transition happened at.
    pub window_index: i64,
    /// Index into the engine's rule pack.
    pub rule: usize,
    /// Which transition.
    pub kind: AlertEventKind,
    /// The series value at that window.
    pub value: f64,
    /// The detector score at that window.
    pub score: f64,
}

/// A rule's lifecycle phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Phase {
    /// No active breach streak.
    #[default]
    Idle,
    /// Breaching, but not yet for `for_windows` windows.
    Pending,
    /// Alert is live.
    Firing,
}

impl Phase {
    /// Stable lowercase keyword.
    pub fn as_str(self) -> &'static str {
        match self {
            Phase::Idle => "idle",
            Phase::Pending => "pending",
            Phase::Firing => "firing",
        }
    }
}

#[derive(Debug, Clone, PartialEq, Default)]
struct RuleState {
    phase: Phase,
    breach_streak: u32,
    clear_streak: u32,
    /// Window index the current pending/firing streak started at.
    since: i64,
}

/// The alert engine: a rule pack plus the outcome of its last evaluation
/// (each rule's lifecycle and the timeline). Detector state exists only
/// inside [`AlertEngine::eval_report`].
#[derive(Debug, Clone, PartialEq)]
pub struct AlertEngine {
    rules: Vec<AlertRule>,
    states: Vec<RuleState>,
    events: Vec<AlertEvent>,
}

/// FNV-64 over the debug rendering of a rule pack: what a run manifest
/// stamps to say which pack drew its timeline.
pub fn rules_fnv(rules: &[AlertRule]) -> u64 {
    crate::manifest::fnv64(format!("{rules:?}").as_bytes())
}

impl AlertEngine {
    /// An engine for `rules` that has evaluated nothing yet.
    pub fn new(rules: Vec<AlertRule>) -> AlertEngine {
        AlertEngine {
            states: vec![RuleState::default(); rules.len()],
            rules,
            events: Vec::new(),
        }
    }

    /// The rule pack.
    pub fn rules(&self) -> &[AlertRule] {
        &self.rules
    }

    /// The current timeline (events of the last evaluation, in window
    /// order; rule order breaks ties within a window).
    pub fn events(&self) -> &[AlertEvent] {
        &self.events
    }

    /// Current lifecycle phase per rule, in rule order.
    pub fn phases(&self) -> Vec<Phase> {
        self.states.iter().map(|s| s.phase).collect()
    }

    /// Rules currently firing, as `(rule index, since window)`.
    pub fn firing(&self) -> Vec<(usize, i64)> {
        self.states
            .iter()
            .enumerate()
            .filter(|(_, s)| s.phase == Phase::Firing)
            .map(|(i, s)| (i, s.since))
            .collect()
    }

    /// Evaluate the pack over a merged report: fresh detectors, every
    /// lifecycle back to idle, windows folded in index order (module docs
    /// explain why the recompute is what makes the timeline deterministic).
    pub fn eval_report(&mut self, report: &WindowReport) {
        let mut detectors: Vec<Detector> = self
            .rules
            .iter()
            .map(|r| Detector::new(&r.detector))
            .collect();
        self.states.fill(RuleState::default());
        self.events.clear();
        for w in &report.windows {
            for (i, rule) in self.rules.iter().enumerate() {
                if rule.series.sample_base(w) < rule.min_den {
                    continue;
                }
                let value = rule.series.value(w);
                let score = detectors[i].update(value);
                let breached = match rule.direction {
                    Direction::Up => score >= rule.threshold,
                    Direction::Down => score <= -rule.threshold,
                };
                let st = &mut self.states[i];
                let emit = |kind: AlertEventKind, events: &mut Vec<AlertEvent>| {
                    events.push(AlertEvent {
                        window_index: w.index,
                        rule: i,
                        kind,
                        value,
                        score,
                    });
                };
                if breached {
                    st.clear_streak = 0;
                    st.breach_streak += 1;
                    if st.phase == Phase::Idle {
                        st.phase = Phase::Pending;
                        st.since = w.index;
                        emit(AlertEventKind::Pending, &mut self.events);
                    }
                    if st.phase == Phase::Pending && st.breach_streak >= rule.for_windows {
                        st.phase = Phase::Firing;
                        emit(AlertEventKind::Firing, &mut self.events);
                    }
                } else {
                    st.breach_streak = 0;
                    match st.phase {
                        Phase::Pending => {
                            // A pending alert that clears goes back to
                            // idle silently — it never fired.
                            st.phase = Phase::Idle;
                        }
                        Phase::Firing => {
                            st.clear_streak += 1;
                            if st.clear_streak >= rule.for_windows {
                                st.phase = Phase::Idle;
                                st.clear_streak = 0;
                                emit(AlertEventKind::Resolved, &mut self.events);
                            }
                        }
                        Phase::Idle => {}
                    }
                }
            }
        }
    }

    /// Bridge the last evaluation into `registry`: absolute firing gauges
    /// per severity and the `/alerts` and `/alerts/ndjson` bodies.
    pub fn publish(&self, registry: &Registry) {
        if !crate::enabled() {
            return;
        }
        for sev in [Severity::Info, Severity::Warn, Severity::Page] {
            let n = self
                .states
                .iter()
                .zip(&self.rules)
                .filter(|(s, r)| s.phase == Phase::Firing && r.severity == sev)
                .count();
            registry
                .gauge_with("obs_alerts_firing", &[("severity", sev.as_str())])
                .set(n as f64);
        }
        registry.publish([
            ("/alerts", self.render_text()),
            ("/alerts/ndjson", self.render_ndjson()),
        ]);
    }

    /// Deterministic text rendering: the rule pack with current phases,
    /// then the full timeline.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "alerts rules={} events={} firing={}",
            self.rules.len(),
            self.events.len(),
            self.firing().len()
        );
        for (i, rule) in self.rules.iter().enumerate() {
            let st = &self.states[i];
            let _ = write!(
                out,
                "rule {} series={} detector={} dir={} threshold={} for={} severity={} phase={}",
                rule.name,
                rule.series.render(),
                rule.detector.render(),
                rule.direction.as_str(),
                rule.threshold,
                rule.for_windows,
                rule.severity.as_str(),
                st.phase.as_str(),
            );
            if rule.min_den > 0 {
                let _ = write!(out, " min_den={}", rule.min_den);
            }
            if st.phase != Phase::Idle {
                let _ = write!(out, " since={}", st.since);
            }
            out.push('\n');
        }
        for e in &self.events {
            let _ = writeln!(
                out,
                "window {} rule {} {} severity={} value={} score={}",
                e.window_index,
                self.rules[e.rule].name,
                e.kind.as_str(),
                self.rules[e.rule].severity.as_str(),
                fmt_val(e.value),
                fmt_val(e.score),
            );
        }
        out
    }

    /// NDJSON rendering: one summary line, then one line per event.
    /// Every line parses as a standalone JSON object.
    pub fn render_ndjson(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{{\"event\":\"alerts\",\"rules\":{},\"events\":{},\"firing\":{}}}",
            self.rules.len(),
            self.events.len(),
            self.firing().len()
        );
        for e in &self.events {
            let _ = write!(
                out,
                "{{\"event\":\"alert\",\"window\":{},\"rule\":",
                e.window_index
            );
            crate::events::write_json_str(&mut out, &self.rules[e.rule].name);
            let _ = writeln!(
                out,
                ",\"kind\":\"{}\",\"severity\":\"{}\",\"value\":{},\"score\":{}}}",
                e.kind.as_str(),
                self.rules[e.rule].severity.as_str(),
                fmt_val(e.value),
                fmt_val(e.score),
            );
        }
        out
    }
}

/// Render a value or score with fixed 4-decimal precision: enough to
/// read, deterministic, and a valid JSON number.
fn fmt_val(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.4}")
    } else {
        // Scores are finite by construction (variance floors, finite
        // inputs); a guard keeps a corrupt line impossible.
        "null".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::window::WindowSeries;

    fn report(values: &[u64]) -> WindowReport {
        let mut e = WindowSeries::new(&["requests", "ads"], &[], 3600.0);
        for (hour, &v) in values.iter().enumerate() {
            let mut slot = e.at(hour as f64 * 3600.0 + 1.0);
            slot.count(0, 100);
            slot.count(1, v);
        }
        e.report()
    }

    fn jump_rule(for_windows: u32) -> AlertRule {
        AlertRule {
            name: "ad_share_jump".into(),
            series: SeriesSpec::Share {
                num: vec!["ads".into()],
                den: "requests".into(),
            },
            detector: DetectorSpec::EwmaZ { alpha: 0.3 },
            direction: Direction::Up,
            threshold: 3.0,
            for_windows,
            min_den: 0,
            severity: Severity::Page,
        }
    }

    #[test]
    fn lifecycle_pending_firing_resolved() {
        // A sustained shift needs a detector whose score *persists*
        // across breached windows — CUSUM, not the fast-adapting EWMA.
        let rule = AlertRule {
            name: "ad_share_shift".into(),
            series: SeriesSpec::Share {
                num: vec!["ads".into()],
                den: "requests".into(),
            },
            detector: DetectorSpec::Cusum { drift: 0.05 },
            direction: Direction::Up,
            threshold: 0.3,
            for_windows: 2,
            min_den: 0,
            severity: Severity::Page,
        };
        // 8 quiet hours, 4 shifted ones, then quiet long enough for the
        // accumulated sum to drain back under the threshold.
        let mut vals = vec![10u64; 8];
        vals.extend([50u64; 4]);
        vals.extend([10u64; 10]);
        let mut eng = AlertEngine::new(vec![rule]);
        eng.eval_report(&report(&vals));
        let kinds: Vec<AlertEventKind> = eng.events().iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![
                AlertEventKind::Pending,
                AlertEventKind::Firing,
                AlertEventKind::Resolved
            ],
            "timeline: {}",
            eng.render_text()
        );
        assert_eq!(eng.events()[0].window_index, 8, "pending at the shift");
        assert_eq!(eng.events()[1].window_index, 9, "fires one window later");
        assert!(eng.events()[2].window_index > 12, "resolves after drain");
        assert!(eng.firing().is_empty());
    }

    #[test]
    fn for_windows_one_fires_immediately() {
        let mut vals = vec![10u64; 8];
        vals.push(70);
        let mut eng = AlertEngine::new(vec![jump_rule(1)]);
        eng.eval_report(&report(&vals));
        let kinds: Vec<AlertEventKind> = eng.events().iter().map(|e| e.kind).collect();
        assert_eq!(kinds, vec![AlertEventKind::Pending, AlertEventKind::Firing]);
        assert_eq!(eng.firing(), vec![(0, 8)]);
    }

    #[test]
    fn single_window_blip_never_fires_with_for_two() {
        let mut vals = vec![10u64; 8];
        vals.push(70);
        vals.extend([10u64; 4]);
        let mut eng = AlertEngine::new(vec![jump_rule(2)]);
        eng.eval_report(&report(&vals));
        let kinds: Vec<AlertEventKind> = eng.events().iter().map(|e| e.kind).collect();
        assert_eq!(kinds, vec![AlertEventKind::Pending], "blip stays pending");
        assert!(eng.firing().is_empty());
    }

    #[test]
    fn eval_is_a_pure_function_of_the_report() {
        let vals: Vec<u64> = (0..24).map(|i| if i > 15 { 80 } else { 12 }).collect();
        let r = report(&vals);
        let mut a = AlertEngine::new(vec![jump_rule(2)]);
        let mut b = AlertEngine::new(vec![jump_rule(2)]);
        a.eval_report(&r);
        // b sees a prefix first — the re-evaluation must erase it.
        b.eval_report(&report(&vals[..7]));
        b.eval_report(&r);
        assert_eq!(a.render_text(), b.render_text());
        assert_eq!(a.render_ndjson(), b.render_ndjson());
    }

    #[test]
    fn publish_sets_gauges_and_the_alert_bodies() {
        let mut vals = vec![10u64; 8];
        vals.push(70);
        let mut eng = AlertEngine::new(vec![jump_rule(1)]);
        eng.eval_report(&report(&vals));
        let reg = Registry::new();
        eng.publish(&reg);
        let snap = reg.snapshot();
        assert!(matches!(
            snap.get("obs_alerts_firing", &[("severity", "page")]),
            Some(crate::registry::SampleValue::Gauge(v)) if *v == 1.0
        ));
        assert!(matches!(
            snap.get("obs_alerts_firing", &[("severity", "warn")]),
            Some(crate::registry::SampleValue::Gauge(v)) if *v == 0.0
        ));
        assert!(reg.body("/alerts").contains("ad_share_jump"));
        assert_eq!(reg.body("/alerts/ndjson"), eng.render_ndjson());
    }

    #[test]
    fn min_den_skips_thin_windows() {
        // A 100-request steady series with one 3-request tail window at
        // a wild share: gated, the tail is invisible; ungated, it spikes.
        let mut e = WindowSeries::new(&["requests", "ads"], &[], 3600.0);
        for hour in 0..10 {
            let mut slot = e.at(hour as f64 * 3600.0 + 1.0);
            let (req, ads) = if hour == 9 { (3, 3) } else { (100, 10) };
            slot.count(0, req);
            slot.count(1, ads);
        }
        let r = e.report();
        let mut gated = jump_rule(1);
        gated.min_den = 50;
        let mut eng = AlertEngine::new(vec![gated]);
        eng.eval_report(&r);
        assert!(eng.events().is_empty(), "gated: {}", eng.render_text());
        let mut eng = AlertEngine::new(vec![jump_rule(1)]);
        eng.eval_report(&r);
        assert!(!eng.events().is_empty(), "ungated tail should spike");
    }

    #[test]
    fn ndjson_lines_are_parseable_shape() {
        let mut vals = vec![10u64; 8];
        vals.extend([70, 70, 10, 10]);
        let mut eng = AlertEngine::new(vec![jump_rule(2)]);
        eng.eval_report(&report(&vals));
        let nd = eng.render_ndjson();
        assert!(nd.lines().count() >= 2);
        for line in nd.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        }
    }
}
