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

    /// Inverse of [`AlertEventKind::as_str`] (checkpoint decode).
    pub fn from_keyword(s: &str) -> Option<AlertEventKind> {
        match s {
            "pending" => Some(AlertEventKind::Pending),
            "firing" => Some(AlertEventKind::Firing),
            "resolved" => Some(AlertEventKind::Resolved),
            _ => None,
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
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// No active breach streak.
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

#[derive(Debug, Clone, PartialEq)]
struct RuleState {
    phase: Phase,
    breach_streak: u32,
    clear_streak: u32,
    /// Window index the current pending/firing streak started at.
    since: i64,
}

impl RuleState {
    fn idle() -> RuleState {
        RuleState {
            phase: Phase::Idle,
            breach_streak: 0,
            clear_streak: 0,
            since: 0,
        }
    }
}

/// Plain-data image of an engine's evolving state, for checkpointing.
/// `f64` fields travel as `to_bits` words (see
/// [`Detector::state`]); the serialization envelope is the caller's.
#[derive(Debug, Clone, PartialEq)]
pub struct AlertEngineState {
    /// FNV-64 of the rule pack's debug rendering — a resumed engine
    /// refuses state from a different pack.
    pub rules_fnv: u64,
    /// Per-rule detector state words.
    pub detectors: Vec<Vec<u64>>,
    /// Per-rule lifecycle: `(phase, breach_streak, clear_streak, since)`
    /// with phase 0=idle 1=pending 2=firing.
    pub phases: Vec<(u8, u32, u32, i64)>,
    /// Timeline events: `(rule, window_index, kind keyword, value bits,
    /// score bits)`.
    pub events: Vec<(u64, i64, &'static str, u64, u64)>,
    /// Cumulative detector updates across evaluations.
    pub updates: u64,
}

/// The alert engine: a rule pack plus the state of its last evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct AlertEngine {
    rules: Vec<AlertRule>,
    detectors: Vec<Detector>,
    states: Vec<RuleState>,
    events: Vec<AlertEvent>,
    updates: u64,
    // Publish cursors are process-local (metrics are not checkpointed):
    // a resumed process republishes its restored timeline from zero.
    published_updates: u64,
    published_resolved: u64,
}

/// FNV-64 over the debug rendering of a rule pack — the compatibility
/// guard between an engine and a checkpointed state image.
pub fn rules_fnv(rules: &[AlertRule]) -> u64 {
    crate::manifest::fnv64(format!("{rules:?}").as_bytes())
}

impl AlertEngine {
    /// An engine for `rules`, with all detectors fresh.
    pub fn new(rules: Vec<AlertRule>) -> AlertEngine {
        let detectors = rules.iter().map(|r| Detector::new(&r.detector)).collect();
        let states = rules.iter().map(|_| RuleState::idle()).collect();
        AlertEngine {
            rules,
            detectors,
            states,
            events: Vec::new(),
            updates: 0,
            published_updates: 0,
            published_resolved: 0,
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

    /// Evaluate the pack over a merged report: reset all state, fold
    /// windows in index order (module docs explain why the recompute is
    /// what makes the timeline deterministic).
    pub fn eval_report(&mut self, report: &WindowReport) {
        for (i, rule) in self.rules.iter().enumerate() {
            self.detectors[i] = Detector::new(&rule.detector);
            self.states[i] = RuleState::idle();
        }
        self.events.clear();
        for w in &report.windows {
            for (i, rule) in self.rules.iter().enumerate() {
                if rule.series.sample_base(w) < rule.min_den {
                    continue;
                }
                let value = rule.series.value(w);
                let score = self.detectors[i].update(value);
                self.updates += 1;
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

    /// Snapshot the evolving state as plain data (checkpointing).
    pub fn state(&self) -> AlertEngineState {
        AlertEngineState {
            rules_fnv: rules_fnv(&self.rules),
            detectors: self.detectors.iter().map(Detector::state).collect(),
            phases: self
                .states
                .iter()
                .map(|s| {
                    let p = match s.phase {
                        Phase::Idle => 0u8,
                        Phase::Pending => 1,
                        Phase::Firing => 2,
                    };
                    (p, s.breach_streak, s.clear_streak, s.since)
                })
                .collect(),
            events: self
                .events
                .iter()
                .map(|e| {
                    (
                        e.rule as u64,
                        e.window_index,
                        e.kind.as_str(),
                        e.value.to_bits(),
                        e.score.to_bits(),
                    )
                })
                .collect(),
            updates: self.updates,
        }
    }

    /// Rebuild an engine from a state image. Fails when the image does
    /// not belong to this rule pack (hash, arity, or range mismatch).
    pub fn from_state(rules: Vec<AlertRule>, st: AlertEngineState) -> Result<AlertEngine, String> {
        if st.rules_fnv != rules_fnv(&rules) {
            return Err("alert state belongs to a different rule pack".into());
        }
        if st.detectors.len() != rules.len() || st.phases.len() != rules.len() {
            return Err("alert state arity does not match the rule pack".into());
        }
        let mut detectors = Vec::with_capacity(rules.len());
        for (rule, words) in rules.iter().zip(&st.detectors) {
            detectors.push(
                Detector::from_state(&rule.detector, words)
                    .ok_or_else(|| format!("bad detector state for rule `{}`", rule.name))?,
            );
        }
        let mut states = Vec::with_capacity(rules.len());
        for &(p, breach, clear, since) in &st.phases {
            let phase = match p {
                0 => Phase::Idle,
                1 => Phase::Pending,
                2 => Phase::Firing,
                _ => return Err("bad phase tag in alert state".into()),
            };
            states.push(RuleState {
                phase,
                breach_streak: breach,
                clear_streak: clear,
                since,
            });
        }
        let mut events = Vec::with_capacity(st.events.len());
        for &(rule, window_index, kind, value, score) in &st.events {
            if rule as usize >= rules.len() {
                return Err("alert event references an unknown rule".into());
            }
            events.push(AlertEvent {
                window_index,
                rule: rule as usize,
                kind: AlertEventKind::from_keyword(kind)
                    .ok_or_else(|| format!("bad alert event kind `{kind}`"))?,
                value: f64::from_bits(value),
                score: f64::from_bits(score),
            });
        }
        Ok(AlertEngine {
            rules,
            detectors,
            states,
            events,
            updates: st.updates,
            published_updates: 0,
            published_resolved: 0,
        })
    }

    /// Bridge the current state into `registry`: absolute firing gauges
    /// per severity, monotonic update/resolved counters via delta
    /// cursors, and the `/alerts` render slot.
    pub fn publish(&mut self, registry: &Registry) {
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
        if self.updates > self.published_updates {
            registry
                .counter("obs_detector_updates_total")
                .add(self.updates - self.published_updates);
            self.published_updates = self.updates;
        }
        // A re-evaluation recomputes the timeline, so the resolved count
        // can shrink when a retrofilled window rewrites history; the
        // exported counter stays monotonic over the high-water mark.
        let resolved = self
            .events
            .iter()
            .filter(|e| e.kind == AlertEventKind::Resolved)
            .count() as u64;
        if resolved > self.published_resolved {
            registry
                .counter("obs_alerts_resolved_total")
                .add(resolved - self.published_resolved);
            self.published_resolved = resolved;
        }
        registry.set_alerts(self.render_text(), self.render_ndjson());
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
/// read, deterministic, and a valid JSON number. (Exactness lives in the
/// state/checkpoint path, which carries bit images, not renders.)
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
    use crate::window::{WindowConfig, WindowEngine};

    fn report(values: &[u64]) -> WindowReport {
        let mut e = WindowEngine::new(WindowConfig {
            width_secs: 3600.0,
            watermark_secs: f64::INFINITY,
        });
        let c = e.counter_series("requests");
        let a = e.counter_series("ads");
        for (hour, &v) in values.iter().enumerate() {
            let ts = hour as f64 * 3600.0 + 1.0;
            e.count(ts, c, 100);
            e.count(ts, a, v);
        }
        e.finish()
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
    fn state_round_trips_and_renders_identically() {
        let vals: Vec<u64> = (0..24).map(|i| if i % 9 == 8 { 90 } else { 10 }).collect();
        let mut eng = AlertEngine::new(vec![jump_rule(2)]);
        eng.eval_report(&report(&vals));
        let back = AlertEngine::from_state(vec![jump_rule(2)], eng.state()).unwrap();
        assert_eq!(back.render_text(), eng.render_text());
        assert_eq!(back.state(), eng.state());
        // A different pack refuses the image.
        assert!(AlertEngine::from_state(vec![jump_rule(3)], eng.state()).is_err());
    }

    #[test]
    fn publish_sets_gauges_and_counters() {
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
        assert!(snap.counter("obs_detector_updates_total", &[]) > 0);
        assert!(reg.alerts_text().contains("ad_share_jump"));
        // Publishing twice adds nothing new (delta cursors).
        let updates = snap.counter("obs_detector_updates_total", &[]);
        eng.publish(&reg);
        assert_eq!(
            reg.snapshot().counter("obs_detector_updates_total", &[]),
            updates
        );
    }

    #[test]
    fn min_den_skips_thin_windows() {
        // A 100-request steady series with one 3-request tail window at
        // a wild share: gated, the tail is invisible; ungated, it spikes.
        let mut e = WindowEngine::new(WindowConfig {
            width_secs: 3600.0,
            watermark_secs: f64::INFINITY,
        });
        let c = e.counter_series("requests");
        let a = e.counter_series("ads");
        for hour in 0..10 {
            let ts = hour as f64 * 3600.0 + 1.0;
            let (req, ads) = if hour == 9 { (3, 3) } else { (100, 10) };
            e.count(ts, c, req);
            e.count(ts, a, ads);
        }
        let r = e.finish();
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
