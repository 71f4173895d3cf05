//! The built-in alert rule pack over adscope's window series, plus the
//! materialized-path evaluator.
//!
//! [`rule_pack`] names the drift signals the paper's measurement study
//! would page on: ad-share jumps (a campaign or classifier drift),
//! blocked-share drops (the filter-list-lag failure mode — the
//! subscription stopped covering the ad networks actually serving),
//! refmap-miss spikes (page reconstruction degrading), quarantine
//! bursts (trace corruption), and RTB p95 shifts (§8.2 back-office
//! latency regime change).
//!
//! Both pipelines evaluate the same pack the same way: the streaming
//! router calls [`obs::AlertEngine::eval_report`] over its merged
//! report at every barrier, and [`evaluate`] does the identical full
//! recompute over a materialized report — so the two timelines are
//! byte-identical by construction.

use crate::window::{
    ADS, COUNTERS, EASYLIST, EASYPRIVACY, QUARANTINED, REFMAP_MISS, REQUESTS, RTB_HIST,
};
use obs::window::WindowReport;
use obs::{AlertEngine, AlertRule, DetectorSpec, Direction, SeriesSpec, Severity};

/// The built-in rule pack `experiments alerts` and the serve plane run.
///
/// Threshold notes: sustained-shift rules (`blocked_share_drop`) use
/// CUSUM — its score *accumulates* across the shift, so it stays
/// breached long enough to satisfy `for_windows >= 2`. On RBN-shaped
/// traces the blocked share wanders diurnally by roughly ±0.02 around
/// its mean; with `drift = 0.02` the CUSUM noise floor over a steady
/// multi-day trace stays under 0.015, so `threshold = 0.04` keeps ~3×
/// margin against false pages while still crossing within a couple of
/// windows of a list-lag cut-over. Spike rules use EWMA z-scores with
/// `for_windows == 1` because the EWMA adapts within a window or two
/// and a z-streak rarely survives; rate-of-change catches single-window
/// bursts on otherwise-quiet series. Share and quantile rules carry a
/// `min_den` floor so a trace's ragged tail hour (a handful of
/// requests) reads as absent rather than as a wild share swing.
pub fn rule_pack() -> Vec<AlertRule> {
    let name = |at: usize| COUNTERS[at].to_string();
    vec![
        AlertRule {
            name: "ad_share_jump".into(),
            series: SeriesSpec::Share {
                num: vec![name(ADS)],
                den: name(REQUESTS),
            },
            detector: DetectorSpec::EwmaZ { alpha: 0.3 },
            direction: Direction::Up,
            threshold: 4.0,
            for_windows: 1,
            min_den: 200,
            severity: Severity::Warn,
        },
        AlertRule {
            name: "blocked_share_drop".into(),
            series: SeriesSpec::Share {
                num: vec![name(EASYLIST), name(EASYPRIVACY)],
                den: name(REQUESTS),
            },
            detector: DetectorSpec::Cusum { drift: 0.02 },
            direction: Direction::Down,
            threshold: 0.04,
            for_windows: 2,
            min_den: 200,
            severity: Severity::Page,
        },
        AlertRule {
            name: "refmap_miss_spike".into(),
            series: SeriesSpec::Share {
                num: vec![name(REFMAP_MISS)],
                den: name(REQUESTS),
            },
            detector: DetectorSpec::EwmaZ { alpha: 0.3 },
            direction: Direction::Up,
            threshold: 4.0,
            for_windows: 1,
            min_den: 200,
            severity: Severity::Warn,
        },
        AlertRule {
            name: "quarantine_burst".into(),
            series: SeriesSpec::Counter(name(QUARANTINED)),
            detector: DetectorSpec::RateOfChange,
            direction: Direction::Up,
            threshold: 3.0,
            for_windows: 1,
            min_den: 0,
            severity: Severity::Warn,
        },
        AlertRule {
            name: "rtb_gap_p95_shift".into(),
            series: SeriesSpec::HistQuantile {
                name: RTB_HIST.into(),
                q: 0.95,
            },
            detector: DetectorSpec::EwmaZ { alpha: 0.3 },
            direction: Direction::Up,
            threshold: 4.0,
            for_windows: 1,
            min_den: 50,
            severity: Severity::Info,
        },
    ]
}

/// Evaluate `rules` over a materialized window report: the same full
/// recompute the streaming router runs at its final merge, so both
/// paths render the identical timeline for identical reports.
pub fn evaluate(windows: &WindowReport, rules: Vec<AlertRule>) -> AlertEngine {
    let mut engine = AlertEngine::new(rules);
    engine.eval_report(windows);
    engine
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::window::WindowSeries;

    fn steady_report(hours: usize, blocked_after: Option<usize>) -> WindowReport {
        let mut e = WindowSeries::new(&["requests", "ads", "blocked_easylist"], &[], 3600.0);
        for h in 0..hours {
            let mut slot = e.at(h as f64 * 3600.0 + 1.0);
            slot.count(0, 1000);
            slot.count(1, 200);
            let blocked = match blocked_after {
                Some(cut) if h >= cut => 20,
                _ => 180,
            };
            slot.count(2, blocked);
        }
        e.report()
    }

    #[test]
    fn pack_is_quiet_on_a_steady_trace() {
        let eng = evaluate(&steady_report(24, None), rule_pack());
        assert!(
            eng.events().is_empty(),
            "steady trace fired: {}",
            eng.render_text()
        );
    }

    #[test]
    fn blocked_share_drop_fires_at_the_cutover() {
        let cut = 12;
        let eng = evaluate(&steady_report(24, Some(cut)), rule_pack());
        let fired: Vec<_> = eng
            .events()
            .iter()
            .filter(|e| eng.rules()[e.rule].name == "blocked_share_drop")
            .collect();
        assert!(
            !fired.is_empty(),
            "no blocked_share_drop events: {}",
            eng.render_text()
        );
        assert_eq!(fired[0].window_index, cut as i64, "pending at the cutover");
        assert!(
            fired.iter().any(|e| e.kind == obs::AlertEventKind::Firing),
            "drop never fired: {}",
            eng.render_text()
        );
    }

    #[test]
    fn streaming_and_materialized_evaluators_agree() {
        let report = steady_report(24, Some(10));
        let a = evaluate(&report, rule_pack());
        let mut b = obs::AlertEngine::new(rule_pack());
        // Streaming evaluates prefixes at barriers first; the full
        // recompute must erase any trace of them.
        b.eval_report(&steady_report(7, None));
        b.eval_report(&report);
        assert_eq!(a.render_text(), b.render_text());
        assert_eq!(a.render_ndjson(), b.render_ndjson());
    }
}
