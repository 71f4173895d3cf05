//! Windowed time-series aggregation over classified requests — the
//! streaming view the paper's §5 temporal characterization needs.
//!
//! [`observe`] folds one request into an [`obs::WindowSeries`] of this
//! module's schema ([`COUNTERS`], [`RTB_HIST`]): per-window
//! request/ad/block/whitelist counts, byte volume, refmap misses,
//! quarantined records, and an RTB-latency histogram (the §8.2 back-office
//! gap, ad requests only). The series' logical clock is the trace timestamp,
//! so the report is a pure function of the classified requests; [`aggregate`]
//! folds a request slice through [`crate::planes::Planes`], as
//! [`crate::pipeline`] does over the whole request vector.
//!
//! [`publish`] bridges a report into a registry: one NDJSON line per
//! window into the window log (served at `/windows`), plus the
//! `obs_window_late_total` / `adscope_windows_closed_total` counters and
//! last-window gauges.

use crate::classify::Attribution;
use crate::pipeline::{ClassifiedRequest, PipelineOptions};
use crate::planes::Planes;
use obs::window::{WindowReport, WindowSeries};

/// Windowed-aggregation options, carried on
/// [`crate::pipeline::PipelineOptions`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowOptions {
    /// Window width in trace seconds (default one hour — the paper's §5
    /// granularity).
    pub width_secs: f64,
    /// Ignored: every window closes at the end of the run. Kept, at its
    /// default of infinity, for the e2e harness, which writes it.
    pub watermark_secs: f64,
}

impl Default for WindowOptions {
    fn default() -> Self {
        WindowOptions {
            width_secs: 3600.0,
            watermark_secs: f64::INFINITY,
        }
    }
}

/// The counter series every adscope window carries, in cell order: the one
/// place their names are spelled.
pub const COUNTERS: &[&str] = &[
    "requests",
    "ads",
    "blocked_easylist",
    "blocked_easyprivacy",
    "whitelisted",
    "refmap_miss",
    "quarantined",
    "bytes",
];

/// The RTB back-office latency histogram series (§8.2 gap, ms, ad
/// requests only), the one histogram series.
pub const RTB_HIST: &str = "rtb_gap_ms";

// Cell positions in [`COUNTERS`].
pub(crate) const REQUESTS: usize = 0;
pub(crate) const ADS: usize = 1;
pub(crate) const EASYLIST: usize = 2;
pub(crate) const EASYPRIVACY: usize = 3;
const WHITELISTED: usize = 4;
pub(crate) const REFMAP_MISS: usize = 5;
pub(crate) const QUARANTINED: usize = 6;
const BYTES: usize = 7;

/// An empty adscope series at `opts`' width.
pub fn series(opts: WindowOptions) -> WindowSeries {
    WindowSeries::new(COUNTERS, &[RTB_HIST], opts.width_secs)
}

/// Fold one classified request into its window.
pub fn observe(windows: &mut WindowSeries, r: &ClassifiedRequest) {
    let mut w = windows.at(r.ts);
    w.count(REQUESTS, 1);
    w.count(BYTES, r.bytes);
    if r.page.is_none() {
        w.count(REFMAP_MISS, 1);
    }
    if r.label.is_ad() {
        w.count(ADS, 1);
        w.observe(0, r.backend_gap_ms().max(0.0) as u64);
    }
    match r.label.attribution() {
        Some(Attribution::EasyList) => w.count(EASYLIST, 1),
        Some(Attribution::EasyPrivacy) => w.count(EASYPRIVACY, 1),
        Some(Attribution::NonIntrusive) => w.count(WHITELISTED, 1),
        None => {}
    }
}

/// Fold classified requests — plus the timestamps of quarantined
/// (unparseable) records — into per-window series: the window plane of
/// [`Planes::fold`].
pub fn aggregate(
    requests: &[ClassifiedRequest],
    quarantined_ts: &[f64],
    opts: WindowOptions,
) -> WindowReport {
    let only_windows = PipelineOptions {
        window: opts,
        ..PipelineOptions::default()
    };
    let mut planes = Planes::new(only_windows);
    planes.fold(requests, quarantined_ts);
    planes.windows.report()
}

/// Publish a report into `registry`: NDJSON window lines (scope
/// `adscope`), late/closed counters, and last-window gauges for live
/// scrapes.
pub fn publish(report: &WindowReport, registry: &obs::Registry) {
    if !publish_scope(report, "adscope", "adscope_windows_closed_total", registry) {
        return;
    }
    if let Some(last) = report.windows.last() {
        let requests = last.counter(COUNTERS[REQUESTS]);
        let ads = last.counter(COUNTERS[ADS]);
        registry
            .gauge("adscope_window_last_requests")
            .set(requests as f64);
        if requests > 0 {
            registry
                .gauge("adscope_window_last_ad_share_pct")
                .set(100.0 * ads as f64 / requests as f64);
        }
    }
}

/// The one bridge of a window scope into `registry`, and the one check of
/// the kill switch for it: the report's NDJSON lines into the window log
/// under `scope`, its windows into the `closed` counter and its late
/// observations into `obs_window_late_total`. `false`, publishing nothing,
/// when recording is off.
pub(crate) fn publish_scope(
    report: &WindowReport,
    scope: &str,
    closed: &str,
    registry: &obs::Registry,
) -> bool {
    if !obs::enabled() {
        return false;
    }
    for line in report.render_ndjson(scope).lines() {
        registry.windows().push(line.to_string());
    }
    registry.counter(closed).add(report.windows.len() as u64);
    if report.late > 0 {
        registry.counter("obs_window_late_total").add(report.late);
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::{AdLabel, PassiveClassifier};
    use abp_filter::FilterList;
    use http_model::{ContentCategory, Url};

    /// Labels come from a real classifier — AdLabel's internals are
    /// deliberately private.
    fn label(url: &str) -> AdLabel {
        let c = PassiveClassifier::new(vec![
            FilterList::parse("easylist", "/banners/\n"),
            FilterList::parse("acceptable-ads", "@@||nice.example^\n"),
        ]);
        let url = Url::parse(url).unwrap();
        c.classify(&url, None, ContentCategory::Other)
    }

    fn req(ts: f64, url: &str) -> ClassifiedRequest {
        let label = label(url);
        let ad = label.is_ad();
        ClassifiedRequest {
            ts,
            client_ip: 1,
            server_ip: 2,
            url: Url::parse(url).unwrap(),
            page: None,
            category: ContentCategory::Other,
            content_type: None,
            bytes: 100,
            user_agent: None,
            tcp_handshake_ms: 1.0,
            http_handshake_ms: if ad { 31.0 } else { 2.0 },
            label,
            rule: None,
        }
    }

    #[test]
    fn aggregate_counts_requests_ads_and_rtb() {
        let rs = vec![
            req(10.0, "http://x.example/a"),
            req(20.0, "http://ads.example/banners/a.gif"),
            req(25.0, "http://nice.example/ok.js"),
            req(4000.0, "http://x.example/b"),
        ];
        let report = aggregate(&rs, &[], WindowOptions::default());
        assert_eq!(report.windows.len(), 2);
        assert_eq!(report.total("requests"), 4);
        assert_eq!(report.total("ads"), 2, "block + exception both ads");
        assert_eq!(report.total("blocked_easylist"), 1);
        assert_eq!(report.total("whitelisted"), 1, "exception-only hit");
        assert_eq!(report.total("bytes"), 400);
        assert_eq!(report.total("refmap_miss"), 4);
        let h = report.windows[0].hist(RTB_HIST).expect("rtb histogram");
        assert_eq!(h.count(), 2, "only ad requests observe the RTB gap");
        assert_eq!(h.sum, 60);
    }

    #[test]
    fn publish_exposes_counters_gauges_and_ndjson() {
        let r = obs::Registry::new();
        let rs = vec![
            req(10.0, "http://ads.example/banners/a.gif"),
            req(20.0, "http://x.example/a"),
        ];
        let report = aggregate(&rs, &[], WindowOptions::default());
        publish(&report, &r);
        let snap = r.snapshot();
        assert_eq!(snap.counter("adscope_windows_closed_total", &[]), 1);
        assert_eq!(snap.counter("obs_window_late_total", &[]), 0);
        assert!(r.windows_ndjson().contains("\"scope\":\"adscope\""));
        assert!(matches!(snap.get("adscope_window_last_ad_share_pct", &[]),
                Some(obs::SampleValue::Gauge(v)) if (*v - 50.0).abs() < 1e-9));
    }
}
