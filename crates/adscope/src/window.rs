//! Windowed time-series aggregation over classified requests — the
//! streaming view the paper's §5 temporal characterization needs.
//!
//! [`observe`] folds one request into an [`obs::WindowSeries`] of this
//! module's schema (`COUNTERS`, `RTB_HIST`): per-window
//! request/ad/block/whitelist counts, byte volume (all, and EasyList- and
//! EasyPrivacy-attributed), refmap misses, quarantined records, and an
//! RTB-latency histogram (the §8.2 back-office gap, ad requests only).
//! Figures 5a and 5b read their hourly series off these windows
//! ([`crate::characterize::timeseries`]). The series' logical clock is the trace timestamp,
//! so the report is a pure function of the classified requests; [`aggregate`]
//! folds a request slice through [`crate::planes::Planes`], as
//! [`crate::pipeline`] does over the whole request vector.
//!
//! [`publish`] bridges a report into a registry: one NDJSON line per
//! window, published as the `/windows` body, and its late observations
//! into the `obs_window_late_total` counter.

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
pub(crate) const COUNTERS: &[&str] = &[
    "requests",
    "ads",
    "blocked_easylist",
    "blocked_easyprivacy",
    "whitelisted",
    "refmap_miss",
    "quarantined",
    "bytes",
    "bytes_easylist",
    "bytes_easyprivacy",
];

/// The RTB back-office latency histogram series (§8.2 gap, ms, ad
/// requests only), the one histogram series.
pub(crate) const RTB_HIST: &str = "rtb_gap_ms";

// Cell positions in [`COUNTERS`].
pub(crate) const REQUESTS: usize = 0;
pub(crate) const ADS: usize = 1;
pub(crate) const EASYLIST: usize = 2;
pub(crate) const EASYPRIVACY: usize = 3;
pub(crate) const WHITELISTED: usize = 4;
pub(crate) const REFMAP_MISS: usize = 5;
pub(crate) const QUARANTINED: usize = 6;
pub(crate) const BYTES: usize = 7;
pub(crate) const BYTES_EASYLIST: usize = 8;
pub(crate) const BYTES_EASYPRIVACY: usize = 9;

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
        Some(Attribution::EasyList) => {
            w.count(EASYLIST, 1);
            w.count(BYTES_EASYLIST, r.bytes);
        }
        Some(Attribution::EasyPrivacy) => {
            w.count(EASYPRIVACY, 1);
            w.count(BYTES_EASYPRIVACY, r.bytes);
        }
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

/// Publish a report into `registry`: its NDJSON window lines (scope
/// `adscope`) as the `/windows` body, and its late observations into
/// `obs_window_late_total`.
pub fn publish(report: &WindowReport, registry: &obs::Registry) {
    publish_scopes(&[(report, "adscope")], registry);
}

/// The one bridge of window scopes into `registry`, and the one check of
/// the kill switch for it: each report's NDJSON lines under its scope, in
/// order, as the `/windows` body (replacing the last one), and their late
/// observations into `obs_window_late_total`. Publishes nothing when
/// recording is off.
pub(crate) fn publish_scopes(scopes: &[(&WindowReport, &str)], registry: &obs::Registry) {
    if !obs::enabled() {
        return;
    }
    let body = scopes
        .iter()
        .map(|(r, scope)| r.render_ndjson(scope))
        .collect();
    registry.publish([("/windows", body)]);
    let late: u64 = scopes.iter().map(|(r, _)| r.late).sum();
    if late > 0 {
        registry.counter("obs_window_late_total").add(late);
    }
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
        assert_eq!(report.total("bytes_easylist"), 100);
        assert_eq!(report.total("bytes_easyprivacy"), 0);
        assert_eq!(report.total("refmap_miss"), 4);
        let h = report.windows[0].hist(RTB_HIST).expect("rtb histogram");
        assert_eq!(h.count(), 2, "only ad requests observe the RTB gap");
        assert_eq!(h.sum, 60);
    }

    #[test]
    fn publish_serves_the_rendered_report_at_windows() {
        let r = obs::Registry::new();
        let rs = vec![
            req(10.0, "http://ads.example/banners/a.gif"),
            req(20.0, "http://x.example/a"),
        ];
        let report = aggregate(&rs, &[], WindowOptions::default());
        publish(&report, &r);
        assert_eq!(r.snapshot().counter("obs_window_late_total", &[]), 0);
        assert_eq!(r.body("/windows"), report.render_ndjson("adscope"));
        // A later publish replaces the body.
        publish(&aggregate(&rs[..1], &[], WindowOptions::default()), &r);
        assert_eq!(r.body("/windows").lines().count(), 1);
    }
}
