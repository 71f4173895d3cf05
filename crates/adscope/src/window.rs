//! Windowed time-series aggregation over classified requests — the
//! streaming view the paper's §5 temporal characterization needs.
//!
//! [`aggregate`] folds a time-ordered request slice into an
//! [`obs::WindowReport`]: per-window request/ad/block/whitelist counts,
//! byte volume, refmap misses, and an RTB-latency histogram (the §8.2
//! back-office gap, ad requests only). The engine's logical clock is the
//! trace timestamp, so the report is a pure function of the classified
//! requests: [`crate::pipeline`] folds the plane set once, over the whole
//! request vector.
//!
//! [`publish`] bridges a report into a registry: one NDJSON line per
//! closed window into the window log (served at `/windows`), plus the
//! `obs_window_late_total` / `adscope_windows_closed_total` counters and
//! last-window gauges.

use crate::pipeline::{ClassifiedRequest, PipelineOptions};
use crate::planes::Planes;
use obs::window::{WindowConfig, WindowEngine, WindowReport};

/// Windowed-aggregation options, carried on
/// [`crate::pipeline::PipelineOptions`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowOptions {
    /// Produce windowed series at all (`bench_gate`'s `windows` row
    /// toggles this).
    pub enabled: bool,
    /// Window width in trace seconds (default one hour — the paper's §5
    /// granularity).
    pub width_secs: f64,
    /// How far behind the high timestamp a record may arrive before it
    /// counts late instead of landing in its window.
    pub watermark_secs: f64,
}

impl Default for WindowOptions {
    fn default() -> Self {
        WindowOptions {
            enabled: true,
            width_secs: 3600.0,
            watermark_secs: 3600.0,
        }
    }
}

impl WindowOptions {
    fn config(self) -> WindowConfig {
        WindowConfig {
            width_secs: self.width_secs,
            watermark_secs: self.watermark_secs,
        }
    }
}

/// The counter series every adscope window carries. Shared between
/// [`aggregate`] and anything reading the report back, so names can't
/// drift.
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
/// requests only).
pub const RTB_HIST: &str = "rtb_gap_ms";

/// The live form of the adscope window plane ([`crate::planes`]): folds
/// requests one at a time and cuts partial reports. Series are registered
/// at construction, so even a zero-record cut carries the full schema.
#[derive(Debug)]
pub struct WindowAggregator {
    engine: WindowEngine,
    opts: WindowOptions,
    c_requests: obs::window::CounterId,
    c_ads: obs::window::CounterId,
    c_easylist: obs::window::CounterId,
    c_easyprivacy: obs::window::CounterId,
    c_whitelisted: obs::window::CounterId,
    c_refmap_miss: obs::window::CounterId,
    c_quarantined: obs::window::CounterId,
    c_bytes: obs::window::CounterId,
    h_rtb: obs::window::HistId,
}

impl WindowAggregator {
    /// A fresh aggregator with every adscope series registered.
    pub fn new(opts: WindowOptions) -> WindowAggregator {
        let mut engine = WindowEngine::new(opts.config());
        WindowAggregator {
            c_requests: engine.counter_series("requests"),
            c_ads: engine.counter_series("ads"),
            c_easylist: engine.counter_series("blocked_easylist"),
            c_easyprivacy: engine.counter_series("blocked_easyprivacy"),
            c_whitelisted: engine.counter_series("whitelisted"),
            c_refmap_miss: engine.counter_series("refmap_miss"),
            c_quarantined: engine.counter_series("quarantined"),
            c_bytes: engine.counter_series("bytes"),
            h_rtb: engine.hist_series(RTB_HIST),
            engine,
            opts,
        }
    }

    /// Fold one classified request into its window. No-op when windowing
    /// is disabled.
    pub fn observe(&mut self, r: &ClassifiedRequest) {
        if !self.opts.enabled {
            return;
        }
        self.engine.count(r.ts, self.c_requests, 1);
        self.engine.count(r.ts, self.c_bytes, r.bytes);
        if r.page.is_none() {
            self.engine.count(r.ts, self.c_refmap_miss, 1);
        }
        if r.label.is_ad() {
            self.engine.count(r.ts, self.c_ads, 1);
            self.engine
                .observe(r.ts, self.h_rtb, r.backend_gap_ms().max(0.0) as u64);
        }
        match r.label.attribution() {
            Some(crate::classify::Attribution::EasyList) => {
                self.engine.count(r.ts, self.c_easylist, 1)
            }
            Some(crate::classify::Attribution::EasyPrivacy) => {
                self.engine.count(r.ts, self.c_easyprivacy, 1)
            }
            Some(crate::classify::Attribution::NonIntrusive) => {
                self.engine.count(r.ts, self.c_whitelisted, 1)
            }
            None => {}
        }
    }

    /// Count one quarantined record (unparseable URL or poisoned) in its
    /// window: the `quarantine_burst` alert rule's input series. Zero
    /// counters are elided from closed windows, so clean traces render
    /// exactly as before this series existed.
    pub fn observe_quarantined(&mut self, ts: f64) {
        if !self.opts.enabled {
            return;
        }
        self.engine.count(ts, self.c_quarantined, 1);
    }

    /// Close and return everything observed so far, leaving the aggregator
    /// empty but live. With an infinite watermark cuts merge back in any
    /// grouping, so where they fall cannot change the merged report.
    pub fn cut(&mut self) -> WindowReport {
        std::mem::replace(self, WindowAggregator::new(self.opts))
            .engine
            .finish()
    }
}

/// Fold classified requests — plus the timestamps of quarantined
/// (unparseable) records — into per-window series: the window plane of
/// [`Planes::fold`]. Returns an empty report when windowing is disabled.
pub fn aggregate(
    requests: &[ClassifiedRequest],
    quarantined_ts: &[f64],
    opts: WindowOptions,
) -> WindowReport {
    let only_windows = PipelineOptions {
        window: opts,
        ..PipelineOptions::default()
    };
    let mut planes = Planes::new(only_windows, &[]);
    planes.fold(requests, quarantined_ts);
    planes.cut().windows
}

/// Publish a report into `registry`: NDJSON window lines (scope
/// `adscope`), late/closed counters, and last-window gauges for live
/// scrapes.
pub fn publish(report: &WindowReport, registry: &obs::Registry) {
    if !obs::enabled() {
        return;
    }
    for line in report.render_ndjson("adscope").lines() {
        registry.windows().push(line.to_string());
    }
    registry
        .counter("adscope_windows_closed_total")
        .add(report.windows.len() as u64);
    if report.late > 0 {
        registry.counter("obs_window_late_total").add(report.late);
    }
    if let Some(last) = report.windows.last() {
        let requests = last.counter("requests");
        let ads = last.counter("ads");
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
    fn disabled_options_produce_empty_report() {
        let rs = vec![req(10.0, "http://ads.example/banners/a.gif")];
        let report = aggregate(
            &rs,
            &[],
            WindowOptions {
                enabled: false,
                ..WindowOptions::default()
            },
        );
        assert!(report.windows.is_empty());
        assert_eq!(report.late, 0);
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
