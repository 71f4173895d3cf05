//! Time series of ad vs non-ad traffic (Figures 5a/5b), read off the
//! adscope window plane ([`crate::window`]): per window, its requests and
//! bytes by list attribution. The windows are checkpointed, so a resumed
//! run's figures are the uninterrupted run's.

use crate::window::{
    BYTES, BYTES_EASYLIST, BYTES_EASYPRIVACY, COUNTERS, EASYLIST, EASYPRIVACY, REQUESTS,
    WHITELISTED,
};
use netsim::record::TraceMeta;
use obs::window::{ClosedWindow, WindowReport};
use stats::TimeSeries;

/// Series indices of the Figure 5a request time series.
pub mod series {
    /// Non-ad requests.
    pub const NON_AD: usize = 0;
    /// EasyList-attributed ad requests.
    pub const EASYLIST: usize = 1;
    /// EasyPrivacy-attributed ad requests.
    pub const EASYPRIVACY: usize = 2;
    // Series 3: whitelist-only (non-intrusive) ad requests.
}

/// The bin width of both figures, in seconds: the window plane's default
/// width.
const BIN_SECS: u64 = 3600;

/// Counter `at` of [`COUNTERS`] in `w`.
fn count(w: &ClosedWindow, at: usize) -> u64 {
    w.counter(COUNTERS[at])
}

/// A series set over `meta`'s duration, `value(window)` added per window at
/// its start. A window as wide as a bin or narrower (and dividing it) lands
/// in one bin; one that starts past the stated duration lands in the last,
/// one before the origin in the first. Every addend is an integer below
/// 2^53, so the `f64` sums are exact in any order.
fn series<const N: usize>(
    windows: &WindowReport,
    meta: &TraceMeta,
    names: [&str; N],
    value: impl Fn(&ClosedWindow) -> [u64; N],
) -> TimeSeries {
    let mut ts = TimeSeries::new(meta.duration_secs.ceil() as u64, BIN_SECS, &names);
    for w in &windows.windows {
        for (idx, v) in value(w).into_iter().enumerate() {
            ts.add_at(idx, w.start_secs, v as f64);
        }
    }
    ts
}

/// The Figure 5a request-count series. A request is counted under at most
/// one attribution, so the non-ads are what the three attributions leave.
pub fn request_series(windows: &WindowReport, meta: &TraceMeta) -> TimeSeries {
    let names = ["non-ads", "EasyList", "EasyPrivacy", "Non-intrusive"];
    series(windows, meta, names, |w| {
        let [el, ep, ni] = [EASYLIST, EASYPRIVACY, WHITELISTED].map(|at| count(w, at));
        [count(w, REQUESTS) - el - ep - ni, el, ep, ni]
    })
}

/// The Figure 5b shares.
pub fn share_series(windows: &WindowReport, meta: &TraceMeta) -> ShareSeries {
    let names = ["total", "el", "ep"];
    let of = |cells: [usize; 3]| series(windows, meta, names, |w| cells.map(|at| count(w, at)));
    let reqs = of([REQUESTS, EASYLIST, EASYPRIVACY]);
    let bytes = of([BYTES, BYTES_EASYLIST, BYTES_EASYPRIVACY]);
    ShareSeries {
        easylist_req_pct: reqs.ratio_pct(1, 0),
        easyprivacy_req_pct: reqs.ratio_pct(2, 0),
        easylist_bytes_pct: bytes.ratio_pct(1, 0),
        easyprivacy_bytes_pct: bytes.ratio_pct(2, 0),
    }
}

/// The Figure 5b percentage series: per bin, the share of requests and
/// bytes attributed to EasyList and EasyPrivacy (whitelist-only hits
/// excluded, exactly like the figure).
#[derive(Debug, PartialEq)]
pub struct ShareSeries {
    /// % of requests attributed to EasyList, per bin.
    pub easylist_req_pct: Vec<f64>,
    /// % of requests attributed to EasyPrivacy, per bin.
    pub easyprivacy_req_pct: Vec<f64>,
    /// % of bytes attributed to EasyList, per bin.
    pub easylist_bytes_pct: Vec<f64>,
    /// % of bytes attributed to EasyPrivacy, per bin.
    pub easyprivacy_bytes_pct: Vec<f64>,
}

/// Combined EL+EP request share per bin (the curve whose 6–12 % swing the
/// paper highlights).
pub fn combined_ad_share(shares: &ShareSeries) -> Vec<f64> {
    shares
        .easylist_req_pct
        .iter()
        .zip(&shares.easyprivacy_req_pct)
        .map(|(a, b)| a + b)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::PassiveClassifier;
    use crate::pipeline::{classify_trace, PipelineOptions};
    use abp_filter::FilterList;
    use http_model::headers::{RequestHeaders, ResponseHeaders};
    use http_model::transaction::Method;
    use http_model::HttpTransaction;
    use netsim::record::{Trace, TraceRecord};

    fn tx(ts: f64, uri: &str, bytes: u64) -> TraceRecord {
        TraceRecord::Http(HttpTransaction {
            ts,
            client_ip: 1,
            server_ip: 1,
            server_port: 80,
            method: Method::Get,
            request: RequestHeaders {
                host: "x.example".into(),
                uri: uri.into(),
                referer: Some("http://pub.example/".into()),
                user_agent: Some("UA".into()),
            },
            response: ResponseHeaders {
                status: 200,
                content_type: Some("image/gif".into()),
                content_length: Some(bytes),
                location: None,
            },
            tcp_handshake_ms: 1.0,
            http_handshake_ms: 2.0,
        })
    }

    fn classified(records: Vec<TraceRecord>, dur: f64) -> (WindowReport, TraceMeta) {
        let trace = Trace {
            meta: TraceMeta {
                name: "t".into(),
                duration_secs: dur,
                subscribers: 1,
                start_hour: 0,
                start_weekday: 5,
            },
            records,
        };
        let c = PassiveClassifier::new(vec![
            FilterList::parse("easylist", "/banners/\n"),
            FilterList::parse("easyprivacy", "/pixel/\n"),
            FilterList::parse("acceptable-ads", "@@/nice/\n"),
        ]);
        let trace = classify_trace(&trace, &c, PipelineOptions::default());
        (trace.windows, trace.meta)
    }

    #[test]
    fn request_series_buckets_by_attribution() {
        let (t, meta) = classified(
            vec![
                tx(0.0, "/logo.png", 1),
                tx(10.0, "/banners/a.gif", 1),
                tx(3700.0, "/pixel/p.gif", 1),
                tx(3710.0, "/nice/w.gif", 1),
            ],
            7200.0,
        );
        let ts = request_series(&t, &meta);
        assert_eq!(ts.values(series::NON_AD), &[1.0, 0.0]);
        assert_eq!(ts.values(series::EASYLIST), &[1.0, 0.0]);
        assert_eq!(ts.values(series::EASYPRIVACY), &[0.0, 1.0]);
        assert_eq!(ts.names()[3], "Non-intrusive");
        assert_eq!(ts.values(3), &[0.0, 1.0]);
    }

    #[test]
    fn a_request_past_the_stated_duration_lands_in_the_last_bin() {
        let records = vec![tx(10.0, "/logo.png", 1), tx(9000.0, "/logo.png", 1)];
        let (t, meta) = classified(records, 7200.0);
        assert_eq!(
            request_series(&t, &meta).values(series::NON_AD),
            &[1.0, 1.0]
        );
    }

    #[test]
    fn a_garbled_far_future_timestamp_costs_one_bin() {
        // `1234.56789012` with one byte turned into an `e`: finite, and past
        // every `u64`. Dense windows would ask the allocator for all of them.
        let records = vec![tx(10.0, "/logo.png", 1), tx(1e30, "/banners/a.gif", 7)];
        let (t, meta) = classified(records, 7200.0);
        assert_eq!(t.windows.len(), 2);
        let ts = request_series(&t, &meta);
        assert_eq!(ts.values(series::NON_AD), &[1.0, 0.0]);
        assert_eq!(ts.values(series::EASYLIST), &[0.0, 1.0]);
        assert_eq!(share_series(&t, &meta).easylist_bytes_pct[1], 100.0);
    }

    #[test]
    fn share_series_percentages() {
        let (t, meta) = classified(
            vec![
                tx(0.0, "/logo.png", 900),
                tx(1.0, "/banners/a.gif", 100),
                tx(2.0, "/pixel/p.gif", 0),
            ],
            3600.0,
        );
        let s = share_series(&t, &meta);
        assert!((s.easylist_req_pct[0] - 33.333).abs() < 0.01);
        assert!((s.easyprivacy_req_pct[0] - 33.333).abs() < 0.01);
        assert!((s.easylist_bytes_pct[0] - 10.0).abs() < 0.01);
        let combined = combined_ad_share(&s);
        assert!((combined[0] - 66.666).abs() < 0.01);
    }

    #[test]
    fn whitelist_only_excluded_from_5b() {
        let (t, meta) = classified(vec![tx(0.0, "/nice/w.gif", 100)], 3600.0);
        let s = share_series(&t, &meta);
        assert_eq!(s.easylist_req_pct[0], 0.0);
        assert_eq!(s.easyprivacy_req_pct[0], 0.0);
    }
}
