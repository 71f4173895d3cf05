//! Time series of ad vs non-ad traffic (Figures 5a/5b).

use super::merge_maps;
use crate::classify::Attribution;
use crate::pipeline::ClassifiedRequest;
use netsim::record::TraceMeta;
use stats::TimeSeries;
use std::collections::HashMap;

/// Series indices of the Figure 5a request time series.
pub mod series {
    /// Non-ad requests.
    pub const NON_AD: usize = 0;
    /// EasyList-attributed ad requests.
    pub const EASYLIST: usize = 1;
    /// EasyPrivacy-attributed ad requests.
    pub const EASYPRIVACY: usize = 2;
    /// Whitelist-only (non-intrusive) ad requests.
    pub(crate) const NON_INTRUSIVE: usize = 3;
}

/// The bin width of both figures, in seconds.
pub(crate) const BIN_SECS: u64 = 3600;

/// The Figure 5 fold, 5a and 5b in one pass: per `BIN_SECS` bin, the
/// requests and the bytes of each series of [`series`]. Integer bins, so
/// parts merge exactly; sparse, so a garbled timestamp costs one entry, not
/// every bin below it. A bin past the trace's stated duration is folded into
/// the last one when a figure is read out.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TimeBins(HashMap<u64, ([u64; 4], [u64; 4])>);

impl TimeBins {
    /// Fold one classified request.
    pub fn observe(&mut self, r: &ClassifiedRequest) {
        let idx = match r.label.attribution() {
            None => series::NON_AD,
            Some(Attribution::EasyList) => series::EASYLIST,
            Some(Attribution::EasyPrivacy) => series::EASYPRIVACY,
            Some(Attribution::NonIntrusive) => series::NON_INTRUSIVE,
        };
        let (requests, bytes) = self.0.entry(r.ts.max(0.0) as u64 / BIN_SECS).or_default();
        requests[idx] += 1;
        bytes[idx] += r.bytes;
    }

    /// Add another part in, bin by bin.
    pub fn merge(&mut self, other: &TimeBins) {
        merge_maps(&mut self.0, &other.0, |mine, theirs| {
            for idx in 0..4 {
                mine.0[idx] += theirs.0[idx];
                mine.1[idx] += theirs.1[idx];
            }
        });
    }

    /// A series set over `meta`'s duration, `value(requests, bytes)` added
    /// per bin and series name. Every addend is an integer below 2^53, so
    /// the `f64` sums are exact in any order.
    fn series<const N: usize>(
        &self,
        meta: &TraceMeta,
        names: [&str; N],
        value: impl Fn(&[u64; 4], &[u64; 4]) -> [u64; N],
    ) -> TimeSeries {
        let mut ts = TimeSeries::new(meta.duration_secs.ceil() as u64, BIN_SECS, &names);
        for (bin, (requests, bytes)) in &self.0 {
            for (idx, v) in value(requests, bytes).into_iter().enumerate() {
                ts.add_at(idx, (bin * BIN_SECS) as f64, v as f64);
            }
        }
        ts
    }

    /// The Figure 5a request-count series.
    pub fn request_series(&self, meta: &TraceMeta) -> TimeSeries {
        let names = ["non-ads", "EasyList", "EasyPrivacy", "Non-intrusive"];
        self.series(meta, names, |requests, _| *requests)
    }

    /// The Figure 5b shares.
    pub fn share_series(&self, meta: &TraceMeta) -> ShareSeries {
        use series::{EASYLIST, EASYPRIVACY};
        let of = |v: &[u64; 4]| [v.iter().sum(), v[EASYLIST], v[EASYPRIVACY]];
        let names = ["total", "el", "ep"];
        let reqs = self.series(meta, names, |requests, _| of(requests));
        let bytes = self.series(meta, names, |_, bytes| of(bytes));
        ShareSeries {
            easylist_req_pct: reqs.ratio_pct(1, 0),
            easyprivacy_req_pct: reqs.ratio_pct(2, 0),
            easylist_bytes_pct: bytes.ratio_pct(1, 0),
            easyprivacy_bytes_pct: bytes.ratio_pct(2, 0),
        }
    }
}

/// The Figure 5b percentage series: per bin, the share of requests and
/// bytes attributed to EasyList and EasyPrivacy (whitelist-only hits
/// excluded, exactly like the figure).
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
    use crate::characterize::Figures;
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

    fn classified(records: Vec<TraceRecord>, dur: f64) -> (TimeBins, TraceMeta) {
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
        (Figures::of_trace(&trace).time, trace.meta)
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
        let ts = t.request_series(&meta);
        assert_eq!(ts.values(series::NON_AD), &[1.0, 0.0]);
        assert_eq!(ts.values(series::EASYLIST), &[1.0, 0.0]);
        assert_eq!(ts.values(series::EASYPRIVACY), &[0.0, 1.0]);
        assert_eq!(ts.values(series::NON_INTRUSIVE), &[0.0, 1.0]);
    }

    #[test]
    fn a_request_past_the_stated_duration_lands_in_the_last_bin() {
        let records = vec![tx(10.0, "/logo.png", 1), tx(9000.0, "/logo.png", 1)];
        let (t, meta) = classified(records, 7200.0);
        assert_eq!(t.request_series(&meta).values(series::NON_AD), &[1.0, 1.0]);
    }

    #[test]
    fn a_garbled_far_future_timestamp_costs_one_bin() {
        // `1234.56789012` with one byte turned into an `e`: finite, and past
        // every `u64`. Dense bins would ask the allocator for all of them.
        let records = vec![tx(10.0, "/logo.png", 1), tx(1e30, "/banners/a.gif", 7)];
        let (t, meta) = classified(records, 7200.0);
        assert_eq!(t.0.len(), 2);
        let ts = t.request_series(&meta);
        assert_eq!(ts.values(series::NON_AD), &[1.0, 0.0]);
        assert_eq!(ts.values(series::EASYLIST), &[0.0, 1.0]);
        assert_eq!(t.share_series(&meta).easylist_bytes_pct[1], 100.0);
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
        let s = t.share_series(&meta);
        assert!((s.easylist_req_pct[0] - 33.333).abs() < 0.01);
        assert!((s.easyprivacy_req_pct[0] - 33.333).abs() < 0.01);
        assert!((s.easylist_bytes_pct[0] - 10.0).abs() < 0.01);
        let combined = combined_ad_share(&s);
        assert!((combined[0] - 66.666).abs() < 0.01);
    }

    #[test]
    fn whitelist_only_excluded_from_5b() {
        let (t, meta) = classified(vec![tx(0.0, "/nice/w.gif", 100)], 3600.0);
        let s = t.share_series(&meta);
        assert_eq!(s.easylist_req_pct[0], 0.0);
        assert_eq!(s.easyprivacy_req_pct[0], 0.0);
    }
}
