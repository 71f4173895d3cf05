//! Ad vs non-ad traffic by Content-Type (Table 4).

use super::{counters, merge_maps, Traffic};
use crate::pipeline::ClassifiedRequest;
use std::borrow::Cow;
use std::collections::HashMap;

/// One Table 4 row: a raw MIME type with its request/byte shares of the ad
/// and non-ad populations.
#[derive(Debug, Clone, PartialEq)]
pub struct ContentTypeRow {
    /// The MIME type as reported in the trace (`-` for absent headers).
    pub mime: String,
    /// % of ad requests with this type.
    pub ad_req_pct: f64,
    /// % of ad bytes.
    pub ad_bytes_pct: f64,
    /// % of non-ad requests.
    pub nonad_req_pct: f64,
    /// % of non-ad bytes.
    pub nonad_bytes_pct: f64,
}

/// The Table 4 fold: the [`Traffic`] of every raw MIME type (lower-cased,
/// parameters stripped, `-` for an absent header) and of the whole trace —
/// the latter is also Table 2's totals.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ContentTypes {
    by_mime: HashMap<String, Traffic>,
    /// The whole trace.
    pub total: Traffic,
}

impl ContentTypes {
    /// Fold one classified request.
    pub fn observe(&mut self, r: &ClassifiedRequest) {
        let mime = r.content_type.as_deref().unwrap_or("");
        let mime = mime.split(';').next().unwrap_or("").trim();
        let mime = if mime.is_empty() { "-" } else { mime };
        // The common header is already lower-case: nothing to allocate.
        let mime = match mime.bytes().any(|b| b.is_ascii_uppercase()) {
            true => Cow::Owned(mime.to_ascii_lowercase()),
            false => Cow::Borrowed(mime),
        };
        counters(&mut self.by_mime, &mime).observe(r);
        self.total.observe(r);
    }

    /// Add another part in, type by type.
    pub fn merge(&mut self, other: &ContentTypes) {
        merge_maps(&mut self.by_mime, &other.by_mime, Traffic::merge);
        self.total.merge(&other.total);
    }

    /// The Table 4 rows, sorted by request share, truncated to the `top_n`
    /// most common types (the paper prints 10).
    pub fn table(&self, top_n: usize) -> Vec<ContentTypeRow> {
        let tot = &self.total;
        let mut rows: Vec<ContentTypeRow> = self
            .by_mime
            .iter()
            .map(|(mime, a)| ContentTypeRow {
                mime: mime.clone(),
                ad_req_pct: stats::pct(a.ad_requests, tot.ad_requests),
                ad_bytes_pct: stats::pct(a.ad_bytes, tot.ad_bytes),
                nonad_req_pct: stats::pct(
                    a.requests - a.ad_requests,
                    tot.requests - tot.ad_requests,
                ),
                nonad_bytes_pct: stats::pct(a.bytes - a.ad_bytes, tot.bytes - tot.ad_bytes),
            })
            .collect();
        rows.sort_by(|a, b| {
            (b.ad_req_pct + b.nonad_req_pct)
                .partial_cmp(&(a.ad_req_pct + a.nonad_req_pct))
                .expect("finite")
                // Ties go by name: the map iterates in a different order every call.
                .then_with(|| a.mime.cmp(&b.mime))
        });
        rows.truncate(top_n);
        rows
    }
}

/// Find a row by MIME type.
pub fn row<'a>(rows: &'a [ContentTypeRow], mime: &str) -> Option<&'a ContentTypeRow> {
    rows.iter().find(|r| r.mime == mime)
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
    use netsim::record::{Trace, TraceMeta, TraceRecord};

    fn tx(uri: &str, ct: Option<&str>, bytes: u64) -> TraceRecord {
        TraceRecord::Http(HttpTransaction {
            ts: 0.0,
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
                content_type: ct.map(str::to_string),
                content_length: Some(bytes),
                location: None,
            },
            tcp_handshake_ms: 1.0,
            http_handshake_ms: 2.0,
        })
    }

    fn classified(records: Vec<TraceRecord>) -> ContentTypes {
        let trace = Trace {
            meta: TraceMeta {
                name: "t".into(),
                duration_secs: 10.0,
                subscribers: 1,
                start_hour: 0,
                start_weekday: 0,
            },
            records,
        };
        let c = PassiveClassifier::new(vec![FilterList::parse("easylist", "/banners/\n")]);
        Figures::of_trace(&classify_trace(&trace, &c, PipelineOptions::default())).content
    }

    #[test]
    fn shares_split_by_ad_status() {
        let t = classified(vec![
            tx("/banners/a.gif", Some("image/gif"), 43),
            tx("/banners/b.gif", Some("image/gif"), 43),
            tx("/photo.jpg", Some("image/jpeg"), 50_000),
            tx("/api", None, 100),
        ]);
        let rows = t.table(10);
        let gif = row(&rows, "image/gif").unwrap();
        assert_eq!(gif.ad_req_pct, 100.0);
        assert_eq!(gif.nonad_req_pct, 0.0);
        let jpeg = row(&rows, "image/jpeg").unwrap();
        assert_eq!(jpeg.ad_req_pct, 0.0);
        assert_eq!(jpeg.nonad_req_pct, 50.0);
        let missing = row(&rows, "-").unwrap();
        assert_eq!(missing.nonad_req_pct, 50.0);
    }

    #[test]
    fn mime_parameters_stripped() {
        let t = classified(vec![tx("/a.bin", Some("Image/GIF; charset=x"), 1)]);
        let rows = t.table(10);
        assert!(row(&rows, "image/gif").is_some());
    }

    #[test]
    fn truncates_to_top_n() {
        let t = classified(vec![
            tx("/a", Some("a/a"), 1),
            tx("/b", Some("b/b"), 1),
            tx("/c", Some("c/c"), 1),
        ]);
        let rows = t.table(2);
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn equal_shares_rank_by_name_on_every_call() {
        let t = classified(vec![
            tx("/c", Some("c/c"), 1),
            tx("/a", Some("a/a"), 1),
            tx("/b", Some("b/b"), 1),
        ]);
        // Each call's `HashMap` has a fresh `RandomState`.
        for _ in 0..20 {
            let mimes: Vec<String> = t.table(2).into_iter().map(|r| r.mime).collect();
            assert_eq!(mimes, ["a/a", "b/b"]);
        }
    }

    #[test]
    fn byte_shares_sum_to_100() {
        let t = classified(vec![
            tx("/banners/a.gif", Some("image/gif"), 100),
            tx("/banners/v.mp4", Some("video/mp4"), 900),
            tx("/photo.jpg", Some("image/jpeg"), 500),
        ]);
        let rows = t.table(10);
        let ad_bytes: f64 = rows.iter().map(|r| r.ad_bytes_pct).sum();
        let nonad_bytes: f64 = rows.iter().map(|r| r.nonad_bytes_pct).sum();
        assert!((ad_bytes - 100.0).abs() < 1e-9);
        assert!((nonad_bytes - 100.0).abs() < 1e-9);
    }
}
