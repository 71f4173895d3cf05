//! HTTP log extraction — the Bro-analyzer stage of the pipeline.
//!
//! The paper extends Bro's HTTP analyzer to export, per transaction: Host +
//! URI, Referer, Content-Type, Content-Length and (their extension) the
//! Location header of redirects. This module turns a captured trace into
//! that log: a vector of [`WebObject`]s with parsed URLs, ready for the
//! page-metadata reconstruction.

use crate::degrade::DegradationReport;
use crate::intern::Interner;
use http_model::url::{Url, UrlMemo};
use netsim::record::{HttpView, Trace};
use std::sync::Arc;

/// One extracted HTTP log entry.
#[derive(Debug, Clone, PartialEq)]
pub struct WebObject {
    /// Index of the transaction within the trace's HTTP records (stable id).
    pub idx: usize,
    /// Seconds since trace start.
    pub ts: f64,
    /// Anonymized client address.
    pub client_ip: u32,
    /// Server address.
    pub server_ip: u32,
    /// Reassembled request URL.
    pub url: Url,
    /// Parsed Referer URL, when present and parseable.
    pub referer: Option<Url>,
    /// Raw Content-Type header, interned: requests overwhelmingly repeat
    /// a few MIME types, so each distinct value is allocated once per
    /// trace and shared from then on.
    pub content_type: Option<Arc<str>>,
    /// Content-Length (0 when missing).
    pub bytes: u64,
    /// HTTP status.
    pub status: u16,
    /// Location header of 3xx responses.
    pub location: Option<Url>,
    /// User-Agent string, interned like `content_type` (one allocation
    /// per distinct device/browser string).
    pub user_agent: Option<Arc<str>>,
    /// TCP handshake (ms) — the RTT proxy.
    pub tcp_handshake_ms: f64,
    /// HTTP handshake (ms).
    pub http_handshake_ms: f64,
}

impl WebObject {
    /// The §8.2 back-office latency proxy.
    pub fn backend_gap_ms(&self) -> f64 {
        (self.http_handshake_ms - self.tcp_handshake_ms).max(0.0)
    }
}

/// Extract the HTTP log from a trace. Transactions whose URL cannot be
/// reassembled (empty Host) are dropped and counted.
pub fn extract(trace: &Trace) -> (Vec<WebObject>, usize) {
    let (out, report) = extract_with_report(trace);
    (out, report.quarantined())
}

/// Extract the HTTP log with full per-field degradation accounting.
///
/// Unlike [`extract`], this distinguishes *absent* optional headers from
/// *present-but-unparseable* ones, so corrupted traces (see
/// `netsim::faults`) can be reconciled against what the pipeline absorbed.
pub fn extract_with_report(trace: &Trace) -> (Vec<WebObject>, DegradationReport) {
    let (out, report, _) = extract_full(trace);
    (out, report)
}

/// [`extract_with_report`] plus the timestamps of the quarantined
/// (unparseable-URL) records, in trace order — the `quarantined` window
/// series' input, so the materialized and streaming paths count the same
/// records into the same hourly buckets.
pub fn extract_full(trace: &Trace) -> (Vec<WebObject>, DegradationReport, Vec<f64>) {
    let mut out = Vec::with_capacity(trace.records.len());
    let mut report = DegradationReport::default();
    let mut quarantined_ts = Vec::new();
    let mut extractor = Extractor::default();
    for (idx, tx) in trace.http_transactions().enumerate() {
        match extractor.extract_one(idx, &HttpView::of(tx), &mut report) {
            Some(o) => out.push(o),
            None => {
                report.unparseable_urls += 1;
                quarantined_ts.push(tx.ts);
            }
        }
    }
    (out, report, quarantined_ts)
}

/// What extraction keeps from one record to the next: the header-value
/// interner, the buffer each request URL is put together in, and the memo
/// that serves a page's objects their shared referer.
#[derive(Debug, Default)]
pub struct Extractor {
    interner: Interner,
    scratch: String,
    referers: UrlMemo,
}

impl Extractor {
    /// The log entry for one transaction, whether `tx` views a scanned line
    /// or an owned record; `None` when its URL cannot be reassembled (the
    /// caller counts and quarantines it).
    pub fn extract_one(
        &mut self,
        idx: usize,
        tx: &HttpView<'_>,
        report: &mut DegradationReport,
    ) -> Option<WebObject> {
        let url = Url::from_host_and_uri(tx.host, tx.uri, &mut self.scratch)?;
        let referer = tx.referer.and_then(|r| self.referers.parse(r));
        if tx.referer.is_some() && referer.is_none() {
            report.unparseable_referers += 1;
        }
        let location = tx.location.and_then(|l| Url::parse(l).ok());
        if tx.location.is_some() && location.is_none() {
            report.unparseable_locations += 1;
        }
        if tx.content_type.is_none() {
            report.missing_content_type += 1;
        }
        if tx.user_agent.is_none() {
            report.missing_user_agent += 1;
        }
        Some(WebObject {
            idx,
            ts: tx.ts,
            client_ip: tx.client_ip,
            server_ip: tx.server_ip,
            url,
            referer,
            content_type: self.interner.intern_opt(tx.content_type),
            bytes: tx.content_length.unwrap_or(0),
            status: tx.status,
            location,
            user_agent: self.interner.intern_opt(tx.user_agent),
            tcp_handshake_ms: tx.tcp_handshake_ms,
            http_handshake_ms: tx.http_handshake_ms,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use http_model::headers::{RequestHeaders, ResponseHeaders};
    use http_model::transaction::{HttpTransaction, Method};
    use netsim::record::{TraceMeta, TraceRecord};

    fn tx(host: &str, uri: &str, referer: Option<&str>, location: Option<&str>) -> TraceRecord {
        TraceRecord::Http(HttpTransaction {
            ts: 1.0,
            client_ip: 5,
            server_ip: 9,
            server_port: 80,
            method: Method::Get,
            request: RequestHeaders {
                host: host.to_string(),
                uri: uri.to_string(),
                referer: referer.map(str::to_string),
                user_agent: Some("UA".to_string()),
            },
            response: ResponseHeaders {
                status: if location.is_some() { 302 } else { 200 },
                content_type: Some("image/gif".to_string()),
                content_length: Some(43),
                location: location.map(str::to_string),
            },
            tcp_handshake_ms: 2.0,
            http_handshake_ms: 5.0,
        })
    }

    fn trace(records: Vec<TraceRecord>) -> Trace {
        Trace {
            meta: TraceMeta {
                name: "t".into(),
                duration_secs: 10.0,
                subscribers: 1,
                start_hour: 0,
                start_weekday: 0,
            },
            records,
        }
    }

    #[test]
    fn extracts_fields() {
        let t = trace(vec![tx(
            "ads.example",
            "/pixel.gif?x=1",
            Some("http://pub.example/page"),
            None,
        )]);
        let (objs, dropped) = extract(&t);
        assert_eq!(dropped, 0);
        assert_eq!(objs.len(), 1);
        let o = &objs[0];
        assert_eq!(o.url.host(), "ads.example");
        assert_eq!(o.url.query(), Some("x=1"));
        assert_eq!(o.referer.as_ref().unwrap().host(), "pub.example");
        assert_eq!(o.bytes, 43);
        assert_eq!(o.backend_gap_ms(), 3.0);
    }

    #[test]
    fn extracts_location() {
        let t = trace(vec![tx(
            "redir.example",
            "/r?dest=x",
            None,
            Some("http://target.example/banner.gif"),
        )]);
        let (objs, _) = extract(&t);
        assert_eq!(objs[0].status, 302);
        assert_eq!(objs[0].location.as_ref().unwrap().host(), "target.example");
    }

    #[test]
    fn drops_empty_host() {
        let t = trace(vec![tx("", "/x", None, None)]);
        let (objs, dropped) = extract(&t);
        assert!(objs.is_empty());
        assert_eq!(dropped, 1);
    }

    #[test]
    fn unparseable_referer_becomes_none() {
        let t = trace(vec![tx("a.example", "/x", Some("garbage referer"), None)]);
        let (objs, _) = extract(&t);
        assert!(objs[0].referer.is_none());
    }

    #[test]
    fn report_distinguishes_absent_from_unparseable() {
        let mut bad_headers = tx("a.example", "/x", Some("not a url"), None);
        if let TraceRecord::Http(h) = &mut bad_headers {
            h.response.content_type = None;
            h.request.user_agent = None;
            h.response.location = Some(":::".to_string());
        }
        let t = trace(vec![
            bad_headers,
            tx("", "/quarantined", None, None),
            tx("b.example", "/clean", None, None),
        ]);
        let (objs, report) = extract_with_report(&t);
        assert_eq!(objs.len(), 2);
        assert_eq!(report.unparseable_urls, 1);
        assert_eq!(report.unparseable_referers, 1);
        assert_eq!(report.unparseable_locations, 1);
        assert_eq!(report.missing_content_type, 1);
        assert_eq!(report.missing_user_agent, 1);
        // Absent referer on the clean record is not an error.
        assert_eq!(report.quarantined(), 1);
    }

    #[test]
    fn indices_are_stable() {
        let t = trace(vec![
            tx("a.example", "/1", None, None),
            tx("", "/drop", None, None),
            tx("b.example", "/2", None, None),
        ]);
        let (objs, dropped) = extract(&t);
        assert_eq!(dropped, 1);
        assert_eq!(objs[0].idx, 0);
        assert_eq!(objs[1].idx, 2, "index counts dropped transactions");
    }
}
