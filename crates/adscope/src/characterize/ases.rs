//! AS-level attribution of ad traffic (Table 5).
//!
//! The paper maps server IPs to ASes via global routing data; here the
//! equivalent mapping is the ecosystem's server registry, supplied by the
//! caller as a lookup function so this module stays independent of
//! `webgen`.

use super::servers::ServerStudy;
use super::Traffic;
use std::collections::HashMap;

/// One Table 5 row.
#[derive(Debug, Clone, PartialEq)]
pub struct AsRow {
    /// AS name.
    pub name: String,
    /// % of all ad requests in the trace served by this AS.
    pub ads_req_pct: f64,
    /// % of all ad bytes.
    pub ads_bytes_pct: f64,
    /// % of this AS's own requests that are ads.
    pub per_as_req_pct: f64,
    /// % of this AS's own bytes that are ads.
    pub per_as_bytes_pct: f64,
}

/// Build the Table 5 rows from the per-server counters. `as_of` maps a
/// server IP to an AS name (`None` for unknown IPs, which are aggregated
/// under "other") and is asked once per server. Returns the top `n` ASes by
/// ad-request share plus the total top-N coverage.
pub fn as_table<F>(study: &ServerStudy, as_of: F, n: usize) -> (Vec<AsRow>, f64)
where
    F: Fn(u32) -> Option<String>,
{
    let mut per_as: HashMap<String, Traffic> = HashMap::new();
    let mut total = Traffic::default();
    for (&ip, server) in &study.servers {
        let name = as_of(ip).unwrap_or_else(|| "other".to_string());
        per_as.entry(name).or_default().merge(&server.traffic);
        total.merge(&server.traffic);
    }
    let mut rows: Vec<AsRow> = per_as
        .into_iter()
        .map(|(name, c)| AsRow {
            name,
            ads_req_pct: stats::pct(c.ad_requests, total.ad_requests),
            ads_bytes_pct: stats::pct(c.ad_bytes, total.ad_bytes),
            per_as_req_pct: stats::pct(c.ad_requests, c.requests),
            per_as_bytes_pct: stats::pct(c.ad_bytes, c.bytes),
        })
        .collect();
    // Ties go by name: `per_as` iterates in a different order every call.
    rows.sort_by(|a, b| {
        b.ads_req_pct
            .partial_cmp(&a.ads_req_pct)
            .expect("finite")
            .then_with(|| a.name.cmp(&b.name))
    });
    rows.truncate(n);
    let coverage = rows.iter().map(|r| r.ads_req_pct).sum();
    (rows, coverage)
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

    fn tx(server: u32, uri: &str, bytes: u64) -> TraceRecord {
        TraceRecord::Http(HttpTransaction {
            ts: 0.0,
            client_ip: 1,
            server_ip: server,
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

    fn classified(records: Vec<TraceRecord>) -> ServerStudy {
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
        Figures::of_trace(&classify_trace(&trace, &c, PipelineOptions::default())).servers
    }

    fn lookup(ip: u32) -> Option<String> {
        match ip {
            1 => Some("GiantAS".to_string()),
            2 => Some("CloudAS".to_string()),
            _ => None,
        }
    }

    #[test]
    fn attribution_and_ratios() {
        let t = classified(vec![
            tx(1, "/banners/a.gif", 100), // GiantAS ad
            tx(1, "/content.png", 900),   // GiantAS content
            tx(2, "/banners/b.gif", 300), // CloudAS ad
            tx(3, "/logo.png", 100),      // unknown AS content
        ]);
        let (rows, coverage) = as_table(&t, lookup, 10);
        let giant = rows.iter().find(|r| r.name == "GiantAS").unwrap();
        assert!((giant.ads_req_pct - 50.0).abs() < 1e-9);
        assert!((giant.per_as_req_pct - 50.0).abs() < 1e-9);
        assert!((giant.ads_bytes_pct - 25.0).abs() < 1e-9);
        assert!((giant.per_as_bytes_pct - 10.0).abs() < 1e-9);
        let cloud = rows.iter().find(|r| r.name == "CloudAS").unwrap();
        assert!((cloud.per_as_req_pct - 100.0).abs() < 1e-9);
        assert!((coverage - 100.0).abs() < 1e-9);
        assert!(rows.iter().any(|r| r.name == "other"));
    }

    #[test]
    fn sorted_and_truncated() {
        let t = classified(vec![
            tx(1, "/banners/a.gif", 1),
            tx(1, "/banners/b.gif", 1),
            tx(2, "/banners/c.gif", 1),
        ]);
        let (rows, coverage) = as_table(&t, lookup, 1);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].name, "GiantAS");
        assert!((coverage - 66.666).abs() < 0.01);
    }

    #[test]
    fn equal_shares_rank_by_name_on_every_call() {
        let t = classified(vec![tx(1, "/banners/a.gif", 1), tx(2, "/banners/b.gif", 1)]);
        // Each call's `HashMap` has a fresh `RandomState`.
        for _ in 0..20 {
            let (rows, _) = as_table(&t, lookup, 1);
            assert_eq!(rows[0].name, "CloudAS");
        }
    }
}
