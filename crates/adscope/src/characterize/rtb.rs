//! Real-time-bidding detection from handshake latencies (§8.2, Figure 7).
//!
//! The difference between the HTTP handshake (first response − first
//! request) and the TCP handshake (SYN-ACK − SYN) isolates the server-side
//! delay from the network RTT. RTB exchanges wait ~100 ms for bids before
//! answering, so ad requests show a distinctive high-latency mode that
//! ordinary content rarely exhibits.

use crate::pipeline::ClassifiedTrace;
use http_model::registrable_domain;
use stats::LogDensity;
use std::collections::HashMap;

/// The handshake-gap densities of Figure 7 (ads vs rest), in milliseconds
/// over a log axis from 10 µs to 10 s.
pub struct RtbDensities {
    /// Ad requests.
    pub ads: LogDensity,
    /// All other requests.
    pub rest: LogDensity,
}

/// Build the Figure 7 densities.
pub fn handshake_densities(trace: &ClassifiedTrace) -> RtbDensities {
    let mut ads = LogDensity::new(-2.0, 4.0, 180, 0.1);
    let mut rest = LogDensity::new(-2.0, 4.0, 180, 0.1);
    for r in &trace.requests {
        let gap = r.backend_gap_ms().max(0.01);
        if r.label.is_ad() {
            ads.add(gap);
        } else {
            rest.add(gap);
        }
    }
    RtbDensities { ads, rest }
}

/// Fraction of each population with a handshake gap at or above
/// `threshold_ms` — ads should be strongly overrepresented.
pub fn high_latency_shares(trace: &ClassifiedTrace, threshold_ms: f64) -> (f64, f64) {
    let mut ad_total = 0u64;
    let mut ad_high = 0u64;
    let mut rest_total = 0u64;
    let mut rest_high = 0u64;
    for r in &trace.requests {
        let high = r.backend_gap_ms() >= threshold_ms;
        if r.label.is_ad() {
            ad_total += 1;
            if high {
                ad_high += 1;
            }
        } else {
            rest_total += 1;
            if high {
                rest_high += 1;
            }
        }
    }
    (
        stats::pct(ad_high, ad_total),
        stats::pct(rest_high, rest_total),
    )
}

/// The organizations behind high-latency ad requests: registrable domains
/// of ad requests with gap ≥ `threshold_ms`, with their share of that
/// population (the paper's DoubleClick/Mopub/Rubicon/Pubmatic/Criteo list).
pub fn rtb_organizations(
    trace: &ClassifiedTrace,
    threshold_ms: f64,
    top_n: usize,
) -> Vec<(String, f64)> {
    let mut counts: HashMap<String, u64> = HashMap::new();
    let mut total = 0u64;
    for r in &trace.requests {
        if r.label.is_ad() && r.backend_gap_ms() >= threshold_ms {
            *counts
                .entry(registrable_domain(r.url.host()).to_string())
                .or_default() += 1;
            total += 1;
        }
    }
    let mut rows: Vec<(String, f64)> = counts
        .into_iter()
        .map(|(d, c)| (d, stats::pct(c, total)))
        .collect();
    // Ties go by name: `counts` iterates in a different order every call.
    rows.sort_by(|a, b| {
        b.1.partial_cmp(&a.1)
            .expect("finite")
            .then_with(|| a.0.cmp(&b.0))
    });
    rows.truncate(top_n);
    rows
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
    use netsim::record::{Trace, TraceMeta, TraceRecord};

    fn tx(host: &str, uri: &str, tcp_ms: f64, http_ms: f64) -> TraceRecord {
        TraceRecord::Http(HttpTransaction {
            ts: 0.0,
            client_ip: 1,
            server_ip: 1,
            server_port: 80,
            method: Method::Get,
            request: RequestHeaders {
                host: host.into(),
                uri: uri.into(),
                referer: Some("http://pub.example/".into()),
                user_agent: Some("UA".into()),
            },
            response: ResponseHeaders {
                status: 200,
                content_type: Some("image/gif".into()),
                content_length: Some(100),
                location: None,
            },
            tcp_handshake_ms: tcp_ms,
            http_handshake_ms: http_ms,
        })
    }

    fn classified(records: Vec<TraceRecord>) -> ClassifiedTrace {
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
        let c = PassiveClassifier::new(vec![FilterList::parse(
            "easylist",
            "/banners/\n||bid.exchange.example^\n",
        )]);
        classify_trace(&trace, &c, PipelineOptions::default())
    }

    #[test]
    fn high_latency_shares_split() {
        let mut records = Vec::new();
        // RTB-ish ads: 120 ms gaps.
        for _ in 0..8 {
            records.push(tx("bid.exchange.example", "/bid", 10.0, 130.0));
        }
        // Fast ads.
        for _ in 0..2 {
            records.push(tx("x.example", "/banners/a.gif", 10.0, 11.0));
        }
        // Fast content.
        for _ in 0..10 {
            records.push(tx("x.example", "/logo.png", 10.0, 12.0));
        }
        let t = classified(records);
        let (ad_share, rest_share) = high_latency_shares(&t, 100.0);
        assert!((ad_share - 80.0).abs() < 1e-9);
        assert_eq!(rest_share, 0.0);
    }

    #[test]
    fn densities_have_expected_modes() {
        let mut records = Vec::new();
        for _ in 0..300 {
            records.push(tx("bid.exchange.example", "/bid", 10.0, 130.0));
        }
        for _ in 0..300 {
            records.push(tx("x.example", "/logo.png", 10.0, 11.0));
        }
        let t = classified(records);
        let d = handshake_densities(&t);
        let ad_modes = d.ads.modes(0.5);
        assert!(
            ad_modes.iter().any(|&m| (60.0..250.0).contains(&m)),
            "ad modes {ad_modes:?}"
        );
        let rest_modes = d.rest.modes(0.5);
        assert!(
            rest_modes.iter().all(|&m| m < 10.0),
            "rest modes {rest_modes:?}"
        );
    }

    #[test]
    fn organizations_ranked() {
        let mut records = Vec::new();
        for _ in 0..9 {
            records.push(tx("bid.exchange.example", "/bid", 5.0, 120.0));
        }
        records.push(tx("x.example", "/banners/slow.gif", 5.0, 140.0));
        let t = classified(records);
        let orgs = rtb_organizations(&t, 90.0, 5);
        assert_eq!(orgs[0].0, "exchange.example");
        assert!((orgs[0].1 - 90.0).abs() < 1e-9);
        assert_eq!(orgs.len(), 2);
    }

    #[test]
    fn equal_counts_rank_by_name_on_every_call() {
        let t = classified(vec![
            tx("y.example", "/banners/slow.gif", 5.0, 140.0),
            tx("x.example", "/banners/slow.gif", 5.0, 140.0),
            tx("bid.exchange.example", "/bid", 5.0, 120.0),
        ]);
        // Each call's `HashMap` has a fresh `RandomState`.
        for _ in 0..20 {
            let names: Vec<String> = rtb_organizations(&t, 90.0, 2)
                .into_iter()
                .map(|(name, _)| name)
                .collect();
            assert_eq!(names, ["exchange.example", "x.example"]);
        }
    }

    #[test]
    fn zero_gap_clamped() {
        // http < tcp (noise): gap clamps to 0, density takes 0.01 ms floor.
        let t = classified(vec![tx("x.example", "/logo.png", 10.0, 9.0)]);
        let d = handshake_densities(&t);
        assert_eq!(d.rest.total(), 1);
    }
}
