//! Real-time-bidding detection from handshake latencies (§8.2, Figure 7).
//!
//! The difference between the HTTP handshake (first response − first
//! request) and the TCP handshake (SYN-ACK − SYN) isolates the server-side
//! delay from the network RTT. RTB exchanges wait ~100 ms for bids before
//! answering, so ad requests show a distinctive high-latency mode that
//! ordinary content rarely exhibits.

use super::{counters, merge_maps};
use crate::pipeline::ClassifiedRequest;
use http_model::registrable_domain;
use stats::LogDensity;
use std::collections::HashMap;

/// A handshake gap from which a response counts as high-latency (ms).
pub(crate) const HIGH_LATENCY_MS: f64 = 100.0;
/// The gap from which an ad response is attributed to an RTB organization
/// (ms): the paper's "≥ 90 ms" list.
pub(crate) const ORGANIZATION_MS: f64 = 90.0;

/// One population of Figure 7 (ads, or the rest).
#[derive(Debug, Clone, PartialEq)]
pub struct Gaps {
    /// The handshake-gap density, in milliseconds over a log axis from
    /// 10 µs to 10 s.
    pub density: LogDensity,
    /// Requests with a gap of at least `HIGH_LATENCY_MS`.
    pub high: u64,
}

impl Default for Gaps {
    fn default() -> Gaps {
        Gaps {
            density: LogDensity::new(-2.0, 4.0, 180, 0.1),
            high: 0,
        }
    }
}

impl Gaps {
    fn merge(&mut self, other: &Gaps) {
        self.density.merge(&other.density);
        self.high += other.high;
    }

    /// Share of the population (percent) at or above `HIGH_LATENCY_MS` —
    /// ads should be strongly overrepresented.
    pub fn high_latency_pct(&self) -> f64 {
        stats::pct(self.high, self.density.total())
    }
}

/// The Figure 7 fold: the two populations and the organizations behind the
/// slow ad responses.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Handshakes {
    /// Ad requests.
    pub ads: Gaps,
    /// All other requests.
    pub rest: Gaps,
    /// Ad requests with a gap of at least [`ORGANIZATION_MS`], by the
    /// registrable domain of the request host.
    organizations: HashMap<String, u64>,
}

impl Handshakes {
    /// Fold one classified request.
    pub fn observe(&mut self, r: &ClassifiedRequest) {
        let (gap, is_ad) = (r.backend_gap_ms(), r.label.is_ad());
        let population = if is_ad { &mut self.ads } else { &mut self.rest };
        population.density.add(gap.max(0.01));
        population.high += u64::from(gap >= HIGH_LATENCY_MS);
        if is_ad && gap >= ORGANIZATION_MS {
            *counters(&mut self.organizations, registrable_domain(r.url.host())) += 1;
        }
    }

    /// Add another part in.
    pub fn merge(&mut self, other: &Handshakes) {
        self.ads.merge(&other.ads);
        self.rest.merge(&other.rest);
        merge_maps(&mut self.organizations, &other.organizations, |a, b| {
            *a += b
        });
    }

    /// The `top_n` organizations with their share of the slow ad responses
    /// (the paper's DoubleClick/Mopub/Rubicon/Pubmatic/Criteo list).
    pub fn organizations(&self, top_n: usize) -> Vec<(String, f64)> {
        let total = self.organizations.values().sum();
        let mut rows: Vec<(String, f64)> = self
            .organizations
            .iter()
            .map(|(d, &c)| (d.clone(), stats::pct(c, total)))
            .collect();
        // Ties go by name: the map iterates in a different order every call.
        rows.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .expect("finite")
                .then_with(|| a.0.cmp(&b.0))
        });
        rows.truncate(top_n);
        rows
    }
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

    fn classified(records: Vec<TraceRecord>) -> Handshakes {
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
        Figures::of_trace(&classify_trace(&trace, &c, PipelineOptions::default())).rtb
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
        assert!((t.ads.high_latency_pct() - 80.0).abs() < 1e-9);
        assert_eq!(t.rest.high_latency_pct(), 0.0);
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
        let d = classified(records);
        let ad_modes = d.ads.density.modes(0.5);
        assert!(
            ad_modes.iter().any(|&m| (60.0..250.0).contains(&m)),
            "ad modes {ad_modes:?}"
        );
        let rest_modes = d.rest.density.modes(0.5);
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
        let orgs = t.organizations(5);
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
            let names: Vec<String> = t
                .organizations(2)
                .into_iter()
                .map(|(name, _)| name)
                .collect();
            assert_eq!(names, ["exchange.example", "x.example"]);
        }
    }

    #[test]
    fn zero_gap_clamped() {
        // http < tcp (noise): gap clamps to 0, density takes 0.01 ms floor.
        let d = classified(vec![tx("x.example", "/logo.png", 10.0, 9.0)]);
        assert_eq!(d.rest.density.total(), 1);
    }
}
