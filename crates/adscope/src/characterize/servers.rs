//! Server-side infrastructure analysis (§8.1), and the per-server counters
//! Table 5 groups by AS ([`super::ases`]).

use super::{merge_maps, Traffic};
use crate::classify::ListKind;
use crate::pipeline::ClassifiedRequest;
use std::cmp::Reverse;
use std::collections::HashMap;

/// The share of a server's objects (percent) from which §8.1 calls it an
/// exclusive ad or tracking server.
pub(crate) const EXCLUSIVE_PCT: f64 = 90.0;

/// Per-server counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerCounters {
    /// What the server served, and how much of it was ads.
    pub traffic: Traffic,
    /// Requests blacklisted by EasyList (or a derivative).
    pub easylist_objects: u64,
    /// Requests blacklisted by EasyPrivacy.
    pub easyprivacy_objects: u64,
}

/// The per-server fold: one map feeds the §8.1 statistics and Table 5.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServerStudy {
    /// Per-server counters keyed by server IP.
    pub servers: HashMap<u32, ServerCounters>,
}

impl ServerStudy {
    /// Fold one classified request into its server's counters.
    pub fn observe(&mut self, r: &ClassifiedRequest) {
        let c = self.servers.entry(r.server_ip).or_default();
        c.traffic.observe(r);
        if r.label.blocked_by(ListKind::EasyList) || r.label.blocked_by(ListKind::Regional) {
            c.easylist_objects += 1;
        }
        if r.label.blocked_by(ListKind::EasyPrivacy) {
            c.easyprivacy_objects += 1;
        }
    }

    /// Add another part's counters in, server by server.
    pub fn merge(&mut self, other: &ServerStudy) {
        merge_maps(&mut self.servers, &other.servers, |mine, theirs| {
            mine.traffic.merge(&theirs.traffic);
            mine.easylist_objects += theirs.easylist_objects;
            mine.easyprivacy_objects += theirs.easyprivacy_objects;
        });
    }

    /// Total distinct servers.
    pub fn total_servers(&self) -> usize {
        self.servers.len()
    }

    /// Servers serving at least one EasyList object.
    pub fn easylist_servers(&self) -> usize {
        self.servers
            .values()
            .filter(|c| c.easylist_objects > 0)
            .count()
    }

    /// Servers serving at least one EasyPrivacy object.
    pub fn easyprivacy_servers(&self) -> usize {
        self.servers
            .values()
            .filter(|c| c.easyprivacy_objects > 0)
            .count()
    }

    /// Servers matching both lists.
    pub fn both_lists_servers(&self) -> usize {
        self.servers
            .values()
            .filter(|c| c.easylist_objects > 0 && c.easyprivacy_objects > 0)
            .count()
    }

    /// Servers with at least one ad object (the "21.1 % of all servers"
    /// figure).
    pub fn servers_with_ads(&self) -> usize {
        self.servers
            .values()
            .filter(|c| c.traffic.ad_requests > 0)
            .count()
    }

    /// Share of all *non-ad* objects served by servers that also serve ads
    /// (the 54.3 % observation).
    pub fn nonad_share_of_ad_serving_infra(&self) -> f64 {
        let total_nonad: u64 = self
            .servers
            .values()
            .map(|c| c.traffic.requests - c.traffic.ad_requests)
            .sum();
        let from_mixed: u64 = self
            .servers
            .values()
            .filter(|c| c.traffic.ad_requests > 0)
            .map(|c| c.traffic.requests - c.traffic.ad_requests)
            .sum();
        stats::pct(from_mixed, total_nonad)
    }

    /// Servers whose ad share reaches `EXCLUSIVE_PCT` — "exclusive" ad (or
    /// tracking) servers in the paper's sense.
    pub fn exclusive_servers(&self) -> ExclusiveServers {
        let mut ad_servers = 0usize;
        let mut ad_objects_from_exclusive = 0u64;
        let mut tracking_servers = 0usize;
        let mut ep_objects_from_tracking = 0u64;
        let total_ads: u64 = self.servers.values().map(|c| c.traffic.ad_requests).sum();
        let total_ep: u64 = self.servers.values().map(|c| c.easyprivacy_objects).sum();
        for c in self.servers.values() {
            if c.traffic.requests == 0 {
                continue;
            }
            let ad_share = c.traffic.ad_requests as f64 / c.traffic.requests as f64 * 100.0;
            if ad_share >= EXCLUSIVE_PCT {
                ad_servers += 1;
                ad_objects_from_exclusive += c.traffic.ad_requests;
            }
            let ep_share = c.easyprivacy_objects as f64 / c.traffic.requests as f64 * 100.0;
            if ep_share >= EXCLUSIVE_PCT {
                tracking_servers += 1;
                ep_objects_from_tracking += c.easyprivacy_objects;
            }
        }
        ExclusiveServers {
            ad_servers,
            ad_object_share_pct: stats::pct(ad_objects_from_exclusive, total_ads),
            tracking_servers,
            tracking_object_share_pct: stats::pct(ep_objects_from_tracking, total_ep),
        }
    }

    /// The per-server EasyList-object distribution (median 7 / mean 438 /
    /// p90–p99 in the paper), over servers with ≥1 EasyList object.
    pub fn easylist_distribution(&self) -> stats::Summary {
        let counts: Vec<u64> = self
            .servers
            .values()
            .filter(|c| c.easylist_objects > 0)
            .map(|c| c.easylist_objects)
            .collect();
        stats::Summary::from_counts(&counts)
    }

    /// The busiest ad server: `(ip, ad object count)`; among equal counts
    /// the lowest address (the map iterates in a different order every run).
    pub fn busiest_ad_server(&self) -> Option<(u32, u64)> {
        self.servers
            .iter()
            .map(|(&ip, c)| (ip, c.traffic.ad_requests))
            .max_by_key(|&(ip, n)| (n, Reverse(ip)))
            .filter(|&(_, n)| n > 0)
    }
}

/// Results of the exclusivity analysis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExclusiveServers {
    /// Servers whose ad share exceeds the threshold.
    pub ad_servers: usize,
    /// Share of all ad objects they deliver (percent).
    pub ad_object_share_pct: f64,
    /// Servers whose EasyPrivacy share exceeds the threshold.
    pub tracking_servers: usize,
    /// Share of all EasyPrivacy objects they deliver (percent).
    pub tracking_object_share_pct: f64,
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

    fn tx(server: u32, uri: &str) -> TraceRecord {
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
                content_length: Some(100),
                location: None,
            },
            tcp_handshake_ms: 1.0,
            http_handshake_ms: 2.0,
        })
    }

    fn study(records: Vec<TraceRecord>) -> ServerStudy {
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
        let c = PassiveClassifier::new(vec![
            FilterList::parse("easylist", "/banners/\n"),
            FilterList::parse("easyprivacy", "/pixel/\n"),
        ]);
        Figures::of_trace(&classify_trace(&trace, &c, PipelineOptions::default())).servers
    }

    #[test]
    fn counts_by_list() {
        let s = study(vec![
            tx(1, "/banners/a.gif"),
            tx(1, "/pixel/p.gif"),
            tx(2, "/banners/b.gif"),
            tx(3, "/logo.png"),
        ]);
        assert_eq!(s.total_servers(), 3);
        assert_eq!(s.easylist_servers(), 2);
        assert_eq!(s.easyprivacy_servers(), 1);
        assert_eq!(s.both_lists_servers(), 1);
        assert_eq!(s.servers_with_ads(), 2);
    }

    #[test]
    fn exclusive_detection() {
        // Server 1: pure ad server (10/10). Server 2: mixed (1/10).
        let mut records = Vec::new();
        for _ in 0..10 {
            records.push(tx(1, "/banners/a.gif"));
        }
        records.push(tx(2, "/banners/b.gif"));
        for _ in 0..9 {
            records.push(tx(2, "/logo.png"));
        }
        let s = study(records);
        let ex = s.exclusive_servers();
        assert_eq!(ex.ad_servers, 1);
        // 10 of 11 ad objects come from the exclusive server.
        assert!((ex.ad_object_share_pct - 90.909).abs() < 0.01);
    }

    #[test]
    fn mixed_infrastructure_share() {
        // Server 1 serves ads + content; server 2 only content.
        let s = study(vec![
            tx(1, "/banners/a.gif"),
            tx(1, "/logo.png"),
            tx(2, "/logo.png"),
        ]);
        assert!((s.nonad_share_of_ad_serving_infra() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn distribution_and_busiest() {
        let mut records = Vec::new();
        for _ in 0..7 {
            records.push(tx(1, "/banners/a.gif"));
        }
        records.push(tx(2, "/banners/b.gif"));
        let s = study(records);
        let d = s.easylist_distribution();
        assert_eq!(d.count, 2);
        assert_eq!(d.max, 7.0);
        assert_eq!(s.busiest_ad_server(), Some((1, 7)));
    }

    #[test]
    fn equal_counts_pick_the_lowest_ip_on_every_call() {
        let records = (0..40).rev().map(|ip| tx(100 + ip, "/banners/a.gif"));
        // Each call's `HashMap` has a fresh `RandomState`.
        for _ in 0..20 {
            let s = study(records.clone().collect());
            assert_eq!(s.busiest_ad_server(), Some((100, 1)));
        }
    }

    #[test]
    fn empty_trace() {
        let s = study(vec![]);
        assert_eq!(s.total_servers(), 0);
        assert_eq!(s.busiest_ad_server(), None);
        assert_eq!(s.easylist_distribution().count, 0);
    }
}
