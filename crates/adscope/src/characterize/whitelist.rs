//! Effects of the non-intrusive-ads whitelist (§7.3).

use super::{counters, merge_maps};
use crate::classify::ListKind;
use crate::pipeline::ClassifiedRequest;
use http_model::{registrable_domain, Url};
use std::collections::HashMap;

/// Headline whitelist shares (§7.3's opening numbers).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct WhitelistShares {
    /// % of *all* ad requests that hit the whitelist (the 9.2 % figure —
    /// denominator includes EasyPrivacy-attributed requests).
    pub of_all_ads_pct: f64,
    /// % of EasyList+whitelist ad requests that hit the whitelist (the
    /// 15.3 % figure — denominator excludes EasyPrivacy-only hits).
    pub of_easylist_scope_pct: f64,
    /// % of whitelisted requests that also match a blacklist (the 57.3 %
    /// "accuracy" figure).
    pub overriding_block_pct: f64,
    /// Of the whitelisted-and-blacklisted requests, the % whose blacklist
    /// hit is EasyPrivacy (the 23.2 % figure).
    pub overridden_privacy_pct: f64,
}

/// The §7.3 fold: the six counters behind the headline shares and the two
/// entity maps of the benefit analysis.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Whitelist {
    ads: u64,
    el_scope: u64,
    whitelisted: u64,
    el_scope_whitelisted: u64,
    overriding: u64,
    overriding_privacy: u64,
    /// `(blacklisted, whitelisted)` requests per registrable domain, by
    /// [`EntityKey`].
    entities: [HashMap<String, (u64, u64)>; 2],
}

impl Whitelist {
    /// Fold one classified request.
    pub fn observe(&mut self, r: &ClassifiedRequest) {
        if !r.label.is_ad() {
            return;
        }
        self.ads += 1;
        let wl = r.label.exception() == Some(ListKind::Acceptable);
        let el = r.label.blocked_by(ListKind::EasyList) || r.label.blocked_by(ListKind::Regional);
        let ep = r.label.blocked_by(ListKind::EasyPrivacy);
        if el || (wl && !ep) {
            self.el_scope += 1;
            self.el_scope_whitelisted += u64::from(wl);
        }
        if wl {
            self.whitelisted += 1;
            self.overriding += u64::from(el || ep);
            self.overriding_privacy += u64::from(ep && !el);
        }
        // §7.3 scopes the benefit analysis to EasyList and its derivatives.
        if el {
            let hosts = [r.page.as_ref().map(Url::host), Some(r.url.host())];
            for (map, host) in self.entities.iter_mut().zip(hosts) {
                if let Some(entity) = host.map(registrable_domain) {
                    let e = counters(map, entity);
                    e.0 += 1;
                    e.1 += u64::from(wl);
                }
            }
        }
    }

    /// Add another part in.
    pub fn merge(&mut self, other: &Whitelist) {
        self.ads += other.ads;
        self.el_scope += other.el_scope;
        self.whitelisted += other.whitelisted;
        self.el_scope_whitelisted += other.el_scope_whitelisted;
        self.overriding += other.overriding;
        self.overriding_privacy += other.overriding_privacy;
        for (mine, theirs) in self.entities.iter_mut().zip(&other.entities) {
            merge_maps(mine, theirs, |a, b| *a = (a.0 + b.0, a.1 + b.1));
        }
    }

    /// The headline shares.
    pub fn shares(&self) -> WhitelistShares {
        WhitelistShares {
            of_all_ads_pct: stats::pct(self.whitelisted, self.ads),
            of_easylist_scope_pct: stats::pct(self.el_scope_whitelisted, self.el_scope),
            overriding_block_pct: stats::pct(self.overriding, self.whitelisted),
            overridden_privacy_pct: stats::pct(self.overriding_privacy, self.overriding),
        }
    }

    /// Per-entity whitelist benefits, best first, ties by name. Only
    /// requests that match a blacklist count ("match the blacklist" subset
    /// of §7.3); `min_requests` drops small entities (the paper's 1 K / 10 K
    /// cuts).
    pub fn entity_benefits(&self, key: EntityKey, min_requests: u64) -> Vec<EntityBenefit> {
        let mut out: Vec<EntityBenefit> = self.entities[key as usize]
            .iter()
            .filter(|(_, (b, _))| *b >= min_requests)
            .map(|(entity, &(blacklisted, whitelisted))| EntityBenefit {
                entity: entity.clone(),
                blacklisted,
                whitelisted,
            })
            .collect();
        out.sort_by(|a, b| {
            b.benefit_pct()
                .partial_cmp(&a.benefit_pct())
                .expect("finite")
                // Ties go by name: the map iterates in a different order every call.
                .then_with(|| a.entity.cmp(&b.entity))
        });
        out
    }
}

/// Per-entity whitelist benefit: of the requests a blacklist would block,
/// how many does the whitelist save? Keyed by registrable domain of either
/// the *publisher* (page) or the *ad-tech host* (request).
#[derive(Debug, Clone, PartialEq)]
pub struct EntityBenefit {
    /// The entity (registrable domain).
    pub entity: String,
    /// Blacklisted requests associated with the entity.
    pub blacklisted: u64,
    /// Of those, whitelisted (saved) ones.
    pub whitelisted: u64,
}

impl EntityBenefit {
    /// The whitelisted share (percent).
    pub fn benefit_pct(&self) -> f64 {
        stats::pct(self.whitelisted, self.blacklisted)
    }
}

/// How entities are keyed for the benefit analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EntityKey {
    /// Group by the page (publisher) that originated the requests; a
    /// request whose page was not reconstructed counts for none.
    Publisher,
    /// Group by the host serving the ad (ad-tech company).
    AdHost,
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

    fn tx(host: &str, uri: &str, referer: Option<&str>) -> TraceRecord {
        TraceRecord::Http(HttpTransaction {
            ts: 0.0,
            client_ip: 1,
            server_ip: 1,
            server_port: 80,
            method: Method::Get,
            request: RequestHeaders {
                host: host.into(),
                uri: uri.into(),
                referer: referer.map(str::to_string),
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

    fn classified(records: Vec<TraceRecord>) -> Whitelist {
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
            FilterList::parse("easylist", "/banners/\n||goodads.example^\n"),
            FilterList::parse("easyprivacy", "/pixel/\n"),
            FilterList::parse(
                "acceptable-ads",
                "@@||goodads.example^\n@@||broad.example^\n",
            ),
        ]);
        Figures::of_trace(&classify_trace(&trace, &c, PipelineOptions::default())).whitelist
    }

    #[test]
    fn tied_benefits_are_ordered_by_entity() {
        let records = (0..40)
            .map(|i| tx(&format!("ads{i:02}.example"), "/banners/a.gif", None))
            .collect();
        let benefits = classified(records).entity_benefits(EntityKey::AdHost, 1);
        let names: Vec<&str> = benefits.iter().map(|b| b.entity.as_str()).collect();
        assert_eq!(names.len(), 40);
        assert!(names.windows(2).all(|w| w[0] < w[1]), "{names:?}");
    }

    #[test]
    fn headline_shares() {
        let page = Some("http://pub.example/");
        let t = classified(vec![
            // EasyList-blocked, not whitelisted.
            tx("x.example", "/banners/a.gif", page),
            tx("x.example", "/banners/b.gif", page),
            // EasyPrivacy hit.
            tx("t.example", "/pixel/p.gif", page),
            // Whitelisted AND blacklisted (goodads matched both lists).
            tx("goodads.example", "/w.gif", page),
            // Whitelisted only (overly-broad rule).
            tx("broad.example", "/font.woff", page),
        ]);
        let s = t.shares();
        // 2 whitelisted of 5 ads.
        assert!((s.of_all_ads_pct - 40.0).abs() < 1e-9);
        // EL scope: 2 banners + goodads + broad = 4; of those 2 whitelisted.
        assert!((s.of_easylist_scope_pct - 50.0).abs() < 1e-9);
        // Of 2 whitelisted, 1 overrides a block.
        assert!((s.overriding_block_pct - 50.0).abs() < 1e-9);
        assert_eq!(s.overridden_privacy_pct, 0.0);
    }

    #[test]
    fn entity_benefits_by_ad_host() {
        let page = Some("http://pub.example/");
        let mut records = Vec::new();
        for _ in 0..10 {
            records.push(tx("goodads.example", "/w.gif", page));
        }
        for _ in 0..10 {
            records.push(tx("x.example", "/banners/a.gif", page));
        }
        let t = classified(records);
        let benefits = t.entity_benefits(EntityKey::AdHost, 5);
        let good = benefits
            .iter()
            .find(|b| b.entity == "goodads.example")
            .unwrap();
        assert_eq!(good.benefit_pct(), 100.0);
        let x = benefits.iter().find(|b| b.entity == "x.example").unwrap();
        assert_eq!(x.benefit_pct(), 0.0);
        // Sorted by benefit descending.
        assert!(benefits[0].benefit_pct() >= benefits[1].benefit_pct());
    }

    #[test]
    fn entity_benefits_by_publisher() {
        let t = classified(vec![
            tx(
                "goodads.example",
                "/w.gif",
                Some("http://www.happy.example/"),
            ),
            tx(
                "x.example",
                "/banners/a.gif",
                Some("http://www.grumpy.example/"),
            ),
        ]);
        let benefits = t.entity_benefits(EntityKey::Publisher, 1);
        let happy = benefits
            .iter()
            .find(|b| b.entity == "happy.example")
            .unwrap();
        assert_eq!(happy.benefit_pct(), 100.0);
        let grumpy = benefits
            .iter()
            .find(|b| b.entity == "grumpy.example")
            .unwrap();
        assert_eq!(grumpy.benefit_pct(), 0.0);
    }

    #[test]
    fn min_requests_filter() {
        let page = Some("http://pub.example/");
        let t = classified(vec![tx("x.example", "/banners/a.gif", page)]);
        assert!(t.entity_benefits(EntityKey::AdHost, 5).is_empty());
        assert_eq!(t.entity_benefits(EntityKey::AdHost, 1).len(), 1);
    }
}
