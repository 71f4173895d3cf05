//! Per-user aggregation and browser annotation (§6.1).
//!
//! A "user" is the pair ⟨anonymized IP, User-Agent string⟩ (Maier et al.);
//! the annotation step classifies the UA into a browser family / device
//! class and restricts the analysis to browsers. Heavy hitters (more than
//! 1 K requests) are the "active users" the headline 22 % figure refers to.
//!
//! The figures key a user by ⟨IP, UA⟩ with an absent UA folded into the
//! empty one, as the population plane does. The referrer map keeps the two
//! apart: there a user is the extractor's dense `UserId`
//! ([`crate::extract::UserId`]), which numbers a missing and an empty UA
//! separately.

use crate::classify::ListKind;
use crate::pipeline::{ClassifiedRequest, ClassifiedTrace};
use http_model::{BrowserFamily, DeviceClass, UserAgent};
use std::collections::hash_map::{Entry, HashMap};
use std::sync::Arc;

/// The user key.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct UserKey {
    /// Anonymized client address.
    pub ip: u32,
    /// User-Agent string ("" when absent).
    pub user_agent: String,
}

/// Aggregated per-user counters.
#[derive(Debug, Clone, PartialEq)]
pub struct UserAggregate {
    /// The key.
    pub key: UserKey,
    /// Annotated browser family.
    pub family: BrowserFamily,
    /// Annotated device class.
    pub device: DeviceClass,
    /// Total requests.
    pub requests: u64,
    /// Total bytes.
    pub bytes: u64,
    /// Ad requests (paper definition: any list hit incl. whitelist).
    pub ad_requests: u64,
    /// Requests a *default Adblock Plus installation* would block:
    /// EasyList-blacklisted with no whitelist exception. The §6.2 ratio
    /// indicator counts only these — a fetched acceptable ad is evidence of
    /// nothing, since ABP users fetch them too.
    pub easylist_blockable: u64,
    /// Requests blacklisted by core EasyList regardless of exceptions.
    pub easylist_hits: u64,
    /// Requests blacklisted by a derivative list.
    pub regional_hits: u64,
    /// Requests blacklisted by EasyPrivacy.
    pub easyprivacy_hits: u64,
    /// Requests whitelisted by the non-intrusive-ads list.
    pub whitelist_hits: u64,
}

impl UserAggregate {
    /// The §6.2 ratio indicator: default-install-blockable requests over
    /// all requests, percent.
    pub fn easylist_ratio_pct(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.easylist_blockable as f64 / self.requests as f64 * 100.0
        }
    }

    /// Ad-request ratio under the paper's full ad definition, percent.
    pub fn ad_ratio_pct(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.ad_requests as f64 / self.requests as f64 * 100.0
        }
    }

    /// Is this an "active user" (heavy hitter)?
    pub fn is_active(&self, min_requests: u64) -> bool {
        self.requests >= min_requests
    }

    /// Is this user a browser (desktop or mobile)?
    pub fn is_browser(&self) -> bool {
        self.device.is_browser()
    }
}

/// The per-user fold behind Table 3, Figures 3–4, §6.3 and the threshold
/// sweep: one [`UserAggregate`] per ⟨IP, User-Agent⟩ pair, keyed by the
/// user's shared UA handle (an absent UA is the empty one).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Users(HashMap<(u32, Arc<str>), UserAggregate>);

impl Users {
    /// Fold one classified request into its user's counters.
    pub fn observe(&mut self, r: &ClassifiedRequest) {
        let ua = r.user_agent.clone().unwrap_or_default();
        let agg = self
            .0
            .entry((r.client_ip, ua))
            .or_insert_with_key(|(ip, ua)| {
                let agent = UserAgent {
                    raw: ua.to_string(),
                };
                UserAggregate {
                    family: agent.family(),
                    device: agent.device_class(),
                    key: UserKey {
                        ip: *ip,
                        user_agent: agent.raw,
                    },
                    requests: 0,
                    bytes: 0,
                    ad_requests: 0,
                    easylist_blockable: 0,
                    easylist_hits: 0,
                    regional_hits: 0,
                    easyprivacy_hits: 0,
                    whitelist_hits: 0,
                }
            });
        agg.requests += 1;
        agg.bytes += r.bytes;
        agg.ad_requests += u64::from(r.label.is_ad());
        agg.easylist_blockable += u64::from(r.label.easylist_only_blocks());
        agg.easylist_hits += u64::from(r.label.blocked_by(ListKind::EasyList));
        agg.regional_hits += u64::from(r.label.blocked_by(ListKind::Regional));
        agg.easyprivacy_hits += u64::from(r.label.blocked_by(ListKind::EasyPrivacy));
        agg.whitelist_hits += u64::from(r.label.exception() == Some(ListKind::Acceptable));
    }

    /// Add another part's counters in, user by user.
    pub fn merge(&mut self, other: Users) {
        for (key, theirs) in other.0 {
            match self.0.entry(key) {
                Entry::Vacant(slot) => {
                    slot.insert(theirs);
                }
                Entry::Occupied(mut slot) => {
                    let mine = slot.get_mut();
                    mine.requests += theirs.requests;
                    mine.bytes += theirs.bytes;
                    mine.ad_requests += theirs.ad_requests;
                    mine.easylist_blockable += theirs.easylist_blockable;
                    mine.easylist_hits += theirs.easylist_hits;
                    mine.regional_hits += theirs.regional_hits;
                    mine.easyprivacy_hits += theirs.easyprivacy_hits;
                    mine.whitelist_hits += theirs.whitelist_hits;
                }
            }
        }
    }

    /// The users, busiest first; equal volumes by address, then User-Agent.
    pub fn finish(&self) -> Vec<UserAggregate> {
        let mut out: Vec<UserAggregate> = self.0.values().cloned().collect();
        out.sort_by(|a, b| {
            let by_name = (a.key.ip, &a.key.user_agent).cmp(&(b.key.ip, &b.key.user_agent));
            b.requests.cmp(&a.requests).then(by_name)
        });
        out
    }
}

/// Aggregate a classified trace into per-user counters: the [`Users`] fold
/// over its requests.
pub fn aggregate_users(trace: &ClassifiedTrace) -> Vec<UserAggregate> {
    let mut users = Users::default();
    trace.requests.iter().for_each(|r| users.observe(r));
    users.finish()
}

/// Summary counts over a user set, in the shape §6.1 reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AnnotationSummary {
    /// Total ⟨IP, UA⟩ pairs.
    pub pairs: usize,
    /// Pairs annotated as browsers.
    pub browsers: usize,
    /// Desktop browsers.
    pub desktop: usize,
    /// Mobile browsers.
    pub mobile: usize,
    /// Heavy hitters (active users).
    pub active: usize,
    /// Active browsers.
    pub active_browsers: usize,
}

/// Summarize the annotation of a user set.
pub fn annotation_summary(users: &[UserAggregate], min_requests: u64) -> AnnotationSummary {
    let mut s = AnnotationSummary {
        pairs: users.len(),
        ..Default::default()
    };
    for u in users {
        if u.is_browser() {
            s.browsers += 1;
            if u.device == DeviceClass::DesktopBrowser {
                s.desktop += 1;
            } else {
                s.mobile += 1;
            }
        }
        if u.is_active(min_requests) {
            s.active += 1;
            if u.is_browser() {
                s.active_browsers += 1;
            }
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::PassiveClassifier;
    use crate::pipeline::{classify_trace, PipelineOptions};
    use abp_filter::FilterList;
    use http_model::headers::{RequestHeaders, ResponseHeaders};
    use http_model::transaction::Method;
    use http_model::useragent::Os;
    use http_model::HttpTransaction;
    use netsim::record::{Trace, TraceMeta, TraceRecord};

    fn tx(client: u32, ua: &str, host: &str, uri: &str, bytes: u64) -> TraceRecord {
        TraceRecord::Http(HttpTransaction {
            ts: 0.0,
            client_ip: client,
            server_ip: 1,
            server_port: 80,
            method: Method::Get,
            request: RequestHeaders {
                host: host.into(),
                uri: uri.into(),
                referer: Some("http://pub.example/".into()),
                user_agent: Some(ua.into()),
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

    fn run(records: Vec<TraceRecord>) -> ClassifiedTrace {
        let trace = Trace {
            meta: TraceMeta {
                name: "t".into(),
                duration_secs: 10.0,
                subscribers: 2,
                start_hour: 0,
                start_weekday: 0,
            },
            records,
        };
        let classifier = PassiveClassifier::new(vec![
            FilterList::parse("easylist", "/banners/\n"),
            FilterList::parse("easyprivacy", "/pixel/\n"),
            FilterList::parse("acceptable-ads", "@@||nice.example^\n"),
        ]);
        classify_trace(&trace, &classifier, PipelineOptions::default())
    }

    #[test]
    fn per_user_counters() {
        let ff = UserAgent::desktop(BrowserFamily::Firefox, Os::Windows, 38).raw;
        let trace = run(vec![
            tx(1, &ff, "x.example", "/banners/a.gif", 100),
            tx(1, &ff, "x.example", "/pixel/p.gif", 43),
            tx(1, &ff, "x.example", "/logo.png", 5000),
            tx(1, &ff, "nice.example", "/w.gif", 200),
            tx(2, &ff, "x.example", "/logo.png", 10),
        ]);
        let users = aggregate_users(&trace);
        assert_eq!(users.len(), 2);
        let u1 = users.iter().find(|u| u.key.ip == 1).unwrap();
        assert_eq!(u1.requests, 4);
        assert_eq!(u1.easylist_hits, 1);
        assert_eq!(u1.easyprivacy_hits, 1);
        assert_eq!(u1.whitelist_hits, 1);
        assert_eq!(u1.ad_requests, 3);
        assert_eq!(u1.bytes, 5343);
        assert_eq!(u1.family, BrowserFamily::Firefox);
        assert_eq!(u1.easylist_ratio_pct(), 25.0);
        assert_eq!(u1.ad_ratio_pct(), 75.0);
    }

    #[test]
    fn same_ip_different_ua_are_distinct_users() {
        let ff = UserAgent::desktop(BrowserFamily::Firefox, Os::Windows, 38).raw;
        let cr = UserAgent::desktop(BrowserFamily::Chrome, Os::Windows, 44).raw;
        let trace = run(vec![
            tx(1, &ff, "x.example", "/a.gif", 1),
            tx(1, &cr, "x.example", "/a.gif", 1),
        ]);
        let users = aggregate_users(&trace);
        assert_eq!(users.len(), 2);
    }

    #[test]
    fn annotation_summary_counts() {
        let ff = UserAgent::desktop(BrowserFamily::Firefox, Os::Windows, 38).raw;
        let mobile = UserAgent::mobile(Os::Ios, 4).raw;
        let console = UserAgent::non_browser(DeviceClass::GameConsole, 1).raw;
        let mut records = Vec::new();
        for _ in 0..5 {
            records.push(tx(1, &ff, "x.example", "/a.gif", 1));
        }
        records.push(tx(2, &mobile, "x.example", "/a.gif", 1));
        records.push(tx(3, &console, "x.example", "/a.gif", 1));
        let trace = run(records);
        let users = aggregate_users(&trace);
        let s = annotation_summary(&users, 5);
        assert_eq!(s.pairs, 3);
        assert_eq!(s.browsers, 2);
        assert_eq!(s.desktop, 1);
        assert_eq!(s.mobile, 1);
        assert_eq!(s.active, 1);
        assert_eq!(s.active_browsers, 1);
    }

    #[test]
    fn users_sorted_by_volume() {
        let ff = UserAgent::desktop(BrowserFamily::Firefox, Os::Windows, 38).raw;
        let mut records = vec![tx(1, &ff, "x.example", "/a.gif", 1)];
        for _ in 0..3 {
            records.push(tx(2, &ff, "x.example", "/a.gif", 1));
        }
        let trace = run(records);
        let users = aggregate_users(&trace);
        assert_eq!(users[0].key.ip, 2);
        assert!(users[0].requests > users[1].requests);
    }

    #[test]
    fn zero_request_ratio_is_zero() {
        let u = UserAggregate {
            key: UserKey {
                ip: 1,
                user_agent: "".into(),
            },
            family: BrowserFamily::NonBrowser,
            device: DeviceClass::Unknown,
            requests: 0,
            bytes: 0,
            ad_requests: 0,
            easylist_blockable: 0,
            easylist_hits: 0,
            regional_hits: 0,
            easyprivacy_hits: 0,
            whitelist_hits: 0,
        };
        assert_eq!(u.easylist_ratio_pct(), 0.0);
        assert_eq!(u.ad_ratio_pct(), 0.0);
    }
}
