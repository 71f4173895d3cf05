//! Per-user aggregation and browser annotation (§6.1).
//!
//! A "user" is the pair ⟨anonymized IP, User-Agent string⟩ (Maier et al.);
//! the annotation step classifies the UA into a browser family / device
//! class and restricts the analysis to browsers. Heavy hitters (more than
//! 1 K requests) are the "active users" the headline 22 % figure refers to.
//!
//! One counter block, [`UserTally`], is everything counted per user, on every
//! path. The one-thread oracle folds it per ⟨IP, UA⟩ ([`aggregate_users`]);
//! the stream engine keeps one per user in its workers and sums them into its
//! user table by the same rules (`UserTable`): an absent UA is the empty
//! one, and the busiest user comes first. The referrer map keeps a missing and
//! an empty UA apart: there a user is the extractor's dense [`UserId`], which
//! numbers the two separately.

use crate::classify::ListKind;
use crate::extract::{Extractor, UserId};
use crate::pipeline::{ClassifiedRequest, ClassifiedTrace};
use http_model::{BrowserFamily, DeviceClass, UserAgent};
use std::collections::HashMap;

/// The user key.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct UserKey {
    /// Anonymized client address.
    pub ip: u32,
    /// User-Agent string ("" when absent).
    pub user_agent: String,
}

/// One user's exact counters: what Table 3, Figures 3–4, §6.3 and the
/// population report read of a user. Plain sums, so the parts of one user add
/// up in any grouping.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct UserTally {
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

impl UserTally {
    /// Count one request of this user.
    pub fn observe(&mut self, r: &ClassifiedRequest) {
        self.requests += 1;
        self.bytes += r.bytes;
        self.ad_requests += u64::from(r.label.is_ad());
        self.easylist_blockable += u64::from(r.label.easylist_only_blocks());
        self.easylist_hits += u64::from(r.label.blocked_by(ListKind::EasyList));
        self.regional_hits += u64::from(r.label.blocked_by(ListKind::Regional));
        self.easyprivacy_hits += u64::from(r.label.blocked_by(ListKind::EasyPrivacy));
        self.whitelist_hits += u64::from(r.label.exception() == Some(ListKind::Acceptable));
    }

    /// Add another part of the same user in.
    pub fn merge(&mut self, other: &UserTally) {
        self.requests += other.requests;
        self.bytes += other.bytes;
        self.ad_requests += other.ad_requests;
        self.easylist_blockable += other.easylist_blockable;
        self.easylist_hits += other.easylist_hits;
        self.regional_hits += other.regional_hits;
        self.easyprivacy_hits += other.easyprivacy_hits;
        self.whitelist_hits += other.whitelist_hits;
    }
}

/// One user: its key, its UA's annotation and its counters.
#[derive(Debug, Clone, PartialEq)]
pub struct UserAggregate {
    /// The key.
    pub key: UserKey,
    /// Annotated browser family.
    pub family: BrowserFamily,
    /// Annotated device class.
    pub device: DeviceClass,
    /// The counters.
    pub counters: UserTally,
}

impl UserAggregate {
    /// A user with nothing counted yet; its UA is annotated here.
    pub fn new(ip: u32, user_agent: &str) -> UserAggregate {
        let agent = UserAgent {
            raw: user_agent.to_string(),
        };
        UserAggregate {
            family: agent.family(),
            device: agent.device_class(),
            key: UserKey {
                ip,
                user_agent: agent.raw,
            },
            counters: UserTally::default(),
        }
    }

    /// The §6.2 ratio indicator: default-install-blockable requests over
    /// all requests, percent.
    pub fn easylist_ratio_pct(&self) -> f64 {
        let c = &self.counters;
        if c.requests == 0 {
            0.0
        } else {
            c.easylist_blockable as f64 / c.requests as f64 * 100.0
        }
    }

    /// Ad-request ratio under the paper's full ad definition, percent.
    pub fn ad_ratio_pct(&self) -> f64 {
        let c = &self.counters;
        if c.requests == 0 {
            0.0
        } else {
            c.ad_requests as f64 / c.requests as f64 * 100.0
        }
    }

    /// Is this an "active user" (heavy hitter)?
    pub fn is_active(&self, min_requests: u64) -> bool {
        self.counters.requests >= min_requests
    }

    /// Is this user a browser (desktop or mobile)?
    pub fn is_browser(&self) -> bool {
        self.device.is_browser()
    }
}

/// Order a user table: busiest first, equal volumes by address, then
/// User-Agent.
fn rank(users: &mut [UserAggregate]) {
    users.sort_by(|a, b| {
        let by_name = (a.key.ip, &a.key.user_agent).cmp(&(b.key.ip, &b.key.user_agent));
        b.counters.requests.cmp(&a.counters.requests).then(by_name)
    });
}

/// Aggregate a classified trace into per-user counters: Table 3, Figures 3–4,
/// §6.3 and the threshold sweep read this table. One row per ⟨IP,
/// User-Agent⟩ pair (an absent UA is the empty one), busiest first.
pub fn aggregate_users(trace: &ClassifiedTrace) -> Vec<UserAggregate> {
    let mut users: HashMap<(u32, &str), UserAggregate> = HashMap::new();
    for r in &trace.requests {
        let ua = r.user_agent.as_deref().unwrap_or("");
        let user = users.entry((r.client_ip, ua));
        let user = user.or_insert_with(|| UserAggregate::new(r.client_ip, ua));
        user.counters.observe(r);
    }
    let mut out: Vec<UserAggregate> = users.into_values().collect();
    rank(&mut out);
    out
}

/// The stream engine's user table. The router takes each user's counters as
/// its worker last reported them, by the extractor's [`UserId`], and sums
/// them into rows by [`aggregate_users`]' rules. A row is made, its UA
/// annotated and its key string built, once per user, the first time the
/// rows are read after its counters arrive.
#[derive(Debug, Default)]
pub(crate) struct UserTable {
    /// By id: the user's counters, cumulative.
    counters: Vec<UserTally>,
    /// By id: the user's row in `rows`.
    row_of: Vec<usize>,
    rows: Vec<UserAggregate>,
    /// The row of each address's blank (absent or empty) UA.
    blank: HashMap<u32, usize>,
}

impl UserTable {
    /// Take `user`'s counters, which replace the ones it reported before.
    pub(crate) fn set(&mut self, user: UserId, counters: UserTally) {
        let at = user as usize;
        if at >= self.counters.len() {
            self.counters.resize(at + 1, UserTally::default());
        }
        self.counters[at] = counters;
    }

    /// The rows so far, each the sum of its users' counters; `extractor`
    /// holds the users' keys. A row whose users have finalized no request
    /// yet counts nothing.
    pub(crate) fn rows(&mut self, extractor: &Extractor) -> &[UserAggregate] {
        for id in self.row_of.len()..self.counters.len() {
            let (ip, ua) = extractor.user(id as UserId);
            let blank = ua.is_none_or(str::is_empty);
            let known = if blank { self.blank.get(&ip) } else { None };
            let row = match known {
                Some(&row) => row,
                None => {
                    self.rows.push(UserAggregate::new(ip, ua.unwrap_or("")));
                    self.rows.len() - 1
                }
            };
            if blank {
                self.blank.insert(ip, row);
            }
            self.row_of.push(row);
        }
        for row in &mut self.rows {
            row.counters = UserTally::default();
        }
        for (&row, counters) in self.row_of.iter().zip(&self.counters) {
            self.rows[row].counters.merge(counters);
        }
        &self.rows
    }

    /// The finished table: [`aggregate_users`]' table of the requests the
    /// run finalized.
    pub(crate) fn finish(mut self, extractor: &Extractor) -> Vec<UserAggregate> {
        self.rows(extractor);
        let mut rows = self.rows;
        rows.retain(|u| u.counters.requests > 0);
        rank(&mut rows);
        rows
    }
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
        let c = &u1.counters;
        assert_eq!(c.requests, 4);
        assert_eq!(c.easylist_hits, 1);
        assert_eq!(c.easyprivacy_hits, 1);
        assert_eq!(c.whitelist_hits, 1);
        assert_eq!(c.ad_requests, 3);
        assert_eq!(c.bytes, 5343);
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
        assert!(users[0].counters.requests > users[1].counters.requests);
    }

    #[test]
    fn zero_request_ratio_is_zero() {
        let u = UserAggregate::new(1, "");
        assert_eq!(u.family, BrowserFamily::NonBrowser);
        assert_eq!(u.device, DeviceClass::Unknown);
        assert_eq!(u.easylist_ratio_pct(), 0.0);
        assert_eq!(u.ad_ratio_pct(), 0.0);
    }
}
