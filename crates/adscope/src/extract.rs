//! HTTP log extraction — the Bro-analyzer stage of the pipeline.
//!
//! The paper extends Bro's HTTP analyzer to export, per transaction: Host +
//! URI, Referer, Content-Type, Content-Length and (their extension) the
//! Location header of redirects. This module turns a captured trace into
//! that log: a vector of [`WebObject`]s with parsed URLs, ready for the
//! page-metadata reconstruction.
//!
//! It is also where a record meets its user (§6.1: ⟨anonymized IP,
//! User-Agent⟩): the [`Extractor`] hashes that key once per record and
//! hands every later stage a dense [`UserId`] to index by instead.

use crate::degrade::DegradationReport;
use crate::intern::Interner;
use crate::prehash::{self, PassThrough};
use http_model::url::{Url, UrlMemo};
use netsim::record::{HttpView, Trace, TraceMeta};
use std::collections::HashMap;
use std::sync::Arc;

/// How far the trace-order clock ([`WebObject::clock`]) trails the highest
/// timestamp: a record stamped up to this far ahead of the others (the
/// fault model skews a timestamp by up to 5 s) shortens no other record's
/// horizon.
pub(crate) const CLOCK_SLACK_SECS: f64 = 5.0;

/// A ⟨client IP, User-Agent⟩ user, numbered densely from 0 in the order an
/// [`Extractor`] first meets it. Local to one run and never persisted: a
/// missing and an empty User-Agent are two users.
pub type UserId = u32;

/// One extracted HTTP log entry.
///
/// Equality is over the entry's content: [`WebObject::user`] is a run-local
/// handle, and two extractors may number one user differently.
#[derive(Debug, Clone)]
pub struct WebObject {
    /// Index of the transaction within the trace's HTTP records (stable id).
    pub idx: usize,
    /// The record's ⟨client IP, User-Agent⟩ user.
    pub user: UserId,
    /// Seconds since trace start.
    pub ts: f64,
    /// The trace-order clock: the highest `ts` of the trace's extracted
    /// HTTP records up to and including this one, less
    /// `CLOCK_SLACK_SECS` (0 at the trace's start), as the [`Extractor`]
    /// that made this object counts it; a `ts` past the trace's declared
    /// duration is garbled and does not count. It only moves on, out of
    /// order records or not, and the referrer map measures its horizons on
    /// it. Not part of equality: it is the trace's, not the entry's.
    pub clock: f64,
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
    /// User-Agent string, shared by every record of the user (one
    /// allocation per ⟨IP, UA⟩ pair).
    pub user_agent: Option<Arc<str>>,
    /// TCP handshake (ms) — the RTT proxy.
    pub tcp_handshake_ms: f64,
    /// HTTP handshake (ms).
    pub http_handshake_ms: f64,
}

impl PartialEq for WebObject {
    fn eq(&self, other: &WebObject) -> bool {
        self.idx == other.idx
            && self.ts == other.ts
            && self.client_ip == other.client_ip
            && self.server_ip == other.server_ip
            && self.url == other.url
            && self.referer == other.referer
            && self.content_type == other.content_type
            && self.bytes == other.bytes
            && self.status == other.status
            && self.location == other.location
            && self.user_agent == other.user_agent
            && self.tcp_handshake_ms == other.tcp_handshake_ms
            && self.http_handshake_ms == other.http_handshake_ms
    }
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
pub(crate) fn extract_with_report(trace: &Trace) -> (Vec<WebObject>, DegradationReport) {
    let (out, report, _) = extract_full(trace);
    (out, report)
}

/// `extract_with_report` plus the timestamps of the quarantined
/// (unparseable-URL) records, in trace order — the `quarantined` window
/// series' input, so the materialized and streaming paths count the same
/// records into the same hourly buckets.
pub fn extract_full(trace: &Trace) -> (Vec<WebObject>, DegradationReport, Vec<f64>) {
    let mut out = Vec::with_capacity(trace.records.len());
    let mut report = DegradationReport::default();
    let mut quarantined_ts = Vec::new();
    let mut extractor = Extractor::for_trace(&trace.meta);
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

/// What extraction keeps from one record to the next: the user table, the
/// Content-Type interner, the buffer each request URL is put together in,
/// the memo that serves a page's objects their shared referer, and the
/// trace-order clock ([`WebObject::clock`]).
#[derive(Debug, Default)]
pub struct Extractor {
    users: UserTable,
    interner: Interner,
    scratch: String,
    referers: UrlMemo,
    clock: f64,
    /// The trace's declared duration, when it declares one: a later `ts`
    /// is garbled and does not move the clock.
    end: Option<f64>,
}

/// Every user met so far, indexed by [`UserId`], and an index from the
/// keyed hash of ⟨IP, UA⟩ to the newest user with that hash. A record's
/// key is hashed at most once, and not at all when it is the previous
/// record's user; the index stores hashes, so it never re-hashes one.
#[derive(Debug, Default)]
struct UserTable {
    index: HashMap<u64, UserId, PassThrough>,
    users: Vec<KnownUser>,
    last: Option<UserId>,
}

#[derive(Debug)]
struct KnownUser {
    client_ip: u32,
    user_agent: Option<Arc<str>>,
    /// The user before this one whose key has the same 64-bit hash.
    collides: Option<UserId>,
}

impl UserTable {
    /// The id of ⟨`client_ip`, `user_agent`⟩ and its shared UA, numbering
    /// it next if it is new; `shared` makes the UA of a new user.
    fn intern(
        &mut self,
        client_ip: u32,
        user_agent: Option<&str>,
        shared: impl FnOnce() -> Option<Arc<str>>,
    ) -> (UserId, Option<Arc<str>>) {
        let is = |u: &KnownUser| u.client_ip == client_ip && u.user_agent.as_deref() == user_agent;
        if let Some(id) = self.last.filter(|&id| is(&self.users[id as usize])) {
            return (id, self.users[id as usize].user_agent.clone());
        }
        // The IP and a present/absent tag in one word, then the UA bytes.
        let tag = u64::from(user_agent.is_some()) << 32;
        let hash = prehash::hash_one((u64::from(client_ip) | tag, user_agent.unwrap_or("")));
        let mut at = self.index.get(&hash).copied();
        while let Some(id) = at {
            let u = &self.users[id as usize];
            if is(u) {
                self.last = Some(id);
                return (id, u.user_agent.clone());
            }
            at = u.collides;
        }
        let id = UserId::try_from(self.users.len()).expect("fewer than 2^32 users");
        let user_agent = shared();
        let collides = self.index.insert(hash, id);
        self.users.push(KnownUser {
            client_ip,
            user_agent: user_agent.clone(),
            collides,
        });
        self.last = Some(id);
        (id, user_agent)
    }
}

impl Extractor {
    /// An extractor for the trace `meta` heads: its clock stops at the
    /// declared duration (a header that declares none, as a recovered one,
    /// does not stop it).
    pub(crate) fn for_trace(meta: &TraceMeta) -> Extractor {
        let end = meta.duration_secs;
        Extractor {
            end: (end > 0.0).then_some(end),
            ..Extractor::default()
        }
    }

    /// Number a restored user as the extractor numbers one it meets, the
    /// UA kept as given. A resumed run restores its users first, so they
    /// get the ids `0..` in the order it restores them.
    pub(crate) fn restore_user(&mut self, client_ip: u32, user_agent: Option<Arc<str>>) -> UserId {
        let ua = user_agent.as_deref();
        self.users.intern(client_ip, ua, || user_agent.clone()).0
    }

    /// The ⟨client IP, User-Agent⟩ of `user`.
    pub(crate) fn user(&self, user: UserId) -> (u32, Option<&str>) {
        let u = &self.users.users[user as usize];
        (u.client_ip, u.user_agent.as_deref())
    }

    /// The trace-order clock as of the last record extracted.
    pub(crate) fn clock(&self) -> f64 {
        self.clock
    }

    /// Start the clock where a checkpoint left it.
    pub(crate) fn restore_clock(&mut self, clock: f64) {
        self.clock = clock;
    }

    /// Number of distinct users met so far.
    #[cfg(test)]
    pub(crate) fn users(&self) -> usize {
        self.users.users.len()
    }

    /// The log entry for one transaction, whether `tx` views a scanned line
    /// or an owned record; `None` when its URL cannot be reassembled (the
    /// caller counts and quarantines it, and its `ts` does not move the
    /// clock).
    pub fn extract_one(
        &mut self,
        idx: usize,
        tx: &HttpView<'_>,
        report: &mut DegradationReport,
    ) -> Option<WebObject> {
        let url = Url::from_host_and_uri(tx.host, tx.uri, &mut self.scratch)?;
        if tx.ts <= self.end.unwrap_or(f64::MAX) {
            self.clock = self.clock.max(tx.ts - CLOCK_SLACK_SECS);
        }
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
        let (user, user_agent) = self
            .users
            .intern(tx.client_ip, tx.user_agent, || tx.user_agent.map(Arc::from));
        Some(WebObject {
            idx,
            user,
            ts: tx.ts,
            clock: self.clock,
            client_ip: tx.client_ip,
            server_ip: tx.server_ip,
            url,
            referer,
            content_type: self.interner.intern_opt(tx.content_type),
            bytes: tx.content_length.unwrap_or(0),
            status: tx.status,
            location,
            user_agent,
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

    /// The clock trails the highest timestamp by the slack, and moves on
    /// neither for a record past the trace's declared end (a garbled
    /// timestamp) nor for a quarantined one; a header that declares no
    /// duration bounds nothing.
    #[test]
    fn the_clock_skips_garbled_and_quarantined_timestamps() {
        let at = |ts: f64, host: &str| {
            let mut r = tx(host, "/x", None, None);
            if let TraceRecord::Http(h) = &mut r {
                h.ts = ts;
            }
            r
        };
        let t = trace(vec![
            at(2.0, "a.example"),
            at(8.0, "a.example"),
            at(1234.56789e12, "a.example"),
            at(9.5, ""),
            at(6.0, "a.example"),
            at(f64::NAN, "a.example"),
        ]);
        let (objs, ..) = extract_full(&t);
        let clocks: Vec<f64> = objs.iter().map(|o| o.clock).collect();
        assert_eq!(clocks, [0.0, 3.0, 3.0, 3.0, 3.0]);

        let mut undeclared = t.meta.clone();
        undeclared.duration_secs = 0.0;
        let mut extractor = Extractor::for_trace(&undeclared);
        let mut report = DegradationReport::default();
        let last = (t.http_transactions().enumerate())
            .filter_map(|(idx, h)| extractor.extract_one(idx, &HttpView::of(h), &mut report))
            .last();
        assert_eq!(last.unwrap().clock, 1234.56789e12 - CLOCK_SLACK_SECS);
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
    fn user_ids_are_dense_and_in_arrival_order() {
        let with_ua = |client: u32, ua: Option<&str>| {
            let mut r = tx("a.example", "/x", None, None);
            if let TraceRecord::Http(h) = &mut r {
                h.client_ip = client;
                h.request.user_agent = ua.map(str::to_string);
            }
            r
        };
        let t = trace(vec![
            with_ua(5, Some("UA")),
            with_ua(6, Some("UA")),
            with_ua(5, None),
            with_ua(5, Some("")),
            tx("", "/quarantined", None, None),
            with_ua(6, Some("UA")),
            with_ua(5, Some("UA")),
            with_ua(7, Some("UA")),
            with_ua(5, None),
        ]);
        let mut extractor = Extractor::default();
        let mut report = DegradationReport::default();
        let objs: Vec<WebObject> = t
            .http_transactions()
            .enumerate()
            .filter_map(|(idx, h)| extractor.extract_one(idx, &HttpView::of(h), &mut report))
            .collect();
        let ids: Vec<UserId> = objs.iter().map(|o| o.user).collect();
        assert_eq!(ids, [0, 1, 2, 3, 1, 0, 4, 2]);
        assert_eq!(extractor.users(), 5);
        assert_eq!(extractor.user(2), (5, None));
        assert_eq!(extractor.user(3), (5, Some("")));
        // One UA allocation per user, shared by its records.
        assert!(Arc::ptr_eq(
            objs[0].user_agent.as_ref().unwrap(),
            objs[5].user_agent.as_ref().unwrap()
        ));
        assert!(!Arc::ptr_eq(
            objs[0].user_agent.as_ref().unwrap(),
            objs[1].user_agent.as_ref().unwrap()
        ));
        // A restored user is numbered like a met one, and found again.
        let restored = extractor.restore_user(8, Some(Arc::from("UA")));
        assert_eq!(restored, 5);
        assert_eq!(extractor.restore_user(5, None), 2);
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
