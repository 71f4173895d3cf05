//! The referrer map: approximate page-membership reconstruction (§3.1).
//!
//! The passive observer cannot see the DOM, so it approximates "which page
//! did this request belong to" from three signals, following the
//! StreamStructure / ReSurf lineage the paper builds on:
//!
//! 1. **Referer chains** — a request's parent is the URL in its Referer
//!    header; pages are the chain roots.
//! 2. **Redirect repair** — the request following a 3xx has no Referer;
//!    the paper's Bro extension records the `Location` header so the chain
//!    can be stitched across the hop (and the content type propagated back
//!    to the redirecting request).
//! 3. **Embedded URLs** — URLs appearing inside query strings (e.g.
//!    `?dest=http://...`) are inserted into the map as children of the
//!    carrying request's page.
//!
//! Every map runs all three, as the paper's classifier does; none can be
//! switched off. Processing is per user (⟨client IP, User-Agent⟩) in time
//! order, with an LRU-ish horizon so state stays bounded on long traces.
//!
//! The maps are keyed by the scheme-less URL, which is the `Url`'s own
//! shared buffer, together with its hash (`prehash::UrlKey`): a record's URL and
//! its referer are each hashed once, a first insertion takes a handle on the
//! buffer, growth moves stored hashes instead of re-hashing URLs, and page
//! roots are handles on the root's buffer. In steady state the pass
//! allocates only when a map grows (DESIGN.md §19).

use crate::extract::WebObject;
use crate::prehash::{UrlKey, UrlMap};
use http_model::Url;
use std::collections::HashMap;
use std::sync::Arc;

/// How long a page context stays alive without new children.
const PAGE_HORIZON_SECS: f64 = 120.0;
/// How long a pending redirect target is honoured.
const REDIRECT_HORIZON_SECS: f64 = 10.0;

/// Which of the three §3.1 signals produced a page context — the
/// referrer-chain provenance the trace layer exports per request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PageSource {
    /// No signal applied; the request has no page context.
    None,
    /// Stitched across a 3xx hop via the recorded `Location` header.
    RedirectRepair,
    /// Resolved through the referer chain to a previously seen root.
    RefererChain,
    /// The referer itself was unseen (e.g. an HTTPS page) and became the
    /// root.
    RefererRoot,
    /// The object looks like a topmost document and roots its own page.
    DocumentSelf,
    /// Orphan attached to the user's most recent page within the horizon.
    RecentPage,
}

impl PageSource {
    /// Stable lowercase label for provenance output.
    pub fn label(self) -> &'static str {
        match self {
            PageSource::None => "none",
            PageSource::RedirectRepair => "redirect_repair",
            PageSource::RefererChain => "referer_chain",
            PageSource::RefererRoot => "referer_root",
            PageSource::DocumentSelf => "document_self",
            PageSource::RecentPage => "recent_page",
        }
    }
}

/// Result of page reconstruction for one object.
#[derive(Debug, Clone, PartialEq)]
pub struct PageContext {
    /// The inferred page (root) URL, if any.
    pub page: Option<Url>,
    /// True when the context came from redirect repair (diagnostics).
    pub via_redirect: bool,
    /// Which signal produced the context.
    pub source: PageSource,
    /// Referrer-chain hops between this request and its page root
    /// (0 = the request is its own root or has no context).
    pub hops: u16,
}

/// No options: every map runs all three signals. Kept, empty, for the e2e
/// harness alone, which passes `PipelineOptions::refmap` to [`RefMap::new`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RefMapOptions {}

/// Per-user referrer-map state.
///
/// Fields are `pub(crate)` so the streaming checkpoint can serialize and
/// restore the exact live state (the map is deterministic given its
/// state, so restoring it resumes mid-stream byte-identically).
#[derive(Debug, Default)]
pub struct RefMap {
    /// url (scheme-less: http/https referers must not break chains) →
    /// (page root url, last seen ts, hops to root).
    pub(crate) page_of: UrlMap<(Url, f64, u16)>,
    /// pending redirect target (scheme-less) → (page root, expected type
    /// backfill index, ts, hops of the redirecting request).
    pub(crate) pending_redirects: UrlMap<(Option<Url>, usize, f64, u16)>,
    /// The user's most recent page root (fallback context).
    pub(crate) last_page: Option<(Url, f64)>,
    /// Redirect targets registered from `Location` headers.
    pub(crate) redirects_inserted: usize,
    /// Redirect targets that were later observed (chain stitched).
    pub(crate) redirects_consumed: usize,
    /// Streaming mode: record the backfill indexes of pending redirects
    /// that die without being consumed (displaced by a newer redirect to
    /// the same target, or evicted past the horizon), so a streaming
    /// worker holding those records for potential backfill knows when to
    /// release them.
    pub(crate) track_releases: bool,
    released: Vec<usize>,
    /// The last referer looked up, with its hash: a page's objects name one
    /// referer, so most records reuse the hash instead of computing it.
    last_referer: Option<UrlKey>,
}

/// Output entry: page context plus an optional "backfill" instruction
/// telling the pipeline to copy this object's inferred content type onto an
/// earlier (redirecting) object.
#[derive(Debug, Clone, PartialEq)]
pub struct RefMapEntry {
    /// The inferred page context.
    pub ctx: PageContext,
    /// When set: the `idx` of the earlier redirecting object whose content
    /// type should be overwritten with this object's type (§3.1's
    /// redirect-type repair).
    pub backfill_type_to: Option<usize>,
}

impl RefMap {
    /// An empty map, the same as `RefMap::default()`. `_opts` is ignored;
    /// the e2e harness passes it.
    pub fn new(_opts: RefMapOptions) -> RefMap {
        RefMap::default()
    }

    /// Does this object look like a page root? Heuristic: topmost documents
    /// are requests for `/`-ish paths with HTML-ish types and no referer.
    fn looks_like_document(obj: &WebObject) -> bool {
        let html_ct = obj
            .content_type
            .as_deref()
            .map(|c| c.starts_with("text/html"))
            .unwrap_or(false);
        html_ct
            && obj.url.extension_str().is_none_or(|ext| {
                ext.eq_ignore_ascii_case("html") || ext.eq_ignore_ascii_case("htm")
            })
    }

    /// Process one object (objects must arrive in time order per user).
    pub fn process(&mut self, obj: &WebObject) -> RefMapEntry {
        self.evict(obj.ts);
        let mut via_redirect = false;
        let mut backfill_type_to = None;
        let mut source = PageSource::None;
        let mut hops = 0u16;
        // Hashed once, for the redirect lookup and the `page_of` insertion.
        let url_key = UrlKey::new(obj.url.schemeless_shared());

        // 1. Redirect repair: am I the target of a recent redirect?
        let mut page: Option<Url> = None;
        if let Some((root, redirecting_idx, _, redirect_hops)) =
            self.pending_redirects.remove(&url_key)
        {
            self.redirects_consumed += 1;
            via_redirect = true;
            backfill_type_to = Some(redirecting_idx);
            if root.is_some() {
                source = PageSource::RedirectRepair;
                hops = redirect_hops.saturating_add(1);
            }
            page = root;
        }

        // 2. Referer chain.
        if page.is_none() {
            if let Some(referer) = &obj.referer {
                let key = match self.last_referer.take() {
                    Some(key) if **key.text() == *referer.schemeless() => key,
                    _ => UrlKey::new(referer.schemeless_shared()),
                };
                page = match self.page_of.get(self.last_referer.insert(key)) {
                    Some((root, _, referer_hops)) => {
                        source = PageSource::RefererChain;
                        hops = referer_hops.saturating_add(1);
                        Some(root.clone())
                    }
                    // Referer unseen (e.g. HTTPS page with HTTP children):
                    // the referer itself becomes the page root.
                    None => {
                        source = PageSource::RefererRoot;
                        hops = 1;
                        Some(referer.clone())
                    }
                };
            }
        }

        // 3. No referer, not a redirect target: a document starts a new
        //    page; anything else attaches to the most recent page within
        //    the horizon.
        if page.is_none() {
            if Self::looks_like_document(obj) {
                source = PageSource::DocumentSelf;
                page = Some(obj.url.clone());
            } else if let Some((root, ts)) = &self.last_page {
                if obj.ts - ts <= PAGE_HORIZON_SECS {
                    source = PageSource::RecentPage;
                    hops = 1;
                    page = Some(root.clone());
                }
            }
        }

        // Update state. `insert` keeps the key of an entry that is already
        // there, so a URL seen again is updated in place.
        if let Some(root) = &page {
            self.page_of.insert(url_key, (root.clone(), obj.ts, hops));
            self.last_page = Some((root.clone(), obj.ts));
        } else if Self::looks_like_document(obj) {
            self.last_page = Some((obj.url.clone(), obj.ts));
        }
        // Record pending redirects. A newer redirect to the same target
        // displaces the old entry, whose backfill can then never fire.
        if let Some(loc) = &obj.location {
            self.redirects_inserted += 1;
            let displaced = self.pending_redirects.insert(
                UrlKey::new(loc.schemeless_shared()),
                (page.clone(), obj.idx, obj.ts, hops),
            );
            if self.track_releases {
                if let Some((_, old_idx, _, _)) = displaced {
                    self.released.push(old_idx);
                }
            }
        }
        // Embedded URLs in the query string join the same page.
        if let Some(root) = &page {
            for emb in embedded_urls(&obj.url) {
                self.page_of.insert(
                    UrlKey::new(emb.schemeless_shared()),
                    (root.clone(), obj.ts, hops.saturating_add(1)),
                );
            }
        }
        RefMapEntry {
            ctx: PageContext {
                page,
                via_redirect,
                source,
                hops,
            },
            backfill_type_to,
        }
    }

    /// Redirect targets registered so far (from `Location` headers).
    pub fn redirects_inserted(&self) -> usize {
        self.redirects_inserted
    }

    /// Redirect targets later observed and stitched into a chain. The
    /// difference `inserted - consumed` is the number of chains that
    /// stayed broken (target never arrived within the horizon).
    pub fn redirects_consumed(&self) -> usize {
        self.redirects_consumed
    }

    /// Drain the backfill indexes released since the last call (streaming
    /// mode only; always empty unless `track_releases` is set).
    pub(crate) fn take_released(&mut self) -> Vec<usize> {
        std::mem::take(&mut self.released)
    }

    /// Rebuild a map from checkpointed state (streaming resume); each key
    /// is hashed once, here.
    pub(crate) fn restore(
        page_of: HashMap<Arc<str>, (Url, f64, u16)>,
        pending_redirects: HashMap<Arc<str>, (Option<Url>, usize, f64, u16)>,
        last_page: Option<(Url, f64)>,
        redirects_inserted: usize,
        redirects_consumed: usize,
        track_releases: bool,
    ) -> RefMap {
        fn keyed<V>(map: HashMap<Arc<str>, V>) -> UrlMap<V> {
            map.into_iter().map(|(k, v)| (UrlKey::new(k), v)).collect()
        }
        RefMap {
            page_of: keyed(page_of),
            pending_redirects: keyed(pending_redirects),
            last_page,
            redirects_inserted,
            redirects_consumed,
            track_releases,
            released: Vec::new(),
            last_referer: None,
        }
    }

    fn evict(&mut self, now: f64) {
        if self.page_of.len() > 4096 {
            self.page_of
                .retain(|_, (_, ts, _)| now - *ts <= PAGE_HORIZON_SECS);
        }
        if self.pending_redirects.len() > 256 {
            let track = self.track_releases;
            let released = &mut self.released;
            self.pending_redirects.retain(|_, (_, idx, ts, _)| {
                let keep = now - *ts <= REDIRECT_HORIZON_SECS;
                if !keep && track {
                    released.push(*idx);
                }
                keep
            });
        }
    }
}

/// Find URLs embedded inside a URL's query string: absolute `http(s)://`
/// values and `dest=`/`url=`-style parameters that parse as host/path.
pub fn embedded_urls(url: &Url) -> Vec<Url> {
    let mut out = Vec::new();
    for (k, v) in url.query_pairs() {
        if v.starts_with("http://") || v.starts_with("https://") {
            if let Ok(u) = Url::parse(v) {
                out.push(u);
            }
        } else if matches!(k, "dest" | "url" | "redirect" | "target") && v.contains('/') {
            // Scheme-less embedded URL, e.g. dest=host.example/path.
            if let Ok(u) = Url::parse(&format!("http://{v}")) {
                out.push(u);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obj(
        idx: usize,
        ts: f64,
        url: &str,
        referer: Option<&str>,
        ct: Option<&str>,
        location: Option<&str>,
    ) -> WebObject {
        WebObject {
            idx,
            user: 0,
            ts,
            client_ip: 1,
            server_ip: 2,
            url: Url::parse(url).unwrap(),
            referer: referer.map(|r| Url::parse(r).unwrap()),
            content_type: ct.map(std::sync::Arc::from),
            bytes: 100,
            status: if location.is_some() { 302 } else { 200 },
            location: location.map(|l| Url::parse(l).unwrap()),
            user_agent: Some("UA".into()),
            tcp_handshake_ms: 1.0,
            http_handshake_ms: 2.0,
        }
    }

    #[test]
    fn referer_chain_resolves_to_root() {
        let mut m = RefMap::default();
        // Page load: document, then script referencing it, then image
        // referenced from the script's URL.
        let doc = obj(0, 0.0, "http://pub.example/", None, Some("text/html"), None);
        let e0 = m.process(&doc);
        assert_eq!(e0.ctx.page.as_ref().unwrap().host(), "pub.example");
        assert_eq!(e0.ctx.source, PageSource::DocumentSelf);
        assert_eq!(e0.ctx.hops, 0);
        let script = obj(
            1,
            0.5,
            "http://cdn.example/app.js",
            Some("http://pub.example/"),
            Some("application/javascript"),
            None,
        );
        let e1 = m.process(&script);
        assert_eq!(
            e1.ctx.page.as_ref().unwrap().as_string(),
            "http://pub.example/"
        );
        assert_eq!(e1.ctx.source, PageSource::RefererChain);
        assert_eq!(e1.ctx.hops, 1);
        // Child of the script keeps the same root.
        let img = obj(
            2,
            1.0,
            "http://ads.example/b.gif",
            Some("http://cdn.example/app.js"),
            Some("image/gif"),
            None,
        );
        let e2 = m.process(&img);
        assert_eq!(
            e2.ctx.page.as_ref().unwrap().as_string(),
            "http://pub.example/"
        );
        assert_eq!(e2.ctx.hops, 2, "root ← script ← image is two hops");
    }

    #[test]
    fn redirect_repair_stitches_broken_chain() {
        let mut m = RefMap::default();
        m.process(&obj(
            0,
            0.0,
            "http://pub.example/",
            None,
            Some("text/html"),
            None,
        ));
        // Redirector carries the page referer and a Location.
        let r = obj(
            1,
            0.4,
            "http://exchange.example/r?id=1",
            Some("http://pub.example/"),
            None,
            Some("http://ads.example/banner.gif"),
        );
        m.process(&r);
        // Follow-up request: no referer at all.
        let target = obj(
            2,
            0.5,
            "http://ads.example/banner.gif",
            None,
            Some("image/gif"),
            None,
        );
        let e = m.process(&target);
        assert!(e.ctx.via_redirect);
        assert_eq!(e.ctx.source, PageSource::RedirectRepair);
        assert_eq!(e.ctx.hops, 2, "root ← redirector ← target");
        assert_eq!(
            e.ctx.page.as_ref().unwrap().as_string(),
            "http://pub.example/"
        );
        assert_eq!(
            e.backfill_type_to,
            Some(1),
            "type propagates to the redirector"
        );
    }

    #[test]
    fn unseen_referer_becomes_page_root() {
        let mut m = RefMap::default();
        // An HTTPS page invisible to the monitor: its HTTP child names it.
        let e = m.process(&obj(
            0,
            0.0,
            "http://ads.example/b.gif",
            Some("https://secure.example/checkout"),
            Some("image/gif"),
            None,
        ));
        assert_eq!(e.ctx.page.as_ref().unwrap().host(), "secure.example");
    }

    #[test]
    fn orphan_attaches_to_recent_page() {
        let mut m = RefMap::default();
        m.process(&obj(
            0,
            0.0,
            "http://pub.example/",
            None,
            Some("text/html"),
            None,
        ));
        let e = m.process(&obj(
            1,
            3.0,
            "http://beacon.example/p.gif",
            None,
            Some("image/gif"),
            None,
        ));
        assert_eq!(e.ctx.page.as_ref().unwrap().host(), "pub.example");
        // ... but not after the horizon.
        let late = m.process(&obj(
            2,
            500.0,
            "http://beacon.example/q.gif",
            None,
            Some("image/gif"),
            None,
        ));
        assert_eq!(late.ctx.page, None);
    }

    #[test]
    fn embedded_urls_parsed() {
        let u = Url::parse("http://r.example/go?dest=http://t.example/x&other=1").unwrap();
        let emb = embedded_urls(&u);
        assert_eq!(emb.len(), 1);
        assert_eq!(emb[0].host(), "t.example");
        let schemeless = Url::parse("http://r.example/go?url=t2.example/path").unwrap();
        let emb2 = embedded_urls(&schemeless);
        assert_eq!(emb2[0].host(), "t2.example");
        let none = Url::parse("http://r.example/go?x=1").unwrap();
        assert!(embedded_urls(&none).is_empty());
    }

    #[test]
    fn embedded_url_requests_join_page() {
        let mut m = RefMap::default();
        m.process(&obj(
            0,
            0.0,
            "http://pub.example/",
            None,
            Some("text/html"),
            None,
        ));
        m.process(&obj(
            1,
            0.2,
            "http://r.example/go?dest=http://t.example/x.js",
            Some("http://pub.example/"),
            None,
            None,
        ));
        // Request to the embedded URL without referer: found via the map.
        // Clear last_page effect by jumping past nothing — it is within
        // horizon anyway; check the mapping is specifically present.
        let e = m.process(&obj(
            2,
            0.3,
            "http://t.example/x.js",
            None,
            Some("application/javascript"),
            None,
        ));
        assert_eq!(e.ctx.page.as_ref().unwrap().host(), "pub.example");
    }

    #[test]
    fn a_url_seen_again_updates_its_entry_in_place() {
        let mut m = RefMap::default();
        let first = obj(0, 0.0, "http://pub.example/", None, Some("text/html"), None);
        m.process(&first);
        // Same URL from a fresh parse (its own buffer), later, via https.
        let second = obj(
            1,
            9.0,
            "https://pub.example/",
            None,
            Some("text/html"),
            None,
        );
        let e = m.process(&second);
        assert_eq!(e.ctx.source, PageSource::DocumentSelf);
        assert_eq!(m.page_of.len(), 1);
        let (key, (root, ts, hops)) = m.page_of.iter().next().unwrap();
        assert!(
            Arc::ptr_eq(key.text(), &first.url.schemeless_shared()),
            "the key of the first insertion stays"
        );
        assert_eq!((root, *ts, *hops), (&second.url, 9.0, 0));
        // The page root is a handle on the request's buffer, not a copy.
        assert!(Arc::ptr_eq(
            &root.schemeless_shared(),
            &second.url.schemeless_shared()
        ));
    }

    #[test]
    fn document_extension_test_ignores_case() {
        for (url, is_doc) in [
            ("http://pub.example/index.HTML", true),
            ("http://pub.example/index.Htm", true),
            ("http://pub.example/dir/", true),
            ("http://pub.example/feed.PHP", false),
        ] {
            let o = obj(0, 0.0, url, None, Some("text/html; charset=utf-8"), None);
            assert_eq!(RefMap::looks_like_document(&o), is_doc, "{url}");
        }
        let gif = obj(0, 0.0, "http://pub.example/", None, Some("image/gif"), None);
        assert!(!RefMap::looks_like_document(&gif));
    }

    #[test]
    fn scheme_differences_do_not_break_chains() {
        let mut m = RefMap::default();
        m.process(&obj(
            0,
            0.0,
            "http://pub.example/p",
            None,
            Some("text/html"),
            None,
        ));
        // Referer written as https (page served https, child http).
        let e = m.process(&obj(
            1,
            0.4,
            "http://ads.example/b.gif",
            Some("https://pub.example/p"),
            Some("image/gif"),
            None,
        ));
        assert_eq!(
            e.ctx.page.as_ref().unwrap().as_string(),
            "http://pub.example/p"
        );
    }
}
