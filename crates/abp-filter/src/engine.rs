//! The reference engine: the token-indexed oracle the compiled engine is
//! held to, plus the request and verdict types both engines share.
//!
//! Production classifies and blocks through
//! [`CompiledEngine`](crate::CompiledEngine); [`Engine`] is kept as
//! small as the differential suites allow, so that what it decides is easy
//! to check by reading. Its token index defines
//! [`Classification::first_match_depth`], and its `EngineMetrics` are
//! what the compiled engine's tallies are audited against.

use crate::matcher::{host_span, matches};
use crate::rule::NetFilter;
use crate::subscription::FilterList;
use crate::tokenizer::{filter_token, hash_token, url_tokens_into};
use http_model::{is_third_party, ContentCategory, Url};
use std::collections::HashMap;
use std::sync::Arc;

/// Identifier of a list loaded into an [`Engine`], in insertion order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ListId(pub usize);

/// A request to classify: URL, optional page context, content category.
///
/// This is exactly the triple the paper says libadblockplus needs (§3.1):
/// *the requested URL itself, the rest of URLs in the Web page that
/// triggered the request, and the type of the content*. The "rest of URLs"
/// reduces, for matching purposes, to the page (source) URL that determines
/// `$domain=` applicability and third-partyness.
#[derive(Debug, Clone, Copy)]
pub struct Request<'a> {
    /// The URL being requested.
    pub url: &'a Url,
    /// The page the request originates from (from the referrer map).
    pub source_url: Option<&'a Url>,
    /// Inferred content category.
    pub category: ContentCategory,
}

/// A reference to a filter that matched: which list and which rule text.
/// The rule text is a shared `Arc<str>` backed by the engine's rule store,
/// so classifying never copies filter bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FilterRef {
    /// The list the filter came from.
    pub list: ListId,
    /// The raw filter line.
    pub filter: Arc<str>,
}

/// Result of classifying one request.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Classification {
    /// Blocking matches, at most one per list, in list order.
    pub blocking: Vec<FilterRef>,
    /// First exception (whitelist) match, if any.
    pub exception: Option<FilterRef>,
    /// True when the exception is a `$document` rule matching the *page*,
    /// which whitelists every request on it.
    pub page_whitelisted: bool,
    /// How many blocking candidates the token index surfaced before the
    /// first match (0 = the very first candidate matched); `None` when no
    /// blocking rule matched. Deterministic for a given engine and
    /// request — the verdict-provenance layer exports it per trace.
    pub first_match_depth: Option<u32>,
}

impl Classification {
    /// The paper's definition of an "ad request" (§6 footnote): blacklisted
    /// by any list **or** whitelisted by an exception rule.
    pub fn is_ad(&self) -> bool {
        !self.blocking.is_empty() || self.exception.is_some()
    }

    /// Would Adblock Plus block this request (a blacklist hit with no
    /// applicable exception)?
    pub fn would_block(&self) -> bool {
        !self.blocking.is_empty() && self.exception.is_none() && !self.page_whitelisted
    }

    /// True when an exception whitelists a request that at least one
    /// blacklist would have blocked — the §7.3 "matches the blacklist"
    /// subset of whitelisted traffic.
    pub fn whitelisted_overriding_block(&self) -> bool {
        self.exception.is_some() && !self.blocking.is_empty()
    }

    /// Did a blocking rule from `list` match?
    #[cfg(test)]
    fn blocked_by_list(&self, list: ListId) -> bool {
        self.blocking.iter().any(|f| f.list == list)
    }
}

/// One compiled filter plus its provenance. The filter's `raw` shares the
/// rule text with every [`FilterRef`] handed out for it.
#[derive(Debug, Clone)]
pub(crate) struct Entry {
    pub(crate) list: ListId,
    pub(crate) filter: NetFilter,
}

/// Token-hash indexed filter store.
#[derive(Debug, Default, Clone)]
pub(crate) struct TokenIndex {
    pub(crate) by_token: HashMap<u64, Vec<Entry>>,
    /// Filters with no usable token: always evaluated.
    pub(crate) untokenized: Vec<Entry>,
}

impl TokenIndex {
    fn insert(&mut self, entry: Entry) {
        match filter_token(entry.filter.pattern.literals()) {
            Some(tok) => self.by_token.entry(tok).or_default().push(entry),
            None => self.untokenized.push(entry),
        }
    }

    /// Visit every candidate entry for a URL's token set.
    fn candidates<'a>(&'a self, tokens: &'a [u64]) -> impl Iterator<Item = &'a Entry> {
        tokens
            .iter()
            .filter_map(move |t| self.by_token.get(t))
            .flatten()
            .chain(self.untokenized.iter())
    }

    /// Every entry: the buckets in no particular order, each in insertion
    /// order, the untokenized tail last. A stable sort by token puts them
    /// in the order [`CompiledEngine`](crate::CompiledEngine) lowers a
    /// table in.
    pub(crate) fn entries(&self) -> impl Iterator<Item = &Entry> + Clone {
        self.by_token.values().flatten().chain(&self.untokenized)
    }

    fn len(&self) -> usize {
        self.by_token.values().map(Vec::len).sum::<usize>() + self.untokenized.len()
    }

    fn untokenized_len(&self) -> usize {
        self.untokenized.len()
    }
}

/// Reusable per-thread match-path buffers. One scratch per worker makes
/// [`Engine::classify_in`] (and the compiled engine's classify) allocation
/// free after warm-up: the lowercase URL/page buffers, the token vectors,
/// and the candidate/host-hash vectors are all reused across requests.
#[derive(Debug, Default, Clone)]
pub struct ClassifyScratch {
    /// Lowercased serialization of the request URL.
    pub(crate) url_buf: String,
    /// Lowercased serialization of the `$document` target page URL.
    pub(crate) page_buf: String,
    /// Token hashes of the request URL.
    pub(crate) tokens: Vec<u64>,
    /// Byte offset of each token in `url_buf`, parallel to `tokens`
    /// (compiled engine only).
    pub(crate) token_starts: Vec<usize>,
    /// Start offsets of the occurrences of the token whose bucket is being
    /// evaluated (compiled engine only).
    pub(crate) occurrences: Vec<usize>,
    /// Positions of the entries of that bucket that pass its pre-filters
    /// (compiled engine only).
    pub(crate) survivors: Vec<u32>,
    /// FNV hashes of every dot-suffix of a host (compiled engine only).
    pub(crate) host_hashes: Vec<u64>,
    /// The page host's dot-suffix hashes, kept while the page host repeats
    /// (compiled engine only).
    pub(crate) page_memo: PageHostMemo,
    /// Candidate rule indices gathered from host-keyed buckets (compiled
    /// engine only).
    pub(crate) candidates: Vec<u32>,
}

impl ClassifyScratch {
    /// A fresh scratch (buffers grow on first use).
    pub fn new() -> ClassifyScratch {
        ClassifyScratch::default()
    }
}

/// The dot-suffix hashes of the last page host seen: the requests of one
/// page view arrive together, so most requests reuse them instead of
/// rehashing every suffix. The memo owns its buffer — the `$document` path
/// hashes document hosts into `ClassifyScratch::host_hashes`, never here,
/// so nothing else can leave it stale.
#[derive(Debug, Default, Clone)]
pub(crate) struct PageHostMemo {
    host: String,
    /// Empty until first filled: a filled memo holds at least the host's
    /// own hash.
    hashes: Vec<u64>,
}

impl PageHostMemo {
    /// `host_suffix_hashes` of `host`, recomputed only when `host` differs
    /// from the last one asked for.
    pub(crate) fn hashes(&mut self, host: &str) -> &[u64] {
        if self.hashes.is_empty() || self.host != host {
            host_suffix_hashes(host, &mut self.hashes);
            self.host.clear();
            self.host.push_str(host);
        }
        &self.hashes
    }
}

/// Serialize a URL into `buf` lowercased — equivalent to
/// `url.as_string().to_ascii_lowercase()` without the two allocations.
/// The host is already lowercase from parsing, so for the common
/// all-lowercase URL the in-place fold touches nothing.
pub(crate) fn write_lower_url(url: &Url, buf: &mut String) {
    url.write_into(buf);
    buf.make_ascii_lowercase();
}

/// Push the FNV hash of every dot-suffix of `host` (the host itself, then
/// each suffix starting after a `.`). `is_subdomain_or_same(host, d)` holds
/// exactly when `d` is one of these suffixes, so domain membership reduces
/// to hash-set probes.
pub(crate) fn host_suffix_hashes(host: &str, out: &mut Vec<u64>) {
    out.clear();
    let bytes = host.as_bytes();
    out.push(hash_token(bytes));
    for (i, &b) in bytes.iter().enumerate() {
        if b == b'.' && i + 1 < bytes.len() {
            out.push(hash_token(&bytes[i + 1..]));
        }
    }
}

/// Metric handles for the engine's hot path. One atomic add per counter
/// per [`Engine::classify`] call — tallies are accumulated in locals
/// inside the match loops and flushed once at the end.
#[derive(Debug, Clone)]
pub(crate) struct EngineMetrics {
    requests: obs::Counter,
    rules_evaluated: obs::Counter,
    tokenizer_hits: obs::Counter,
    whitelist_overrides: obs::Counter,
    first_match_depth: obs::Histogram,
}

impl EngineMetrics {
    /// Bind handles against an explicit registry.
    pub fn bind(registry: &obs::Registry) -> EngineMetrics {
        EngineMetrics {
            requests: registry.counter("abp_requests_total"),
            rules_evaluated: registry.counter("abp_rules_evaluated_total"),
            tokenizer_hits: registry.counter("abp_tokenizer_hits_total"),
            whitelist_overrides: registry.counter("abp_whitelist_overrides_total"),
            first_match_depth: registry.histogram("abp_first_match_depth"),
        }
    }
}

impl Default for EngineMetrics {
    /// Handles bound to the global registry.
    fn default() -> EngineMetrics {
        EngineMetrics::bind(obs::global())
    }
}

/// The reference filter engine, the oracle: loaded lists + token indexes.
///
/// Matching semantics follow Adblock Plus: exception rules override blocking
/// rules; `$document` exceptions matching the page whitelist all requests on
/// that page; list order only affects which blocking match is "primary".
#[derive(Debug, Default, Clone)]
pub struct Engine {
    lists: Vec<String>,
    pub(crate) blocking: TokenIndex,
    pub(crate) exceptions: TokenIndex,
    /// `$document` exception rules in load order, matched against page
    /// URLs by a linear scan.
    pub(crate) document_exceptions: Vec<Entry>,
    /// Literal query fragments appearing in any filter — exported so the URL
    /// normalizer never rewrites values that rules depend on (§3.1).
    query_literals: Vec<String>,
    /// Hot-path metric handles (global registry unless rebound).
    metrics: EngineMetrics,
}

impl Engine {
    /// An engine with no lists.
    pub fn new() -> Engine {
        Engine::default()
    }

    /// Load a filter list's network rules; returns its [`ListId`]. Lists
    /// are consulted in load order. Element-hiding rules are not kept:
    /// [`selectors_for`](crate::hiding::selectors_for) resolves them.
    pub fn add_list(&mut self, list: FilterList) -> ListId {
        let id = ListId(self.lists.len());
        self.lists.push(list.name.clone());
        self.query_literals
            .extend(list.query_literals().map(str::to_string));
        for f in list.blocking {
            self.blocking.insert(Entry {
                list: id,
                filter: f,
            });
        }
        for f in list.exceptions {
            let entry = Entry {
                list: id,
                filter: f,
            };
            if entry.filter.options.document {
                self.document_exceptions.push(entry);
            } else {
                self.exceptions.insert(entry);
            }
        }
        id
    }

    /// Names of the loaded lists in id order.
    #[doc(hidden)]
    pub fn list_names(&self) -> &[String] {
        &self.lists
    }

    /// Name of one list.
    pub fn list_name(&self, id: ListId) -> &str {
        &self.lists[id.0]
    }

    /// Number of network filters loaded.
    pub fn filter_count(&self) -> usize {
        self.blocking.len() + self.exceptions.len() + self.document_exceptions.len()
    }

    /// The query-string literals used by any rule (see the URL normalizer).
    pub fn query_literals(&self) -> &[String] {
        &self.query_literals
    }

    /// Rebind the engine's metric handles to an explicit registry
    /// (hermetic tests; per-shard registries).
    pub fn bind_metrics(&mut self, registry: &obs::Registry) {
        self.metrics = EngineMetrics::bind(registry);
    }

    /// Classify a request. See [`Classification`] for the verdict structure.
    ///
    /// Convenience form of [`Engine::classify_in`] that pays a fresh
    /// scratch per call; loops should hold a [`ClassifyScratch`] and call
    /// `classify_in` directly.
    pub fn classify(&self, req: &Request<'_>) -> Classification {
        self.classify_in(req, &mut ClassifyScratch::new())
    }

    /// Classify a request using caller-provided scratch buffers. The
    /// verdict is identical to [`Engine::classify`]; the scratch only
    /// removes per-call allocations.
    pub fn classify_in(&self, req: &Request<'_>, scratch: &mut ClassifyScratch) -> Classification {
        write_lower_url(req.url, &mut scratch.url_buf);
        let url_string = scratch.url_buf.as_str();
        let (hs, he) = host_span(url_string);
        url_tokens_into(url_string, &mut scratch.tokens);
        let tokens = scratch.tokens.as_slice();
        let page_host = req.source_url.map(|u| u.host());
        let third_party = page_host
            .map(|ph| is_third_party(req.url.host(), ph))
            .unwrap_or(false);

        // Local tallies, flushed as one atomic add per metric at the end.
        let mut rules_evaluated = 0u64;
        let mut first_match_depth: Option<u64> = None;

        let mut applies = |e: &Entry| -> bool {
            rules_evaluated += 1;
            let o = &e.filter.options;
            o.applies_to_type(req.category)
                && o.applies_on_domain(page_host)
                && o.applies_to_party(third_party)
                && matches(&e.filter.pattern, url_string, hs, he)
        };

        // Blocking: record at most one match per list, in list order.
        // Every blocking candidate is visited, so token-index hits are
        // the visited count minus the always-appended untokenized tail.
        let mut blocking: Vec<FilterRef> = Vec::new();
        let mut blocking_candidates = 0u64;
        for e in self.blocking.candidates(tokens) {
            blocking_candidates += 1;
            if blocking.iter().any(|f| f.list == e.list) {
                continue;
            }
            if applies(e) {
                if first_match_depth.is_none() {
                    first_match_depth = Some(blocking_candidates - 1);
                }
                blocking.push(FilterRef {
                    list: e.list,
                    filter: Arc::clone(&e.filter.raw),
                });
            }
        }
        blocking.sort_by_key(|f| f.list);
        let tokenizer_hits =
            blocking_candidates.saturating_sub(self.blocking.untokenized_len() as u64);

        // Exceptions against the request URL.
        let mut exception = None;
        for e in self.exceptions.candidates(tokens) {
            if applies(e) {
                exception = Some(FilterRef {
                    list: e.list,
                    filter: Arc::clone(&e.filter.raw),
                });
                break;
            }
        }

        // `$document` exceptions against the page URL (and, for document
        // requests, against the request itself): the first match in load
        // order.
        let mut page_whitelisted = false;
        if exception.is_none() {
            let doc_target: Option<&Url> = match req.category {
                ContentCategory::Document => Some(req.url),
                _ => req.source_url,
            };
            if let Some(page) = doc_target {
                write_lower_url(page, &mut scratch.page_buf);
                let page_string = scratch.page_buf.as_str();
                let (phs, phe) = host_span(page_string);
                let hit = self
                    .document_exceptions
                    .iter()
                    .find(|e| matches(&e.filter.pattern, page_string, phs, phe));
                if let Some(e) = hit {
                    exception = Some(FilterRef {
                        list: e.list,
                        filter: Arc::clone(&e.filter.raw),
                    });
                    page_whitelisted = req.category != ContentCategory::Document;
                }
            }
        }

        self.metrics.requests.inc();
        self.metrics.rules_evaluated.add(rules_evaluated);
        self.metrics.tokenizer_hits.add(tokenizer_hits);
        if let Some(depth) = first_match_depth {
            self.metrics.first_match_depth.record(depth);
        }
        if exception.is_some() && !blocking.is_empty() {
            self.metrics.whitelist_overrides.inc();
        }

        Classification {
            blocking,
            exception,
            page_whitelisted,
            first_match_depth: first_match_depth.map(|d| d.min(u64::from(u32::MAX)) as u32),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::subscription::FilterList;

    fn engine_with(lists: &[(&str, &str)]) -> (Engine, Vec<ListId>) {
        let mut e = Engine::new();
        let ids = lists
            .iter()
            .map(|(name, text)| e.add_list(FilterList::parse(name, text)))
            .collect();
        (e, ids)
    }

    fn classify(e: &Engine, url: &str, page: Option<&str>, cat: ContentCategory) -> Classification {
        let u = Url::parse(url).unwrap();
        let p = page.map(|p| Url::parse(p).unwrap());
        e.classify(&Request {
            url: &u,
            source_url: p.as_ref(),
            category: cat,
        })
    }

    #[test]
    fn basic_block() {
        let (e, ids) = engine_with(&[("easylist", "||ads.example^\n")]);
        let c = classify(
            &e,
            "http://ads.example/banner.gif",
            Some("http://pub.com/"),
            ContentCategory::Image,
        );
        assert!(c.would_block());
        assert!(c.is_ad());
        assert_eq!(c.blocking[0].list, ids[0]);
    }

    #[test]
    fn first_match_depth_reported() {
        let (e, _) = engine_with(&[("easylist", "||ads.example^\n")]);
        let hit = classify(
            &e,
            "http://ads.example/banner.gif",
            Some("http://pub.com/"),
            ContentCategory::Image,
        );
        assert_eq!(hit.first_match_depth, Some(0), "first candidate matched");
        let miss = classify(
            &e,
            "http://cdn.example.net/logo.png",
            Some("http://pub.com/"),
            ContentCategory::Image,
        );
        assert_eq!(miss.first_match_depth, None, "no blocking match, no depth");
    }

    #[test]
    fn no_match() {
        let (e, _) = engine_with(&[("easylist", "||ads.example^\n")]);
        let c = classify(
            &e,
            "http://cdn.example.net/logo.png",
            Some("http://pub.com/"),
            ContentCategory::Image,
        );
        assert!(!c.is_ad());
        assert!(!c.would_block());
    }

    #[test]
    fn exception_overrides_block() {
        let (e, ids) = engine_with(&[
            ("easylist", "||ads.example^\n"),
            ("acceptable-ads", "@@||ads.example/nice/\n"),
        ]);
        let c = classify(
            &e,
            "http://ads.example/nice/banner.gif",
            Some("http://pub.com/"),
            ContentCategory::Image,
        );
        assert!(!c.would_block());
        assert!(c.is_ad());
        assert!(c.whitelisted_overriding_block());
        assert_eq!(c.exception.as_ref().unwrap().list, ids[1]);
        assert!(c.blocked_by_list(ids[0]));
    }

    #[test]
    fn whitelist_without_blacklist_hit() {
        // §7.3: only 57.3% of whitelisted requests would have been
        // blacklisted — the rest match no blocking rule at all.
        let (e, _) = engine_with(&[
            ("easylist", "||ads.example^\n"),
            ("acceptable-ads", "@@||fonts.gstatic.example^\n"),
        ]);
        let c = classify(
            &e,
            "http://fonts.gstatic.example/font.woff2",
            Some("http://pub.com/"),
            ContentCategory::Font,
        );
        assert!(c.is_ad());
        assert!(!c.would_block());
        assert!(!c.whitelisted_overriding_block());
    }

    #[test]
    fn document_exception_whitelists_page_requests() {
        let (e, _) = engine_with(&[
            ("easylist", "/adframe.\n"),
            ("acceptable-ads", "@@||gstatic.example^$document\n"),
        ]);
        // Request inside a whitelisted page: blocked rule matches but page
        // whitelist wins.
        let c = classify(
            &e,
            "http://third.party/adframe.js",
            Some("http://sub.gstatic.example/page"),
            ContentCategory::Script,
        );
        assert!(!c.would_block());
        assert!(c.page_whitelisted);
        // The same request from an ordinary page is blocked.
        let c2 = classify(
            &e,
            "http://third.party/adframe.js",
            Some("http://ordinary.com/"),
            ContentCategory::Script,
        );
        assert!(c2.would_block());
    }

    #[test]
    fn document_exception_on_document_request() {
        let (e, _) = engine_with(&[
            ("easylist", "||gstatic.example^\n"),
            ("acceptable-ads", "@@||gstatic.example^$document\n"),
        ]);
        let c = classify(
            &e,
            "http://gstatic.example/page.html",
            None,
            ContentCategory::Document,
        );
        assert!(!c.would_block());
        assert!(c.exception.is_some());
        assert!(!c.page_whitelisted);
    }

    #[test]
    fn document_exception_with_path_tail() {
        // A `$document` rule whose literal runs into the path is keyed by
        // its host part; the path tail is still enforced by the matcher.
        let (e, _) = engine_with(&[
            ("easylist", "/adframe.\n"),
            ("acceptable-ads", "@@||portal.example/news/$document\n"),
        ]);
        let on_news = classify(
            &e,
            "http://third.party/adframe.js",
            Some("http://www.portal.example/news/today"),
            ContentCategory::Script,
        );
        assert!(on_news.page_whitelisted);
        let on_shop = classify(
            &e,
            "http://third.party/adframe.js",
            Some("http://www.portal.example/shop/"),
            ContentCategory::Script,
        );
        assert!(!on_shop.page_whitelisted);
        assert!(on_shop.would_block());
    }

    #[test]
    fn document_exception_prefix_shape_uses_fallback() {
        // `||adserv` (no terminator) matches host *prefixes* and cannot be
        // host-keyed; the fallback path must still find it.
        let (e, _) = engine_with(&[
            ("easylist", "/adframe.\n"),
            ("acceptable-ads", "@@||adserv$document\n"),
        ]);
        let c = classify(
            &e,
            "http://third.party/adframe.js",
            Some("http://adserver-portal.example/"),
            ContentCategory::Script,
        );
        assert!(
            c.page_whitelisted,
            "prefix-shaped rule must match via fallback"
        );
    }

    #[test]
    fn document_exception_insertion_order_first_match() {
        // Both a fallback-shaped and a keyed rule match the page; the one
        // loaded first must win, exactly like the old linear scan.
        let (e, ids) = engine_with(&[
            (
                "acceptable-ads",
                "@@||wide$document\n@@||widepages.example^$document\n",
            ),
            ("other-exceptions", "@@||widepages.example/x$document\n"),
        ]);
        let c = classify(
            &e,
            "http://third.party/x.js",
            Some("http://widepages.example/x"),
            ContentCategory::Script,
        );
        let ex = c.exception.expect("a document exception must match");
        assert_eq!(ex.list, ids[0]);
        assert_eq!(&*ex.filter, "@@||wide$document");
    }

    #[test]
    fn per_list_attribution() {
        let (e, ids) = engine_with(&[
            ("easylist", "/banner/\n"),
            ("easyprivacy", "/track/\n/banner/\n"),
        ]);
        // URL matching rules in both lists: one FilterRef per list, primary
        // attribution goes to the first loaded list (EasyList).
        let c = classify(
            &e,
            "http://x.com/banner/img.gif",
            Some("http://pub.com/"),
            ContentCategory::Image,
        );
        assert_eq!(c.blocking.len(), 2);
        assert_eq!(c.blocking[0].list, ids[0]);
        // Tracker URL only matches EasyPrivacy.
        let c2 = classify(
            &e,
            "http://x.com/track/pixel.gif",
            Some("http://pub.com/"),
            ContentCategory::Image,
        );
        assert_eq!(c2.blocking[0].list, ids[1]);
    }

    #[test]
    fn both_lists_match_distinct_rules() {
        let (e, ids) = engine_with(&[("easylist", "/ads/\n"), ("easyprivacy", "/adspixel\n")]);
        let c = classify(
            &e,
            "http://x.com/ads/adspixel.gif",
            Some("http://pub.com/"),
            ContentCategory::Image,
        );
        assert!(c.blocked_by_list(ids[0]));
        assert!(c.blocked_by_list(ids[1]));
        assert_eq!(c.blocking.len(), 2);
        assert_eq!(c.blocking[0].list, ids[0]);
    }

    #[test]
    fn type_option_respected() {
        let (e, _) = engine_with(&[("easylist", "||ads.example^$script\n")]);
        let script = classify(
            &e,
            "http://ads.example/x.js",
            Some("http://pub.com/"),
            ContentCategory::Script,
        );
        assert!(script.would_block());
        let image = classify(
            &e,
            "http://ads.example/x.gif",
            Some("http://pub.com/"),
            ContentCategory::Image,
        );
        assert!(!image.would_block());
    }

    #[test]
    fn third_party_option_respected() {
        let (e, _) = engine_with(&[("easylist", "||widgets.example^$third-party\n")]);
        let third = classify(
            &e,
            "http://widgets.example/w.js",
            Some("http://pub.com/"),
            ContentCategory::Script,
        );
        assert!(third.would_block());
        let first = classify(
            &e,
            "http://widgets.example/w.js",
            Some("http://www.widgets.example/"),
            ContentCategory::Script,
        );
        assert!(!first.would_block());
    }

    #[test]
    fn domain_option_respected() {
        let (e, _) = engine_with(&[("easylist", "/sponsor^$domain=news.example\n")]);
        let on_news = classify(
            &e,
            "http://cdn.example/sponsor/x.png",
            Some("http://news.example/"),
            ContentCategory::Image,
        );
        assert!(on_news.would_block());
        let elsewhere = classify(
            &e,
            "http://cdn.example/sponsor/x.png",
            Some("http://blog.example/"),
            ContentCategory::Image,
        );
        assert!(!elsewhere.would_block());
        // No page context: domain-restricted rules cannot apply.
        let no_ctx = classify(
            &e,
            "http://cdn.example/sponsor/x.png",
            None,
            ContentCategory::Image,
        );
        assert!(!no_ctx.would_block());
    }

    #[test]
    fn untokenized_filters_still_checked() {
        // A pattern with no >=3 char alnum run cannot be token indexed.
        let (e, _) = engine_with(&[("easylist", "/a^\n")]);
        let c = classify(
            &e,
            "http://x.com/a/",
            Some("http://pub.com/"),
            ContentCategory::Image,
        );
        assert!(c.would_block());
    }

    #[test]
    fn query_literals_exported() {
        let (e, _) = engine_with(&[("easylist", "@@*jsp?callback=aslHandleAds*\n/track?id=*\n")]);
        let lits = e.query_literals();
        assert!(lits.iter().any(|l| l.contains("callback=aslhandleads")));
        assert!(lits.iter().any(|l| l.contains("track?id=")));
    }

    #[test]
    fn classify_in_reuses_scratch() {
        let (e, _) = engine_with(&[("easylist", "||ads.example^\n")]);
        let mut scratch = ClassifyScratch::new();
        let u1 = Url::parse("http://ads.example/banner.gif").unwrap();
        let u2 = Url::parse("http://cdn.example.net/logo.png").unwrap();
        let page = Url::parse("http://pub.com/").unwrap();
        for _ in 0..3 {
            let hit = e.classify_in(
                &Request {
                    url: &u1,
                    source_url: Some(&page),
                    category: ContentCategory::Image,
                },
                &mut scratch,
            );
            assert!(hit.would_block());
            let miss = e.classify_in(
                &Request {
                    url: &u2,
                    source_url: Some(&page),
                    category: ContentCategory::Image,
                },
                &mut scratch,
            );
            assert!(!miss.is_ad());
        }
    }

    #[test]
    fn filter_count_and_names() {
        let (e, ids) = engine_with(&[
            ("easylist", "||a.com^\n@@||b.com^\n"),
            ("easyprivacy", "||t.com^\n"),
        ]);
        assert_eq!(e.filter_count(), 3);
        assert_eq!(e.list_name(ids[0]), "easylist");
        assert_eq!(
            e.list_names(),
            &["easylist".to_string(), "easyprivacy".to_string()]
        );
    }
}
