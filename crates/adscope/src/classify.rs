//! Per-request ad classification: the libadblockplus invocation.

use crate::normalize::UrlNormalizer;
use abp_filter::{
    Classification, ClassifyScratch, CompiledEngine, Engine, FilterList, ListId, Request,
};
use http_model::{ContentCategory, Url};
use std::sync::{Arc, OnceLock};

/// Which conceptual list a verdict belongs to, independent of engine load
/// order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ListKind {
    /// Core EasyList.
    EasyList,
    /// A language derivative of EasyList.
    Regional,
    /// EasyPrivacy.
    EasyPrivacy,
    /// The acceptable-ads (non-intrusive ads) whitelist.
    Acceptable,
}

impl ListKind {
    /// All kinds in attribution order.
    pub const ALL: [ListKind; 4] = [
        ListKind::EasyList,
        ListKind::Regional,
        ListKind::EasyPrivacy,
        ListKind::Acceptable,
    ];

    /// Classify a list by its conventional name.
    pub(crate) fn from_name(name: &str) -> ListKind {
        if name.contains("privacy") {
            ListKind::EasyPrivacy
        } else if name.contains("acceptable") || name.contains("exception") {
            ListKind::Acceptable
        } else if name.contains('-') && name.contains("easylist") {
            ListKind::Regional
        } else {
            ListKind::EasyList
        }
    }

    /// Report label.
    pub fn label(self) -> &'static str {
        match self {
            ListKind::EasyList => "EasyList",
            ListKind::Regional => "EasyList-derivative",
            ListKind::EasyPrivacy => "EasyPrivacy",
            ListKind::Acceptable => "Non-intrusive",
        }
    }
}

/// Primary attribution of an ad request, following §7.1: EasyList (and its
/// derivatives) first, then EasyPrivacy, then whitelist-only hits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Attribution {
    /// Blacklisted by EasyList or a derivative.
    EasyList,
    /// Blacklisted (only) by EasyPrivacy.
    EasyPrivacy,
    /// Hit only the non-intrusive-ads whitelist.
    NonIntrusive,
}

/// The compact per-request verdict the pipeline stores.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct AdLabel {
    /// Blocking hits per list kind (bitfield over [`ListKind::ALL`] order).
    blocking_mask: u8,
    /// Exception hit, by list kind.
    exception: Option<ListKind>,
    /// `$document` page-level whitelisting applied.
    pub page_whitelisted: bool,
}

impl AdLabel {
    /// Build from an engine classification plus the engine's list-kind map.
    pub(crate) fn from_classification(c: &Classification, kinds: &[ListKind]) -> AdLabel {
        let mut mask = 0u8;
        for f in &c.blocking {
            let kind = kinds[f.list.0];
            let bit = ListKind::ALL.iter().position(|k| *k == kind).unwrap_or(0);
            mask |= 1 << bit;
        }
        AdLabel {
            blocking_mask: mask,
            exception: c.exception.as_ref().map(|f| kinds[f.list.0]),
            page_whitelisted: c.page_whitelisted,
        }
    }

    /// Did a blocking rule of this kind match?
    pub fn blocked_by(&self, kind: ListKind) -> bool {
        let bit = ListKind::ALL.iter().position(|k| *k == kind).unwrap_or(0);
        self.blocking_mask & (1 << bit) != 0
    }

    /// Any blocking hit at all?
    pub(crate) fn any_block(&self) -> bool {
        self.blocking_mask != 0
    }

    /// The exception hit, if any.
    pub fn exception(&self) -> Option<ListKind> {
        self.exception
    }

    /// The paper's "ad request" definition: blacklisted by any list or
    /// whitelisted by the non-intrusive list.
    pub fn is_ad(&self) -> bool {
        self.any_block() || self.exception.is_some()
    }

    /// Would a default Adblock Plus installation (EasyList + acceptable
    /// ads) have blocked this request?
    pub fn default_install_blocks(&self) -> bool {
        (self.blocked_by(ListKind::EasyList) || self.blocked_by(ListKind::Regional))
            && self.exception.is_none()
            && !self.page_whitelisted
    }

    /// Like [`Self::default_install_blocks`] but counting *core EasyList
    /// only* — §6.2's ratio indicator explicitly restricts itself to the
    /// list installed by default, excluding language derivatives.
    pub(crate) fn easylist_only_blocks(&self) -> bool {
        self.blocked_by(ListKind::EasyList) && self.exception.is_none() && !self.page_whitelisted
    }

    /// Primary attribution (§7.1): EasyList & derivatives > EasyPrivacy >
    /// non-intrusive. `None` for non-ad requests.
    pub fn attribution(&self) -> Option<Attribution> {
        if self.blocked_by(ListKind::EasyList) || self.blocked_by(ListKind::Regional) {
            Some(Attribution::EasyList)
        } else if self.blocked_by(ListKind::EasyPrivacy) {
            Some(Attribution::EasyPrivacy)
        } else if self.exception.is_some() {
            Some(Attribution::NonIntrusive)
        } else {
            None
        }
    }
}

/// The passive classifier: an engine plus the list-kind map, wrapping the
/// `(url, page, type)` invocation of §3.1.
pub struct PassiveClassifier {
    /// The engine [`Self::new`] classifies through (`None` under
    /// [`Self::reference`]).
    compiled: Option<CompiledEngine>,
    /// The reference engine: built by [`Self::reference`], else parsed
    /// again from `rules` the first time [`Self::engine`] asks for it.
    reference: OnceLock<Engine>,
    /// Under [`Self::new`], each list's network-rule texts in load order
    /// (blocking, then exceptions): the compiled engine's own handles.
    rules: Vec<Vec<Arc<str>>>,
    names: Vec<String>,
    kinds: Vec<ListKind>,
    /// The lists' query literals in load order: what the URL normalizer
    /// must not rewrite.
    query_literals: Vec<String>,
    /// The normalizer over `query_literals`, built once for every run
    /// through this classifier.
    normalizer: UrlNormalizer,
}

impl PassiveClassifier {
    /// Build from filter lists (load order defines primary attribution for
    /// multi-list hits; pass EasyList first like the paper). Classifies
    /// through the arena-compiled, fingerprint-prefiltered engine, lowered
    /// straight from the lists: no [`Engine`] is built. That engine is the
    /// one the global registry's `abp_*` series count and its compile
    /// gauges describe.
    pub fn new(lists: Vec<FilterList>) -> PassiveClassifier {
        // The compiled engine's own `Arc`s: the parser allocated the texts
        // in one run above the patterns that lowering frees, so sharing
        // them pins none of that heap (DESIGN.md §15).
        let rules: Vec<Vec<Arc<str>>> = lists
            .iter()
            .map(|l| l.network_rules().map(|f| Arc::clone(&f.raw)).collect())
            .collect();
        let described = PassiveClassifier::described(&lists);
        let mut compiled = CompiledEngine::from_lists(lists);
        compiled.bind_metrics(obs::global());
        PassiveClassifier {
            compiled: Some(compiled),
            rules,
            ..described
        }
    }

    /// The oracle: classifies through the original token-indexed `HashMap`
    /// [`Engine`]. Byte-identical [`Classification`]s, several times slower
    /// at EasyList scale; the differential suites compare [`Self::new`]
    /// against it, nothing else calls it.
    pub fn reference(lists: Vec<FilterList>) -> PassiveClassifier {
        let described = PassiveClassifier::described(&lists);
        let mut engine = Engine::new();
        for l in lists {
            engine.add_list(l);
        }
        PassiveClassifier {
            reference: OnceLock::from(engine),
            ..described
        }
    }

    /// The list names, kinds, query literals and normalizer of `lists`,
    /// with no engine.
    fn described(lists: &[FilterList]) -> PassiveClassifier {
        let names: Vec<String> = lists.iter().map(|l| l.name.clone()).collect();
        let query_literals: Vec<String> = lists
            .iter()
            .flat_map(FilterList::query_literals)
            .map(str::to_string)
            .collect();
        PassiveClassifier {
            compiled: None,
            reference: OnceLock::new(),
            rules: Vec::new(),
            kinds: names.iter().map(|n| ListKind::from_name(n)).collect(),
            names,
            normalizer: UrlNormalizer::from_literals(&query_literals),
            query_literals,
        }
    }

    /// The token-indexed reference [`Engine`] over the network rules (the
    /// e2e ledger and the tests read it; element-hiding rules are not
    /// kept). Under [`Self::new`] it is parsed again from the rule texts
    /// on first call, so only a caller that asks pays for it.
    pub fn engine(&self) -> &Engine {
        self.reference.get_or_init(|| {
            let mut engine = Engine::new();
            for (name, rules) in self.names.iter().zip(&self.rules) {
                engine.add_list(FilterList::parse(name, &rules.join("\n")));
            }
            engine
        })
    }

    /// The compiled engine (`None` only for [`Self::reference`]).
    pub fn compiled(&self) -> Option<&CompiledEngine> {
        self.compiled.as_ref()
    }

    /// The query literals of every network rule, in load order: what
    /// [`Self::normalizer`] protects.
    pub fn query_literals(&self) -> &[String] {
        &self.query_literals
    }

    /// The URL normalizer every classify path runs with:
    /// [`UrlNormalizer::from_literals`] over [`Self::query_literals`].
    pub fn normalizer(&self) -> &UrlNormalizer {
        &self.normalizer
    }

    /// Number of network rules loaded.
    pub fn rule_count(&self) -> usize {
        match &self.compiled {
            Some(compiled) => compiled.stats().rules,
            None => self.engine().filter_count(),
        }
    }

    /// Name of an engine list id.
    pub fn list_name(&self, id: ListId) -> &str {
        &self.names[id.0]
    }

    /// Kind of an engine list id.
    pub(crate) fn kind_of(&self, id: ListId) -> ListKind {
        self.kinds[id.0]
    }

    /// Classify one request (convenience wrapper allocating fresh scratch;
    /// hot paths use [`PassiveClassifier::classify_traced_in`]).
    pub fn classify(&self, url: &Url, page: Option<&Url>, category: ContentCategory) -> AdLabel {
        self.classify_traced_in(url, page, category, &mut ClassifyScratch::new())
            .0
    }

    /// Classify one request with caller-owned scratch (zero-alloc match
    /// path under the compiled engine), also returning the engine's full
    /// [`Classification`] (matched rule texts, first-match depth): the
    /// engine builds it either way, and the provenance layer keeps it for
    /// explained records.
    pub fn classify_traced_in(
        &self,
        url: &Url,
        page: Option<&Url>,
        category: ContentCategory,
        scratch: &mut ClassifyScratch,
    ) -> (AdLabel, Classification) {
        let req = Request {
            url,
            source_url: page,
            category,
        };
        let c = match &self.compiled {
            Some(compiled) => compiled.classify(&req, scratch),
            None => self.engine().classify_in(&req, scratch),
        };
        (AdLabel::from_classification(&c, &self.kinds), c)
    }

    /// The primary rule behind a classification: the first blocking
    /// filter in list order, else the exception that whitelisted the
    /// request. `Some` exactly when the label is an ad — this is what
    /// population analytics attributes a fired request to.
    pub fn primary_rule(&self, c: &Classification) -> Option<(ListKind, Arc<str>)> {
        c.blocking
            .first()
            .or(c.exception.as_ref())
            .map(|f| (self.kind_of(f.list), Arc::clone(&f.filter)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn classifier() -> PassiveClassifier {
        PassiveClassifier::new(vec![
            FilterList::parse("easylist", "||ads.example^\n/banners/\n"),
            FilterList::parse("easylist-regionalia", "/werbung/\n"),
            FilterList::parse("easyprivacy", "||tracker.example^\n/pixel/\n"),
            FilterList::parse("acceptable-ads", "@@||niceads.example^\n"),
        ])
    }

    fn url(s: &str) -> Url {
        Url::parse(s).unwrap()
    }

    #[test]
    fn list_kind_from_name() {
        assert_eq!(ListKind::from_name("easylist"), ListKind::EasyList);
        assert_eq!(
            ListKind::from_name("easylist-regionalia"),
            ListKind::Regional
        );
        assert_eq!(ListKind::from_name("easyprivacy"), ListKind::EasyPrivacy);
        assert_eq!(ListKind::from_name("acceptable-ads"), ListKind::Acceptable);
    }

    #[test]
    fn easylist_attribution() {
        let c = classifier();
        let page = url("http://pub.example/");
        let l = c.classify(
            &url("http://ads.example/b.gif"),
            Some(&page),
            ContentCategory::Image,
        );
        assert!(l.is_ad());
        assert!(l.blocked_by(ListKind::EasyList));
        assert!(!l.blocked_by(ListKind::EasyPrivacy));
        assert_eq!(l.attribution(), Some(Attribution::EasyList));
        assert!(l.default_install_blocks());
    }

    #[test]
    fn easyprivacy_attribution() {
        let c = classifier();
        let page = url("http://pub.example/");
        let l = c.classify(
            &url("http://tracker.example/pixel/p.gif"),
            Some(&page),
            ContentCategory::Image,
        );
        assert_eq!(l.attribution(), Some(Attribution::EasyPrivacy));
        assert!(
            !l.default_install_blocks(),
            "default install has no EasyPrivacy"
        );
    }

    #[test]
    fn regional_attribution_counts_as_easylist() {
        let c = classifier();
        let page = url("http://pub.example/");
        let l = c.classify(
            &url("http://pub.example/werbung/banner.gif"),
            Some(&page),
            ContentCategory::Image,
        );
        assert!(l.blocked_by(ListKind::Regional));
        assert_eq!(l.attribution(), Some(Attribution::EasyList));
    }

    #[test]
    fn whitelist_only_attribution() {
        let c = classifier();
        let page = url("http://pub.example/");
        let l = c.classify(
            &url("http://niceads.example/anything.js"),
            Some(&page),
            ContentCategory::Script,
        );
        assert!(l.is_ad());
        assert!(!l.any_block());
        assert_eq!(l.attribution(), Some(Attribution::NonIntrusive));
    }

    #[test]
    fn whitelist_overriding_block() {
        let c = PassiveClassifier::new(vec![
            FilterList::parse("easylist", "||niceads.example^\n"),
            FilterList::parse("acceptable-ads", "@@||niceads.example^\n"),
        ]);
        let page = url("http://pub.example/");
        let l = c.classify(
            &url("http://niceads.example/b.gif"),
            Some(&page),
            ContentCategory::Image,
        );
        assert!(l.exception.is_some() && l.any_block());
        assert!(!l.default_install_blocks());
        assert_eq!(l.attribution(), Some(Attribution::EasyList));
    }

    #[test]
    fn non_ad_request() {
        let c = classifier();
        let page = url("http://pub.example/");
        let l = c.classify(
            &url("http://cdn.example/logo.png"),
            Some(&page),
            ContentCategory::Image,
        );
        assert!(!l.is_ad());
        assert_eq!(l.attribution(), None);
        assert!(!l.default_install_blocks());
    }

    #[test]
    fn label_is_compact() {
        assert!(std::mem::size_of::<AdLabel>() <= 4);
    }
}
