//! An Adblock Plus filter engine — the `libadblockplus` stand-in.
//!
//! The paper's methodology (§3.1) classifies every HTTP request in a header
//! trace by asking the Adblock Plus core: *given this URL, requested from
//! this page, with this content type — does any filter rule match, from
//! which list, and is it whitelisted?* This crate implements that decision
//! procedure from scratch:
//!
//! * [`parser`] parses the EasyList filter syntax: blocking rules, `@@`
//!   exception rules, `||` host anchors, `|` boundary anchors, `*`
//!   wildcards, `^` separators, `$` options (content types, `domain=`,
//!   `third-party`, `match-case`, `document`), `##`/`#@#` element-hiding
//!   rules and `!` comments.
//! * [`matcher`] evaluates a parsed pattern against a URL string.
//! * [`tokenizer`] + [`compiled`] implement the token-indexed, arena-backed
//!   matcher every production path classifies and blocks through, so that
//!   classifying a request inspects only a handful of candidate filters
//!   instead of the whole list — the property that makes trace-scale
//!   classification feasible (and which the `bench` crate ablates).
//! * [`engine`] holds the reference [`Engine`]: the oracle the differential
//!   suites hold [`CompiledEngine`] to, byte for byte.
//! * [`hiding`] resolves the `##` / `#@#` element-hiding rules active on a
//!   page host.
//! * [`subscription`] models filter-list metadata and the soft-expiry update
//!   schedule (EasyList 4 days, EasyPrivacy 1 day) that produces the
//!   *EasyList download* indicator of §3.2.
//!
//! # Example
//!
//! ```
//! use abp_filter::hiding::selectors_for;
//! use abp_filter::{ClassifyScratch, CompiledEngine, FilterList, ListId, Request};
//! use http_model::{ContentCategory, Url};
//!
//! let easylist = FilterList::parse(
//!     "easylist",
//!     "&ad_box_\n||adserver.example^$third-party\n##.ad-banner\n",
//! );
//! let hiding = easylist.hiding.clone();
//! let engine = CompiledEngine::from_lists(vec![easylist]);
//!
//! let url = Url::parse("http://adserver.example/banner.gif").unwrap();
//! let page = Url::parse("http://news.example.com/").unwrap();
//! let verdict = engine.classify(
//!     &Request {
//!         url: &url,
//!         source_url: Some(&page),
//!         category: ContentCategory::Image,
//!     },
//!     &mut ClassifyScratch::new(),
//! );
//! assert!(verdict.would_block());
//! assert_eq!(verdict.primary_list(), Some(ListId(0)));
//! assert_eq!(selectors_for(&hiding, page.host()), vec![".ad-banner"]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compiled;
pub mod engine;
pub mod hiding;
pub mod matcher;
pub mod options;
pub mod parser;
pub mod rule;
pub mod subscription;
pub mod tokenizer;

pub use compiled::{CompileStats, CompiledEngine};
pub use engine::{
    Classification, ClassifyScratch, Engine, EngineMetrics, FilterRef, ListId, Request,
};
pub use hiding::HidingRule;
pub use options::{FilterOptions, PartyConstraint};
pub use parser::{parse_line, ParsedLine};
pub use rule::{Anchor, NetFilter, Pattern, Segment};
pub use subscription::{
    FilterList, SubscriptionState, EASYLIST_SOFT_EXPIRY_DAYS, EASYPRIVACY_SOFT_EXPIRY_DAYS,
};

/// This crate's version, recorded in run manifests.
pub const VERSION: &str = env!("CARGO_PKG_VERSION");
