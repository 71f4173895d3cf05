//! Verdict provenance: the per-request decision trace.
//!
//! Aggregate counters say *how many* requests were classified as ads;
//! they cannot say *why this one* was. This module records, for each
//! request, every input the decision procedure consumed: the matched
//! rule text and its source list, the engine's first-match depth, the
//! referrer-chain hops behind the page context, the content-type
//! inference path (extension vs. header vs. redirect propagation), and
//! the normalization rewrites that fired — the same provenance
//! graph-based successors (AdGraph, WebGraph) keep per request.
//!
//! Determinism contract: a request's [`VerdictProvenance`] — trace id,
//! span ids, every field, the rendered NDJSON bytes — is a pure function
//! of the input trace and pipeline options. The one-thread oracle's
//! [`crate::pipeline::explain_trace`] returns one record per request in
//! [`ClassifiedTrace::provenance`], in record order (pinned by
//! `proptest_pipeline.rs`); `experiments explain` writes their `to_json`
//! lines as its NDJSON artifact.
//!
//! [`ClassifiedTrace::provenance`]: crate::pipeline::ClassifiedTrace::provenance
//!
//! Cost contract: [`crate::pipeline::classify_trace`] builds no provenance
//! and keeps no per-record stage facts; only `explain_trace` pays for them.

use crate::classify::PassiveClassifier;
use crate::content::ContentSource;
use crate::extract::WebObject;
use crate::refmap::PageSource;
use abp_filter::{Classification, FilterRef};
use http_model::ContentCategory;
use obs::trace::{SampleCause, SpanId, TraceId};
use std::fmt::Write as _;

/// Per-record stage facts kept while explaining. All `Copy`, collected
/// from stages that compute them anyway — only the containing `Vec` costs
/// anything, and the pipeline skips even that when not explaining.
#[derive(Debug, Clone, Copy)]
pub struct RecordMeta {
    /// Which referrer-map signal produced the page context.
    pub page_source: PageSource,
    /// Referrer-chain hops between the request and its page root.
    pub hops: u16,
    /// Page context came from redirect repair.
    pub via_redirect: bool,
    /// Which signal decided the content category.
    pub content_source: ContentSource,
}

/// One matched rule with its list attribution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuleMatch {
    /// Conceptual list kind (`EasyList`, `EasyPrivacy`, `Non-intrusive`,
    /// `EasyList-derivative`).
    pub kind: &'static str,
    /// The engine's list name as loaded.
    pub list: String,
    /// The raw filter line that matched.
    pub rule: String,
}

/// The causal stage spans of one request trace, parent → child. The
/// request root span covers the whole decision; each stage span is its
/// child. Ids are derived from the trace id and stage name, never drawn,
/// so the structure is identical on every run.
pub(crate) const STAGES: [&str; 5] = ["extract", "refmap", "content", "normalize", "classify"];

/// The root ("request") span of a trace.
pub(crate) fn root_span(trace: TraceId) -> SpanId {
    SpanId::derive(trace, "request")
}

/// The per-request verdict provenance record.
#[derive(Debug, Clone, PartialEq)]
pub struct VerdictProvenance {
    /// Deterministic trace identity (seed ⊕ record index).
    pub trace_id: TraceId,
    /// Global record index in the input trace (extraction `idx`).
    pub record: u64,
    /// The verdict's exceptional cause, if any (`head` otherwise).
    pub cause: SampleCause,
    /// Seconds since trace start.
    pub ts: f64,
    /// Anonymized client address.
    pub client_ip: u32,
    /// The raw request URL as captured.
    pub url: String,
    /// The URL after normalization (what the engine matched).
    pub normalized_url: String,
    /// Query keys the normalizer rewrote to the placeholder.
    pub rewrites: Vec<String>,
    /// The inferred page root, if reconstruction succeeded.
    pub page: Option<String>,
    /// Which referrer-map signal produced the page context.
    pub page_source: PageSource,
    /// Referrer-chain hops to the page root.
    pub hops: u16,
    /// Page context came from redirect repair.
    pub via_redirect: bool,
    /// The inferred content category.
    pub category: ContentCategory,
    /// Which signal decided the category.
    pub content_source: ContentSource,
    /// Blocking rule matches, at most one per list, in list order.
    pub blocking: Vec<RuleMatch>,
    /// The exception (whitelist) match, if any.
    pub exception: Option<RuleMatch>,
    /// A `$document` exception whitelisted the whole page.
    pub page_whitelisted: bool,
    /// Blocking candidates visited before the first match.
    pub first_match_depth: Option<u32>,
}

impl VerdictProvenance {
    /// The requests's final verdict as a stable label.
    pub fn verdict(&self) -> &'static str {
        if self.exception.is_some() || self.page_whitelisted {
            "whitelisted"
        } else if !self.blocking.is_empty() {
            "blocked"
        } else {
            "clean"
        }
    }

    /// Render as one JSON object (no trailing newline). Field order is
    /// fixed and no wall-clock value appears, so the bytes are
    /// deterministic; every line round-trips through `netsim::json`
    /// (same escaping rules, enforced by CI's explain gate).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256);
        out.push_str("{\"event\":\"verdict_provenance\",\"trace_id\":\"");
        let _ = write!(out, "{}", self.trace_id.to_hex());
        out.push_str("\",\"span_id\":\"");
        let _ = write!(out, "{}", root_span(self.trace_id).to_hex());
        let _ = write!(out, "\",\"record\":{}", self.record);
        out.push_str(",\"cause\":");
        netsim::json::write_str(&mut out, self.cause.label());
        out.push_str(",\"verdict\":");
        netsim::json::write_str(&mut out, self.verdict());
        if self.ts.is_finite() {
            let _ = write!(out, ",\"ts\":{:?}", self.ts);
        } else {
            out.push_str(",\"ts\":null");
        }
        let _ = write!(out, ",\"client_ip\":{}", self.client_ip);
        out.push_str(",\"url\":");
        netsim::json::write_str(&mut out, &self.url);
        out.push_str(",\"normalized_url\":");
        netsim::json::write_str(&mut out, &self.normalized_url);
        out.push_str(",\"rewrites\":[");
        netsim::json::write_seq(&mut out, &self.rewrites, |out, key| {
            netsim::json::write_str(out, key)
        });
        out.push_str("],\"page\":");
        match &self.page {
            Some(p) => netsim::json::write_str(&mut out, p),
            None => out.push_str("null"),
        }
        out.push_str(",\"page_source\":");
        netsim::json::write_str(&mut out, self.page_source.label());
        let _ = write!(
            out,
            ",\"hops\":{},\"via_redirect\":{}",
            self.hops, self.via_redirect
        );
        out.push_str(",\"category\":");
        netsim::json::write_str(&mut out, self.category.keyword());
        out.push_str(",\"content_source\":");
        netsim::json::write_str(&mut out, self.content_source.label());
        out.push_str(",\"blocking\":[");
        netsim::json::write_seq(&mut out, &self.blocking, write_rule);
        out.push_str("],\"exception\":");
        match &self.exception {
            Some(m) => write_rule(&mut out, m),
            None => out.push_str("null"),
        }
        let _ = write!(out, ",\"page_whitelisted\":{}", self.page_whitelisted);
        out.push_str(",\"first_match_depth\":");
        match self.first_match_depth {
            Some(d) => {
                let _ = write!(out, "{d}");
            }
            None => out.push_str("null"),
        }
        out.push_str(",\"spans\":[");
        let parent = root_span(self.trace_id).to_hex();
        netsim::json::write_seq(&mut out, STAGES, |out, stage| {
            let _ = write!(
                out,
                "{{\"stage\":\"{stage}\",\"span_id\":\"{}\",\"parent_id\":\"{parent}\"}}",
                SpanId::derive(self.trace_id, stage).to_hex()
            );
        });
        out.push_str("]}");
        out
    }

    /// Render the decision tree as indented text — the `experiments
    /// explain` output. Deterministic: ids, not durations.
    pub fn render_tree(&self) -> String {
        let mut out = String::with_capacity(512);
        let _ = writeln!(out, "verdict provenance — {}", self.url);
        let _ = writeln!(
            out,
            "trace {}   cause: {}   verdict: {}",
            self.trace_id.to_hex(),
            self.cause.label(),
            self.verdict()
        );
        let _ = writeln!(out, "└─ request  {}", root_span(self.trace_id).to_hex());
        let span = |stage: &str| SpanId::derive(self.trace_id, stage).to_hex();
        let _ = writeln!(
            out,
            "   ├─ extract    {}  record #{}  client {}  ts {:.3}s",
            span("extract"),
            self.record,
            self.client_ip,
            self.ts
        );
        match &self.page {
            Some(p) => {
                let _ = writeln!(
                    out,
                    "   ├─ refmap     {}  page {}  ({}, {} hop{}{})",
                    span("refmap"),
                    p,
                    self.page_source.label(),
                    self.hops,
                    if self.hops == 1 { "" } else { "s" },
                    if self.via_redirect {
                        ", via redirect"
                    } else {
                        ""
                    }
                );
            }
            None => {
                let _ = writeln!(out, "   ├─ refmap     {}  no page context", span("refmap"));
            }
        }
        let _ = writeln!(
            out,
            "   ├─ content    {}  category {}  (source: {})",
            span("content"),
            self.category.keyword(),
            self.content_source.label()
        );
        let _ = writeln!(
            out,
            "   ├─ normalize  {}  rewrites: {}",
            span("normalize"),
            if self.rewrites.is_empty() {
                "none".to_string()
            } else {
                self.rewrites.join(", ")
            }
        );
        let _ = writeln!(
            out,
            "   └─ classify   {}  first-match depth {}",
            span("classify"),
            match self.first_match_depth {
                Some(d) => d.to_string(),
                None => "-".to_string(),
            }
        );
        for m in &self.blocking {
            let _ = writeln!(
                out,
                "      ├─ blocking   {}  [{}]  {}",
                m.kind, m.list, m.rule
            );
        }
        match &self.exception {
            Some(m) => {
                let _ = writeln!(
                    out,
                    "      └─ exception  {}  [{}]  {}{}",
                    m.kind,
                    m.list,
                    m.rule,
                    if self.page_whitelisted {
                        "  (page whitelisted)"
                    } else {
                        ""
                    }
                );
            }
            None => {
                let _ = writeln!(out, "      └─ exception  none");
            }
        }
        out
    }
}

fn write_rule(out: &mut String, m: &RuleMatch) {
    out.push_str("{\"kind\":");
    netsim::json::write_str(out, m.kind);
    out.push_str(",\"list\":");
    netsim::json::write_str(out, &m.list);
    out.push_str(",\"rule\":");
    netsim::json::write_str(out, &m.rule);
    out.push('}');
}

/// The cause of one verdict. Pure in (classification, page presence).
/// Precedence: anomalous > whitelisted > degraded > head.
fn cause(c: &Classification, page_missing: bool) -> SampleCause {
    if c.whitelisted_overriding_block() {
        SampleCause::Anomalous
    } else if c.exception.is_some() || c.page_whitelisted {
        SampleCause::Whitelisted
    } else if c.is_ad() && page_missing {
        SampleCause::Degraded
    } else {
        SampleCause::Head
    }
}

/// Materialize the provenance record of one request, its trace id derived
/// from `seed` (`obs::trace::seed_from_name` of the input trace). This is
/// the expensive path (rule text clones, a second normalization pass for
/// the rewrite keys), which only `explain_trace` runs.
pub fn build(
    seed: u64,
    obj: &WebObject,
    classifier: &PassiveClassifier,
    page: Option<&http_model::Url>,
    meta: RecordMeta,
    category: ContentCategory,
    c: &Classification,
) -> VerdictProvenance {
    let (normalized, rewrites) = classifier.normalizer().normalize_explain(&obj.url);
    let rule = |f: &FilterRef| RuleMatch {
        kind: classifier.kind_of(f.list).label(),
        list: classifier.list_name(f.list).to_string(),
        rule: f.filter.to_string(),
    };
    VerdictProvenance {
        trace_id: TraceId::derive(seed, obj.idx as u64),
        record: obj.idx as u64,
        cause: cause(c, page.is_none()),
        ts: obj.ts,
        client_ip: obj.client_ip,
        url: obj.url.as_string(),
        normalized_url: normalized.as_string(),
        rewrites,
        page: page.map(|p| p.as_string()),
        page_source: meta.page_source,
        hops: meta.hops,
        via_redirect: meta.via_redirect,
        category,
        content_source: meta.content_source,
        blocking: c.blocking.iter().map(rule).collect(),
        exception: c.exception.as_ref().map(rule),
        page_whitelisted: c.page_whitelisted,
        first_match_depth: c.first_match_depth,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_record() -> VerdictProvenance {
        VerdictProvenance {
            trace_id: TraceId::derive(0xA, 3),
            record: 3,
            cause: SampleCause::Anomalous,
            ts: 0.5,
            client_ip: 9,
            url: "http://niceads.example/banner.gif".into(),
            normalized_url: "http://niceads.example/banner.gif".into(),
            rewrites: vec!["cb".into()],
            page: Some("http://pub.example/".into()),
            page_source: PageSource::RefererChain,
            hops: 1,
            via_redirect: false,
            category: ContentCategory::Image,
            content_source: ContentSource::Extension,
            blocking: vec![RuleMatch {
                kind: "EasyList",
                list: "easylist".into(),
                rule: "||niceads.example^".into(),
            }],
            exception: Some(RuleMatch {
                kind: "Non-intrusive",
                list: "acceptable-ads".into(),
                rule: "@@||niceads.example^".into(),
            }),
            page_whitelisted: false,
            first_match_depth: Some(0),
        }
    }

    #[test]
    fn json_round_trips_through_netsim_json() {
        let json = sample_record().to_json();
        let value = netsim::json::parse(&json).expect("valid JSON");
        let get = |k: &str| value.get(k).expect(k);
        assert_eq!(get("event").as_str(), Some("verdict_provenance"));
        assert_eq!(get("cause").as_str(), Some("anomalous"));
        assert_eq!(get("verdict").as_str(), Some("whitelisted"));
        assert_eq!(get("hops").as_f64(), Some(1.0));
        assert_eq!(get("trace_id").as_str().map(str::len), Some(32));
        assert_eq!(get("span_id").as_str().map(str::len), Some(16));
    }

    #[test]
    fn verdict_labels() {
        let mut vp = sample_record();
        assert_eq!(vp.verdict(), "whitelisted");
        vp.exception = None;
        assert_eq!(vp.verdict(), "blocked");
        vp.blocking.clear();
        assert_eq!(vp.verdict(), "clean");
    }

    #[test]
    fn spans_are_children_of_the_request_root() {
        let vp = sample_record();
        let json = vp.to_json();
        let root = root_span(vp.trace_id).to_hex();
        assert_eq!(
            json.matches(&format!("\"parent_id\":\"{root}\"")).count(),
            STAGES.len(),
            "every stage span names the root as parent"
        );
    }

    #[test]
    fn tree_names_rule_and_sources() {
        let tree = sample_record().render_tree();
        assert!(tree.contains("||niceads.example^"));
        assert!(tree.contains("referer_chain"));
        assert!(tree.contains("extension"));
        assert!(tree.contains("Non-intrusive"));
    }
}
