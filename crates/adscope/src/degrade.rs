//! Degradation accounting for the classification pipeline.
//!
//! The paper's traces come from a live vantage point where broken input
//! is routine: URLs that do not reassemble, `Referer`s that do not parse,
//! redirect chains whose target never shows up, transactions with no
//! `Content-Type` at all. The pipeline's job is to *count* that
//! degradation, not crash on it — both so operators can judge how much
//! signal was lost (the spirit of §4.3's sensitivity analysis) and so
//! tests can reconcile what the fault injector put in with what the
//! pipeline reports coming out.
//!
//! [`DegradationReport`] is accumulated per stage by
//! `crate::extract::extract_with_report` and
//! [`crate::pipeline::classify_trace`], and carried on every
//! [`crate::pipeline::ClassifiedTrace`].

/// Per-stage counters of degraded input the pipeline absorbed.
///
/// Every counter is a "counted skip": the corresponding record was either
/// quarantined (dropped with accounting) or processed with a documented
/// fallback — never a panic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DegradationReport {
    /// Extraction: transactions whose request URL could not be
    /// reassembled (empty or unparseable Host + URI). These records are
    /// quarantined — excluded from classification but counted.
    pub unparseable_urls: usize,
    /// Extraction: a `Referer` header was present but did not parse; the
    /// request proceeds with no referer signal.
    pub unparseable_referers: usize,
    /// Extraction: a `Location` header was present on a redirect but did
    /// not parse; the redirect cannot be repaired.
    pub unparseable_locations: usize,
    /// Extraction: no `Content-Type` header on the response.
    pub missing_content_type: usize,
    /// Extraction: no `User-Agent` header, so NAT device-splitting
    /// degrades to per-IP granularity for this request.
    pub missing_user_agent: usize,
    /// Pipeline: category was still recovered for a request lacking a
    /// `Content-Type` header (via extension or redirect backfill) —
    /// the fallback worked.
    pub content_type_fallbacks: usize,
    /// Pipeline: requests for which no page context could be
    /// reconstructed (the referrer map came up empty).
    pub refmap_misses: usize,
    /// Pipeline: redirects whose `Location` target never appeared within
    /// the repair horizon — the chain stayed broken.
    pub broken_redirect_chains: usize,
    /// Pipeline: HTTP records arriving with a timestamp earlier than
    /// their predecessor (capture reordering / clock skew).
    pub out_of_order_records: usize,
    /// Streaming: records whose processing panicked and were quarantined
    /// to the poison sidecar instead of aborting the run. Always zero on
    /// the materialized path (a panic there propagates).
    pub poisoned_records: usize,
}

impl DegradationReport {
    /// Records excluded from classification entirely (the quarantine).
    pub fn quarantined(&self) -> usize {
        self.unparseable_urls + self.poisoned_records
    }

    /// Sum of all degradation events (fallbacks included).
    pub fn total(&self) -> usize {
        self.unparseable_urls
            + self.unparseable_referers
            + self.unparseable_locations
            + self.missing_content_type
            + self.missing_user_agent
            + self.content_type_fallbacks
            + self.refmap_misses
            + self.broken_redirect_chains
            + self.out_of_order_records
            + self.poisoned_records
    }

    /// The counters as `(reason, count)` pairs — the bridge into metric
    /// label space (`adscope_degradation_total{reason="..."}`). The
    /// reconciliation tests lean on this being *exhaustive*: every field
    /// appears exactly once, so `counts().sum == total()`.
    pub fn counts(&self) -> [(&'static str, usize); 10] {
        [
            ("unparseable_urls", self.unparseable_urls),
            ("unparseable_referers", self.unparseable_referers),
            ("unparseable_locations", self.unparseable_locations),
            ("missing_content_type", self.missing_content_type),
            ("missing_user_agent", self.missing_user_agent),
            ("content_type_fallbacks", self.content_type_fallbacks),
            ("refmap_misses", self.refmap_misses),
            ("broken_redirect_chains", self.broken_redirect_chains),
            ("out_of_order_records", self.out_of_order_records),
            ("poisoned_records", self.poisoned_records),
        ]
    }

    /// Merge another report into this one (e.g. across traces).
    pub(crate) fn absorb(&mut self, other: &DegradationReport) {
        self.unparseable_urls += other.unparseable_urls;
        self.unparseable_referers += other.unparseable_referers;
        self.unparseable_locations += other.unparseable_locations;
        self.missing_content_type += other.missing_content_type;
        self.missing_user_agent += other.missing_user_agent;
        self.content_type_fallbacks += other.content_type_fallbacks;
        self.refmap_misses += other.refmap_misses;
        self.broken_redirect_chains += other.broken_redirect_chains;
        self.out_of_order_records += other.out_of_order_records;
        self.poisoned_records += other.poisoned_records;
    }
}

impl std::fmt::Display for DegradationReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "quarantined {} (bad urls), bad referers {}, bad locations {}, \
             no content-type {} (fallback recovered {}), no user-agent {}, \
             refmap misses {}, broken redirects {}, out-of-order {}, poisoned {}",
            self.unparseable_urls,
            self.unparseable_referers,
            self.unparseable_locations,
            self.missing_content_type,
            self.content_type_fallbacks,
            self.missing_user_agent,
            self.refmap_misses,
            self.broken_redirect_chains,
            self.out_of_order_records,
            self.poisoned_records
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_and_merge() {
        let mut a = DegradationReport {
            unparseable_urls: 2,
            refmap_misses: 3,
            ..Default::default()
        };
        let b = DegradationReport {
            unparseable_urls: 1,
            broken_redirect_chains: 4,
            poisoned_records: 2,
            ..Default::default()
        };
        a.absorb(&b);
        assert_eq!(a.unparseable_urls, 3);
        assert_eq!(a.quarantined(), 5, "poisoned records are quarantined too");
        assert_eq!(a.total(), 3 + 3 + 4 + 2);
        assert_eq!(
            a.counts().iter().map(|(_, c)| c).sum::<usize>(),
            a.total(),
            "counts() must enumerate every field"
        );
        let s = a.to_string();
        assert!(s.contains("quarantined 3"));
        assert!(s.contains("broken redirects 4"));
    }
}
