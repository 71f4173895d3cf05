//! The end-to-end classification pipeline (Figure 1 of the paper).

use crate::classify::{AdLabel, ListKind, PassiveClassifier};
use crate::content::{infer_category_traced, ContentOptions, ContentSource};
use crate::degrade::DegradationReport;
use crate::extract::{extract, WebObject};
use crate::planes::Planes;
use crate::population::{PopulationOptions, PopulationSketches};
use crate::provenance::{RecordMeta, VerdictProvenance};
use crate::refmap::{RefMap, RefMapOptions};
use crate::window::WindowOptions;
use http_model::{ContentCategory, Url};
use netsim::record::{TlsConnection, Trace, TraceMeta};
use std::collections::HashMap;

/// What a run varies: the window width and the population plane. Every
/// §3.1 stage (redirect repair, embedded URLs, both content-type signals,
/// query normalization) always runs.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PipelineOptions {
    /// Empty; kept for the e2e harness, which passes it to `RefMap::new`.
    pub refmap: RefMapOptions,
    /// Empty; kept for the e2e harness, which passes it to
    /// `infer_category_traced`.
    pub content: ContentOptions,
    /// Windowed time-series aggregation (always on; see
    /// [`crate::window`]).
    pub window: WindowOptions,
    /// Population sketch analytics (off by default; see
    /// [`crate::population`]).
    pub population: PopulationOptions,
}

/// One classified request — the record every characterization consumes.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassifiedRequest {
    /// Seconds since trace start.
    pub ts: f64,
    /// Anonymized client address.
    pub client_ip: u32,
    /// Server address.
    pub server_ip: u32,
    /// The (normalized) request URL.
    pub url: Url,
    /// Inferred page root, when reconstruction succeeded.
    pub page: Option<Url>,
    /// Inferred content category.
    pub category: ContentCategory,
    /// Raw Content-Type header (for Table 4, which reports raw MIME
    /// types); interned at extraction, so this is a shared handle.
    pub content_type: Option<std::sync::Arc<str>>,
    /// Response body bytes.
    pub bytes: u64,
    /// User-Agent string; interned at extraction.
    pub user_agent: Option<std::sync::Arc<str>>,
    /// TCP handshake (ms).
    pub tcp_handshake_ms: f64,
    /// HTTP handshake (ms).
    pub http_handshake_ms: f64,
    /// The classification verdict.
    pub label: AdLabel,
    /// The primary rule behind the verdict: first blocking filter in
    /// list order, else the whitelisting exception. `Some` exactly when
    /// `label.is_ad()`. The filter text is a shared handle into the
    /// engine's rule table, so this costs one pointer per ad request.
    pub rule: Option<(ListKind, std::sync::Arc<str>)>,
}

impl ClassifiedRequest {
    /// The §8.2 back-office latency proxy.
    pub fn backend_gap_ms(&self) -> f64 {
        (self.http_handshake_ms - self.tcp_handshake_ms).max(0.0)
    }
}

/// A fully classified trace.
pub struct ClassifiedTrace {
    /// Trace metadata.
    pub meta: TraceMeta,
    /// Classified HTTP requests, time-ordered.
    pub requests: Vec<ClassifiedRequest>,
    /// Opaque HTTPS flows (for the EasyList-download indicator).
    pub https_flows: Vec<TlsConnection>,
    /// Transactions dropped during extraction.
    pub dropped: usize,
    /// Per-stage accounting of degraded input the pipeline absorbed.
    pub degradation: DegradationReport,
    /// Verdict provenance, one record per request in record order, from
    /// [`explain_trace`]; empty from [`classify_trace`].
    pub provenance: Vec<VerdictProvenance>,
    /// Windowed time series over the classified requests. A pure function
    /// of `requests` and the quarantined records' timestamps.
    pub windows: obs::window::WindowReport,
    /// Mergeable population sketches over the classified requests
    /// (`None` unless [`PipelineOptions::population`] is enabled). A pure
    /// function of `requests`.
    pub population: Option<PopulationSketches>,
}

impl ClassifiedTrace {
    /// Total ad requests under the paper's definition.
    pub fn ad_request_count(&self) -> usize {
        self.requests.iter().filter(|r| r.label.is_ad()).count()
    }
}

/// Run the full pipeline over a captured trace on the calling thread. This
/// is the one-thread oracle the stream engine is held to: every stage is a
/// whole-trace pass over the records in trace order, and the result is the
/// return value alone — nothing is written into any [`obs::Registry`].
///
/// Stage order: extract → referrer map and provisional content type →
/// redirect type backfill → URL normalization and classification.
/// Classification must run *after* the backfill pass because redirect
/// targets fix the redirecting request's type (§3.1). The referrer map is
/// kept per user, ⟨anonymized IP, User-Agent⟩ (the paper's user axis,
/// §6.1), and a redirect's backfill target is an earlier request of the
/// same user.
pub fn classify_trace(
    trace: &Trace,
    classifier: &PassiveClassifier,
    opts: PipelineOptions,
) -> ClassifiedTrace {
    classify(trace, classifier, opts, None)
}

/// [`classify_trace`] that also explains every verdict: one
/// [`VerdictProvenance`] per request, in record order, in
/// [`ClassifiedTrace::provenance`] — the inputs the decision procedure
/// consumed (rule, page context, content-type source, rewrites).
pub fn explain_trace(
    trace: &Trace,
    classifier: &PassiveClassifier,
    opts: PipelineOptions,
) -> ClassifiedTrace {
    let seed = obs::trace::seed_from_name(&trace.meta.name);
    classify(trace, classifier, opts, Some(seed))
}

/// The kernel of [`classify_trace`] and [`explain_trace`]. `explain` is
/// the seed the trace ids derive from; without it the kernel keeps no
/// per-record stage facts.
fn classify(
    trace: &Trace,
    classifier: &PassiveClassifier,
    opts: PipelineOptions,
    explain: Option<u64>,
) -> ClassifiedTrace {
    // Stage: extract (URL reassembly + quarantine).
    let (objects, mut degradation, quarantined_ts) = crate::extract::extract_full(trace);
    let dropped = degradation.quarantined();

    let mut prev_ts = f64::NEG_INFINITY;
    for obj in &objects {
        if obj.ts < prev_ts {
            degradation.out_of_order_records += 1;
        }
        prev_ts = obj.ts;
    }

    let normalizer = classifier.normalizer();

    // Pass 1: per-user referrer map + provisional types.
    let mut per_user: HashMap<(u32, Option<&str>), RefMap> = HashMap::new();
    let mut pages: Vec<Option<Url>> = Vec::with_capacity(objects.len());
    let mut categories: Vec<ContentCategory> = Vec::with_capacity(objects.len());
    // Per-record stage facts (Copy), collected only while explaining.
    let mut metas: Vec<RecordMeta> = Vec::new();
    let mut backfills: Vec<(usize, ContentCategory)> = Vec::new();

    for obj in &objects {
        let user_key = (obj.client_ip, obj.user_agent.as_deref());
        let entry = per_user.entry(user_key).or_default().process(obj);
        let (cat, cat_src) = infer_category_traced(
            &obj.url,
            obj.content_type.as_deref(),
            ContentOptions::default(),
        );
        if explain.is_some() {
            metas.push(RecordMeta {
                page_source: entry.ctx.source,
                hops: entry.ctx.hops,
                via_redirect: entry.ctx.via_redirect,
                content_source: cat_src,
            });
        }
        if let Some(redirecting_idx) = entry.backfill_type_to {
            backfills.push((redirecting_idx, cat));
        }
        if entry.ctx.page.is_none() {
            degradation.refmap_misses += 1;
        }
        pages.push(entry.ctx.page);
        categories.push(cat);
    }
    for map in per_user.values() {
        degradation.broken_redirect_chains += map.redirects_inserted() - map.redirects_consumed();
    }

    // Pass 2: redirect type backfill. The target is an earlier request,
    // found by its record index (extraction keeps the indices ascending).
    for (idx, cat) in backfills {
        if let Ok(pos) = objects.binary_search_by_key(&idx, |o| o.idx) {
            if cat != ContentCategory::Other {
                categories[pos] = cat;
                if explain.is_some() {
                    metas[pos].content_source = ContentSource::Redirect;
                }
            }
        }
    }
    // A missing Content-Type that still ended with a usable category means
    // the extension/backfill fallback recovered it.
    for (obj, cat) in objects.iter().zip(&categories) {
        if obj.content_type.is_none() && *cat != ContentCategory::Other {
            degradation.content_type_fallbacks += 1;
        }
    }

    // Pass 3: normalize + classify. One scratch keeps the compiled match
    // path allocation-free.
    let mut provenance: Vec<VerdictProvenance> = Vec::new();
    let mut scratch = abp_filter::ClassifyScratch::new();
    let requests: Vec<ClassifiedRequest> = objects
        .iter()
        .enumerate()
        .map(|(pos, obj)| {
            let url = normalizer.normalize(&obj.url);
            let (label, c) = classifier.classify_traced_in(
                &url,
                pages[pos].as_ref(),
                categories[pos],
                &mut scratch,
            );
            if let Some(seed) = explain {
                provenance.push(crate::provenance::build(
                    seed,
                    obj,
                    classifier,
                    pages[pos].as_ref(),
                    metas[pos],
                    categories[pos],
                    &c,
                ));
            }
            let rule = classifier.primary_rule(&c);
            ClassifiedRequest {
                ts: obj.ts,
                client_ip: obj.client_ip,
                server_ip: obj.server_ip,
                url,
                page: pages[pos].clone(),
                category: categories[pos],
                content_type: obj.content_type.clone(),
                bytes: obj.bytes,
                user_agent: obj.user_agent.clone(),
                tcp_handshake_ms: obj.tcp_handshake_ms,
                http_handshake_ms: obj.http_handshake_ms,
                label,
                rule,
            }
        })
        .collect();

    // The plane set, folded once over the final request vector.
    let mut planes = Planes::new(opts);
    planes.fold(&requests, &quarantined_ts);

    ClassifiedTrace {
        meta: trace.meta.clone(),
        requests,
        https_flows: trace.https_flows().cloned().collect(),
        dropped,
        degradation,
        provenance,
        windows: planes.windows.report(),
        population: planes.population,
    }
}

/// [`classify_trace`] under the signature the e2e harness calls; the registry is ignored.
pub fn classify_trace_in(
    trace: &Trace,
    classifier: &PassiveClassifier,
    opts: PipelineOptions,
    _registry: &obs::Registry,
) -> ClassifiedTrace {
    classify_trace(trace, classifier, opts)
}

/// Convenience used across experiments and tests: objects list (extraction
/// output) without classification.
pub fn extract_objects(trace: &Trace) -> Vec<WebObject> {
    extract(trace).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use abp_filter::FilterList;
    use http_model::headers::{RequestHeaders, ResponseHeaders};
    use http_model::transaction::Method;
    use http_model::HttpTransaction;
    use netsim::record::TraceRecord;

    fn tx(
        ts: f64,
        client: u32,
        host: &str,
        uri: &str,
        referer: Option<&str>,
        ct: Option<&str>,
        location: Option<&str>,
    ) -> TraceRecord {
        TraceRecord::Http(HttpTransaction {
            ts,
            client_ip: client,
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
                status: if location.is_some() { 302 } else { 200 },
                content_type: ct.map(str::to_string),
                content_length: Some(500),
                location: location.map(str::to_string),
            },
            tcp_handshake_ms: 1.0,
            http_handshake_ms: 2.0,
        })
    }

    fn trace(records: Vec<TraceRecord>) -> Trace {
        Trace {
            meta: TraceMeta {
                name: "t".into(),
                duration_secs: 100.0,
                subscribers: 1,
                start_hour: 0,
                start_weekday: 0,
            },
            records,
        }
    }

    fn classifier() -> PassiveClassifier {
        PassiveClassifier::new(vec![
            FilterList::parse(
                "easylist",
                "||ads.example^$third-party\n/banners/\n@@*jsp?callback=aslHandleAds*\n",
            ),
            FilterList::parse("easyprivacy", "/pixel/\n"),
        ])
    }

    #[test]
    fn end_to_end_page_context_enables_third_party_rule() {
        // ||ads.example^$third-party only fires with page context.
        let t = trace(vec![
            tx(0.0, 5, "pub.example", "/", None, Some("text/html"), None),
            tx(
                0.5,
                5,
                "ads.example",
                "/creative.gif",
                Some("http://pub.example/"),
                Some("image/gif"),
                None,
            ),
        ]);
        let out = classify_trace(&t, &classifier(), PipelineOptions::default());
        assert_eq!(out.requests.len(), 2);
        assert!(
            !out.requests[0].label.is_ad(),
            "the page itself is not an ad"
        );
        assert!(out.requests[1].label.is_ad());
        assert_eq!(out.requests[1].page.as_ref().unwrap().host(), "pub.example");
    }

    #[test]
    fn redirect_backfill_fixes_type_and_page() {
        let t = trace(vec![
            tx(0.0, 5, "pub.example", "/", None, Some("text/html"), None),
            // Redirector: no content type at all.
            tx(
                0.2,
                5,
                "r.example",
                "/go?id=1",
                Some("http://pub.example/"),
                None,
                Some("http://media.example/spot.mp4"),
            ),
            // Target arrives with no referer.
            tx(
                0.3,
                5,
                "media.example",
                "/spot.mp4",
                None,
                Some("video/mp4"),
                None,
            ),
        ]);
        let out = classify_trace(&t, &classifier(), PipelineOptions::default());
        // The redirector's category is backfilled from the target (media).
        assert_eq!(out.requests[1].category, ContentCategory::Media);
        // The target's page was stitched across the redirect.
        assert_eq!(out.requests[2].page.as_ref().unwrap().host(), "pub.example");
    }

    #[test]
    fn normalization_applies_to_stored_urls() {
        let t = trace(vec![tx(
            0.0,
            5,
            "x.example",
            "/banners/a.gif?cb=1234567",
            None,
            Some("image/gif"),
            None,
        )]);
        let out = classify_trace(&t, &classifier(), PipelineOptions::default());
        assert_eq!(out.requests[0].url.query(), Some("cb=X"));
        assert!(out.requests[0].label.is_ad());
    }

    #[test]
    fn users_do_not_share_page_state() {
        let t = trace(vec![
            tx(0.0, 5, "pub.example", "/", None, Some("text/html"), None),
            // Different client: orphan object must not inherit client 5's page.
            tx(
                0.5,
                6,
                "cdn.example",
                "/app.js",
                None,
                Some("application/javascript"),
                None,
            ),
        ]);
        let out = classify_trace(&t, &classifier(), PipelineOptions::default());
        assert!(out.requests[1].page.is_none());
    }

    #[test]
    fn https_flows_carried_through() {
        let mut records = vec![tx(
            0.0,
            5,
            "pub.example",
            "/",
            None,
            Some("text/html"),
            None,
        )];
        records.push(TraceRecord::Https(netsim::record::TlsConnection {
            ts: 1.0,
            client_ip: 5,
            server_ip: 77,
            server_port: 443,
            bytes: 3000,
        }));
        let t = trace(records);
        let out = classify_trace(&t, &classifier(), PipelineOptions::default());
        assert_eq!(out.https_flows.len(), 1);
        assert_eq!(out.https_flows[0].server_ip, 77);
    }

    #[test]
    fn degradation_report_accounts_for_broken_input() {
        let t = trace(vec![
            tx(0.0, 5, "pub.example", "/", None, Some("text/html"), None),
            // Redirect whose target never shows up: broken chain.
            tx(
                0.2,
                5,
                "r.example",
                "/go",
                Some("http://pub.example/"),
                None,
                Some("http://never.example/gone.gif"),
            ),
            // Quarantined: URL cannot be reassembled.
            tx(0.3, 5, "", "/lost", None, None, None),
            // Out of order, and Content-Type missing but the extension
            // recovers the category.
            tx(
                0.1,
                5,
                "img.example",
                "/a.gif",
                Some("http://pub.example/"),
                None,
                None,
            ),
        ]);
        let out = classify_trace(&t, &classifier(), PipelineOptions::default());
        let d = &out.degradation;
        assert_eq!(out.dropped, 1);
        assert_eq!(d.unparseable_urls, 1);
        assert_eq!(d.broken_redirect_chains, 1);
        assert_eq!(d.out_of_order_records, 1);
        // Redirector and image both lacked Content-Type; the quarantined
        // record is excluded before header accounting.
        assert_eq!(d.missing_content_type, 2);
        assert_eq!(d.content_type_fallbacks, 1, "only the .gif recovered");
        assert!(d.total() >= d.quarantined());
    }

    /// The oracle is a pure computation: with every plane it has on, a
    /// registry handed to it stays untouched.
    #[test]
    fn the_oracle_writes_nothing_into_a_registry() {
        let t = trace(vec![
            tx(0.0, 5, "pub.example", "/", None, Some("text/html"), None),
            tx(
                0.1,
                5,
                "x.example",
                "/banners/a.gif",
                Some("http://pub.example/"),
                Some("image/gif"),
                None,
            ),
            tx(0.2, 5, "", "/lost", None, None, None),
            tx(
                0.05,
                6,
                "ads.example",
                "/c.gif",
                None,
                Some("image/gif"),
                None,
            ),
        ]);
        let mut opts = PipelineOptions::default();
        opts.population.enabled = true;
        let registry = obs::Registry::new();
        let out = classify_trace_in(&t, &classifier(), opts, &registry);
        assert!(out.provenance.is_empty(), "classify_trace explains nothing");
        assert!(!out.windows.windows.is_empty(), "the window plane folded");
        assert!(out.population.is_some(), "the population plane folded");
        assert!(out.degradation.total() > 0, "the input degraded");
        assert!(registry.snapshot().samples.is_empty(), "no metric");
        assert!(registry.events().is_empty(), "no event");
        assert!(registry.body("/windows").is_empty(), "no window line");
    }

    #[test]
    fn clean_trace_reports_no_degradation() {
        let t = trace(vec![
            tx(0.0, 5, "pub.example", "/", None, Some("text/html"), None),
            tx(
                0.1,
                5,
                "x.example",
                "/banners/a.gif",
                Some("http://pub.example/"),
                Some("image/gif"),
                None,
            ),
        ]);
        let out = classify_trace(&t, &classifier(), PipelineOptions::default());
        assert_eq!(out.degradation, DegradationReport::default());
        assert_eq!(out.degradation.total(), 0);
    }

    #[test]
    fn empty_trace_classifies_to_empty() {
        let out = classify_trace(&trace(vec![]), &classifier(), PipelineOptions::default());
        assert!(out.requests.is_empty());
        assert_eq!(out.degradation, DegradationReport::default());
    }

    #[test]
    fn ad_request_count() {
        let t = trace(vec![
            tx(0.0, 5, "pub.example", "/", None, Some("text/html"), None),
            tx(
                0.1,
                5,
                "x.example",
                "/banners/a.gif",
                Some("http://pub.example/"),
                Some("image/gif"),
                None,
            ),
            tx(
                0.2,
                5,
                "t.example",
                "/pixel/p.gif",
                Some("http://pub.example/"),
                Some("image/gif"),
                None,
            ),
        ]);
        let out = classify_trace(&t, &classifier(), PipelineOptions::default());
        assert_eq!(out.ad_request_count(), 2);
    }
}
