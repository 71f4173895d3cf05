//! Per-user sharded classification — the multi-core pipeline.
//!
//! The pipeline's only cross-record state is per user: the referrer map,
//! redirect repair, and type backfill all key off the ⟨anonymized IP,
//! User-Agent⟩ pair (the paper's user axis, §6.1), and a redirect's
//! backfill target is by construction an earlier request of the *same*
//! user. Partitioning records by a deterministic hash of that pair
//! therefore yields fully independent shards: each worker runs the exact
//! sequential stage logic over its users' records (in global time
//! order), and results scatter back into global record positions.
//!
//! Guarantees, relied on by the equivalence test suite:
//!
//! * **Byte-identical output.** [`classify_trace_sharded`] produces the
//!   same [`ClassifiedTrace`] as [`crate::pipeline::classify_trace`] for
//!   any trace, thread count, and shard layout — requests in the same
//!   order with the same verdicts, and an identical merged
//!   [`DegradationReport`]. Order-sensitive accounting
//!   (`out_of_order_records`, which observes the *global* timestamp
//!   sequence) is computed in a sequential pre-pass before sharding.
//! * **Deterministic sharding.** Shard assignment uses FNV-1a, never
//!   `HashMap`'s randomized state, so the same input maps to the same
//!   shards in every run — scheduling can reorder execution but nothing
//!   observable.
//! * **Lossless metric merge.** Engine/obs counters are shared atomics,
//!   and every [`DegradationReport`] counter is a sum over records or
//!   users, so per-shard partials add up to exactly the sequential
//!   totals (bridged into `adscope_degradation_total{reason=...}` the
//!   same way the sequential path does).

use crate::classify::PassiveClassifier;
use crate::content::{infer_category_traced, ContentSource};
use crate::extract::{extract_full, WebObject};
use crate::normalize::UrlNormalizer;
use crate::pipeline::{ClassifiedRequest, ClassifiedTrace, PipelineOptions};
use crate::provenance::{self, RecordMeta, Tracer, VerdictProvenance};
use crate::refmap::RefMap;
use ::parallel::Pool;
use http_model::{ContentCategory, Url};
use netsim::record::Trace;
use std::collections::HashMap;

/// Deterministic shard assignment: FNV-1a over the user key. A missing
/// User-Agent hashes differently from an empty one, mirroring the
/// `(u32, Option<&str>)` map key the sequential pipeline uses.
pub(crate) fn shard_of(client_ip: u32, user_agent: Option<&str>, nshards: u64) -> usize {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for b in client_ip.to_le_bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(PRIME);
    }
    match user_agent {
        None => h = (h ^ 0xff).wrapping_mul(PRIME),
        Some(ua) => {
            h = (h ^ 0x01).wrapping_mul(PRIME);
            for b in ua.bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(PRIME);
            }
        }
    }
    (h % nshards) as usize
}

/// What one shard worker hands back: classified requests tagged with
/// their global record position, plus the shard's degradation partials.
struct ShardOutput {
    requests: Vec<(usize, ClassifiedRequest)>,
    /// Sampled verdict provenance, tagged with global record position so
    /// the merge can restore the sequential order.
    provenance: Vec<(usize, VerdictProvenance)>,
    refmap_misses: usize,
    broken_redirect_chains: usize,
    content_type_fallbacks: usize,
    users: usize,
}

/// Run the sequential refmap → backfill → classify stages over one
/// shard's records. `positions` are global indices into `objects`,
/// ascending (= global time order restricted to this shard's users).
fn process_shard(
    objects: &[WebObject],
    positions: &[usize],
    classifier: &PassiveClassifier,
    normalizer: &UrlNormalizer,
    opts: PipelineOptions,
    tracer: Option<&Tracer>,
) -> ShardOutput {
    // Pass 1: per-user referrer map + provisional types, exactly as the
    // sequential pipeline runs it (the code shape mirrors
    // `classify_trace_in`; the equivalence suite pins the two together).
    let mut per_user: HashMap<(u32, Option<&str>), RefMap> = HashMap::new();
    let mut pages: Vec<Option<Url>> = Vec::with_capacity(positions.len());
    let mut categories: Vec<ContentCategory> = Vec::with_capacity(positions.len());
    let mut metas: Vec<RecordMeta> = Vec::new();
    let mut local_of_idx: HashMap<usize, usize> = HashMap::with_capacity(positions.len());
    let mut backfills: Vec<(usize, ContentCategory)> = Vec::new();
    let mut refmap_misses = 0usize;

    for (local, &pos) in positions.iter().enumerate() {
        let obj = &objects[pos];
        local_of_idx.insert(obj.idx, local);
        let user_key = (obj.client_ip, obj.user_agent.as_deref());
        let map = per_user
            .entry(user_key)
            .or_insert_with(|| RefMap::new(opts.refmap));
        let entry = map.process(obj);
        let (cat, cat_src) =
            infer_category_traced(&obj.url, obj.content_type.as_deref(), opts.content);
        if tracer.is_some() {
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
            refmap_misses += 1;
        }
        pages.push(entry.ctx.page);
        categories.push(cat);
    }
    let mut broken_redirect_chains = 0usize;
    for map in per_user.values() {
        broken_redirect_chains += map.redirects_inserted() - map.redirects_consumed();
    }

    // Pass 2: redirect type backfill. The backfill target is an earlier
    // request of the same user, so it is always inside this shard.
    for (idx, cat) in backfills {
        if let Some(&local) = local_of_idx.get(&idx) {
            if cat != ContentCategory::Other {
                categories[local] = cat;
                if tracer.is_some() {
                    metas[local].content_source = ContentSource::Redirect;
                }
            }
        }
    }
    let mut content_type_fallbacks = 0usize;
    for (local, &pos) in positions.iter().enumerate() {
        if objects[pos].content_type.is_none() && categories[local] != ContentCategory::Other {
            content_type_fallbacks += 1;
        }
    }

    // Pass 3: normalize + classify. One scratch per shard worker keeps the
    // compiled match path allocation-free.
    let mut prov: Vec<(usize, VerdictProvenance)> = Vec::new();
    let mut scratch = abp_filter::ClassifyScratch::new();
    let requests = positions
        .iter()
        .enumerate()
        .map(|(local, &pos)| {
            let obj = &objects[pos];
            let url = normalizer.normalize(&obj.url);
            let (label, c) = classifier.classify_traced_in(
                &url,
                pages[local].as_ref(),
                categories[local],
                &mut scratch,
            );
            if let Some(t) = tracer {
                if let Some(cause) = t.cause(obj.idx as u64, &c, pages[local].is_none()) {
                    prov.push((
                        pos,
                        t.build(
                            cause,
                            obj,
                            normalizer,
                            classifier,
                            pages[local].as_ref(),
                            metas[local],
                            categories[local],
                            &c,
                        ),
                    ));
                }
            }
            let rule = classifier.primary_rule(&c);
            (
                pos,
                ClassifiedRequest {
                    ts: obj.ts,
                    client_ip: obj.client_ip,
                    server_ip: obj.server_ip,
                    url,
                    page: pages[local].clone(),
                    category: categories[local],
                    content_type: obj.content_type.clone(),
                    bytes: obj.bytes,
                    user_agent: obj.user_agent.clone(),
                    tcp_handshake_ms: obj.tcp_handshake_ms,
                    http_handshake_ms: obj.http_handshake_ms,
                    label,
                    rule,
                },
            )
        })
        .collect();

    ShardOutput {
        requests,
        provenance: prov,
        refmap_misses,
        broken_redirect_chains,
        content_type_fallbacks,
        users: per_user.len(),
    }
}

/// Multi-core [`crate::pipeline::classify_trace`]: identical output, with
/// the per-user stages fanned out over `threads` workers (`0` means
/// [`parallel::available_parallelism`]). Metrics go to the global [`obs`]
/// registry.
pub fn classify_trace_sharded(
    trace: &Trace,
    classifier: &PassiveClassifier,
    opts: PipelineOptions,
    threads: usize,
) -> ClassifiedTrace {
    classify_trace_sharded_in(trace, classifier, opts, threads, obs::global())
}

/// Like [`classify_trace_sharded`], recording metrics into an explicit
/// registry.
pub fn classify_trace_sharded_in(
    trace: &Trace,
    classifier: &PassiveClassifier,
    opts: PipelineOptions,
    threads: usize,
    registry: &obs::Registry,
) -> ClassifiedTrace {
    let pool = Pool::new(threads);

    // Stage: extract (sequential — it assigns the global record order).
    let mut span = registry.span_with("adscope_stage", &[("stage", "extract")]);
    span.count("records_in", trace.records.len() as u64);
    let (objects, mut degradation, quarantined_ts) = extract_full(trace);
    let dropped = degradation.quarantined();
    span.count("records_out", objects.len() as u64);
    drop(span);

    // Out-of-order accounting observes the *global* timestamp sequence,
    // so it must run before records are partitioned by user.
    let mut prev_ts = f64::NEG_INFINITY;
    for obj in &objects {
        if obj.ts < prev_ts {
            degradation.out_of_order_records += 1;
        }
        prev_ts = obj.ts;
    }

    let normalizer = UrlNormalizer::for_classifier(classifier, opts.normalize);

    // Shard plan: more shards than workers smooths out user-size skew
    // without affecting the output (any shard layout yields the same
    // merged result; only wall-clock balance changes).
    let nshards = (pool.threads() * 4).max(1) as u64;
    let mut shards: Vec<Vec<usize>> = vec![Vec::new(); nshards as usize];
    for (pos, obj) in objects.iter().enumerate() {
        shards[shard_of(obj.client_ip, obj.user_agent.as_deref(), nshards)].push(pos);
    }
    shards.retain(|s| !s.is_empty());

    // Verdict-provenance tracer, shared read-only by all workers. Every
    // sampling decision is a pure function of record identity, so the
    // shards agree with the sequential pipeline record-for-record.
    let tracer = Tracer::new(&trace.meta.name, opts.trace);

    // Stage: shard = refmap + backfill + classify, fused per shard.
    let mut span = registry.span_with("adscope_stage", &[("stage", "shard")]);
    span.count("records_in", objects.len() as u64);
    span.count("shards", shards.len() as u64);
    span.count("threads", pool.threads() as u64);
    let outputs = pool.map(shards, |_, positions| {
        process_shard(
            &objects,
            &positions,
            classifier,
            &normalizer,
            opts,
            tracer.as_ref(),
        )
    });

    // Merge: scatter requests back into global record order; sum the
    // per-shard degradation partials (plain counter addition, so the
    // total is independent of shard layout and scheduling).
    let mut slots: Vec<Option<ClassifiedRequest>> = (0..objects.len()).map(|_| None).collect();
    let mut users = 0usize;
    let mut tagged_provenance: Vec<(usize, VerdictProvenance)> = Vec::new();
    for out in outputs {
        users += out.users;
        degradation.refmap_misses += out.refmap_misses;
        degradation.broken_redirect_chains += out.broken_redirect_chains;
        degradation.content_type_fallbacks += out.content_type_fallbacks;
        tagged_provenance.extend(out.provenance);
        for (pos, req) in out.requests {
            debug_assert!(slots[pos].is_none(), "each record classified exactly once");
            slots[pos] = Some(req);
        }
    }
    // Restore the sequential record order before publishing, so the
    // trace sink's contents are byte-identical at any thread count.
    tagged_provenance.sort_unstable_by_key(|(pos, _)| *pos);
    let provenance: Vec<VerdictProvenance> =
        tagged_provenance.into_iter().map(|(_, vp)| vp).collect();
    let requests: Vec<ClassifiedRequest> = slots
        .into_iter()
        .map(|s| s.expect("every record belongs to exactly one shard"))
        .collect();
    let ad_count = requests.iter().filter(|r| r.label.is_ad()).count();
    span.count("users", users as u64);
    span.count("records_out", requests.len() as u64);
    span.count("ads", ad_count as u64);
    drop(span);

    registry
        .counter("adscope_requests_classified_total")
        .add(requests.len() as u64);
    registry
        .counter("adscope_ad_requests_total")
        .add(ad_count as u64);
    // Same degradation → label-space bridge as the sequential path, over
    // the merged report, so exposition and report still reconcile.
    for (reason, count) in degradation.counts() {
        registry
            .counter_with("adscope_degradation_total", &[("reason", reason)])
            .add(count as u64);
    }
    provenance::publish(&provenance, registry);

    // Windowed aggregation runs over the merged, globally-ordered
    // request vector — the same input the sequential path feeds the same
    // helper — so the report is byte-identical at any thread count.
    let windows = if opts.window.enabled {
        let mut span = registry.span_with("adscope_stage", &[("stage", "window")]);
        span.count("records_in", requests.len() as u64);
        let windows = crate::window::aggregate(&requests, &quarantined_ts, opts.window);
        span.count("windows_out", windows.windows.len() as u64);
        drop(span);
        crate::window::publish(&windows, registry);
        windows
    } else {
        obs::window::WindowReport::default()
    };

    // Population sketches likewise run over the merged request vector —
    // the same pure function as the sequential path.
    let population = if opts.population.enabled {
        let mut span = registry.span_with("adscope_stage", &[("stage", "population")]);
        span.count("records_in", requests.len() as u64);
        let mut sketches = crate::population::PopulationSketches::new(opts.population);
        for r in &requests {
            sketches.observe(r);
        }
        drop(span);
        Some(sketches)
    } else {
        None
    };

    ClassifiedTrace {
        meta: trace.meta.clone(),
        requests,
        https_flows: trace.https_flows().cloned().collect(),
        dropped,
        degradation,
        provenance,
        windows,
        population,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::degrade::DegradationReport;
    use crate::pipeline::classify_trace_in;
    use abp_filter::FilterList;
    use http_model::headers::{RequestHeaders, ResponseHeaders};
    use http_model::transaction::{HttpTransaction, Method};
    use netsim::record::{TraceMeta, TraceRecord};

    fn classifier() -> PassiveClassifier {
        PassiveClassifier::new(vec![
            FilterList::parse(
                "easylist",
                "||ads.example^$third-party\n/banners/\n@@*callback=ok*\n",
            ),
            FilterList::parse("easyprivacy", "/pixel/\n"),
        ])
    }

    fn tx(ts: f64, client: u32, ua: Option<&str>, host: &str, uri: &str) -> TraceRecord {
        TraceRecord::Http(HttpTransaction {
            ts,
            client_ip: client,
            server_ip: 1,
            server_port: 80,
            method: Method::Get,
            request: RequestHeaders {
                host: host.into(),
                uri: uri.into(),
                referer: Some("http://pub.example/".into()),
                user_agent: ua.map(str::to_string),
            },
            response: ResponseHeaders {
                status: 200,
                content_type: Some("image/gif".into()),
                content_length: Some(100),
                location: None,
            },
            tcp_handshake_ms: 1.0,
            http_handshake_ms: 2.0,
        })
    }

    fn mixed_trace() -> Trace {
        let mut records = vec![];
        for i in 0..60u32 {
            let client = i % 7;
            let ua = match i % 3 {
                0 => Some("UA-A"),
                1 => Some("UA-B"),
                _ => None,
            };
            let (host, uri) = match i % 4 {
                0 => ("pub.example", "/".to_string()),
                1 => ("ads.example", format!("/creative{i}.gif")),
                2 => ("x.example", format!("/banners/{i}.gif")),
                _ => ("cdn.example", format!("/lib{i}.js")),
            };
            records.push(tx(i as f64 * 0.1, client, ua, host, &uri));
        }
        Trace {
            meta: TraceMeta {
                name: "shard-t".into(),
                duration_secs: 10.0,
                subscribers: 7,
                start_hour: 0,
                start_weekday: 0,
            },
            records,
        }
    }

    #[test]
    fn sharded_equals_sequential_across_thread_counts() {
        let trace = mixed_trace();
        let c = classifier();
        let seq_reg = obs::Registry::new();
        let seq = classify_trace_in(&trace, &c, PipelineOptions::default(), &seq_reg);
        for threads in [1usize, 2, 3, 8] {
            let reg = obs::Registry::new();
            let par =
                classify_trace_sharded_in(&trace, &c, PipelineOptions::default(), threads, &reg);
            assert_eq!(par.requests, seq.requests, "threads={threads}");
            assert_eq!(par.degradation, seq.degradation, "threads={threads}");
            assert_eq!(par.dropped, seq.dropped);
            assert_eq!(par.https_flows, seq.https_flows);
            assert_eq!(par.meta, seq.meta);
        }
    }

    #[test]
    fn shard_assignment_is_deterministic_and_distinguishes_absent_ua() {
        let a = shard_of(1, Some(""), 1 << 32);
        let b = shard_of(1, None, 1 << 32);
        assert_ne!(a, b, "empty UA and absent UA are distinct users");
        for _ in 0..3 {
            assert_eq!(shard_of(7, Some("UA-A"), 16), shard_of(7, Some("UA-A"), 16));
        }
    }

    #[test]
    fn empty_trace_classifies_to_empty() {
        let trace = Trace {
            meta: TraceMeta {
                name: "empty".into(),
                duration_secs: 0.0,
                subscribers: 0,
                start_hour: 0,
                start_weekday: 0,
            },
            records: vec![],
        };
        let reg = obs::Registry::new();
        let out =
            classify_trace_sharded_in(&trace, &classifier(), PipelineOptions::default(), 4, &reg);
        assert!(out.requests.is_empty());
        assert_eq!(out.degradation, DegradationReport::default());
    }
}
