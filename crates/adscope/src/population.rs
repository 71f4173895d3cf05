//! Streaming population analytics — mergeable sketches over classified
//! requests, rendering the paper's headline population tables live.
//!
//! The materialized experiments compute Table 3, top ad domains, and the
//! per-user/object distributions from the full request vector. The
//! streaming pipeline never holds that vector, so this module keeps a
//! bounded, order-insensitively-mergeable summary instead:
//!
//! * [`PopulationSketches`] — the population plane, one type on every path:
//!   top ad-serving domains and top fired rules ([`obs::TopK`]), distinct
//!   sites ([`obs::Distinct64`]), and object-size / `rtb_gap_ms`
//!   distributions ([`obs::QuantileSketch`]). All merges are
//!   associative, commutative, and partition-invariant (the TopK in its
//!   exact regime — capacity is sized well above the generated domain
//!   space, and the render flags the approximate regime explicitly).
//! * [`PopulationSketches::finish`] — the single report builder. Beside the
//!   sketches it reads two inputs that are not this module's: the user table
//!   ([`crate::users::UserAggregate`] rows) and the download households. The
//!   exact counts come from the table: distinct users, requests and ad
//!   requests, and Table 3 through [`infer::classify_users`] and
//!   [`infer::table3`], the same calls the `table3` experiment makes. The
//!   stream engine keeps both inputs once per run (`StreamReport::{user_table,
//!   households}`); the materialized path builds them with
//!   [`crate::users::aggregate_users`] and
//!   [`infer::households_with_downloads`] ([`finish_trace`]).
//!
//! Everything here is a pure function of the classified request stream
//! (plus the household-download set), so renders are byte-identical at
//! any thread count and chunk size — the workspace equivalence contract.

use crate::infer::{self, ClassTally};
use crate::pipeline::{ClassifiedRequest, ClassifiedTrace};
use crate::users::{aggregate_users, UserAggregate};
use obs::sketch::{Distinct64, QuantileSketch, TopEntry, TopK, QUANTILE_GAMMA};
use std::collections::HashSet;
use std::fmt::Write as _;

/// Population-analytics options, carried on
/// [`crate::pipeline::PipelineOptions`]. Off by default — the sketches
/// are for streaming runs that opt in; existing reports stay
/// byte-identical.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PopulationOptions {
    /// Produce population sketches at all.
    pub enabled: bool,
    /// The "active user" floor (requests) for Table 3 membership.
    pub active_min_requests: u64,
}

impl Default for PopulationOptions {
    fn default() -> Self {
        PopulationOptions {
            enabled: false,
            active_min_requests: infer::ACTIVE_USER_MIN_REQUESTS,
        }
    }
}

/// TopK sketch capacity (keys tracked per sketch): well above the
/// generated key cardinality, so the sketches stay in the exact regime,
/// where merges are partition-invariant.
pub const TOPK_CAPACITY: usize = 512;

/// How many ranked rows the report renders.
pub(crate) const TOP_ROWS: usize = 10;

/// The quantiles every distribution row reports.
pub(crate) const QUANTILES: [f64; 5] = [25.0, 50.0, 75.0, 90.0, 99.0];

/// The mergeable sketch state one worker (or the whole materialized
/// pipeline) accumulates.
#[derive(Debug, Clone)]
pub struct PopulationSketches {
    /// Top ad-serving domains (ad requests only, keyed by URL host).
    pub ad_domains: TopK,
    /// Top fired rules, keyed `"<list-label>|<rule-text>"`.
    pub rules: TopK,
    /// Distinct site hosts (page host when reconstruction succeeded,
    /// else the request host).
    pub sites: Distinct64,
    /// Ad object sizes (bytes; Fig. 6).
    pub object_bytes: QuantileSketch,
    /// RTB back-office gap (ms, ad requests only; Fig. 7).
    pub rtb_gap_ms: QuantileSketch,
    // Reusable key scratch — per-record upkeep must not allocate on the
    // streaming hot path — and the last site host fed to `sites`. Not part
    // of the sketch state.
    rule_buf: String,
    last_site: Option<String>,
}

/// Equality is over the sketch *state* only — the scratch buffers are
/// an allocation cache, not state.
impl PartialEq for PopulationSketches {
    fn eq(&self, other: &PopulationSketches) -> bool {
        self.ad_domains == other.ad_domains
            && self.rules == other.rules
            && self.sites == other.sites
            && self.object_bytes == other.object_bytes
            && self.rtb_gap_ms == other.rtb_gap_ms
    }
}

impl PopulationSketches {
    /// Fresh sketches of [`TOPK_CAPACITY`]. `_opts` is ignored; the e2e
    /// harness passes it.
    pub fn new(_opts: PopulationOptions) -> PopulationSketches {
        PopulationSketches {
            ad_domains: TopK::new(TOPK_CAPACITY),
            rules: TopK::new(TOPK_CAPACITY),
            sites: Distinct64::new(),
            object_bytes: QuantileSketch::new(QUANTILE_GAMMA),
            rtb_gap_ms: QuantileSketch::new(QUANTILE_GAMMA),
            rule_buf: String::new(),
            last_site: None,
        }
    }

    /// Fold one classified request into every sketch. An HLL observation is
    /// idempotent, so `sites` is fed only when the site host differs from the
    /// previous request's: the requests of one page view share it.
    pub fn observe(&mut self, r: &ClassifiedRequest) {
        let site = r
            .page
            .as_ref()
            .map(|p| p.host())
            .unwrap_or_else(|| r.url.host());
        if self.last_site.as_deref() != Some(site) {
            self.sites.observe(site.as_bytes());
            let last = self.last_site.get_or_insert_with(String::new);
            last.clear();
            last.push_str(site);
        }
        if let Some((kind, rule)) = &r.rule {
            self.rule_buf.clear();
            self.rule_buf.push_str(kind.label());
            self.rule_buf.push('|');
            self.rule_buf.push_str(rule);
            self.rules.observe(&self.rule_buf, 1);
        }
        if r.label.is_ad() {
            self.ad_domains.observe(r.url.host(), 1);
            self.object_bytes.observe(r.bytes as f64);
            self.rtb_gap_ms.observe(r.backend_gap_ms());
        }
    }

    /// Merge another worker's partial (callers merge in worker-index
    /// order for canonical bytes; in the TopK exact regime any order
    /// gives the same state).
    pub fn merge(&mut self, other: &PopulationSketches) {
        self.ad_domains.merge(&other.ad_domains);
        self.rules.merge(&other.rules);
        self.sites.merge(&other.sites);
        self.object_bytes.merge(&other.object_bytes);
        self.rtb_gap_ms.merge(&other.rtb_gap_ms);
    }

    /// Build the report: the one code path the streamed and materialized
    /// pipelines share, a pure function of the sketches, the download
    /// `households` and the user table (one row per ⟨IP, UA⟩ user, an absent
    /// UA the empty one, as [`crate::users::aggregate_users`] keys them). A
    /// row with no request finalized yet counts nothing.
    pub fn finish(
        &self,
        opts: PopulationOptions,
        households: &HashSet<u32>,
        users: &[UserAggregate],
    ) -> PopulationReport {
        let threshold = infer::AD_RATIO_THRESHOLD_PCT;
        let inferred =
            infer::classify_users(users, households, threshold, opts.active_min_requests);
        let mut ad_share = QuantileSketch::new(QUANTILE_GAMMA);
        for iu in &inferred {
            ad_share.observe(users[iu.user_idx].ad_ratio_pct());
        }
        let quantiles = |s: &QuantileSketch| -> Vec<(f64, f64)> {
            QUANTILES
                .iter()
                .map(|&q| (q, s.quantile(q).unwrap_or(0.0)))
                .collect()
        };
        PopulationReport {
            requests: users.iter().map(|u| u.counters.requests).sum(),
            ad_requests: users.iter().map(|u| u.counters.ad_requests).sum(),
            distinct_users: users.iter().filter(|u| u.counters.requests > 0).count() as u64,
            distinct_sites: self.sites.estimate(),
            active_browsers: inferred.len() as u64,
            top_ad_domains: self.ad_domains.top(TOP_ROWS),
            top_rules: self.rules.top(TOP_ROWS),
            exact_topk: self.ad_domains.is_exact() && self.rules.is_exact(),
            ad_share_pct: quantiles(&ad_share),
            object_bytes: quantiles(&self.object_bytes),
            rtb_gap_ms: quantiles(&self.rtb_gap_ms),
            quantile_alpha: self.object_bytes.alpha(),
            classes: infer::table3(users, &inferred),
        }
    }
}

/// The finished population report — a pure function of the merged
/// sketches, the user table, and the download-household set.
#[derive(Debug, Clone, PartialEq)]
pub struct PopulationReport {
    /// Total requests.
    pub requests: u64,
    /// Total ad requests.
    pub ad_requests: u64,
    /// Distinct ⟨IP, UA⟩ users: the user table's rows with a request.
    pub distinct_users: u64,
    /// Estimated distinct site hosts.
    pub distinct_sites: u64,
    /// Active browsers (Table 3 membership).
    pub active_browsers: u64,
    /// Top ad-serving domains, ranked.
    pub top_ad_domains: Vec<TopEntry>,
    /// Top fired rules, ranked (`"<list-label>|<rule>"` keys).
    pub top_rules: Vec<TopEntry>,
    /// Were both TopK sketches in the exact (no-eviction) regime?
    pub exact_topk: bool,
    /// Per-user ad-share quantiles `(q, pct)` over active browsers.
    pub ad_share_pct: Vec<(f64, f64)>,
    /// Ad object size quantiles `(q, bytes)`.
    pub object_bytes: Vec<(f64, f64)>,
    /// RTB gap quantiles `(q, ms)`.
    pub rtb_gap_ms: Vec<(f64, f64)>,
    /// The quantile sketches' guaranteed relative-error bound.
    pub quantile_alpha: f64,
    /// Table 3 tallies in class order A–D.
    pub classes: [ClassTally; 4],
}

/// The materialized path's report: the sketches of the trace's requests,
/// finished over its download households and its [`aggregate_users`] table.
pub fn finish_trace(
    trace: &ClassifiedTrace,
    abp_ips: &[u32],
    opts: PopulationOptions,
) -> PopulationReport {
    let mut sketches = PopulationSketches::new(opts);
    trace.requests.iter().for_each(|r| sketches.observe(r));
    let households = infer::households_with_downloads(&trace.https_flows, abp_ips);
    sketches.finish(opts, &households, &aggregate_users(trace))
}

impl PopulationReport {
    /// Deterministic human table (served at `/population`).
    pub fn render(&self) -> String {
        let mut out = String::with_capacity(2048);
        let _ = writeln!(out, "# population — streaming sketch analytics");
        let _ = writeln!(out, "requests         {}", self.requests);
        let _ = writeln!(
            out,
            "ad requests      {} ({:.2}%)",
            self.ad_requests,
            stats::pct(self.ad_requests, self.requests)
        );
        let _ = writeln!(out, "distinct users   {}", self.distinct_users);
        let _ = writeln!(out, "distinct sites   ~{}", self.distinct_sites);
        let _ = writeln!(out, "active browsers  {}", self.active_browsers);
        let _ = writeln!(
            out,
            "topk regime      {} (capacity {})",
            if self.exact_topk {
                "exact"
            } else {
                "approximate"
            },
            TOPK_CAPACITY
        );
        let _ = writeln!(
            out,
            "quantile alpha   {:.4} (gamma {})",
            self.quantile_alpha, QUANTILE_GAMMA
        );
        let total_instances: u64 = self.classes.iter().map(|c| c.instances).sum();
        let _ = writeln!(out, "\nclass  instances  inst%    req%     adreq%");
        for c in &self.classes {
            let _ = writeln!(
                out,
                "{:<5}  {:<9}  {:<7.2}  {:<7.2}  {:.2}",
                c.class.label(),
                c.instances,
                stats::pct(c.instances, total_instances),
                stats::pct(c.requests, self.requests),
                stats::pct(c.ad_requests, self.ad_requests),
            );
        }
        let top = |out: &mut String, title: &str, rows: &[TopEntry]| {
            let _ = writeln!(out, "\ntop {title} ({}):", rows.len());
            for (i, e) in rows.iter().enumerate() {
                let _ = writeln!(out, "{:<4} {:<10} {}", i + 1, e.count, e.key);
            }
        };
        top(&mut out, "ad domains", &self.top_ad_domains);
        top(&mut out, "fired rules", &self.top_rules);
        let dist = |out: &mut String, title: &str, rows: &[(f64, f64)]| {
            let cells: Vec<String> = rows
                .iter()
                .map(|(q, v)| format!("p{:02}={v:.2}", *q as u32))
                .collect();
            let _ = writeln!(out, "{title:<22} {}", cells.join("  "));
        };
        let _ = writeln!(out, "\ndistributions:");
        dist(&mut out, "ad share per user %", &self.ad_share_pct);
        dist(&mut out, "ad object bytes", &self.object_bytes);
        dist(&mut out, "rtb gap ms", &self.rtb_gap_ms);
        out
    }

    /// Deterministic NDJSON (served at `/population/ndjson`): one
    /// `population` summary line, one line per class, per ranked row,
    /// and per distribution.
    pub fn render_ndjson(&self) -> String {
        let mut out = String::with_capacity(2048);
        let _ = writeln!(
            out,
            "{{\"event\":\"population\",\"requests\":{},\"ad_requests\":{},\
             \"distinct_users\":{},\"distinct_sites\":{},\"active_browsers\":{},\
             \"exact_topk\":{},\"quantile_alpha\":{:.6}}}",
            self.requests,
            self.ad_requests,
            self.distinct_users,
            self.distinct_sites,
            self.active_browsers,
            self.exact_topk,
            self.quantile_alpha,
        );
        for c in &self.classes {
            let _ = writeln!(
                out,
                "{{\"event\":\"class\",\"class\":\"{}\",\"instances\":{},\"requests\":{},\
                 \"ad_requests\":{}}}",
                c.class.label(),
                c.instances,
                c.requests,
                c.ad_requests
            );
        }
        let ranked = |event: &str, rows: &[TopEntry], out: &mut String| {
            for (i, e) in rows.iter().enumerate() {
                let mut line = format!("{{\"event\":\"{event}\",\"rank\":{},\"key\":", i + 1);
                netsim::json::write_str(&mut line, &e.key);
                let _ = write!(line, ",\"count\":{},\"error\":{}}}", e.count, e.error);
                out.push_str(&line);
                out.push('\n');
            }
        };
        ranked("ad_domain", &self.top_ad_domains, &mut out);
        ranked("rule", &self.top_rules, &mut out);
        let dist = |series: &str, rows: &[(f64, f64)], out: &mut String| {
            let cells: Vec<String> = rows
                .iter()
                .map(|(q, v)| format!("\"p{:02}\":{v:.4}", *q as u32))
                .collect();
            let _ = writeln!(
                out,
                "{{\"event\":\"quantiles\",\"series\":\"{series}\",{}}}",
                cells.join(",")
            );
        };
        dist("ad_share_pct", &self.ad_share_pct, &mut out);
        dist("object_bytes", &self.object_bytes, &mut out);
        dist("rtb_gap_ms", &self.rtb_gap_ms, &mut out);
        out
    }

    /// Publish into a registry: the pre-rendered `/population` and
    /// `/population/ndjson` bodies, and the Table-3-so-far class gauges the
    /// `/statusz` plane reads.
    pub fn publish(&self, registry: &obs::Registry) {
        if !obs::enabled() {
            return;
        }
        registry.publish([
            ("/population", self.render()),
            ("/population/ndjson", self.render_ndjson()),
        ]);
        for c in &self.classes {
            registry
                .gauge_with("obs_population_class_users", &[("class", c.class.label())])
                .set(c.instances as f64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::PassiveClassifier;
    use crate::infer::UserClass;
    use crate::pipeline::{classify_trace, PipelineOptions};
    use abp_filter::FilterList;
    use http_model::headers::{RequestHeaders, ResponseHeaders};
    use http_model::transaction::Method;
    use http_model::{BrowserFamily, HttpTransaction, UserAgent};
    use netsim::record::{TlsConnection, Trace, TraceMeta, TraceRecord};

    fn tx(ts: f64, client: u32, ua: &str, host: &str, uri: &str) -> TraceRecord {
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
                user_agent: Some(ua.into()),
            },
            response: ResponseHeaders {
                status: 200,
                content_type: Some("image/gif".into()),
                content_length: Some(100),
                location: None,
            },
            tcp_handshake_ms: 1.0,
            http_handshake_ms: 31.0,
        })
    }

    fn classified(records: Vec<TraceRecord>, popts: PopulationOptions) -> ClassifiedTrace {
        let trace = Trace {
            meta: TraceMeta {
                name: "pop-t".into(),
                duration_secs: 100.0,
                subscribers: 4,
                start_hour: 0,
                start_weekday: 0,
            },
            records,
        };
        let classifier = PassiveClassifier::new(vec![
            FilterList::parse("easylist", "/banners/\n"),
            FilterList::parse("acceptable-ads", "@@||nice.example^\n"),
        ]);
        classify_trace(
            &trace,
            &classifier,
            PipelineOptions {
                population: popts,
                ..PipelineOptions::default()
            },
        )
    }

    fn sample(popts: PopulationOptions) -> ClassifiedTrace {
        let ff = UserAgent::desktop(
            BrowserFamily::Firefox,
            http_model::useragent::Os::Windows,
            38,
        )
        .raw;
        let mut records = Vec::new();
        // User 1: heavy ad consumer (class A shape).
        for i in 0..6 {
            records.push(tx(i as f64, 1, &ff, "ads.example", "/banners/a.gif"));
        }
        for i in 0..4 {
            records.push(tx(6.0 + i as f64, 1, &ff, "pub.example", "/index.html"));
        }
        // User 2: clean browsing.
        for i in 0..10 {
            records.push(tx(i as f64, 2, &ff, "pub.example", "/page.html"));
        }
        classified(records, popts)
    }

    fn on() -> PopulationOptions {
        PopulationOptions {
            enabled: true,
            active_min_requests: 5,
        }
    }

    #[test]
    fn pipeline_attaches_sketches_only_when_enabled() {
        let off = sample(PopulationOptions::default());
        assert!(off.population.is_none());
        let on = sample(on());
        let sk = on.population.as_ref().expect("sketches attached");
        assert_eq!(sk.object_bytes.count(), 6, "one size per ad request");
        assert!(sk.ad_domains.is_exact());
    }

    #[test]
    fn finish_trace_builds_classes_and_rankings() {
        let trace = sample(on());
        let report = finish_trace(&trace, &[], on());
        assert_eq!(report.requests, 20);
        assert_eq!(report.ad_requests, 6);
        assert_eq!(report.active_browsers, 2);
        // No download households: user 1 is high-ratio A, user 2 low-ratio D.
        let a = &report.classes[0];
        assert_eq!(a.class, UserClass::A);
        assert_eq!(a.instances, 1);
        let d = &report.classes[3];
        assert_eq!(d.class, UserClass::D);
        assert_eq!(d.instances, 1);
        assert_eq!(report.top_ad_domains[0].key, "ads.example");
        assert_eq!(report.top_ad_domains[0].count, 6);
        assert!(report.top_rules[0].key.starts_with("EasyList|"));
        assert!(report.exact_topk);
    }

    #[test]
    fn render_is_deterministic_and_ndjson_parses() {
        let trace = sample(on());
        let report = finish_trace(&trace, &[], on());
        assert_eq!(report.render(), report.render(), "pure function");
        let nd = report.render_ndjson();
        for line in nd.lines() {
            netsim::json::parse(line).expect("every population line parses");
        }
        assert!(nd.contains("\"event\":\"population\""));
        assert!(nd.contains("\"event\":\"class\""));
        assert!(nd.contains("\"event\":\"ad_domain\""));
    }

    #[test]
    fn sketch_merge_matches_single_pass() {
        let trace = sample(on());
        let mut whole = PopulationSketches::new(on());
        let mut a = PopulationSketches::new(on());
        let mut b = PopulationSketches::new(on());
        for (i, r) in trace.requests.iter().enumerate() {
            whole.observe(r);
            if i % 2 == 0 {
                a.observe(r);
            } else {
                b.observe(r);
            }
        }
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged, whole);
        let mut rev = b;
        rev.merge(&a);
        assert_eq!(rev, whole, "merge is commutative in the exact regime");
    }

    /// `sites` is fed only when a request's site host differs from the
    /// previous request's: the registers of feeding every request's. Every
    /// other request loses its page, so the site host alternates.
    #[test]
    fn hll_fed_once_per_site_run_equals_hll_fed_every_request() {
        let mut requests = sample(on()).requests;
        requests.iter_mut().step_by(2).for_each(|r| r.page = None);
        let mut sketches = PopulationSketches::new(on());
        let mut sites = Distinct64::new();
        for r in &requests {
            sketches.observe(r);
            let site = r.page.as_ref().map_or_else(|| r.url.host(), |p| p.host());
            sites.observe(site.as_bytes());
        }
        assert_eq!(sites.estimate(), 2);
        assert_eq!(sketches.sites, sites);
    }

    #[test]
    fn publish_sets_population_bodies_and_class_gauges() {
        let trace = sample(on());
        let report = finish_trace(&trace, &[], on());
        let registry = obs::Registry::new();
        report.publish(&registry);
        assert_eq!(registry.body("/population"), report.render());
        assert_eq!(registry.body("/population/ndjson"), report.render_ndjson());
        let snap = registry.snapshot();
        assert!(matches!(
            snap.get("obs_population_class_users", &[("class", "A")]),
            Some(obs::SampleValue::Gauge(v)) if (*v - 1.0).abs() < 1e-9
        ));
    }

    #[test]
    fn download_households_move_users_to_b_and_c() {
        let mut trace = sample(on());
        // Both users' households download EasyList: A -> B, D -> C.
        let download = |client_ip| TlsConnection {
            ts: 0.0,
            client_ip,
            server_ip: 9,
            server_port: 443,
            bytes: 1,
        };
        trace.https_flows = vec![download(1), download(2)];
        let report = finish_trace(&trace, &[9], on());
        assert_eq!(report.classes[1].instances, 1, "B");
        assert_eq!(report.classes[2].instances, 1, "C");
    }
}
