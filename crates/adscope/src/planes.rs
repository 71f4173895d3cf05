//! The plane set: everything this crate folds per record, declared once.
//!
//! A *plane* is a mergeable per-record aggregate. The set has two forms:
//! [`Planes`], the live accumulators one thread folds records into, and
//! [`PlaneTotals`], the additive totals a [`Planes::cut`] produces, a
//! [`PlaneTotals::merge`] sums and a checkpoint persists. Every field merges
//! in any grouping (the window series too: windows close only at the end of
//! a run), so where the cuts fall cannot change the sum.
//!
//! Every path folds the same set: each stream worker and the router hold one
//! and cut it at barriers, the run's cumulative state is a `PlaneTotals`, and
//! the materialized kernel folds one over its request vector.
//!
//! What is kept per ⟨IP, UA⟩ user is not a plane: it is the user's counter
//! block ([`UserTally`]), which the stream engine keeps in each user's worker
//! state and sums into its user table ([`crate::users`]). A plane that reads
//! it takes it beside the request (`Planes::observe_user`).
//!
//! **Adding a plane** is two places: here — a field on [`PlaneTotals`] (and
//! a live accumulator on [`Planes`] when its live form is not its total),
//! a line in the `observe` that feeds it and one in `merge` — and its
//! encode / decode pair in `stream::checkpoint`.

use crate::degrade::DegradationReport;
use crate::infer;
use crate::pipeline::{ClassifiedRequest, PipelineOptions};
use crate::population::{PopulationOptions, PopulationSketches};
use crate::users::UserTally;
use crate::window::WindowAggregator;
use netsim::codec::DecodeWindows;
use netsim::record::RecordView;
use obs::window::WindowReport;
use std::collections::HashSet;

/// The additive form: one thread's fold between two cuts, or a whole run's.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PlaneTotals {
    /// Adscope window series: classified requests and quarantined records.
    pub windows: WindowReport,
    /// Decode-side window series (records / http / https / bytes).
    pub decode_windows: WindowReport,
    /// The population sketches; `None` unless [`PopulationOptions::enabled`].
    pub population: Option<PopulationSketches>,
    /// Households (client IPs) seen in an [`infer::is_list_download`] flow
    /// (§6.2): the download indicator of Table 3.
    pub households: HashSet<u32>,
    /// Requests classified.
    pub requests: u64,
    /// Ad requests among them.
    pub ads: u64,
    /// Opaque HTTPS flows seen.
    pub https_flows: u64,
    /// Degraded input absorbed, counted by the stage that meets it.
    pub degradation: DegradationReport,
}

impl PlaneTotals {
    /// Totals of nothing.
    pub fn new(population: PopulationOptions) -> PlaneTotals {
        PlaneTotals {
            population: population
                .enabled
                .then(|| PopulationSketches::new(population)),
            ..PlaneTotals::default()
        }
    }

    /// Add `other` in (the stream merges workers in index order, the router
    /// last: the canonical order of its determinism contract).
    pub fn merge(&mut self, other: &PlaneTotals) {
        self.windows.merge(&other.windows);
        self.decode_windows.merge(&other.decode_windows);
        if let (Some(mine), Some(theirs)) = (&mut self.population, &other.population) {
            mine.merge(theirs);
        }
        self.households.extend(&other.households);
        self.requests += other.requests;
        self.ads += other.ads;
        self.https_flows += other.https_flows;
        self.degradation.absorb(&other.degradation);
    }
}

/// The live form of the set: one thread's accumulators since its last cut.
#[derive(Debug)]
pub struct Planes {
    windows: WindowAggregator,
    decode: DecodeWindows,
    abp_ips: HashSet<u32>,
    population: PopulationOptions,
    /// The planes whose live form is their total; its two window reports
    /// stay empty until [`Planes::cut`] closes the engines into them.
    acc: PlaneTotals,
}

impl Planes {
    /// An empty set under `opts`. `abp_ips` are the filter-list servers
    /// [`infer::is_list_download`] matches record views against.
    pub fn new(opts: PipelineOptions, abp_ips: &[u32]) -> Planes {
        Planes {
            windows: WindowAggregator::new(opts.window),
            decode: DecodeWindows::hourly(),
            abp_ips: abp_ips.iter().copied().collect(),
            population: opts.population,
            acc: PlaneTotals::new(opts.population),
        }
    }

    /// Fold one classified request into every plane that reads requests.
    pub fn observe(&mut self, req: &ClassifiedRequest) {
        self.observe_counts(req);
        if let Some(sketches) = &mut self.acc.population {
            sketches.observe(req);
        }
    }

    /// [`Planes::observe`] for the stream engine, which keeps each user's
    /// counters itself: `user` is the request's user's, and counts it too.
    pub(crate) fn observe_user(&mut self, req: &ClassifiedRequest, user: &mut UserTally) {
        self.observe_counts(req);
        if let Some(sketches) = &mut self.acc.population {
            sketches.observe_counted(req, user.requests == 0);
        }
        user.observe(req);
    }

    fn observe_counts(&mut self, req: &ClassifiedRequest) {
        self.acc.requests += 1;
        if req.label.is_ad() {
            self.acc.ads += 1;
        }
        self.windows.observe(req);
    }

    /// Count one quarantined record (unparseable URL or poisoned).
    pub fn observe_quarantined(&mut self, ts: f64) {
        self.windows.observe_quarantined(ts);
    }

    /// Fold one decoded record, as its reader lends it: the decode windows,
    /// and for an HTTPS flow the flow count and the download households.
    pub fn observe_record(&mut self, rec: &RecordView<'_>) {
        self.decode.observe(rec);
        if let RecordView::Https(conn) = rec {
            self.acc.https_flows += 1;
            if infer::is_list_download(conn, &self.abp_ips) {
                self.acc.households.insert(conn.client_ip);
            }
        }
    }

    /// The degradation counters since the last cut, to count into.
    pub fn degradation(&mut self) -> &mut DegradationReport {
        &mut self.acc.degradation
    }

    /// Fold a request vector, then the timestamps of the records quarantined
    /// before classification.
    pub fn fold(&mut self, requests: &[ClassifiedRequest], quarantined_ts: &[f64]) {
        for r in requests {
            self.observe(r);
        }
        for &ts in quarantined_ts {
            self.observe_quarantined(ts);
        }
    }

    /// Take everything accumulated since the last cut; the set stays live.
    pub fn cut(&mut self) -> PlaneTotals {
        let mut totals = std::mem::replace(&mut self.acc, PlaneTotals::new(self.population));
        totals.windows = self.windows.cut();
        totals.decode_windows =
            std::mem::replace(&mut self.decode, DecodeWindows::hourly()).finish();
        totals
    }
}
