//! The plane set: everything this crate folds per record, declared once.
//!
//! A *plane* is a mergeable per-record aggregate, and [`Planes`] is the set
//! of them in one form: each plane is its own total, additive in place. A
//! thread observes records into one; a cut replaces it with a fresh one
//! ([`Planes::cut`]); [`Planes::merge`] adds one set into another and a
//! checkpoint persists one. Every field merges in any grouping (the window
//! series too: windows close only at the end of a run), so where the cuts
//! fall cannot change the sum.
//!
//! Every path folds the same set: each stream worker and the router observe
//! one and cut it at barriers, the run's cumulative state is one, and the
//! materialized kernel folds one over its request vector. A checkpoint
//! carries the set, and nothing of a caller's [`crate::stream::Fold`], so a
//! result that must survive a kill is read off a plane: Figures 5a and 5b
//! off the window plane ([`crate::characterize::timeseries`]).
//!
//! What is kept per ⟨IP, UA⟩ user is not a plane: it is the user's counter
//! block ([`crate::users::UserTally`]), which the stream engine keeps in each
//! user's worker state and sums into its user table ([`crate::users`]). No
//! plane reads it while records are folded: every count per user, distinct
//! users among them, is read from that table when a report is built
//! ([`PopulationSketches::finish`]). So every path folds a request into the
//! planes the same way, through [`Planes::observe`].
//!
//! **Adding a plane** is a field here, with one line in the `observe` that
//! feeds it and one in [`Planes::merge`], and its encode / decode pair in
//! `stream::checkpoint`.

use crate::degrade::DegradationReport;
use crate::infer;
use crate::pipeline::{ClassifiedRequest, PipelineOptions};
use crate::population::PopulationSketches;
use crate::window;
use netsim::codec::{observe_decode, DECODE_COUNTERS};
use netsim::record::RecordView;
use obs::window::WindowSeries;
use std::collections::HashSet;

/// One thread's fold between two cuts, or a whole run's.
#[derive(Debug, Clone, PartialEq)]
pub struct Planes {
    /// Adscope window series: classified requests and quarantined records.
    pub windows: WindowSeries,
    /// Decode-side window series (records / http / https / bytes), hourly.
    pub decode_windows: WindowSeries,
    /// The population sketches; `None` unless the population plane is on.
    pub population: Option<PopulationSketches>,
    /// Households (client IPs) seen in an `infer::is_list_download` flow
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
    /// What a fresh set is built from.
    opts: PipelineOptions,
}

impl Planes {
    /// An empty set under `opts`.
    pub fn new(opts: PipelineOptions) -> Planes {
        Planes {
            windows: window::series(opts.window),
            decode_windows: WindowSeries::new(&DECODE_COUNTERS, &[], 3600.0),
            population: opts
                .population
                .enabled
                .then(|| PopulationSketches::new(opts.population)),
            households: HashSet::new(),
            requests: 0,
            ads: 0,
            https_flows: 0,
            degradation: DegradationReport::default(),
            opts,
        }
    }

    /// Add `other` in (the stream merges workers in index order, the router
    /// last: the canonical order of its determinism contract).
    pub fn merge(&mut self, other: &Planes) {
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

    /// Everything folded since the last cut, leaving a fresh set in its place.
    pub fn cut(&mut self) -> Planes {
        let fresh = Planes::new(self.opts);
        std::mem::replace(self, fresh)
    }

    /// Fold one classified request into every plane that reads requests.
    pub fn observe(&mut self, req: &ClassifiedRequest) {
        self.requests += 1;
        if req.label.is_ad() {
            self.ads += 1;
        }
        window::observe(&mut self.windows, req);
        if let Some(sketches) = &mut self.population {
            sketches.observe(req);
        }
    }

    /// Count one quarantined record (unparseable URL or poisoned) in its
    /// window: the `quarantine_burst` alert rule's input series. Zero
    /// counters are elided from a report's windows, so clean traces render
    /// without it.
    pub fn observe_quarantined(&mut self, ts: f64) {
        self.windows.at(ts).count(window::QUARANTINED, 1);
    }

    /// Fold one decoded record, as its reader lends it: the decode windows,
    /// and for an HTTPS flow the flow count and, if it fetches a filter list
    /// from one of `abp_ips`, the download households.
    pub fn observe_record(&mut self, rec: &RecordView<'_>, abp_ips: &HashSet<u32>) {
        observe_decode(&mut self.decode_windows, rec);
        if let RecordView::Https(conn) = rec {
            self.https_flows += 1;
            if infer::is_list_download(conn, abp_ips) {
                self.households.insert(conn.client_ip);
            }
        }
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
}
