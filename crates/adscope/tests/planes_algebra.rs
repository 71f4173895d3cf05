//! The plane set's algebra, for every plane at once: however one stream of
//! records, requests and quarantined timestamps is cut into parts, and in
//! whatever grouping and order the parts are merged, the totals are those of
//! the stream never cut. That is what lets a worker cut at any barrier and
//! the router merge cuts from any number of workers. (That the totals survive
//! the checkpoint manifest exactly is held beside the codec, which keeps its
//! keys to itself: `stream::checkpoint::tests`.) The same stream, cuts and
//! groupings carry a `Figures` beside each `Planes`: the run's fold argument
//! obeys the same algebra.

mod common;

use adscope::characterize::Figures;
use adscope::extract::extract_full;
use adscope::pipeline::{classify_trace, ClassifiedRequest, PipelineOptions};
use adscope::planes::{PlaneTotals, Planes};
use adscope::stream::{Fold, StreamOptions};
use common::{classifier, messy_trace};
use netsim::record::{RecordView, TlsConnection, Trace, TraceRecord};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Filter-list server addresses: some of the generated HTTPS flows point at
/// them (the download-household plane), some elsewhere.
const ABP_IPS: [u32; 2] = [900, 901];

/// One thing a thread folds into its planes.
enum Event<'a> {
    Record(&'a TraceRecord),
    Request(&'a ClassifiedRequest),
    Quarantined(f64),
}

impl Event<'_> {
    fn ts(&self) -> f64 {
        match self {
            Event::Record(r) => r.ts(),
            Event::Request(r) => r.ts,
            Event::Quarantined(ts) => *ts,
        }
    }

    /// Fold the event, bumping a degradation counter beside it so that
    /// plane is exercised as the stages that own its counters would.
    fn fold_into(&self, (planes, figures): &mut (Planes, Figures)) {
        match self {
            Event::Record(rec) => planes.observe_record(&RecordView::of(rec)),
            Event::Request(req) => {
                if req.page.is_none() {
                    planes.degradation().refmap_misses += 1;
                }
                planes.observe(req);
                figures.observe(0, req);
            }
            Event::Quarantined(ts) => {
                planes.degradation().unparseable_urls += 1;
                planes.observe_quarantined(*ts);
            }
        }
    }
}

/// The streaming configuration, population on or off.
fn stream_opts(population: bool) -> StreamOptions {
    let mut opts = StreamOptions {
        abp_ips: ABP_IPS.to_vec(),
        ..common::stream_opts(1, 16)
    };
    opts.pipeline.population.enabled = population;
    opts.pipeline.population.active_min_requests = 3;
    opts
}

/// `common::messy_trace` with HTTPS flows sprinkled in, and what the
/// materialized flow makes of it: the classified requests and the
/// timestamps of the records quarantined before classification.
fn generated(
    n: usize,
    users: u32,
    seed: u64,
    opts: PipelineOptions,
) -> (Trace, Vec<ClassifiedRequest>, Vec<f64>) {
    let mut trace = messy_trace(n, users, seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED);
    for i in 0..n / 4 + 1 {
        let flow = TlsConnection {
            ts: rng.gen_range(0.0..n as f64 * 0.2 + 1.0),
            client_ip: rng.gen_range(1..=users),
            server_ip: if rng.gen_bool(0.5) {
                ABP_IPS[i % ABP_IPS.len()]
            } else {
                rng.gen_range(10..20)
            },
            server_port: if rng.gen_bool(0.8) { 443 } else { 8443 },
            bytes: rng.gen_range(100..10_000),
        };
        trace.records.push(TraceRecord::Https(flow));
    }
    let classified = classify_trace(&trace, &classifier(), opts);
    let (_, _, quarantined_ts) = extract_full(&trace);
    (trace, classified.requests, quarantined_ts)
}

/// Every event of the generated stream, in timestamp order.
fn events<'a>(
    records: &'a [TraceRecord],
    requests: &'a [ClassifiedRequest],
    quarantined_ts: &[f64],
) -> Vec<Event<'a>> {
    let mut events: Vec<Event<'a>> = records.iter().map(Event::Record).collect();
    events.extend(requests.iter().map(Event::Request));
    events.extend(quarantined_ts.iter().map(|&ts| Event::Quarantined(ts)));
    events.sort_by(|a, b| a.ts().total_cmp(&b.ts()));
    events
}

/// One thread's live state: its planes and its part of the run's fold.
fn thread(opts: &StreamOptions) -> (Planes, Figures) {
    (Planes::new(opts.pipeline, &ABP_IPS), Figures::new())
}

/// Cut both: the planes' totals since the last cut, and the figures so far.
fn cut((planes, figures): &mut (Planes, Figures)) -> (PlaneTotals, Figures) {
    let part = std::mem::replace(figures, Figures::new());
    (planes.cut(), part)
}

fn sum<'a>(
    opts: &StreamOptions,
    parts: impl IntoIterator<Item = &'a (PlaneTotals, Figures)>,
) -> (PlaneTotals, Figures) {
    let mut total = (PlaneTotals::new(opts.pipeline.population), Figures::new());
    for (totals, figures) in parts {
        total.0.merge(totals);
        total.1.merge(figures.clone());
    }
    total
}

proptest! {
    /// Cut anywhere, merge in any grouping and any order == never cut, on
    /// the totals type — windows, decode windows, sketches, households, the
    /// three counters and the degradation counters at once — and on every
    /// figure of `Figures`.
    #[test]
    fn cut_anywhere_and_merged_in_any_grouping_and_order_equals_never_cut(
        n in 1usize..120,
        users in 1u32..8,
        cuts in 0usize..6,
        population in 0u8..2,
        seed in 0u64..1000,
    ) {
        let opts = stream_opts(population == 1);
        let (trace, requests, quarantined_ts) = generated(n, users, seed, opts.pipeline);
        let events = events(&trace.records, &requests, &quarantined_ts);
        let mut never_cut = thread(&opts);
        for e in &events {
            e.fold_into(&mut never_cut);
        }
        let want = cut(&mut never_cut);

        // Two threads' worth of planes, each event folded by one of them,
        // both cut at every cut point: barriers at random places.
        let mut rng = StdRng::seed_from_u64(seed ^ 0xC07);
        let mut cut_at: Vec<usize> = (0..cuts).map(|_| rng.gen_range(0..=events.len())).collect();
        cut_at.sort_unstable();
        let mut threads = [thread(&opts), thread(&opts)];
        let mut parts: Vec<(PlaneTotals, Figures)> = Vec::new();
        for (i, e) in events.iter().enumerate() {
            while cut_at.first() == Some(&i) {
                cut_at.remove(0);
                parts.extend(threads.iter_mut().map(cut));
            }
            e.fold_into(&mut threads[rng.gen_range(0..2)]);
        }
        parts.extend(threads.iter_mut().map(cut));

        prop_assert_eq!(&sum(&opts, &parts), &want, "in order");
        prop_assert_eq!(&sum(&opts, parts.iter().rev()), &want, "in reverse");
        // Grouped: neighbours summed first, then the sums, last group first.
        let groups: Vec<_> = parts.chunks(3).map(|g| sum(&opts, g)).collect();
        prop_assert_eq!(&sum(&opts, groups.iter().rev()), &want, "grouped");
    }
}
