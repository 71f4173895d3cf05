//! The RBN trace driver: simulate the whole population over hours or days
//! and capture the traffic.

use crate::activity::ActivityProfile;
use crate::population::Population;
use netsim::record::{Trace, TraceMeta, TraceRecord};
use netsim::Capture;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use webgen::Ecosystem;

/// Driver knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct DriveConfig {
    /// Trace name (e.g. `RBN-1`).
    pub name: String,
    /// Capture duration in seconds.
    pub duration_secs: f64,
    /// Wall-clock hour at which the capture starts (0–23).
    pub start_hour: u32,
    /// Weekday at capture start (0 = Monday).
    pub start_weekday: u32,
    /// Simulation time step (activity is evaluated per slice).
    pub slice_secs: f64,
    /// RNG seed.
    pub seed: u64,
}

impl DriveConfig {
    /// The RBN-1 shape: 4 days from Saturday 00:00 (11 Apr 2015 was a
    /// Saturday).
    pub fn rbn1(duration_days: f64) -> DriveConfig {
        DriveConfig {
            name: "RBN-1".to_string(),
            duration_secs: duration_days * 86_400.0,
            start_hour: 0,
            start_weekday: 5,
            slice_secs: 600.0,
            seed: 0x0b51,
        }
    }

    /// The RBN-2 shape: 15.5 hours from Tuesday 15:30 (11 Aug 2015 was a
    /// Tuesday).
    pub fn rbn2(duration_hours: f64) -> DriveConfig {
        DriveConfig {
            name: "RBN-2".to_string(),
            duration_secs: duration_hours * 3600.0,
            start_hour: 15,
            start_weekday: 1,
            slice_secs: 600.0,
            seed: 0x0b52,
        }
    }

    /// The metadata of the trace this configuration captures from
    /// `households` subscribers.
    pub fn meta(&self, households: usize) -> TraceMeta {
        TraceMeta {
            name: self.name.clone(),
            duration_secs: self.duration_secs,
            subscribers: households,
            start_hour: self.start_hour,
            start_weekday: self.start_weekday,
        }
    }
}

/// Ground-truth tallies accumulated while driving (per browser).
#[derive(Debug, Clone, Default)]
pub struct BrowserGroundTruth {
    /// Requests issued.
    pub issued: u64,
    /// Requests blocked by the plugin.
    pub blocked: u64,
    /// Ground-truth ad-related requests issued.
    pub issued_ad_related: u64,
    /// Filter-list downloads performed.
    pub list_downloads: u64,
    /// Embedded text ads hidden.
    pub hidden_text_ads: u64,
}

/// Output of a drive: the captured trace plus per-browser ground truth.
pub struct DriveOutput {
    /// The captured trace.
    pub trace: Trace,
    /// Ground truth parallel to `population.browsers`.
    pub ground_truth: Vec<BrowserGroundTruth>,
    /// Raw→anonymized address mapping, for joining the trace back to the
    /// population's ground truth (never available to the analysis side).
    pub addr_map: std::collections::HashMap<u32, u32>,
}

/// Output of a streaming drive: everything [`DriveOutput`] carries except
/// the trace itself, which was emitted batch-by-batch instead.
pub struct StreamDriveOutput {
    /// Metadata of the emitted trace.
    pub meta: TraceMeta,
    /// Ground truth parallel to `population.browsers`.
    pub ground_truth: Vec<BrowserGroundTruth>,
    /// Raw→anonymized address mapping (see [`DriveOutput::addr_map`]).
    pub addr_map: std::collections::HashMap<u32, u32>,
}

/// Simulate the population and capture the traffic.
///
/// Browsers are visited slice by slice; within a slice each browser draws a
/// Poisson-ish number of page visits from its demand and the activity
/// profile, then picks sites Zipf-weighted. Plugin update checks run at
/// session starts (the first visit of a slice after an idle slice).
pub fn drive(
    eco: &Ecosystem,
    population: &mut Population,
    profile: &ActivityProfile,
    config: &DriveConfig,
) -> DriveOutput {
    let mut records = Vec::new();
    let out = drive_stream(eco, population, profile, config, |batch| {
        records.extend(batch)
    });
    DriveOutput {
        trace: Trace {
            meta: out.meta,
            records,
        },
        ground_truth: out.ground_truth,
        addr_map: out.addr_map,
    }
}

/// Drained slices queued between the simulation and `emit` in
/// [`drive_stream`].
const QUEUED_SLICES: usize = 2;

/// The streaming form of [`drive`]: identical simulation (same RNG
/// sequence, same records in the same order), but the capture buffer is
/// drained after every slice and handed to `emit` as time-ordered
/// batches. The simulation runs on a scoped helper thread; `emit` runs on
/// the caller's thread, in slice order, so it needs no `Send`. At most
/// `QUEUED_SLICES` drained slices wait between the two, so generation
/// overlaps whatever `emit` does with a batch, and peak memory is a few
/// slices of traffic — the one being simulated, the queued ones and the
/// one being emitted — instead of the whole trace. A panic in the
/// simulation resumes on the caller; one in `emit` stops the simulation at
/// its next slice and still joins it. [`drive`] is a thin collector over
/// this function.
pub fn drive_stream<F: FnMut(Vec<TraceRecord>)>(
    eco: &Ecosystem,
    population: &mut Population,
    profile: &ActivityProfile,
    config: &DriveConfig,
    mut emit: F,
) -> StreamDriveOutput {
    let (tx, rx) = parallel::bounded(QUEUED_SLICES);
    std::thread::scope(|scope| {
        // A dead receiver means `emit` panicked: the simulation stops.
        let generator = scope.spawn(move || {
            simulate(eco, population, profile, config, |batch| {
                tx.send(batch).is_ok()
            })
        });
        for batch in rx {
            emit(batch);
        }
        generator
            .join()
            .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
    })
}

/// The simulation behind [`drive_stream`], handing each drained slice to
/// `emit` on the thread it runs on; it stops early once `emit` returns
/// false.
fn simulate(
    eco: &Ecosystem,
    population: &mut Population,
    profile: &ActivityProfile,
    config: &DriveConfig,
    mut emit: impl FnMut(Vec<TraceRecord>) -> bool,
) -> StreamDriveOutput {
    let mut span = obs::global().span_with("browsersim_drive", &[("trace", &config.name)]);
    // Per-iteration tallies stay in locals; the span's event carries their
    // totals at the end of the drive.
    let mut visits_total = 0u64;
    let mut bursts_total = 0u64;
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut capture = Capture::new(config.meta(population.households), config.seed ^ 0xA0A0);
    let mut ground_truth = vec![BrowserGroundTruth::default(); population.browsers.len()];
    let mut was_active = vec![false; population.browsers.len()];

    let n_slices = (config.duration_secs / config.slice_secs).ceil() as usize;
    let mut records_total = 0u64;
    for slice in 0..n_slices {
        let t0 = slice as f64 * config.slice_secs;
        // --- Browsers ---
        for (bi, browser) in population.browsers.iter_mut().enumerate() {
            let truth = &population.truth[bi];
            let adblock_user = truth.plugin_name != "none";
            let expected = profile.expected_visits(
                t0,
                config.slice_secs,
                config.start_hour,
                config.start_weekday,
                truth.visits_per_day,
                adblock_user,
            );
            let visits = sample_poisson(expected, &mut rng);
            if visits == 0 {
                was_active[bi] = false;
                continue;
            }
            // Session start after idling: plugin update check.
            if !was_active[bi] {
                for ev in browser.update_events(eco, t0 + rng.gen_range(0.0..30.0), &mut rng) {
                    capture.observe(&ev, &mut rng);
                    ground_truth[bi].list_downloads += 1;
                }
            }
            was_active[bi] = true;
            visits_total += visits as u64;
            for _ in 0..visits {
                let ts = t0 + rng.gen_range(0.0..config.slice_secs);
                let pub_idx = pick_site(eco, ts, config, &mut rng);
                let publisher = &eco.publishers[pub_idx];
                let page_idx = rng.gen_range(0..publisher.pages.len());
                let (events, stats) = browser.visit_page(
                    eco,
                    publisher,
                    &publisher.pages[page_idx],
                    ts,
                    None,
                    &mut rng,
                );
                for ev in &events {
                    capture.observe(ev, &mut rng);
                }
                let gt = &mut ground_truth[bi];
                gt.issued += stats.issued as u64;
                gt.blocked += stats.blocked as u64;
                gt.issued_ad_related += stats.issued_ad_related as u64;
                gt.hidden_text_ads += stats.hidden_text_ads as u64;
            }
        }
        // --- Devices ---
        for device in &population.devices {
            let expected = device.requests_per_hour / 3.0
                * (config.slice_secs / 3600.0)
                * profile.weight(t0, config.start_hour, config.start_weekday, false);
            let bursts = sample_poisson(expected, &mut rng);
            bursts_total += bursts as u64;
            for _ in 0..bursts {
                let ts = t0 + rng.gen_range(0.0..config.slice_secs);
                for ev in device.burst(eco, ts, &mut rng) {
                    capture.observe(&ev, &mut rng);
                }
            }
        }
        // Everything below the next slice's start is final (no future
        // event can be earlier) — flush it. Events spilling past the
        // slice edge stay buffered until their cutoff passes.
        let batch = capture.drain_before((slice + 1) as f64 * config.slice_secs);
        if !batch.is_empty() {
            records_total += batch.len() as u64;
            if !emit(batch) {
                break;
            }
        }
    }
    let (trace, addr_map) = capture.finish_with_mapping();
    let meta = trace.meta;
    if !trace.records.is_empty() {
        records_total += trace.records.len() as u64;
        let _ = emit(trace.records);
    }
    span.count("page_visits", visits_total);
    span.count("device_bursts", bursts_total);
    span.count("records", records_total);
    drop(span);
    StreamDriveOutput {
        meta,
        ground_truth,
        addr_map,
    }
}

/// Zipf site choice with a nocturnal content shift: at night, streaming and
/// adult sites gain share (one of the paper's two explanations for the
/// diurnal ad-ratio pattern).
fn pick_site(eco: &Ecosystem, ts: f64, config: &DriveConfig, rng: &mut StdRng) -> usize {
    use webgen::SiteCategory;
    let hour = ((ts / 3600.0 + config.start_hour as f64) as u64 % 24) as usize;
    let night = !(7..23).contains(&hour);
    for _ in 0..4 {
        let idx = eco.top_sites.sample(rng);
        let cat = eco.publishers[idx].category;
        let keep = if night {
            match cat {
                SiteCategory::VideoStreaming | SiteCategory::Adult => true,
                SiteCategory::News | SiteCategory::Shopping => rng.gen_bool(0.5),
                _ => rng.gen_bool(0.8),
            }
        } else {
            match cat {
                SiteCategory::VideoStreaming | SiteCategory::Adult => rng.gen_bool(0.55),
                _ => true,
            }
        };
        if keep {
            return idx;
        }
    }
    eco.top_sites.sample(rng)
}

/// Sample a Poisson variate via inversion for small means, normal
/// approximation above.
pub fn sample_poisson<R: Rng + ?Sized>(mean: f64, rng: &mut R) -> usize {
    if mean <= 0.0 {
        return 0;
    }
    if mean > 30.0 {
        let z = netsim::rtt::standard_normal(rng);
        return (mean + z * mean.sqrt()).round().max(0.0) as usize;
    }
    let l = (-mean).exp();
    let mut k = 0usize;
    let mut p = 1.0;
    loop {
        p *= rng.gen_range(0.0..1.0f64);
        if p <= l || k > 500 {
            return k;
        }
        k += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::population::{Population, PopulationConfig};
    use rand::rngs::StdRng;
    use std::cell::RefCell;
    use std::rc::Rc;
    use webgen::EcosystemConfig;

    fn tiny_world() -> (Ecosystem, Population) {
        let eco = Ecosystem::generate(EcosystemConfig {
            publishers: 30,
            ad_companies: 6,
            trackers: 8,
            cdn_edges: 6,
            hosting_servers: 8,
            seed: 31,
            ..Default::default()
        });
        let pop = Population::generate(
            &eco,
            &PopulationConfig {
                households: 40,
                seed: 32,
                ..Default::default()
            },
        );
        (eco, pop)
    }

    #[test]
    fn poisson_mean_close() {
        let mut rng = StdRng::seed_from_u64(1);
        for mean in [0.3, 2.0, 8.0, 50.0] {
            let n = 3000;
            let total: usize = (0..n).map(|_| sample_poisson(mean, &mut rng)).sum();
            let emp = total as f64 / n as f64;
            assert!(
                (emp - mean).abs() < mean * 0.15 + 0.1,
                "mean {mean} got {emp}"
            );
        }
        assert_eq!(sample_poisson(0.0, &mut rng), 0);
    }

    #[test]
    fn drive_produces_ordered_trace_with_ads() {
        let (eco, mut pop) = tiny_world();
        let out = drive(
            &eco,
            &mut pop,
            &ActivityProfile::default(),
            &DriveConfig {
                name: "T".into(),
                duration_secs: 2.0 * 3600.0,
                start_hour: 20, // evening: high activity
                start_weekday: 1,
                slice_secs: 600.0,
                seed: 7,
            },
        );
        assert!(out.trace.is_time_ordered());
        assert!(
            out.trace.http_count() > 500,
            "got {}",
            out.trace.http_count()
        );
        let issued: u64 = out.ground_truth.iter().map(|g| g.issued).sum();
        let ads: u64 = out.ground_truth.iter().map(|g| g.issued_ad_related).sum();
        assert!(issued > 0 && ads > 0);
        // Ground-truth ad share among *browser* requests is substantial.
        let share = ads as f64 / issued as f64;
        assert!((0.05..0.5).contains(&share), "ad share {share}");
    }

    #[test]
    fn drive_stream_batches_concatenate_to_the_materialized_trace() {
        let cfg = DriveConfig {
            name: "S".into(),
            duration_secs: 2.0 * 3600.0,
            start_hour: 20,
            start_weekday: 1,
            slice_secs: 600.0,
            seed: 17,
        };
        let (eco, mut pop) = tiny_world();
        let materialized = drive(&eco, &mut pop, &ActivityProfile::default(), &cfg);
        let (eco2, mut pop2) = tiny_world();
        let mut batches: Vec<Vec<TraceRecord>> = Vec::new();
        let out = drive_stream(&eco2, &mut pop2, &ActivityProfile::default(), &cfg, |b| {
            batches.push(b)
        });
        assert!(
            batches.len() > 1,
            "multi-slice drive emits multiple batches"
        );
        // Batches are internally ordered and never overlap in time...
        for pair in batches.windows(2) {
            let last = pair[0].last().unwrap().ts();
            let first = pair[1].first().unwrap().ts();
            assert!(last <= first, "batch boundary out of order");
        }
        // ... and concatenate to exactly the materialized drive.
        let concat: Vec<TraceRecord> = batches.into_iter().flatten().collect();
        assert_eq!(concat, materialized.trace.records);
        assert_eq!(out.meta, materialized.trace.meta);
        assert_eq!(out.ground_truth.len(), materialized.ground_truth.len());
        for (a, b) in out.ground_truth.iter().zip(&materialized.ground_truth) {
            assert_eq!(a.issued, b.issued);
            assert_eq!(a.blocked, b.blocked);
        }
    }

    #[test]
    fn drive_stream_emits_on_the_calling_thread_in_slice_order() {
        let cfg = DriveConfig {
            name: "C".into(),
            duration_secs: 3.0 * 3600.0,
            start_hour: 19,
            start_weekday: 4,
            slice_secs: 600.0,
            seed: 23,
        };
        let (eco, mut pop) = tiny_world();
        let materialized = drive(&eco, &mut pop, &ActivityProfile::default(), &cfg);
        let (eco2, mut pop2) = tiny_world();
        let caller = std::thread::current().id();
        // `Rc` is not `Send`: `emit` may hold it because it never leaves
        // this thread.
        let collected = Rc::new(RefCell::new(Vec::new()));
        let mut slices = Vec::new();
        let sink = Rc::clone(&collected);
        drive_stream(
            &eco2,
            &mut pop2,
            &ActivityProfile::default(),
            &cfg,
            |batch| {
                assert_eq!(std::thread::current().id(), caller);
                let first = batch.first().expect("no empty batch").ts();
                // Each batch holds the records of one slice or, last, the
                // capture's tail past the final slice edge.
                slices.push((first / cfg.slice_secs).floor() as usize);
                sink.borrow_mut().extend(batch);
            },
        );
        assert!(slices.len() > 2, "multi-slice drive emits several batches");
        assert!(slices.windows(2).all(|w| w[0] < w[1]), "{slices:?}");
        assert_eq!(*collected.borrow(), materialized.trace.records);
    }

    #[test]
    fn a_panicking_emit_unwinds_to_the_caller() {
        let (eco, mut pop) = tiny_world();
        let cfg = DriveConfig {
            seed: 29,
            ..DriveConfig::rbn2(2.0)
        };
        let mut batches = 0;
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            drive_stream(&eco, &mut pop, &ActivityProfile::default(), &cfg, |_| {
                batches += 1;
                panic!("emit failed");
            })
        }));
        let panic = unwound.err().expect("the panic reaches the caller");
        assert_eq!(panic.downcast_ref::<&str>(), Some(&"emit failed"));
        assert_eq!(batches, 1);
    }

    #[test]
    fn adblock_browsers_block_requests() {
        let (eco, mut pop) = tiny_world();
        let out = drive(
            &eco,
            &mut pop,
            &ActivityProfile::default(),
            &DriveConfig {
                name: "T".into(),
                duration_secs: 3.0 * 3600.0,
                start_hour: 19,
                start_weekday: 2,
                slice_secs: 600.0,
                seed: 9,
            },
        );
        let mut abp_blocked = 0u64;
        let mut abp_issued_ads = 0u64;
        let mut abp_issued = 0u64;
        let mut vanilla_ads = 0u64;
        let mut vanilla_issued = 0u64;
        for (gt, truth) in out.ground_truth.iter().zip(&pop.truth) {
            if truth.plugin_name == "adblock-plus" {
                abp_blocked += gt.blocked;
                abp_issued_ads += gt.issued_ad_related;
                abp_issued += gt.issued;
            } else if truth.plugin_name == "none" {
                vanilla_ads += gt.issued_ad_related;
                vanilla_issued += gt.issued;
            }
        }
        assert!(abp_blocked > 0);
        if abp_issued > 500 && vanilla_issued > 500 {
            let abp_ratio = abp_issued_ads as f64 / abp_issued as f64;
            let vanilla_ratio = vanilla_ads as f64 / vanilla_issued as f64;
            assert!(
                abp_ratio < vanilla_ratio * 0.7,
                "abp {abp_ratio} vs vanilla {vanilla_ratio}"
            );
        }
    }

    #[test]
    fn list_downloads_visible_as_https_to_abp_servers() {
        let (eco, mut pop) = tiny_world();
        let out = drive(
            &eco,
            &mut pop,
            &ActivityProfile::default(),
            &DriveConfig {
                name: "T".into(),
                duration_secs: 6.0 * 3600.0,
                start_hour: 18,
                start_weekday: 3,
                slice_secs: 600.0,
                seed: 11,
            },
        );
        let downloads: u64 = out.ground_truth.iter().map(|g| g.list_downloads).sum();
        let https_to_abp = out
            .trace
            .https_flows()
            .filter(|f| eco.abp_ips.contains(&f.server_ip))
            .count() as u64;
        assert_eq!(
            downloads, https_to_abp,
            "every download visible as HTTPS flow"
        );
        // With randomized phases, a 6 h window should catch some updates.
        assert!(downloads > 0, "no list downloads simulated");
    }

    #[test]
    fn more_activity_in_evening_than_night() {
        let (eco, mut pop) = tiny_world();
        let evening = drive(
            &eco,
            &mut pop,
            &ActivityProfile::default(),
            &DriveConfig {
                name: "E".into(),
                duration_secs: 2.0 * 3600.0,
                start_hour: 20,
                start_weekday: 1,
                slice_secs: 600.0,
                seed: 13,
            },
        );
        let (eco2, mut pop2) = tiny_world();
        let night = drive(
            &eco2,
            &mut pop2,
            &ActivityProfile::default(),
            &DriveConfig {
                name: "N".into(),
                duration_secs: 2.0 * 3600.0,
                start_hour: 3,
                start_weekday: 1,
                slice_secs: 600.0,
                seed: 13,
            },
        );
        assert!(
            evening.trace.http_count() > night.trace.http_count() * 2,
            "evening {} night {}",
            evening.trace.http_count(),
            night.trace.http_count()
        );
    }
}
