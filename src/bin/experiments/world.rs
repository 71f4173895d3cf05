//! Shared world construction for every subcommand: one ecosystem and its
//! four-list classifier, one active crawl, and the one recipe for the two
//! RBN captures, over it or an evolved one ([`World::rbn_setup`]). A capture
//! streams from the generator into the engine, which folds every figure of
//! the paper once; only `population --exact-check`'s oracle holds one.

use crate::cli::die;
use adscope::characterize::Figures;
use adscope::stream::{classify_stream_chunks, Fold};
use adscope::{StreamOptions, StreamReport};
use annoyed_users::prelude::*;
use browsersim::active::{run_crawl, ActiveResults};
use browsersim::drive::{drive_pull, StreamDriveOutput};
use netsim::stream::SliceChunks;
use std::cell::OnceCell;
use std::path::Path;
use std::time::Instant;

/// Experiment scale presets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd)]
pub enum Scale {
    /// Seconds-fast smoke scale.
    Small,
    /// Default: minutes, statistically stable.
    Medium,
    /// Closer to paper proportions (slow).
    Large,
}

/// What a [`Scale`] sizes.
pub struct Knobs {
    pub publishers: usize,
    pub ad_companies: usize,
    pub trackers: usize,
    pub crawl_sites: usize,
    pub rbn2_households: usize,
    pub rbn2_hours: f64,
    pub rbn1_households: usize,
    pub rbn1_days: f64,
}

/// Which of the paper's two captures.
#[derive(Debug, Clone, Copy)]
pub enum Rbn {
    /// RBN-1: the multi-day characterization trace.
    One,
    /// RBN-2: the 15.5 h peak trace, the usage-inference trace.
    Two,
}

impl std::str::FromStr for Scale {
    type Err = ();
    fn from_str(s: &str) -> Result<Scale, ()> {
        match s {
            "small" => Ok(Scale::Small),
            "medium" => Ok(Scale::Medium),
            "large" => Ok(Scale::Large),
            _ => Err(()),
        }
    }
}

impl Scale {
    /// Canonical name, as accepted by `--scale` (used in run manifests
    /// and replay argvs).
    pub fn as_str(self) -> &'static str {
        match self {
            Scale::Small => "small",
            Scale::Medium => "medium",
            Scale::Large => "large",
        }
    }

    pub fn knobs(self) -> Knobs {
        let (
            publishers,
            ad_companies,
            trackers,
            crawl_sites,
            rbn2_households,
            rbn2_hours,
            rbn1_households,
            rbn1_days,
        ) = match self {
            Scale::Small => (120, 14, 16, 120, 60, 6.0, 40, 1.0),
            Scale::Medium => (400, 28, 36, 1000, 300, 15.5, 150, 4.0),
            Scale::Large => (800, 40, 60, 1000, 900, 15.5, 400, 4.0),
        };
        Knobs {
            publishers,
            ad_companies,
            trackers,
            crawl_sites,
            rbn2_households,
            rbn2_hours,
            rbn1_households,
            rbn1_days,
        }
    }
}

/// Read a trace file through the lossy decoder; skipped lines are noted
/// on stderr under `tag`.
pub fn read_trace_file(tag: &str, path: &Path) -> Trace {
    let shown = path.display();
    let bytes =
        std::fs::read(path).unwrap_or_else(|e| die(format!("cannot read trace {shown}: {e}")));
    let (trace, stats) = netsim::codec::read_trace_lossy(bytes.as_slice())
        .unwrap_or_else(|e| die(format!("cannot decode trace {shown}: {e}")));
    if stats.total_skipped() > 0 {
        eprintln!(
            "[{tag}] lossy read skipped {} line(s) of {shown}",
            stats.total_skipped()
        );
    }
    trace
}

/// The lazily built shared world.
pub struct World {
    pub scale: Scale,
    /// The ecosystem seed (recorded in run manifests).
    pub seed: u64,
    pub eco: Ecosystem,
    pub classifier: PassiveClassifier,
    /// The stream engine's worker threads (`--threads`; 0 = this machine's
    /// available parallelism).
    pub threads: usize,
    rbn: [OnceCell<RbnData>; 2],
}

/// One RBN capture as the stream engine folded it, with the population's
/// ground truth.
pub struct RbnData {
    /// Totals, windows, the user table, the download households and the
    /// capture's metadata.
    pub report: StreamReport,
    /// Every other §6–§8 figure.
    pub figures: Figures,
    /// The classifier against the generator's ground truth: requests by
    /// `[is an ad in truth][classified as one]`.
    pub confusion: [[u64; 2]; 2],
    pub truth: Vec<browsersim::population::BrowserTruth>,
    pub ground: Vec<browsersim::drive::BrowserGroundTruth>,
    /// Raw→anonymized address mapping (ground-truth joins only).
    pub addr_map: std::collections::HashMap<u32, u32>,
    pub households: usize,
}

impl World {
    pub fn new(scale: Scale, seed: u64, threads: usize) -> World {
        let Knobs {
            publishers,
            ad_companies,
            trackers,
            ..
        } = scale.knobs();
        let t = Instant::now();
        let eco = Ecosystem::generate(EcosystemConfig {
            publishers,
            ad_companies,
            trackers,
            seed,
            ..Default::default()
        });
        let classifier = PassiveClassifier::new(vec![
            eco.lists.easylist(),
            eco.lists.regional(),
            eco.lists.easyprivacy(),
            eco.lists.acceptable(),
        ]);
        eprintln!(
            "[world] ecosystem: {} publishers, {} companies, {} servers, {} filter rules ({:.1}s)",
            eco.publishers.len(),
            eco.companies.len(),
            eco.servers.len(),
            classifier.rule_count(),
            t.elapsed().as_secs_f64()
        );
        World {
            scale,
            seed,
            eco,
            classifier,
            threads,
            rbn: Default::default(),
        }
    }

    /// The §4 active crawl: seven profile traces, run anew for the id that
    /// asks and dropped with it.
    pub fn active(&self) -> ActiveResults {
        let t = Instant::now();
        let Knobs { crawl_sites, .. } = self.scale.knobs();
        let sites = crawl_sites.min(self.eco.publishers.len());
        let res = run_crawl(
            &self.eco,
            &ActiveConfig {
                sites,
                seed: 0xAC71,
            },
        );
        eprintln!(
            "[world] active crawl: {sites} sites x 7 profiles ({:.1}s)",
            t.elapsed().as_secs_f64()
        );
        res
    }

    /// One of the two captures, generated and folded on first use.
    pub fn rbn(&self, which: Rbn) -> &RbnData {
        self.rbn[which as usize].get_or_init(|| self.drive_rbn(which))
    }

    /// The one RBN recipe: the capture's shape and its seeded population
    /// over `eco` — this world's ecosystem, or one evolved from it.
    pub fn rbn_setup(&self, eco: &Ecosystem, which: Rbn) -> (DriveConfig, Population) {
        let k = self.scale.knobs();
        let (config, households, seed) = match which {
            Rbn::One => (DriveConfig::rbn1(k.rbn1_days), k.rbn1_households, 0xB51),
            Rbn::Two => (DriveConfig::rbn2(k.rbn2_hours), k.rbn2_households, 0xB52),
        };
        let pop = Population::generate(
            eco,
            &PopulationConfig {
                households,
                seed,
                ..Default::default()
            },
        );
        (config, pop)
    }

    /// Lend a materialized trace to the streaming engine in chunks — the
    /// same router and shard workers `experiments stream` runs — folding
    /// `fold` (empty as passed) beside the planes.
    pub fn stream_trace<F: Fold>(
        &self,
        trace: &Trace,
        opts: &StreamOptions,
        fold: F,
    ) -> (StreamReport, F) {
        let chunks = SliceChunks(trace.records.chunks(opts.chunk_records));
        let meta = trace.meta.clone();
        classify_stream_chunks(chunks, meta, &self.classifier, opts, obs::global(), fold)
            .unwrap_or_else(|e| die(format!("stream failed: {e}")))
    }

    /// Generate one capture over this world's ecosystem straight into the
    /// stream engine: each slice the generator drains is routed to the shard
    /// workers on this thread (a slow engine pauses the simulation), with no
    /// file and no full-trace buffer anywhere, and `fold` sees every
    /// classified request. Returns the population beside what the two ends
    /// produced.
    pub fn stream_rbn<F: Fold>(
        &self,
        which: Rbn,
        opts: &StreamOptions,
        fold: F,
    ) -> (StreamReport, F, StreamDriveOutput, Population) {
        let t = Instant::now();
        let (config, mut pop) = self.rbn_setup(&self.eco, which);
        let meta = config.meta(pop.households);
        let profile = ActivityProfile::default();
        let (driven, classified) = drive_pull(&self.eco, &mut pop, &profile, &config, |slices| {
            let chunks = SliceChunks(slices);
            classify_stream_chunks(chunks, meta, &self.classifier, opts, obs::global(), fold)
        });
        let (report, fold) = classified.unwrap_or_else(|e| die(format!("stream failed: {e}")));
        eprintln!(
            "[world] {}: {} households, {} requests + {} HTTPS flows streamed on {} thread(s) ({:.1}s)",
            config.name,
            pop.households,
            report.requests,
            report.https_flows,
            opts.workers(),
            t.elapsed().as_secs_f64()
        );
        (report, fold, driven, pop)
    }

    fn drive_rbn(&self, which: Rbn) -> RbnData {
        let opts = StreamOptions {
            threads: self.threads,
            abp_ips: self.eco.abp_ips.clone(),
            ..StreamOptions::default()
        };
        let fold = (
            Figures::new(),
            Confusion {
                eco: &self.eco,
                counts: Default::default(),
            },
        );
        let (report, (figures, confusion), driven, pop) = self.stream_rbn(which, &opts, fold);
        RbnData {
            report,
            figures,
            confusion: confusion.counts,
            truth: pop.truth,
            ground: driven.ground_truth,
            addr_map: driven.addr_map,
            households: pop.households,
        }
    }

    /// Map a server IP to its AS name.
    pub fn as_name_of(&self, ip: u32) -> Option<String> {
        self.eco
            .servers
            .server_by_ip(ip)
            .map(|s| self.eco.asns.get(s.asn).name.clone())
    }

    /// The activity threshold defining "active users", scaled: the paper's
    /// 1 K requests assumes a 15.5 h trace of heavy users; small scales
    /// lower it proportionally.
    pub fn active_threshold(&self) -> u64 {
        match self.scale {
            Scale::Small => 300,
            Scale::Medium | Scale::Large => 1_000,
        }
    }
}

/// The driver's own fold beside [`Figures`]: the classifier's verdict on
/// every request against the generator's ground truth (`validation`).
#[derive(Clone)]
struct Confusion<'a> {
    eco: &'a Ecosystem,
    counts: [[u64; 2]; 2],
}

impl Fold for Confusion<'_> {
    fn observe(&mut self, _pos: u64, r: &ClassifiedRequest) {
        let truth = ground_truth_is_ad(self.eco, &r.url);
        self.counts[usize::from(truth)][usize::from(r.label.is_ad())] += 1;
    }
    fn merge(&mut self, part: Self) {
        let theirs = part.counts.iter().flatten();
        for (mine, theirs) in self.counts.iter_mut().flatten().zip(theirs) {
            *mine += theirs;
        }
    }
}

/// Ground-truth oracle: is this URL ad-related by construction of the
/// synthetic web? (Company hosts and the generator's path markers.)
fn ground_truth_is_ad(eco: &Ecosystem, url: &Url) -> bool {
    let host = url.host();
    let path = url.path();
    // The giant's static CDN is *content* infrastructure (fonts etc.)
    // unless the ad path markers appear — the overly-broad whitelist
    // rule covering it is precisely the §7.3 accuracy hazard.
    let is_static_cdn = host.contains("-cdn.");
    if !is_static_cdn
        && eco.companies.iter().any(|c| {
            c.domains
                .iter()
                .any(|d| http_model::is_subdomain_or_same(host, d))
        })
    {
        return true;
    }
    webgen::adtech::AD_PATH_MARKERS
        .iter()
        .chain(webgen::adtech::TRACK_PATH_MARKERS.iter())
        .any(|m| path.starts_with(m))
        || path.starts_with("/sponsor/")
        // Unlisted networks' markers (list lag — still ads in truth).
        || path.starts_with("/native/")
        || path.starts_with("/promo/")
        || path.starts_with("/stats/")
}
