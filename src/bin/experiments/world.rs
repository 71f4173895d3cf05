//! Shared world construction for every subcommand: one ecosystem and its
//! four-list classifier, one active crawl, the one recipe for the two RBN
//! traces (generated on request, classified lazily and reused).

use crate::cli::die;
use annoyed_users::prelude::*;
use browsersim::active::{run_crawl, ActiveResults};
use browsersim::drive::{drive, DriveOutput};
use netsim::stream::StreamChunk;
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
    /// Worker threads for classification, sharded or streamed
    /// (`--threads`; 0 = this machine's available parallelism).
    pub threads: usize,
    active: Option<ActiveResults>,
    rbn1: Option<RbnData>,
    rbn2: Option<RbnData>,
    crawl_sites: usize,
}

/// One RBN trace with its classification and population ground truth.
pub struct RbnData {
    pub classified: ClassifiedTrace,
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
            crawl_sites,
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
            classifier.engine().filter_count(),
            t.elapsed().as_secs_f64()
        );
        World {
            scale,
            seed,
            eco,
            classifier,
            threads,
            active: None,
            rbn1: None,
            rbn2: None,
            crawl_sites: crawl_sites.min(publishers),
        }
    }

    /// The §4 active crawl (cached).
    pub fn active(&mut self) -> &ActiveResults {
        if self.active.is_none() {
            let t = Instant::now();
            let res = run_crawl(
                &self.eco,
                &ActiveConfig {
                    sites: self.crawl_sites,
                    seed: 0xAC71,
                },
            );
            eprintln!(
                "[world] active crawl: {} sites x 7 profiles ({:.1}s)",
                self.crawl_sites,
                t.elapsed().as_secs_f64()
            );
            self.active = Some(res);
        }
        self.active.as_ref().expect("just built")
    }

    /// Build RBN-2 (15.5 h peak trace) if not yet built.
    pub fn ensure_rbn2(&mut self) {
        if self.rbn2.is_none() {
            self.rbn2 = Some(self.drive_rbn(Rbn::Two));
        }
    }

    /// RBN-2 data (call [`Self::ensure_rbn2`] first or use via `rbn2()`).
    pub fn rbn2_ref(&self) -> &RbnData {
        self.rbn2.as_ref().expect("ensure_rbn2 first")
    }

    /// RBN-2 (15.5 h peak trace, the usage-inference trace).
    pub fn rbn2(&mut self) -> &RbnData {
        self.ensure_rbn2();
        self.rbn2_ref()
    }

    /// Build RBN-1 (multi-day trace) if not yet built.
    pub fn ensure_rbn1(&mut self) {
        if self.rbn1.is_none() {
            self.rbn1 = Some(self.drive_rbn(Rbn::One));
        }
    }

    /// RBN-1 data (call [`Self::ensure_rbn1`] first or use via `rbn1()`).
    pub fn rbn1_ref(&self) -> &RbnData {
        self.rbn1.as_ref().expect("ensure_rbn1 first")
    }

    /// RBN-1 (multi-day trace, the characterization trace).
    pub fn rbn1(&mut self) -> &RbnData {
        self.ensure_rbn1();
        self.rbn1_ref()
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

    /// Generate one capture over `eco`, materialized, with the population
    /// that produced it (the ground-truth side of the joins).
    pub fn generate(&self, eco: &Ecosystem, which: Rbn) -> (DriveOutput, Population) {
        let t = Instant::now();
        let (config, mut pop) = self.rbn_setup(eco, which);
        let out = drive(eco, &mut pop, &ActivityProfile::default(), &config);
        eprintln!(
            "[world] {}: {} households, {} HTTP + {} HTTPS records ({:.1}s)",
            config.name,
            pop.households,
            out.trace.http_count(),
            out.trace.https_count(),
            t.elapsed().as_secs_f64()
        );
        (out, pop)
    }

    /// Chunk a materialized trace through the streaming engine — the same
    /// router and shard workers `experiments stream` runs.
    pub fn stream_trace(
        &self,
        trace: &Trace,
        opts: &adscope::StreamOptions,
    ) -> adscope::StreamReport {
        let chunks = trace
            .records
            .chunks(opts.chunk_records)
            .enumerate()
            .map(|(seq, records)| StreamChunk::in_memory(seq as u64, records.to_vec()));
        let meta = trace.meta.clone();
        adscope::stream::classify_stream_chunks(chunks, meta, &self.classifier, opts, obs::global())
            .unwrap_or_else(|e| die(format!("stream failed: {e}")))
    }

    fn drive_rbn(&self, which: Rbn) -> RbnData {
        let (out, pop) = self.generate(&self.eco, which);
        let DriveOutput {
            trace,
            ground_truth,
            addr_map,
        } = out;
        let t2 = Instant::now();
        let classified = adscope::classify_trace_sharded(
            &trace,
            &self.classifier,
            PipelineOptions::default(),
            self.threads,
        );
        eprintln!(
            "[world] {}: classified {} requests on {} thread(s) ({:.1}s)",
            trace.meta.name,
            classified.requests.len(),
            self.threads,
            t2.elapsed().as_secs_f64()
        );
        RbnData {
            classified,
            truth: pop.truth,
            ground: ground_truth,
            addr_map,
            households: pop.households,
        }
    }

    /// Ground-truth oracle: is this URL ad-related by construction of the
    /// synthetic web? (Company hosts and the generator's path markers.)
    pub fn ground_truth_is_ad(&self, url: &Url) -> bool {
        let host = url.host();
        let path = url.path();
        // The giant's static CDN is *content* infrastructure (fonts etc.)
        // unless the ad path markers appear — the overly-broad whitelist
        // rule covering it is precisely the §7.3 accuracy hazard.
        let is_static_cdn = host.contains("-cdn.");
        if !is_static_cdn
            && self.eco.companies.iter().any(|c| {
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
