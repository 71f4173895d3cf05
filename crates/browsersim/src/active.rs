//! The active-measurement harness of §4: an instrumented browser crawling
//! the top sites under seven profiles, with the traffic captured per visit.

use crate::adblockplus::{AbpConfig, AbpFilters, AbpLists, AdblockPlusPlugin};
use crate::browser::Browser;
use crate::ghostery::{GhosteryMode, GhosteryPlugin};
use crate::plugin::NoPlugin;
use http_model::useragent::Os;
use http_model::{BrowserFamily, UserAgent};
use netsim::record::{Trace, TraceMeta};
use netsim::Capture;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use webgen::Ecosystem;

/// The seven browser profiles of §4.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BrowserProfile {
    /// No plugin.
    Vanilla,
    /// Adblock Plus with EasyList + acceptable ads.
    AdbpAds,
    /// Adblock Plus with EasyPrivacy only.
    AdbpPrivacy,
    /// Adblock Plus with EasyList + EasyPrivacy (no acceptable ads).
    AdbpParanoia,
    /// Ghostery blocking the Advertisement category.
    GhosteryAds,
    /// Ghostery blocking the Privacy categories.
    GhosteryPrivacy,
    /// Ghostery blocking everything.
    GhosteryParanoia,
}

impl BrowserProfile {
    /// All seven profiles in the paper's table order.
    pub const ALL: [BrowserProfile; 7] = [
        BrowserProfile::Vanilla,
        BrowserProfile::AdbpParanoia,
        BrowserProfile::AdbpAds,
        BrowserProfile::AdbpPrivacy,
        BrowserProfile::GhosteryParanoia,
        BrowserProfile::GhosteryAds,
        BrowserProfile::GhosteryPrivacy,
    ];

    /// Table-1-style label.
    pub fn label(self) -> &'static str {
        match self {
            BrowserProfile::Vanilla => "Vanilla",
            BrowserProfile::AdbpParanoia => "AdBP-Pa",
            BrowserProfile::AdbpAds => "AdBP-Ad",
            BrowserProfile::AdbpPrivacy => "AdBP-Pr",
            BrowserProfile::GhosteryParanoia => "Ghostery-Pa",
            BrowserProfile::GhosteryAds => "Ghostery-Ad",
            BrowserProfile::GhosteryPrivacy => "Ghostery-Pr",
        }
    }
}

/// Active-measurement knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct ActiveConfig {
    /// Crawl the top `sites` sites (the paper uses the Alexa top 1000).
    pub sites: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ActiveConfig {
    fn default() -> Self {
        ActiveConfig {
            sites: 1000,
            seed: 0xAC71,
        }
    }
}

/// Captured traffic of one crawl: one trace per profile, visit boundaries
/// preserved.
pub struct ActiveResults {
    /// `(profile, trace, per-visit HTTP request counts)` for each profile.
    pub runs: Vec<ProfileRun>,
}

/// One profile's crawl output.
pub struct ProfileRun {
    /// Which profile.
    pub profile: BrowserProfile,
    /// All captured traffic of the crawl.
    pub trace: Trace,
    /// Index ranges of each visit in the trace records? No — counts: per
    /// visited site, the number of HTTP and HTTPS requests observed.
    pub per_site: Vec<SiteVisit>,
}

/// Counters for one site visit.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SiteVisit {
    /// Publisher id visited.
    pub publisher: usize,
    /// HTTP requests issued during the visit.
    pub http: u64,
    /// HTTPS requests issued during the visit.
    pub https: u64,
}

/// Build the browser for a profile.
pub fn browser_for_profile(eco: &Ecosystem, profile: BrowserProfile, addr: u32) -> Browser {
    let ua = UserAgent::desktop(BrowserFamily::Chrome, Os::Linux, 44);
    let plugin: Box<dyn crate::plugin::Plugin> = match profile {
        BrowserProfile::Vanilla => Box::new(NoPlugin),
        BrowserProfile::AdbpAds | BrowserProfile::AdbpPrivacy | BrowserProfile::AdbpParanoia => {
            let cfg = match profile {
                BrowserProfile::AdbpAds => AbpConfig::default_install(),
                BrowserProfile::AdbpPrivacy => AbpConfig::privacy_only(),
                _ => AbpConfig::paranoia(),
            };
            let filters = AbpFilters::new(&AbpLists::parse(&eco.lists), cfg);
            Box::new(AdblockPlusPlugin::new(Arc::new(filters), 0.0))
        }
        BrowserProfile::GhosteryAds => Box::new(GhosteryPlugin::new(eco, GhosteryMode::Ads, 0.92)),
        BrowserProfile::GhosteryPrivacy => {
            Box::new(GhosteryPlugin::new(eco, GhosteryMode::Privacy, 0.92))
        }
        BrowserProfile::GhosteryParanoia => {
            Box::new(GhosteryPlugin::new(eco, GhosteryMode::Paranoia, 0.92))
        }
    };
    Browser {
        client_addr: addr,
        user_agent: ua,
        plugin,
        regional_user: false,
    }
}

/// Run the §4 crawl: every profile visits the same top-site list with a
/// fresh cache per page, traffic captured with tcpdump-equivalent fidelity.
pub fn run_crawl(eco: &Ecosystem, config: &ActiveConfig) -> ActiveResults {
    let site_list: Vec<usize> = eco.top_sites.top(config.sites).to_vec();
    let mut runs = Vec::with_capacity(BrowserProfile::ALL.len());
    for (pi, &profile) in BrowserProfile::ALL.iter().enumerate() {
        // Same seed per profile: every profile sees the same page variants,
        // like the paper loading the same URL list per mode.
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut browser = browser_for_profile(eco, profile, 77_000 + pi as u32);
        let meta = TraceMeta {
            name: format!("active-{}", profile.label()),
            duration_secs: (site_list.len() as f64) * 12.0,
            subscribers: 1,
            start_hour: 10,
            start_weekday: 2,
        };
        let mut capture = Capture::new(meta, config.seed);
        let mut per_site = Vec::with_capacity(site_list.len());
        for (si, &pub_idx) in site_list.iter().enumerate() {
            let ts = si as f64 * 12.0; // 5 s settle + load + 5 s tail
            let publisher = &eco.publishers[pub_idx];
            // Landing page (template 0), like the crawl loading the front
            // page of each Alexa site.
            let (events, _stats) =
                browser.visit_page(eco, publisher, &publisher.pages[0], ts, None, &mut rng);
            let mut visit = SiteVisit {
                publisher: pub_idx,
                ..Default::default()
            };
            for ev in &events {
                if ev.https {
                    visit.https += 1;
                } else {
                    visit.http += 1;
                }
                capture.observe(ev, &mut rng);
            }
            per_site.push(visit);
        }
        runs.push(ProfileRun {
            profile,
            trace: capture.finish(),
            per_site,
        });
    }
    ActiveResults { runs }
}

impl ActiveResults {
    /// The run for a profile.
    pub fn run(&self, profile: BrowserProfile) -> &ProfileRun {
        self.runs
            .iter()
            .find(|r| r.profile == profile)
            .expect("profile was crawled")
    }

    /// Simulate `k` random page loads with a profile's browser and return
    /// the HTTP request count — used by the Figure 2 ratio experiment.
    pub fn sample_visits<R: Rng + ?Sized>(
        &self,
        profile: BrowserProfile,
        k: usize,
        rng: &mut R,
    ) -> Vec<SiteVisit> {
        let run = self.run(profile);
        (0..k)
            .map(|_| run.per_site[rng.gen_range(0..run.per_site.len())])
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use webgen::EcosystemConfig;

    fn eco() -> Ecosystem {
        Ecosystem::generate(EcosystemConfig {
            publishers: 60,
            ad_companies: 10,
            trackers: 10,
            cdn_edges: 8,
            hosting_servers: 12,
            seed: 77,
            ..Default::default()
        })
    }

    #[test]
    fn crawl_produces_all_profiles() {
        let eco = eco();
        let res = run_crawl(&eco, &ActiveConfig { sites: 40, seed: 1 });
        assert_eq!(res.runs.len(), 7);
        for run in &res.runs {
            assert_eq!(run.per_site.len(), 40);
            assert!(run.trace.http_count() > 0);
        }
    }

    #[test]
    fn adblockers_reduce_requests() {
        let eco = eco();
        let res = run_crawl(&eco, &ActiveConfig { sites: 60, seed: 2 });
        let vanilla = res.run(BrowserProfile::Vanilla).trace.http_count();
        let adbp_pa = res.run(BrowserProfile::AdbpParanoia).trace.http_count();
        let ghost_pa = res.run(BrowserProfile::GhosteryParanoia).trace.http_count();
        assert!(adbp_pa < vanilla, "AdBP-Pa {adbp_pa} vs vanilla {vanilla}");
        assert!(ghost_pa < vanilla);
        // The paper's ~80 % figure for the most aggressive mode.
        let ratio = adbp_pa as f64 / vanilla as f64;
        assert!((0.5..0.95).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn privacy_mode_blocks_less_ad_traffic_than_paranoia() {
        let eco = eco();
        let res = run_crawl(&eco, &ActiveConfig { sites: 60, seed: 3 });
        let pr = res.run(BrowserProfile::AdbpPrivacy).trace.http_count();
        let pa = res.run(BrowserProfile::AdbpParanoia).trace.http_count();
        assert!(pa < pr, "paranoia {pa} < privacy-only {pr}");
    }

    #[test]
    fn sample_visits_draws_from_crawl() {
        let eco = eco();
        let res = run_crawl(&eco, &ActiveConfig { sites: 30, seed: 4 });
        let mut rng = StdRng::seed_from_u64(5);
        let v = res.sample_visits(BrowserProfile::Vanilla, 10, &mut rng);
        assert_eq!(v.len(), 10);
        assert!(v.iter().all(|s| s.http > 0));
    }
}
