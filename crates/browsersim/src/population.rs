//! The user population: households, devices, adoption rates.

use crate::adblockplus::{AbpConfig, AbpFilters, AbpLists, AdblockPlusPlugin};
use crate::browser::Browser;
use crate::device::Device;
use crate::ghostery::{GhosteryMode, GhosteryPlugin};
use crate::plugin::{NoPlugin, Plugin as _};
use http_model::useragent::Os;
use http_model::{BrowserFamily, DeviceClass, UserAgent};
use netsim::nat::allocate_households;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use webgen::Ecosystem;

/// Adoption and composition knobs for the population.
#[derive(Debug, Clone, PartialEq)]
pub struct PopulationConfig {
    /// Number of households (DSL lines).
    pub households: usize,
    /// Adblock Plus adoption among Firefox/Chrome browsers (§6.2: ~30 %).
    pub abp_rate_ff_chrome: f64,
    /// Adoption among Safari browsers (harder install, §6.2).
    pub abp_rate_safari: f64,
    /// Adoption among Internet Explorer browsers.
    pub abp_rate_ie: f64,
    /// Adoption among mobile browsers.
    pub abp_rate_mobile: f64,
    /// Ghostery adoption among desktop browsers (much rarer; Metwalley et
    /// al. report <3 % of households for non-ABP plugins).
    pub ghostery_rate: f64,
    /// Share of Adblock Plus users who also subscribe to EasyPrivacy
    /// (§6.3 estimates ≤15 %).
    pub easyprivacy_rate: f64,
    /// Share of Adblock Plus users who opt out of acceptable ads (§6.3
    /// estimates ~20 %).
    pub acceptable_optout_rate: f64,
    /// Mean page visits per day of a browser (heavy-tailed around this).
    pub mean_visits_per_day: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for PopulationConfig {
    fn default() -> Self {
        PopulationConfig {
            households: 400,
            abp_rate_ff_chrome: 0.34,
            abp_rate_safari: 0.12,
            abp_rate_ie: 0.05,
            abp_rate_mobile: 0.04,
            ghostery_rate: 0.05,
            easyprivacy_rate: 0.13,
            acceptable_optout_rate: 0.20,
            mean_visits_per_day: 45.0,
            seed: 0xB10C,
        }
    }
}

/// Ground truth about one simulated browser (what the inference of §6 tries
/// to recover from the trace).
#[derive(Debug, Clone, PartialEq)]
pub struct BrowserTruth {
    /// Household public address.
    pub client_addr: u32,
    /// UA string.
    pub user_agent: String,
    /// Browser family.
    pub family: BrowserFamily,
    /// Installed plugin: `none`, `adblock-plus`, `ghostery-*`.
    pub plugin_name: String,
    /// ABP configuration when applicable.
    pub abp_config: Option<AbpConfig>,
    /// Average page visits per day.
    pub visits_per_day: f64,
}

/// A generated population.
pub struct Population {
    /// The browsers, each with its plugin instance.
    pub browsers: Vec<Browser>,
    /// Ground truth parallel to `browsers`.
    pub truth: Vec<BrowserTruth>,
    /// Non-browser devices.
    pub devices: Vec<Device>,
    /// Number of households.
    pub households: usize,
}

/// Shared filters, one per ABP configuration actually in use.
struct EngineCache {
    default_install: Arc<AbpFilters>,
    with_privacy: Arc<AbpFilters>,
    optout: Arc<AbpFilters>,
    optout_privacy: Arc<AbpFilters>,
}

impl EngineCache {
    fn build(eco: &Ecosystem) -> EngineCache {
        let lists = AbpLists::parse(&eco.lists);
        let mk = |ep: bool, aa: bool| {
            Arc::new(AbpFilters::new(
                &lists,
                AbpConfig {
                    easylist: true,
                    easyprivacy: ep,
                    acceptable: aa,
                },
            ))
        };
        EngineCache {
            default_install: mk(false, true),
            with_privacy: mk(true, true),
            optout: mk(false, false),
            optout_privacy: mk(true, false),
        }
    }

    fn get(&self, cfg: AbpConfig) -> Arc<AbpFilters> {
        match (cfg.easyprivacy, cfg.acceptable) {
            (false, true) => self.default_install.clone(),
            (true, true) => self.with_privacy.clone(),
            (false, false) => self.optout.clone(),
            (true, false) => self.optout_privacy.clone(),
        }
    }
}

impl Population {
    /// Generate the population for an ecosystem.
    pub fn generate(eco: &Ecosystem, config: &PopulationConfig) -> Population {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let gateways = allocate_households(config.households, 10_000);
        let engines = EngineCache::build(eco);

        let mut browsers = Vec::new();
        let mut truth = Vec::new();
        let mut devices = Vec::new();

        for gw in &gateways {
            let addr = gw.public_addr;
            // 1–4 browsers per household: 40% one, 35% two, 20% three,
            // 5% four (multi-browser homes are what creates type-B users).
            let roll: f64 = rng.gen_range(0.0..1.0);
            let n_browsers = if roll < 0.40 {
                1
            } else if roll < 0.75 {
                2
            } else if roll < 0.95 {
                3
            } else {
                4
            };
            for b in 0..n_browsers {
                let (family, ua) = sample_browser_identity(&mut rng, b);
                let abp_rate = match family {
                    BrowserFamily::Firefox | BrowserFamily::Chrome => config.abp_rate_ff_chrome,
                    BrowserFamily::Safari => config.abp_rate_safari,
                    BrowserFamily::InternetExplorer => config.abp_rate_ie,
                    BrowserFamily::Mobile => config.abp_rate_mobile,
                    BrowserFamily::NonBrowser => 0.0,
                };
                let visits_per_day = sample_visits_per_day(config.mean_visits_per_day, &mut rng);
                let (plugin, plugin_name, abp_config): (
                    Box<dyn crate::plugin::Plugin>,
                    String,
                    Option<AbpConfig>,
                ) = if rng.gen_bool(abp_rate) {
                    let cfg = AbpConfig {
                        easylist: true,
                        easyprivacy: rng.gen_bool(config.easyprivacy_rate),
                        acceptable: !rng.gen_bool(config.acceptable_optout_rate),
                    };
                    let phase = rng.gen_range(0.0..4.0 * 86_400.0);
                    let plugin = AdblockPlusPlugin::new(engines.get(cfg), phase);
                    (Box::new(plugin), "adblock-plus".to_string(), Some(cfg))
                } else if family.is_desktop_browser() && rng.gen_bool(config.ghostery_rate) {
                    let mode = match rng.gen_range(0..3) {
                        0 => GhosteryMode::Ads,
                        1 => GhosteryMode::Privacy,
                        _ => GhosteryMode::Paranoia,
                    };
                    let g = GhosteryPlugin::new(eco, mode, 0.92);
                    let name = g.name().to_string();
                    (Box::new(g), name, None)
                } else {
                    (Box::new(NoPlugin), "none".to_string(), None)
                };
                truth.push(BrowserTruth {
                    client_addr: addr,
                    user_agent: ua.raw.clone(),
                    family,
                    plugin_name,
                    abp_config,
                    visits_per_day,
                });
                browsers.push(Browser {
                    client_addr: addr,
                    user_agent: ua,
                    plugin,
                    regional_user: rng.gen_bool(0.25),
                });
            }
            // 1–4 non-browser devices (consoles, TVs, apps, updaters).
            let n_devices = rng.gen_range(1..=4usize);
            for d in 0..n_devices {
                let class = match rng.gen_range(0..10) {
                    0..=3 => DeviceClass::MobileApp,
                    4..=5 => DeviceClass::SmartTv,
                    6 => DeviceClass::GameConsole,
                    7..=8 => DeviceClass::SoftwareUpdater,
                    _ => DeviceClass::MediaPlayer,
                };
                devices.push(Device::new(addr, class, d as u32 + rng.gen_range(1..5)));
            }
        }
        Population {
            browsers,
            truth,
            devices,
            households: config.households,
        }
    }

    /// Count of browsers with a given plugin name prefix.
    pub fn plugin_count(&self, prefix: &str) -> usize {
        self.truth
            .iter()
            .filter(|t| t.plugin_name.starts_with(prefix))
            .count()
    }
}

/// Desktop family shares roughly matching §6.1's annotated set (Firefox
/// 3,423 / Chrome 2,267 / Safari 1,324 / IE 654 of 7.7 K desktop browsers,
/// plus 1.9 K mobile of 9.6 K total).
fn sample_browser_identity(rng: &mut StdRng, slot: usize) -> (BrowserFamily, UserAgent) {
    let roll: f64 = rng.gen_range(0.0..1.0);
    if roll < 0.20 {
        let os = if rng.gen_bool(0.55) {
            Os::Ios
        } else {
            Os::Android
        };
        return (
            BrowserFamily::Mobile,
            UserAgent::mobile(os, 30 + slot as u32 + rng.gen_range(0..8) as u32),
        );
    }
    let family = if roll < 0.49 {
        BrowserFamily::Firefox
    } else if roll < 0.68 {
        BrowserFamily::Chrome
    } else if roll < 0.79 {
        BrowserFamily::Safari
    } else if roll < 0.85 {
        BrowserFamily::InternetExplorer
    } else if roll < 0.93 {
        BrowserFamily::Firefox
    } else {
        BrowserFamily::Chrome
    };
    let os = match family {
        BrowserFamily::Safari => Os::MacOs,
        BrowserFamily::InternetExplorer => Os::Windows,
        _ => {
            if rng.gen_bool(0.7) {
                Os::Windows
            } else {
                Os::Linux
            }
        }
    };
    let version = match family {
        BrowserFamily::Firefox => rng.gen_range(31..42),
        BrowserFamily::Chrome => rng.gen_range(40..46),
        BrowserFamily::InternetExplorer => rng.gen_range(9..12),
        BrowserFamily::Safari => rng.gen_range(7..9),
        _ => 40,
    };
    (family, UserAgent::desktop(family, os, version))
}

/// Heavy-tailed per-browser demand (log-normal around the configured mean).
fn sample_visits_per_day(mean: f64, rng: &mut StdRng) -> f64 {
    (mean * netsim::rtt::lognormal(rng, 0.0, 0.9)).clamp(1.0, mean * 12.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use webgen::EcosystemConfig;

    fn eco() -> Ecosystem {
        Ecosystem::generate(EcosystemConfig {
            publishers: 40,
            ad_companies: 8,
            trackers: 8,
            cdn_edges: 6,
            hosting_servers: 10,
            seed: 21,
            ..Default::default()
        })
    }

    fn pop(households: usize, seed: u64) -> Population {
        Population::generate(
            &eco(),
            &PopulationConfig {
                households,
                seed,
                ..Default::default()
            },
        )
    }

    #[test]
    fn browsers_per_household_reasonable() {
        let p = pop(200, 1);
        assert!(p.browsers.len() >= 200);
        assert!(p.browsers.len() <= 200 * 3);
        assert_eq!(p.browsers.len(), p.truth.len());
    }

    #[test]
    fn adoption_rates_by_family() {
        let p = pop(1500, 2);
        let rate = |fam: BrowserFamily| -> f64 {
            let total = p.truth.iter().filter(|t| t.family == fam).count();
            let abp = p
                .truth
                .iter()
                .filter(|t| t.family == fam && t.plugin_name == "adblock-plus")
                .count();
            abp as f64 / total.max(1) as f64
        };
        let ff = rate(BrowserFamily::Firefox);
        let safari = rate(BrowserFamily::Safari);
        let ie = rate(BrowserFamily::InternetExplorer);
        assert!((0.24..0.38).contains(&ff), "firefox ABP rate {ff}");
        assert!(safari < ff, "safari {safari} < firefox {ff}");
        assert!(ie < safari + 0.05, "ie {ie}");
    }

    #[test]
    fn abp_config_shares() {
        let p = pop(2000, 3);
        let abp: Vec<&BrowserTruth> = p
            .truth
            .iter()
            .filter(|t| t.plugin_name == "adblock-plus")
            .collect();
        assert!(abp.len() > 100);
        let with_ep = abp
            .iter()
            .filter(|t| t.abp_config.unwrap().easyprivacy)
            .count() as f64
            / abp.len() as f64;
        let optout = abp
            .iter()
            .filter(|t| !t.abp_config.unwrap().acceptable)
            .count() as f64
            / abp.len() as f64;
        assert!(
            (0.08..0.20).contains(&with_ep),
            "easyprivacy share {with_ep}"
        );
        assert!((0.13..0.28).contains(&optout), "optout share {optout}");
    }

    #[test]
    fn ghostery_is_rare() {
        let p = pop(1500, 4);
        let ghostery = p.plugin_count("ghostery");
        let abp = p.plugin_count("adblock-plus");
        assert!(ghostery > 0);
        assert!(ghostery < abp / 3, "ghostery {ghostery} vs abp {abp}");
    }

    #[test]
    fn deterministic_generation() {
        let a = pop(100, 9);
        let b = pop(100, 9);
        assert_eq!(a.truth, b.truth);
        assert_eq!(a.devices.len(), b.devices.len());
    }

    #[test]
    fn devices_share_household_addresses() {
        let p = pop(100, 5);
        let browser_addrs: std::collections::HashSet<u32> =
            p.truth.iter().map(|t| t.client_addr).collect();
        for d in &p.devices {
            assert!((10_000..10_100).contains(&d.client_addr));
        }
        assert!(browser_addrs.len() <= 100);
    }

    #[test]
    fn visits_per_day_heavy_tailed() {
        let p = pop(1000, 6);
        let visits: Vec<f64> = p.truth.iter().map(|t| t.visits_per_day).collect();
        let mean = visits.iter().sum::<f64>() / visits.len() as f64;
        let max = visits.iter().copied().fold(0.0f64, f64::max);
        assert!(max > mean * 4.0, "tail: max {max} mean {mean}");
    }
}
