//! The Adblock Plus plugin: a faithful client of the `abp-filter` engine.

use crate::plugin::{ListDownload, Plugin};
use abp_filter::hiding::selectors_for;
use abp_filter::{
    ClassifyScratch, CompiledEngine, FilterList, HidingRule, Request, SubscriptionState,
};
use http_model::{ContentCategory, Url};
use std::sync::Arc;
use webgen::filterlists::GeneratedLists;

/// Which filter lists an Adblock Plus installation subscribes to.
///
/// A fresh installation subscribes to EasyList plus the acceptable-ads
/// whitelist (§2); users may add EasyPrivacy and/or opt out of acceptable
/// ads. The paper's active-measurement profiles map to:
///
/// * `AdBP-Ads` — `easylist: true, easyprivacy: false, acceptable: true`
/// * `AdBP-Privacy` — `easylist: false, easyprivacy: true, acceptable: false`
/// * `AdBP-Paranoia` — `easylist: true, easyprivacy: true, acceptable: false`
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AbpConfig {
    /// Subscribe to EasyList.
    pub easylist: bool,
    /// Subscribe to EasyPrivacy.
    pub easyprivacy: bool,
    /// Keep the acceptable-ads whitelist enabled.
    pub acceptable: bool,
}

impl AbpConfig {
    /// The out-of-the-box configuration.
    pub(crate) fn default_install() -> AbpConfig {
        AbpConfig {
            easylist: true,
            easyprivacy: false,
            acceptable: true,
        }
    }

    /// The `AdBP-Paranoia` profile of §4.1.
    pub(crate) fn paranoia() -> AbpConfig {
        AbpConfig {
            easylist: true,
            easyprivacy: true,
            acceptable: false,
        }
    }

    /// The `AdBP-Privacy` profile of §4.1 (EasyPrivacy only).
    pub(crate) fn privacy_only() -> AbpConfig {
        AbpConfig {
            easylist: false,
            easyprivacy: true,
            acceptable: false,
        }
    }
}

/// The lists an installation can subscribe to, each parsed once.
pub(crate) struct AbpLists {
    easylist: FilterList,
    easyprivacy: FilterList,
    acceptable: FilterList,
}

impl AbpLists {
    /// Parse the ecosystem's generated lists.
    pub(crate) fn parse(lists: &GeneratedLists) -> AbpLists {
        AbpLists {
            easylist: lists.easylist(),
            easyprivacy: lists.easyprivacy(),
            acceptable: lists.acceptable(),
        }
    }

    /// The lists `config` subscribes to, in load order: EasyList,
    /// EasyPrivacy, then the acceptable-ads whitelist. The one place that
    /// decides them, for the engine and the update schedule alike.
    fn subscribed(&self, config: AbpConfig) -> impl Iterator<Item = &FilterList> {
        [
            (config.easylist, &self.easylist),
            (config.easyprivacy, &self.easyprivacy),
            (config.acceptable, &self.acceptable),
        ]
        .into_iter()
        .filter_map(|(on, list)| on.then_some(list))
    }
}

/// What every installation of one configuration blocks and hides with:
/// the compiled engine over its lists, their element-hiding rules, and
/// each list's name and soft expiry (days) for the update schedule.
pub(crate) struct AbpFilters {
    /// Counts into no registry: the global `abp_*` series describe the
    /// passive classifier alone.
    engine: CompiledEngine,
    hiding: Vec<HidingRule>,
    lists: Vec<(String, f64)>,
}

impl AbpFilters {
    /// Build `config`'s filters.
    pub(crate) fn new(lists: &AbpLists, config: AbpConfig) -> AbpFilters {
        let subscribed: Vec<FilterList> = lists.subscribed(config).cloned().collect();
        AbpFilters {
            hiding: subscribed.iter().flat_map(|l| l.hiding.clone()).collect(),
            lists: subscribed
                .iter()
                .map(|l| (l.name.clone(), l.soft_expiry_days))
                .collect(),
            engine: CompiledEngine::from_lists(subscribed),
        }
    }
}

/// A running Adblock Plus instance.
///
/// The filters are shared (`Arc`) across all browsers with the same
/// configuration — one compiled engine per configuration, like the real
/// extension sharing compiled lists across profiles; each instance owns
/// its match scratch.
pub(crate) struct AdblockPlusPlugin {
    filters: Arc<AbpFilters>,
    scratch: ClassifyScratch,
    subscriptions: Vec<(String, SubscriptionState)>,
}

impl AdblockPlusPlugin {
    /// An instance subscribed to `filters`' lists. `phase_secs` staggers
    /// the initial subscription ages across the population so updates don't
    /// all fire at the same instant.
    pub(crate) fn new(filters: Arc<AbpFilters>, phase_secs: f64) -> Self {
        let mut subscriptions: Vec<(String, SubscriptionState)> = filters
            .lists
            .iter()
            .map(|(name, days)| {
                let age = phase_secs % (days * 86_400.0);
                (name.clone(), SubscriptionState::aged(*days, age))
            })
            .collect();
        // Besides list refreshes, the extension phones home roughly daily
        // (notification/version checks) — §3.2: "the Adblock Plus contact
        // frequency is quite high: typically upon browser bootstrap or once
        // per day" (citing Metwalley et al.).
        subscriptions.push((
            "notification".to_string(),
            SubscriptionState::aged(0.75, phase_secs % 64_800.0),
        ));
        AdblockPlusPlugin {
            filters,
            scratch: ClassifyScratch::new(),
            subscriptions,
        }
    }

    /// Approximate size of a list download (lists are tens to hundreds of
    /// kilobytes; EasyList the biggest).
    fn download_bytes(list: &str) -> u64 {
        match list {
            l if l.contains("easylist") => 450_000,
            l if l.contains("privacy") => 180_000,
            _ => 60_000,
        }
    }
}

impl Plugin for AdblockPlusPlugin {
    fn name(&self) -> &str {
        "adblock-plus"
    }

    fn blocks(&mut self, url: &Url, page: &Url, category: ContentCategory) -> bool {
        let req = Request {
            url,
            source_url: Some(page),
            category,
        };
        let verdict = self.filters.engine.classify(&req, &mut self.scratch);
        verdict.would_block()
    }

    fn hides_embedded_ads(&self, page_host: &str) -> bool {
        !selectors_for(&self.filters.hiding, page_host).is_empty()
    }

    fn due_downloads(&mut self, now: f64) -> Vec<ListDownload> {
        let mut out = Vec::new();
        for (name, state) in &mut self.subscriptions {
            if state.due(now) {
                state.downloaded(now);
                out.push(ListDownload {
                    list: name.clone(),
                    bytes: Self::download_bytes(name),
                });
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use webgen::{Ecosystem, EcosystemConfig};

    fn eco() -> Ecosystem {
        Ecosystem::generate(EcosystemConfig {
            publishers: 40,
            ad_companies: 8,
            trackers: 8,
            cdn_edges: 6,
            hosting_servers: 10,
            seed: 99,
            ..Default::default()
        })
    }

    fn plugin_at(cfg: AbpConfig, phase_secs: f64) -> AdblockPlusPlugin {
        let filters = AbpFilters::new(&AbpLists::parse(&eco().lists), cfg);
        AdblockPlusPlugin::new(Arc::new(filters), phase_secs)
    }

    fn plugin(cfg: AbpConfig) -> AdblockPlusPlugin {
        plugin_at(cfg, 0.0)
    }

    #[test]
    fn default_install_blocks_ads_not_trackers() {
        let eco = eco();
        // A network outside the acceptable-ads programme: must be blocked
        // even with the whitelist enabled.
        let blocked_net = eco
            .companies
            .iter()
            .find(|c| c.kind == webgen::adtech::AdTechKind::AdNetwork && !c.acceptable)
            .expect("a non-acceptable ad network");
        let mut p = plugin(AbpConfig::default_install());
        let page = Url::parse("http://www.dailyherald001.example/").unwrap();
        let ad = Url::parse(&format!(
            "http://{}/banners/b0_0.gif",
            blocked_net.primary_domain()
        ))
        .unwrap();
        assert!(p.blocks(&ad, &page, ContentCategory::Image));
        let tracker = Url::parse("http://t.tracker01.example/pixel/p0_0.gif").unwrap();
        assert!(
            !p.blocks(&tracker, &page, ContentCategory::Image),
            "EasyPrivacy not subscribed: trackers pass"
        );
    }

    #[test]
    fn paranoia_blocks_both() {
        let mut p = plugin(AbpConfig::paranoia());
        let page = Url::parse("http://www.dailyherald001.example/").unwrap();
        let ad = Url::parse("http://ads.adnet05.example/banners/b0_0.gif").unwrap();
        let tracker = Url::parse("http://t.tracker01.example/pixel/p0_0.gif").unwrap();
        assert!(p.blocks(&ad, &page, ContentCategory::Image));
        assert!(p.blocks(&tracker, &page, ContentCategory::Image));
    }

    #[test]
    fn acceptable_ads_pass_on_default_install() {
        let mut p = plugin(AbpConfig::default_install());
        let page = Url::parse("http://www.shopmart005.example/").unwrap();
        // The giant's whitelisted ad service.
        let ad = Url::parse("http://adservice.gigglesearch.example/adserve/show1.js").unwrap();
        assert!(!p.blocks(&ad, &page, ContentCategory::Script));
        // Opting out (paranoia) blocks it.
        let mut p2 = plugin(AbpConfig::paranoia());
        assert!(p2.blocks(&ad, &page, ContentCategory::Script));
    }

    #[test]
    fn update_schedule_easylist_4d_easyprivacy_1d() {
        let mut p = plugin(AbpConfig::paranoia());
        // Phase 0: everything fresh at t=0.
        assert!(p.due_downloads(3600.0).is_empty());
        // After one day: EasyPrivacy + the daily notification check are due,
        // EasyList is not.
        let day1 = p.due_downloads(86_400.0 + 1.0);
        assert_eq!(day1.len(), 2, "{day1:?}");
        assert!(day1.iter().any(|d| d.list.contains("privacy")));
        assert!(day1.iter().any(|d| d.list == "notification"));
        assert!(!day1.iter().any(|d| d.list == "easylist"));
        // After four days: EasyList due as well.
        let day4 = p.due_downloads(4.0 * 86_400.0 + 1.0);
        assert_eq!(day4.len(), 3, "{day4:?}");
    }

    #[test]
    fn element_hiding_reported() {
        // Generic ##.ad-banner applies everywhere.
        let p = plugin(AbpConfig::default_install());
        assert!(p.hides_embedded_ads("www.findit000.example"));
        // EasyPrivacy carries no element-hiding rules.
        let privacy = plugin(AbpConfig::privacy_only());
        assert!(!privacy.hides_embedded_ads("www.findit000.example"));
    }

    #[test]
    fn phase_staggers_first_update() {
        let mut aged = plugin_at(AbpConfig::default_install(), 3.9 * 86_400.0);
        // Aged nearly to expiry: due within the first simulated hour... not
        // immediately at t=0 (3.9 < 4.0 days), but at t≈0.1 days, together
        // with the daily notification check (phase 0.9 of its 1-day period).
        assert!(aged.due_downloads(0.0).is_empty());
        let due = aged.due_downloads(0.11 * 86_400.0);
        assert!(due.iter().any(|d| d.list == "easylist"), "{due:?}");
    }
}
