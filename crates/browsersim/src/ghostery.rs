//! A Ghostery-style company-database blocker.
//!
//! Ghostery blocks by *company category* from a curated database rather
//! than by URL filter rules. The consequence visible in Table 1 of the
//! paper: a Ghostery-Paranoia browser still triggers some EasyList hits
//! (940 in the paper) because publisher-self-hosted ads and path-only rules
//! are outside Ghostery's company database.

use crate::plugin::{ListDownload, Plugin};
use http_model::{is_subdomain_or_same, ContentCategory, Url};
use webgen::adtech::AdTechKind;
use webgen::Ecosystem;

/// Ghostery blocking modes from the paper's §4.1 profiles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GhosteryMode {
    /// Block the Advertisement category.
    Ads,
    /// Block the Privacy (tracking) categories.
    Privacy,
    /// Block everything in the database.
    Paranoia,
}

/// A Ghostery instance with its company-domain database.
pub struct GhosteryPlugin {
    mode: GhosteryMode,
    /// Domains of ad companies in the database.
    ad_domains: Vec<String>,
    /// Domains of tracking/analytics companies in the database.
    tracking_domains: Vec<String>,
}

impl GhosteryPlugin {
    /// Build the plugin database from the ecosystem. `coverage` is the
    /// fraction of companies present in the database (a curated DB always
    /// lags the market; the paper's numbers imply high but imperfect
    /// coverage).
    pub fn new(eco: &Ecosystem, mode: GhosteryMode, coverage: f64) -> GhosteryPlugin {
        let mut ad_domains = Vec::new();
        let mut tracking_domains = Vec::new();
        for (i, c) in eco.companies.iter().enumerate() {
            // Deterministic pseudo-coverage: hash the index.
            let h = (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 40;
            let covered = (h % 1000) as f64 / 1000.0 < coverage;
            if !covered {
                continue;
            }
            match c.kind {
                AdTechKind::AdNetwork | AdTechKind::Exchange => {
                    ad_domains.extend(c.domains.iter().cloned())
                }
                AdTechKind::Tracker | AdTechKind::Analytics => {
                    tracking_domains.extend(c.domains.iter().cloned())
                }
            }
        }
        GhosteryPlugin {
            mode,
            ad_domains,
            tracking_domains,
        }
    }

    fn in_db(domains: &[String], host: &str) -> bool {
        domains.iter().any(|d| is_subdomain_or_same(host, d))
    }
}

impl Plugin for GhosteryPlugin {
    fn name(&self) -> &str {
        match self.mode {
            GhosteryMode::Ads => "ghostery-ads",
            GhosteryMode::Privacy => "ghostery-privacy",
            GhosteryMode::Paranoia => "ghostery-paranoia",
        }
    }

    fn blocks(&mut self, url: &Url, _page: &Url, _category: ContentCategory) -> bool {
        let host = url.host();
        match self.mode {
            GhosteryMode::Ads => Self::in_db(&self.ad_domains, host),
            GhosteryMode::Privacy => Self::in_db(&self.tracking_domains, host),
            GhosteryMode::Paranoia => {
                Self::in_db(&self.ad_domains, host) || Self::in_db(&self.tracking_domains, host)
            }
        }
    }

    fn hides_embedded_ads(&self, _page_host: &str) -> bool {
        // Ghostery has no element hiding.
        false
    }

    fn due_downloads(&mut self, _now: f64) -> Vec<ListDownload> {
        // Ghostery updates its database too, but not from the Adblock Plus
        // servers — invisible to the paper's second indicator.
        Vec::new()
    }
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
            seed: 3,
            ..Default::default()
        })
    }

    #[test]
    fn mode_scoping() {
        let eco = eco();
        let mut ads = GhosteryPlugin::new(&eco, GhosteryMode::Ads, 1.0);
        let mut privacy = GhosteryPlugin::new(&eco, GhosteryMode::Privacy, 1.0);
        let mut paranoia = GhosteryPlugin::new(&eco, GhosteryMode::Paranoia, 1.0);
        let page = Url::parse("http://www.portalmix001.example/").unwrap();
        let ad_url = Url::parse("http://ads.adnet05.example/banners/x.gif").unwrap();
        let tr_url = Url::parse("http://t.tracker01.example/pixel/p.gif").unwrap();
        assert!(ads.blocks(&ad_url, &page, ContentCategory::Image));
        assert!(!ads.blocks(&tr_url, &page, ContentCategory::Image));
        assert!(!privacy.blocks(&ad_url, &page, ContentCategory::Image));
        assert!(privacy.blocks(&tr_url, &page, ContentCategory::Image));
        assert!(paranoia.blocks(&ad_url, &page, ContentCategory::Image));
        assert!(paranoia.blocks(&tr_url, &page, ContentCategory::Image));
    }

    #[test]
    fn self_hosted_ads_not_blocked() {
        // Ghostery's DB knows companies, not publisher ad paths: the
        // self-hosted /sponsor/ ads slip through (→ residual EasyList hits
        // in Table 1).
        let eco = eco();
        let mut paranoia = GhosteryPlugin::new(&eco, GhosteryMode::Paranoia, 1.0);
        let page = Url::parse("http://www.technewsy000.example/").unwrap();
        let self_ad = Url::parse("http://www.technewsy000.example/sponsor/self0_0.gif").unwrap();
        assert!(!paranoia.blocks(&self_ad, &page, ContentCategory::Image));
    }

    #[test]
    fn partial_coverage_misses_companies() {
        let eco = eco();
        let full = GhosteryPlugin::new(&eco, GhosteryMode::Paranoia, 1.0);
        let half = GhosteryPlugin::new(&eco, GhosteryMode::Paranoia, 0.5);
        assert!(
            half.ad_domains.len() + half.tracking_domains.len()
                < full.ad_domains.len() + full.tracking_domains.len()
        );
        assert!(!half.ad_domains.is_empty() || !half.tracking_domains.is_empty());
    }

    #[test]
    fn no_update_traffic() {
        let eco = eco();
        let mut g = GhosteryPlugin::new(&eco, GhosteryMode::Ads, 1.0);
        assert!(g.due_downloads(1e6).is_empty());
        assert!(!g.hides_embedded_ads("x.example"));
    }
}
