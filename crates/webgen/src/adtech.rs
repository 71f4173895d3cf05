//! Ad-tech companies: networks, exchanges, trackers, analytics.

/// What an ad-tech company does.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AdTechKind {
    /// Serves display ads (banners, video ads) for publishers.
    AdNetwork,
    /// Runs real-time-bidding auctions; responses carry the ~100 ms hold.
    Exchange,
    /// Tracks users across sites (EasyPrivacy's target population).
    Tracker,
    /// Site analytics (also EasyPrivacy territory).
    Analytics,
}

/// One ad-tech company in the synthetic ecosystem.
#[derive(Debug, Clone, PartialEq)]
pub struct AdTechCompany {
    /// Index into the ecosystem's company vector.
    pub id: usize,
    /// Company name (fictional).
    pub name: String,
    /// Role.
    pub kind: AdTechKind,
    /// Hostnames this company serves from. The first is the primary ad/
    /// tracker host; companies can have auxiliary hosts (e.g. a static
    /// assets domain that an overly-broad whitelist rule covers).
    pub domains: Vec<String>,
    /// True when the company participates in the acceptable-ads programme:
    /// its ad traffic is whitelisted by the non-intrusive-ads list.
    pub acceptable: bool,
    /// True when responses go through an RTB auction.
    pub rtb: bool,
    /// True when the filter lists know this company. Unlisted companies
    /// model list lag: their traffic is ground-truth advertising that the
    /// passive methodology (and Adblock Plus itself) cannot catch — the
    /// paper's own explanation for underestimating some ad-tech ASes (§8.1).
    pub listed: bool,
    /// Market weight for publisher adoption (Zipf-ish, bigger = more
    /// publishers embed this company).
    pub weight: f64,
}

impl AdTechCompany {
    /// Primary serving domain.
    pub fn primary_domain(&self) -> &str {
        &self.domains[0]
    }

    /// Is this company an EasyPrivacy target (tracker/analytics) rather
    /// than an EasyList one (ads)?
    pub(crate) fn is_privacy_target(&self) -> bool {
        matches!(self.kind, AdTechKind::Tracker | AdTechKind::Analytics)
    }
}

/// The path prefix ad networks serve banners under — also what EasyList's
/// path rules in the synthetic list match.
pub const AD_PATH_MARKERS: [&str; 4] = ["/adserve/", "/banners/", "/adframe/", "/sponsor/"];

/// The path prefix trackers serve pixels/beacons under — matched by the
/// synthetic EasyPrivacy path rules.
pub const TRACK_PATH_MARKERS: [&str; 3] = ["/pixel/", "/beacon/", "/collect/"];

#[cfg(test)]
mod tests {
    use super::*;

    fn company(kind: AdTechKind) -> AdTechCompany {
        AdTechCompany {
            id: 0,
            name: "TestCo".into(),
            kind,
            domains: vec!["ads.testco.example".into(), "static.testco.example".into()],
            acceptable: false,
            rtb: false,
            listed: true,
            weight: 1.0,
        }
    }

    #[test]
    fn privacy_target_classification() {
        assert!(company(AdTechKind::Tracker).is_privacy_target());
        assert!(company(AdTechKind::Analytics).is_privacy_target());
        assert!(!company(AdTechKind::AdNetwork).is_privacy_target());
        assert!(!company(AdTechKind::Exchange).is_privacy_target());
    }

    #[test]
    fn primary_domain() {
        assert_eq!(
            company(AdTechKind::AdNetwork).primary_domain(),
            "ads.testco.example"
        );
    }
}
