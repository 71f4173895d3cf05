//! Server-side processing and back-office latency.
//!
//! Figure 7 of the paper distinguishes three modes in the difference between
//! HTTP and TCP handshake times: ~1 ms (plain servers answering from
//! memory), ~10 ms (servers doing some work or one back-office hop) and
//! ~120 ms (real-time-bidding auctions, which wait around 100 ms for bids
//! before answering). This module models the server-side component that is
//! *added on top of* the network RTT.

use crate::rtt::lognormal;
use rand::Rng;

/// How much back-office machinery sits behind a response.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BackendClass {
    /// Static content served directly (cache hit, static file).
    Static,
    /// Dynamic page assembly or a single internal lookup.
    Dynamic,
    /// Real-time-bidding auction: the exchange waits ~100 ms for bids
    /// before answering (§8.2, citing the Google AdExchange guidance).
    RtbAuction,
    /// CDN edge that must fetch from a distant origin on a miss.
    CdnMiss,
}

/// Parameters of the server-side latency model.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct LatencyModel {
    /// Median processing time of static responses (ms).
    pub static_ms: f64,
    /// Median processing time of dynamic responses (ms).
    pub dynamic_ms: f64,
    /// Auction hold time of RTB exchanges (ms).
    pub rtb_hold_ms: f64,
    /// Median origin-fetch penalty of CDN misses (ms).
    pub cdn_miss_ms: f64,
}

impl Default for LatencyModel {
    fn default() -> Self {
        LatencyModel {
            static_ms: 1.0,
            dynamic_ms: 10.0,
            rtb_hold_ms: 110.0,
            cdn_miss_ms: 70.0,
        }
    }
}

impl LatencyModel {
    /// Sample the server-side delay (ms) for a backend class. This is what
    /// the passive methodology observes as `HTTP handshake − TCP handshake`
    /// (plus measurement noise added by the capture).
    pub(crate) fn sample_ms<R: Rng + ?Sized>(&self, class: BackendClass, rng: &mut R) -> f64 {
        match class {
            BackendClass::Static => self.static_ms * lognormal(rng, 0.0, 0.45),
            BackendClass::Dynamic => self.dynamic_ms * lognormal(rng, 0.0, 0.4),
            BackendClass::RtbAuction => {
                // The hold time is a deadline, not a distribution: auctions
                // close at ~100 ms with small spread, plus the exchange's
                // own processing.
                self.rtb_hold_ms * lognormal(rng, 0.0, 0.08) + self.dynamic_ms * 0.3
            }
            BackendClass::CdnMiss => self.cdn_miss_ms * lognormal(rng, 0.0, 0.3),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn median_of(class: BackendClass) -> f64 {
        let m = LatencyModel::default();
        let mut rng = StdRng::seed_from_u64(11);
        let mut v: Vec<f64> = (0..3000).map(|_| m.sample_ms(class, &mut rng)).collect();
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        v[v.len() / 2]
    }

    #[test]
    fn modes_land_on_figure7_positions() {
        let s = median_of(BackendClass::Static);
        let d = median_of(BackendClass::Dynamic);
        let r = median_of(BackendClass::RtbAuction);
        assert!((0.5..2.0).contains(&s), "static median {s}");
        assert!((6.0..16.0).contains(&d), "dynamic median {d}");
        assert!((100.0..140.0).contains(&r), "rtb median {r}");
    }

    #[test]
    fn rtb_exceeds_100ms_consistently() {
        let m = LatencyModel::default();
        let mut rng = StdRng::seed_from_u64(5);
        let over = (0..1000)
            .filter(|_| m.sample_ms(BackendClass::RtbAuction, &mut rng) >= 90.0)
            .count();
        assert!(over > 900, "only {over}/1000 RTB samples >= 90 ms");
    }

    #[test]
    fn all_samples_positive() {
        let m = LatencyModel::default();
        let mut rng = StdRng::seed_from_u64(6);
        for class in [
            BackendClass::Static,
            BackendClass::Dynamic,
            BackendClass::RtbAuction,
            BackendClass::CdnMiss,
        ] {
            for _ in 0..200 {
                assert!(m.sample_ms(class, &mut rng) > 0.0);
            }
        }
    }
}
