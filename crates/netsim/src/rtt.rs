//! Wide-area round-trip-time model.
//!
//! The monitor sits in the ISP's aggregation network, so the TCP handshake
//! time "only captures the wide area delays and thus automatically removes
//! access network variations" (§8.2). We model that wide-area RTT per
//! server region: intra-ISP caches answer in ~1 ms, European servers in
//! ~10–30 ms, US servers in ~90–120 ms, Asian servers in ~250 ms. These are
//! the latency "floors" that produce the 1 ms / 10 ms modes of Figure 7,
//! while the 120 ms mode comes from RTB auctions on top (see [`crate::latency`]).

use rand::Rng;

/// Geographic placement of a server relative to the vantage point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Region {
    /// CDN cache deployed inside the ISP (Akamai-style) — sub-millisecond.
    IspCache,
    /// Same country / nearby IXP.
    European,
    /// US east coast.
    UsEast,
    /// US west coast.
    UsWest,
    /// Far east.
    Asia,
}

impl Region {
    /// All regions (for tests and generators).
    pub const ALL: [Region; 5] = [
        Region::IspCache,
        Region::European,
        Region::UsEast,
        Region::UsWest,
        Region::Asia,
    ];

    /// Median wide-area RTT in milliseconds.
    pub(crate) fn base_rtt_ms(self) -> f64 {
        match self {
            Region::IspCache => 0.9,
            Region::European => 14.0,
            Region::UsEast => 95.0,
            Region::UsWest => 145.0,
            Region::Asia => 250.0,
        }
    }

    /// Sample an RTT for a new connection: the regional base with
    /// multiplicative log-normal jitter (σ ≈ 0.25) plus a small additive
    /// queueing component. Never below 0.1 ms.
    pub(crate) fn sample_rtt_ms<R: Rng + ?Sized>(self, rng: &mut R) -> f64 {
        let base = self.base_rtt_ms();
        let jitter = lognormal(rng, 0.0, 0.25);
        let queueing = rng.gen_range(0.0..0.4);
        (base * jitter + queueing).max(0.1)
    }
}

/// Sample a log-normal variate with the given mu/sigma of the underlying
/// normal, via Box-Muller (keeps us inside the allowed `rand` dependency —
/// no `rand_distr`).
pub fn lognormal<R: Rng + ?Sized>(rng: &mut R, mu: f64, sigma: f64) -> f64 {
    (mu + sigma * standard_normal(rng)).exp()
}

/// Sample a standard normal variate via Box-Muller.
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        let u2: f64 = rng.gen_range(0.0..1.0);
        let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        if z.is_finite() {
            return z;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn regional_ordering_preserved() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut medians = Vec::new();
        for region in Region::ALL {
            let mut v: Vec<f64> = (0..2000).map(|_| region.sample_rtt_ms(&mut rng)).collect();
            v.sort_by(|a, b| a.partial_cmp(b).unwrap());
            medians.push(v[v.len() / 2]);
        }
        for w in medians.windows(2) {
            assert!(w[0] < w[1], "medians must increase: {:?}", medians);
        }
    }

    #[test]
    fn samples_positive_and_near_base() {
        let mut rng = StdRng::seed_from_u64(1);
        for region in Region::ALL {
            for _ in 0..500 {
                let r = region.sample_rtt_ms(&mut rng);
                assert!(r > 0.0);
                assert!(
                    r < region.base_rtt_ms() * 4.0 + 2.0,
                    "outlier {r} for {region:?}"
                );
            }
        }
    }

    #[test]
    fn lognormal_median_near_exp_mu() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut v: Vec<f64> = (0..4000).map(|_| lognormal(&mut rng, 1.0, 0.5)).collect();
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = v[v.len() / 2];
        assert!((median - 1.0f64.exp()).abs() < 0.3, "median {median}");
    }

    #[test]
    fn standard_normal_moments() {
        let mut rng = StdRng::seed_from_u64(3);
        let n = 8000;
        let samples: Vec<f64> = (0..n).map(|_| standard_normal(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }
}
