//! Smoothed log-scale densities (Figures 6 and 7 of the paper).

use crate::histogram::LogHistogram;

/// A kernel-smoothed estimate of the probability density of `log10(X)`.
///
/// The paper plots `density(log(object size))` per MIME class (Figure 6) and
/// `density(log(handshake-time difference))` for ad vs non-ad requests
/// (Figure 7). We estimate it by log-binning the samples into a fine
/// `LogHistogram` and convolving with a small Gaussian kernel, which is
/// enough to recover the *modes* the paper argues from (43 B pixels, >1 MB
/// video ads; 1 / 10 / 120 ms latency modes).
#[derive(Debug, Clone, PartialEq)]
pub struct LogDensity {
    hist: LogHistogram,
    /// Gaussian kernel bandwidth in log10 units.
    bandwidth: f64,
}

impl LogDensity {
    /// Create a density estimator over `[10^lo_exp, 10^hi_exp)` with `nbins`
    /// underlying bins and a Gaussian `bandwidth` in log10 units.
    pub fn new(lo_exp: f64, hi_exp: f64, nbins: usize, bandwidth: f64) -> Self {
        LogDensity {
            hist: LogHistogram::new(lo_exp, hi_exp, nbins),
            bandwidth: bandwidth.max(1e-6),
        }
    }

    /// Record a sample (non-positive samples are tallied but not binned).
    pub fn add(&mut self, x: f64) {
        self.hist.add(x);
    }

    /// Record many samples.
    pub fn extend<I: IntoIterator<Item = f64>>(&mut self, xs: I) {
        for x in xs {
            self.add(x);
        }
    }

    /// Add another estimator's samples in (same range, bins and bandwidth;
    /// see `LogHistogram::merge`).
    pub fn merge(&mut self, other: &LogDensity) {
        self.hist.merge(&other.hist);
    }

    /// Total samples recorded.
    pub fn total(&self) -> u64 {
        self.hist.total()
    }

    /// The smoothed density evaluated at each bin center, as
    /// `(x_center_linear, density_of_log10)` pairs.
    pub(crate) fn curve(&self) -> Vec<(f64, f64)> {
        let raw = self.hist.log_density();
        let centers = self.hist.centers_log();
        if raw.is_empty() {
            return Vec::new();
        }
        let w = centers.get(1).map_or(1.0, |c1| c1 - centers[0]).max(1e-12);
        // Discrete Gaussian kernel over +-3 sigma.
        let radius = ((3.0 * self.bandwidth / w).ceil() as usize).max(1);
        let kernel: Vec<f64> = (0..=2 * radius)
            .map(|i| {
                let d = (i as f64 - radius as f64) * w / self.bandwidth;
                (-0.5 * d * d).exp()
            })
            .collect();
        let ksum: f64 = kernel.iter().sum();
        let n = raw.len();
        let smoothed: Vec<f64> = (0..n)
            .map(|i| {
                let mut acc = 0.0;
                for (k, &kv) in kernel.iter().enumerate() {
                    let j = i as isize + k as isize - radius as isize;
                    if j >= 0 && (j as usize) < n {
                        acc += raw[j as usize] * kv;
                    }
                }
                acc / ksum
            })
            .collect();
        self.hist
            .centers_linear()
            .into_iter()
            .zip(smoothed)
            .collect()
    }

    /// Local maxima of the smoothed density whose height is at least
    /// `min_frac` of the global maximum, returned as linear-unit x positions
    /// sorted ascending. This is how the experiment harness asserts the
    /// 1 / 10 / 120 ms RTB modes of Figure 7.
    pub fn modes(&self, min_frac: f64) -> Vec<f64> {
        let curve = self.curve();
        if curve.len() < 3 {
            return Vec::new();
        }
        let peak = curve.iter().map(|&(_, d)| d).fold(0.0f64, f64::max);
        if peak <= 0.0 {
            return Vec::new();
        }
        let mut out = Vec::new();
        for i in 1..curve.len() - 1 {
            let (x, d) = curve[i];
            if d >= curve[i - 1].1 && d > curve[i + 1].1 && d >= min_frac * peak {
                // Skip plateaus already reported.
                if out.last().is_none_or(|&last: &f64| x / last > 1.2) {
                    out.push(x);
                }
            }
        }
        out
    }

    /// Fraction of binned samples whose value is `>= threshold` (linear
    /// units). Used for "share of ad objects with handshake gap >= 100 ms".
    pub fn frac_at_least(&self, threshold: f64) -> f64 {
        let total: u64 = self.hist.counts().iter().sum();
        if total == 0 {
            return 0.0;
        }
        let centers = self.hist.centers_linear();
        let above: u64 = self
            .hist
            .counts()
            .iter()
            .zip(&centers)
            .filter(|&(_, &c)| c >= threshold)
            .map(|(&n, _)| n)
            .sum();
        above as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn density_with(points: &[(f64, usize)]) -> LogDensity {
        let mut d = LogDensity::new(-3.0, 4.0, 140, 0.08);
        for &(x, n) in points {
            for _ in 0..n {
                d.add(x);
            }
        }
        d
    }

    #[test]
    fn recovers_single_mode() {
        let d = density_with(&[(10.0, 1000)]);
        let modes = d.modes(0.5);
        assert_eq!(modes.len(), 1);
        assert!(modes[0] > 5.0 && modes[0] < 20.0, "mode at {}", modes[0]);
    }

    #[test]
    fn recovers_three_latency_modes() {
        // Figure 7 shape: modes at ~1, ~10, ~120 ms.
        let d = density_with(&[(1.0, 800), (10.0, 500), (120.0, 400)]);
        let modes = d.modes(0.2);
        assert_eq!(modes.len(), 3, "modes: {:?}", modes);
        assert!(modes[0] < 3.0);
        assert!(modes[1] > 5.0 && modes[1] < 30.0);
        assert!(modes[2] > 60.0 && modes[2] < 300.0);
    }

    #[test]
    fn frac_at_least() {
        let d = density_with(&[(1.0, 90), (200.0, 10)]);
        let f = d.frac_at_least(100.0);
        assert!((f - 0.1).abs() < 0.02, "frac {}", f);
    }

    #[test]
    fn empty_density() {
        let d = LogDensity::new(0.0, 4.0, 40, 0.1);
        assert!(d.modes(0.1).is_empty());
        assert_eq!(d.frac_at_least(1.0), 0.0);
        assert!(d.curve().iter().all(|&(_, y)| y == 0.0));
    }

    #[test]
    fn curve_integrates_to_roughly_one() {
        let d = density_with(&[(5.0, 100), (500.0, 100)]);
        let curve = d.curve();
        let w = 7.0 / 140.0; // log-range / nbins
        let integral: f64 = curve.iter().map(|&(_, y)| y * w).sum();
        assert!((integral - 1.0).abs() < 0.05, "integral {}", integral);
    }
}
