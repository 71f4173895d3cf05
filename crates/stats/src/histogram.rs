//! Linear and logarithmic histograms.

/// A fixed-range linear histogram over f64 samples.
///
/// Samples outside the configured range are counted in saturating edge bins
/// (`underflow` / `overflow`) so that totals remain conserved — important for
/// traffic shares where dropping the tail would skew percentages.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    bins: Vec<u64>,
    underflow: u64,
    overflow: u64,
    total: u64,
}

impl Histogram {
    /// Create a histogram over `[lo, hi)` with `nbins` equal-width bins.
    ///
    /// # Panics
    /// Panics if `nbins == 0` or `hi <= lo`.
    pub fn new(lo: f64, hi: f64, nbins: usize) -> Self {
        assert!(nbins > 0, "histogram needs at least one bin");
        assert!(hi > lo, "histogram range must be non-empty");
        Histogram {
            lo,
            hi,
            bins: vec![0; nbins],
            underflow: 0,
            overflow: 0,
            total: 0,
        }
    }

    /// Record one sample.
    pub fn add(&mut self, x: f64) {
        self.add_n(x, 1)
    }

    /// Record `n` identical samples.
    pub(crate) fn add_n(&mut self, x: f64, n: u64) {
        self.total += n;
        if x < self.lo {
            self.underflow += n;
        } else if x >= self.hi {
            self.overflow += n;
        } else {
            let w = (self.hi - self.lo) / self.bins.len() as f64;
            let idx = (((x - self.lo) / w) as usize).min(self.bins.len() - 1);
            self.bins[idx] += n;
        }
    }

    /// Add another histogram of the same range and bin count in, bin by bin.
    ///
    /// # Panics
    /// Panics when the two shapes differ.
    pub fn merge(&mut self, other: &Histogram) {
        assert!(
            (self.lo, self.hi, self.bins.len()) == (other.lo, other.hi, other.bins.len()),
            "histograms of different shapes do not merge"
        );
        for (mine, theirs) in self.bins.iter_mut().zip(&other.bins) {
            *mine += theirs;
        }
        self.underflow += other.underflow;
        self.overflow += other.overflow;
        self.total += other.total;
    }

    /// Number of recorded samples (including out-of-range ones).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Raw per-bin counts (excludes the edge bins).
    pub fn counts(&self) -> &[u64] {
        &self.bins
    }

    /// Samples that fell below the range.
    #[cfg(test)]
    fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Samples that fell at or above the upper bound.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Centers of each bin.
    pub(crate) fn centers(&self) -> Vec<f64> {
        let w = (self.hi - self.lo) / self.bins.len() as f64;
        (0..self.bins.len())
            .map(|i| self.lo + w * (i as f64 + 0.5))
            .collect()
    }

    /// Normalized bin densities such that `sum(density * width) == frac`
    /// where `frac` is the fraction of samples inside the range.
    pub fn density(&self) -> Vec<f64> {
        if self.total == 0 {
            return vec![0.0; self.bins.len()];
        }
        let w = (self.hi - self.lo) / self.bins.len() as f64;
        self.bins
            .iter()
            .map(|&c| c as f64 / self.total as f64 / w)
            .collect()
    }
}

/// A histogram over `log10(x)` for positive samples, used for the
/// object-size distributions in Figure 6 (x axis 1 B .. 100 MB, log scale).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct LogHistogram {
    inner: Histogram,
    nonpositive: u64,
}

impl LogHistogram {
    /// Create a log histogram covering `[10^lo_exp, 10^hi_exp)` with `nbins`
    /// bins equally spaced in log10 space.
    pub fn new(lo_exp: f64, hi_exp: f64, nbins: usize) -> Self {
        LogHistogram {
            inner: Histogram::new(lo_exp, hi_exp, nbins),
            nonpositive: 0,
        }
    }

    /// Record one sample. Non-positive samples cannot be log-binned and are
    /// tallied separately (`nonpositive`).
    pub fn add(&mut self, x: f64) {
        if x <= 0.0 {
            self.nonpositive += 1;
        } else {
            self.inner.add(x.log10());
        }
    }

    /// Add another log histogram of the same shape in, bin by bin (see
    /// [`Histogram::merge`]).
    pub fn merge(&mut self, other: &LogHistogram) {
        self.inner.merge(&other.inner);
        self.nonpositive += other.nonpositive;
    }

    /// Total samples recorded, including non-positive ones.
    pub fn total(&self) -> u64 {
        self.inner.total() + self.nonpositive
    }

    /// Per-bin counts.
    pub fn counts(&self) -> &[u64] {
        self.inner.counts()
    }

    /// Bin centers expressed back in linear units (`10^center`).
    pub(crate) fn centers_linear(&self) -> Vec<f64> {
        self.inner
            .centers()
            .iter()
            .map(|&c| 10f64.powf(c))
            .collect()
    }

    /// Bin centers in log10 units.
    pub(crate) fn centers_log(&self) -> Vec<f64> {
        self.inner.centers()
    }

    /// Probability mass per bin (fraction of all samples, including the
    /// non-positive tally in the denominator).
    pub fn mass(&self) -> Vec<f64> {
        let total = self.total();
        if total == 0 {
            return vec![0.0; self.inner.counts().len()];
        }
        self.inner
            .counts()
            .iter()
            .map(|&c| c as f64 / total as f64)
            .collect()
    }

    /// Density per unit of log10(x): `mass / bin_width_log`. This is the
    /// "probability density (of the logarithm)" axis used by Figures 6 and 7.
    pub(crate) fn log_density(&self) -> Vec<f64> {
        let w = (self.inner.hi - self.inner.lo) / self.inner.bins.len() as f64;
        self.mass().iter().map(|m| m / w).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_binning() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        h.add(0.0);
        h.add(0.5);
        h.add(9.99);
        assert_eq!(h.counts()[0], 2);
        assert_eq!(h.counts()[9], 1);
        assert_eq!(h.total(), 3);
    }

    #[test]
    fn edge_bins() {
        let mut h = Histogram::new(0.0, 1.0, 4);
        h.add(-1.0);
        h.add(1.0); // hi is exclusive
        h.add(2.0);
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.overflow(), 2);
        assert_eq!(h.total(), 3);
        assert_eq!(h.counts().iter().sum::<u64>(), 0);
    }

    #[test]
    fn density_integrates_to_in_range_fraction() {
        let mut h = Histogram::new(0.0, 10.0, 5);
        for i in 0..10 {
            h.add(i as f64);
        }
        h.add(-5.0); // 1 of 11 out of range
        let w = 2.0;
        let integral: f64 = h.density().iter().map(|d| d * w).sum();
        assert!((integral - 10.0 / 11.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic]
    fn zero_bins_panics() {
        Histogram::new(0.0, 1.0, 0);
    }

    #[test]
    fn log_histogram_bins_by_decade() {
        let mut h = LogHistogram::new(0.0, 8.0, 8); // 1 B .. 100 MB
        h.add(43.0); // tracking pixel: decade [10,100) -> bin 1
        h.add(2_000_000.0); // video ad: decade [1M,10M) -> bin 6
        assert_eq!(h.counts()[1], 1);
        assert_eq!(h.counts()[6], 1);
    }

    #[test]
    fn log_histogram_nonpositive() {
        let mut h = LogHistogram::new(0.0, 4.0, 4);
        h.add(0.0);
        h.add(-3.0);
        h.add(10.0);
        assert_eq!(h.counts().iter().sum::<u64>(), 1);
        assert_eq!(h.total(), 3);
    }

    #[test]
    fn log_histogram_mass_sums_to_one_in_range() {
        let mut h = LogHistogram::new(0.0, 4.0, 4);
        for x in [1.0, 10.0, 100.0, 1000.0] {
            h.add(x);
        }
        let sum: f64 = h.mass().iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn merged_halves_equal_the_whole() {
        let samples = [0.0, 0.5, 43.0, 43.0, 2_000_000.0, 1e12, -1.0, 7.0];
        let mut whole = LogHistogram::new(0.0, 8.0, 16);
        let mut halves = [whole.clone(), whole.clone()];
        for (i, x) in samples.into_iter().enumerate() {
            whole.add(x);
            halves[i % 2].add(x);
        }
        let [mut merged, other] = halves;
        merged.merge(&other);
        assert_eq!(merged, whole);
    }

    #[test]
    #[should_panic(expected = "different shapes")]
    fn merging_different_shapes_panics() {
        LogHistogram::new(0.0, 8.0, 16).merge(&LogHistogram::new(0.0, 8.0, 8));
    }
}
