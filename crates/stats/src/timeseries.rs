//! Time-binned counters for Figures 5a/5b of the paper.

/// A set of named counters binned over time, e.g. requests per hour split
/// into non-ad / EasyList / EasyPrivacy / non-intrusive series (Figure 5a),
/// or ad bytes vs total bytes (Figure 5b).
///
/// Time is measured in seconds from an arbitrary trace origin; the bin width
/// is fixed at construction (the paper uses one-hour bins).
#[derive(Debug, Clone, PartialEq)]
pub struct TimeSeries {
    bin_secs: u64,
    nbins: usize,
    names: Vec<String>,
    /// `series[s][b]` = accumulated value of series `s` in bin `b`.
    series: Vec<Vec<f64>>,
}

impl TimeSeries {
    /// Create a time series covering `duration_secs` seconds with bins of
    /// `bin_secs`, tracking one row per name in `names`.
    ///
    /// # Panics
    /// Panics when `bin_secs == 0` or `names` is empty.
    pub fn new(duration_secs: u64, bin_secs: u64, names: &[&str]) -> Self {
        assert!(bin_secs > 0, "bin width must be positive");
        assert!(!names.is_empty(), "need at least one series");
        let nbins = (duration_secs.div_ceil(bin_secs)).max(1) as usize;
        TimeSeries {
            bin_secs,
            nbins,
            names: names.iter().map(|s| s.to_string()).collect(),
            series: vec![vec![0.0; nbins]; names.len()],
        }
    }

    /// Add `value` to series `idx` at time `t_secs`. Times beyond the
    /// configured duration accumulate in the final bin.
    pub fn add_at(&mut self, idx: usize, t_secs: f64, value: f64) {
        let b = ((t_secs.max(0.0) as u64) / self.bin_secs) as usize;
        let b = b.min(self.nbins - 1);
        self.series[idx][b] += value;
    }

    /// Series names in index order.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// Values of series `idx`.
    pub fn values(&self, idx: usize) -> &[f64] {
        &self.series[idx]
    }

    /// Per-bin ratio of series `num` over series `den`, as percentages.
    pub fn ratio_pct(&self, num: usize, den: usize) -> Vec<f64> {
        (0..self.nbins)
            .map(|b| {
                let d = self.series[den][b];
                if d <= 0.0 {
                    0.0
                } else {
                    self.series[num][b] / d * 100.0
                }
            })
            .collect()
    }

    /// The peak-to-trough swing of a ratio vector, ignoring empty bins.
    /// Figure 5b's headline is that the ad-request share oscillates between
    /// roughly 6 % and 12 % over the day; this helper extracts that band.
    pub fn swing(ratios: &[f64]) -> Option<(f64, f64)> {
        let vals: Vec<f64> = ratios.iter().copied().filter(|&r| r > 0.0).collect();
        if vals.is_empty() {
            return None;
        }
        let lo = vals.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = vals.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        Some((lo, hi))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bins_by_hour() {
        let mut ts = TimeSeries::new(4 * 3600, 3600, &["ads", "rest"]);
        ts.add_at(0, 0.0, 1.0);
        ts.add_at(0, 3599.0, 1.0);
        ts.add_at(0, 3600.0, 5.0);
        assert_eq!(ts.values(0), &[2.0, 5.0, 0.0, 0.0]);
    }

    #[test]
    fn overflow_goes_to_last_bin() {
        let mut ts = TimeSeries::new(2 * 3600, 3600, &["x"]);
        ts.add_at(0, 99_999.0, 3.0);
        assert_eq!(ts.values(0), &[0.0, 3.0]);
    }

    #[test]
    fn share_and_ratio() {
        let mut ts = TimeSeries::new(3600, 3600, &["ads", "rest"]);
        ts.add_at(0, 10.0, 10.0);
        ts.add_at(1, 10.0, 90.0);
        assert!((ts.ratio_pct(0, 1)[0] - 11.111).abs() < 0.01);
    }

    #[test]
    fn empty_bins_are_zero_share() {
        let ts = TimeSeries::new(7200, 3600, &["a", "b"]);
        assert_eq!(ts.ratio_pct(0, 1), vec![0.0, 0.0]);
    }

    #[test]
    fn swing_ignores_empty() {
        assert_eq!(TimeSeries::swing(&[0.0, 6.0, 12.0, 0.0]), Some((6.0, 12.0)));
        assert_eq!(TimeSeries::swing(&[0.0]), None);
    }
}
