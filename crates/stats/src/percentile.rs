//! Quantiles and five-plus-number summaries.

/// Compute the `q`-th percentile (`0.0..=100.0`) of `sorted` samples using
/// linear interpolation between closest ranks (the "type 7" estimator used by
/// R and NumPy's default).
///
/// `sorted` must be sorted ascending; an empty slice yields `f64::NAN`.
pub(crate) fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    if sorted.len() == 1 {
        return sorted[0];
    }
    let q = q.clamp(0.0, 100.0);
    let rank = q / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let w = rank - lo as f64;
        sorted[lo] * (1.0 - w) + sorted[hi] * w
    }
}

/// Compute the `q`-th percentile of unsorted samples (allocates a sorted copy).
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    let mut v: Vec<f64> = samples.iter().copied().filter(|x| !x.is_nan()).collect();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN filtered"));
    percentile_sorted(&v, q)
}

/// A summary of a univariate sample: count, mean, and key quantiles.
///
/// This mirrors the statistics the paper reports for the per-server ad-object
/// distribution in §8.1 (median 7, mean 438, p90/p95/p99 = 320 / 1.1 K /
/// 6.8 K).
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Number of (non-NaN) samples.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Minimum.
    pub min: f64,
    /// 25th percentile.
    pub p25: f64,
    /// Median (50th percentile).
    pub median: f64,
    /// 75th percentile.
    pub p75: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Maximum.
    pub max: f64,
}

impl Summary {
    /// Summarize a sample. NaN values are dropped; an empty (or all-NaN)
    /// sample produces a summary with `count == 0` and NaN statistics.
    pub fn from_samples(samples: &[f64]) -> Self {
        let mut v: Vec<f64> = samples.iter().copied().filter(|x| !x.is_nan()).collect();
        v.sort_by(|a, b| a.partial_cmp(b).expect("NaN filtered"));
        if v.is_empty() {
            return Summary {
                count: 0,
                mean: f64::NAN,
                min: f64::NAN,
                p25: f64::NAN,
                median: f64::NAN,
                p75: f64::NAN,
                p90: f64::NAN,
                p95: f64::NAN,
                p99: f64::NAN,
                max: f64::NAN,
            };
        }
        let mean = v.iter().sum::<f64>() / v.len() as f64;
        Summary {
            count: v.len(),
            mean,
            min: v[0],
            p25: percentile_sorted(&v, 25.0),
            median: percentile_sorted(&v, 50.0),
            p75: percentile_sorted(&v, 75.0),
            p90: percentile_sorted(&v, 90.0),
            p95: percentile_sorted(&v, 95.0),
            p99: percentile_sorted(&v, 99.0),
            max: v[v.len() - 1],
        }
    }

    /// Summarize integer counts (convenience for request-per-server style
    /// distributions).
    pub fn from_counts(counts: &[u64]) -> Self {
        let v: Vec<f64> = counts.iter().map(|&c| c as f64).collect();
        Self::from_samples(&v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert!((percentile(&v, 50.0) - 2.5).abs() < 1e-12);
        // type-7: rank = 0.25 * 3 = 0.75 -> 1.75
        assert!((percentile(&v, 25.0) - 1.75).abs() < 1e-12);
    }

    #[test]
    fn percentile_single_and_empty() {
        assert_eq!(percentile(&[42.0], 73.0), 42.0);
        assert!(percentile(&[], 50.0).is_nan());
    }

    #[test]
    fn percentile_unsorted_input() {
        let v = [9.0, 1.0, 5.0];
        assert_eq!(percentile(&v, 50.0), 5.0);
    }

    #[test]
    fn percentile_clamps_out_of_range_q() {
        let v = [1.0, 2.0];
        assert_eq!(percentile(&v, -5.0), 1.0);
        assert_eq!(percentile(&v, 150.0), 2.0);
    }

    #[test]
    fn summary_basic() {
        let s = Summary::from_samples(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(s.count, 5);
        assert_eq!(s.median, 3.0);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 5.0);
        assert!((s.mean - 3.0).abs() < 1e-12);
    }

    #[test]
    fn summary_drops_nan() {
        let s = Summary::from_samples(&[1.0, f64::NAN, 3.0]);
        assert_eq!(s.count, 2);
        assert_eq!(s.median, 2.0);
    }

    #[test]
    fn summary_empty() {
        let s = Summary::from_samples(&[]);
        assert_eq!(s.count, 0);
        assert!(s.mean.is_nan());
    }

    #[test]
    fn summary_from_counts_heavy_tail() {
        // A heavy-tailed distribution like requests-per-server: the mean must
        // exceed the median by a lot.
        let mut counts = vec![1u64; 900];
        counts.extend(vec![10_000u64; 10]);
        let s = Summary::from_counts(&counts);
        assert_eq!(s.median, 1.0);
        assert!(s.mean > 100.0);
        assert!(s.p99 >= s.p95 && s.p95 >= s.p90 && s.p90 >= s.median);
    }
}
