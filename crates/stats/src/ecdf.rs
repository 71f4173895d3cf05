//! Empirical cumulative distribution functions (Figure 4 of the paper).

/// An empirical CDF over a set of f64 samples.
///
/// Construction sorts the samples once; evaluation is a binary search. The
/// paper uses ECDFs to show the per-browser-family distribution of the
/// percentage of ad requests (Figure 4), which is how Adblock Plus candidates
/// become visible as a mass near zero.
#[derive(Debug, Clone, PartialEq)]
pub struct Ecdf {
    sorted: Vec<f64>,
}

impl Ecdf {
    /// Build an ECDF from raw samples. NaN samples are dropped.
    pub fn from_samples(mut samples: Vec<f64>) -> Self {
        samples.retain(|x| !x.is_nan());
        samples.sort_by(|a, b| a.partial_cmp(b).expect("NaN filtered"));
        Ecdf { sorted: samples }
    }

    /// Number of samples backing the ECDF.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// True when the ECDF holds no samples.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Evaluate `F(x) = P[X <= x]`. Returns 0.0 for an empty ECDF.
    pub fn eval(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        // partition_point returns the number of samples <= x because the
        // predicate admits equal values.
        let n_le = self.sorted.partition_point(|&s| s <= x);
        n_le as f64 / self.sorted.len() as f64
    }

    /// Inverse ECDF: smallest sample `x` such that `F(x) >= p`.
    ///
    /// `p` is clamped to `(0, 1]`; returns `None` for an empty ECDF.
    pub fn quantile(&self, p: f64) -> Option<f64> {
        if self.sorted.is_empty() {
            return None;
        }
        let p = p.clamp(f64::MIN_POSITIVE, 1.0);
        let rank = (p * self.sorted.len() as f64).ceil() as usize;
        Some(self.sorted[rank.saturating_sub(1).min(self.sorted.len() - 1)])
    }

    /// Sample the ECDF at logarithmically spaced x positions, matching the
    /// log-scale x axis of Figure 4. All samples must be positive for this to
    /// be meaningful; non-positive lower bounds are clamped to `min_positive`.
    pub fn curve_log(&self, n: usize, min_positive: f64) -> Vec<(f64, f64)> {
        if self.sorted.is_empty() || n == 0 {
            return Vec::new();
        }
        let lo = self.sorted[0].max(min_positive);
        let hi = self.sorted[self.sorted.len() - 1].max(lo);
        if n == 1 || hi == lo {
            return vec![(hi, 1.0)];
        }
        let (llo, lhi) = (lo.ln(), hi.ln());
        (0..n)
            .map(|i| {
                let x = (llo + (lhi - llo) * i as f64 / (n - 1) as f64).exp();
                (x, self.eval(x))
            })
            .collect()
    }

    /// Fraction of samples strictly below `x` — the paper's "X % of browsers
    /// issue less than 1 % ad requests" statements use this form.
    pub fn frac_below(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let n_lt = self.sorted.partition_point(|&s| s < x);
        n_lt as f64 / self.sorted.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_steps() {
        let e = Ecdf::from_samples(vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(e.eval(0.5), 0.0);
        assert_eq!(e.eval(1.0), 0.25);
        assert_eq!(e.eval(2.5), 0.5);
        assert_eq!(e.eval(4.0), 1.0);
        assert_eq!(e.eval(100.0), 1.0);
    }

    #[test]
    fn eval_with_ties() {
        let e = Ecdf::from_samples(vec![2.0, 2.0, 2.0, 5.0]);
        assert_eq!(e.eval(2.0), 0.75);
        assert_eq!(e.eval(1.9), 0.0);
    }

    #[test]
    fn frac_below_excludes_equal() {
        let e = Ecdf::from_samples(vec![1.0, 2.0, 2.0, 3.0]);
        assert_eq!(e.frac_below(2.0), 0.25);
        assert_eq!(e.eval(2.0), 0.75);
    }

    #[test]
    fn quantile_inverse() {
        let e = Ecdf::from_samples(vec![10.0, 20.0, 30.0, 40.0, 50.0]);
        assert_eq!(e.quantile(0.2), Some(10.0));
        assert_eq!(e.quantile(0.5), Some(30.0));
        assert_eq!(e.quantile(1.0), Some(50.0));
    }

    #[test]
    fn empty_is_safe() {
        let e = Ecdf::from_samples(vec![]);
        assert!(e.is_empty());
        assert_eq!(e.eval(1.0), 0.0);
        assert_eq!(e.quantile(0.5), None);
        assert!(e.curve_log(10, 1e-6).is_empty());
    }

    #[test]
    fn nan_dropped() {
        let e = Ecdf::from_samples(vec![f64::NAN, 1.0]);
        assert_eq!(e.len(), 1);
    }

    #[test]
    fn curve_log_spacing() {
        let e = Ecdf::from_samples(vec![0.01, 0.1, 1.0, 10.0, 100.0]);
        let c = e.curve_log(9, 1e-6);
        assert_eq!(c.len(), 9);
        // Ratios between consecutive x values should be ~constant.
        let r0 = c[1].0 / c[0].0;
        let r1 = c[8].0 / c[7].0;
        assert!((r0 - r1).abs() < 1e-9);
    }

    #[test]
    fn degenerate_single_value() {
        let e = Ecdf::from_samples(vec![7.0, 7.0]);
        assert_eq!(e.curve_log(5, 1e-6), vec![(7.0, 1.0)]);
    }
}
