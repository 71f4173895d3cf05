//! Property tests for the statistics substrate.

use proptest::prelude::*;
use stats::{percentile, BoxPlot, Ecdf, Histogram, LogDensity, Summary};

fn samples_strategy() -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(-1e6f64..1e6, 1..200)
}

proptest! {
    #[test]
    fn ecdf_is_monotone_and_bounded(samples in samples_strategy()) {
        let mut xs = samples.clone();
        xs.sort_by(f64::total_cmp);
        let e = Ecdf::from_samples(samples);
        let ys: Vec<f64> = xs.iter().map(|&x| e.eval(x)).collect();
        for w in ys.windows(2) {
            prop_assert!(w[1] >= w[0], "non-monotone ECDF");
        }
        for &y in &ys {
            prop_assert!((0.0..=1.0).contains(&y));
        }
        if let Some(&last) = ys.last() {
            prop_assert!((last - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn ecdf_eval_matches_counting(samples in samples_strategy(), x in -1e6f64..1e6) {
        let n_le = samples.iter().filter(|&&s| s <= x).count();
        let e = Ecdf::from_samples(samples.clone());
        let expected = n_le as f64 / samples.len() as f64;
        prop_assert!((e.eval(x) - expected).abs() < 1e-12);
    }

    #[test]
    fn percentiles_are_ordered(samples in samples_strategy()) {
        let p10 = percentile(&samples, 10.0);
        let p50 = percentile(&samples, 50.0);
        let p90 = percentile(&samples, 90.0);
        prop_assert!(p10 <= p50 && p50 <= p90);
    }

    #[test]
    fn summary_bounds_hold(samples in samples_strategy()) {
        let s = Summary::from_samples(&samples);
        prop_assert_eq!(s.count, samples.len());
        prop_assert!(s.min <= s.median && s.median <= s.max);
        prop_assert!(s.min <= s.mean && s.mean <= s.max);
        prop_assert!(s.p90 <= s.p95 && s.p95 <= s.p99 && s.p99 <= s.max);
    }

    #[test]
    fn boxplot_quartiles_ordered(samples in samples_strategy()) {
        let b = BoxPlot::from_samples(&samples).unwrap();
        prop_assert!(b.whisker_lo <= b.q1);
        prop_assert!(b.q1 <= b.median && b.median <= b.q3);
        prop_assert!(b.q3 <= b.whisker_hi);
        // Outliers are outside the whiskers.
        for &o in &b.outliers {
            prop_assert!(o < b.whisker_lo || o > b.whisker_hi);
        }
        // Count conserved: outliers + in-range = all samples.
        let in_range = samples
            .iter()
            .filter(|&&x| x >= b.whisker_lo && x <= b.whisker_hi)
            .count();
        prop_assert_eq!(in_range + b.outliers.len(), samples.len());
    }

    #[test]
    fn histogram_conserves_totals(samples in samples_strategy(), nbins in 1usize..40) {
        let mut h = Histogram::new(-1e5, 1e5, nbins);
        for &s in &samples {
            h.add(s);
        }
        let binned: u64 = h.counts().iter().sum();
        let underflow = samples.iter().filter(|&&s| s < -1e5).count() as u64;
        prop_assert_eq!(binned + underflow + h.overflow(), samples.len() as u64);
    }

    #[test]
    fn log_histogram_handles_any_sign(samples in samples_strategy()) {
        let mut h = LogDensity::new(0.0, 7.0, 30, 0.1);
        for &s in &samples {
            h.add(s);
        }
        prop_assert_eq!(h.total(), samples.len() as u64);
    }
}
