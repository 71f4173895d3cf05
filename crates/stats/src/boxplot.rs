//! Box-plot (Tukey) summaries for Figure 2 of the paper.

use crate::percentile::percentile_sorted;

/// A Tukey box-plot summary: quartiles, whiskers at 1.5 IQR, and outliers.
///
/// Figure 2 of the paper shows box plots of the per-iteration ratio of ad
/// requests for different browser configurations and activity levels; the
/// experiment harness reproduces those panels by building one `BoxPlot` per
/// (configuration, page-load-count) cell.
#[derive(Debug, Clone, PartialEq)]
pub struct BoxPlot {
    /// Number of samples.
    pub count: usize,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Lower whisker: smallest sample >= q1 - 1.5*IQR.
    pub whisker_lo: f64,
    /// Upper whisker: largest sample <= q3 + 1.5*IQR.
    pub whisker_hi: f64,
    /// Samples outside the whiskers.
    pub outliers: Vec<f64>,
}

impl BoxPlot {
    /// Summarize samples; NaN values are dropped. Returns `None` when no
    /// valid samples remain.
    pub fn from_samples(samples: &[f64]) -> Option<Self> {
        let mut v: Vec<f64> = samples.iter().copied().filter(|x| !x.is_nan()).collect();
        if v.is_empty() {
            return None;
        }
        v.sort_by(|a, b| a.partial_cmp(b).expect("NaN filtered"));
        let q1 = percentile_sorted(&v, 25.0);
        let median = percentile_sorted(&v, 50.0);
        let q3 = percentile_sorted(&v, 75.0);
        let iqr = q3 - q1;
        let lo_fence = q1 - 1.5 * iqr;
        let hi_fence = q3 + 1.5 * iqr;
        // Whiskers reach to the most extreme samples inside the fences, but
        // never retreat inside the box: interpolated quartiles can exceed
        // every in-fence sample when outliers dominate a small sample.
        let whisker_lo = v
            .iter()
            .copied()
            .find(|&x| x >= lo_fence)
            .unwrap_or(v[0])
            .min(q1);
        let whisker_hi = v
            .iter()
            .rev()
            .copied()
            .find(|&x| x <= hi_fence)
            .unwrap_or(v[v.len() - 1])
            .max(q3);
        let outliers = v
            .iter()
            .copied()
            .filter(|&x| x < whisker_lo || x > whisker_hi)
            .collect();
        Some(BoxPlot {
            count: v.len(),
            q1,
            median,
            q3,
            whisker_lo,
            whisker_hi,
            outliers,
        })
    }

    /// True when this box's upper quartile is below the other's lower
    /// quartile (the boxes do not overlap, even if the whiskers do).
    pub fn box_below(&self, other: &BoxPlot) -> bool {
        self.q3 < other.q1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles() {
        let b = BoxPlot::from_samples(&[1.0, 2.0, 3.0, 4.0, 5.0]).unwrap();
        assert_eq!(b.median, 3.0);
        assert_eq!(b.q1, 2.0);
        assert_eq!(b.q3, 4.0);
        assert!(b.outliers.is_empty());
        assert_eq!(b.whisker_lo, 1.0);
        assert_eq!(b.whisker_hi, 5.0);
    }

    #[test]
    fn detects_outliers() {
        let mut v = vec![10.0; 20];
        v.push(1000.0);
        let b = BoxPlot::from_samples(&v).unwrap();
        assert_eq!(b.outliers, vec![1000.0]);
        assert_eq!(b.whisker_hi, 10.0);
    }

    #[test]
    fn empty_and_nan() {
        assert!(BoxPlot::from_samples(&[]).is_none());
        assert!(BoxPlot::from_samples(&[f64::NAN]).is_none());
        let b = BoxPlot::from_samples(&[f64::NAN, 2.0]).unwrap();
        assert_eq!(b.count, 1);
        assert_eq!(b.median, 2.0);
    }

    #[test]
    fn separation_predicates() {
        let lo = BoxPlot::from_samples(&[0.0, 0.5, 1.0, 1.5, 2.0]).unwrap();
        let hi = BoxPlot::from_samples(&[10.0, 10.5, 11.0, 11.5, 12.0]).unwrap();
        assert!(lo.box_below(&hi));
        assert!(!hi.box_below(&lo));
        // Overlapping distributions are not separated.
        let mid = BoxPlot::from_samples(&[1.0, 1.5, 2.0, 2.5, 3.0]).unwrap();
        assert!(!lo.box_below(&mid));
    }

    #[test]
    fn single_sample() {
        let b = BoxPlot::from_samples(&[3.5]).unwrap();
        assert_eq!(b.median, 3.5);
        assert_eq!(b.q1, 3.5);
        assert_eq!(b.whisker_hi, 3.5);
        assert_eq!(b.q3 - b.q1, 0.0);
    }
}
