//! Descriptive statistics and plain-text rendering utilities.
//!
//! This crate is the reporting substrate for the reproduction of *Annoyed
//! Users: Ads and Ad-Block Usage in the Wild* (IMC 2015). Every table and
//! figure in the paper is ultimately one of a handful of statistical
//! artifacts:
//!
//! * an **ECDF** (Figure 4),
//! * a **box plot** family (Figure 2),
//! * a **log-scale density** (Figures 6a/6b and 7),
//! * a **2-D log-log heat map** (Figure 3),
//! * a **binned time series** (Figures 5a/5b), or
//! * a **table of shares and counts** (Tables 1–5).
//!
//! The types here compute those artifacts from raw samples and render them as
//! plain text so that the `experiments` driver can print paper-comparable
//! rows and series without any plotting dependency.
//!
//! # Example
//!
//! ```
//! use stats::{Ecdf, Summary};
//!
//! let samples = vec![1.0, 2.0, 2.0, 3.0, 10.0];
//! let ecdf = Ecdf::from_samples(samples.clone());
//! assert_eq!(ecdf.eval(2.0), 0.6);          // 3 of 5 samples are <= 2.0
//! let s = Summary::from_samples(&samples);
//! assert_eq!(s.median, 2.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod boxplot;
pub mod density;
pub mod ecdf;
pub mod heatmap;
pub mod histogram;
pub mod percentile;
pub mod render;
pub mod table;
pub mod timeseries;

pub use boxplot::BoxPlot;
pub use density::LogDensity;
pub use ecdf::Ecdf;
pub use heatmap::HeatMap2d;
pub use histogram::Histogram;
pub use percentile::{percentile, Summary};
pub use table::TextTable;
pub use timeseries::TimeSeries;

/// Ratio of `part` to `whole` expressed as a percentage.
///
/// Returns 0.0 when `whole` is zero, which is the convention used throughout
/// the experiment reports (an empty trace has a 0 % ad share, not a NaN one).
pub fn pct(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64 * 100.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pct_basic() {
        assert_eq!(pct(1, 4), 25.0);
        assert_eq!(pct(0, 4), 0.0);
        assert_eq!(pct(4, 4), 100.0);
    }

    #[test]
    fn pct_zero_denominator() {
        assert_eq!(pct(3, 0), 0.0);
    }
}
