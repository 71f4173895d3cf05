//! 2-D log-log heat maps (Figure 3 of the paper).

/// A 2-D histogram over `(log10(x), log10(y))`, used to render the Figure 3
/// heat map of total requests vs ad requests per ⟨IP, User-Agent⟩ pair.
///
/// The paper's axes start at 10^0, but many pairs issue *zero* ad requests;
/// like the paper's plot those points are clamped onto the lowest bin of the
/// affected axis so the dense "no ads at all" row stays visible.
#[derive(Debug, Clone, PartialEq)]
pub struct HeatMap2d {
    x_lo: f64,
    x_hi: f64,
    y_lo: f64,
    y_hi: f64,
    nx: usize,
    ny: usize,
    cells: Vec<u64>,
    total: u64,
}

impl HeatMap2d {
    /// Create a heat map over `[10^x_lo, 10^x_hi) x [10^y_lo, 10^y_hi)` in
    /// log10 space with `nx * ny` cells.
    ///
    /// # Panics
    /// Panics when a dimension is empty or has zero bins.
    pub fn new(x_lo: f64, x_hi: f64, nx: usize, y_lo: f64, y_hi: f64, ny: usize) -> Self {
        assert!(nx > 0 && ny > 0, "heat map needs bins in both dimensions");
        assert!(
            x_hi > x_lo && y_hi > y_lo,
            "heat map ranges must be non-empty"
        );
        HeatMap2d {
            x_lo,
            x_hi,
            y_lo,
            y_hi,
            nx,
            ny,
            cells: vec![0; nx * ny],
            total: 0,
        }
    }

    fn bin(v: f64, lo: f64, hi: f64, n: usize) -> usize {
        // Clamp into range: out-of-range points land on the edge bins.
        let l = v.max(1e-12).log10();
        let w = (hi - lo) / n as f64;
        (((l - lo) / w).floor().max(0.0) as usize).min(n - 1)
    }

    /// Record one `(x, y)` point. Zero/negative coordinates are clamped to
    /// the lowest bin of that axis.
    pub fn add(&mut self, x: f64, y: f64) {
        let bx = Self::bin(x, self.x_lo, self.x_hi, self.nx);
        let by = Self::bin(y, self.y_lo, self.y_hi, self.ny);
        self.cells[by * self.nx + bx] += 1;
        self.total += 1;
    }

    /// Number of points recorded.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Grid dimensions `(nx, ny)`.
    pub(crate) fn dims(&self) -> (usize, usize) {
        (self.nx, self.ny)
    }

    /// Count in cell `(ix, iy)`; `iy` indexes the y (ad-request) axis.
    pub fn cell(&self, ix: usize, iy: usize) -> u64 {
        self.cells[iy * self.nx + ix]
    }

    /// Row-major cell counts (y-major: row `iy` holds all x bins).
    pub fn cells(&self) -> &[u64] {
        &self.cells
    }

    /// Maximum cell count (for normalizing a rendering).
    pub(crate) fn max_cell(&self) -> u64 {
        self.cells.iter().copied().max().unwrap_or(0)
    }

    /// Fraction of points in the "lower-right" region: `x >= x_min` and
    /// `y <= y_max` (linear units). This quantifies the paper's observation
    /// that a substantial number of pairs request many objects but hardly any
    /// ads — the ad-blocker-candidate mass of Figure 3.
    pub fn frac_region(&self, x_min: f64, y_max: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let bx = Self::bin(x_min, self.x_lo, self.x_hi, self.nx);
        let by = Self::bin(y_max, self.y_lo, self.y_hi, self.ny);
        let mut acc = 0u64;
        for iy in 0..=by {
            for ix in bx..self.nx {
                acc += self.cell(ix, iy);
            }
        }
        acc as f64 / self.total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bins_decades() {
        let mut h = HeatMap2d::new(0.0, 4.0, 4, 0.0, 4.0, 4);
        h.add(1.0, 1.0); // (0,0)
        h.add(15.0, 150.0); // (1,2)
        h.add(9999.0, 1.0); // (3,0)
        assert_eq!(h.cell(0, 0), 1);
        assert_eq!(h.cell(1, 2), 1);
        assert_eq!(h.cell(3, 0), 1);
        assert_eq!(h.total(), 3);
    }

    #[test]
    fn clamps_zero_and_overflow() {
        let mut h = HeatMap2d::new(0.0, 2.0, 2, 0.0, 2.0, 2);
        h.add(0.0, 0.0); // clamped to lowest bins
        h.add(1e9, 1e9); // clamped to highest bins
        assert_eq!(h.cell(0, 0), 1);
        assert_eq!(h.cell(1, 1), 1);
    }

    #[test]
    fn region_fraction() {
        let mut h = HeatMap2d::new(0.0, 4.0, 8, 0.0, 4.0, 8);
        // Three heavy-but-ad-free pairs, one ordinary pair.
        h.add(5000.0, 1.0);
        h.add(2000.0, 1.0);
        h.add(1500.0, 1.0);
        h.add(100.0, 50.0);
        let f = h.frac_region(1000.0, 2.0);
        assert!((f - 0.75).abs() < 1e-9, "frac {}", f);
    }

    #[test]
    fn max_cell() {
        let mut h = HeatMap2d::new(0.0, 2.0, 2, 0.0, 2.0, 2);
        assert_eq!(h.max_cell(), 0);
        h.add(1.0, 1.0);
        h.add(1.0, 1.0);
        assert_eq!(h.max_cell(), 2);
    }

    #[test]
    #[should_panic]
    fn empty_range_panics() {
        HeatMap2d::new(1.0, 1.0, 4, 0.0, 1.0, 4);
    }
}
