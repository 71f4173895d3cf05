//! ASCII rendering of plots: sparklines, box plots, heat maps. These let the
//! `experiments` driver print figure-shaped output directly into a terminal
//! or EXPERIMENTS.md.

use crate::boxplot::BoxPlot;
use crate::heatmap::HeatMap2d;

/// Shade characters from sparse to dense used by heat maps and sparklines.
const SHADES: [char; 9] = [' ', '.', ':', '-', '=', '+', '*', '#', '@'];

/// Render a numeric series as a one-line sparkline of height characters.
pub fn sparkline(values: &[f64]) -> String {
    if values.is_empty() {
        return String::new();
    }
    let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let min = values.iter().copied().fold(f64::INFINITY, f64::min);
    let span = (max - min).max(1e-12);
    values
        .iter()
        .map(|&v| {
            let t = (v - min) / span;
            let idx = (t * (SHADES.len() - 1) as f64).round() as usize;
            SHADES[idx.min(SHADES.len() - 1)]
        })
        .collect()
}

/// Render a horizontal box plot on a `[lo, hi]` axis of `width` characters:
/// `|---[  |  ]---|` with `o` marks for outliers.
pub fn boxplot_row(b: &BoxPlot, lo: f64, hi: f64, width: usize) -> String {
    let width = width.max(10);
    let span = (hi - lo).max(1e-12);
    let pos = |v: f64| -> usize {
        let t = ((v - lo) / span).clamp(0.0, 1.0);
        ((t * (width - 1) as f64).round() as usize).min(width - 1)
    };
    let mut row = vec![' '; width];
    for &o in &b.outliers {
        row[pos(o)] = 'o';
    }
    let (wl, q1, med, q3, wh) = (
        pos(b.whisker_lo),
        pos(b.q1),
        pos(b.median),
        pos(b.q3),
        pos(b.whisker_hi),
    );
    for cell in row.iter_mut().take(q1).skip(wl) {
        if *cell == ' ' {
            *cell = '-';
        }
    }
    for cell in row.iter_mut().take(wh + 1).skip(q3 + 1) {
        if *cell == ' ' {
            *cell = '-';
        }
    }
    for cell in row.iter_mut().take(q3 + 1).skip(q1) {
        *cell = '=';
    }
    row[wl] = '|';
    row[wh] = '|';
    row[q1] = '[';
    row[q3] = ']';
    row[med] = '+';
    row.into_iter().collect()
}

/// Render a heat map as a character grid, highest y row first (matching the
/// orientation of Figure 3 where the y axis is ad requests).
pub fn heatmap_grid(h: &HeatMap2d) -> String {
    let (nx, ny) = h.dims();
    let max = h.max_cell().max(1) as f64;
    let mut out = String::new();
    for iy in (0..ny).rev() {
        for ix in 0..nx {
            let c = h.cell(ix, iy) as f64;
            // Log shading: sparse cells must stay visible.
            let t = if c <= 0.0 {
                0.0
            } else {
                (c.ln() + 1.0) / (max.ln() + 1.0)
            };
            let idx = (t * (SHADES.len() - 1) as f64).ceil() as usize;
            out.push(SHADES[idx.min(SHADES.len() - 1)]);
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sparkline_shape() {
        let s = sparkline(&[0.0, 1.0, 2.0, 3.0]);
        assert_eq!(s.chars().count(), 4);
        let chars: Vec<char> = s.chars().collect();
        assert_eq!(chars[0], ' ');
        assert_eq!(chars[3], '@');
    }

    #[test]
    fn sparkline_empty_and_flat() {
        assert_eq!(sparkline(&[]), "");
        let s = sparkline(&[5.0, 5.0]);
        assert_eq!(s.chars().count(), 2);
    }

    #[test]
    fn boxplot_row_markers() {
        let b = BoxPlot::from_samples(&[1.0, 2.0, 3.0, 4.0, 5.0]).unwrap();
        let row = boxplot_row(&b, 0.0, 6.0, 40);
        assert_eq!(row.chars().count(), 40);
        assert!(row.contains('['));
        assert!(row.contains(']'));
        assert!(row.contains('+'));
        // Median marker sits between the quartile brackets.
        let open = row.find('[').unwrap();
        let close = row.find(']').unwrap();
        let med = row.find('+').unwrap();
        assert!(open < med && med < close);
    }

    #[test]
    fn boxplot_row_outliers_visible() {
        let mut v = vec![10.0; 30];
        v.push(100.0);
        let b = BoxPlot::from_samples(&v).unwrap();
        let row = boxplot_row(&b, 0.0, 110.0, 60);
        assert!(row.contains('o'));
    }

    #[test]
    fn heatmap_grid_dimensions() {
        let mut h = HeatMap2d::new(0.0, 2.0, 4, 0.0, 2.0, 3);
        h.add(1.0, 1.0);
        let g = heatmap_grid(&h);
        let lines: Vec<&str> = g.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines.iter().all(|l| l.chars().count() == 4));
        // The populated cell is at the lowest x/y bin -> bottom-left.
        assert_ne!(lines[2].chars().next().unwrap(), ' ');
    }
}
