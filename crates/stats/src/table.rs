//! Plain-text table rendering for the experiment reports.

/// A simple monospace table builder used by the `experiments` driver to print
/// paper-comparable rows (Tables 1, 3, 4, 5 and the summary blocks).
#[derive(Debug, Clone, Default)]
pub struct TextTable {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Create a table with a title and column headers.
    pub fn new(title: &str, header: &[&str]) -> Self {
        TextTable {
            title: title.to_string(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row. Rows shorter than the header are padded with empty
    /// cells; longer rows extend the column count.
    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        self.rows.push(cells.to_vec());
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Render the table. The first column is left-aligned, all others
    /// right-aligned — the layout used for every numeric table in the paper.
    pub fn render(&self) -> String {
        let ncols = self
            .rows
            .iter()
            .map(|r| r.len())
            .chain(std::iter::once(self.header.len()))
            .max()
            .unwrap_or(0);
        let mut widths = vec![0usize; ncols];
        for (i, h) in self.header.iter().enumerate() {
            widths[i] = widths[i].max(h.chars().count());
        }
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.chars().count());
            }
        }
        let fmt_row = |cells: &[String]| -> String {
            let mut line = String::new();
            for (i, width) in widths.iter().enumerate() {
                let cell = cells.get(i).map(String::as_str).unwrap_or("");
                let pad = width.saturating_sub(cell.chars().count());
                if i == 0 {
                    line.push_str(cell);
                    line.push_str(&" ".repeat(pad));
                } else {
                    line.push_str(&" ".repeat(pad));
                    line.push_str(cell);
                }
                if i + 1 < ncols {
                    line.push_str("  ");
                }
            }
            line.trim_end().to_string()
        };
        let mut out = String::new();
        if !self.title.is_empty() {
            out.push_str(&format!("## {}\n", self.title));
        }
        let header_line = fmt_row(&self.header);
        let rule_len = header_line.chars().count();
        out.push_str(&header_line);
        out.push('\n');
        out.push_str(&"-".repeat(rule_len.max(4)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }
}

/// Format a count with thousands separators, e.g. `57862` -> `57,862`
/// (matches the paper's table style).
pub fn fmt_count(n: u64) -> String {
    let s = n.to_string();
    let mut out = String::with_capacity(s.len() + s.len() / 3);
    for (i, c) in s.chars().enumerate() {
        if i > 0 && (s.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(c);
    }
    out
}

/// Format a percentage with one decimal, e.g. `18.89` -> `"18.9%"`.
pub fn fmt_pct(p: f64) -> String {
    format!("{:.1}%", p)
}

/// Format a byte volume in a human unit (B/K/M/G/T) with one decimal.
pub fn fmt_bytes(b: u64) -> String {
    const UNITS: [&str; 5] = ["B", "KB", "MB", "GB", "TB"];
    let mut v = b as f64;
    let mut u = 0;
    while v >= 1024.0 && u + 1 < UNITS.len() {
        v /= 1024.0;
        u += 1;
    }
    if u == 0 {
        format!("{}B", b)
    } else {
        format!("{:.1}{}", v, UNITS[u])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = TextTable::new("Demo", &["Mode", "#HTTP", "ELhits"]);
        t.row(&["Vanilla", "57,862", "4,738"].map(String::from));
        t.row(&["AdBP-Pa", "48,599", "6"].map(String::from));
        let r = t.render();
        assert!(r.contains("## Demo"));
        // Layout: title, header, rule, then data rows.
        let lines: Vec<&str> = r.lines().collect();
        assert!(lines[3].starts_with("Vanilla"));
        assert!(lines[4].starts_with("AdBP-Pa"));
        assert!(lines[3].ends_with("4,738"));
        assert!(lines[4].ends_with("6"));
        assert_eq!(
            lines[3].chars().count(),
            lines[4].chars().count(),
            "rows must be equal width"
        );
    }

    #[test]
    fn ragged_rows() {
        let mut t = TextTable::new("", &["a", "b"]);
        t.row(&["only-one"].map(String::from));
        t.row(&["x", "y", "z"].map(String::from));
        let r = t.render();
        assert!(r.contains("only-one"));
        assert!(r.contains("z"));
    }

    #[test]
    fn count_formatting() {
        assert_eq!(fmt_count(0), "0");
        assert_eq!(fmt_count(999), "999");
        assert_eq!(fmt_count(1000), "1,000");
        assert_eq!(fmt_count(131_950_000), "131,950,000");
    }

    #[test]
    fn pct_formatting() {
        assert_eq!(fmt_pct(18.89), "18.9%");
        assert_eq!(fmt_pct(0.0), "0.0%");
    }

    #[test]
    fn byte_formatting() {
        assert_eq!(fmt_bytes(512), "512B");
        assert_eq!(fmt_bytes(2048), "2.0KB");
        assert_eq!(fmt_bytes(18_800_000_000_000), "17.1TB");
    }

    #[test]
    fn empty_table() {
        let t = TextTable::new("t", &["h"]);
        assert!(t.is_empty());
        assert!(t.render().contains('h'));
    }
}
