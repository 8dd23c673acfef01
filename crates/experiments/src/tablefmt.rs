//! Minimal aligned-text table formatting for experiment reports.

use std::fmt::Write as _;

/// Builds an aligned text table: first column left-aligned, the rest
/// right-aligned, with a rule under the header.
#[derive(Default)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Starts a table with the given column headers.
    #[must_use]
    pub fn new(header: &[&str]) -> Self {
        TextTable {
            header: header.iter().map(ToString::to_string).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a data row.
    ///
    /// # Panics
    /// Panics if the cell count differs from the header.
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(
            cells.len(),
            self.header.len(),
            "TextTable: row has {} cells, header has {}",
            cells.len(),
            self.header.len()
        );
        self.rows.push(cells.to_vec());
    }

    /// Renders the table.
    #[must_use]
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        for (c, h) in self.header.iter().enumerate() {
            if c == 0 {
                let _ = write!(out, "{h:<width$}", width = widths[0]);
            } else {
                let _ = write!(out, "  {h:>width$}", width = widths[c]);
            }
        }
        out.push('\n');
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            for (c, cell) in row.iter().enumerate() {
                if c == 0 {
                    let _ = write!(out, "{cell:<width$}", width = widths[0]);
                } else {
                    let _ = write!(out, "  {cell:>width$}", width = widths[c]);
                }
            }
            out.push('\n');
        }
        out
    }
}

/// Formats a metric to 4 decimals, the paper's precision.
#[must_use]
pub fn m4(v: f64) -> String {
    format!("{v:.4}")
}

/// Formats a percentage-point delta with sign, 2 decimals.
#[must_use]
pub fn delta_pp(v: f64) -> String {
    format!("{:+.2}%", v * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = TextTable::new(&["Model", "AUC"]);
        t.row(&["DNN".into(), "0.8131".into()]);
        t.row(&["Adv & HSC-MoE".into(), "0.8227".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("Model"));
        assert!(lines[1].chars().all(|c| c == '-'));
        assert!(lines[3].starts_with("Adv & HSC-MoE"));
        // AUC column right-aligned: both data rows end with the value.
        assert!(lines[2].ends_with("0.8131"));
        assert!(lines[3].ends_with("0.8227"));
    }

    #[test]
    #[should_panic(expected = "row has")]
    fn wrong_cell_count_panics() {
        let mut t = TextTable::new(&["A", "B"]);
        t.row(&["only-one".into()]);
    }

    #[test]
    fn formatters() {
        assert_eq!(m4(0.81273), "0.8127");
        assert_eq!(delta_pp(0.0123), "+1.23%");
        assert_eq!(delta_pp(-0.005), "-0.50%");
    }
}
