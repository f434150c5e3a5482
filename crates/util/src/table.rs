//! Minimal plain-text table rendering for the figure-regeneration binaries.
//!
//! The experiment harness prints the same rows/series the paper reports;
//! a small fixed renderer keeps that output stable and diff-friendly.

use std::fmt::Write as _;

/// A simple column-aligned text table.
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a title and column headers.
    pub fn new(title: impl Into<String>, header: &[&str]) -> Self {
        Self {
            title: title.into(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row; it must match the header arity.
    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        assert_eq!(
            cells.len(),
            self.header.len(),
            "row arity {} != header arity {}",
            cells.len(),
            self.header.len()
        );
        self.rows.push(cells.to_vec());
        self
    }

    /// Renders the table to a string.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        if !self.title.is_empty() {
            let _ = writeln!(out, "== {} ==", self.title);
        }
        let mut line = String::new();
        for (i, h) in self.header.iter().enumerate() {
            let _ = write!(line, "{:>width$}  ", h, width = widths[i]);
        }
        let _ = writeln!(out, "{}", line.trim_end());
        let total: usize = widths.iter().sum::<usize>() + 2 * widths.len().saturating_sub(1);
        let _ = writeln!(out, "{}", "-".repeat(total));
        for row in &self.rows {
            let mut line = String::new();
            for (i, cell) in row.iter().enumerate() {
                let _ = write!(line, "{:>width$}  ", cell, width = widths[i]);
            }
            let _ = writeln!(out, "{}", line.trim_end());
        }
        out
    }

    /// Renders as comma-separated values (for post-processing/plotting).
    pub fn render_csv(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{}", self.header.join(","));
        for row in &self.rows {
            let _ = writeln!(out, "{}", row.join(","));
        }
        out
    }
}

/// Formats a float with 4 significant decimals, trimming trailing zeros
/// enough to keep tables compact but stable.
pub fn fnum(x: f64) -> String {
    if x == x.trunc() && x.abs() < 1e12 {
        format!("{}", x as i64)
    } else {
        format!("{x:.4}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new("demo", &["p", "m", "validity"]);
        t.row(&["0.1".into(), "3".into(), "0.9991".into()]);
        t.row(&["0.25".into(), "12".into(), "0.99".into()]);
        let s = t.render();
        assert!(s.contains("== demo =="));
        assert!(s.contains("validity"));
        assert!(s.lines().count() >= 4);
    }

    #[test]
    fn csv_roundtrip_shape() {
        let mut t = Table::new("x", &["a", "b"]);
        t.row(&["1".into(), "2".into()]);
        let csv = t.render_csv();
        assert_eq!(csv, "a,b\n1,2\n");
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn rejects_wrong_arity() {
        let mut t = Table::new("x", &["a", "b"]);
        t.row(&["1".into()]);
    }

    #[test]
    fn fnum_formats() {
        assert_eq!(fnum(3.0), "3");
        assert_eq!(fnum(0.12345), "0.1235");
        assert_eq!(fnum(-2.5), "-2.5000");
    }
}
