//! Plain-text table rendering for experiment output.
//!
//! Every sweep returns its results as [`Table`]s, so the regenerated
//! figures/tables look uniform and are easy to diff against
//! EXPERIMENTS.md.

/// A fixed-width text table with a title, header row, and data rows.
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Starts a table with a title and column headers.
    pub fn new(title: impl Into<String>, header: &[&str]) -> Self {
        Table {
            title: title.into(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a data row (must match the header arity).
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(cells.len(), self.header.len(), "row arity mismatch");
        self.rows.push(cells);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table to a string.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str("== ");
        out.push_str(&self.title);
        out.push_str(" ==\n");
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>width$}", c, width = widths[i]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        out.push_str(
            &"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len().saturating_sub(1))),
        );
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

/// Formats a float with 2 decimals (the experiments' standard precision).
pub fn f2(v: f64) -> String {
    format!("{v:.2}")
}

/// Formats a float with 3 decimals.
pub fn f3(v: f64) -> String {
    format!("{v:.3}")
}

/// Formats a percentage with 1 decimal.
pub fn pct(v: f64) -> String {
    format!("{:.1}%", v * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new("demo", &["x", "value"]);
        t.row(vec!["1".into(), "10.00".into()]);
        t.row(vec!["100".into(), "3.14".into()]);
        let s = t.render();
        assert!(s.contains("== demo =="));
        let lines: Vec<&str> = s.lines().collect();
        // Header + separator + 2 rows + title.
        assert_eq!(lines.len(), 5);
        // Right-aligned: both data lines have equal width.
        assert_eq!(lines[3].len(), lines[4].len());
        assert_eq!(t.len(), 2);
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_mismatch_rejected() {
        Table::new("t", &["a", "b"]).row(vec!["1".into()]);
    }

    #[test]
    fn formatters() {
        assert_eq!(f2(1.23456), "1.23");
        assert_eq!(f3(2.0), "2.000");
        assert_eq!(pct(0.1234), "12.3%");
    }

    #[test]
    fn empty_table_renders_header_only() {
        let t = Table::new("empty", &["col"]);
        assert!(t.is_empty());
        assert_eq!(t.render().lines().count(), 3);
    }
}
