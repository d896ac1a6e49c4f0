//! A small aligned-text / TSV table writer used by every regeneration
//! binary (the workspace has no external dependencies — see the README's
//! "Building and testing").

use std::fmt::Write as _;

/// A simple table builder producing aligned plain text and TSV.
///
/// # Examples
///
/// ```
/// use mint_analysis::textable::TexTable;
///
/// let mut t = TexTable::new(vec!["Design", "MinTRH-D"]);
/// t.row(vec!["MINT".into(), "1400".into()]);
/// let text = t.to_text();
/// assert!(text.contains("MINT"));
/// assert!(t.to_tsv().starts_with("Design\tMinTRH-D"));
/// ```
#[derive(Debug, Clone)]
pub struct TexTable {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TexTable {
    /// Creates a table with the given column headers.
    ///
    /// # Panics
    ///
    /// Panics if `headers` is empty.
    #[must_use]
    pub fn new<S: Into<String>>(headers: Vec<S>) -> Self {
        let headers: Vec<String> = headers.into_iter().map(Into::into).collect();
        assert!(!headers.is_empty(), "table needs at least one column");
        Self {
            headers,
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width {} != column count {}",
            cells.len(),
            self.headers.len()
        );
        self.rows.push(cells);
        self
    }

    /// Number of data rows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders as aligned plain text with a header rule.
    #[must_use]
    pub fn to_text(&self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let write_row = |out: &mut String, cells: &[String]| {
            for (i, cell) in cells.iter().enumerate() {
                let _ = write!(out, "{:<width$}", cell, width = widths[i]);
                if i + 1 < cols {
                    out.push_str("  ");
                }
            }
            out.push('\n');
        };
        write_row(&mut out, &self.headers);
        let rule: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
        out.push_str(&"-".repeat(rule));
        out.push('\n');
        for row in &self.rows {
            write_row(&mut out, row);
        }
        out
    }

    /// Renders as tab-separated values (header line first).
    #[must_use]
    pub fn to_tsv(&self) -> String {
        let mut out = self.headers.join("\t");
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.join("\t"));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TexTable {
        let mut t = TexTable::new(vec!["a", "bb"]);
        t.row(vec!["xxx".into(), "1".into()]);
        t.row(vec!["y".into(), "22".into()]);
        t
    }

    #[test]
    fn text_is_aligned() {
        let text = sample().to_text();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        // All data lines equally wide (trailing spaces preserved except on
        // final column, which is padded too by write!).
        assert!(lines[0].starts_with("a  "));
        assert!(lines[2].starts_with("xxx"));
    }

    #[test]
    fn tsv_round_trip_fields() {
        let tsv = sample().to_tsv();
        let mut lines = tsv.lines();
        assert_eq!(lines.next().unwrap().split('\t').count(), 2);
        assert_eq!(lines.next().unwrap(), "xxx\t1");
    }

    #[test]
    fn len_and_empty() {
        assert_eq!(sample().len(), 2);
        assert!(!sample().is_empty());
        assert!(TexTable::new(vec!["x"]).is_empty());
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn ragged_row_rejected() {
        let mut t = TexTable::new(vec!["a", "b"]);
        t.row(vec!["only-one".into()]);
    }

    #[test]
    #[should_panic(expected = "at least one column")]
    fn empty_headers_rejected() {
        let _ = TexTable::new(Vec::<String>::new());
    }
}
