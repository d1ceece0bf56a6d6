//! Plain-text rendering for the experiment runner: aligned tables and the
//! numeric grid a matrix experiment reduces to.

use std::fmt::Write as _;

/// A simple aligned text table.
///
/// # Example
///
/// ```
/// use sms_sim::report::Table;
/// let mut t = Table::new(["scene", "IPC"]);
/// t.row(["SHIP", "1.23"]);
/// let s = t.to_string();
/// assert!(s.contains("SHIP"));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(headers: impl IntoIterator<Item = S>) -> Self {
        Table { headers: headers.into_iter().map(Into::into).collect(), rows: Vec::new() }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the cell count does not match the header count.
    pub fn row<S: Into<String>>(&mut self, cells: impl IntoIterator<Item = S>) -> &mut Self {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` when no data rows have been added.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

impl std::fmt::Display for Table {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for c in 0..cols {
                widths[c] = widths[c].max(row[c].len());
            }
        }
        let mut line = String::new();
        for (c, h) in self.headers.iter().enumerate() {
            let _ = write!(line, "{:<w$}  ", h, w = widths[c]);
        }
        writeln!(f, "{}", line.trim_end())?;
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
        writeln!(f, "{}", "-".repeat(total))?;
        for row in &self.rows {
            let mut line = String::new();
            for c in 0..cols {
                let _ = write!(line, "{:<w$}  ", row[c], w = widths[c]);
            }
            writeln!(f, "{}", line.trim_end())?;
        }
        Ok(())
    }
}

/// Formats a ratio as a `+x.x%` / `-x.x%` improvement over 1.0.
pub fn fmt_improvement(ratio: f64) -> String {
    format!("{:+.1}%", (ratio - 1.0) * 100.0)
}

/// Formats a fraction (0..1) as a percentage.
pub fn fmt_pct(frac: f64) -> String {
    format!("{:.1}%", frac * 100.0)
}

/// What a (scene × column) experiment reduces to: one numeric row per
/// scene, then the summary rows. `NaN` marks a cell with no value.
#[derive(Debug, Clone, PartialEq)]
pub struct Grid {
    /// Column labels.
    pub labels: Vec<String>,
    /// `(row name, one number per column)`; the summary row is last.
    pub rows: Vec<(String, Vec<f64>)>,
}

impl Grid {
    /// Per-scene ratios plus their per-column geometric means: one row per
    /// `(name, scenes)` subset whose scenes all ran, then `gmean` over all.
    pub fn with_gmean(
        labels: Vec<String>,
        mut rows: Vec<(String, Vec<f64>)>,
        subsets: &[(&str, &[&str])],
    ) -> Self {
        let gmeans = |rows: &[&(String, Vec<f64>)]| -> Vec<f64> {
            (0..labels.len())
                .map(|c| geomean(&rows.iter().map(|r| r.1[c]).collect::<Vec<_>>()))
                .collect()
        };
        let mut summaries = Vec::new();
        for (name, scenes) in subsets {
            let of: Vec<_> = rows.iter().filter(|r| scenes.contains(&&*r.0)).collect();
            if of.len() == scenes.len() {
                summaries.push((name.to_string(), gmeans(&of)));
            }
        }
        summaries.push(("gmean".to_owned(), gmeans(&rows.iter().collect::<Vec<_>>())));
        rows.extend(summaries);
        Grid { labels, rows }
    }

    /// The number at (`row`, `col`), if that row exists and the cell has one.
    pub fn cell(&self, row: &str, col: usize) -> Option<f64> {
        let (_, cells) = self.rows.iter().find(|(name, _)| name == row)?;
        cells.get(col).copied().filter(|v| !v.is_nan())
    }

    /// Renders the grid under a `scene` column, each cell through `fmt(col, value)`.
    pub fn table(&self, fmt: impl Fn(usize, f64) -> String) -> Table {
        let mut table =
            Table::new(std::iter::once("scene").chain(self.labels.iter().map(|l| &**l)));
        for (name, cells) in &self.rows {
            let cells = cells.iter().enumerate().map(|(c, &v)| fmt(c, v));
            table.row(std::iter::once(name.clone()).chain(cells));
        }
        table
    }
}

/// Geometric mean of a non-empty slice.
///
/// # Panics
///
/// Panics if `values` is empty or contains non-positive entries.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geomean of empty slice");
    let log_sum: f64 = values
        .iter()
        .map(|&v| {
            assert!(v > 0.0, "geomean requires positive values, got {v}");
            v.ln()
        })
        .sum();
    (log_sum / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_alignment() {
        let mut t = Table::new(["a", "longheader"]);
        t.row(["xxxx", "1"]);
        let s = t.to_string();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("longheader"));
        assert!(lines[1].starts_with("---"));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn row_width_checked() {
        Table::new(["a", "b"]).row(["only one"]);
    }

    #[test]
    fn improvement_formatting() {
        assert_eq!(fmt_improvement(1.232), "+23.2%");
        assert_eq!(fmt_improvement(0.816), "-18.4%");
    }

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[3.0]) - 3.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn geomean_rejects_zero() {
        let _ = geomean(&[1.0, 0.0]);
    }
}
