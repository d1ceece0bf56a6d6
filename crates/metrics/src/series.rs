//! Time-series recording and CSV export.

use crate::fmt_f64;

/// A fixed-column time series: one row per sampling period, keyed by the
/// simulated cycle the sample was taken at.
///
/// # Example
///
/// ```
/// use sms_metrics::SeriesRecorder;
///
/// let mut s = SeriesRecorder::new(&["ipc", "rt_busy"]);
/// s.push(0, &[0.0, 0.0]);
/// s.push(1024, &[1.5, 3.0]);
/// assert_eq!(s.to_csv(), "cycle,ipc,rt_busy\n0,0,0\n1024,1.5,3\n");
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SeriesRecorder {
    columns: Vec<String>,
    rows: Vec<(u64, Vec<f64>)>,
}

impl SeriesRecorder {
    /// A recorder with the given value columns (the `cycle` key column is
    /// implicit).
    pub fn new(columns: &[&str]) -> Self {
        SeriesRecorder {
            columns: columns.iter().map(|c| (*c).to_owned()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one sample row taken at `cycle`.
    ///
    /// # Panics
    ///
    /// Panics if `values` does not match the column count.
    pub fn push(&mut self, cycle: u64, values: &[f64]) {
        assert_eq!(values.len(), self.columns.len(), "sample arity mismatch");
        self.rows.push((cycle, values.to_vec()));
    }

    /// The value column names.
    pub fn columns(&self) -> &[String] {
        &self.columns
    }

    /// The recorded `(cycle, values)` rows, oldest first.
    pub fn rows(&self) -> &[(u64, Vec<f64>)] {
        &self.rows
    }

    /// Number of recorded samples.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` when no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The value of column `name` in row `idx`, if both exist.
    pub fn value(&self, idx: usize, name: &str) -> Option<f64> {
        let col = self.columns.iter().position(|c| c == name)?;
        self.rows.get(idx).map(|(_, v)| v[col])
    }

    /// Integrates column `name` as a step function over `[t0, t_end]`: each
    /// sample's value holds from its cycle until the next sample (the last
    /// until `t_end`). The simulator's rows are the state at each period
    /// boundary, so at a period of one cycle this is the exact integral of
    /// the gauge over the run.
    pub fn integrate(&self, name: &str, t_end: u64) -> Option<f64> {
        let col = self.columns.iter().position(|c| c == name)?;
        let mut acc = 0.0;
        for (i, (t, v)) in self.rows.iter().enumerate() {
            let next = self.rows.get(i + 1).map_or(t_end, |(t2, _)| *t2).min(t_end);
            if next > *t {
                acc += v[col] * (next - *t) as f64;
            }
        }
        Some(acc)
    }

    /// Renders the series as CSV: a `cycle,<columns...>` header, then one
    /// row per sample.
    pub fn to_csv(&self) -> String {
        let mut t =
            Table::new(std::iter::once("cycle").chain(self.columns.iter().map(String::as_str)));
        for (cycle, values) in &self.rows {
            t.row(std::iter::once(cycle.to_string()).chain(values.iter().map(|v| fmt_f64(*v))));
        }
        t.to_csv()
    }
}

/// A generic rectangular table with CSV rendering — the shared writer
/// behind every CSV the project emits (metrics series, fig10 thread
/// traces), so the quoting and row-shape rules live in exactly one place.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Table {
    columns: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// A table with the given header columns.
    pub fn new<'a>(columns: impl IntoIterator<Item = &'a str>) -> Self {
        Table { columns: columns.into_iter().map(str::to_owned).collect(), rows: Vec::new() }
    }

    /// Appends one row.
    ///
    /// # Panics
    ///
    /// Panics if the cell count does not match the header.
    pub fn row(&mut self, cells: impl IntoIterator<Item = String>) {
        let row: Vec<String> = cells.into_iter().collect();
        assert_eq!(row.len(), self.columns.len(), "row arity mismatch");
        self.rows.push(row);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` when the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders header + rows. Cells containing `,`, `"` or a newline are
    /// double-quoted with `""` escaping (RFC 4180).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        render_row(&mut out, self.columns.iter().map(String::as_str));
        for row in &self.rows {
            render_row(&mut out, row.iter().map(String::as_str));
        }
        out
    }
}

fn render_row<'a>(out: &mut String, cells: impl Iterator<Item = &'a str>) {
    let mut first = true;
    for cell in cells {
        if !first {
            out.push(',');
        }
        first = false;
        if cell.contains(['"', ',', '\n']) {
            out.push('"');
            out.push_str(&cell.replace('"', "\"\""));
            out.push('"');
        } else {
            out.push_str(cell);
        }
    }
    out.push('\n');
}

/// Strictly parses CSV text produced by [`Table::to_csv`] /
/// [`SeriesRecorder::to_csv`]: a non-empty header and every row with
/// exactly the header's column count. Returns `(columns, data rows)`.
pub fn validate_csv(text: &str) -> Result<(usize, usize), String> {
    let mut lines = text.lines();
    let header = lines.next().ok_or("empty CSV")?;
    let cols = parse_csv_row(header, 1)?.len();
    if cols == 0 || header.is_empty() {
        return Err("CSV header has no columns".to_owned());
    }
    let mut rows = 0usize;
    for (i, line) in lines.enumerate() {
        let cells = parse_csv_row(line, i + 2)?;
        if cells.len() != cols {
            return Err(format!("row {}: {} cells, header has {cols}", i + 2, cells.len()));
        }
        rows += 1;
    }
    Ok((cols, rows))
}

/// Parses one CSV record (no embedded newlines — the writer never quotes
/// them into a single `lines()` entry anyway, so a stray one is an error).
fn parse_csv_row(line: &str, lineno: usize) -> Result<Vec<String>, String> {
    let mut cells = Vec::new();
    let mut cur = String::new();
    let mut chars = line.chars().peekable();
    loop {
        match chars.peek() {
            Some('"') => {
                chars.next();
                loop {
                    match chars.next() {
                        Some('"') if chars.peek() == Some(&'"') => {
                            chars.next();
                            cur.push('"');
                        }
                        Some('"') => break,
                        Some(c) => cur.push(c),
                        None => return Err(format!("row {lineno}: unterminated quote")),
                    }
                }
            }
            _ => {
                while let Some(&c) = chars.peek() {
                    if c == ',' {
                        break;
                    }
                    if c == '"' {
                        return Err(format!("row {lineno}: quote inside unquoted cell"));
                    }
                    cur.push(c);
                    chars.next();
                }
            }
        }
        match chars.next() {
            Some(',') => cells.push(std::mem::take(&mut cur)),
            None => {
                cells.push(cur);
                return Ok(cells);
            }
            Some(c) => return Err(format!("row {lineno}: unexpected `{c}` after cell")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_csv_round_trips() {
        let mut s = SeriesRecorder::new(&["occupancy", "ipc"]);
        s.push(0, &[32.0, 0.0]);
        s.push(1024, &[31.5, 1.75]);
        let csv = s.to_csv();
        assert_eq!(csv, "cycle,occupancy,ipc\n0,32,0\n1024,31.5,1.75\n");
        assert_eq!(validate_csv(&csv), Ok((3, 2)));
    }

    #[test]
    fn table_quotes_special_cells() {
        let mut t = Table::new(["name", "note"]);
        t.row(["a,b".to_owned(), "say \"hi\"".to_owned()]);
        let csv = t.to_csv();
        assert_eq!(csv, "name,note\n\"a,b\",\"say \"\"hi\"\"\"\n");
        assert_eq!(validate_csv(&csv), Ok((2, 1)));
    }

    #[test]
    fn validate_rejects_ragged_rows() {
        assert!(validate_csv("a,b\n1\n").is_err());
        assert!(validate_csv("").is_err());
        assert!(validate_csv("a,b\n1,\"x\n").is_err());
    }

    #[test]
    fn integrate_step_function() {
        let mut s = SeriesRecorder::new(&["busy"]);
        s.push(0, &[2.0]);
        s.push(10, &[4.0]);
        s.push(30, &[0.0]);
        // 2*10 + 4*20 + 0*70 = 100 over [0, 100].
        assert_eq!(s.integrate("busy", 100), Some(100.0));
        assert_eq!(s.integrate("nope", 100), None);
    }
}
