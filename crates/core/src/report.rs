//! Plain-text table rendering for experiment reports.
//!
//! The experiment harness regenerates every figure/claim of the paper as a
//! table; [`Table`] renders aligned ASCII suitable for terminals and for
//! inclusion in `EXPERIMENTS.md`.

use std::fmt;

use naming_telemetry::json::json_string;
use serde::{Deserialize, Serialize};

/// A simple aligned text table.
///
/// # Examples
///
/// ```
/// use naming_core::report::Table;
///
/// let mut t = Table::new("Demo", &["scheme", "coherence"]);
/// t.row(vec!["unix".into(), "62.5%".into()]);
/// let s = t.to_string();
/// assert!(s.contains("scheme"));
/// assert!(s.contains("62.5%"));
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
    notes: Vec<String>,
}

impl Table {
    /// Creates an empty table with a title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Table {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| (*s).to_owned()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Appends a row. Short rows are padded with empty cells; long rows are
    /// kept (the table widens).
    pub fn row(&mut self, cells: Vec<String>) -> &mut Table {
        self.rows.push(cells);
        self
    }

    /// Appends a footnote line printed under the table.
    pub fn note(&mut self, note: impl Into<String>) -> &mut Table {
        self.notes.push(note.into());
        self
    }

    /// The table title.
    pub fn title(&self) -> &str {
        &self.title
    }

    /// Number of data rows.
    pub fn row_count(&self) -> usize {
        self.rows.len()
    }

    /// The rows, for programmatic inspection in tests.
    pub fn rows(&self) -> &[Vec<String>] {
        &self.rows
    }

    /// Looks up a cell by row and column index.
    pub fn cell(&self, row: usize, col: usize) -> Option<&str> {
        self.rows.get(row)?.get(col).map(String::as_str)
    }

    /// Renders the table as RFC-4180-style CSV (header row first). Cells
    /// containing commas, quotes or newlines are quoted; quotes are
    /// doubled. The title and notes are not included — CSV is for
    /// machines.
    pub fn to_csv(&self) -> String {
        fn cell(s: &str) -> String {
            if s.contains([',', '"', '\n']) {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_owned()
            }
        }
        let mut out = String::new();
        let header: Vec<String> = self.headers.iter().map(|h| cell(h)).collect();
        out.push_str(&header.join(","));
        out.push('\n');
        for row in &self.rows {
            let cells: Vec<String> = row.iter().map(|c| cell(c)).collect();
            out.push_str(&cells.join(","));
            out.push('\n');
        }
        out
    }

    /// Renders the table as a JSON object:
    /// `{"title", "headers", "rows", "notes"}`, with rows as arrays of
    /// strings. Emitted by hand (the workspace vendors no JSON
    /// serializer); cells keep their rendered string form so the output
    /// is stable across PRs and trivially diffable.
    pub fn to_json(&self) -> String {
        let list = |items: &[String]| -> String {
            let quoted: Vec<String> = items.iter().map(|s| json_string(s)).collect();
            format!("[{}]", quoted.join(", "))
        };
        let rows: Vec<String> = self.rows.iter().map(|r| list(r)).collect();
        format!(
            "{{\"title\": {}, \"headers\": {}, \"rows\": [{}], \"notes\": {}}}",
            json_string(&self.title),
            list(&self.headers),
            rows.join(", "),
            list(&self.notes)
        )
    }

    fn widths(&self) -> Vec<usize> {
        let cols = self
            .rows
            .iter()
            .map(Vec::len)
            .chain(std::iter::once(self.headers.len()))
            .max()
            .unwrap_or(0);
        let mut w = vec![0usize; cols];
        for (i, h) in self.headers.iter().enumerate() {
            w[i] = w[i].max(display_width(h));
        }
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                w[i] = w[i].max(display_width(c));
            }
        }
        w
    }
}

/// Width in characters, counting multi-byte codepoints as one column.
///
/// Good enough for our tables (we only emit ASCII plus `⊥`, `×`, `→`).
fn display_width(s: &str) -> usize {
    s.chars().count()
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let w = self.widths();
        let total: usize = w.iter().sum::<usize>() + 3 * w.len().saturating_sub(1);
        writeln!(f, "{}", self.title)?;
        writeln!(f, "{}", "=".repeat(self.title.chars().count().max(total)))?;
        let write_row = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            let mut first = true;
            for (i, width) in w.iter().enumerate() {
                if !first {
                    write!(f, " | ")?;
                }
                let empty = String::new();
                let cell = cells.get(i).unwrap_or(&empty);
                write!(f, "{cell}")?;
                let pad = width.saturating_sub(display_width(cell));
                write!(f, "{}", " ".repeat(pad))?;
                first = false;
            }
            writeln!(f)
        };
        write_row(f, &self.headers)?;
        let sep: Vec<String> = w.iter().map(|n| "-".repeat(*n)).collect();
        write_row(f, &sep)?;
        for row in &self.rows {
            write_row(f, row)?;
        }
        for note in &self.notes {
            writeln!(f, "  * {note}")?;
        }
        Ok(())
    }
}

/// Formats a fraction as a percentage with one decimal, e.g. `62.5%`.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", 100.0 * x)
}

/// Formats a boolean as `yes` / `no` for table cells.
pub fn yes_no(b: bool) -> String {
    if b {
        "yes".into()
    } else {
        "no".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_table() {
        let mut t = Table::new("T", &["a", "bbbb"]);
        t.row(vec!["xxxxx".into(), "y".into()]);
        t.row(vec!["z".into(), "w".into()]);
        let s = t.to_string();
        let lines: Vec<&str> = s.lines().collect();
        // Header line and data lines align on the separator.
        assert!(lines[2].starts_with("a     | bbbb"));
        assert!(lines[4].starts_with("xxxxx | y"));
        assert_eq!(t.row_count(), 2);
    }

    #[test]
    fn short_rows_are_padded() {
        let mut t = Table::new("T", &["a", "b", "c"]);
        t.row(vec!["1".into()]);
        let s = t.to_string();
        assert!(s.contains('1'));
        assert_eq!(t.cell(0, 0), Some("1"));
        assert_eq!(t.cell(0, 1), None);
    }

    #[test]
    fn long_rows_widen_table() {
        let mut t = Table::new("T", &["a"]);
        t.row(vec!["1".into(), "2".into()]);
        let s = t.to_string();
        assert!(s.contains('2'));
    }

    #[test]
    fn notes_are_printed() {
        let mut t = Table::new("T", &["a"]);
        t.row(vec!["1".into()]);
        t.note("footnote here");
        assert!(t.to_string().contains("* footnote here"));
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(pct(0.625), "62.5%");
        assert_eq!(pct(1.0), "100.0%");
        assert_eq!(yes_no(true), "yes");
        assert_eq!(yes_no(false), "no");
    }

    #[test]
    fn csv_export_escapes_properly() {
        let mut t = Table::new("ignored title", &["name", "value"]);
        t.row(vec!["plain".into(), "1".into()]);
        t.row(vec!["with, comma".into(), "quote \" inside".into()]);
        t.note("notes are not exported");
        let csv = t.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "name,value");
        assert_eq!(lines[1], "plain,1");
        assert_eq!(lines[2], "\"with, comma\",\"quote \"\" inside\"");
        assert_eq!(lines.len(), 3);
        assert!(!csv.contains("ignored title"));
        assert!(!csv.contains("notes"));
    }

    #[test]
    fn json_export_escapes_properly() {
        let mut t = Table::new("T \"quoted\"", &["name", "value"]);
        t.row(vec!["a\nb".into(), "back\\slash".into()]);
        t.note("n1");
        let j = t.to_json();
        assert_eq!(
            j,
            "{\"title\": \"T \\\"quoted\\\"\", \"headers\": [\"name\", \"value\"], \
             \"rows\": [[\"a\\nb\", \"back\\\\slash\"]], \"notes\": [\"n1\"]}"
        );
    }

    /// Cells reach JSON through the telemetry crate's escaper: control
    /// characters escaped, everything else passed through as UTF-8.
    #[test]
    fn json_string_escapes_control_chars() {
        let mut t = Table::new("plain", &["\u{1}"]);
        t.row(vec!["⊥".into()]);
        assert_eq!(
            t.to_json(),
            "{\"title\": \"plain\", \"headers\": [\"\\u0001\"], \
             \"rows\": [[\"⊥\"]], \"notes\": []}"
        );
    }

    #[test]
    fn unicode_cells_align_by_chars() {
        let mut t = Table::new("T", &["v"]);
        t.row(vec!["⊥".into()]);
        t.row(vec!["xy".into()]);
        let s = t.to_string();
        assert!(s.contains('⊥'));
    }
}
