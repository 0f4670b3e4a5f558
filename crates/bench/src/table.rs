//! Plain-text table printing for the experiment binaries.

/// A simple left-aligned text table.
#[derive(Debug, Clone, Default)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
    note: Option<String>,
}

impl Table {
    /// Creates a table with a title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Table {
        Table {
            title: title.into(),
            headers: headers.iter().map(|h| h.to_string()).collect(),
            rows: Vec::new(),
            note: None,
        }
    }

    /// Adds a line that [`Table::print`] prints below the table, after the
    /// blank line that ends it.
    pub fn with_note(mut self, note: impl Into<String>) -> Table {
        self.note = Some(note.into());
        self
    }

    /// Appends a row (converted to strings by the caller).
    pub fn push_row(&mut self, row: Vec<String>) {
        self.rows.push(row);
    }

    /// Appends a row of formatted numbers after a label.
    pub fn push_numeric_row(&mut self, label: &str, values: &[f64], precision: usize) {
        let mut row = vec![label.to_string()];
        row.extend(values.iter().map(|v| format!("{v:.precision$}")));
        self.rows.push(row);
    }

    /// The number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` when the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table to a string.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                if i >= widths.len() {
                    widths.push(cell.len());
                } else {
                    widths[i] = widths[i].max(cell.len());
                }
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| {
                    format!("{:width$}", c, width = widths.get(i).copied().unwrap_or(c.len()))
                })
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Prints the table to stdout, followed by a blank line and its note.
    pub fn print(&self) {
        println!("{}", self.render());
        if let Some(note) = &self.note {
            println!("{note}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_headers_and_rows() {
        let mut t = Table::new("Demo", &["name", "value"]);
        t.push_row(vec!["alpha".into(), "1".into()]);
        t.push_numeric_row("beta", &[2.5], 1);
        let s = t.render();
        assert!(s.contains("Demo"));
        assert!(s.contains("alpha"));
        assert!(s.contains("2.5"));
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn handles_wide_cells() {
        let mut t = Table::new("W", &["a"]);
        t.push_row(vec!["a-very-long-cell".into(), "extra".into()]);
        let s = t.render();
        assert!(s.contains("a-very-long-cell"));
        assert!(s.contains("extra"));
    }
}
