//! Fixed-width ASCII tables.
//!
//! `aqt_core::report` renders one table per reproduced
//! claim/experiment; `EXPERIMENTS.md` quotes them.

use std::fmt::Write as _;

/// A simple column-aligned table.
#[derive(Debug, Clone, Default)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// A new table with a title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header arity).
    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row arity must match headers"
        );
        self.rows.push(cells.to_vec());
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Is the table empty?
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Render to an aligned ASCII string.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        if !self.title.is_empty() {
            writeln!(out, "== {} ==", self.title).unwrap();
        }
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for (i, c) in cells.iter().enumerate() {
                if i > 0 {
                    line.push_str("  ");
                }
                let w = widths[i];
                let _ = write!(line, "{c:<w$}");
            }
            line.trim_end().to_string()
        };
        writeln!(out, "{}", fmt_row(&self.headers, &widths)).unwrap();
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
        writeln!(out, "{}", "-".repeat(total)).unwrap();
        for row in &self.rows {
            writeln!(out, "{}", fmt_row(row, &widths)).unwrap();
        }
        out
    }
}

/// Format a float with 3 significant decimals, trimming noise.
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = Table::new("demo", &["name", "value"]);
        t.row(&["a".into(), "1".into()]);
        t.row(&["longer".into(), "22".into()]);
        let s = t.render();
        assert!(s.contains("== demo =="));
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 5);
        assert!(lines[1].starts_with("name"));
        assert!(lines[3].starts_with("a"));
        // columns aligned: "value" column starts at same offset
        let col = lines[1].find("value").unwrap();
        assert_eq!(lines[3].find('1').unwrap(), col);
        assert_eq!(lines[4].find("22").unwrap(), col);
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_checked() {
        let mut t = Table::new("x", &["a", "b"]);
        t.row(&["only-one".into()]);
    }

    #[test]
    fn f3_format() {
        assert_eq!(f3(1.23456), "1.235");
        assert_eq!(f3(2.0), "2.000");
    }
}
