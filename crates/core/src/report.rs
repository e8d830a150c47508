//! Plain-text report rendering for the benchmark harness: markdown and TSV
//! tables, written without any external serialization dependency.

use std::path::Path;
use std::time::Duration;

/// A simple rectangular table with a header row.
#[derive(Debug, Clone, Default)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table with a title and column headers.
    pub fn new<S: Into<String>>(title: S, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row; the row is padded or truncated to the header width.
    pub fn add_row(&mut self, cells: &[String]) -> &mut Self {
        let mut row: Vec<String> = cells.to_vec();
        row.resize(self.headers.len(), String::new());
        self.rows.push(row);
        self
    }

    /// Renders the table as GitHub-flavoured markdown.
    pub fn render_markdown(&self) -> String {
        let mut out = String::new();
        if !self.title.is_empty() {
            out.push_str(&format!("### {}\n\n", self.title));
        }
        let widths: Vec<usize> = self
            .headers
            .iter()
            .enumerate()
            .map(|(i, h)| {
                self.rows
                    .iter()
                    .map(|r| r[i].len())
                    .chain([h.len()])
                    .max()
                    .unwrap_or(0)
            })
            .collect();
        let render_row = |cells: &[String]| {
            let padded: Vec<String> = cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:width$}", c, width = widths[i]))
                .collect();
            format!("| {} |\n", padded.join(" | "))
        };
        out.push_str(&render_row(&self.headers));
        let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        out.push_str(&format!("| {} |\n", sep.join(" | ")));
        for row in &self.rows {
            out.push_str(&render_row(row));
        }
        out
    }

    /// Writes the markdown rendering to a file.
    pub fn write_markdown<P: AsRef<Path>>(&self, path: P) -> std::io::Result<()> {
        std::fs::write(path, self.render_markdown())
    }
}

/// Formats a duration as seconds with millisecond precision ("1.234s").
pub fn format_duration(d: Duration) -> String {
    format!("{:.3}s", d.as_secs_f64())
}

/// Formats a speed-up factor ("4.3X").
pub fn format_speedup(x: f64) -> String {
    if x.is_finite() {
        format!("{x:.1}X")
    } else {
        "-".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_table() -> Table {
        let mut t = Table::new("Demo", &["name", "value"]);
        t.add_row(&["alpha".to_string(), "1".to_string()]);
        t.add_row(&["beta".to_string(), "2".to_string(), "extra".to_string()]);
        t.add_row(&["gamma".to_string()]);
        t
    }

    #[test]
    fn rows_are_normalized_to_header_width() {
        let md = sample_table().render_markdown();
        let lines: Vec<&str> = md.lines().skip(2).collect();
        assert_eq!(lines.len(), 5, "header, separator, three rows");
        assert_eq!(lines[0], "| name  | value |");
        assert_eq!(lines[3], "| beta  | 2     |");
        assert_eq!(lines[4], "| gamma |       |");
    }

    #[test]
    fn markdown_contains_title_and_separator() {
        let md = sample_table().render_markdown();
        assert!(md.starts_with("### Demo"));
        assert!(md.contains("| name"));
        assert!(md.contains("| -----"));
        assert!(md.contains("| alpha"));
    }

    #[test]
    fn write_markdown_creates_file() {
        let dir = std::env::temp_dir().join("uninet_report_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("table.md");
        sample_table().write_markdown(&path).unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert!(content.contains("alpha"));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn duration_and_speedup_formatting() {
        assert_eq!(format_duration(Duration::from_millis(1234)), "1.234s");
        assert_eq!(format_speedup(4.26), "4.3X");
        assert_eq!(format_speedup(f64::INFINITY), "-");
    }
}
