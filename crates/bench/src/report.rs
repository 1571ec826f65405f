//! Experiment result tables and the experiment scale knob.
//!
//! Reports serialize to JSON through the hand-rolled
//! [`ExperimentReport::to_json`] / [`ExperimentReport::from_json`] below
//! (the workspace builds offline from vendored crates, so pulling in serde
//! is not an option; the schema is four string fields and two string
//! collections).

/// How big to run the experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Seconds per experiment; used by `cargo bench` and CI.
    Quick,
    /// Minutes for the full suite; the numbers recorded in EXPERIMENTS.md.
    Full,
}

impl Scale {
    /// Parse from the `SVR_SCALE` environment variable (default `quick`).
    pub fn from_env() -> Scale {
        match std::env::var("SVR_SCALE").as_deref() {
            Ok("full" | "FULL") => Scale::Full,
            _ => Scale::Quick,
        }
    }

    /// Scale a quick-mode count up for full mode.
    pub fn pick(&self, quick: usize, full: usize) -> usize {
        match self {
            Scale::Quick => quick,
            Scale::Full => full,
        }
    }
}

/// A rendered experiment: one paper table or figure.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentReport {
    /// Paper artifact id, e.g. "table2" or "fig8".
    pub id: String,
    pub title: String,
    pub columns: Vec<String>,
    pub rows: Vec<Vec<String>>,
    /// What the paper reports and what to compare.
    pub notes: String,
}

impl ExperimentReport {
    /// Render as a fixed-width text table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(|c| c.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                if i < widths.len() {
                    widths[i] = widths[i].max(cell.len());
                }
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} — {} ==\n", self.id, self.title));
        let header: Vec<String> = self
            .columns
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = widths[i]))
            .collect();
        out.push_str(&header.join("  "));
        out.push('\n');
        out.push_str(&"-".repeat(header.join("  ").len()));
        out.push('\n');
        for row in &self.rows {
            let line: Vec<String> = row
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>w$}", c, w = widths.get(i).copied().unwrap_or(8)))
                .collect();
            out.push_str(&line.join("  "));
            out.push('\n');
        }
        if !self.notes.is_empty() {
            out.push_str(&format!("note: {}\n", self.notes));
        }
        out
    }
}

fn json_escape(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

fn json_string_array(items: &[String], out: &mut String) {
    out.push('[');
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        json_escape(item, out);
    }
    out.push(']');
}

impl ExperimentReport {
    /// Serialize one report as a JSON object.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\"id\":");
        json_escape(&self.id, &mut out);
        out.push_str(",\"title\":");
        json_escape(&self.title, &mut out);
        out.push_str(",\"columns\":");
        json_string_array(&self.columns, &mut out);
        out.push_str(",\"rows\":[");
        for (i, row) in self.rows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json_string_array(row, &mut out);
        }
        out.push_str("],\"notes\":");
        json_escape(&self.notes, &mut out);
        out.push('}');
        out
    }

    /// Parse a report serialized by [`ExperimentReport::to_json`].
    pub fn from_json(json: &str) -> Option<ExperimentReport> {
        let mut parser = JsonParser {
            bytes: json.as_bytes(),
            pos: 0,
        };
        let report = parser.object()?;
        parser.skip_ws();
        parser.at_end().then_some(report)
    }
}

/// Serialize a report list as a pretty-printed JSON array.
pub fn reports_to_json(reports: &[ExperimentReport]) -> String {
    let mut out = String::from("[\n");
    for (i, report) in reports.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str("  ");
        out.push_str(&report.to_json());
    }
    out.push_str("\n]\n");
    out
}

/// A minimal recursive-descent parser for exactly the JSON
/// [`ExperimentReport::to_json`] emits.
struct JsonParser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl JsonParser<'_> {
    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn at_end(&self) -> bool {
        self.pos == self.bytes.len()
    }

    fn eat(&mut self, b: u8) -> Option<()> {
        self.skip_ws();
        if self.pos < self.bytes.len() && self.bytes[self.pos] == b {
            self.pos += 1;
            Some(())
        } else {
            None
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn string(&mut self) -> Option<String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            let b = *self.bytes.get(self.pos)?;
            self.pos += 1;
            match b {
                b'"' => return Some(out),
                b'\\' => {
                    let esc = *self.bytes.get(self.pos)?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self.bytes.get(self.pos..self.pos + 4)?;
                            self.pos += 4;
                            let code =
                                u32::from_str_radix(std::str::from_utf8(hex).ok()?, 16).ok()?;
                            out.push(char::from_u32(code)?);
                        }
                        _ => return None,
                    }
                }
                b if b < 0x80 => out.push(b as char),
                _ => {
                    // Re-decode the multi-byte scalar from the source.
                    let start = self.pos - 1;
                    let s = std::str::from_utf8(&self.bytes[start..]).ok()?;
                    let c = s.chars().next()?;
                    self.pos = start + c.len_utf8();
                    out.push(c);
                }
            }
        }
    }

    fn string_array(&mut self) -> Option<Vec<String>> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.eat(b']')?;
            return Some(items);
        }
        loop {
            items.push(self.string()?);
            match self.peek()? {
                b',' => self.eat(b',')?,
                b']' => {
                    self.eat(b']')?;
                    return Some(items);
                }
                _ => return None,
            }
        }
    }

    fn object(&mut self) -> Option<ExperimentReport> {
        self.eat(b'{')?;
        let mut report = ExperimentReport {
            id: String::new(),
            title: String::new(),
            columns: Vec::new(),
            rows: Vec::new(),
            notes: String::new(),
        };
        loop {
            let key = self.string()?;
            self.eat(b':')?;
            match key.as_str() {
                "id" => report.id = self.string()?,
                "title" => report.title = self.string()?,
                "notes" => report.notes = self.string()?,
                "columns" => report.columns = self.string_array()?,
                "rows" => {
                    self.eat(b'[')?;
                    if self.peek() == Some(b']') {
                        self.eat(b']')?;
                    } else {
                        loop {
                            report.rows.push(self.string_array()?);
                            match self.peek()? {
                                b',' => self.eat(b',')?,
                                b']' => {
                                    self.eat(b']')?;
                                    break;
                                }
                                _ => return None,
                            }
                        }
                    }
                }
                _ => return None,
            }
            match self.peek()? {
                b',' => self.eat(b',')?,
                b'}' => {
                    self.eat(b'}')?;
                    return Some(report);
                }
                _ => return None,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_table() {
        let report = ExperimentReport {
            id: "table9".into(),
            title: "demo".into(),
            columns: vec!["method".into(), "ms".into()],
            rows: vec![
                vec!["ID".into(), "114.0".into()],
                vec!["Chunk".into(), "35.4".into()],
            ],
            notes: "shape".into(),
        };
        let text = report.render();
        assert!(text.contains("table9"));
        assert!(text.contains("Chunk"));
        assert!(text.lines().count() >= 5);
    }

    #[test]
    fn scale_pick() {
        assert_eq!(Scale::Quick.pick(10, 100), 10);
        assert_eq!(Scale::Full.pick(10, 100), 100);
    }

    #[test]
    fn report_roundtrips_through_json() {
        let report = ExperimentReport {
            id: "t".into(),
            title: "quotes \" and\nnewlines — ünïcode".into(),
            columns: vec!["a".into(), "b".into()],
            rows: vec![vec!["1".into(), "2".into()], vec!["3".into(), "4".into()]],
            notes: String::new(),
        };
        let json = report.to_json();
        let back = ExperimentReport::from_json(&json).unwrap();
        assert_eq!(back, report);

        let array = reports_to_json(&[report.clone(), report]);
        assert!(array.starts_with("[\n"));
        assert!(array.trim_end().ends_with(']'));
    }
}
