//! Findings, text rendering, and the `--format=json` report.

use std::fmt::Write as _;

/// One diagnostic: a rule violation anchored to `file:line`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Stable rule identifier (kebab-case), e.g. `relaxed-rmw`.
    pub rule: &'static str,
    /// Path relative to the analysis root.
    pub file: String,
    /// 1-based line number (0 for whole-file findings).
    pub line: usize,
    /// Human-readable explanation of the violation.
    pub message: String,
    /// The offending source line, trimmed — also the baseline match key.
    pub snippet: String,
}

impl Finding {
    /// `file:line: [rule] message` — the single-line text form.
    pub fn render_text(&self) -> String {
        format!("{}:{}: [{}] {}", self.file, self.line, self.rule, self.message)
    }
}

/// The complete result of an analysis run, after baseline application.
#[derive(Debug, Clone)]
pub struct Report {
    /// Analysis root (as given, for display).
    pub root: String,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Rule identifiers that ran, in execution order.
    pub rules: Vec<&'static str>,
    /// Unbaselined findings (these fail the run), sorted by file/line/rule.
    pub findings: Vec<Finding>,
    /// Count of findings suppressed by the baseline.
    pub baselined: usize,
    /// Baseline entries that no longer match anything (these fail the run:
    /// the baseline only ever shrinks).
    pub stale_baseline: Vec<String>,
}

impl Report {
    /// Does this run gate green?
    pub fn ok(&self) -> bool {
        self.findings.is_empty() && self.stale_baseline.is_empty()
    }

    /// Human-readable report: one line per finding, then a summary.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            let _ = writeln!(out, "{}", f.render_text());
        }
        for s in &self.stale_baseline {
            let _ = writeln!(out, "stale baseline entry (remove it): {s}");
        }
        let _ = writeln!(
            out,
            "semimatch-analyze: {} file(s), {} rule(s), {} finding(s), {} baselined, {} stale \
             baseline entr{} — {}",
            self.files_scanned,
            self.rules.len(),
            self.findings.len(),
            self.baselined,
            self.stale_baseline.len(),
            if self.stale_baseline.len() == 1 { "y" } else { "ies" },
            if self.ok() { "ok" } else { "FAIL" }
        );
        out
    }

    /// The `--format=json` payload. Mirrors the `--metrics=json` convention:
    /// a single JSON object, emitted last on stdout, starting at the first
    /// line that begins with `{`.
    pub fn render_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"tool\": \"semimatch-analyze\",");
        let _ = writeln!(out, "  \"version\": 1,");
        let _ = writeln!(out, "  \"root\": {},", json_string(&self.root));
        let _ = writeln!(out, "  \"files_scanned\": {},", self.files_scanned);
        let rules: Vec<String> = self.rules.iter().map(|r| json_string(r)).collect();
        let _ = writeln!(out, "  \"rules\": [{}],", rules.join(", "));
        let _ = writeln!(out, "  \"baselined\": {},", self.baselined);
        let stale: Vec<String> = self.stale_baseline.iter().map(|s| json_string(s)).collect();
        let _ = writeln!(out, "  \"stale_baseline\": [{}],", stale.join(", "));
        out.push_str("  \"findings\": [");
        for (i, f) in self.findings.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    ");
            let _ = write!(
                out,
                "{{\"rule\": {}, \"file\": {}, \"line\": {}, \"message\": {}, \"snippet\": {}}}",
                json_string(f.rule),
                json_string(&f.file),
                f.line,
                json_string(&f.message),
                json_string(&f.snippet)
            );
        }
        if !self.findings.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("],\n");
        let _ = writeln!(out, "  \"ok\": {}", self.ok());
        out.push_str("}\n");
        out
    }
}

/// Escape `s` as a JSON string literal (with surrounding quotes).
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escaping() {
        assert_eq!(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
    }

    #[test]
    fn text_form() {
        let f = Finding {
            rule: "x-rule",
            file: "src/a.rs".into(),
            line: 7,
            message: "boom".into(),
            snippet: "let x;".into(),
        };
        assert_eq!(f.render_text(), "src/a.rs:7: [x-rule] boom");
    }
}
