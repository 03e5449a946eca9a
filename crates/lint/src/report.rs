//! Findings, the report container, and its two renderings: a human
//! table and a machine-readable JSON document (`rumor-lint/v1`). The
//! JSON writer is hand-rolled because the lint is dependency-free; the
//! workspace's one JSON parser (`rumor_types::json`) reads it back in
//! the tier-1 gate `tests/arch_lint.rs`.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Schema identifier stamped into every JSON report.
pub const SCHEMA: &str = "rumor-lint/v1";

/// One rule violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule name (e.g. `determinism`).
    pub rule: String,
    /// File, relative to the lint root.
    pub file: String,
    /// 1-based line (0 for file/crate-level findings).
    pub line: usize,
    /// Human explanation of the violation.
    pub message: String,
}

/// A violation silenced by an inline `rumor-lint: allow` comment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Suppressed {
    /// Rule name.
    pub rule: String,
    /// File, relative to the lint root.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// The justification given in the allow comment.
    pub reason: String,
}

/// The full result of one lint pass.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Report {
    /// Root the pass ran over (as given on the command line).
    pub root: String,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Number of manifests checked by the crate-graph rule.
    pub manifests_checked: usize,
    /// Unsuppressed violations — the pass fails if any exist.
    pub findings: Vec<Finding>,
    /// Violations silenced by allow comments (kept for observability).
    pub suppressed: Vec<Suppressed>,
}

impl Report {
    /// Whether the tree is clean (no unsuppressed findings).
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Renders the human-facing table.
    pub fn render_table(&self, rules: &[&str]) -> String {
        let mut out = String::new();
        let mut by_rule: BTreeMap<&str, usize> = rules.iter().map(|r| (*r, 0)).collect();
        for f in &self.findings {
            *by_rule.entry(f.rule.as_str()).or_insert(0) += 1;
        }
        let _ = writeln!(
            out,
            "rumor-lint: {} files, {} manifests",
            self.files_scanned, self.manifests_checked
        );
        let _ = writeln!(out, "{:<22} {:>9} ", "rule", "findings");
        let _ = writeln!(out, "{:-<22} {:->9} ", "", "");
        for (rule, count) in &by_rule {
            let _ = writeln!(out, "{rule:<22} {count:>9} ");
        }
        if !self.findings.is_empty() {
            let _ = writeln!(out);
            for f in &self.findings {
                let _ = writeln!(out, "{}:{}: [{}] {}", f.file, f.line, f.rule, f.message);
            }
        }
        if !self.suppressed.is_empty() {
            let _ = writeln!(out, "\n{} suppressed:", self.suppressed.len());
            for s in &self.suppressed {
                let _ = writeln!(
                    out,
                    "{}:{}: [{}] allowed -- {}",
                    s.file, s.line, s.rule, s.reason
                );
            }
        }
        let verdict = if self.is_clean() { "clean" } else { "FAIL" };
        let _ = writeln!(out, "\nresult: {verdict}");
        out
    }

    /// Serialises the report as `rumor-lint/v1` JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"schema\": {},", json_str(SCHEMA));
        let _ = writeln!(out, "  \"root\": {},", json_str(&self.root));
        let _ = writeln!(out, "  \"files_scanned\": {},", self.files_scanned);
        let _ = writeln!(out, "  \"manifests_checked\": {},", self.manifests_checked);
        out.push_str("  \"findings\": [");
        for (i, f) in self.findings.iter().enumerate() {
            let sep = if i == 0 { "\n" } else { ",\n" };
            let _ = write!(
                out,
                "{sep}    {{ \"rule\": {}, \"file\": {}, \"line\": {}, \"message\": {} }}",
                json_str(&f.rule),
                json_str(&f.file),
                f.line,
                json_str(&f.message)
            );
        }
        out.push_str(if self.findings.is_empty() {
            "],\n"
        } else {
            "\n  ],\n"
        });
        out.push_str("  \"suppressed\": [");
        for (i, s) in self.suppressed.iter().enumerate() {
            let sep = if i == 0 { "\n" } else { ",\n" };
            let _ = write!(
                out,
                "{sep}    {{ \"rule\": {}, \"file\": {}, \"line\": {}, \"reason\": {} }}",
                json_str(&s.rule),
                json_str(&s.file),
                s.line,
                json_str(&s.reason)
            );
        }
        out.push_str(if self.suppressed.is_empty() {
            "]\n"
        } else {
            "\n  ]\n"
        });
        out.push_str("}\n");
        out
    }
}

/// Escapes a string as a JSON literal.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
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

    fn sample() -> Report {
        Report {
            root: ".".into(),
            files_scanned: 3,
            manifests_checked: 2,
            findings: vec![Finding {
                rule: "determinism".into(),
                file: "crates/x/src/lib.rs".into(),
                line: 7,
                message: "call to `Instant::now` — \"wall clock\"".into(),
            }],
            suppressed: vec![Suppressed {
                rule: "single-round-loop".into(),
                file: "crates/churn/src/trace.rs".into(),
                line: 70,
                reason: "trace construction".into(),
            }],
        }
    }

    #[test]
    fn table_shows_verdict() {
        let clean = Report::default();
        assert!(clean
            .render_table(&["determinism"])
            .contains("result: clean"));
        assert!(sample()
            .render_table(&["determinism"])
            .contains("result: FAIL"));
    }
}
