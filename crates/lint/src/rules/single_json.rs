//! `single-json` — one JSON layer.
//!
//! `rumor_types::json` owns the workspace's JSON value, printer and
//! parser; traces, fuzz records and experiment artefacts all build that
//! one `Json` (ROADMAP: "one JSON layer"). Three hand-rolled copies once
//! drifted apart on how a float is spelled, so the rule flags any
//! `enum Json` declared outside `crates/types/` — tests included, a
//! private test model is a fork too. `crates/lint/` is exempt: the
//! linter keeps its own report writer because it must build without the
//! tree it judges (see `crate-graph`).

use crate::report::Finding;
use crate::rules::{push, token_match};
use crate::source::SourceFile;

/// Rule name.
pub const NAME: &str = "single-json";

/// Runs the rule.
pub fn check(files: &[SourceFile], out: &mut Vec<Finding>) {
    for file in files {
        if file.rel.starts_with("crates/types/") || file.rel.starts_with("crates/lint/") {
            continue;
        }
        for (idx, line) in file.lines.iter().enumerate() {
            if token_match(line, "enum Json") {
                push(
                    out,
                    NAME,
                    file,
                    idx + 1,
                    "`enum Json` outside rumor-types: build `rumor_types::json::Json` \
                     instead of declaring another JSON value"
                        .to_owned(),
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_on(rel: &str, text: &str) -> Vec<Finding> {
        let f = SourceFile::from_text(rel.into(), text);
        let mut out = Vec::new();
        check(&[f], &mut out);
        out
    }

    #[test]
    fn flags_a_second_json_value_anywhere_else() {
        let text = "pub enum Json {\n    Null,\n}\n";
        for rel in [
            "crates/obs/src/json.rs",
            "crates/bench/src/json.rs",
            "tests/prop_invariants.rs",
        ] {
            let found = run_on(rel, text);
            assert_eq!(found.len(), 1, "{rel}");
            assert_eq!(found[0].line, 1);
        }
        let in_test = "#[cfg(test)]\nmod tests {\n    enum Json {}\n}\n";
        assert_eq!(run_on("crates/fuzz/src/record.rs", in_test).len(), 1);
    }

    #[test]
    fn owner_linter_and_lookalikes_pass() {
        let text = "pub enum Json {\n    Null,\n}\n";
        assert!(run_on("crates/types/src/json.rs", text).is_empty());
        assert!(run_on("crates/lint/src/report.rs", text).is_empty());
        let lookalikes = "enum JsonKind {}\nuse rumor_types::json::Json;\n// enum Json\n";
        assert!(run_on("crates/obs/src/trace.rs", lookalikes).is_empty());
    }
}
