//! The seven codified invariants, one module per rule.
//!
//! Every rule scans the sanitised sources (or the manifests) and emits
//! raw [`Finding`]s; the driver in `lib.rs` then splits them into
//! violations and inline-suppressed entries. Rule names are stable —
//! they are the key used by `// rumor-lint: allow(<rule>) -- <reason>`
//! comments and by the JSON report.

pub mod crate_graph;
pub mod determinism;
pub mod forbid_unsafe;
pub mod round_loop;
pub mod single_json;
pub mod sink_idiom;
pub mod wire_framing;

use crate::report::Finding;
use crate::source::SourceFile;

/// Names of all rules, in the order they run.
pub const RULE_NAMES: [&str; 7] = [
    round_loop::NAME,
    sink_idiom::NAME,
    wire_framing::NAME,
    single_json::NAME,
    determinism::NAME,
    crate_graph::NAME,
    forbid_unsafe::NAME,
];

/// Runs every source-level rule over the scanned files.
pub fn run_source_rules(files: &[SourceFile]) -> Vec<Finding> {
    let mut out = Vec::new();
    round_loop::check(files, &mut out);
    sink_idiom::check(files, &mut out);
    wire_framing::check(files, &mut out);
    single_json::check(files, &mut out);
    determinism::check(files, &mut out);
    forbid_unsafe::check(files, &mut out);
    out
}

/// Emits one finding.
pub(crate) fn push(
    out: &mut Vec<Finding>,
    rule: &str,
    file: &SourceFile,
    line: usize,
    message: String,
) {
    out.push(Finding {
        rule: rule.to_owned(),
        file: file.rel.clone(),
        line,
        message,
    });
}

/// The first word-boundary occurrence of `needle` in `hay`: the match
/// must not be glued to an identifier character on either side, so
/// `HashMap` does not fire on `MyHashMapLike`.
pub(crate) fn token_match(hay: &str, needle: &str) -> bool {
    let mut from = 0usize;
    while let Some(idx) = hay[from..].find(needle) {
        let start = from + idx;
        let end = start + needle.len();
        let before_ok = start == 0
            || !hay[..start]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        let after_ok = end == hay.len()
            || !hay[end..]
                .chars()
                .next()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        if before_ok && after_ok {
            return true;
        }
        from = end;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::token_match;

    #[test]
    fn token_match_respects_boundaries() {
        assert!(token_match("use std::collections::HashMap;", "HashMap"));
        assert!(token_match("x: HashMap<u32, u32>", "HashMap"));
        assert!(!token_match("MyHashMapLike", "HashMap"));
        assert!(!token_match("HashMapper", "HashMap"));
        assert!(token_match("Instant::now()", "Instant::now"));
        assert!(!token_match("MyInstant::nowish", "Instant::now"));
    }
}
