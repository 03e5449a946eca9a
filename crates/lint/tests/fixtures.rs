//! End-to-end lint runs over the fixture trees under `tests/fixtures/`.
//!
//! `violations/` plants exactly one file (or manifest edge) per rule and
//! expects each rule to catch its own; `clean/` is a healthy mini-tree
//! whose single violation is silenced by an inline allow comment (its
//! `crates/types/src/json.rs` declares the JSON value where `single-json`
//! allows it). The main workspace walker skips directories named
//! `fixtures`, so these trees never pollute the tier-1 gate in
//! `tests/arch_lint.rs`. That gate also reads both fixture reports back
//! through the workspace's JSON parser, which this dependency-free
//! crate cannot link.

use std::collections::BTreeSet;
use std::path::PathBuf;

use rumor_lint::report::Report;
use rumor_lint::rules::RULE_NAMES;

fn fixture_root(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn lint(name: &str) -> Report {
    rumor_lint::lint_workspace(&fixture_root(name)).expect("fixture tree scans")
}

#[test]
fn every_rule_detects_its_fixture_violation() {
    let report = lint("violations");
    let fired: BTreeSet<&str> = report.findings.iter().map(|f| f.rule.as_str()).collect();
    for rule in RULE_NAMES {
        assert!(
            fired.contains(rule),
            "rule `{rule}` missed its planted violation; report:\n{}",
            report.render_table(&RULE_NAMES)
        );
    }
    assert!(!report.is_clean());
}

#[test]
fn violations_point_at_the_planted_files() {
    let report = lint("violations");
    let find = |rule: &str| {
        report
            .findings
            .iter()
            .find(|f| f.rule == rule)
            .unwrap_or_else(|| panic!("no finding for {rule}"))
    };
    assert_eq!(
        find("single-round-loop").file,
        "crates/core/src/round_loop.rs"
    );
    assert_eq!(find("sink-idiom").file, "crates/core/src/sink.rs");
    assert_eq!(
        find("single-wire-framing").file,
        "crates/core/src/framing.rs"
    );
    assert_eq!(find("single-json").file, "crates/core/src/json.rs");
    assert_eq!(find("determinism").file, "crates/core/src/determinism.rs");
    assert_eq!(find("forbid-unsafe").file, "crates/core/src/lib.rs");
    assert_eq!(find("crate-graph").file, "crates/core/Cargo.toml");
    assert!(find("crate-graph").message.contains("rumor-sim"));
}

#[test]
fn clean_tree_passes_with_one_documented_suppression() {
    let report = lint("clean");
    assert!(
        report.is_clean(),
        "clean fixture has findings:\n{}",
        report.render_table(&RULE_NAMES)
    );
    assert_eq!(report.suppressed.len(), 1);
    let s = &report.suppressed[0];
    assert_eq!(s.rule, "determinism");
    assert_eq!(s.file, "crates/demo/src/lib.rs");
    assert!(s.reason.contains("sanctioned timing site"));
}

#[test]
fn table_rendering_matches_verdict() {
    assert!(lint("violations")
        .render_table(&RULE_NAMES)
        .contains("result: FAIL"));
    assert!(lint("clean")
        .render_table(&RULE_NAMES)
        .contains("result: clean"));
}
