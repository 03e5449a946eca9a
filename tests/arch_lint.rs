//! Tier-1 architecture gate: the rumor-lint pass must come back clean
//! over this very tree.
//!
//! This is the "invariants are executable" contract from the ROADMAP: a
//! change that re-grows a round loop outside `rumor-sim`, returns
//! `Vec<Effect>`, builds frame headers outside `rumor-wire`, reaches for
//! ambient time/entropy or hash-ordered state, reverses a crate-graph
//! edge, or drops `#![forbid(unsafe_code)]` fails `cargo test` — not
//! code review.
//!
//! The lint writes its `rumor-lint/v1` JSON report by hand (it is
//! dependency-free); the round-trip tests here read it back with the
//! workspace's one JSON parser, `rumor::types::json`.

use std::path::Path;

use rumor::types::json::{self, Json};
use rumor_lint::report::{Finding, Report, Suppressed};
use rumor_lint::rules::RULE_NAMES;

fn workspace_report() -> Report {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    rumor_lint::lint_workspace(root).expect("lint pass walks the workspace")
}

/// Parses `report.to_json()` with `rumor::types::json` and checks the
/// schema, the counts and every field of every finding and suppression
/// against `report`.
fn assert_round_trips(report: &Report) {
    let doc = json::parse(&report.to_json()).expect("the report is valid JSON");
    let text = |v: &Json, key: &str| -> String {
        let value = v.get(key).and_then(Json::as_str);
        value
            .unwrap_or_else(|| panic!("missing string `{key}`"))
            .to_owned()
    };
    let count = |v: &Json, key: &str| -> usize {
        let value = v.get(key).and_then(Json::as_usize);
        value.unwrap_or_else(|| panic!("missing count `{key}`"))
    };
    let items = |key: &str| -> &[Json] {
        let value = doc.get(key).and_then(Json::as_array);
        value.unwrap_or_else(|| panic!("missing array `{key}`"))
    };
    assert_eq!(text(&doc, "schema"), "rumor-lint/v1");
    assert_eq!(text(&doc, "root"), report.root);
    assert_eq!(count(&doc, "files_scanned"), report.files_scanned);
    assert_eq!(count(&doc, "manifests_checked"), report.manifests_checked);
    let findings: Vec<Finding> = items("findings")
        .iter()
        .map(|f| Finding {
            rule: text(f, "rule"),
            file: text(f, "file"),
            line: count(f, "line"),
            message: text(f, "message"),
        })
        .collect();
    assert_eq!(findings, report.findings);
    let suppressed: Vec<Suppressed> = items("suppressed")
        .iter()
        .map(|s| Suppressed {
            rule: text(s, "rule"),
            file: text(s, "file"),
            line: count(s, "line"),
            reason: text(s, "reason"),
        })
        .collect();
    assert_eq!(suppressed, report.suppressed);
}

#[test]
fn workspace_is_lint_clean() {
    let report = workspace_report();
    assert!(
        report.is_clean(),
        "rumor-lint found unsuppressed violations:\n{}",
        report.render_table(&RULE_NAMES)
    );
}

#[test]
fn lint_actually_scanned_the_tree() {
    let report = workspace_report();
    // Guard against a silently empty walk: the workspace has 14 library
    // crates plus the facade, and well over a hundred sources.
    assert!(
        report.files_scanned > 100,
        "only {} files scanned",
        report.files_scanned
    );
    assert!(
        report.manifests_checked >= 15,
        "only {} manifests checked",
        report.manifests_checked
    );
}

#[test]
fn every_suppression_carries_a_reason() {
    let report = workspace_report();
    for s in &report.suppressed {
        assert!(
            !s.reason.trim().is_empty(),
            "{}:{} suppresses {} without a reason",
            s.file,
            s.line,
            s.rule
        );
        assert!(
            RULE_NAMES.contains(&s.rule.as_str()),
            "{}:{} suppresses unknown rule {:?}",
            s.file,
            s.line,
            s.rule
        );
    }
}

#[test]
fn live_report_round_trips_through_json() {
    assert_round_trips(&workspace_report());
}

#[test]
fn escaped_report_round_trips_through_json() {
    assert_round_trips(&Report {
        root: ".".into(),
        files_scanned: 3,
        manifests_checked: 2,
        findings: vec![Finding {
            rule: "determinism".into(),
            file: "crates/x/src/lib.rs".into(),
            line: 7,
            message: "call to `Instant::now` — \"wall clock\"\nsecond line".into(),
        }],
        suppressed: vec![Suppressed {
            rule: "single-round-loop".into(),
            file: "crates/churn/src/trace.rs".into(),
            line: 70,
            reason: "trace \\ construction\t(tabbed)".into(),
        }],
    });
}

#[test]
fn empty_report_round_trips_through_json() {
    assert_round_trips(&Report {
        root: "/tmp/x".into(),
        ..Report::default()
    });
}

#[test]
fn fixture_reports_round_trip_through_json() {
    let fixtures = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/lint/tests/fixtures");
    for name in ["violations", "clean"] {
        let report = rumor_lint::lint_workspace(&fixtures.join(name)).expect("fixture tree scans");
        assert!(
            !report.findings.is_empty() || !report.suppressed.is_empty(),
            "fixture {name} produced an empty report"
        );
        assert_round_trips(&report);
    }
}
