//! rumor-lint — the workspace's architecture and determinism invariants
//! as an executable static-analysis pass.
//!
//! The ROADMAP states the tree's load-bearing rules in prose: one round
//! driver and one replication harness (`rumor-sim`), the allocation-free
//! effect-sink idiom, one wire framing owner (`rumor-wire`), one JSON
//! layer (`rumor_types::json`), seeded determinism everywhere, a layered
//! crate graph, and `unsafe`-free library code. This crate turns each of those sentences into a named
//! rule over the sanitised sources and the Cargo manifests, so a PR that
//! bends an invariant fails tier-1 instead of waiting for review to
//! notice.
//!
//! The pass is deliberately dependency-free — a token-level scanner, a
//! minimal manifest reader and a hand-rolled JSON report — so the linter
//! itself can never be skewed by the tree it judges (the `crate-graph`
//! rule enforces that emptiness, on this very crate, at every run).
//!
//! Violations are silenced only by an inline
//! `// rumor-lint: allow(<rule>) -- <reason>` comment with a mandatory
//! reason, on the offending line or the line above. Suppressions are
//! carried in the report, not dropped, so `--format json` shows every
//! sanctioned exception.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod manifest;
pub mod report;
pub mod rules;
pub mod source;

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use manifest::Manifest;
use report::{Report, Suppressed};
use source::SourceFile;

/// Directory names the walker never descends into: build output,
/// vendored dependency subsets (external code is not ours to police) and
/// the lint's own violation fixtures.
const SKIP_DIRS: [&str; 4] = ["target", "vendor", "fixtures", ".git"];

/// Top-level entry points the walker scans, relative to the root.
const SCAN_ROOTS: [&str; 4] = ["crates", "src", "tests", "examples"];

/// Runs the full pass over the workspace at `root`.
///
/// # Errors
///
/// Propagates filesystem errors from walking or reading sources.
pub fn lint_workspace(root: &Path) -> io::Result<Report> {
    let mut files = Vec::new();
    for entry in SCAN_ROOTS {
        let dir = root.join(entry);
        if dir.is_dir() {
            let mut paths = Vec::new();
            walk(&dir, &mut paths)?;
            for p in paths {
                files.push(SourceFile::load(root, &p)?);
            }
        }
    }
    files.sort_by(|a, b| a.rel.cmp(&b.rel));
    let manifests = collect_manifests(root)?;
    Ok(analyze(&root.display().to_string(), &files, &manifests))
}

/// Recursively collects `.rs` files under `dir`, skipping [`SKIP_DIRS`],
/// in sorted order.
fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<_> = fs::read_dir(dir)?.collect::<Result<_, _>>()?;
    entries.sort_by_key(std::fs::DirEntry::file_name);
    for entry in entries {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if !SKIP_DIRS.contains(&name.as_ref()) {
                walk(&path, out)?;
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Reads the root manifest plus every `crates/*/Cargo.toml`, paired with
/// their root-relative paths.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn collect_manifests(root: &Path) -> io::Result<Vec<(String, Manifest)>> {
    let mut out = Vec::new();
    let top = root.join("Cargo.toml");
    if top.is_file() {
        out.push((
            "Cargo.toml".to_owned(),
            manifest::parse(&fs::read_to_string(top)?),
        ));
    }
    let crates = root.join("crates");
    if crates.is_dir() {
        let mut entries: Vec<_> = fs::read_dir(&crates)?.collect::<Result<_, _>>()?;
        entries.sort_by_key(std::fs::DirEntry::file_name);
        for entry in entries {
            let m = entry.path().join("Cargo.toml");
            if m.is_file() {
                let rel = format!("crates/{}/Cargo.toml", entry.file_name().to_string_lossy());
                out.push((rel, manifest::parse(&fs::read_to_string(m)?)));
            }
        }
    }
    Ok(out)
}

/// Runs every rule over pre-loaded inputs and splits raw findings into
/// violations and inline-suppressed entries.
pub fn analyze(root: &str, files: &[SourceFile], manifests: &[(String, Manifest)]) -> Report {
    let mut raw = rules::run_source_rules(files);
    // Virtual root manifests (no [package]) are containers, not crates.
    let crate_manifests: Vec<(String, Manifest)> = manifests
        .iter()
        .filter(|(_, m)| !m.name.is_empty())
        .cloned()
        .collect();
    rules::crate_graph::check(&crate_manifests, files, &mut raw);

    let mut report = Report {
        root: root.to_owned(),
        files_scanned: files.len(),
        manifests_checked: crate_manifests.len(),
        ..Report::default()
    };
    for finding in raw {
        let allow = files
            .iter()
            .find(|f| f.rel == finding.file)
            .and_then(|f| f.allow_for(&finding.rule, finding.line));
        match allow {
            Some(a) => report.suppressed.push(Suppressed {
                rule: finding.rule,
                file: finding.file,
                line: finding.line,
                reason: a.reason.clone(),
            }),
            None => report.findings.push(finding),
        }
    }
    report
        .findings
        .sort_by(|a, b| (&a.file, a.line, &a.rule).cmp(&(&b.file, b.line, &b.rule)));
    report
        .suppressed
        .sort_by(|a, b| (&a.file, a.line, &a.rule).cmp(&(&b.file, b.line, &b.rule)));
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn analyze_applies_inline_suppression() {
        let file = SourceFile::from_text(
            "crates/demo/src/lib.rs".into(),
            "#![forbid(unsafe_code)]\n\
             let a = Instant::now(); // rumor-lint: allow(determinism) -- timing harness\n\
             let b = Instant::now();\n",
        );
        let report = analyze(".", &[file], &[]);
        assert_eq!(report.findings.len(), 1);
        assert_eq!(report.findings[0].line, 3);
        assert_eq!(report.suppressed.len(), 1);
        assert_eq!(report.suppressed[0].reason, "timing harness");
    }

    #[test]
    fn virtual_manifest_is_not_a_crate() {
        let virtual_root = ("Cargo.toml".to_owned(), Manifest::default());
        let report = analyze(".", &[], &[virtual_root]);
        assert_eq!(report.manifests_checked, 0);
        assert!(report.is_clean());
    }
}
