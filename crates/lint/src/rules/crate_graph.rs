//! `crate-graph` — the README dependency diagram as a layering check.
//!
//! The workspace is layered: foundations (`types`, `wire`, `metrics`,
//! `analysis`) at the bottom, then `churn`/`obs` → `net` → `core` →
//! `sim` → the protocol/runtime tier (`baselines`, `pgrid`, `cluster`)
//! → `bench`/`fuzz` → the `rumor` facade on top. Every normal dependency edge between
//! workspace crates must point *strictly downward* in that order —
//! `core` may never grow an edge to `sim`, `baselines`/`pgrid` may never
//! be depended on by `sim`, and so on. Dev-dependencies are exempt
//! (tests may reach sideways: `cluster` mounts `core` peers in its
//! integration tests). Additional shape constraints:
//!
//! * `rumor-lint` itself has **zero** dependencies — the linter cannot
//!   be contaminated by the tree it judges. That is why it keeps its own
//!   JSON writer and reader (`report.rs`) although the tree has one JSON
//!   layer, `rumor_types::json` (rule `single-json`): depending on
//!   `rumor-types` would break this rule. `benchmark/` keeps its own for
//!   the mirror-image reason — it is a separate workspace that must
//!   build against any commit of the tree, so it may use nothing the
//!   tree could rename; this pass never scans it.
//! * the `rumor` facade depends on exactly the thirteen library crates
//!   it re-exports, and its `src/lib.rs` contains re-exports only — no
//!   functions, types or logic of its own.
//!
//! Manifest-level findings have no inline-suppression channel: a wrong
//! edge is fixed or the layer map here is amended in review.

use crate::manifest::Manifest;
use crate::report::Finding;
use crate::source::SourceFile;

/// Rule name.
pub const NAME: &str = "crate-graph";

/// Layer of each workspace crate; edges must strictly decrease.
const LAYERS: [(&str, u8); 16] = [
    ("rumor-types", 0),
    ("rumor-wire", 0),
    ("rumor-metrics", 0),
    ("rumor-analysis", 0),
    ("rumor-churn", 1),
    ("rumor-obs", 1),
    ("rumor-net", 2),
    ("rumor-core", 3),
    ("rumor-sim", 4),
    ("rumor-baselines", 5),
    ("rumor-pgrid", 5),
    ("rumor-cluster", 5),
    ("rumor-bench", 6),
    ("rumor-fuzz", 6),
    ("rumor", 7),
    ("rumor-lint", 8),
];

/// The facade's exact dependency set.
const FACADE_DEPS: [&str; 13] = [
    "rumor-analysis",
    "rumor-baselines",
    "rumor-churn",
    "rumor-cluster",
    "rumor-core",
    "rumor-fuzz",
    "rumor-metrics",
    "rumor-net",
    "rumor-obs",
    "rumor-pgrid",
    "rumor-sim",
    "rumor-types",
    "rumor-wire",
];

/// Item-defining tokens the facade root must not contain.
const ITEM_TOKENS: [&str; 7] = [
    "fn ", "struct ", "enum ", "trait ", "impl ", "mod ", "static ",
];

fn layer_of(name: &str) -> Option<u8> {
    LAYERS.iter().find(|(n, _)| *n == name).map(|&(_, l)| l)
}

/// Runs the rule over parsed manifests plus the facade root source.
pub fn check(manifests: &[(String, Manifest)], files: &[SourceFile], out: &mut Vec<Finding>) {
    for (path, m) in manifests {
        let mut emit = |msg: String| {
            out.push(Finding {
                rule: NAME.to_owned(),
                file: path.clone(),
                line: 0,
                message: msg,
            });
        };
        let Some(layer) = layer_of(&m.name) else {
            emit(format!(
                "crate `{}` is not in the lint's layer map — place it in the README graph \
                 and in rules/crate_graph.rs",
                m.name
            ));
            continue;
        };
        if m.name == "rumor-lint" {
            if !m.deps.is_empty() {
                emit(format!(
                    "rumor-lint must stay dependency-free (found: {})",
                    m.deps.join(", ")
                ));
            }
            continue;
        }
        for dep in &m.deps {
            if !dep.starts_with("rumor") {
                continue; // vendored externals are outside the graph
            }
            match layer_of(dep) {
                None => emit(format!("dependency `{dep}` is not in the lint's layer map",)),
                Some(dep_layer) if dep_layer >= layer => emit(format!(
                    "edge `{}` → `{dep}` points upward or sideways in the crate graph \
                     (layer {layer} → {dep_layer}); the README layering forbids it",
                    m.name
                )),
                Some(_) => {}
            }
        }
        if m.name == "rumor" {
            let mut deps = m.deps.clone();
            deps.retain(|d| d.starts_with("rumor"));
            deps.sort();
            if deps != FACADE_DEPS {
                emit(format!(
                    "facade dependency set drifted from the thirteen re-exported crates \
                     (found: {})",
                    deps.join(", ")
                ));
            }
        }
    }
    check_facade_source(files, out);
}

/// The facade root may only re-export: `pub use` lines, attributes and
/// docs — no item definitions of its own.
fn check_facade_source(files: &[SourceFile], out: &mut Vec<Finding>) {
    let Some(facade) = files.iter().find(|f| f.rel == "src/lib.rs") else {
        return;
    };
    for (idx, line) in facade.lines.iter().enumerate() {
        let lineno = idx + 1;
        if facade.is_test_line(lineno) {
            continue;
        }
        let mut head = line.trim_start();
        for vis in ["pub(crate) ", "pub(super) ", "pub "] {
            if let Some(rest) = head.strip_prefix(vis) {
                head = rest;
                break;
            }
        }
        if ITEM_TOKENS.iter().any(|t| head.starts_with(t)) {
            out.push(Finding {
                rule: NAME.to_owned(),
                file: facade.rel.clone(),
                line: lineno,
                message: "facade `src/lib.rs` defines an item: the root crate re-exports \
                          the library crates and adds nothing of its own"
                    .to_owned(),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manifest;

    fn run(manifest_text: &str, path: &str) -> Vec<Finding> {
        let m = manifest::parse(manifest_text);
        let mut out = Vec::new();
        check(&[(path.to_owned(), m)], &[], &mut out);
        out
    }

    #[test]
    fn downward_edges_pass() {
        let text = "[package]\nname = \"rumor-core\"\n[dependencies]\nbytes.workspace = true\nrumor-net.workspace = true\nrumor-types.workspace = true\n";
        assert!(run(text, "crates/core/Cargo.toml").is_empty());
    }

    #[test]
    fn upward_edge_is_flagged() {
        let text = "[package]\nname = \"rumor-core\"\n[dependencies]\nrumor-sim.workspace = true\n";
        let found = run(text, "crates/core/Cargo.toml");
        assert_eq!(found.len(), 1);
        assert!(found[0].message.contains("upward or sideways"));
    }

    #[test]
    fn dev_dependencies_are_exempt() {
        let text = "[package]\nname = \"rumor-cluster\"\n[dev-dependencies]\nrumor-core.workspace = true\nrumor-baselines.workspace = true\n";
        assert!(run(text, "crates/cluster/Cargo.toml").is_empty());
    }

    #[test]
    fn lint_must_be_dependency_free() {
        let text = "[package]\nname = \"rumor-lint\"\n[dependencies]\nserde.workspace = true\n";
        let found = run(text, "crates/lint/Cargo.toml");
        assert_eq!(found.len(), 1);
        assert!(found[0].message.contains("dependency-free"));
    }

    #[test]
    fn unknown_crate_is_flagged() {
        let text = "[package]\nname = \"rumor-mystery\"\n";
        assert_eq!(run(text, "crates/mystery/Cargo.toml").len(), 1);
    }

    #[test]
    fn facade_item_definitions_are_flagged() {
        let facade = SourceFile::from_text(
            "src/lib.rs".into(),
            "#![forbid(unsafe_code)]\npub use rumor_core as core;\npub fn sneaky() {}\n",
        );
        let mut out = Vec::new();
        check(&[], &[facade], &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].line, 3);
    }
}
