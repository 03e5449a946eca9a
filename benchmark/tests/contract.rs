//! `BENCHMARK.json` and the runner's catalogue must say the same thing.

use rumor_benchmark::json::Json;
use rumor_benchmark::metrics::{end_to_end, per_layer, Metric};
use rumor_benchmark::{compare, workload};

fn benchmark_json() -> Json {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
        .expect("BENCHMARK.json parses")
}

fn assert_matches(listed: &Json, catalogue: &[Metric]) {
    let listed = listed.items();
    assert_eq!(listed.len(), catalogue.len());
    for (entry, metric) in listed.iter().zip(catalogue) {
        let text = |key: &str| entry.get(key).and_then(Json::as_str);
        assert_eq!(text("name"), Some(metric.name.as_str()));
        assert_eq!(text("unit"), Some(metric.unit), "{}", metric.name);
        let better = if metric.higher_is_better {
            "higher"
        } else {
            "lower"
        };
        assert_eq!(text("better"), Some(better), "{}", metric.name);
    }
}

#[test]
fn metric_lists_match_the_catalogue() {
    let doc = benchmark_json();
    assert_matches(doc.get("end_to_end").expect("end_to_end"), &end_to_end());
    assert_matches(doc.get("per_layer").expect("per_layer"), &per_layer());
    for entry in doc.get("per_layer").expect("per_layer").items() {
        assert_eq!(entry.members().len(), 3, "per-layer metrics carry no bound");
    }
}

#[test]
fn bounds_are_within_the_contract_and_setup_has_the_largest() {
    let rules = compare::bounds(&benchmark_json()).expect("bounds parse");
    assert!(rules.iter().all(|r| r.bound > 0.0 && r.bound <= 0.25));
    let setup = rules.iter().find(|r| r.name == "setup_s").expect("setup_s");
    assert!(!setup.higher_is_better && setup.unit == "s");
    assert!(rules.iter().all(|r| r.bound <= setup.bound));
}

#[test]
fn workloads_and_command_match_the_runner() {
    let doc = benchmark_json();
    let listed: Vec<(&str, &str)> = doc
        .get("workloads")
        .expect("workloads")
        .items()
        .iter()
        .map(|w| {
            (
                w.get("name").and_then(Json::as_str).expect("name"),
                w.get("why").and_then(Json::as_str).expect("why"),
            )
        })
        .collect();
    let defined: Vec<(&str, &str)> = workload::all().iter().map(|s| (s.name, s.why)).collect();
    assert_eq!(listed, defined);
    let paths: Vec<&str> = doc
        .get("paths")
        .expect("paths")
        .items()
        .iter()
        .filter_map(Json::as_str)
        .collect();
    assert_eq!(paths, ["benchmark"]);
    let seconds = doc
        .get("run_seconds")
        .and_then(Json::as_u64)
        .expect("run_seconds");
    assert!((1..=60).contains(&seconds));
    let command: Vec<&str> = doc
        .get("command")
        .expect("command")
        .items()
        .iter()
        .filter_map(Json::as_str)
        .collect();
    assert!(command.contains(&"benchmark/Cargo.toml"));
    assert!(command
        .iter()
        .all(|arg| !arg.starts_with('/') && !arg.contains("..")));
}
