//! Every workload, at toy size, runs both passes to completion and emits
//! every metric of the catalogue.

use rumor_benchmark::json::Json;
use rumor_benchmark::metrics::{end_to_end, per_layer};
use rumor_benchmark::pass::{self, Options};
use rumor_benchmark::workload;
use rumor_benchmark::{compare, result, stats};

const TOY_POPULATION: usize = 96;
const TOY_UPDATES: u32 = 6;

fn options(name: &str) -> Options {
    Options {
        seed: 11,
        updates: TOY_UPDATES,
        spans_dir: Some(std::env::temp_dir().join(format!(
            "rumor-benchmark-test-{}-{name}",
            std::process::id()
        ))),
    }
}

#[test]
fn every_workload_emits_every_end_to_end_metric() {
    let mut records = Vec::new();
    for spec in workload::all() {
        let toy = spec.with_population(TOY_POPULATION);
        let report = pass::run(&toy, &options(toy.name), false);
        records.push(result::record(&report));
        assert_eq!(report.attempted, u64::from(TOY_UPDATES), "{}", toy.name);
        assert!(
            !report.problems.iter().any(|p| p.contains("replay")),
            "{}: {:?}",
            toy.name,
            report.problems
        );
        for metric in end_to_end() {
            let value = report.metrics.get(&metric.name);
            assert!(
                value.is_some_and(|v| v.is_finite() && v > 0.0),
                "{}: {} = {value:?}",
                toy.name,
                metric.name
            );
        }
        // The last line of a pass is exactly the four contract keys.
        let line = Json::parse(&result::contract_line(&report)).expect("contract line parses");
        let keys: Vec<&str> = line.members().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(
            line.get("metrics").map(|m| m.members().len()),
            Some(end_to_end().len())
        );
    }

    // The records make a result file `compare` reads back: same seed and
    // size on both sides, so a file compared with itself is all `same`.
    let header = result::provenance(11, 16.0, workload::CLUSTER_WORKERS, 0.0);
    let file = result::file(header, records).pretty();
    let passes = result::read_end_to_end(&file).expect("result file reads back");
    assert_eq!(passes.len(), workload::all().len());
    for (pass, spec) in passes.iter().zip(workload::all()) {
        assert_eq!(pass.seed, 11);
        assert_eq!(pass.population, TOY_POPULATION as u64);
        assert_eq!(pass.updates, u64::from(TOY_UPDATES));
        assert_eq!(pass.exact_counts, !spec.on_cluster(), "{}", spec.name);
    }
    let rules: Vec<compare::Bound> = end_to_end()
        .iter()
        .map(|m| compare::Bound {
            name: m.name.clone(),
            unit: m.unit.to_owned(),
            higher_is_better: m.higher_is_better,
            bound: 0.1,
        })
        .collect();
    let comparison = compare::compare(&passes, &passes, &rules).expect("same work");
    assert_eq!(comparison.rows.len(), passes.len() * rules.len());
    assert!(comparison
        .rows
        .iter()
        .all(|r| r.verdict == compare::Verdict::Same));
}

#[test]
fn engine_counts_repeat_exactly_for_a_seed() {
    for spec in workload::all() {
        if spec.on_cluster() {
            continue;
        }
        let toy = spec.with_population(TOY_POPULATION);
        let first = pass::run(&toy, &options(toy.name), false);
        let second = pass::run(&toy, &options(toy.name), false);
        for name in [
            "rounds_per_update",
            "msgs_per_update_per_replica",
            "bytes_per_msg",
        ] {
            assert_eq!(
                first.metrics.get(name),
                second.metrics.get(name),
                "{}: {name}",
                toy.name
            );
        }
        assert_eq!(first.failed, second.failed, "{}", toy.name);
    }
}

#[test]
fn traced_pass_emits_every_per_layer_metric_and_writes_the_spans() {
    for spec in workload::all() {
        let toy = spec.with_population(TOY_POPULATION);
        let options = options(&format!("traced-{}", toy.name));
        let report = pass::run(&toy, &options, true);
        assert!(report.traced);
        for metric in per_layer() {
            let value = report.metrics.get(&metric.name);
            // A metric of another path or protocol may be absent (it
            // prints as 0); one that is present must be a number.
            assert!(
                value.is_none_or(f64::is_finite),
                "{}: {} = {value:?}",
                toy.name,
                metric.name
            );
        }
        let layer = match toy.contender() {
            workload::Contender::Paper => "core",
            workload::Contender::AntiEntropy => "baselines",
        };
        for name in [
            format!("{layer}.busy_s"),
            format!("{layer}.on_message_n"),
            "sim.probe_n".to_owned(),
            "wire.frame_len_ns_per_msg".to_owned(),
            "churn.step_ns_per_round".to_owned(),
            "alloc.per_round".to_owned(),
            "obs.events_n".to_owned(),
            "trace.overhead_ratio".to_owned(),
        ] {
            assert!(
                report.metrics.get(&name).is_some_and(|v| v > 0.0),
                "{}: {name} = {:?}",
                toy.name,
                report.metrics.get(&name)
            );
        }
        let on_cluster = toy.on_cluster();
        assert_eq!(report.metrics.get("cluster.cpu_s").is_some(), on_cluster);
        assert_eq!(report.metrics.get("net.self_s").is_some(), !on_cluster);

        let dir = options.spans_dir.expect("spans dir set");
        let text = std::fs::read_to_string(dir.join(format!("{}.spans.json", toy.name)))
            .expect("span file written");
        let doc = Json::parse(&text).expect("span file parses");
        let spans = doc.get("spans").expect("spans").items();
        let updates = spans
            .iter()
            .filter(|s| {
                s.get("name")
                    .and_then(Json::as_str)
                    .is_some_and(|n| n.starts_with("update["))
            })
            .count();
        assert_eq!(updates as u32, TOY_UPDATES);
        // The root's self time is what no child covers.
        let root = &spans[0];
        let children: Vec<(u64, u64)> = spans
            .iter()
            .filter(|s| s.get("parent").and_then(Json::as_u64) == Some(0))
            .map(|s| {
                (
                    s.get("start_ns").and_then(Json::as_u64).expect("start"),
                    s.get("end_ns").and_then(Json::as_u64).expect("end"),
                )
            })
            .collect();
        let end = root.get("end_ns").and_then(Json::as_u64).expect("root end");
        assert_eq!(
            root.get("self_ns").and_then(Json::as_u64),
            Some(stats::self_ns(0, end, &children))
        );
        std::fs::remove_dir_all(dir).expect("clean the test's span directory");
    }
}
