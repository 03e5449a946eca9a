//! `compare`: one row per workload × end-to-end metric, judged against
//! the bounds `BENCHMARK.json` fixes.
//!
//! Those bounds have to hold across seeds. `compare` only accepts sides
//! that ran the same seeds at the same size, and there the three count
//! metrics support tighter rules: on the engine path they are a function
//! of the seed alone, so any difference is a change in behaviour.

use crate::json::Json;
use crate::result::EndToEnd;
use crate::stats::{median, quartiles, sorted};
use std::fmt::Write as _;

/// Set-up differences below this many seconds are noise whatever their
/// share: a 4 ms mount that takes 5 ms is not a regression.
pub const SETUP_FLOOR_S: f64 = 0.02;

/// A larger failed share than the base's by more than this fails the
/// comparison outright.
pub const FAILED_SHARE_SLACK: f64 = 0.01;

/// The metrics that count what the protocol did, not how long the box took.
pub const COUNT_METRICS: [&str; 3] = [
    "rounds_per_update",
    "msgs_per_update_per_replica",
    "bytes_per_msg",
];

/// Same-seed bound on a count metric of the live cluster, where worker
/// interleaving decides cross-shard delivery order.
pub const INTERLEAVED_COUNT_BOUND: f64 = 0.03;

/// One end-to-end metric's regression rule.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    /// Metric name.
    pub name: String,
    /// Unit, for the table.
    pub unit: String,
    /// `true` when a larger value is better.
    pub higher_is_better: bool,
    /// Share of the base median the metric may worsen by.
    pub bound: f64,
}

/// Reads the `end_to_end` rules out of `BENCHMARK.json`.
///
/// # Errors
///
/// Returns a message when an entry lacks a field.
pub fn bounds(benchmark_json: &Json) -> Result<Vec<Bound>, String> {
    let entries = benchmark_json
        .get("end_to_end")
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    entries
        .items()
        .iter()
        .map(|e| {
            let text = |key: &str| {
                e.get(key)
                    .and_then(Json::as_str)
                    .ok_or(format!("end_to_end entry without {key}"))
            };
            Ok(Bound {
                name: text("name")?.to_owned(),
                unit: text("unit")?.to_owned(),
                higher_is_better: text("better")? == "higher",
                bound: e
                    .get("bound")
                    .and_then(Json::as_f64)
                    .ok_or("end_to_end entry without bound")?,
            })
        })
        .collect()
}

/// How the new side reads against the base.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Improved by more than the bound.
    Better,
    /// Within the bound either way.
    Same,
    /// Worsened by more than the bound.
    Worse,
    /// The runs of one side spread wider than the bound and the sides
    /// overlap, so the bound cannot be checked.
    Unresolved,
}

impl Verdict {
    /// The label printed in the table.
    pub fn label(self) -> &'static str {
        match self {
            Self::Better => "better",
            Self::Same => "same",
            Self::Worse => "worse",
            Self::Unresolved => "unresolved",
        }
    }
}

/// Median and quartiles of one side.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Runs on this side.
    pub runs: usize,
    /// Median.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Summary {
    fn of(values: &[f64]) -> Self {
        let (q1, q3) = quartiles(values);
        Self {
            runs: values.len(),
            median: median(values),
            q1,
            q3,
        }
    }
}

/// One row of the comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// The metric and its rule.
    pub bound: Bound,
    /// The base side.
    pub base: Summary,
    /// The new side.
    pub new: Summary,
    /// The judgement.
    pub verdict: Verdict,
}

/// Judges `new` against `base`. `floor` is an absolute difference below
/// which the metric counts as unchanged.
pub fn judge(base: &[f64], new: &[f64], rule: &Bound, floor: f64) -> Verdict {
    let (b, n) = (Summary::of(base), Summary::of(new));
    // Positive = the new side is better, as a share of the base median.
    let gain = if b.median == 0.0 {
        0.0
    } else {
        let change = (n.median - b.median) / b.median.abs();
        if rule.higher_is_better {
            change
        } else {
            -change
        }
    };
    if (n.median - b.median).abs() < floor {
        return Verdict::Same;
    }
    let spread = |s: &Summary| (s.q3 - s.q1) / b.median.abs().max(f64::MIN_POSITIVE);
    if spread(&b).max(spread(&n)) > rule.bound {
        // Too noisy to hold against the bound — unless the sides do not
        // even overlap.
        let (base, new) = (sorted(base), sorted(new));
        let (base_lo, base_hi) = (base[0], base[base.len() - 1]);
        let (new_lo, new_hi) = (new[0], new[new.len() - 1]);
        let new_above = new_lo > base_hi;
        let new_below = new_hi < base_lo;
        return match (new_above, new_below, rule.higher_is_better) {
            (true, _, true) | (_, true, false) => Verdict::Better,
            (true, _, false) | (_, true, true) => Verdict::Worse,
            _ => Verdict::Unresolved,
        };
    }
    if gain < -rule.bound {
        Verdict::Worse
    } else if gain > rule.bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// Judges a count metric that is a function of the seed alone: `base` and
/// `new` hold one value per seed, in the same seed order. Any difference
/// is a verdict, by the direction of the summed change.
pub fn judge_exact(base: &[f64], new: &[f64], rule: &Bound) -> Verdict {
    if base == new {
        return Verdict::Same;
    }
    let change: f64 = new.iter().zip(base).map(|(n, b)| n - b).sum();
    match (change > 0.0, change < 0.0, rule.higher_is_better) {
        (true, _, true) | (_, true, false) => Verdict::Better,
        (true, _, false) | (_, true, true) => Verdict::Worse,
        _ => Verdict::Unresolved,
    }
}

/// The whole comparison: rows, plus the workloads whose failed share grew.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    /// One row per workload × metric present on both sides.
    pub rows: Vec<Row>,
    /// `workload: base → new` for each failed share that grew past the slack.
    pub more_failures: Vec<String>,
}

impl Comparison {
    /// `true` when nothing got worse.
    pub fn passed(&self) -> bool {
        self.more_failures.is_empty() && self.rows.iter().all(|r| r.verdict != Verdict::Worse)
    }

    /// The table, one row per line.
    pub fn render(&self) -> String {
        let mut out = format!(
            "{:<22} {:<28} {:>6} {:>12} {:>12} {:>12} {:>12} {:>12} {:>12} {:>7}  verdict\n",
            "workload",
            "metric",
            "unit",
            "base_q1",
            "base_med",
            "base_q3",
            "new_q1",
            "new_med",
            "new_q3",
            "bound"
        );
        for r in &self.rows {
            writeln!(
                out,
                "{:<22} {:<28} {:>6} {:>12.4} {:>12.4} {:>12.4} {:>12.4} {:>12.4} {:>12.4} {:>6.1}%  {}",
                r.workload,
                r.bound.name,
                r.bound.unit,
                r.base.q1,
                r.base.median,
                r.base.q3,
                r.new.q1,
                r.new.median,
                r.new.q3,
                r.bound.bound * 100.0,
                r.verdict.label()
            )
            .expect("write to string");
        }
        for line in &self.more_failures {
            writeln!(out, "failed_share grew: {line}").expect("write to string");
        }
        out
    }
}

/// The runs of one workload on one side.
struct Runs<'a>(Vec<&'a EndToEnd>);

impl<'a> Runs<'a> {
    fn of(side: &'a [EndToEnd], workload: &str) -> Self {
        Self(side.iter().filter(|p| p.workload == workload).collect())
    }

    /// What must agree between the sides for a row to mean anything: the
    /// seeds run (sorted, once each) and the (population, timed updates)
    /// pairs. Per-update cost, message size and the counts depend on them.
    fn work(&self) -> (Vec<u64>, Vec<(u64, u64)>) {
        let mut seeds: Vec<u64> = self.0.iter().map(|p| p.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        let mut sizes: Vec<(u64, u64)> = self.0.iter().map(|p| (p.population, p.updates)).collect();
        sizes.sort_unstable();
        sizes.dedup();
        (seeds, sizes)
    }

    fn values(&self, metric: &str) -> Vec<f64> {
        self.0.iter().filter_map(|p| p.metric(metric)).collect()
    }

    /// One value per seed, in `seeds` order: the median of the seed's
    /// runs, which all agree when the counts are exact.
    fn per_seed(&self, seeds: &[u64], metric: &str) -> Vec<f64> {
        seeds
            .iter()
            .map(|&seed| {
                let runs = self.0.iter().filter(|p| p.seed == seed);
                median(&runs.filter_map(|p| p.metric(metric)).collect::<Vec<_>>())
            })
            .collect()
    }

    fn failed_share(&self) -> f64 {
        median(&self.0.iter().map(|p| p.failed_share).collect::<Vec<_>>())
    }
}

/// Compares the runs of two sides; each side is every untraced pass of
/// one or more result files.
///
/// # Errors
///
/// Refuses sides that did not run a workload on the same seeds with the
/// same population and number of timed updates.
pub fn compare(base: &[EndToEnd], new: &[EndToEnd], rules: &[Bound]) -> Result<Comparison, String> {
    let mut workloads: Vec<&str> = Vec::new();
    for pass in base {
        if !workloads.contains(&pass.workload.as_str()) {
            workloads.push(&pass.workload);
        }
    }
    let mut rows = Vec::new();
    let mut more_failures = Vec::new();
    for workload in workloads {
        let (b, n) = (Runs::of(base, workload), Runs::of(new, workload));
        if n.0.is_empty() {
            continue;
        }
        let (seeds, sizes) = b.work();
        if (seeds.clone(), sizes.clone()) != n.work() || sizes.len() != 1 {
            return Err(format!(
                "{workload}: the sides did not run the same work (seeds, [(population, \
                 updates)]): base {:?}, new {:?}",
                (&seeds, &sizes),
                n.work()
            ));
        }
        let exact = b.0.iter().chain(&n.0).all(|p| p.exact_counts);
        for rule in rules {
            let (base_values, new_values) = (b.values(&rule.name), n.values(&rule.name));
            if base_values.is_empty() || new_values.is_empty() {
                continue;
            }
            let counted = COUNT_METRICS.contains(&rule.name.as_str());
            let mut rule = rule.clone();
            let verdict = if counted && exact {
                rule.bound = 0.0;
                judge_exact(
                    &b.per_seed(&seeds, &rule.name),
                    &n.per_seed(&seeds, &rule.name),
                    &rule,
                )
            } else {
                if counted {
                    rule.bound = rule.bound.min(INTERLEAVED_COUNT_BOUND);
                }
                let floor = if rule.name == "setup_s" {
                    SETUP_FLOOR_S
                } else {
                    0.0
                };
                judge(&base_values, &new_values, &rule, floor)
            };
            rows.push(Row {
                workload: workload.to_owned(),
                bound: rule,
                base: Summary::of(&base_values),
                new: Summary::of(&new_values),
                verdict,
            });
        }
        if n.failed_share() > b.failed_share() + FAILED_SHARE_SLACK {
            more_failures.push(format!(
                "{workload}: {:.4} -> {:.4}",
                b.failed_share(),
                n.failed_share()
            ));
        }
    }
    Ok(Comparison {
        rows,
        more_failures,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rule(higher: bool, bound: f64) -> Bound {
        Bound {
            name: "m".to_owned(),
            unit: "u".to_owned(),
            higher_is_better: higher,
            bound,
        }
    }

    #[test]
    fn verdicts_follow_the_direction_and_the_bound() {
        let throughput = rule(true, 0.10);
        assert_eq!(judge(&[100.0], &[105.0], &throughput, 0.0), Verdict::Same);
        assert_eq!(judge(&[100.0], &[115.0], &throughput, 0.0), Verdict::Better);
        assert_eq!(judge(&[100.0], &[85.0], &throughput, 0.0), Verdict::Worse);
        let latency = rule(false, 0.10);
        assert_eq!(judge(&[100.0], &[115.0], &latency, 0.0), Verdict::Worse);
        assert_eq!(judge(&[100.0], &[85.0], &latency, 0.0), Verdict::Better);
        // An exactly repeating count is the same at any bound.
        assert_eq!(
            judge(&[24.5, 24.5], &[24.5, 24.5], &rule(false, 0.01), 0.0),
            Verdict::Same
        );
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_unless_the_sides_are_disjoint() {
        let latency = rule(false, 0.05);
        let noisy = [80.0, 100.0, 120.0];
        assert_eq!(
            judge(&noisy, &[90.0, 100.0, 125.0], &latency, 0.0),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(&noisy, &[40.0, 50.0, 60.0], &latency, 0.0),
            Verdict::Better
        );
        assert_eq!(
            judge(&noisy, &[140.0, 150.0, 160.0], &latency, 0.0),
            Verdict::Worse
        );
    }

    #[test]
    fn small_absolute_setup_differences_are_the_same() {
        let setup = rule(false, 0.25);
        assert_eq!(
            judge(&[0.004], &[0.008], &setup, SETUP_FLOOR_S),
            Verdict::Same
        );
        assert_eq!(judge(&[0.4], &[0.8], &setup, SETUP_FLOOR_S), Verdict::Worse);
    }

    fn pass(value: f64, failed_share: f64) -> EndToEnd {
        EndToEnd {
            workload: "w".to_owned(),
            seed: 11,
            population: 640,
            updates: 100,
            exact_counts: false,
            failed_share,
            metrics: vec![("m".to_owned(), value)],
        }
    }

    #[test]
    fn comparison_fails_on_worse_rows_and_on_more_failures() {
        let rules = [rule(true, 0.10)];
        let same = compare(&[pass(100.0, 0.0)], &[pass(101.0, 0.0)], &rules).unwrap();
        assert!(same.passed());
        assert_eq!(same.rows.len(), 1);
        assert!(same.render().contains("same"));
        assert!(!compare(&[pass(100.0, 0.0)], &[pass(80.0, 0.0)], &rules)
            .unwrap()
            .passed());
        let failing = compare(&[pass(100.0, 0.0)], &[pass(100.0, 0.05)], &rules).unwrap();
        assert!(!failing.passed());
        assert!(failing.render().contains("failed_share grew: w"));
    }

    #[test]
    fn sides_that_ran_different_work_are_refused() {
        let rules = [rule(true, 0.10)];
        let base = [pass(100.0, 0.0)];
        for other in [
            EndToEnd {
                seed: 12,
                ..pass(100.0, 0.0)
            },
            EndToEnd {
                population: 96,
                ..pass(100.0, 0.0)
            },
            EndToEnd {
                updates: 80,
                ..pass(100.0, 0.0)
            },
        ] {
            assert!(compare(&base, &[other], &rules).is_err());
        }
        // One side may repeat a seed more often than the other.
        assert!(compare(&base, &[pass(100.0, 0.0), pass(101.0, 0.0)], &rules).is_ok());
    }

    #[test]
    fn count_metrics_are_exact_on_the_engine_and_tight_on_the_cluster() {
        let counted = |value: f64, seed: u64, exact_counts: bool| EndToEnd {
            seed,
            exact_counts,
            metrics: vec![("rounds_per_update".to_owned(), value)],
            ..pass(0.0, 0.0)
        };
        let rules = [Bound {
            name: "rounds_per_update".to_owned(),
            ..rule(false, 0.10)
        }];
        let verdict = |base: &[EndToEnd], new: &[EndToEnd]| {
            compare(base, new, &rules).unwrap().rows[0].verdict
        };
        let base = [counted(22.0, 11, true), counted(24.0, 12, true)];
        assert_eq!(verdict(&base, &base), Verdict::Same);
        // 0.2 % more rounds on one seed: far inside 10 %, but not the same run.
        let slower = [counted(22.05, 11, true), counted(24.0, 12, true)];
        assert_eq!(verdict(&base, &slower), Verdict::Worse);
        assert_eq!(verdict(&slower, &base), Verdict::Better);
        let mixed = [counted(21.0, 11, true), counted(25.0, 12, true)];
        assert_eq!(verdict(&base, &mixed), Verdict::Unresolved);
        // The live cluster's counts move with worker interleaving.
        let live = |value: f64| [counted(value, 11, false)];
        assert_eq!(verdict(&live(22.0), &live(22.4)), Verdict::Same);
        assert_eq!(verdict(&live(22.0), &live(23.0)), Verdict::Worse);
    }

    #[test]
    fn bounds_are_read_from_the_benchmark_contract() {
        let json = Json::parse(
            r#"{"end_to_end": [{"name": "rounds_per_s", "unit": "1/s", "better": "higher", "bound": 0.1}]}"#,
        )
        .unwrap();
        let rules = bounds(&json).unwrap();
        assert_eq!(rules.len(), 1);
        assert!(rules[0].higher_is_better);
        assert_eq!(rules[0].bound, 0.1);
        assert!(bounds(&Json::parse("{}").unwrap()).is_err());
    }
}
