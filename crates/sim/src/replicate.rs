//! The deterministic parallel replication harness.
//!
//! The paper's figures are Monte Carlo estimates — success probability,
//! rounds to convergence, message cost under churn — so every published
//! number needs replication statistics behind it. [`Experiment`] is the
//! one way the workspace runs repeated trials: it derives an independent
//! ChaCha8 substream per replication from a master seed (through
//! [`rumor_types::SeedSequence`], namespace `"replication"`), fans the
//! replications out across a std-thread worker pool, and collects results
//! **by replication index, never by completion order** — so the output is
//! bit-identical for any worker count, preserving the repo's determinism
//! invariant while the wall clock scales with cores.
//!
//! Per-replication reports fold into a [`ReplicatedReport`] whose axes
//! are [`SampleStats`] (mean, variance, Student-t 95% CI, percentiles)
//! from `rumor-metrics` — the numbers the figure artefacts publish as
//! `mean/ci95/stddev/n` and `render` draws as error bars.
//!
//! One harness, many replications: no other crate may grow a
//! `for trial in 0..` loop of its own, mirroring the "one driver, many
//! protocols" invariant of [`Driver`](crate::Driver).
//!
//! # Examples
//!
//! ```
//! use rumor_core::ProtocolConfig;
//! use rumor_sim::{Experiment, PaperProtocol, ReplicatedReport, Scenario, UpdateEvent};
//! use rumor_types::DataKey;
//!
//! let experiment = Experiment::new(42, 8);
//! let event = UpdateEvent { round: 0, key: DataKey::from_name("motd"), delete: false, sequence: 0 };
//! let reports = experiment.run(|rep| {
//!     let scenario = Scenario::builder(100, rep.seed)
//!         .online_fraction(0.5)
//!         .build()
//!         .expect("valid scenario");
//!     let config = ProtocolConfig::builder(100)
//!         .fanout_absolute(4)
//!         .build()
//!         .expect("valid config");
//!     let protocol = PaperProtocol::new(config);
//!     let mut driver = scenario.drive(&protocol);
//!     let update = driver.initiate(&protocol, None, &event).expect("someone is online");
//!     driver.track_update(&protocol, update, 40)
//! });
//! let agg = ReplicatedReport::from_push(&reports);
//! assert_eq!(agg.n, 8);
//! assert!(agg.aware_online_fraction.mean() > 0.5);
//! ```

use crate::report::{RunReport, WorkloadReport};
use rumor_metrics::SampleStats;
use rumor_types::SeedSequence;
use serde::{Deserialize, Serialize};

/// The seed-stream namespace replication substreams derive under. Pinned
/// by a golden-value test: changing it (or [`SeedSequence`]'s derivation)
/// silently shifts every replicated figure, so it must never drift.
const REPLICATION_NAMESPACE: &str = "replication";

/// One replication's identity: its index in `0..replications` and the
/// independent substream seed derived for it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Replication {
    /// Replication index (also the collection slot — output order).
    pub index: u32,
    /// Independent ChaCha8 substream seed for this replication; feed it
    /// to [`Scenario::builder`](crate::Scenario::builder) as the
    /// scenario seed.
    pub seed: u64,
}

/// A deterministic parallel Monte Carlo experiment: a replication count,
/// a master seed, and a worker pool.
///
/// The replication body is any `Fn(Replication) -> T` — typically "build
/// the `Scenario` from `rep.seed`, mount a protocol, run, return the
/// report". The harness guarantees the returned `Vec<T>` is in
/// replication-index order regardless of scheduling, so aggregate
/// results are bit-identical for any thread count.
#[derive(Debug, Clone)]
pub struct Experiment {
    master_seed: u64,
    replications: u32,
    threads: Option<usize>,
}

impl Experiment {
    /// Creates an experiment of `replications` trials rooted at
    /// `master_seed`, with the worker count defaulting to the machine's
    /// available parallelism.
    pub fn new(master_seed: u64, replications: u32) -> Self {
        Self {
            master_seed,
            replications,
            threads: None,
        }
    }

    /// Pins the worker-thread count (tests use 1/2/8 to prove
    /// thread-count invariance). `0` restores the default.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = (threads > 0).then_some(threads);
        self
    }

    /// The master seed all replication substreams derive from.
    pub fn master_seed(&self) -> u64 {
        self.master_seed
    }

    /// Number of replications.
    pub fn replications(&self) -> u32 {
        self.replications
    }

    /// The independent substream seed for replication `index` — the one
    /// canonical derivation (master seed → `"replication"` namespace →
    /// indexed [`SeedSequence`]).
    pub fn replication_seed(master_seed: u64, index: u32) -> u64 {
        SeedSequence::new(master_seed, REPLICATION_NAMESPACE).seed_at(u64::from(index))
    }

    /// The replication identities this experiment will run, in order.
    /// The seed sequence is derived once and indexed per replication, so
    /// iteration does not re-hash the master seed per item.
    pub fn replications_iter(&self) -> impl Iterator<Item = Replication> + '_ {
        let seq = SeedSequence::new(self.master_seed, REPLICATION_NAMESPACE);
        (0..self.replications).map(move |index| Replication {
            index,
            seed: seq.seed_at(u64::from(index)),
        })
    }

    fn effective_threads(&self) -> usize {
        let hw = || {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        };
        self.threads
            .unwrap_or_else(hw)
            .min(self.replications.max(1) as usize)
            .max(1)
    }

    /// Runs every replication through `body`, fanning out across the
    /// worker pool, and returns the outputs **in replication-index
    /// order** — identical for any thread count.
    ///
    /// Workers claim replication indices from a shared atomic counter
    /// (natural load balancing for uneven trial durations) and tag each
    /// output with its index; the harness then places outputs by tag, so
    /// completion order never leaks into the result.
    pub fn run<T, F>(&self, body: F) -> Vec<T>
    where
        T: Send,
        F: Fn(Replication) -> T + Sync,
    {
        let n = self.replications as usize;
        let threads = self.effective_threads();
        if threads <= 1 {
            return self.replications_iter().map(body).collect();
        }
        let next = std::sync::atomic::AtomicUsize::new(0);
        // Derive the substream root once, outside the claim loop: workers
        // index into it instead of re-hashing the master seed per claim.
        let seq = SeedSequence::new(self.master_seed, REPLICATION_NAMESPACE);
        let mut tagged: Vec<(usize, T)> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..threads)
                .map(|_| {
                    scope.spawn(|| {
                        let mut produced = Vec::new();
                        loop {
                            let index = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                            if index >= n {
                                break;
                            }
                            let rep = Replication {
                                index: index as u32,
                                seed: seq.seed_at(index as u64),
                            };
                            produced.push((index, body(rep)));
                        }
                        produced
                    })
                })
                .collect();
            workers
                .into_iter()
                .flat_map(|w| w.join().expect("replication worker must not panic"))
                .collect()
        });
        tagged.sort_by_key(|(index, _)| *index);
        debug_assert!(tagged.iter().enumerate().all(|(i, (idx, _))| i == *idx));
        tagged.into_iter().map(|(_, out)| out).collect()
    }

    /// Convenience: run replications producing [`RunReport`]s and fold
    /// them into a [`ReplicatedReport`].
    pub fn run_replicated<F>(&self, body: F) -> ReplicatedReport
    where
        F: Fn(Replication) -> RunReport + Sync,
    {
        ReplicatedReport::from_runs(&self.run(body))
    }
}

/// Replication statistics over the driver's per-run metrics: each axis is
/// a [`SampleStats`] (mean, variance, Student-t 95% CI, percentiles) over
/// the per-replication values, in replication-index order.
///
/// Fold [`RunReport`]s or [`WorkloadReport`]s into it with the matching
/// constructor; the axes keep the same meaning across sources (for
/// workloads, awareness axes average the per-update finals and
/// `protocol_messages` is unused / all-zero), except the per-peer axis,
/// whose numerator each constructor names.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReplicatedReport {
    /// Number of replications aggregated.
    pub n: u32,
    /// Rounds executed per replication.
    pub rounds: SampleStats,
    /// Final aware fraction of the online population.
    pub aware_online_fraction: SampleStats,
    /// Final aware fraction of the entire population.
    pub aware_total_fraction: SampleStats,
    /// Protocol-counted overhead messages (pushes for the paper peer).
    pub protocol_messages: SampleStats,
    /// All messages sent.
    pub total_messages: SampleStats,
    /// Messages per initially-online peer: protocol messages (pushes for
    /// the paper peer) under [`ReplicatedReport::from_push`], all messages
    /// under [`ReplicatedReport::from_runs`], the workload's messages
    /// under [`ReplicatedReport::from_workloads`].
    pub messages_per_initial_online: SampleStats,
}

impl ReplicatedReport {
    fn from_axes(axes: [Vec<f64>; 6]) -> Self {
        let [rounds, aware_online, aware_total, proto, total, per_peer] = axes;
        Self {
            n: rounds.len() as u32,
            rounds: SampleStats::of(&rounds),
            aware_online_fraction: SampleStats::of(&aware_online),
            aware_total_fraction: SampleStats::of(&aware_total),
            protocol_messages: SampleStats::of(&proto),
            total_messages: SampleStats::of(&total),
            messages_per_initial_online: SampleStats::of(&per_peer),
        }
    }

    fn from_run_axes(reports: &[RunReport], per_peer: impl Fn(&RunReport) -> f64) -> Self {
        Self::from_axes([
            reports.iter().map(|r| f64::from(r.rounds)).collect(),
            reports.iter().map(|r| r.aware_online_fraction).collect(),
            reports.iter().map(|r| r.aware_total_fraction).collect(),
            reports.iter().map(|r| r.protocol_messages as f64).collect(),
            reports.iter().map(|r| r.total_messages as f64).collect(),
            reports.iter().map(per_peer).collect(),
        ])
    }

    /// Folds per-replication [`RunReport`]s (order = replication index);
    /// the per-peer axis counts every message sent.
    pub fn from_runs(reports: &[RunReport]) -> Self {
        Self::from_run_axes(reports, RunReport::messages_per_initial_online)
    }

    /// Folds per-replication [`RunReport`]s of the paper's push phase:
    /// like [`ReplicatedReport::from_runs`], except that the per-peer axis
    /// counts `protocol_messages` (the pushes the paper's figures plot),
    /// not every message.
    pub fn from_push(reports: &[RunReport]) -> Self {
        Self::from_run_axes(reports, |r| {
            if r.initial_online == 0 {
                0.0
            } else {
                r.protocol_messages as f64 / r.initial_online as f64
            }
        })
    }

    /// Folds per-replication [`WorkloadReport`]s: the awareness axes
    /// carry each replication's mean final awareness over its updates,
    /// `total_messages` the workload message delta, and
    /// `protocol_messages` is zero (workloads report engine totals).
    pub fn from_workloads(reports: &[WorkloadReport]) -> Self {
        let mean_total = |r: &WorkloadReport| {
            if r.updates.is_empty() {
                0.0
            } else {
                r.updates.iter().map(|u| u.final_aware_total).sum::<f64>() / r.updates.len() as f64
            }
        };
        Self::from_axes([
            reports.iter().map(|r| f64::from(r.rounds)).collect(),
            reports
                .iter()
                .map(WorkloadReport::mean_final_awareness)
                .collect(),
            reports.iter().map(mean_total).collect(),
            vec![0.0; reports.len()],
            reports.iter().map(|r| r.messages as f64).collect(),
            reports
                .iter()
                .map(WorkloadReport::messages_per_initial_online)
                .collect(),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::tests::{mount, propagate};
    use crate::scenario::Scenario;
    use rumor_core::ProtocolConfig;
    use rumor_metrics::RoundSeries;
    use rumor_types::DataKey;

    fn replicate(threads: usize, master_seed: u64, reps: u32) -> ReplicatedReport {
        let experiment = Experiment::new(master_seed, reps).threads(threads);
        let reports = experiment.run(|rep| {
            let scenario = Scenario::builder(80, rep.seed)
                .online_fraction(0.5)
                .build()
                .expect("valid scenario");
            let config = ProtocolConfig::builder(80)
                .fanout_absolute(4)
                .build()
                .expect("valid config");
            let (protocol, mut driver) = mount(&scenario, config);
            propagate(&mut driver, &protocol, DataKey::from_name("det"), 40)
        });
        ReplicatedReport::from_push(&reports)
    }

    #[test]
    fn report_is_identical_across_thread_counts() {
        let one = replicate(1, 7, 12);
        let two = replicate(2, 7, 12);
        let eight = replicate(8, 7, 12);
        assert_eq!(one, two, "1 vs 2 worker threads");
        assert_eq!(one, eight, "1 vs 8 worker threads");
        // Byte-identical, not merely approximately equal.
        assert_eq!(format!("{one:?}"), format!("{eight:?}"));
        assert_eq!(one.n, 12);
    }

    #[test]
    fn golden_replication_seeds() {
        // Pins the seed-stream derivation (master seed → "replication"
        // namespace → indexed SeedSequence). If this test fails, the
        // substream derivation changed and every replicated figure in
        // the repo silently shifted — do not update the constants
        // without bumping the experiment artefact versioning.
        let golden: [(u32, u64); 4] = [
            (0, 7_737_892_771_924_103_251),
            (1, 2_683_890_993_354_154_129),
            (2, 5_578_015_881_185_249_317),
            (3, 15_672_543_879_560_378_132),
        ];
        for (index, expected) in golden {
            assert_eq!(
                Experiment::replication_seed(42, index),
                expected,
                "substream {index} of master seed 42 drifted"
            );
        }
    }

    #[test]
    fn substreams_are_independent_and_stable() {
        // Distinct substreams of one master seed must differ…
        let seeds: Vec<u64> = (0..64)
            .map(|i| Experiment::replication_seed(9, i))
            .collect();
        let distinct: std::collections::HashSet<u64> = seeds.iter().copied().collect();
        assert_eq!(distinct.len(), seeds.len(), "substream collision");
        // …and substream i must be stable across runs (no accidental
        // stream reuse / stateful derivation).
        for (i, &s) in seeds.iter().enumerate() {
            assert_eq!(Experiment::replication_seed(9, i as u32), s);
        }
    }

    #[test]
    fn substreams_diverge_in_trajectory_not_just_seed() {
        // Replications i and j (i ≠ j) of the same master seed must
        // produce different trajectories.
        let experiment = Experiment::new(3, 6).threads(1);
        let reports = experiment.run(|rep| {
            let scenario = Scenario::builder(60, rep.seed)
                .online_fraction(0.4)
                .build()
                .expect("valid scenario");
            let config = ProtocolConfig::builder(60)
                .fanout_absolute(3)
                .build()
                .expect("valid config");
            let (protocol, mut driver) = mount(&scenario, config);
            propagate(&mut driver, &protocol, DataKey::from_name("div"), 40)
        });
        let signatures: Vec<(u64, u32)> = reports
            .iter()
            .map(|r| (r.total_messages, r.rounds))
            .collect();
        let distinct: std::collections::HashSet<&(u64, u32)> = signatures.iter().collect();
        assert!(
            distinct.len() > 1,
            "all replications produced one trajectory: {signatures:?}"
        );
    }

    #[test]
    fn outputs_are_in_replication_index_order() {
        let experiment = Experiment::new(1, 64).threads(8);
        let indices = experiment.run(|rep| rep.index);
        assert_eq!(indices, (0..64).collect::<Vec<u32>>());
        let seeds = experiment.run(|rep| rep.seed);
        let expected: Vec<u64> = (0..64)
            .map(|i| Experiment::replication_seed(1, i))
            .collect();
        assert_eq!(seeds, expected);
    }

    #[test]
    fn hoisted_seed_derivation_matches_per_index_derivation() {
        // The worker pool indexes one pre-derived SeedSequence instead of
        // re-hashing the master seed per claim; both paths must agree.
        let experiment = Experiment::new(42, 8);
        for rep in experiment.replications_iter() {
            assert_eq!(rep.seed, Experiment::replication_seed(42, rep.index));
        }
    }

    #[test]
    fn zero_replications_yield_empty_report() {
        let experiment = Experiment::new(5, 0);
        let outputs: Vec<u32> = experiment.run(|rep| rep.index);
        assert!(outputs.is_empty());
        let agg = ReplicatedReport::from_runs(&[]);
        assert_eq!(agg.n, 0);
        assert_eq!(agg.rounds.n(), 0);
    }

    #[test]
    fn push_fold_counts_protocol_messages_per_peer_and_run_fold_counts_all() {
        let run = RunReport {
            rounds: 4,
            aware_online_fraction: 1.0,
            aware_total_fraction: 0.5,
            protocol_messages: 30,
            total_messages: 50,
            total_bytes: 0,
            total_wasted: 0,
            initial_online: 10,
            per_round: Vec::new(),
            per_round_sent: RoundSeries::new("messages sent"),
        };
        let push = ReplicatedReport::from_push(std::slice::from_ref(&run));
        let all = ReplicatedReport::from_runs(std::slice::from_ref(&run));
        assert_eq!(push.messages_per_initial_online.mean(), 3.0);
        assert_eq!(all.messages_per_initial_online.mean(), 5.0);
        // Every other axis is the same fold.
        assert_eq!(push.protocol_messages, all.protocol_messages);
        assert_eq!(push.total_messages, all.total_messages);
        assert_eq!(push.rounds, all.rounds);
    }

    #[test]
    fn workload_fold_uses_mean_final_awareness() {
        use crate::report::{UpdateOutcome, WorkloadReport};
        use rumor_types::UpdateId;
        let outcome = |aware: f64| UpdateOutcome {
            update: UpdateId::from_bits(1),
            key: DataKey::new(1),
            delete: false,
            sequence: 0,
            initiated_round: 0,
            converged_round: Some(3),
            final_aware_online: aware,
            final_aware_total: aware / 2.0,
        };
        let report = |aware: f64, messages: u64| WorkloadReport {
            rounds: 10,
            messages,
            initial_online: 10,
            dropped_events: 0,
            updates: vec![outcome(aware), outcome(aware)],
        };
        let agg = ReplicatedReport::from_workloads(&[report(1.0, 100), report(0.5, 300)]);
        assert_eq!(agg.n, 2);
        assert!((agg.aware_online_fraction.mean() - 0.75).abs() < 1e-12);
        assert!((agg.total_messages.mean() - 200.0).abs() < 1e-12);
        assert!((agg.messages_per_initial_online.mean() - 20.0).abs() < 1e-12);
        assert_eq!(agg.protocol_messages.mean(), 0.0);
    }
}
