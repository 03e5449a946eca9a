//! Simulator-vs-model validation (the paper's §8 future-work item) and
//! the replicated simulation overlays behind the figure artefacts.
//!
//! Every Monte Carlo number here is produced by the one replication
//! harness ([`rumor_sim::Experiment`]): independent per-replication seed
//! substreams, parallel fan-out, and [`SampleStats`] aggregation with
//! Student-t 95% confidence intervals — no private trial loops.

use rumor_analysis::{PfSchedule, PushModel, PushParams};
use rumor_churn::MarkovChurn;
use rumor_core::{ForwardPolicy, ProtocolConfig, PullStrategy};
use rumor_metrics::SampleStats;
use rumor_sim::{
    Driver, Experiment, PaperProtocol, Protocol, ReplicatedReport, RunReport, Scenario,
    TopologySpec, UpdateEvent,
};
use rumor_types::DataKey;
use serde::{Deserialize, Serialize};

/// A model/simulation pairing for one parameter set. The simulated side
/// carries full replication statistics (mean, stddev, 95% CI, n).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ValidationRow {
    /// Parameter description.
    pub setting: String,
    /// Analytical messages per initially-online peer.
    pub model_cost: f64,
    /// Simulated messages per initially-online peer, over replications.
    pub sim_cost: SampleStats,
    /// Analytical final awareness.
    pub model_awareness: f64,
    /// Simulated final awareness, over replications.
    pub sim_awareness: SampleStats,
    /// Analytical rounds.
    pub model_rounds: u32,
    /// Simulated rounds, over replications.
    pub sim_rounds: SampleStats,
    /// Replications run.
    pub trials: u32,
}

impl ValidationRow {
    /// Relative cost error of the model against the simulated mean.
    pub fn cost_error(&self) -> f64 {
        if self.sim_cost.mean() == 0.0 {
            return 0.0;
        }
        (self.model_cost - self.sim_cost.mean()).abs() / self.sim_cost.mean()
    }
}

/// One pure-push parameter set — the axes the paper's figures vary.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PushSetting {
    /// Total population `R`.
    pub total: usize,
    /// Initially online population `R_on(0)`.
    pub online: usize,
    /// Stay-online probability `σ`.
    pub sigma: f64,
    /// Fanout fraction `f_r`.
    pub f_r: f64,
    /// `PF(t) = base^t` when `Some`, `PF = 1` when `None`.
    pub pf_base: Option<f64>,
}

impl PushSetting {
    fn config(&self) -> ProtocolConfig {
        let pf = match self.pf_base {
            None => ForwardPolicy::Always,
            Some(b) => ForwardPolicy::ExponentialDecay { base: b },
        };
        ProtocolConfig::builder(self.total)
            .fanout_fraction(self.f_r)
            .forward(pf)
            .pull_strategy(PullStrategy::OnDemand)
            .build()
            .expect("valid protocol parameters")
    }

    fn scenario(&self, seed: u64) -> Scenario {
        Scenario::builder(self.total, seed)
            .online_count(self.online)
            .topology(TopologySpec::Full)
            .churn(MarkovChurn::new(self.sigma, 0.0).expect("valid sigma"))
            .build()
            .expect("valid scenario")
    }
}

/// Mounts `protocol` on `scenario`, writes `key` at a random online peer
/// and tracks the push for up to `max_rounds` rounds. Returns the driver
/// too, for callers that read per-peer counters.
pub(crate) fn push_once<P: Protocol>(
    scenario: &Scenario,
    protocol: &P,
    key: &str,
    max_rounds: u32,
) -> (Driver<P::Node>, RunReport) {
    let mut driver = scenario.drive(protocol);
    let event = UpdateEvent {
        round: 0,
        key: DataKey::from_name(key),
        delete: false,
        sequence: 0,
    };
    let update = driver
        .initiate(protocol, None, &event)
        .expect("an online initiator");
    let report = driver.track_update(protocol, update, max_rounds);
    (driver, report)
}

/// Replicated pure-push runs of one parameter set through the simulator:
/// the Monte Carlo workhorse behind [`validate`] and the figure
/// overlays. `trials` replications fan out over the worker pool; the
/// returned aggregate is bit-identical for any thread count.
pub fn replicated_push(setting: PushSetting, trials: u32, master_seed: u64) -> ReplicatedReport {
    let experiment = Experiment::new(master_seed, trials);
    let reports = experiment.run(|rep| {
        let scenario = setting.scenario(rep.seed);
        let protocol = PaperProtocol::new(setting.config());
        push_once(&scenario, &protocol, "validation", 100).1
    });
    ReplicatedReport::from_push(&reports)
}

/// Runs one parameter set through both the recursion and the simulator.
///
/// The simulator executes the real protocol with the partial list and the
/// given `PF(t)` over `trials` independent replications; the model
/// evaluates the §4.2 recursion with identical parameters. Pull machinery
/// is disabled (pure push phase, as in the analysis).
pub fn validate(
    total: usize,
    online: usize,
    sigma: f64,
    f_r: f64,
    pf_base: Option<f64>,
    trials: u32,
    seed: u64,
) -> ValidationRow {
    let pf_model = match pf_base {
        None => PfSchedule::One,
        Some(b) => PfSchedule::Exponential { base: b },
    };
    let model =
        PushModel::new(PushParams::new(total as f64, online as f64, sigma, f_r).with_pf(pf_model))
            .run();
    let sim = replicated_push(
        PushSetting {
            total,
            online,
            sigma,
            f_r,
            pf_base,
        },
        trials,
        seed,
    );
    ValidationRow {
        setting: format!(
            "R={total} R_on(0)={online} sigma={sigma} f_r={f_r} PF={}",
            pf_base.map_or("1".to_owned(), |b| format!("{b}^t"))
        ),
        model_cost: model.messages_per_initial_online(),
        sim_cost: sim.messages_per_initial_online,
        model_awareness: model.final_awareness,
        sim_awareness: sim.aware_online_fraction,
        model_rounds: model.rounds,
        sim_rounds: sim.rounds,
        trials,
    }
}

/// The standard validation suite: Fig. 2/3/4-style settings at
/// simulator-friendly scale.
pub fn standard_suite(seed: u64) -> Vec<ValidationRow> {
    vec![
        // Fig. 2-style: varying fanout.
        validate(2_000, 600, 1.0, 0.01, None, 3, seed),
        validate(2_000, 600, 1.0, 0.02, None, 3, seed + 1),
        // Fig. 3-style: churn during the push.
        validate(2_000, 600, 0.9, 0.02, None, 3, seed + 2),
        // Fig. 4-style: decaying PF.
        validate(2_000, 600, 1.0, 0.02, Some(0.9), 3, seed + 3),
    ]
}

/// One replicated simulated curve: per-replication metrics aggregated
/// into [`SampleStats`] — the `mean/ci95/stddev/n` block the figure
/// artefacts publish and `render` draws as error bars.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReplicatedSeries {
    /// Legend label.
    pub label: String,
    /// Replications aggregated.
    pub n: u32,
    /// Push messages per initially-online peer, over replications (the
    /// paper's cost axis; the name is the artefact's JSON key).
    pub total_per_peer: SampleStats,
    /// Push rounds until termination, over replications.
    pub rounds: SampleStats,
    /// Final online awareness, over replications.
    pub final_awareness: SampleStats,
    /// Fraction of replications ending below 90% online awareness (the
    /// figures' "died" criterion, now a probability instead of a flag).
    pub died_fraction: f64,
}

/// Runs `replications` independent pushes of one parameter set and folds
/// them into a [`ReplicatedSeries`].
pub fn replicated_series(
    label: impl Into<String>,
    setting: PushSetting,
    replications: u32,
    master_seed: u64,
) -> ReplicatedSeries {
    let experiment = Experiment::new(master_seed, replications);
    let reports = experiment.run(|rep| {
        let scenario = setting.scenario(rep.seed);
        let protocol = PaperProtocol::new(setting.config());
        push_once(&scenario, &protocol, "overlay", 100).1
    });
    let died = reports
        .iter()
        .filter(|r| r.aware_online_fraction < 0.9)
        .count();
    let agg = ReplicatedReport::from_push(&reports);
    ReplicatedSeries {
        label: label.into(),
        n: agg.n,
        total_per_peer: agg.messages_per_initial_online,
        rounds: agg.rounds,
        final_awareness: agg.aware_online_fraction,
        died_fraction: if reports.is_empty() {
            0.0
        } else {
            died as f64 / reports.len() as f64
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_and_sim_agree_on_full_availability() {
        let row = validate(1_000, 1_000, 1.0, 0.01, None, 3, 42);
        assert!(
            row.cost_error() < 0.15,
            "model {} vs sim {}",
            row.model_cost,
            row.sim_cost.mean()
        );
        assert!(
            (row.model_awareness - row.sim_awareness.mean()).abs() < 0.05,
            "{row:?}"
        );
        assert_eq!(row.sim_cost.n(), 3);
    }

    #[test]
    fn model_and_sim_agree_under_churn() {
        let row = validate(1_000, 300, 0.9, 0.03, None, 3, 43);
        assert!(row.cost_error() < 0.25, "{row:?}");
        assert!(
            (row.model_awareness - row.sim_awareness.mean()).abs() < 0.1,
            "{row:?}"
        );
    }

    #[test]
    fn replicated_series_carries_dispersion() {
        let s = replicated_series(
            "rep",
            PushSetting {
                total: 300,
                online: 150,
                sigma: 0.95,
                f_r: 0.02,
                pf_base: None,
            },
            4,
            11,
        );
        assert_eq!(s.n, 4);
        assert_eq!(s.total_per_peer.n(), 4);
        assert!(s.final_awareness.mean() > 0.0 && s.final_awareness.mean() <= 1.0);
        assert!(s.final_awareness.ci95().half_width().is_finite());
        assert!((0.0..=1.0).contains(&s.died_fraction));
    }

    #[test]
    fn replicated_series_is_deterministic_per_seed() {
        let small = PushSetting {
            total: 200,
            online: 100,
            sigma: 1.0,
            f_r: 0.02,
            pf_base: None,
        };
        let a = replicated_series("d", small, 3, 5);
        let b = replicated_series("d", small, 3, 5);
        assert_eq!(a, b);
    }
}
