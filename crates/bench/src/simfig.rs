//! Simulator-vs-model validation (the paper's §8 future-work item) and
//! the replicated simulation overlays behind the figure artefacts.
//!
//! Every Monte Carlo number here is produced by the one replication
//! harness ([`rumor_sim::Experiment`]): independent per-replication seed
//! substreams, parallel fan-out, and [`SampleStats`] aggregation with
//! Student-t 95% confidence intervals — no private trial loops.

use crate::experiments::FigureSeries;
use rumor_analysis::{PfSchedule, PushModel, PushParams};
use rumor_churn::MarkovChurn;
use rumor_core::{ForwardPolicy, ProtocolConfig, PullStrategy, ReplicaPeer};
use rumor_metrics::SampleStats;
use rumor_sim::{
    Driver, Experiment, PaperProtocol, ReplicatedReport, RunReport, Scenario, TopologySpec,
    UpdateEvent,
};
use rumor_types::{derive_seed, DataKey};
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

/// Mounts the paper peer with `config` on `scenario`, writes `key` at a
/// random online peer and tracks the push for up to `max_rounds` rounds.
/// Returns the driver too, for callers that read per-peer counters.
pub(crate) fn push_once(
    scenario: &Scenario,
    config: ProtocolConfig,
    key: &str,
    max_rounds: u32,
) -> (Driver<ReplicaPeer>, RunReport) {
    let protocol = PaperProtocol::new(config);
    let mut driver = scenario.drive(&protocol);
    let event = UpdateEvent {
        round: 0,
        key: DataKey::from_name(key),
        delete: false,
        sequence: 0,
    };
    let update = driver
        .initiate(&protocol, None, &event)
        .expect("an online initiator");
    let report = driver.track_update(&protocol, update, max_rounds);
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
        push_once(&scenario, setting.config(), "validation", 100).1
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

/// Converts a simulated run into a [`FigureSeries`] for overlay plots.
pub fn sim_series(
    label: impl Into<String>,
    total: usize,
    online: usize,
    sigma: f64,
    f_r: f64,
    seed: u64,
) -> FigureSeries {
    let config = ProtocolConfig::builder(total)
        .fanout_fraction(f_r)
        .pull_strategy(PullStrategy::OnDemand)
        .build()
        .expect("valid protocol parameters");
    let scenario = Scenario::builder(total, seed)
        .online_count(online)
        .churn(MarkovChurn::new(sigma, 0.0).expect("valid sigma"))
        .build()
        .expect("valid scenario");
    let (_, report) = push_once(&scenario, config, "series", 100);
    FigureSeries {
        label: label.into(),
        points: report.awareness_cost_series(),
        rounds: report.rounds,
        died: report.aware_online_fraction < 0.9,
        total_per_peer: report.protocol_messages as f64 / report.initial_online as f64,
        final_awareness: report.aware_online_fraction,
    }
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
    /// Fraction of sent messages that reached nobody (offline target or
    /// link fault), over replications — the engine's `wasted()` counter,
    /// previously collected but unpublished.
    pub wasted_fraction: SampleStats,
    /// Mean messages sent in round `t` across the replications that
    /// reached round `t` — the published form of
    /// `EngineStats::per_round_sent`.
    pub per_round_sent_mean: Vec<f64>,
}

/// Mean messages sent per round across replications: entry `t` averages
/// the round-`t` send counts (diffs of the cumulative per-round trace)
/// over the replications whose run lasted at least `t + 1` rounds.
fn mean_per_round_sent(reports: &[RunReport]) -> Vec<f64> {
    let horizon = reports.iter().map(|r| r.per_round.len()).max().unwrap_or(0);
    (0..horizon)
        .map(|t| {
            let (sum, n) = reports
                .iter()
                .filter(|r| t < r.per_round.len())
                .map(|r| {
                    let prev = if t == 0 {
                        0
                    } else {
                        r.per_round[t - 1].cum_messages
                    };
                    (r.per_round[t].cum_messages - prev) as f64
                })
                .fold((0.0, 0u32), |(s, n), sent| (s + sent, n + 1));
            if n == 0 {
                0.0
            } else {
                sum / f64::from(n)
            }
        })
        .collect()
}

/// Runs `replications` independent pushes of one parameter set and folds
/// them into a [`ReplicatedSeries`].
pub fn replicated_sim_series(
    label: impl Into<String>,
    setting: PushSetting,
    replications: u32,
    master_seed: u64,
) -> ReplicatedSeries {
    let experiment = Experiment::new(master_seed, replications);
    let reports = experiment.run(|rep| {
        let scenario = setting.scenario(rep.seed);
        push_once(&scenario, setting.config(), "overlay", 100).1
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
        wasted_fraction: SampleStats::of(
            &reports
                .iter()
                .map(RunReport::wasted_fraction)
                .collect::<Vec<_>>(),
        ),
        per_round_sent_mean: mean_per_round_sent(&reports),
    }
}

/// Default replication count for the figure overlays.
pub const OVERLAY_REPLICATIONS: u32 = 5;

/// Simulator population for the scaled-down figure overlays (the paper's
/// R = 10⁴…10⁸ parameter sets, executed at simulator-friendly scale).
const OVERLAY_POPULATION: usize = 2_000;

fn overlay_seed(master_seed: u64, label: &str) -> u64 {
    derive_seed(master_seed, label)
}

fn fig1_series(online: usize, replications: u32, master_seed: u64) -> ReplicatedSeries {
    let label = format!("sim R_on[0]/R = {online}/{OVERLAY_POPULATION}");
    let seed = overlay_seed(master_seed, &label);
    replicated_sim_series(
        label,
        PushSetting {
            total: OVERLAY_POPULATION,
            online,
            sigma: 0.95,
            f_r: 0.01,
            pf_base: None,
        },
        replications,
        seed,
    )
}

/// Fig. 1 overlay: varying the initial online population (1%…100% of
/// R = 2000; σ = 0.95, PF = 1, f_r = 0.01).
pub fn fig1_overlay(replications: u32, master_seed: u64) -> Vec<ReplicatedSeries> {
    [20, 100, 200, 600, 2_000]
        .into_iter()
        .map(|online| fig1_series(online, replications, master_seed))
        .collect()
}

/// The Fig. 1(a) dying-rumor setting alone (1% online) — same
/// label/seed derivation as [`fig1_overlay`]'s first series, so the
/// numbers agree without recomputing the other four curves.
pub fn fig1_overlay_low_availability(replications: u32, master_seed: u64) -> ReplicatedSeries {
    fig1_series(20, replications, master_seed)
}

/// Fig. 2 overlay: varying f_r (σ = 0.9, PF = 1, 10% online).
pub fn fig2_overlay(replications: u32, master_seed: u64) -> Vec<ReplicatedSeries> {
    [0.005, 0.01, 0.02, 0.05]
        .into_iter()
        .map(|f_r| {
            let label = format!("sim F_r = {f_r}");
            let seed = overlay_seed(master_seed, &label);
            replicated_sim_series(
                label,
                PushSetting {
                    total: OVERLAY_POPULATION,
                    online: 200,
                    sigma: 0.9,
                    f_r,
                    pf_base: None,
                },
                replications,
                seed,
            )
        })
        .collect()
}

/// Fig. 3 overlay: varying σ (PF = 1, 10% online, f_r = 0.01).
pub fn fig3_overlay(replications: u32, master_seed: u64) -> Vec<ReplicatedSeries> {
    [1.0, 0.95, 0.8, 0.7, 0.5]
        .into_iter()
        .map(|sigma| {
            let label = format!("sim Sigma = {sigma}");
            let seed = overlay_seed(master_seed, &label);
            replicated_sim_series(
                label,
                PushSetting {
                    total: OVERLAY_POPULATION,
                    online: 200,
                    sigma,
                    f_r: 0.01,
                    pf_base: None,
                },
                replications,
                seed,
            )
        })
        .collect()
}

/// Fig. 4 overlay: varying the forwarding schedule PF(t) (σ = 0.9,
/// 10% online, f_r = 0.01).
pub fn fig4_overlay(replications: u32, master_seed: u64) -> Vec<ReplicatedSeries> {
    [None, Some(0.9), Some(0.7), Some(0.5)]
        .into_iter()
        .map(|pf_base| {
            let label = match pf_base {
                None => "sim PF = 1".to_owned(),
                Some(b) => format!("sim PF(t) = {b}^t"),
            };
            let seed = overlay_seed(master_seed, &label);
            replicated_sim_series(
                label,
                PushSetting {
                    total: OVERLAY_POPULATION,
                    online: 200,
                    sigma: 0.9,
                    f_r: 0.01,
                    pf_base,
                },
                replications,
                seed,
            )
        })
        .collect()
}

/// Fig. 5 overlay: scalability — populations 500…4000 at 10% online,
/// fanout fixed at R·f_r = 20, PF(t) = 0.9ᵗ.
pub fn fig5_overlay(replications: u32, master_seed: u64) -> Vec<ReplicatedSeries> {
    [500usize, 1_000, 2_000, 4_000]
        .into_iter()
        .map(|total| {
            let label = format!("sim Total population: {total}");
            let seed = overlay_seed(master_seed, &label);
            replicated_sim_series(
                label,
                PushSetting {
                    total,
                    online: total / 10,
                    sigma: 1.0,
                    f_r: 20.0 / total as f64,
                    pf_base: Some(0.9),
                },
                replications,
                seed,
            )
        })
        .collect()
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
    fn sim_series_has_monotone_axes() {
        let s = sim_series("sim", 500, 500, 1.0, 0.02, 7);
        assert!(s.points.windows(2).all(|w| w[0].0 <= w[1].0));
        assert!(s.points.windows(2).all(|w| w[0].1 <= w[1].1));
    }

    #[test]
    fn replicated_series_carries_dispersion() {
        let s = replicated_sim_series(
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
        assert!((0.0..=1.0).contains(&s.wasted_fraction.mean()));
        assert_eq!(
            s.per_round_sent_mean.len(),
            s.rounds.max() as usize,
            "one mean per executed round"
        );
        assert!(s.per_round_sent_mean.iter().all(|&m| m >= 0.0));
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
        let a = replicated_sim_series("d", small, 3, 5);
        let b = replicated_sim_series("d", small, 3, 5);
        assert_eq!(a, b);
    }
}
