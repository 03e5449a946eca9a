//! §8 future-work investigations: bimodal delivery and non-uniform
//! availability.
//!
//! The paper closes with two open questions: "whether there is bimodal
//! behavior even in the assumed environment of very low peer presence"
//! and "the effect of non-uniform online probability of peers … a
//! relatively reliable network backbone would exist and thus would make
//! possible further performance improvements". Both are answerable with
//! the simulator; both are Monte Carlo questions, so the replications
//! run through [`rumor_sim::Experiment`] and report dispersion, not bare
//! means.

use rumor_churn::{Churn, HeterogeneousChurn, MarkovChurn};
use rumor_core::{ProtocolConfig, PullStrategy};
use rumor_metrics::SampleStats;
use rumor_sim::{Experiment, PaperProtocol, ReplicatedReport, Scenario};
use serde::{Deserialize, Serialize};

/// Outcome of the bimodality experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BimodalReport {
    /// Final online-awareness of each replication, in replication order.
    pub awareness: Vec<f64>,
    /// Replications ending below 20% awareness ("almost none").
    pub low: usize,
    /// Replications ending above 80% awareness ("almost all").
    pub high: usize,
    /// Replications in between.
    pub middle: usize,
    /// Replication statistics over the awareness samples (mean,
    /// stddev, Student-t 95% CI, percentiles).
    pub stats: SampleStats,
}

impl BimodalReport {
    /// The bimodality claim: most runs end in one of the extreme modes,
    /// and both modes occur.
    pub fn is_bimodal(&self) -> bool {
        let n = self.awareness.len();
        n > 0 && self.low + self.high >= n * 3 / 4 && self.low > 0 && self.high > 0
    }
}

/// Runs `trials` slightly-supercritical pushes (effective online fanout
/// ≈ 2.2, so the epidemic's attack rate sits above 80% while an unlucky
/// initial seeding — ≈ 9% chance that all 15 round-0 messages land on
/// offline peers — still extinguishes the rumor) and buckets terminal
/// awareness: Birman et al.'s "almost all or almost none" reliability
/// model, tested in the paper's low-availability environment.
pub fn bimodal(trials: u32, seed: u64) -> BimodalReport {
    let population = 1_000;
    let awareness: Vec<f64> = Experiment::new(seed, trials).run(|rep| {
        let config = ProtocolConfig::builder(population)
            .fanout_fraction(0.015) // ~15 msgs/push, 15% online → eff. ≈ 2.2
            .pull_strategy(PullStrategy::OnDemand)
            .build()
            .expect("valid config");
        let scenario = Scenario::builder(population, rep.seed)
            .online_fraction(0.15)
            .build()
            .expect("valid scenario");
        crate::simfig::push_once(&scenario, &PaperProtocol::new(config), "bimodal", 120)
            .1
            .aware_online_fraction
    });
    let low = awareness.iter().filter(|&&a| a < 0.2).count();
    let high = awareness.iter().filter(|&&a| a > 0.8).count();
    let middle = awareness.len() - low - high;
    BimodalReport {
        stats: SampleStats::of(&awareness),
        awareness,
        low,
        high,
        middle,
    }
}

/// One arm of the heterogeneity comparison, with replication statistics
/// per metric.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HeterogeneityRow {
    /// Scenario label.
    pub scenario: String,
    /// Final awareness of the online population, over replications.
    pub awareness: SampleStats,
    /// Push messages per initially-online peer, over replications.
    pub cost: SampleStats,
    /// Rounds, over replications.
    pub rounds: SampleStats,
}

/// Uniform availability vs a reliable backbone at (approximately) equal
/// mean availability (§8's hypothesis).
pub fn heterogeneity(trials: u32, seed: u64) -> Vec<HeterogeneityRow> {
    let population = 2_000;
    fn run<C: Churn + Clone + Send + Sync + 'static>(
        label: &str,
        churn: C,
        population: usize,
        trials: u32,
        seed_base: u64,
    ) -> HeterogeneityRow {
        let reports = Experiment::new(seed_base, trials).run(|rep| {
            let config = ProtocolConfig::builder(population)
                .fanout_fraction(0.015)
                .pull_strategy(PullStrategy::OnDemand)
                .build()
                .expect("valid config");
            let scenario = Scenario::builder(population, rep.seed)
                .online_fraction(0.28)
                .churn(churn.clone())
                .build()
                .expect("valid scenario");
            crate::simfig::push_once(&scenario, &PaperProtocol::new(config), "hetero", 80).1
        });
        let agg = ReplicatedReport::from_push(&reports);
        HeterogeneityRow {
            scenario: label.to_owned(),
            awareness: agg.aware_online_fraction,
            cost: agg.messages_per_initial_online,
            rounds: agg.rounds,
        }
    }

    vec![
        run(
            "uniform availability (≈28%)",
            MarkovChurn::new(0.97, 0.0117).expect("valid"),
            population,
            trials,
            seed,
        ),
        run(
            "10% backbone (≈98%) + transient (≈20%)",
            HeterogeneousChurn::backbone(
                2_000,
                0.1,
                MarkovChurn::new(0.999, 0.05).expect("valid"), // ≈ 0.98
                MarkovChurn::new(0.97, 0.0075).expect("valid"), // ≈ 0.2
            )
            .expect("valid classes"),
            population,
            trials,
            seed + 1,
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn near_critical_pushes_are_bimodal() {
        let report = bimodal(40, 7);
        assert!(
            report.is_bimodal(),
            "expected 'almost all or almost none': low={} middle={} high={}",
            report.low,
            report.middle,
            report.high
        );
        assert_eq!(report.stats.n(), 40);
        assert!(report.stats.ci95().half_width().is_finite());
    }

    #[test]
    fn backbone_improves_delivery_at_equal_availability() {
        let rows = heterogeneity(3, 11);
        let (uniform, backbone) = (&rows[0], &rows[1]);
        assert!(
            backbone.awareness.mean() >= uniform.awareness.mean() - 0.02,
            "a reliable backbone must not hurt coverage: {rows:?}"
        );
        // The §8 hypothesis: the backbone acts as a stable relay spine.
        assert!(
            backbone.awareness.mean() > 0.9,
            "backbone scenario covers the population: {rows:?}"
        );
    }
}
