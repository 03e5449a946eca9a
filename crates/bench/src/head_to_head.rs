//! Simulated head-to-head comparison: every contender mounted into one
//! shared [`Scenario`] — the executable, environment-faithful version of
//! Table 2 — replicated over independent seed substreams.
//!
//! The analytical `experiments::table2` compares closed-form models; this
//! module runs the *actual protocol code* of the paper peer and each
//! baseline through the single generic driver, so every contender sees
//! the identical topology draw, churn trajectory and initial
//! availability, and the same loss/partition parameters (loss
//! realisations ride each protocol's own stream). Replication goes
//! through [`rumor_sim::Experiment`]: each replication is one shared
//! scenario (seeded from its substream) that all contenders mount, and
//! per-contender metrics aggregate into [`SampleStats`] with Student-t
//! 95% confidence intervals.

use crate::simfig::push_once;
use rumor_baselines::{
    AntiEntropy, GnutellaFlooding, Gossip1, MongerConfig, MongerStop, RumorMongering,
};
use rumor_core::{ForwardPolicy, ProtocolConfig, PullStrategy};
use rumor_metrics::SampleStats;
use rumor_sim::{Experiment, PaperProtocol, Protocol, Scenario, SimError};
use serde::{Deserialize, Serialize};

/// One contender's outcome in one shared scenario (a single
/// replication's row; [`ContenderSummary`] aggregates them).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ContenderRow {
    /// Protocol name (from [`Protocol::name`]).
    pub protocol: String,
    /// Messages the protocol itself counts toward the paper's overhead
    /// metric (push messages for the paper peer; 0 where the engine
    /// total is the meaningful number).
    pub protocol_messages: u64,
    /// Total messages sent (all kinds, including acks/feedback).
    pub total_messages: u64,
    /// Encoded wire bytes of `total_messages` (`rumor-wire` frames) —
    /// the bandwidth cost message counts alone hide.
    pub total_bytes: u64,
    /// Mean encoded bytes per sent message.
    pub mean_message_bytes: f64,
    /// Total messages per initially-online peer.
    pub messages_per_initial_online: f64,
    /// Final aware fraction of the online population.
    pub coverage: f64,
    /// Rounds until the tracker stopped (quiescence or convergence).
    pub rounds: u32,
}

/// One contender's replication statistics across every shared scenario:
/// each metric carries mean, stddev, Student-t 95% CI and n.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ContenderSummary {
    /// Protocol name (from [`Protocol::name`]).
    pub protocol: String,
    /// Replications aggregated.
    pub n: u32,
    /// Protocol-counted overhead messages, over replications.
    pub protocol_messages: SampleStats,
    /// Total messages sent, over replications.
    pub total_messages: SampleStats,
    /// Encoded wire bytes sent, over replications.
    pub total_bytes: SampleStats,
    /// Mean encoded bytes per sent message, over replications.
    pub mean_message_bytes: SampleStats,
    /// Total messages per initially-online peer, over replications.
    pub messages_per_initial_online: SampleStats,
    /// Final aware fraction of the online population, over replications.
    pub coverage: SampleStats,
    /// Rounds until the tracker stopped, over replications.
    pub rounds: SampleStats,
}

impl ContenderSummary {
    /// Folds one contender's per-replication rows (all sharing a
    /// protocol name) into replication statistics.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is empty or mixes protocols.
    pub fn fold(rows: &[&ContenderRow]) -> Self {
        let protocol = rows
            .first()
            .expect("at least one replication")
            .protocol
            .clone();
        assert!(
            rows.iter().all(|r| r.protocol == protocol),
            "cannot fold rows from different protocols"
        );
        let stats = |metric: fn(&ContenderRow) -> f64| {
            SampleStats::of(&rows.iter().map(|r| metric(r)).collect::<Vec<_>>())
        };
        ContenderSummary {
            protocol,
            n: rows.len() as u32,
            protocol_messages: stats(|r| r.protocol_messages as f64),
            total_messages: stats(|r| r.total_messages as f64),
            total_bytes: stats(|r| r.total_bytes as f64),
            mean_message_bytes: stats(|r| r.mean_message_bytes),
            messages_per_initial_online: stats(|r| r.messages_per_initial_online),
            coverage: stats(|r| r.coverage),
            rounds: stats(|r| f64::from(r.rounds)),
        }
    }
}

/// The baseline parameterisation mounted alongside the paper protocol.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ContenderSet {
    /// Flooding fanout (Gnutella and GOSSIP1).
    pub fanout: usize,
    /// Flooding TTL (Gnutella and GOSSIP1).
    pub ttl: u32,
    /// GOSSIP1 forwarding probability beyond hop `k`.
    pub gossip_p: f64,
    /// GOSSIP1 deterministic-flood hops.
    pub gossip_k: u32,
    /// Rumor-mongering stop rule.
    pub monger: MongerConfig,
    /// Anti-entropy mode.
    pub anti_entropy_push_pull: bool,
}

impl Default for ContenderSet {
    fn default() -> Self {
        Self {
            fanout: 5,
            ttl: 10,
            gossip_p: 0.8,
            gossip_k: 2,
            monger: MongerConfig {
                feedback: true,
                stop: MongerStop::Coin { k: 4 },
            },
            anti_entropy_push_pull: false,
        }
    }
}

fn mount<P: Protocol>(scenario: &Scenario, protocol: &P, horizon: u32) -> ContenderRow {
    let (_, report) = push_once(scenario, protocol, "head-to-head", horizon);
    ContenderRow {
        protocol: protocol.name(),
        protocol_messages: report.protocol_messages,
        total_messages: report.total_messages,
        total_bytes: report.total_bytes,
        mean_message_bytes: report.mean_message_bytes(),
        messages_per_initial_online: report.messages_per_initial_online(),
        coverage: report.aware_online_fraction,
        rounds: report.rounds,
    }
}

/// Runs the paper protocol (with `config`) and every baseline in
/// `contenders` through the *same* `scenario`, tracking one update for at
/// most `horizon` rounds each.
pub fn head_to_head(
    scenario: &Scenario,
    config: ProtocolConfig,
    contenders: ContenderSet,
    horizon: u32,
) -> Vec<ContenderRow> {
    let ContenderSet {
        fanout,
        ttl,
        gossip_p,
        gossip_k,
        monger,
        anti_entropy_push_pull,
    } = contenders;
    vec![
        mount(scenario, &PaperProtocol::new(config), horizon),
        mount(scenario, &GnutellaFlooding { fanout, ttl }, horizon),
        mount(
            scenario,
            &Gossip1 {
                fanout,
                ttl,
                p: gossip_p,
                k: gossip_k,
            },
            horizon,
        ),
        mount(
            scenario,
            &AntiEntropy {
                push_pull: anti_entropy_push_pull,
            },
            horizon,
        ),
        mount(scenario, &RumorMongering { config: monger }, horizon),
    ]
}

/// Replicates [`head_to_head`] over independent scenario seeds: each
/// replication builds one shared scenario from its substream (population
/// `population`, everyone online), mounts every contender into it, and
/// the per-contender metrics fold into [`ContenderSummary`] statistics.
pub fn replicated_head_to_head(
    population: usize,
    config: ProtocolConfig,
    contenders: ContenderSet,
    horizon: u32,
    replications: u32,
    master_seed: u64,
) -> Result<Vec<ContenderSummary>, SimError> {
    // Validate the scenario parameters once, outside the worker pool.
    Scenario::builder(population, master_seed).build()?;
    let experiment = Experiment::new(master_seed, replications);
    let per_replication: Vec<Vec<ContenderRow>> = experiment.run(|rep| {
        let scenario = Scenario::builder(population, rep.seed)
            .build()
            .expect("scenario parameters validated above");
        head_to_head(&scenario, config.clone(), contenders, horizon)
    });
    let contender_count = per_replication.first().map_or(0, Vec::len);
    Ok((0..contender_count)
        .map(|i| {
            let rows: Vec<&ContenderRow> = per_replication.iter().map(|rep| &rep[i]).collect();
            ContenderSummary::fold(&rows)
        })
        .collect())
}

/// The default comparison: `population` peers, everyone online, no
/// churn — the Table 2(a) regime — with a paper configuration matching
/// the baselines' fanout and a decaying `PF(t) = 0.9^t`, replicated
/// `replications` times over independent seed substreams.
///
/// # Errors
///
/// Returns [`SimError`] when the scenario or protocol configuration is
/// invalid (e.g. an empty population).
pub fn standard_comparison(
    population: usize,
    replications: u32,
    seed: u64,
) -> Result<Vec<ContenderSummary>, SimError> {
    let contenders = ContenderSet::default();
    let config = ProtocolConfig::builder(population)
        .fanout_absolute(contenders.fanout)
        .forward(ForwardPolicy::ExponentialDecay { base: 0.9 })
        .pull_strategy(PullStrategy::OnDemand)
        .build()?;
    replicated_head_to_head(population, config, contenders, 60, replications, seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_contender_covers_a_benign_scenario() {
        let rows = standard_comparison(300, 3, 7).unwrap();
        assert_eq!(rows.len(), 5);
        for row in &rows {
            assert_eq!(row.n, 3);
            assert!(
                row.coverage.mean() > 0.9,
                "{} only reached {}",
                row.protocol,
                row.coverage.mean()
            );
            assert!(row.total_messages.mean() > 0.0);
            // Every contender has a wire codec: bandwidth is reported,
            // and a frame can never be smaller than its 6-byte header.
            assert!(
                row.total_bytes.mean() > row.total_messages.mean() * 6.0,
                "{} reported no wire bytes",
                row.protocol
            );
            assert!(row.mean_message_bytes.mean() > 6.0);
            assert!(row.coverage.ci95().half_width().is_finite());
        }
    }

    #[test]
    fn paper_protocol_beats_flooding_on_push_overhead() {
        let rows = standard_comparison(300, 3, 7).unwrap();
        let ours = &rows[0];
        let gnutella = &rows[1];
        // §5.6: duplicate-avoidance flooding sends every receiver a full
        // fanout of copies; the partial list plus decaying PF suppress
        // most of that.
        assert!(
            ours.protocol_messages.mean() < gnutella.total_messages.mean(),
            "ours {} !< gnutella {}",
            ours.protocol_messages.mean(),
            gnutella.total_messages.mean()
        );
    }

    #[test]
    fn rows_are_deterministic_per_seed() {
        assert_eq!(
            standard_comparison(150, 2, 3).unwrap(),
            standard_comparison(150, 2, 3).unwrap()
        );
    }

    #[test]
    fn fold_rejects_mixed_protocols() {
        let row = |name: &str| ContenderRow {
            protocol: name.into(),
            protocol_messages: 1,
            total_messages: 2,
            total_bytes: 60,
            mean_message_bytes: 30.0,
            messages_per_initial_online: 0.5,
            coverage: 1.0,
            rounds: 3,
        };
        let (a, b) = (row("a"), row("b"));
        let result = std::panic::catch_unwind(|| ContenderSummary::fold(&[&a, &b]));
        assert!(result.is_err());
    }
}
