//! Simulation ablations for the §6 design choices.

use rumor_churn::MarkovChurn;
use rumor_core::{
    AckPolicy, DiscardStrategy, ForwardPolicy, ProtocolConfig, PullStrategy, TruncationPolicy,
};
use rumor_sim::{PaperProtocol, Scenario, TopologySpec};
use serde::{Deserialize, Serialize};

/// One ablation row.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AblationRow {
    /// Variant under test.
    pub variant: String,
    /// Push messages per initially-online peer.
    pub push_cost: f64,
    /// Duplicate push deliveries per initially-online peer.
    pub duplicates: f64,
    /// Total messages (all kinds) per initially-online peer.
    pub total_cost: f64,
    /// Final awareness of the online population.
    pub awareness: f64,
    /// Rounds to quiescence.
    pub rounds: u32,
}

fn run(
    variant: &str,
    config: ProtocolConfig,
    total: usize,
    online: usize,
    sigma: f64,
    p_on: f64,
    seed: u64,
) -> AblationRow {
    let scenario = Scenario::builder(total, seed)
        .online_count(online)
        .topology(TopologySpec::Full)
        .churn(MarkovChurn::new(sigma, p_on).expect("valid churn"))
        .build()
        .expect("valid scenario");
    let protocol = PaperProtocol::new(config);
    let (driver, report) = crate::simfig::push_once(&scenario, &protocol, "ablation", 80);
    let duplicates: u64 = driver
        .nodes()
        .iter()
        .map(|p| p.stats().duplicates_received)
        .sum();
    let denom = online as f64;
    AblationRow {
        variant: variant.to_owned(),
        push_cost: report.protocol_messages as f64 / denom,
        duplicates: duplicates as f64 / denom,
        total_cost: report.total_messages as f64 / denom,
        awareness: report.aware_online_fraction,
        rounds: report.rounds,
    }
}

const R: usize = 2_000;
const ON: usize = 600;

/// Partial-list ablation (§4.2): full list vs truncated vs none.
pub fn partial_list(seed: u64) -> Vec<AblationRow> {
    let base = |trunc: TruncationPolicy| {
        ProtocolConfig::builder(R)
            .fanout_fraction(0.02)
            .truncation(trunc)
            .pull_strategy(PullStrategy::OnDemand)
            .build()
            .expect("valid config")
    };
    vec![
        run(
            "full partial list",
            base(TruncationPolicy::None),
            R,
            ON,
            1.0,
            0.0,
            seed,
        ),
        run(
            "list capped at 5% of R",
            base(TruncationPolicy::MaxFraction {
                fraction: 0.05,
                discard: DiscardStrategy::Random,
            }),
            R,
            ON,
            1.0,
            0.0,
            seed,
        ),
        run(
            "no list (cap 0)",
            base(TruncationPolicy::MaxEntries {
                cap: 0,
                discard: DiscardStrategy::Tail,
            }),
            R,
            ON,
            1.0,
            0.0,
            seed,
        ),
    ]
}

/// Acknowledgement ablation (§6): acks bias future target selection
/// towards peers known to be online.
pub fn acks(seed: u64) -> Vec<AblationRow> {
    let base = |ack: AckPolicy| {
        ProtocolConfig::builder(R)
            .fanout_fraction(0.02)
            .ack(ack)
            .ack_cooloff_rounds(10)
            .pull_strategy(PullStrategy::OnDemand)
            .build()
            .expect("valid config")
    };
    vec![
        run("no acks", base(AckPolicy::None), R, ON, 0.95, 0.0, seed),
        run(
            "ack first sender",
            base(AckPolicy::FirstK(1)),
            R,
            ON,
            0.95,
            0.0,
            seed,
        ),
        run(
            "ack first 2",
            base(AckPolicy::FirstK(2)),
            R,
            ON,
            0.95,
            0.0,
            seed,
        ),
    ]
}

/// Forwarding-policy ablation (Fig. 4 executed by the simulator, plus
/// §6's self-tuning variant the closed-form model cannot express).
pub fn forwarding(seed: u64) -> Vec<AblationRow> {
    let base = |pf: ForwardPolicy| {
        ProtocolConfig::builder(R)
            .fanout_fraction(0.02)
            .forward(pf)
            .pull_strategy(PullStrategy::OnDemand)
            .build()
            .expect("valid config")
    };
    vec![
        run("PF = 1", base(ForwardPolicy::Always), R, ON, 0.9, 0.0, seed),
        run(
            "PF(t) = 0.9^t",
            base(ForwardPolicy::ExponentialDecay { base: 0.9 }),
            R,
            ON,
            0.9,
            0.0,
            seed,
        ),
        run(
            "self-tuning (§6)",
            base(ForwardPolicy::self_tuning_default()),
            R,
            ON,
            0.9,
            0.0,
            seed,
        ),
    ]
}

/// Pull-strategy ablation (§6's lazy pull): peers come online during the
/// run; eager pulls immediately, lazy waits for a push first.
pub fn pull_strategies(seed: u64) -> Vec<AblationRow> {
    let base = |strategy: PullStrategy| {
        ProtocolConfig::builder(R)
            .fanout_fraction(0.02)
            .pull_strategy(strategy)
            .pull_fanout(3)
            .build()
            .expect("valid config")
    };
    // p_on > 0: offline peers keep returning and must catch up.
    vec![
        run(
            "eager pull",
            base(PullStrategy::Eager),
            R,
            ON,
            0.98,
            0.02,
            seed,
        ),
        run(
            "lazy pull (patience 3)",
            base(PullStrategy::Lazy { patience: 3 }),
            R,
            ON,
            0.98,
            0.02,
            seed,
        ),
        run(
            "on-demand pull",
            base(PullStrategy::OnDemand),
            R,
            ON,
            0.98,
            0.02,
            seed,
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partial_list_reduces_duplicates() {
        let rows = partial_list(1);
        let (full, _capped, none) = (&rows[0], &rows[1], &rows[2]);
        assert!(
            full.duplicates < none.duplicates,
            "list suppresses duplicates: {} vs {}",
            full.duplicates,
            none.duplicates
        );
        assert!(full.push_cost <= none.push_cost + 1e-9);
        // Coverage comparable either way.
        assert!((full.awareness - none.awareness).abs() < 0.1);
    }

    #[test]
    fn decaying_pf_cuts_cost_in_simulation_too() {
        let rows = forwarding(2);
        assert!(rows[1].push_cost < rows[0].push_cost);
        assert!(
            rows[2].push_cost < rows[0].push_cost,
            "self-tuning saves: {rows:?}"
        );
        assert!(
            rows[2].awareness > 0.85,
            "self-tuning keeps coverage: {rows:?}"
        );
    }

    #[test]
    fn eager_pull_pays_more_messages_than_lazy() {
        let rows = pull_strategies(3);
        let eager = &rows[0];
        let lazy = &rows[1];
        assert!(
            eager.total_cost >= lazy.total_cost,
            "lazy avoids redundant pulls: eager {} vs lazy {}",
            eager.total_cost,
            lazy.total_cost
        );
    }
}
