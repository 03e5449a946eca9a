//! End-to-end integration: push + pull reach quasi-consistency in the
//! paper's unreliable environment, including under injected failures.

use rumor::churn::{Catastrophe, MarkovChurn, StaticChurn};
use rumor::core::{ForwardPolicy, ProtocolConfig, PullStrategy, QueryPolicy, Value};
use rumor::net::Partition;
use rumor::sim::{consistency_fraction, SimulationBuilder, TopologySpec};
use rumor::types::{DataKey, PeerId, Round};

fn key() -> DataKey {
    DataKey::from_name("integration")
}

#[test]
fn push_then_pull_reaches_whole_population() {
    // 20% online during the push; afterwards everyone returns and pulls.
    let population = 600;
    let config = ProtocolConfig::builder(population)
        .fanout_fraction(0.05)
        .pull_strategy(PullStrategy::Eager)
        .pull_fanout(4)
        .pull_retry(2, 6)
        .build()
        .unwrap();
    let mut sim = SimulationBuilder::new(population, 1)
        .online_fraction(0.2)
        .churn(MarkovChurn::new(0.995, 0.05).unwrap())
        .protocol(config)
        .build()
        .unwrap();
    let update = sim.initiate_update(None, key(), Some(Value::from("v1")));
    sim.run_rounds(120);

    let aware_total = rumor::sim::awareness(sim.peers(), None, update.id());
    assert!(
        aware_total > 0.95,
        "push+pull must reach (nearly) everyone, got {aware_total}"
    );
}

#[test]
fn catastrophe_mid_push_is_repaired_by_pull() {
    let population = 500;
    let config = ProtocolConfig::builder(population)
        .fanout_fraction(0.05)
        .pull_strategy(PullStrategy::Eager)
        .pull_retry(2, 8)
        .build()
        .unwrap();
    // Everyone online; after round 2 (mid-push), 70% of peers vanish;
    // they trickle back via p_on.
    let churn = Catastrophe::new(MarkovChurn::new(1.0, 0.1).unwrap()).with_event(2, 0.7);
    let mut sim = SimulationBuilder::new(population, 2)
        .churn(churn)
        .protocol(config)
        .build()
        .unwrap();
    let update = sim.initiate_update(None, key(), Some(Value::from("survives")));
    sim.run_rounds(80);

    let aware_total = rumor::sim::awareness(sim.peers(), None, update.id());
    assert!(
        aware_total > 0.9,
        "pull repairs a catastrophic interruption, got {aware_total}"
    );
}

#[test]
fn network_partition_heals_through_pull() {
    let population = 400;
    let config = ProtocolConfig::builder(population)
        .fanout_fraction(0.05)
        .pull_strategy(PullStrategy::Eager)
        .staleness_rounds(10) // periodic anti-entropy heals the halves
        .pull_retry(2, 4)
        .build()
        .unwrap();
    // The two halves cannot talk for rounds [0, 15).
    let mut sim = SimulationBuilder::new(population, 3)
        .protocol(config)
        .partition(Partition::halves(population, Round::ZERO, Round::new(15)))
        .build()
        .unwrap();
    // Initiate in the first half.
    let update = sim.initiate_update(Some(PeerId::new(0)), key(), Some(Value::from("split")));
    sim.run_rounds(14);
    let aware_during = rumor::sim::awareness(sim.peers(), None, update.id());
    assert!(
        aware_during < 0.8,
        "the partition must confine the rumor, got {aware_during}"
    );
    sim.run_rounds(60);
    let aware_after = rumor::sim::awareness(sim.peers(), None, update.id());
    assert!(
        aware_after > 0.95,
        "after healing, staleness pulls spread the update, got {aware_after}"
    );
}

#[test]
fn quasi_consistency_with_multiple_updates() {
    let population = 300;
    let config = ProtocolConfig::builder(population)
        .fanout_fraction(0.05)
        .pull_strategy(PullStrategy::Eager)
        .pull_retry(2, 4)
        .build()
        .unwrap();
    let mut sim = SimulationBuilder::new(population, 4)
        .online_fraction(0.6)
        .churn(MarkovChurn::new(0.99, 0.05).unwrap())
        .protocol(config)
        .build()
        .unwrap();
    // Five updates to distinct keys from random initiators.
    for i in 0..5 {
        let k = DataKey::from_name(&format!("multi/{i}"));
        sim.initiate_update(None, k, Some(Value::from(format!("value-{i}").as_str())));
        sim.run_rounds(6);
    }
    sim.run_rounds(80);
    let consistent = consistency_fraction(sim.peers(), Some(sim.online()));
    assert!(
        consistent > 0.9,
        "online stores converge to the majority digest, got {consistent}"
    );
    // Queries agree on every key.
    for i in 0..5 {
        let k = DataKey::from_name(&format!("multi/{i}"));
        let answer = sim.query(k, 5, QueryPolicy::Majority).expect("answered");
        assert_eq!(
            answer.value.unwrap().as_bytes(),
            format!("value-{i}").as_bytes()
        );
    }
}

#[test]
fn partial_knowledge_with_discovery_still_converges() {
    // Peers know only 5% of the replica set; flood lists leak addresses
    // (name-dropper) and the rumor still covers the population.
    let population = 500;
    let config = ProtocolConfig::builder(population)
        .fanout_fraction(0.04)
        .forward(ForwardPolicy::Always)
        .pull_strategy(PullStrategy::OnDemand)
        .build()
        .unwrap();
    let mut sim = SimulationBuilder::new(population, 5)
        .topology(TopologySpec::RandomSubset { k: 25 })
        .churn(StaticChurn::new())
        .protocol(config)
        .build()
        .unwrap();
    let before: usize = sim.peer(PeerId::new(42)).known_count();
    let report = sim.propagate(key(), "discover", 60);
    assert!(report.aware_online_fraction > 0.95, "{report:?}");
    let after: usize = sim.peer(PeerId::new(42)).known_count();
    assert!(
        after > before,
        "flood lists must teach peers new replica addresses ({before} -> {after})"
    );
}
