//! End-to-end integration: push + pull reach quasi-consistency in the
//! paper's unreliable environment, including under injected failures.

use rumor::churn::{Catastrophe, MarkovChurn, StaticChurn};
use rumor::core::{ForwardPolicy, ProtocolConfig, PullStrategy, QueryPolicy, ReplicaPeer};
use rumor::net::Partition;
use rumor::sim::{
    consistency_fraction, Driver, PaperProtocol, Scenario, ScenarioBuilder, TopologySpec,
    UpdateEvent,
};
use rumor::types::{DataKey, PeerId, Round, UpdateId};

fn key() -> DataKey {
    DataKey::from_name("integration")
}

/// The paper peer with `config`, mounted on the built `scenario`.
fn mount(
    scenario: ScenarioBuilder,
    config: ProtocolConfig,
) -> (PaperProtocol, Driver<ReplicaPeer>) {
    let protocol = PaperProtocol::new(config);
    let driver = scenario.build().unwrap().drive(&protocol);
    (protocol, driver)
}

/// Writes `key` (payload `u{sequence}`) at `initiator`, or at a random
/// online peer.
fn write(
    driver: &mut Driver<ReplicaPeer>,
    protocol: &PaperProtocol,
    initiator: Option<PeerId>,
    key: DataKey,
    sequence: u32,
) -> UpdateId {
    let event = UpdateEvent {
        round: 0,
        key,
        delete: false,
        sequence,
    };
    driver.initiate(protocol, initiator, &event).unwrap()
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
    let (protocol, mut sim) = mount(
        Scenario::builder(population, 1)
            .online_fraction(0.2)
            .churn(MarkovChurn::new(0.995, 0.05).unwrap()),
        config,
    );
    let update = write(&mut sim, &protocol, None, key(), 0);
    sim.run_rounds(120);

    let aware_total = rumor::sim::awareness(sim.nodes(), None, update);
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
    let (protocol, mut sim) = mount(Scenario::builder(population, 2).churn(churn), config);
    let update = write(&mut sim, &protocol, None, key(), 0);
    sim.run_rounds(80);

    let aware_total = rumor::sim::awareness(sim.nodes(), None, update);
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
    let (protocol, mut sim) = mount(
        Scenario::builder(population, 3).partition(Partition::halves(
            population,
            Round::ZERO,
            Round::new(15),
        )),
        config,
    );
    // Initiate in the first half.
    let update = write(&mut sim, &protocol, Some(PeerId::new(0)), key(), 0);
    sim.run_rounds(14);
    let aware_during = rumor::sim::awareness(sim.nodes(), None, update);
    assert!(
        aware_during < 0.8,
        "the partition must confine the rumor, got {aware_during}"
    );
    sim.run_rounds(60);
    let aware_after = rumor::sim::awareness(sim.nodes(), None, update);
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
    let (protocol, mut sim) = mount(
        Scenario::builder(population, 4)
            .online_fraction(0.6)
            .churn(MarkovChurn::new(0.99, 0.05).unwrap()),
        config,
    );
    // Five updates to distinct keys from random initiators.
    for i in 0..5 {
        let k = DataKey::from_name(&format!("multi/{i}"));
        write(&mut sim, &protocol, None, k, i);
        sim.run_rounds(6);
    }
    sim.run_rounds(80);
    let consistent = consistency_fraction(sim.nodes(), Some(sim.online()));
    assert!(
        consistent > 0.9,
        "online stores converge to the majority digest, got {consistent}"
    );
    // Queries agree on every key.
    for i in 0..5 {
        let k = DataKey::from_name(&format!("multi/{i}"));
        let answer = sim.query(k, 5, QueryPolicy::Majority).expect("answered");
        assert_eq!(answer.value.unwrap().as_bytes(), format!("u{i}").as_bytes());
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
    let (protocol, mut sim) = mount(
        Scenario::builder(population, 5)
            .topology(TopologySpec::RandomSubset { k: 25 })
            .churn(StaticChurn::new()),
        config,
    );
    let before: usize = sim.node(PeerId::new(42)).known_count();
    let update = write(&mut sim, &protocol, None, key(), 0);
    let report = sim.track_update(&protocol, update, 60);
    assert!(report.aware_online_fraction > 0.95, "{report:?}");
    let after: usize = sim.node(PeerId::new(42)).known_count();
    assert!(
        after > before,
        "flood lists must teach peers new replica addresses ({before} -> {after})"
    );
}
