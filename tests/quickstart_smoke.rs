//! Smoke test mirroring `examples/quickstart.rs` step for step, so the
//! documented quickstart flow can never silently rot: if this test
//! compiles and passes, the example's API calls and its claimed outcomes
//! (push covers the online population, an eager pull recovers a sleeper,
//! a quorum query resolves) all still hold.

use rumor::churn::MarkovChurn;
use rumor::core::{ForwardPolicy, ProtocolConfig, PullStrategy, QueryPolicy};
use rumor::sim::{PaperProtocol, Scenario, UpdateEvent};
use rumor::types::{DataKey, PeerId};

#[test]
fn quickstart_flow_end_to_end() {
    // Identical parameters to examples/quickstart.rs (same fixed seed, so
    // this run is reproducible bit for bit).
    let population = 1_000;
    let scenario = Scenario::builder(population, 2026)
        .online_fraction(0.2)
        .churn(MarkovChurn::new(0.98, 0.01).expect("valid churn"))
        .build()
        .expect("quickstart scenario builds");

    let config = ProtocolConfig::builder(population)
        .fanout_fraction(0.03)
        .forward(ForwardPolicy::ExponentialDecay { base: 0.9 })
        .pull_strategy(PullStrategy::Eager)
        .pull_fanout(3)
        .build()
        .expect("quickstart config is valid");
    let protocol = PaperProtocol::new(config);
    let mut sim = scenario.drive(&protocol);

    // Push phase: the example prints these numbers; the test pins the
    // claims behind them.
    let key = DataKey::from_name("message-of-the-day");
    let event = UpdateEvent {
        round: 0,
        key,
        delete: false,
        sequence: 0,
    };
    let update = sim
        .initiate(&protocol, None, &event)
        .expect("someone is online");
    let report = sim.track_update(&protocol, update, 60);
    assert!(
        report.aware_online_fraction > 0.8,
        "push must blanket the online population, got {}",
        report.aware_online_fraction
    );
    assert!(
        report.aware_total_fraction < report.aware_online_fraction,
        "offline peers cannot have been reached by push alone"
    );
    assert!(report.protocol_messages > 0);
    assert!(report.protocol_messages as f64 / report.initial_online as f64 > 1.0);
    assert!(report.rounds <= 60);

    // Pull phase: a peer that slept through the push comes online and the
    // eager pull strategy reconciles it within a few rounds.
    let sleeper = (0..population as u32)
        .map(PeerId::new)
        .find(|&p| !sim.online().is_online(p) && sim.node(p).store().get(key).is_none())
        .expect("someone slept through the push");
    sim.set_online(sleeper, true);
    sim.run_rounds(4);
    let value = sim
        .node(sleeper)
        .store()
        .get(key)
        .expect("pull recovers the update");
    assert_eq!(value.as_bytes(), event.payload().as_bytes());

    // Query: five replicas answer, the latest version wins.
    let answer = sim
        .query(key, 5, QueryPolicy::Latest)
        .expect("replicas hold the key");
    assert_eq!(
        answer.value.expect("not a tombstone").as_bytes(),
        event.payload().as_bytes()
    );
}
