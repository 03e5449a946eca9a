//! Quickstart: propagate one update through an unreliable replica
//! partition and watch the push phase, then let a returning peer pull
//! what it missed.
//!
//! Run with: `cargo run --example quickstart`

use rumor::churn::MarkovChurn;
use rumor::core::{ForwardPolicy, ProtocolConfig, PullStrategy, QueryPolicy};
use rumor::sim::{PaperProtocol, Scenario, UpdateEvent};
use rumor::types::{DataKey, PeerId};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The paper's environment: 1000 replicas, 20% online, peers drop off
    // with probability 1 - sigma per round and return at a low rate. The
    // `Scenario` describes only the environment — any protocol (ours or a
    // baseline) can be mounted into it.
    let population = 1_000;
    let scenario = Scenario::builder(population, 2026)
        .online_fraction(0.2)
        .churn(MarkovChurn::new(0.98, 0.01)?)
        .build()?;

    let config = ProtocolConfig::builder(population)
        .fanout_fraction(0.03) // f_r: each pusher addresses 30 replicas
        .forward(ForwardPolicy::ExponentialDecay { base: 0.9 }) // PF(t) = 0.9^t
        .pull_strategy(PullStrategy::Eager) // online_again => pull
        .pull_fanout(3)
        .build()?;
    let protocol = PaperProtocol::new(config);
    let mut sim = scenario.drive(&protocol);

    // A random online peer publishes a new value (payload "u0"); the push
    // phase floods it to the online population with the partial-list
    // optimisation.
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

    println!("push phase:");
    println!("  rounds                : {}", report.rounds);
    println!(
        "  online awareness      : {:.1}%",
        report.aware_online_fraction * 100.0
    );
    println!(
        "  total awareness       : {:.1}%",
        report.aware_total_fraction * 100.0
    );
    println!("  push messages         : {}", report.protocol_messages);
    println!(
        "  per initially-online  : {:.2}",
        report.protocol_messages as f64 / report.initial_online as f64
    );
    let duplicates: u64 = sim
        .nodes()
        .iter()
        .map(|p| p.stats().duplicates_received)
        .sum();
    println!("  duplicates received   : {duplicates}");

    // A peer that slept through the whole push comes online: the eager
    // pull strategy reconciles it within a couple of rounds.
    let sleeper = (0..population as u32)
        .map(PeerId::new)
        .find(|&p| !sim.online().is_online(p) && sim.node(p).store().get(key).is_none())
        .expect("someone slept through the push");
    sim.set_online(sleeper, true);
    sim.run_rounds(4);

    let value = sim.node(sleeper).store().get(key);
    println!("\npull phase:");
    println!(
        "  {sleeper} came online and now reads: {:?}",
        value.map(|v| String::from_utf8_lossy(v.as_bytes()).into_owned())
    );
    assert!(value.is_some(), "the pull phase must recover the update");

    // A client queries a handful of replicas and resolves by version.
    let answer = sim
        .query(key, 5, QueryPolicy::Latest)
        .expect("replicas hold the key");
    println!(
        "  query over 5 replicas  : {:?} (confident: {})",
        String::from_utf8_lossy(answer.value.as_ref().expect("not a tombstone").as_bytes()),
        answer.confident
    );
    Ok(())
}
