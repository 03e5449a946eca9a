//! Shared-calendar scenario (§2): multiple writers update and delete
//! entries concurrently; conflicting writes coexist as versions (§3) and
//! deletions propagate as tombstones with death certificates.
//!
//! Run with: `cargo run --example shared_calendar`

use rumor::churn::MarkovChurn;
use rumor::core::{ProtocolConfig, PullStrategy, ReplicaPeer, Value};
use rumor::sim::{Driver, PaperProtocol, Scenario};
use rumor::types::{DataKey, PeerId, Round};

/// Writes `value` (a tombstone when `None`) to `slot` at replica `at`.
fn book(sim: &mut Driver<ReplicaPeer>, at: PeerId, slot: DataKey, value: Option<&str>) {
    let round = Round::new(sim.rounds_run());
    sim.apply(at, |peer, rng, out| {
        peer.initiate_update(slot, value.map(Value::from), round, rng, out)
    });
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let population = 400;
    let scenario = Scenario::builder(population, 11)
        .online_fraction(0.5)
        .churn(MarkovChurn::new(0.99, 0.02)?)
        .build()?;
    let config = ProtocolConfig::builder(population)
        .fanout_fraction(0.04)
        .pull_strategy(PullStrategy::Eager)
        .pull_fanout(3)
        .build()?;
    let mut sim = scenario.drive(&PaperProtocol::new(config));

    let slot = DataKey::from_name("calendar/2026-06-12T10:00");

    // Alice books the slot; the booking propagates.
    let alice = PeerId::new(0);
    book(&mut sim, alice, slot, Some("alice: standup"));
    sim.run_rounds(12);

    // Bob and Carol — on different replicas — both reschedule the slot in
    // the same round, unaware of each other: a genuine concurrent write.
    let bob = sim
        .online()
        .iter_online()
        .find(|p| p.index() > 10)
        .expect("someone online");
    let carol = sim
        .online()
        .iter_online()
        .find(|p| p.index() > 10 && *p != bob)
        .expect("someone else online");
    book(&mut sim, bob, slot, Some("bob: 1:1 with dana"));
    book(&mut sim, carol, slot, Some("carol: design review"));
    sim.run_rounds(20);

    // §3: conflicts are not resolved — both versions coexist.
    let versions = sim.node(alice).store().versions(slot);
    println!(
        "versions visible at {alice} after concurrent writes: {}",
        versions.len()
    );
    for v in versions {
        println!(
            "  - {:?} (lineage depth {})",
            v.value()
                .map(|x| String::from_utf8_lossy(x.as_bytes()).into_owned()),
            v.lineage().len()
        );
    }
    assert!(
        versions.len() >= 2,
        "concurrent bookings must coexist as distinct versions"
    );

    // Bob deletes his booking: a tombstone supersedes his branch only.
    let bob_version = sim
        .node(bob)
        .store()
        .versions(slot)
        .iter()
        .find(|v| v.value().is_some_and(|x| x.as_bytes().starts_with(b"bob")))
        .map(|v| v.lineage().clone())
        .expect("bob sees his own booking");
    drop(bob_version);
    book(&mut sim, bob, slot, None); // tombstone over bob's latest
    sim.run_rounds(20);

    let after = sim.node(alice).store().versions(slot);
    let tombstones = after.iter().filter(|v| v.is_tombstone()).count();
    let live: Vec<String> = after
        .iter()
        .filter_map(|v| v.value())
        .map(|x| String::from_utf8_lossy(x.as_bytes()).into_owned())
        .collect();
    println!(
        "\nafter bob's delete, {alice} sees {tombstones} tombstone(s) and live versions: {live:?}"
    );
    assert!(tombstones >= 1, "the death certificate must propagate");

    // Eventual consistency check across the online population.
    let digest = sim.node(alice).store().digest();
    let agreeing = sim
        .online()
        .iter_online()
        .filter(|p| sim.node(*p).store().digest() == digest)
        .count();
    println!(
        "replicas agreeing with {alice}: {agreeing}/{} online",
        sim.online().online_count()
    );
    Ok(())
}
