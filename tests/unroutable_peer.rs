//! A replica learns ids from flood lists, and nothing in a flood list says
//! the id belongs to the population it runs in. Every execution path must
//! treat an address outside the population as a replica that is never
//! online — the send counts, it is lost to offline, nothing is queued —
//! where all three used to index out of bounds.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rumor::churn::OnlineSet;
use rumor::cluster::{ClusterBuilder, ClusterReport};
use rumor::core::{
    Lineage, Message, PartialList, ProtocolConfig, PushMessage, ReplicaPeer, Update, Value,
};
use rumor::net::{Effect, EffectSink, PerfectLinks, SyncEngine};
use rumor::sim::{PaperProtocol, Protocol, Scenario, UpdateEvent};
use rumor::types::{DataKey, PeerId, Round, UpdateId};

const POPULATION: usize = 4;
const STRANGER: PeerId = PeerId::new(1_000_000);

/// Fanout above everything a replica can know, so the stranger is a
/// target of every push; no staleness pulls, so the run drains.
fn config() -> ProtocolConfig {
    ProtocolConfig::builder(POPULATION)
        .fanout_absolute(8)
        .build()
        .expect("valid config")
}

#[test]
fn the_engine_counts_a_send_to_an_unroutable_id_as_lost_to_offline() {
    let mut nodes: Vec<ReplicaPeer> = (0..POPULATION as u32)
        .map(|id| ReplicaPeer::new(PeerId::new(id), config()))
        .collect();
    let online = OnlineSet::all_online(POPULATION);
    let mut engine = SyncEngine::new(POPULATION);
    let mut rng = ChaCha8Rng::seed_from_u64(5);

    // Peer 1 pushes to peer 0 with a list naming a stranger…
    let update = Update::write(
        DataKey::new(1),
        Lineage::root(&mut rng),
        Value::from("v"),
        PeerId::new(1),
    );
    let push = Message::Push(PushMessage {
        update,
        push_round: 1,
        flood_list: PartialList::from_peers([PeerId::new(1), STRANGER]),
    });
    engine.inject(PeerId::new(1), [Effect::send(PeerId::new(0), push)]);
    engine.step(&mut nodes, &online, &PerfectLinks, &mut rng);
    assert!(nodes[0].known_replicas().any(|p| p == STRANGER));

    // …and peer 0's next update is addressed to it.
    let mut out = EffectSink::new();
    nodes[0].initiate_update(
        DataKey::new(2),
        Some(Value::from("w")),
        engine.round(),
        &mut rng,
        &mut out,
    );
    let to_stranger = |e: &Effect<Message>| matches!(e, Effect::Send { to, .. } if *to == STRANGER);
    assert_eq!(out.iter().filter(|e| to_stranger(e)).count(), 1);
    let lost_before = engine.stats().lost_offline;
    let (sent_before, queued_before) = (engine.stats().sent, engine.in_flight());
    let sends = out.len();
    engine.inject(PeerId::new(0), out.drain());
    assert_eq!(engine.stats().sent, sent_before + sends as u64);
    assert_eq!(engine.stats().lost_offline, lost_before + 1);
    assert_eq!(engine.in_flight(), queued_before + sends - 1);

    engine.run_to_quiescence(&mut nodes, &online, &PerfectLinks, &mut rng, 50);
    assert!(engine.is_quiescent());
    let stats = engine.stats();
    assert_eq!(
        stats.sent,
        stats.delivered + stats.lost_offline + stats.lost_fault
    );
}

/// The paper protocol with one more row in everybody's replica list.
struct NameDropper(PaperProtocol);

impl Protocol for NameDropper {
    type Node = ReplicaPeer;

    fn name(&self) -> String {
        self.0.name()
    }

    fn spawn(&self, id: PeerId, mut known: Vec<PeerId>, online_at_start: bool) -> ReplicaPeer {
        known.push(STRANGER);
        self.0.spawn(id, known, online_at_start)
    }

    fn initiate(
        &self,
        node: &mut ReplicaPeer,
        event: &UpdateEvent,
        round: Round,
        rng: &mut ChaCha8Rng,
        out: &mut EffectSink<Message>,
    ) -> UpdateId {
        self.0.initiate(node, event, round, rng, out)
    }

    fn is_aware(&self, node: &ReplicaPeer, update: UpdateId) -> bool {
        self.0.is_aware(node, update)
    }
}

fn event() -> UpdateEvent {
    UpdateEvent {
        round: 0,
        key: DataKey::from_name("motd"),
        delete: false,
        sequence: 0,
    }
}

fn assert_the_stranger_cost_sends_and_nothing_else(report: &ClusterReport) {
    assert_eq!(report.aware_online, POPULATION, "the push still spreads");
    assert!(
        report.lost_offline >= 1,
        "the stranger's frames are lost to offline"
    );
    assert_eq!(
        report.frames_sent,
        report.frames_delivered + report.lost_offline + report.lost_fault,
        "every frame is accounted exactly once"
    );
    assert_eq!(report.decode_errors + report.version_mismatches, 0);
}

#[test]
fn virtual_time_counts_a_send_to_an_unroutable_id_as_lost_to_offline() {
    let scenario = Scenario::builder(POPULATION, 7).build().expect("valid");
    let mut cluster =
        ClusterBuilder::new(&scenario).virtual_time(NameDropper(PaperProtocol::new(config())));
    let update = cluster.initiate(&event()).expect("someone online");
    cluster.run_rounds(20);
    assert!(cluster.is_quiescent());
    assert_the_stranger_cost_sends_and_nothing_else(&cluster.report(update));
}

#[test]
fn two_shards_count_a_send_to_an_unroutable_id_as_lost_to_offline() {
    let scenario = Scenario::builder(POPULATION, 7).build().expect("valid");
    let mut cluster = ClusterBuilder::new(&scenario)
        .workers(2)
        .sharded(NameDropper(PaperProtocol::new(config())));
    let update = cluster.initiate(&event()).expect("someone online");
    cluster.run_rounds(20);
    assert!(cluster.is_quiescent(), "sent == consumed must close");
    assert_the_stranger_cost_sends_and_nothing_else(&cluster.finish(update));
}
