//! P-Grid × gossip integration: updates run inside overlay partitions and
//! topology data itself is gossipable (§3).

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rumor::churn::{OnlineSet, StaticChurn};
use rumor::core::{ProtocolConfig, ReplicaPeer, Value};
use rumor::net::PerfectLinks;
use rumor::pgrid::{key_to_path, PGrid, RoutingChange};
use rumor::sim::{ConvergenceSpec, Driver};
use rumor::types::{DataKey, PeerId, Round};

fn build_grid(seed: u64) -> PGrid {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    PGrid::build(256, 4, 60, &mut rng)
}

/// One partition's replicas, all online, no churn, perfect links; `rng`
/// draws every protocol choice.
fn drive(replicas: Vec<ReplicaPeer>, rng: ChaCha8Rng) -> Driver<ReplicaPeer> {
    let n = replicas.len();
    Driver::assemble(
        replicas,
        OnlineSet::all_online(n),
        Box::new(StaticChurn::new()),
        Box::new(PerfectLinks),
        rng,
        ChaCha8Rng::seed_from_u64(0),
        ConvergenceSpec::default(),
    )
}

#[test]
fn every_partition_can_host_the_update_protocol() {
    let grid = build_grid(1);

    // Pick three keys in different partitions and gossip an update within
    // each partition.
    let keys: Vec<DataKey> = ["a", "b", "c"]
        .iter()
        .map(|n| DataKey::from_name(n))
        .collect();
    for (i, key) in keys.into_iter().enumerate() {
        let partition = grid.replica_partition(key);
        assert!(
            partition.len() >= 4,
            "partition for {} too small: {}",
            key_to_path(key, 4),
            partition.len()
        );
        let n = partition.len();
        // Small fanout plus the no_updates_since pull trigger: any peer
        // the probabilistic push misses catches up by anti-entropy.
        let config = ProtocolConfig::builder(n)
            .fanout_absolute(3)
            .staleness_rounds(6)
            .build()
            .unwrap();
        let replicas: Vec<ReplicaPeer> = (0..n)
            .map(|i| {
                let mut p = ReplicaPeer::new(PeerId::new(i as u32), config.clone());
                p.learn_replicas((0..n as u32).map(PeerId::new));
                p
            })
            .collect();
        let mut driver = drive(replicas, ChaCha8Rng::seed_from_u64(2 + i as u64));
        let update = driver.apply(PeerId::new(0), |peer, rng, out| {
            peer.initiate_update(key, Some(Value::from("payload")), Round::ZERO, rng, out)
        });
        driver.run_rounds(30);
        let aware = driver
            .nodes()
            .iter()
            .filter(|r| r.has_processed(update.id()))
            .count();
        assert_eq!(aware, n, "the whole partition learns the update");
    }
}

#[test]
fn gossiped_routing_change_updates_tables() {
    let mut grid = build_grid(3);
    let key = DataKey::from_name("routing/epoch-7");
    let partition = grid.replica_partition(key);
    let n = partition.len();

    // As in the test above: the probabilistic push alone covers *nearly*
    // the whole partition (the paper's claim), and the `no_updates_since`
    // pull trigger repairs whatever the flood misses.
    let config = ProtocolConfig::builder(n)
        .fanout_absolute(3)
        .staleness_rounds(6)
        .build()
        .unwrap();
    let replicas: Vec<ReplicaPeer> = (0..n)
        .map(|i| {
            let mut p = ReplicaPeer::new(PeerId::new(i as u32), config.clone());
            p.learn_replicas((0..n as u32).map(PeerId::new));
            p
        })
        .collect();

    let change = RoutingChange::new(1, vec![PeerId::new(200), PeerId::new(201)]);
    let payload = Value::from(change.to_bytes());
    let mut driver = drive(replicas, ChaCha8Rng::seed_from_u64(4));
    driver.apply(PeerId::new(0), |peer, rng, out| {
        peer.initiate_update(key, Some(payload), Round::ZERO, rng, out)
    });
    // A fixed horizon, not `run_until_quiescent`: the driver considers
    // the system quiescent as soon as the push flood dies out, which is
    // *before* the periodic staleness pull ever fires (by design the
    // hybrid protocol keeps polling and never goes fully quiet).
    driver.run_rounds(40);

    let mut applied = 0;
    for (local, &overlay_id) in partition.iter().enumerate() {
        let stored = driver.nodes()[local]
            .store()
            .get(key)
            .expect("gossip delivered");
        let decoded = RoutingChange::from_bytes(stored.as_bytes()).expect("payload decodes");
        decoded.apply_to(grid.peer_mut(overlay_id));
        applied += 1;
        // The refs are installed (refresh semantics evict if full).
        let refs = grid.peer(overlay_id).routing().level_refs(1);
        assert!(refs.contains(&PeerId::new(200)) && refs.contains(&PeerId::new(201)));
    }
    assert_eq!(applied, n);
}

#[test]
fn partition_sizes_match_paper_expectations() {
    // §2 expects "a few hundred to thousand replicas" per item at scale;
    // at our test scale the point is that partitions are balanced enough
    // for the gossip fanout mathematics to apply uniformly.
    let grid = build_grid(5);
    let sizes = grid.partition_sizes();
    let avg = grid.len() as f64 / sizes.len() as f64;
    for (path, n) in &sizes {
        assert!(
            (*n as f64) > avg * 0.25 && (*n as f64) < avg * 4.0,
            "partition {path} size {n} far from average {avg}"
        );
    }
}
