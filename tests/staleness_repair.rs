//! Regression test for the flood-dies-before-staleness-pull interaction.
//!
//! The push flood usually blankets a partition but can stochastically
//! miss peers; the `no_updates_since` pull trigger is the safety net. A
//! driver that stops at `Driver::is_quiescent` stops too early: the
//! driver is "quiescent" the moment the flood's last message lands, which
//! is *before* the first staleness pull fires (the hybrid protocol keeps
//! polling and never goes fully quiet). This test pins the repair path:
//! even a flood engineered to miss most peers must converge to full
//! awareness once staleness pulls are given a fixed horizon to run.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rumor::churn::{OnlineSet, StaticChurn};
use rumor::core::{ForwardPolicy, ProtocolConfig, ReplicaPeer, Value};
use rumor::net::PerfectLinks;
use rumor::sim::{ConvergenceSpec, Driver};
use rumor::types::{DataKey, PeerId, Round};

fn population(n: usize, config: &ProtocolConfig) -> Vec<ReplicaPeer> {
    (0..n)
        .map(|i| {
            let mut p = ReplicaPeer::new(PeerId::new(i as u32), config.clone());
            p.learn_replicas((0..n as u32).map(PeerId::new));
            p
        })
        .collect()
}

#[test]
fn staleness_pull_repairs_peers_the_flood_missed() {
    // Fanout 1 and PF = 0 beyond the initiator: the "flood" is a single
    // message, so n - 2 peers are guaranteed to be missed by push.
    let n = 12;
    let config = ProtocolConfig::builder(n)
        .fanout_absolute(1)
        .forward(ForwardPolicy::Constant { p: 0.0 })
        .staleness_rounds(3)
        .build()
        .unwrap();
    let mut driver = Driver::assemble(
        population(n, &config),
        OnlineSet::all_online(n),
        Box::new(StaticChurn::new()),
        Box::new(PerfectLinks),
        ChaCha8Rng::seed_from_u64(17),
        ChaCha8Rng::seed_from_u64(17),
        ConvergenceSpec::default(),
    );

    let key = DataKey::from_name("missed-by-flood");
    let update = driver.apply(PeerId::new(0), |peer, rng, out| {
        peer.initiate_update(key, Some(Value::from("x")), Round::ZERO, rng, out)
    });

    // The flood is spent after two rounds; quiescence here would report
    // convergence falsely.
    driver.run_rounds(2);
    let aware_after_flood = driver
        .nodes()
        .iter()
        .filter(|p| p.has_processed(update.id()))
        .count();
    assert!(
        aware_after_flood <= 2,
        "push with fanout 1 / PF 0 reaches at most the initiator and one target"
    );
    assert!(
        driver.is_quiescent(),
        "the driver reports quiescence before the first staleness pull — \
         the bug this test guards: callers must use a fixed horizon, not \
         run_until_quiescent, when periodic pulls are configured"
    );

    // A fixed horizon lets the periodic pulls run; anti-entropy converges
    // the whole partition.
    driver.run_rounds(30);
    let aware = driver
        .nodes()
        .iter()
        .filter(|p| p.has_processed(update.id()))
        .count();
    assert_eq!(aware, n, "staleness pulls must repair every missed peer");
    for p in driver.nodes() {
        assert_eq!(
            p.store().get(key).expect("converged").as_bytes(),
            b"x",
            "peer {} holds the value",
            p.peer_id()
        );
    }
}
