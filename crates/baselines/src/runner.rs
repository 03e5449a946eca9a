//! The historical baseline setup, for this crate's unit tests only: fully
//! connected, perfect links, no churn, mounted straight on the shared
//! [`rumor_sim::Driver`]. Everything else mounts a baseline into a
//! `Scenario` through the `Protocol` factories in [`crate::protocols`].

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rumor_churn::{OnlineSet, StaticChurn};
use rumor_net::{Node, PerfectLinks};
use rumor_sim::{ConvergenceSpec, Driver};
use rumor_types::derive_seed;

/// A driver over `nodes` with the first `online_count` online. The
/// `"baseline-protocol"` / `"baseline-churn"` substreams are what the
/// tests' seeds have always derived from, so their draws are pinned.
pub(crate) fn driver<N: Node>(nodes: Vec<N>, online_count: usize, seed: u64) -> Driver<N> {
    let online = OnlineSet::with_online_count(nodes.len(), online_count);
    Driver::assemble(
        nodes,
        online,
        Box::new(StaticChurn::new()),
        Box::new(PerfectLinks),
        ChaCha8Rng::seed_from_u64(derive_seed(seed, "baseline-protocol")),
        ChaCha8Rng::seed_from_u64(derive_seed(seed, "baseline-churn")),
        ConvergenceSpec::default(),
    )
}

mod tests {
    use super::*;
    use crate::flood::GnutellaNode;
    use rumor_churn::MarkovChurn;
    use rumor_sim::Scenario;
    use rumor_types::{PeerId, UpdateId};

    fn rumor() -> UpdateId {
        UpdateId::from_bits(5)
    }

    fn gnutella(population: u32) -> Vec<GnutellaNode> {
        (0..population)
            .map(|i| GnutellaNode::fully_connected(i, population as usize, 3, 6))
            .collect()
    }

    #[test]
    fn driver_counts_messages_and_rounds() {
        let mut sim = driver(gnutella(30), 30, 1);
        sim.apply(PeerId::new(0), |n, rng, out| {
            n.seed_rumor(rumor(), rng, out)
        });
        let rounds = sim.run_until_quiescent(20);
        assert!(rounds > 0);
        assert!(sim.messages() >= 3);
        assert!(sim.messages_per_initial_online() > 0.0);
        assert_eq!(sim.rounds_run(), rounds);
    }

    #[test]
    fn offline_nodes_do_not_participate() {
        let mut sim = driver(gnutella(30), 1, 2); // only node 0 online
        sim.apply(PeerId::new(0), |n, rng, out| {
            n.seed_rumor(rumor(), rng, out)
        });
        sim.run_until_quiescent(20);
        // Messages were sent but nobody received: awareness stays at the
        // initiator.
        assert!(sim.aware_fraction(|n| n.knows(rumor())) >= 0.99);
        assert_eq!(sim.nodes().iter().filter(|n| n.knows(rumor())).count(), 1);
    }

    #[test]
    fn churn_is_applied() {
        let mut sim = driver(gnutella(100), 100, 3);
        sim.set_churn(Box::new(MarkovChurn::new(0.5, 0.0).unwrap()));
        sim.run_rounds(10);
        assert!(sim.online().online_count() < 10, "σ=0.5 decimates quickly");
    }

    #[test]
    fn oversized_online_count_is_an_error_not_a_panic() {
        let err = Scenario::builder(30, 4)
            .online_count(31)
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("exceeds population"), "{err}");
    }
}
