//! Scenario validation and environment setup as the mounted paper peer
//! sees it, for this crate's unit tests only.

mod tests {
    use crate::runner::{mount, propagate};
    use crate::scenario::{ConvergenceSpec, Scenario, TopologySpec};
    use rumor_core::ProtocolConfig;
    use rumor_types::{DataKey, PeerId};

    fn defaults(population: usize) -> ProtocolConfig {
        ProtocolConfig::builder(population).build().unwrap()
    }

    #[test]
    fn builds_with_defaults() {
        let scenario = Scenario::builder(10, 1).build().unwrap();
        let (_, driver) = mount(&scenario, defaults(10));
        assert_eq!(driver.population(), 10);
        assert_eq!(
            driver.online().online_count(),
            10,
            "default: everyone online"
        );
    }

    #[test]
    fn online_fraction_rounds() {
        let scenario = Scenario::builder(10, 1)
            .online_fraction(0.25)
            .build()
            .unwrap();
        let (_, driver) = mount(&scenario, defaults(10));
        assert_eq!(driver.online().online_count(), 3);
    }

    #[test]
    fn rejects_empty_population() {
        assert!(Scenario::builder(0, 1).build().is_err());
    }

    #[test]
    fn rejects_online_overflow() {
        assert!(Scenario::builder(5, 1).online_count(6).build().is_err());
    }

    #[test]
    fn rejects_all_offline() {
        assert!(Scenario::builder(5, 1).online_count(0).build().is_err());
    }

    #[test]
    fn rejects_oversized_subset_degree() {
        let r = Scenario::builder(5, 1)
            .topology(TopologySpec::RandomSubset { k: 5 })
            .build();
        assert!(r.is_err());
    }

    #[test]
    fn offline_peers_start_unconfident() {
        let scenario = Scenario::builder(4, 1).online_count(2).build().unwrap();
        let (_, driver) = mount(&scenario, defaults(4));
        assert!(driver.node(PeerId::new(0)).is_confident());
        assert!(!driver.node(PeerId::new(3)).is_confident());
    }

    #[test]
    fn subset_topology_limits_knowledge() {
        let scenario = Scenario::builder(50, 1)
            .topology(TopologySpec::RandomSubset { k: 5 })
            .build()
            .unwrap();
        let (_, driver) = mount(&scenario, defaults(50));
        assert!((0..50).all(|i| driver.node(PeerId::new(i)).known_count() == 5));
    }

    #[test]
    fn convergence_override_loosens_tracking() {
        // target 0.5: tracking stops as soon as half the online peers
        // are aware, well before full coverage.
        let loose = ConvergenceSpec {
            target: 0.5,
            ..ConvergenceSpec::default()
        };
        let run = |spec: ConvergenceSpec| {
            let scenario = Scenario::builder(300, 5).convergence(spec).build().unwrap();
            let (protocol, mut driver) = mount(&scenario, defaults(300));
            propagate(&mut driver, &protocol, DataKey::from_name("c"), 60)
        };
        let strict = run(ConvergenceSpec::default());
        let loose = run(loose);
        assert!(loose.rounds <= strict.rounds);
        assert!(loose.aware_online_fraction < strict.aware_online_fraction);
    }
}
