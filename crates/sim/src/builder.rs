//! Simulation construction.
//!
//! [`SimulationBuilder`] is the historical paper-protocol entry point,
//! now a thin typed wrapper over the declarative
//! [`Scenario`](crate::Scenario) API: it validates the same environment
//! knobs, derives the same seeded random streams, and mounts
//! [`PaperProtocol`](crate::PaperProtocol) into the shared
//! [`Driver`](crate::Driver).

use crate::driver::PaperProtocol;
use crate::error::SimError;
use crate::runner::Simulation;
use crate::scenario::{ConvergenceSpec, Scenario, TopologySpec};
use rumor_churn::Churn;
use rumor_core::ProtocolConfig;
use rumor_net::Partition;

/// Builder for [`Simulation`].
///
/// # Examples
///
/// ```
/// use rumor_sim::{SimulationBuilder, TopologySpec};
/// use rumor_churn::MarkovChurn;
///
/// let sim = SimulationBuilder::new(1_000, 7)
///     .online_fraction(0.1)
///     .topology(TopologySpec::RandomSubset { k: 50 })
///     .churn(MarkovChurn::new(0.95, 0.0)?)
///     .build()?;
/// assert_eq!(sim.population(), 1_000);
/// assert_eq!(sim.online().online_count(), 100);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct SimulationBuilder {
    population: usize,
    seed: u64,
    online_count: Option<usize>,
    topology: TopologySpec,
    churn: Option<Box<dyn Churn>>,
    protocol: Option<ProtocolConfig>,
    loss: f64,
    partition: Option<Partition>,
    convergence: ConvergenceSpec,
}

impl std::fmt::Debug for SimulationBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimulationBuilder")
            .field("population", &self.population)
            .field("seed", &self.seed)
            .field("online_count", &self.online_count)
            .field("topology", &self.topology)
            .field("loss", &self.loss)
            .finish_non_exhaustive()
    }
}

impl SimulationBuilder {
    /// Starts building a simulation of `population` replicas with a
    /// top-level `seed` from which every random stream derives.
    pub fn new(population: usize, seed: u64) -> Self {
        Self {
            population,
            seed,
            online_count: None,
            topology: TopologySpec::Full,
            churn: None,
            protocol: None,
            loss: 0.0,
            partition: None,
            convergence: ConvergenceSpec::default(),
        }
    }

    /// Sets the initially online peer count.
    pub fn online_count(mut self, count: usize) -> Self {
        self.online_count = Some(count);
        self
    }

    /// Sets the initially online fraction of the population.
    pub fn online_fraction(mut self, fraction: f64) -> Self {
        self.online_count = Some((self.population as f64 * fraction).round() as usize);
        self
    }

    /// Sets the knowledge-graph topology.
    pub fn topology(mut self, spec: TopologySpec) -> Self {
        self.topology = spec;
        self
    }

    /// Installs an availability model (default: no churn).
    pub fn churn(mut self, churn: impl Churn + 'static) -> Self {
        self.churn = Some(Box::new(churn));
        self
    }

    /// Installs a protocol configuration (default:
    /// `ProtocolConfig::builder(population)` defaults).
    pub fn protocol(mut self, config: ProtocolConfig) -> Self {
        self.protocol = Some(config);
        self
    }

    /// Adds independent message loss with probability `p`.
    pub fn loss(mut self, p: f64) -> Self {
        self.loss = p.clamp(0.0, 1.0);
        self
    }

    /// Adds a network partition.
    pub fn partition(mut self, partition: Partition) -> Self {
        self.partition = Some(partition);
        self
    }

    /// Overrides the convergence criterion used by
    /// [`Simulation::track_update`] (default:
    /// [`ConvergenceSpec::default`]).
    pub fn convergence(mut self, spec: ConvergenceSpec) -> Self {
        self.convergence = spec;
        self
    }

    /// Builds the simulation.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] when the population is empty, the online
    /// count exceeds it, or the protocol configuration is invalid.
    pub fn build(self) -> Result<Simulation, SimError> {
        let config = match self.protocol {
            Some(c) => c,
            None => ProtocolConfig::builder(self.population).build()?,
        };
        let mut scenario = Scenario::builder(self.population, self.seed)
            .topology(self.topology)
            .loss(self.loss)
            .convergence(self.convergence);
        if let Some(count) = self.online_count {
            scenario = scenario.online_count(count);
        }
        if let Some(partition) = self.partition {
            scenario = scenario.partition(partition);
        }
        let scenario = scenario.build()?;
        let protocol = PaperProtocol::new(config);
        let driver = match self.churn {
            Some(churn) => scenario.drive_with_churn(&protocol, churn),
            None => scenario.drive(&protocol),
        };
        Ok(Simulation::from_parts(driver, protocol))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rumor_types::PeerId;

    #[test]
    fn builds_with_defaults() {
        let sim = SimulationBuilder::new(10, 1).build().unwrap();
        assert_eq!(sim.population(), 10);
        assert_eq!(sim.online().online_count(), 10, "default: everyone online");
    }

    #[test]
    fn online_fraction_rounds() {
        let sim = SimulationBuilder::new(10, 1)
            .online_fraction(0.25)
            .build()
            .unwrap();
        assert_eq!(sim.online().online_count(), 3);
    }

    #[test]
    fn rejects_empty_population() {
        assert!(SimulationBuilder::new(0, 1).build().is_err());
    }

    #[test]
    fn rejects_online_overflow() {
        assert!(SimulationBuilder::new(5, 1)
            .online_count(6)
            .build()
            .is_err());
    }

    #[test]
    fn rejects_all_offline() {
        assert!(SimulationBuilder::new(5, 1)
            .online_count(0)
            .build()
            .is_err());
    }

    #[test]
    fn rejects_oversized_subset_degree() {
        let r = SimulationBuilder::new(5, 1)
            .topology(TopologySpec::RandomSubset { k: 5 })
            .build();
        assert!(r.is_err());
    }

    #[test]
    fn offline_peers_start_unconfident() {
        let sim = SimulationBuilder::new(4, 1)
            .online_count(2)
            .build()
            .unwrap();
        assert!(sim.peer(PeerId::new(0)).is_confident());
        assert!(!sim.peer(PeerId::new(3)).is_confident());
    }

    #[test]
    fn subset_topology_limits_knowledge() {
        let sim = SimulationBuilder::new(50, 1)
            .topology(TopologySpec::RandomSubset { k: 5 })
            .build()
            .unwrap();
        assert!((0..50).all(|i| sim.peer(PeerId::new(i)).known_count() == 5));
    }

    #[test]
    fn convergence_override_loosens_tracking() {
        // target 0.5: tracking stops as soon as half the online peers
        // are aware, well before full coverage.
        let loose = ConvergenceSpec {
            target: 0.5,
            ..ConvergenceSpec::default()
        };
        let run = |spec: Option<ConvergenceSpec>| {
            let mut b = SimulationBuilder::new(300, 5);
            if let Some(s) = spec {
                b = b.convergence(s);
            }
            let mut sim = b.build().unwrap();
            sim.propagate(rumor_types::DataKey::from_name("c"), "v", 60)
        };
        let strict = run(None);
        let loose = run(Some(loose));
        assert!(loose.rounds <= strict.rounds);
        assert!(loose.aware_online_fraction < strict.aware_online_fraction);
    }
}
