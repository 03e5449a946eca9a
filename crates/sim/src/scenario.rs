//! Declarative experiment scenarios.
//!
//! A [`Scenario`] captures *everything about the environment* — population,
//! seed, topology, churn, link faults, initial availability, the update
//! workload, and the convergence criterion — while saying nothing about
//! the protocol under test. Mount any [`Protocol`](crate::Protocol) into
//! it with [`Scenario::drive`] and every contender (the paper peer,
//! Gnutella flooding, GOSSIP1, Demers anti-entropy, a P-Grid-hosted
//! partition) runs in the same environment: the identical topology draw,
//! initial availability and churn trajectory (topology and churn have
//! dedicated seeded streams), and the same loss/partition parameters.
//! Loss coin flips ride the protocol stream, so their *realisations*
//! are exactly replayed when the same protocol is driven twice, but
//! differ between protocols that consume randomness differently.
//!
//! Link *latency* is deliberately not a scenario knob: the driver runs
//! the paper's synchronous round model, where every message takes
//! exactly one round (§4.1). Variable-latency experiments belong to
//! `rumor_cluster`'s `DelaySpec`, outside this harness.
//!
//! # Examples
//!
//! ```
//! use rumor_churn::MarkovChurn;
//! use rumor_core::ProtocolConfig;
//! use rumor_sim::{PaperProtocol, Scenario, TopologySpec};
//!
//! let scenario = Scenario::builder(500, 42)
//!     .online_fraction(0.4)
//!     .topology(TopologySpec::RandomSubset { k: 50 })
//!     .churn(MarkovChurn::new(0.98, 0.01)?)
//!     .loss(0.05)
//!     .build()?;
//!
//! let config = ProtocolConfig::builder(500).fanout_fraction(0.04).build()?;
//! let protocol = PaperProtocol::new(config);
//! let mut driver = scenario.drive(&protocol);
//! driver.run_rounds(10);
//! assert_eq!(driver.population(), 500);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use crate::driver::{Driver, Protocol};
use crate::error::SimError;
use crate::report::WorkloadReport;
use crate::workload::UpdateEvent;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rumor_churn::{Churn, OnlineSet, StaticChurn};
use rumor_net::{topology, BernoulliLoss, LinkFilter, Partition, PerfectLinks};
use rumor_obs::{NopTracer, Tracer};
use rumor_types::{derive_seed, PeerId};
use serde::{Deserialize, Serialize};

/// How much of the replica set each peer initially knows (§2: "each
/// replica knows a minimal fraction of the complete set of replicas").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopologySpec {
    /// Everyone knows everyone.
    Full,
    /// Each peer knows `k` uniformly random peers.
    RandomSubset {
        /// Out-degree of the knowledge graph.
        k: usize,
    },
}

/// When a tracked propagation is considered finished: `patience`
/// consecutive rounds improving awareness by less than `epsilon`, or
/// awareness reaching `target`.
///
/// The default reproduces the criterion the simulator has always used
/// (`epsilon = 1e-9`, `patience = 3`, `target = 1.0`); scenarios can
/// loosen it (e.g. `target = 0.999`, the paper's "arbitrarily close
/// to 1") via [`ScenarioBuilder::convergence`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ConvergenceSpec {
    /// Minimum per-round awareness improvement that counts as progress.
    pub epsilon: f64,
    /// Consecutive stalled rounds tolerated before declaring convergence.
    pub patience: u32,
    /// Awareness fraction at which convergence is immediate.
    pub target: f64,
}

impl Default for ConvergenceSpec {
    fn default() -> Self {
        Self {
            epsilon: 1e-9,
            patience: 3,
            target: 1.0,
        }
    }
}

/// A fully validated experiment environment; build via
/// [`Scenario::builder`], then mount protocols with [`Scenario::drive`].
///
/// A scenario is reusable: driving the same protocol twice replays the
/// run bit for bit, and driving different protocols pairs the topology
/// draw, initial availability and churn trajectory exactly — which is
/// what makes cross-protocol comparisons and A/B parameter sweeps
/// honest.
pub struct Scenario {
    population: usize,
    seed: u64,
    online_count: usize,
    topology: TopologySpec,
    churn: Box<dyn Fn() -> Box<dyn Churn>>,
    loss: f64,
    partition: Option<Partition>,
    workload: Vec<UpdateEvent>,
    convergence: ConvergenceSpec,
}

impl std::fmt::Debug for Scenario {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scenario")
            .field("population", &self.population)
            .field("seed", &self.seed)
            .field("online_count", &self.online_count)
            .field("topology", &self.topology)
            .field("loss", &self.loss)
            .field("workload_events", &self.workload.len())
            .finish_non_exhaustive()
    }
}

impl Scenario {
    /// Starts building a scenario of `population` peers whose every
    /// random stream derives from `seed`.
    pub fn builder(population: usize, seed: u64) -> ScenarioBuilder {
        ScenarioBuilder::new(population, seed)
    }

    /// Total population size `R`.
    pub fn population(&self) -> usize {
        self.population
    }

    /// The top-level experiment seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Peers online at round 0.
    pub fn online_count(&self) -> usize {
        self.online_count
    }

    /// The scheduled update workload (possibly empty).
    pub fn workload(&self) -> &[UpdateEvent] {
        &self.workload
    }

    /// The convergence criterion handed to every driver.
    pub fn convergence(&self) -> ConvergenceSpec {
        self.convergence
    }

    /// The scenario's topology draw: each peer's known-replica row (self
    /// excluded). Deterministic per scenario.
    fn adjacency(&self) -> Vec<Vec<PeerId>> {
        let mut topo_rng = ChaCha8Rng::seed_from_u64(derive_seed(self.seed, "topology"));
        match self.topology {
            TopologySpec::Full => topology::full(self.population),
            TopologySpec::RandomSubset { k } => {
                topology::random_subsets(self.population, k, &mut topo_rng)
            }
        }
    }

    /// Spawns the population through `protocol`, in id order, each peer
    /// with its topology row and its availability in `online` (the
    /// round-0 [`Scenario::initial_online_set`]). The one mount of every
    /// runtime, driver and live cluster, so all see one knowledge graph.
    pub fn spawn<'a, P: Protocol>(
        &'a self,
        protocol: &'a P,
        online: &'a OnlineSet,
    ) -> impl Iterator<Item = (PeerId, P::Node)> + 'a {
        self.adjacency()
            .into_iter()
            .enumerate()
            .map(move |(i, known)| {
                let id = PeerId::new(i as u32);
                (id, protocol.spawn(id, known, online.is_online(id)))
            })
    }

    /// The round-0 availability state.
    pub fn initial_online_set(&self) -> OnlineSet {
        OnlineSet::with_online_count(self.population, self.online_count)
    }

    /// A fresh churn instance from the scenario's factory (every mount
    /// sees the same churn model; pair it with the `"churn"`-derived RNG
    /// stream to replay the same trajectory).
    pub fn make_churn(&self) -> Box<dyn Churn> {
        (self.churn)()
    }

    /// The configured message-loss probability.
    pub fn loss(&self) -> f64 {
        self.loss
    }

    /// The scenario's composed link-fault filter (partition before loss,
    /// so a cross-partition message consumes no loss randomness — it was
    /// never going to be delivered). Thread-safe so the live cluster
    /// runtime can share one filter across node threads.
    pub fn link_filter(&self) -> Box<dyn LinkFilter + Send + Sync> {
        match (self.loss > 0.0, self.partition.clone()) {
            (false, None) => Box::new(PerfectLinks),
            (true, None) => Box::new(BernoulliLoss::new(self.loss)),
            (false, Some(p)) => Box::new(p),
            (true, Some(p)) => Box::new((p, BernoulliLoss::new(self.loss))),
        }
    }

    /// Mounts `protocol` into the scenario, producing a ready-to-run
    /// [`Driver`]. Every call replays identical environment randomness.
    pub fn drive<P: Protocol>(&self, protocol: &P) -> Driver<P::Node> {
        self.drive_traced(protocol, NopTracer)
    }

    /// Like [`Scenario::drive`] but capturing structured trace events
    /// into `tracer`. Tracing consumes no randomness, so the traced run
    /// replays the untraced one bit for bit.
    pub fn drive_traced<P: Protocol, T: Tracer>(
        &self,
        protocol: &P,
        tracer: T,
    ) -> Driver<P::Node, T> {
        let online = self.initial_online_set();
        let nodes = self
            .spawn(protocol, &online)
            .map(|(_, node)| node)
            .collect();
        let mut driver = Driver::assemble_traced(
            nodes,
            online,
            self.make_churn(),
            self.link_filter(),
            ChaCha8Rng::seed_from_u64(derive_seed(self.seed, "protocol")),
            ChaCha8Rng::seed_from_u64(derive_seed(self.seed, "churn")),
            self.convergence,
            tracer,
        );
        driver.set_msg_sizer(protocol.wire_sizer());
        driver.set_msg_kind(protocol.trace_msg_kind());
        driver
    }

    /// Convenience: mounts `protocol`, executes the scenario's own
    /// workload schedule, and returns the per-update report.
    pub fn run<P: Protocol>(&self, protocol: &P, settle_rounds: u32) -> WorkloadReport {
        let mut driver = self.drive(protocol);
        driver.run_workload(protocol, &self.workload, settle_rounds)
    }
}

/// Fallible builder for [`Scenario`].
///
/// # Examples
///
/// ```
/// use rumor_sim::{Scenario, WorkloadBuilder};
///
/// let workload = WorkloadBuilder::new(9).rate_per_round(0.2).rounds(40).generate();
/// let scenario = Scenario::builder(200, 9)
///     .online_fraction(0.5)
///     .workload(workload)
///     .build()?;
/// assert_eq!(scenario.online_count(), 100);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct ScenarioBuilder {
    population: usize,
    seed: u64,
    online_count: Option<usize>,
    topology: TopologySpec,
    churn: Box<dyn Fn() -> Box<dyn Churn>>,
    loss: f64,
    partition: Option<Partition>,
    workload: Vec<UpdateEvent>,
    convergence: ConvergenceSpec,
}

impl std::fmt::Debug for ScenarioBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScenarioBuilder")
            .field("population", &self.population)
            .field("seed", &self.seed)
            .field("online_count", &self.online_count)
            .field("topology", &self.topology)
            .field("loss", &self.loss)
            .finish_non_exhaustive()
    }
}

impl ScenarioBuilder {
    /// Starts building a scenario of `population` peers seeded by `seed`.
    pub fn new(population: usize, seed: u64) -> Self {
        Self {
            population,
            seed,
            online_count: None,
            topology: TopologySpec::Full,
            churn: Box::new(|| Box::new(StaticChurn::new())),
            loss: 0.0,
            partition: None,
            workload: Vec::new(),
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

    /// Installs an availability model (default: no churn). The model is
    /// cloned per [`Scenario::drive`] so every mounted protocol sees the
    /// same churn trajectory.
    pub fn churn(mut self, churn: impl Churn + Clone + 'static) -> Self {
        self.churn = Box::new(move || Box::new(churn.clone()));
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

    /// Schedules an update workload (see
    /// [`WorkloadBuilder`](crate::WorkloadBuilder)) for
    /// [`Scenario::run`] / [`Driver::run_workload`](crate::Driver::run_workload).
    pub fn workload(mut self, events: Vec<UpdateEvent>) -> Self {
        self.workload = events;
        self
    }

    /// Overrides the convergence criterion (default:
    /// [`ConvergenceSpec::default`]).
    pub fn convergence(mut self, spec: ConvergenceSpec) -> Self {
        self.convergence = spec;
        self
    }

    /// Validates and freezes the scenario.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] when the population is empty, the online
    /// count exceeds it or is zero, or the subset topology degree is not
    /// below the population.
    pub fn build(self) -> Result<Scenario, SimError> {
        if self.population == 0 {
            return Err(SimError::InvalidSetup {
                reason: "population must be non-empty".into(),
            });
        }
        let online_count = self.online_count.unwrap_or(self.population);
        if online_count > self.population {
            return Err(SimError::InvalidSetup {
                reason: format!(
                    "online count {online_count} exceeds population {}",
                    self.population
                ),
            });
        }
        if online_count == 0 {
            return Err(SimError::InvalidSetup {
                reason: "at least one peer must start online".into(),
            });
        }
        if let TopologySpec::RandomSubset { k } = self.topology {
            if k >= self.population {
                return Err(SimError::InvalidSetup {
                    reason: format!(
                        "subset degree {k} must be below population {}",
                        self.population
                    ),
                });
            }
        }
        Ok(Scenario {
            population: self.population,
            seed: self.seed,
            online_count,
            topology: self.topology,
            churn: self.churn,
            loss: self.loss,
            partition: self.partition,
            workload: self.workload,
            convergence: self.convergence,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::tests::{mount, propagate};
    use crate::driver::PaperProtocol;
    use rumor_churn::MarkovChurn;
    use rumor_core::ProtocolConfig;
    use rumor_types::DataKey;

    fn paper(population: usize) -> PaperProtocol {
        PaperProtocol::new(defaults(population))
    }

    fn defaults(population: usize) -> ProtocolConfig {
        ProtocolConfig::builder(population).build().unwrap()
    }

    #[test]
    fn builds_with_defaults() {
        let s = Scenario::builder(10, 1).build().unwrap();
        assert_eq!(s.population(), 10);
        assert_eq!(s.online_count(), 10, "default: everyone online");
        assert!(s.workload().is_empty());
    }

    #[test]
    fn drives_with_defaults() {
        let scenario = Scenario::builder(10, 1).build().unwrap();
        let driver = scenario.drive(&paper(10));
        assert_eq!(driver.population(), 10);
        assert_eq!(
            driver.online().online_count(),
            10,
            "default: everyone online"
        );
    }

    #[test]
    fn rejects_invalid_setups() {
        assert!(Scenario::builder(0, 1).build().is_err());
        assert!(Scenario::builder(5, 1).online_count(6).build().is_err());
        assert!(Scenario::builder(5, 1).online_count(0).build().is_err());
        assert!(Scenario::builder(5, 1)
            .topology(TopologySpec::RandomSubset { k: 5 })
            .build()
            .is_err());
    }

    #[test]
    fn driving_twice_replays_identical_randomness() {
        let scenario = Scenario::builder(100, 7)
            .online_fraction(0.5)
            .churn(MarkovChurn::new(0.9, 0.05).unwrap())
            .build()
            .unwrap();
        let protocol = paper(100);
        let run = |scenario: &Scenario| {
            let mut driver = scenario.drive(&protocol);
            let update = driver
                .initiate(
                    &protocol,
                    None,
                    &crate::workload::UpdateEvent {
                        round: 0,
                        key: rumor_types::DataKey::from_name("k"),
                        delete: false,
                        sequence: 0,
                    },
                )
                .unwrap();
            let report = driver.track_update(&protocol, update, 30);
            (report.rounds, report.total_messages, report.per_round)
        };
        assert_eq!(run(&scenario), run(&scenario));
    }

    #[test]
    fn convergence_spec_is_threaded_to_drivers() {
        let spec = ConvergenceSpec {
            epsilon: 0.5,
            patience: 1,
            target: 0.1,
        };
        let scenario = Scenario::builder(20, 3).convergence(spec).build().unwrap();
        let driver = scenario.drive(&paper(20));
        assert_eq!(driver.convergence(), spec);
    }

    #[test]
    fn subset_topology_limits_knowledge() {
        let scenario = Scenario::builder(50, 1)
            .topology(TopologySpec::RandomSubset { k: 5 })
            .build()
            .unwrap();
        let driver = scenario.drive(&paper(50));
        assert!((0..50).all(|i| driver.node(PeerId::new(i)).known_count() == 5));
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
