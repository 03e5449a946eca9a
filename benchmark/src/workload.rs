//! The five named workloads: environment, protocol configuration, size
//! and the rule by which an update counts as delivered.

use crate::api::{
    ConvergenceSpec, DataKey, MarkovChurn, ProtocolConfig, PullStrategy, Scenario, TopologySpec,
    UpdateEvent, WireVersion,
};

/// Untimed updates issued before the timed loop, so caches fill and the
/// first pulls have happened.
pub const WARMUP_UPDATES: u32 = 10;

/// Rounds after which an undelivered update counts as failed.
pub const ROUND_CAP: u32 = 200;

/// Keys the client writes round-robin.
pub const KEYS: u32 = 16;

/// Worker threads of the sharded executor: two workers plus the
/// conductor fit the two cores the reference box has.
pub const CLUSTER_WORKERS: usize = 2;

/// `--seconds` at which a workload runs its [`Spec::updates`]; the
/// `run_seconds` of `BENCHMARK.json`.
pub const REFERENCE_SECONDS: f64 = 16.0;

/// Which execution path a workload drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Path {
    /// `Scenario::drive` + `Driver::track_update`, mounting this protocol.
    Engine(Contender),
    /// `ClusterBuilder::sharded` + `run_until_all_online_aware`, the paper
    /// peer with every message through `rumor-wire` frames of this version.
    Cluster(WireVersion),
}

/// Which protocol is mounted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Contender {
    /// The paper's hybrid push/pull peer.
    Paper,
    /// Demers push-pull anti-entropy: trivial node callbacks, so the
    /// engine, churn and driver dominate.
    AntiEntropy,
}

/// One workload, fully specified.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    /// The name `--workload` selects it by.
    pub name: &'static str,
    /// One sentence on why it exists.
    pub why: &'static str,
    /// Execution path and mounted protocol.
    pub path: Path,
    /// Replicas.
    pub population: usize,
    /// Timed updates of a [`REFERENCE_SECONDS`] run: at least 100, so p90
    /// has ten samples beyond it, and sized so the reference box needs
    /// 12 to 15 of those seconds for the whole untraced pass.
    pub updates: u32,
    /// Replicas each peer knows (`RandomSubset { k }`).
    pub known: usize,
    /// Share of the population online at round 0.
    pub online_fraction: f64,
    /// Markov churn `(stay_online, come_online)` per round.
    pub churn: (f64, f64),
    /// Independent message loss.
    pub loss: f64,
    /// Push fanout of the paper peer.
    pub fanout: usize,
    /// Convergence criterion handed to the driver (`None` = default).
    pub convergence: Option<ConvergenceSpec>,
    /// Online-aware share at which an engine update counts as delivered
    /// (a cluster update is delivered when every online replica is aware).
    pub delivered_at: f64,
}

const STEADY: Spec = Spec {
    name: "",
    why: "",
    path: Path::Engine(Contender::Paper),
    population: 0,
    updates: 0,
    known: 32,
    online_fraction: 0.7,
    churn: (0.97, 0.2),
    loss: 0.03,
    fanout: 4,
    convergence: None,
    delivered_at: 0.99,
};

/// The workloads, in the order `all` runs them.
pub fn all() -> Vec<Spec> {
    vec![
        Spec {
            name: "engine-paper",
            why: "core (push handling, flood-list merge, store) and net do nearly all the work; wire only via frame_len, cluster none",
            population: 640,
            updates: 100,
            ..STEADY
        },
        Spec {
            name: "engine-antientropy",
            why: "bypass for core: trivial node callbacks, so net, churn and sim dominate; a core change must not move it",
            path: Path::Engine(Contender::AntiEntropy),
            population: 1000,
            updates: 150,
            ..STEADY
        },
        Spec {
            name: "engine-paper-offline",
            why: "the paper's title regime, 80% offline: 4 in 5 sends hit an offline peer, so pushes fan out wide and carry ~1 kB flood lists",
            population: 1200,
            updates: 110,
            known: 64,
            online_fraction: 0.2,
            churn: (0.95, 0.0125),
            fanout: 64,
            convergence: Some(ConvergenceSpec {
                epsilon: 1e-9,
                patience: 8,
                target: 0.8,
            }),
            delivered_at: 0.8,
            ..STEADY
        },
        Spec {
            name: "cluster-v1",
            why: "live path: every message through rumor-wire v1 frames, cluster cells, conductor, channels and barrier on 2 workers",
            path: Path::Cluster(WireVersion::V1),
            population: 512,
            updates: 180,
            ..STEADY
        },
        Spec {
            name: "cluster-v2",
            why: "same cluster with wire v2 batch frames, zero-copy decode and journal delta pulls; a v1 gain that costs v2 shows here",
            path: Path::Cluster(WireVersion::V2),
            population: 512,
            updates: 100,
            ..STEADY
        },
    ]
}

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<Spec> {
    all().into_iter().find(|s| s.name == name)
}

impl Spec {
    /// The same workload on a smaller population (tests and smoke runs).
    pub fn with_population(mut self, population: usize) -> Self {
        self.population = population;
        self.known = self.known.min(population / 4).max(1);
        self
    }

    /// The environment, every random stream derived from `seed`.
    pub fn scenario(&self, seed: u64) -> Scenario {
        let (stay, come) = self.churn;
        let mut builder = Scenario::builder(self.population, seed)
            .online_fraction(self.online_fraction)
            .topology(TopologySpec::RandomSubset { k: self.known })
            .churn(MarkovChurn::new(stay, come).expect("workload churn is valid"))
            .loss(self.loss);
        if let Some(spec) = self.convergence {
            builder = builder.convergence(spec);
        }
        builder.build().expect("workload scenario is valid")
    }

    /// The paper peer's configuration; delta pulls ride with wire v2.
    pub fn paper_config(&self) -> ProtocolConfig {
        ProtocolConfig::builder(self.population)
            .fanout_absolute(self.fanout)
            .pull_strategy(PullStrategy::Eager)
            .pull_retry(2, 3)
            .staleness_rounds(6)
            .delta_pulls(self.path == Path::Cluster(WireVersion::V2))
            .build()
            .expect("workload protocol config is valid")
    }

    /// The mounted protocol; the cluster paths mount the paper peer.
    pub fn contender(&self) -> Contender {
        match self.path {
            Path::Engine(contender) => contender,
            Path::Cluster(_) => Contender::Paper,
        }
    }

    /// `true` on the live-cluster paths.
    pub fn on_cluster(&self) -> bool {
        matches!(self.path, Path::Cluster(_))
    }

    /// Worker threads the workload runs on (0 on the engine path).
    pub fn workers(&self) -> usize {
        if self.on_cluster() {
            CLUSTER_WORKERS
        } else {
            0
        }
    }

    /// Timed updates of a `--seconds` run: [`Spec::updates`] scaled from
    /// [`REFERENCE_SECONDS`]. `--seconds` sizes the work and never cuts
    /// it, so two commits time the same updates however fast each is.
    pub fn timed_updates(&self, seconds: f64) -> u32 {
        let scaled = f64::from(self.updates) * seconds / REFERENCE_SECONDS;
        (scaled.round() as u32).max(1)
    }
}

/// The client's `sequence`-th request: keys `bench-k0..15` round-robin,
/// every fifth request a delete.
pub fn event(sequence: u32) -> UpdateEvent {
    UpdateEvent {
        round: 0,
        key: DataKey::from_name(&format!("bench-k{}", sequence % KEYS)),
        delete: sequence % 5 == 4,
        sequence,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_resolvable() {
        let specs = all();
        assert_eq!(specs.len(), 5);
        for spec in &specs {
            assert_eq!(by_name(spec.name).as_ref(), Some(spec));
            assert!(spec.why.len() <= 200, "{} why too long", spec.name);
        }
        assert!(by_name("nope").is_none());
    }

    #[test]
    fn client_requests_follow_the_documented_pattern() {
        assert_eq!(event(0).key, event(16).key);
        assert_ne!(event(0).key, event(1).key);
        assert!(!event(3).delete && event(4).delete && event(9).delete);
        assert_eq!(event(7).sequence, 7);
    }

    #[test]
    fn toy_sizes_keep_the_topology_valid() {
        for spec in all() {
            let toy = spec.with_population(48);
            assert!(toy.known < toy.population);
            toy.scenario(3);
            toy.paper_config();
        }
    }

    #[test]
    fn seconds_size_the_work_and_nothing_else() {
        for spec in all() {
            assert!(
                spec.updates >= 100,
                "{}: p90 needs 10 samples beyond it",
                spec.name
            );
            assert_eq!(spec.timed_updates(REFERENCE_SECONDS), spec.updates);
            assert_eq!(
                spec.timed_updates(REFERENCE_SECONDS / 2.0),
                spec.updates.div_ceil(2)
            );
            assert_eq!(spec.timed_updates(1e-6), 1);
        }
    }
}
