//! A fuzz case: one fully-specified scenario + workload + fault
//! schedule, generated from a single seed and runnable on either
//! execution path.
//!
//! `CaseSpec` is the replay unit. Every field is plain data, every
//! random draw during execution is derived from [`CaseSpec::seed`], so
//! serializing a spec, parsing it back and running it again reproduces
//! the original trajectory bit for bit.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use rumor_churn::MarkovChurn;
use rumor_cluster::{ByzantineBehaviour, ByzantineSpec, ClusterBuilder, FaultSpec, VirtualCluster};
use rumor_core::{ProtocolConfig, PullStrategy, ReplicaPeer};
use rumor_obs::{MemTracer, TraceDoc, Tracer};
use rumor_sim::{Driver, PaperProtocol, Protocol, Scenario, TopologySpec, UpdateEvent};
use rumor_types::{derive_seed, DataKey, PeerId, SeedSequence, UpdateId};

use crate::config::FuzzConfig;
use crate::oracle::{self, Divergence};
use rumor_types::json::Json;

/// Which runtime executes the case.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecPath {
    /// The reference `rumor_sim::Driver` over the sync engine.
    Engine,
    /// The deterministic virtual-time `rumor_cluster` runtime (the only
    /// path that can host crash faults and Byzantine members).
    Cluster,
}

impl ExecPath {
    /// Stable artefact name.
    pub fn name(self) -> &'static str {
        match self {
            ExecPath::Engine => "engine",
            ExecPath::Cluster => "cluster",
        }
    }

    /// Parses an artefact name.
    pub fn from_name(name: &str) -> Option<ExecPath> {
        match name {
            "engine" => Some(ExecPath::Engine),
            "cluster" => Some(ExecPath::Cluster),
            _ => None,
        }
    }
}

/// Stable artefact name for a Byzantine behaviour.
pub fn behaviour_name(behaviour: ByzantineBehaviour) -> &'static str {
    match behaviour {
        ByzantineBehaviour::DigestLie => "digest-lie",
        ByzantineBehaviour::StaleReplay => "stale-replay",
        ByzantineBehaviour::CorruptFrames => "corrupt-frames",
        ByzantineBehaviour::Mixed => "mixed",
    }
}

/// Parses a Byzantine behaviour artefact name.
pub fn behaviour_from_name(name: &str) -> Option<ByzantineBehaviour> {
    match name {
        "digest-lie" => Some(ByzantineBehaviour::DigestLie),
        "stale-replay" => Some(ByzantineBehaviour::StaleReplay),
        "corrupt-frames" => Some(ByzantineBehaviour::CorruptFrames),
        "mixed" => Some(ByzantineBehaviour::Mixed),
        _ => None,
    }
}

/// One fully-determined fuzz case.
#[derive(Debug, Clone, PartialEq)]
pub struct CaseSpec {
    /// Index within the generating batch.
    pub index: u32,
    /// The case seed — sole entropy source for generation *and* run.
    pub seed: u64,
    /// Which runtime executes the case.
    pub path: ExecPath,
    /// Replica population.
    pub population: usize,
    /// Initial online fraction.
    pub online_fraction: f64,
    /// Markov churn: probability an online peer stays online.
    pub stay_online: f64,
    /// Markov churn: probability an offline peer comes online.
    pub come_online: f64,
    /// Per-message loss probability.
    pub loss: f64,
    /// Knowledge-graph out-degree: `0` = full mesh, otherwise each peer
    /// knows `subset_k` uniformly random peers. Sparse views are where
    /// Byzantine members bite — a peer whose whole view lies to it has
    /// no honest pull source.
    pub subset_k: usize,
    /// Absolute push fanout.
    pub fanout: usize,
    /// Anti-entropy period in rounds.
    pub staleness_rounds: u32,
    /// `true` = eager pull on coming online, else lazy (patience 2).
    pub eager_pull: bool,
    /// Number of updates the workload initiates.
    pub updates: u32,
    /// Probability an update is a delete (tombstone).
    pub delete_chance: f64,
    /// Cluster-path crash probability per node per round.
    pub crash_rate: f64,
    /// Rounds a crashed node stays down before restarting.
    pub restart_after: u32,
    /// Fraction of the population mounted as Byzantine members.
    pub byzantine_fraction: f64,
    /// Behaviour those members run (irrelevant when the fraction is 0).
    pub byzantine_behaviour: ByzantineBehaviour,
    /// Horizon in rounds before the oracle's probe window.
    pub max_rounds: u32,
    /// Cluster-path wire codec: `true` = v2 (per-peer batch frames +
    /// digest-delta pulls). Copied from the config, never drawn — see
    /// [`FuzzConfig::wire_v2`].
    pub wire_v2: bool,
}

/// What one case run produced.
#[derive(Debug, Clone, PartialEq)]
pub struct CaseOutcome {
    /// The oracle's verdict — `Some` means the case is a violation.
    pub divergence: Option<Divergence>,
    /// Rounds executed including the probe window.
    pub rounds_executed: u32,
    /// Messages (frames) sent during the run.
    pub messages: u64,
    /// Sends the Byzantine layer tampered with.
    pub tampered: u64,
    /// How many members ran a Byzantine behaviour.
    pub byzantine: usize,
    /// Stable-online correct witnesses the oracle evaluated.
    pub witnesses: usize,
}

/// Oracle inputs for the per-update awareness check: only updates on
/// keys written exactly once. A key written twice puts the later
/// version's lineage over the earlier one's, and `ReplicaStore::apply`
/// keeps only the frontier — a replica that first hears of the key via
/// the newer version never processes the superseded update, so
/// awareness of it is *legitimately* non-uniform. Those keys are still
/// covered by the oracle's store-digest equality check.
fn surviving_updates(tracked: &[(u32, DataKey, UpdateId)]) -> Vec<(u32, UpdateId)> {
    tracked
        .iter()
        .filter(|(_, key, _)| tracked.iter().filter(|(_, k, _)| k == key).count() == 1)
        .map(|&(sequence, _, update)| (sequence, update))
        .collect()
}

impl CaseSpec {
    /// Generates case `index` of a batch. Deterministic: the draw order
    /// below is part of the replay contract — changing it invalidates
    /// committed repro records.
    pub fn generate(config: &FuzzConfig, index: u32) -> CaseSpec {
        let seed = SeedSequence::new(config.seed, "fuzz/case").seed_at(u64::from(index));
        let mut rng = ChaCha8Rng::seed_from_u64(derive_seed(seed, "fuzz/gen"));
        let population = rng.gen_range(config.min_population..=config.max_population);
        let online_fraction = rng.gen_range(0.5..0.95);
        let stay_online = rng.gen_range(0.88..0.99);
        let come_online = rng.gen_range(0.15..0.5);
        let loss = rng.gen_range(0.0..0.08);
        let subset_k = if rng.gen_bool(0.4) {
            rng.gen_range(3..=5usize)
        } else {
            0
        };
        let fanout = rng.gen_range(2..=5usize);
        let staleness_rounds = rng.gen_range(4..=8u32);
        let eager_pull = rng.gen_bool(0.5);
        let updates = rng.gen_range(1..=3u32);
        let delete_chance = if rng.gen_bool(0.3) { 0.25 } else { 0.0 };
        let byzantine_fraction = if config.byzantine_max_fraction > 0.0 {
            rng.gen_range(0.0..config.byzantine_max_fraction)
        } else {
            0.0
        };
        let byzantine_behaviour = match rng.gen_range(0..4u8) {
            0 => ByzantineBehaviour::DigestLie,
            1 => ByzantineBehaviour::StaleReplay,
            2 => ByzantineBehaviour::CorruptFrames,
            _ => ByzantineBehaviour::Mixed,
        };
        let path = if byzantine_fraction > 0.0 || rng.gen_bool(0.5) {
            ExecPath::Cluster
        } else {
            ExecPath::Engine
        };
        let (crash_rate, restart_after) = match path {
            ExecPath::Cluster => (rng.gen_range(0.0..0.08), rng.gen_range(2..=5u32)),
            ExecPath::Engine => (0.0, 3),
        };
        CaseSpec {
            index,
            seed,
            path,
            population,
            online_fraction,
            stay_online,
            come_online,
            loss,
            subset_k,
            fanout,
            staleness_rounds,
            eager_pull,
            updates,
            delete_chance,
            crash_rate,
            restart_after,
            byzantine_fraction,
            byzantine_behaviour,
            max_rounds: config.max_rounds,
            wire_v2: config.wire_v2,
        }
    }

    /// The workload schedule, re-derived from the case seed.
    pub fn events(&self) -> Vec<UpdateEvent> {
        const KEYS: [&str; 3] = ["fuzz-alpha", "fuzz-beta", "fuzz-gamma"];
        let mut rng = ChaCha8Rng::seed_from_u64(derive_seed(self.seed, "fuzz/workload"));
        let mut events: Vec<UpdateEvent> = (0..self.updates)
            .map(|sequence| UpdateEvent {
                round: rng.gen_range(0..8u32),
                key: DataKey::from_name(KEYS[rng.gen_range(0..KEYS.len())]),
                delete: self.delete_chance > 0.0 && rng.gen_bool(self.delete_chance),
                sequence,
            })
            .collect();
        events.sort_by_key(|e| (e.round, e.sequence));
        events
    }

    /// Rounds the oracle steps singly after the horizon, intersecting
    /// online sets: long enough for at least two anti-entropy cycles.
    pub fn probe_window(&self) -> u32 {
        self.staleness_rounds * 2 + 4
    }

    fn scenario(&self) -> Result<Scenario, String> {
        let churn =
            MarkovChurn::new(self.stay_online, self.come_online).map_err(|e| e.to_string())?;
        let topology = if self.subset_k == 0 {
            TopologySpec::Full
        } else {
            TopologySpec::RandomSubset { k: self.subset_k }
        };
        Scenario::builder(self.population, self.seed)
            .online_fraction(self.online_fraction)
            .topology(topology)
            .churn(churn)
            .loss(self.loss)
            .build()
            .map_err(|e| e.to_string())
    }

    fn protocol(&self) -> Result<PaperProtocol, String> {
        let mut builder = ProtocolConfig::builder(self.population);
        builder
            .fanout_absolute(self.fanout)
            .staleness_rounds(self.staleness_rounds)
            .pull_retry(2, 3)
            .pull_strategy(if self.eager_pull {
                PullStrategy::Eager
            } else {
                PullStrategy::Lazy { patience: 2 }
            });
        if self.wire_v2 {
            builder.delta_pulls(true);
        }
        builder
            .build()
            .map(PaperProtocol::new)
            .map_err(|e| e.to_string())
    }

    /// Runs the case to completion and checks the convergence oracle.
    pub fn run(&self) -> Result<CaseOutcome, String> {
        match self.path {
            ExecPath::Engine => {
                let scenario = self.scenario()?;
                let protocol = self.protocol()?;
                let mut driver = scenario.drive(&protocol);
                Ok(self.drive_engine(&mut driver, &protocol))
            }
            ExecPath::Cluster => {
                let mut cluster = self.mount_cluster(false)?;
                Ok(self.drive_cluster(&mut cluster))
            }
        }
    }

    /// Like [`CaseSpec::run`], additionally capturing the trajectory as
    /// a structured `rumor-obs` trace labelled `label`. Capture consumes
    /// no randomness, so the outcome (and the oracle verdict) is
    /// bit-identical to an untraced [`CaseSpec::run`] of the same spec —
    /// which is what makes a frozen repro record explorable as a
    /// timeline without invalidating it.
    pub fn run_traced(&self, label: &str) -> Result<(CaseOutcome, TraceDoc), String> {
        match self.path {
            ExecPath::Engine => {
                let scenario = self.scenario()?;
                let protocol = self.protocol()?;
                let mut driver = scenario.drive_traced(&protocol, MemTracer::new());
                let outcome = self.drive_engine(&mut driver, &protocol);
                let events = driver.tracer_mut().take();
                let doc = TraceDoc::merge(label, self.seed, self.population as u32, [events]);
                Ok((outcome, doc))
            }
            ExecPath::Cluster => {
                let mut cluster = self.mount_cluster(true)?;
                let outcome = self.drive_cluster(&mut cluster);
                let doc = cluster
                    .take_trace(label)
                    .expect("cluster was mounted traced");
                Ok((outcome, doc))
            }
        }
    }

    fn mount_cluster(&self, trace: bool) -> Result<VirtualCluster<PaperProtocol>, String> {
        let scenario = self.scenario()?;
        let protocol = self.protocol()?;
        let faults = FaultSpec {
            crash_rate: self.crash_rate,
            restart_after: self.restart_after,
            byzantine: ByzantineSpec {
                fraction: self.byzantine_fraction,
                behaviour: self.byzantine_behaviour,
            },
        };
        let mut builder = ClusterBuilder::new(&scenario)
            .faults(faults)
            .map_err(|e| e.to_string())?;
        if trace {
            builder = builder.traced();
        }
        if self.wire_v2 {
            builder = builder.wire(rumor_cluster::WireVersion::V2);
        }
        Ok(builder.virtual_time(protocol))
    }

    fn drive_cluster(&self, cluster: &mut VirtualCluster<PaperProtocol>) -> CaseOutcome {
        let events = self.events();
        let mut tracked: Vec<(u32, DataKey, UpdateId)> = Vec::new();
        let mut next = 0usize;
        let mut tick = 0u32;
        while tick < self.max_rounds {
            while next < events.len() && events[next].round <= tick {
                match cluster.initiate(&events[next]) {
                    Some(update) => {
                        tracked.push((events[next].sequence, events[next].key, update));
                        next += 1;
                    }
                    // Nobody online to originate: retry next tick.
                    None => break,
                }
            }
            cluster.step();
            tick += 1;
        }

        // Stable-online probe: only peers online for the entire window
        // (and honest) are oracle witnesses.
        let mut stable: Vec<PeerId> = cluster.online_peers();
        let mut step_idx = 0u32;
        while step_idx < self.probe_window() {
            cluster.step();
            let now = cluster.online_peers();
            stable.retain(|p| now.contains(p));
            step_idx += 1;
        }
        stable.retain(|&p| !cluster.is_byzantine(p));

        let divergence = oracle::check(
            &stable,
            |p| cluster.node(p).store().digest(),
            &surviving_updates(&tracked),
            |p, u| cluster.is_aware(p, u),
        );
        let report = tracked
            .first()
            .map(|&(_, _, update)| cluster.report(update));
        CaseOutcome {
            divergence,
            rounds_executed: self.max_rounds + self.probe_window(),
            messages: report.as_ref().map_or(0, |r| r.frames_sent),
            tampered: report.as_ref().map_or(0, |r| r.frames_tampered),
            byzantine: report.as_ref().map_or(0, |r| r.byzantine),
            witnesses: stable.len(),
        }
    }

    fn drive_engine<T: Tracer>(
        &self,
        driver: &mut Driver<ReplicaPeer, T>,
        protocol: &PaperProtocol,
    ) -> CaseOutcome {
        let events = self.events();
        let mut tracked: Vec<(u32, DataKey, UpdateId)> = Vec::new();
        let mut next = 0usize;
        let mut tick = 0u32;
        while tick < self.max_rounds {
            while next < events.len() && events[next].round <= tick {
                match driver.initiate(protocol, None, &events[next]) {
                    Some(update) => {
                        tracked.push((events[next].sequence, events[next].key, update));
                        next += 1;
                    }
                    None => break,
                }
            }
            driver.step();
            tick += 1;
        }

        let mut stable: Vec<PeerId> = driver.online().iter_online().collect();
        let mut step_idx = 0u32;
        while step_idx < self.probe_window() {
            driver.step();
            let now: Vec<PeerId> = driver.online().iter_online().collect();
            stable.retain(|p| now.contains(p));
            step_idx += 1;
        }

        let divergence = oracle::check(
            &stable,
            |p| driver.node(p).store().digest(),
            &surviving_updates(&tracked),
            |p, u| protocol.is_aware(driver.node(p), u),
        );
        CaseOutcome {
            divergence,
            rounds_executed: self.max_rounds + self.probe_window(),
            messages: driver.messages(),
            tampered: 0,
            byzantine: 0,
            witnesses: stable.len(),
        }
    }

    /// Serializes the spec as a JSON object (field order is stable).
    /// `wire_v2` is emitted only when set, so records captured before
    /// the field existed re-serialize byte-identically.
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("index".into(), Json::from_u32(self.index)),
            ("seed".into(), Json::from_u64(self.seed)),
            ("path".into(), Json::from_text(self.path.name())),
            ("population".into(), Json::from_usize(self.population)),
            (
                "online_fraction".into(),
                Json::from_f64(self.online_fraction),
            ),
            ("stay_online".into(), Json::from_f64(self.stay_online)),
            ("come_online".into(), Json::from_f64(self.come_online)),
            ("loss".into(), Json::from_f64(self.loss)),
            ("subset_k".into(), Json::from_usize(self.subset_k)),
            ("fanout".into(), Json::from_usize(self.fanout)),
            (
                "staleness_rounds".into(),
                Json::from_u32(self.staleness_rounds),
            ),
            ("eager_pull".into(), Json::Bool(self.eager_pull)),
            ("updates".into(), Json::from_u32(self.updates)),
            ("delete_chance".into(), Json::from_f64(self.delete_chance)),
            ("crash_rate".into(), Json::from_f64(self.crash_rate)),
            ("restart_after".into(), Json::from_u32(self.restart_after)),
            (
                "byzantine_fraction".into(),
                Json::from_f64(self.byzantine_fraction),
            ),
            (
                "byzantine_behaviour".into(),
                Json::from_text(behaviour_name(self.byzantine_behaviour)),
            ),
            ("max_rounds".into(), Json::from_u32(self.max_rounds)),
        ];
        if self.wire_v2 {
            fields.push(("wire_v2".into(), Json::Bool(true)));
        }
        Json::Obj(fields)
    }

    /// Parses a spec serialized by [`CaseSpec::to_json`].
    pub fn from_json(doc: &Json) -> Result<CaseSpec, String> {
        let field = |name: &str| {
            doc.get(name)
                .ok_or_else(|| format!("case spec missing `{name}`"))
        };
        let u32_field = |name: &str| {
            field(name)?
                .as_u32()
                .ok_or_else(|| format!("case spec `{name}` is not a u32"))
        };
        let f64_field = |name: &str| {
            field(name)?
                .as_f64()
                .ok_or_else(|| format!("case spec `{name}` is not a number"))
        };
        let usize_field = |name: &str| {
            field(name)?
                .as_usize()
                .ok_or_else(|| format!("case spec `{name}` is not a usize"))
        };
        let path_name = field("path")?
            .as_str()
            .ok_or("case spec `path` is not a string")?;
        let behaviour_text = field("byzantine_behaviour")?
            .as_str()
            .ok_or("case spec `byzantine_behaviour` is not a string")?;
        Ok(CaseSpec {
            index: u32_field("index")?,
            seed: field("seed")?
                .as_u64()
                .ok_or("case spec `seed` is not a u64")?,
            path: ExecPath::from_name(path_name)
                .ok_or_else(|| format!("unknown exec path `{path_name}`"))?,
            population: usize_field("population")?,
            online_fraction: f64_field("online_fraction")?,
            stay_online: f64_field("stay_online")?,
            come_online: f64_field("come_online")?,
            loss: f64_field("loss")?,
            subset_k: usize_field("subset_k")?,
            fanout: usize_field("fanout")?,
            staleness_rounds: u32_field("staleness_rounds")?,
            eager_pull: field("eager_pull")?
                .as_bool()
                .ok_or("case spec `eager_pull` is not a bool")?,
            updates: u32_field("updates")?,
            delete_chance: f64_field("delete_chance")?,
            crash_rate: f64_field("crash_rate")?,
            restart_after: u32_field("restart_after")?,
            byzantine_fraction: f64_field("byzantine_fraction")?,
            byzantine_behaviour: behaviour_from_name(behaviour_text)
                .ok_or_else(|| format!("unknown byzantine behaviour `{behaviour_text}`"))?,
            max_rounds: u32_field("max_rounds")?,
            // Absent in records captured before wire v2 existed.
            wire_v2: match doc.get("wire_v2") {
                None => false,
                Some(v) => v.as_bool().ok_or("case spec `wire_v2` is not a bool")?,
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_per_config_seed() {
        let config = FuzzConfig::default();
        let a = CaseSpec::generate(&config, 7);
        let b = CaseSpec::generate(&config, 7);
        assert_eq!(a, b);
        let c = CaseSpec::generate(&config, 8);
        assert_ne!(a.seed, c.seed, "distinct indices draw distinct seeds");
        let other = FuzzConfig {
            seed: 9999,
            ..FuzzConfig::default()
        };
        assert_ne!(a.seed, CaseSpec::generate(&other, 7).seed);
    }

    #[test]
    fn spec_json_round_trips_exactly() {
        let config = FuzzConfig {
            byzantine_max_fraction: 0.4,
            ..FuzzConfig::default()
        };
        for case_idx in 0..16 {
            let spec = CaseSpec::generate(&config, case_idx);
            let text = spec.to_json().pretty();
            let doc = rumor_types::json::parse(&text).expect("spec parses");
            let back = CaseSpec::from_json(&doc).expect("spec deserializes");
            assert_eq!(back, spec, "case {case_idx} drifted through JSON");
            assert_eq!(back.to_json().pretty(), text, "re-emit must be identical");
        }
    }

    #[test]
    fn events_are_sorted_and_reproducible() {
        let spec = CaseSpec::generate(&FuzzConfig::default(), 3);
        let events = spec.events();
        assert_eq!(events.len(), spec.updates as usize);
        assert!(events.windows(2).all(|w| w[0].round <= w[1].round));
        assert_eq!(events, spec.events());
    }

    #[test]
    fn a_benign_case_runs_clean_on_both_paths() {
        let config = FuzzConfig {
            cases: 4,
            max_population: 16,
            max_rounds: 120,
            ..FuzzConfig::default()
        };
        let mut saw = (false, false);
        for case_idx in 0..8 {
            let spec = CaseSpec::generate(&config, case_idx);
            match spec.path {
                ExecPath::Engine => saw.0 = true,
                ExecPath::Cluster => saw.1 = true,
            }
            let outcome = spec.run().expect("case runs");
            assert_eq!(
                outcome.divergence, None,
                "benign case {case_idx} ({:?}) diverged",
                spec.path
            );
            assert!(outcome.messages > 0 || outcome.witnesses < 2);
        }
        assert!(saw.0 && saw.1, "both exec paths should be exercised");
    }

    #[test]
    fn wire_v2_json_field_is_emitted_only_when_set() {
        let mut spec = CaseSpec::generate(&FuzzConfig::default(), 2);
        assert!(!spec.to_json().pretty().contains("wire_v2"));
        spec.wire_v2 = true;
        let text = spec.to_json().pretty();
        assert!(text.contains("\"wire_v2\": true"), "{text}");
        let doc = rumor_types::json::parse(&text).expect("spec parses");
        let back = CaseSpec::from_json(&doc).expect("spec deserializes");
        assert_eq!(back, spec);
        assert_eq!(back.to_json().pretty(), text);
    }

    #[test]
    fn a_wire_v2_case_runs_clean_under_batches_and_delta_pulls() {
        let config = FuzzConfig {
            cases: 4,
            max_population: 16,
            max_rounds: 120,
            wire_v2: true,
            ..FuzzConfig::default()
        };
        let mut ran_cluster = false;
        for case_idx in 0..8 {
            let spec = CaseSpec::generate(&config, case_idx);
            assert!(spec.wire_v2, "config flag must reach the spec");
            if spec.path != ExecPath::Cluster {
                continue;
            }
            ran_cluster = true;
            let outcome = spec.run().expect("case runs");
            assert_eq!(
                outcome.divergence, None,
                "benign wire-v2 case {case_idx} diverged"
            );
        }
        assert!(ran_cluster, "at least one cluster-path case expected");
    }

    #[test]
    fn a_corrupt_frames_adversary_cannot_break_a_wire_v2_cluster() {
        // Corrupted batch frames drop whole; the honest majority must
        // still satisfy the oracle exactly as it does under wire v1.
        let config = FuzzConfig {
            max_population: 20,
            max_rounds: 120,
            ..FuzzConfig::default()
        };
        let mut spec = CaseSpec::generate(&config, 1);
        spec.path = ExecPath::Cluster;
        spec.byzantine_fraction = 0.2;
        spec.byzantine_behaviour = ByzantineBehaviour::CorruptFrames;
        let v1 = spec.run().expect("v1 case runs");
        spec.wire_v2 = true;
        let v2 = spec.run().expect("v2 case runs");
        assert!(v2.tampered > 0, "the adversary must actually tamper");
        assert_eq!(v1.divergence, None, "v1 baseline converges");
        assert_eq!(v2.divergence, None, "wire v2 must absorb the same block");
    }

    #[test]
    fn runs_replay_bit_for_bit() {
        let config = FuzzConfig {
            max_population: 20,
            max_rounds: 80,
            byzantine_max_fraction: 0.3,
            ..FuzzConfig::default()
        };
        let spec = CaseSpec::generate(&config, 1);
        let first = spec.run().expect("first run");
        let second = spec.run().expect("second run");
        assert_eq!(first, second, "a case must replay identically");
    }
}
