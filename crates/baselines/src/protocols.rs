//! [`Protocol`] factories mounting each baseline into a
//! [`Scenario`](rumor_sim::Scenario).
//!
//! These are what make the paper's comparisons apples-to-apples: the same
//! scenario (same topology draw, same churn trajectory, same initial
//! availability, same loss/partition parameters, same workload schedule)
//! drives the paper peer and every baseline through the one shared
//! [`rumor_sim::Driver`]. The baselines
//! have no data model, so a scheduled [`UpdateEvent`] maps to the
//! deterministic rumor identity [`UpdateEvent::rumor_id`]; tombstone
//! events disseminate like any other rumor (coverage is what these
//! schemes measure).
//!
//! # Examples
//!
//! ```
//! use rumor_baselines::GnutellaFlooding;
//! use rumor_sim::{Protocol, Scenario, UpdateEvent};
//! use rumor_types::DataKey;
//!
//! let scenario = Scenario::builder(100, 11).build()?;
//! let protocol = GnutellaFlooding { fanout: 6, ttl: 7 };
//! let mut driver = scenario.drive(&protocol);
//! let event = UpdateEvent { round: 0, key: DataKey::from_name("r"), delete: false, sequence: 0 };
//! let rumor = driver.initiate(&protocol, None, &event).expect("someone online");
//! let report = driver.track_update(&protocol, rumor, 50);
//! assert!(report.aware_online_fraction > 0.95,
//!         "flooding informs (nearly) everyone, got {}", report.aware_online_fraction);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use crate::demers::{AntiEntropyNode, DemersMsg, MongerConfig, RumorMongerNode};
use crate::flood::{FloodMsg, GnutellaNode, HaasNode, PureFloodNode};
use rand_chacha::ChaCha8Rng;
use rumor_net::EffectSink;
use rumor_sim::{Protocol, UpdateEvent};
use rumor_types::{PeerId, Round, UpdateId};

/// Gnutella-style limited flooding with duplicate avoidance (§5.6).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GnutellaFlooding {
    /// Neighbours addressed per forward.
    pub fanout: usize,
    /// Initial time-to-live of each rumor copy.
    pub ttl: u32,
}

impl Protocol for GnutellaFlooding {
    type Node = GnutellaNode;

    fn name(&self) -> String {
        format!(
            "Gnutella flooding (fanout {}, ttl {})",
            self.fanout, self.ttl
        )
    }

    fn spawn(&self, id: PeerId, known: Vec<PeerId>, _online_at_start: bool) -> GnutellaNode {
        GnutellaNode::new(id.as_u32(), known, self.fanout, self.ttl)
    }

    fn initiate(
        &self,
        node: &mut GnutellaNode,
        event: &UpdateEvent,
        _round: Round,
        rng: &mut ChaCha8Rng,
        out: &mut EffectSink<FloodMsg>,
    ) -> UpdateId {
        let rumor = event.rumor_id();
        node.seed_rumor(rumor, rng, out);
        rumor
    }

    fn is_aware(&self, node: &GnutellaNode, update: UpdateId) -> bool {
        node.knows(update)
    }

    fn wire_sizer(&self) -> Option<fn(&FloodMsg) -> usize> {
        Some(rumor_wire::frame_len::<FloodMsg>)
    }
}

/// Pure flooding without duplicate avoidance — the §5.6 worst case.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PureFlooding {
    /// Neighbours addressed per forward.
    pub fanout: usize,
    /// Initial time-to-live of each rumor copy.
    pub ttl: u32,
}

impl Protocol for PureFlooding {
    type Node = PureFloodNode;

    fn name(&self) -> String {
        format!("pure flooding (fanout {}, ttl {})", self.fanout, self.ttl)
    }

    fn spawn(&self, id: PeerId, known: Vec<PeerId>, _online_at_start: bool) -> PureFloodNode {
        PureFloodNode::new(id.as_u32(), known, self.fanout, self.ttl)
    }

    fn initiate(
        &self,
        node: &mut PureFloodNode,
        event: &UpdateEvent,
        _round: Round,
        rng: &mut ChaCha8Rng,
        out: &mut EffectSink<FloodMsg>,
    ) -> UpdateId {
        let rumor = event.rumor_id();
        node.seed_rumor(rumor, rng, out);
        rumor
    }

    fn is_aware(&self, node: &PureFloodNode, update: UpdateId) -> bool {
        node.knows(update)
    }

    fn wire_sizer(&self) -> Option<fn(&FloodMsg) -> usize> {
        Some(rumor_wire::frame_len::<FloodMsg>)
    }
}

/// Haas, Halpern & Li's GOSSIP1(p, k) (§5.6): deterministic flooding for
/// the first `k` hops, probability-`p` forwarding afterwards.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Gossip1 {
    /// Neighbours addressed per forward.
    pub fanout: usize,
    /// Initial time-to-live of each rumor copy.
    pub ttl: u32,
    /// Forwarding probability beyond hop `k`.
    pub p: f64,
    /// Hops flooded deterministically.
    pub k: u32,
}

impl Protocol for Gossip1 {
    type Node = HaasNode;

    fn name(&self) -> String {
        format!("Haas GOSSIP1({}, {})", self.p, self.k)
    }

    fn spawn(&self, id: PeerId, known: Vec<PeerId>, _online_at_start: bool) -> HaasNode {
        HaasNode::new(id.as_u32(), known, self.fanout, self.ttl, self.p, self.k)
    }

    fn initiate(
        &self,
        node: &mut HaasNode,
        event: &UpdateEvent,
        _round: Round,
        rng: &mut ChaCha8Rng,
        out: &mut EffectSink<FloodMsg>,
    ) -> UpdateId {
        let rumor = event.rumor_id();
        node.seed_rumor(rumor, rng, out);
        rumor
    }

    fn is_aware(&self, node: &HaasNode, update: UpdateId) -> bool {
        node.knows(update)
    }

    fn wire_sizer(&self) -> Option<fn(&FloodMsg) -> usize> {
        Some(rumor_wire::frame_len::<FloodMsg>)
    }
}

/// Demers anti-entropy (§7.2): per-round digest exchange with one random
/// partner; with `push_pull` the partner also learns the initiator's
/// rumors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AntiEntropy {
    /// Push-pull (`true`) or pull-only (`false`) reconciliation.
    pub push_pull: bool,
}

impl Protocol for AntiEntropy {
    type Node = AntiEntropyNode;

    fn name(&self) -> String {
        format!(
            "Demers anti-entropy ({})",
            if self.push_pull { "push-pull" } else { "pull" }
        )
    }

    fn spawn(&self, id: PeerId, known: Vec<PeerId>, _online_at_start: bool) -> AntiEntropyNode {
        AntiEntropyNode::new(id.as_u32(), known, self.push_pull)
    }

    fn initiate(
        &self,
        node: &mut AntiEntropyNode,
        event: &UpdateEvent,
        _round: Round,
        _rng: &mut ChaCha8Rng,
        _out: &mut EffectSink<DemersMsg>,
    ) -> UpdateId {
        let rumor = event.rumor_id();
        node.seed_rumor(rumor);
        rumor
    }

    fn is_aware(&self, node: &AntiEntropyNode, update: UpdateId) -> bool {
        node.knows(update)
    }

    fn wire_sizer(&self) -> Option<fn(&DemersMsg) -> usize> {
        Some(rumor_wire::frame_len::<DemersMsg>)
    }
}

/// Demers rumor mongering (§7.2) under the configured feedback/stop rule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RumorMongering {
    /// Feedback-vs-blind and coin-vs-counter configuration.
    pub config: MongerConfig,
}

impl Protocol for RumorMongering {
    type Node = RumorMongerNode;

    fn name(&self) -> String {
        format!(
            "Demers rumor mongering ({}/{:?})",
            if self.config.feedback {
                "feedback"
            } else {
                "blind"
            },
            self.config.stop
        )
    }

    fn spawn(&self, id: PeerId, known: Vec<PeerId>, _online_at_start: bool) -> RumorMongerNode {
        RumorMongerNode::new(id.as_u32(), known, self.config)
    }

    fn initiate(
        &self,
        node: &mut RumorMongerNode,
        event: &UpdateEvent,
        _round: Round,
        _rng: &mut ChaCha8Rng,
        _out: &mut EffectSink<DemersMsg>,
    ) -> UpdateId {
        let rumor = event.rumor_id();
        node.seed_rumor(rumor);
        rumor
    }

    fn is_aware(&self, node: &RumorMongerNode, update: UpdateId) -> bool {
        node.knows(update)
    }

    fn wire_sizer(&self) -> Option<fn(&DemersMsg) -> usize> {
        Some(rumor_wire::frame_len::<DemersMsg>)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::demers::MongerStop;
    use rumor_net::Partition;
    use rumor_sim::{Scenario, TopologySpec};
    use rumor_types::DataKey;

    fn event() -> UpdateEvent {
        UpdateEvent {
            round: 0,
            key: DataKey::from_name("contest"),
            delete: false,
            sequence: 0,
        }
    }

    fn run<P: Protocol>(scenario: &Scenario, protocol: &P, horizon: u32) -> (f64, u64, u32) {
        let mut driver = scenario.drive(protocol);
        let rumor = driver
            .initiate(protocol, None, &event())
            .expect("someone online");
        let report = driver.track_update(protocol, rumor, horizon);
        (
            report.aware_online_fraction,
            report.total_messages,
            report.rounds,
        )
    }

    #[test]
    fn all_baselines_mount_into_one_scenario() {
        let scenario = Scenario::builder(150, 5).build().unwrap();
        let (g, ..) = run(&scenario, &GnutellaFlooding { fanout: 5, ttl: 8 }, 40);
        let (p, ..) = run(&scenario, &PureFlooding { fanout: 4, ttl: 6 }, 40);
        let (h, ..) = run(
            &scenario,
            &Gossip1 {
                fanout: 5,
                ttl: 8,
                p: 0.8,
                k: 2,
            },
            40,
        );
        let (a, ..) = run(&scenario, &AntiEntropy { push_pull: true }, 80);
        let (m, ..) = run(
            &scenario,
            &RumorMongering {
                config: MongerConfig {
                    feedback: true,
                    stop: MongerStop::Coin { k: 4 },
                },
            },
            150,
        );
        for (label, aware) in [
            ("gnutella", g),
            ("pure", p),
            ("gossip1", h),
            ("anti-entropy", a),
            ("monger", m),
        ] {
            assert!(aware > 0.9, "{label} covers the population, got {aware}");
        }
    }

    #[test]
    fn baselines_respect_scenario_topology() {
        // k = 4 neighbours instead of the full population: every spawned
        // node's neighbour list comes from the scenario's topology draw.
        let scenario = Scenario::builder(60, 7)
            .topology(TopologySpec::RandomSubset { k: 4 })
            .build()
            .unwrap();
        let protocol = GnutellaFlooding { fanout: 4, ttl: 10 };
        let driver = scenario.drive(&protocol);
        assert!(driver.nodes().iter().all(|n| n.neighbor_count() == 4));
    }

    #[test]
    fn baselines_respect_scenario_loss() {
        let clean = Scenario::builder(120, 9).build().unwrap();
        let lossy = Scenario::builder(120, 9).loss(0.9).build().unwrap();
        let protocol = GnutellaFlooding { fanout: 4, ttl: 6 };
        let (aware_clean, ..) = run(&clean, &protocol, 40);
        let (aware_lossy, ..) = run(&lossy, &protocol, 40);
        assert!(
            aware_lossy < aware_clean,
            "90% loss must hurt flooding coverage: {aware_lossy} vs {aware_clean}"
        );
    }

    #[test]
    fn baselines_respect_scenario_partition() {
        // A partition for the whole horizon confines the flood to one
        // half.
        let scenario = Scenario::builder(100, 13)
            .partition(Partition::halves(100, Round::ZERO, Round::new(1_000)))
            .build()
            .unwrap();
        let protocol = GnutellaFlooding { fanout: 8, ttl: 10 };
        let (aware, ..) = run(&scenario, &protocol, 40);
        assert!(
            (0.4..=0.6).contains(&aware),
            "the rumor must stay inside the initiator's half, got {aware}"
        );
    }

    #[test]
    fn scenario_churn_reaches_baselines() {
        use rumor_churn::MarkovChurn;
        let scenario = Scenario::builder(100, 3)
            .churn(MarkovChurn::new(0.5, 0.0).unwrap())
            .build()
            .unwrap();
        let mut driver = scenario.drive(&GnutellaFlooding { fanout: 3, ttl: 6 });
        driver.run_rounds(10);
        assert!(
            driver.online().online_count() < 10,
            "σ=0.5 decimates quickly"
        );
    }
}
