//! Baseline dissemination protocols the paper compares against.
//!
//! §5.6 and §7.2 position the push/pull scheme against: Gnutella-style
//! limited flooding with duplicate avoidance, pure flooding, Haas,
//! Halpern & Li's GOSSIP1(p, k) for ad-hoc routing, and the classical
//! Demers et al. epidemic repertoire (anti-entropy; rumor mongering in
//! blind/feedback × coin/counter variants). Each baseline is a
//! [`rumor_net::Node`] driven by the same engines and churn models as the
//! main protocol, so message counts are apples-to-apples — and each has a
//! [`rumor_sim::Protocol`] factory ([`GnutellaFlooding`], [`PureFlooding`],
//! [`Gossip1`], [`AntiEntropy`], [`RumorMongering`]) so one shared
//! [`rumor_sim::Scenario`] drives every contender with identical
//! topology, churn, loss and partitions.
//!
//! # Examples
//!
//! ```
//! use rumor_baselines::GnutellaFlooding;
//! use rumor_sim::{Scenario, UpdateEvent};
//! use rumor_types::{DataKey, PeerId};
//!
//! // 100 fully-connected peers, rumor initiated at peer 0 with TTL 7.
//! let scenario = Scenario::builder(100, 11).build()?;
//! let protocol = GnutellaFlooding { fanout: 6, ttl: 7 };
//! let mut driver = scenario.drive(&protocol);
//! let event = UpdateEvent { round: 0, key: DataKey::from_name("r"), delete: false, sequence: 0 };
//! let rumor = driver
//!     .initiate(&protocol, Some(PeerId::new(0)), &event)
//!     .expect("an explicit initiator");
//! driver.run_until_quiescent(50);
//! let aware = driver.aware_fraction(|n| n.knows(rumor));
//! assert!(aware > 0.95, "flooding informs (nearly) everyone, got {aware}");
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod demers;
mod flood;
mod protocols;
#[cfg(test)]
mod runner;
mod wire;

pub use demers::{AntiEntropyNode, DemersMsg, MongerConfig, MongerStop, RumorMongerNode};
pub use flood::{FloodMsg, GnutellaNode, HaasNode, PureFloodNode};
pub use protocols::{AntiEntropy, GnutellaFlooding, Gossip1, PureFlooding, RumorMongering};
pub use wire::{KIND_DEMERS_DIGEST, KIND_DEMERS_FEEDBACK, KIND_DEMERS_RUMOR, KIND_FLOOD_RUMOR};
