//! Discrete simulation of the hybrid push/pull update protocol — and the
//! protocol-agnostic scenario harness every baseline mounts into.
//!
//! The paper evaluates its algorithm analytically and names simulation as
//! future work ("To verify the correctness of the analysis if some of the
//! simplifying assumptions are relaxed, we plan to use simulations", §8).
//! This crate is that simulator: it executes the *actual protocol code*
//! from `rumor-core` over the churn and network substrates, under the
//! same synchronous round model the analysis assumes — so analytical and
//! simulated curves are directly comparable (see the `sim_vs_model`
//! experiment in `rumor-bench`).
//!
//! The experiment surface is declarative: a [`Scenario`] describes the
//! environment (population, topology, churn, link faults, workload,
//! convergence criterion) and a [`Protocol`] factory describes one
//! contender; [`Scenario::drive`] mounts the contender into the single
//! generic [`Driver`]. One driver, many protocols — the paper peer
//! ([`PaperProtocol`]), every `rumor-baselines` scheme and the
//! P-Grid-hosted partition all run in the same environment: identical
//! topology draw, initial availability and churn trajectory, same
//! loss/partition parameters.
//!
//! # Examples
//!
//! ```
//! use rumor_core::ProtocolConfig;
//! use rumor_sim::{PaperProtocol, Scenario, TopologySpec, UpdateEvent};
//! use rumor_types::DataKey;
//!
//! // 500 replicas, 30% initially online, full knowledge, no churn.
//! // Fanout f_r = 0.04 gives ≈ 6 expected *online* targets per push.
//! let scenario = Scenario::builder(500, 42)
//!     .online_fraction(0.3)
//!     .topology(TopologySpec::Full)
//!     .build()?;
//! let config = ProtocolConfig::builder(500).fanout_fraction(0.04).build()?;
//! let protocol = PaperProtocol::new(config);
//! let mut driver = scenario.drive(&protocol);
//! let event = UpdateEvent { round: 0, key: DataKey::from_name("motd"), delete: false, sequence: 0 };
//! let update = driver.initiate(&protocol, None, &event).expect("someone is online");
//! let report = driver.track_update(&protocol, update, 50);
//! assert!(report.aware_online_fraction > 0.95,
//!         "push reaches nearly all online peers, got {}",
//!         report.aware_online_fraction);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod consistency;
mod driver;
mod error;
mod replicate;
mod report;
mod scenario;
mod stats;
mod workload;

pub use consistency::{awareness, consistency_fraction, staleness_by_peer};
pub use driver::{Driver, MsgKinder, MsgTamper, PaperProtocol, Protocol, WireSizer};
pub use error::SimError;
pub use replicate::{Experiment, ReplicatedReport, Replication};
pub use report::{RoundObservation, RunReport, UpdateOutcome, WorkloadReport};
pub use scenario::{ConvergenceSpec, Scenario, ScenarioBuilder, TopologySpec};
pub use stats::EngineStats;
pub use workload::{UpdateEvent, WorkloadBuilder};
