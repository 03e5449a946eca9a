//! `rumor` — updates in highly unreliable, replicated peer-to-peer
//! systems.
//!
//! A production-quality Rust reproduction of Datta, Hauswirth & Aberer,
//! *Updates in Highly Unreliable, Replicated Peer-to-Peer Systems*
//! (ICDCS 2003): a hybrid **push/pull rumor-spreading** update protocol
//! for replicated data where peers are offline most of the time, plus the
//! paper's full analytical model, a synchronous-round simulator, the
//! baseline protocols it compares against, and a P-Grid overlay
//! substrate.
//!
//! This crate is a facade: it re-exports the workspace crates under one
//! namespace so applications can depend on a single crate.
//!
//! | Module | Crate | Contents |
//! |--------|-------|----------|
//! | [`core`] | `rumor-core` | the protocol: replica state machine, versions, partial lists, `PF(t)` policies, stores |
//! | [`analysis`] | `rumor-analysis` | the §4 analytical model (figures & Table 2) |
//! | [`sim`] | `rumor-sim` | the `Scenario`/`Driver`/`Protocol` experiment harness + synchronous-round simulator over the real protocol |
//! | [`churn`] | `rumor-churn` | availability models (σ/p_on chains, heterogeneous backbones, catastrophes) |
//! | [`net`] | `rumor-net` | sync round engine, loss/partitions, topologies |
//! | [`wire`] | `rumor-wire` | versioned, length-prefixed binary wire codec (frames, strict decode) |
//! | [`cluster`] | `rumor-cluster` | live runtime: sans-IO nodes on OS threads, a sharded worker pool, or virtual time, exchanging encoded frames |
//! | [`fuzz`] | `rumor-fuzz` | seeded chaos fuzzer: random scenarios + Byzantine peers vs the convergence oracle, replayable records |
//! | [`obs`] | `rumor-obs` | deterministic structured tracing: `Tracer` sinks, canonical trace merge, dissemination timelines |
//! | [`baselines`] | `rumor-baselines` | Gnutella, pure flooding, Haas GOSSIP1, Demers anti-entropy & rumor mongering |
//! | [`pgrid`] | `rumor-pgrid` | the P-Grid trie overlay hosting the protocol |
//! | [`metrics`] | `rumor-metrics` | per-round series, sample statistics, histograms, tables |
//! | [`types`] | `rumor-types` | shared ids, rounds, seeds, the one JSON value ([`types::json`]) |
//!
//! # Quickstart
//!
//! A [`sim::Scenario`] declares the environment; any protocol — the
//! paper peer ([`sim::PaperProtocol`]) or a baseline — mounts into it
//! through the one shared [`sim::Driver`]:
//!
//! ```
//! use rumor::core::ProtocolConfig;
//! use rumor::sim::{PaperProtocol, Scenario, UpdateEvent};
//! use rumor::types::DataKey;
//!
//! // A replica partition of 1000 peers, 30% online, fanout 0.02.
//! let scenario = Scenario::builder(1000, 7).online_fraction(0.3).build()?;
//! let protocol = PaperProtocol::new(ProtocolConfig::builder(1000).fanout_fraction(0.02).build()?);
//! let mut driver = scenario.drive(&protocol);
//! let event = UpdateEvent { round: 0, key: DataKey::from_name("motd"), delete: false, sequence: 0 };
//! let update = driver.initiate(&protocol, None, &event).expect("someone online");
//! let report = driver.track_update(&protocol, update, 60);
//! assert!(report.aware_online_fraction > 0.95);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use rumor_analysis as analysis;
pub use rumor_baselines as baselines;
pub use rumor_churn as churn;
pub use rumor_cluster as cluster;
pub use rumor_core as core;
pub use rumor_fuzz as fuzz;
pub use rumor_metrics as metrics;
pub use rumor_net as net;
pub use rumor_obs as obs;
pub use rumor_pgrid as pgrid;
pub use rumor_sim as sim;
pub use rumor_types as types;
pub use rumor_wire as wire;
