//! `rumor-cluster` — the live runtime executing the sans-IO protocol
//! nodes as a running cluster.
//!
//! Every node in the rest of the workspace runs inside a lock-step
//! simulator; this crate is the executable-system path the paper's
//! evaluation ultimately speaks to: replicas that really run
//! concurrently, go down, come back, and pay for every message in
//! bytes. The same `rumor_sim::Protocol` factories mount unchanged —
//! the paper peer, every baseline, a P-Grid partition — and every
//! message between nodes round-trips through the `rumor-wire` codec,
//! so a run reports frames *and* bytes on the wire.
//!
//! One conductor, two front-ends. The conductor owns the seeded
//! environment — churn, initiator choice, crash/restart faults, the
//! convergence probe, the report fold — and drives *shards*: contiguous
//! runs of replica cells ticked as a unit. The front-ends differ only
//! in where the shards run:
//!
//! * [`VirtualCluster`] — one shard, ticked inline on the caller's
//!   thread. Deterministic per scenario seed, bit-reproducible,
//!   golden-pinnable in `cargo test`. The correctness path.
//! * [`ShardedCluster`] — M shards on M worker threads (default:
//!   available parallelism, [`ClusterBuilder::workers`] to override),
//!   with cross-shard frames batched per round and the conductor
//!   barrier at shard granularity. The scale path: 10k+ live replicas.
//!   `.workers(population)` is one OS thread per replica — the
//!   deployment shape, slower than a core-sized pool at every measured
//!   population — and `.workers(1)` is bit-identical to virtual time.
//!
//! Both take the environment from the same declarative
//! [`rumor_sim::Scenario`] the simulation harness uses — identical
//! topology draw, initial availability, churn trajectory and
//! loss/partition semantics (`LinkFilter`) — plus cluster-only faults:
//! a seeded [`FaultSpec`] crash/restart injector (a crash *parks* the
//! victim cell inside its shard: it misses its ticks, node state and
//! inbox survive, and frames that came due during the gap are dropped
//! at the restart exactly like sends to an offline replica) and an
//! optional [`DelaySpec`] extra delivery delay. Quiescence detection
//! and graceful shutdown are built in: [`ShardedCluster::finish`] stops
//! every worker, reclaims node state and folds a [`ClusterReport`].
//!
//! A fault plan can additionally mount a seeded fraction of the
//! population as *Byzantine* members ([`ByzantineSpec`]): replicas that
//! keep running the real protocol but lie at the wire boundary — empty
//! pull digests, stale-frame replays, corrupt frames (see
//! [`ByzantineBehaviour`]). Both front-ends host them; `rumor-fuzz`
//! sweeps them against the convergence oracle.
//!
//! [`ClusterBuilder::traced`] additionally mounts structured
//! `rumor-obs` capture: each cell buffers its message-level events
//! locally, the conductor records its seeded environment decisions
//! (round starts, churn transitions, fault events, initiations), and
//! the buffers merge into one canonical `(round, node, seq)`-ordered
//! [`rumor_obs::TraceDoc`]. Capture consumes no randomness, so a traced
//! run stays bit-identical to an untraced one, and the conductor-side
//! environment sub-trace is byte-identical across both front-ends and
//! every worker count.
//!
//! # Examples
//!
//! ```
//! use rumor_cluster::{ClusterBuilder, FaultSpec};
//! use rumor_core::ProtocolConfig;
//! use rumor_churn::MarkovChurn;
//! use rumor_sim::{PaperProtocol, Scenario, UpdateEvent};
//! use rumor_types::DataKey;
//!
//! let scenario = Scenario::builder(48, 11)
//!     .online_fraction(0.75)
//!     .churn(MarkovChurn::new(0.95, 0.3)?)
//!     .loss(0.02)
//!     .build()?;
//! let config = ProtocolConfig::builder(48)
//!     .fanout_absolute(4)
//!     .staleness_rounds(6)
//!     .build()?;
//! let mut cluster = ClusterBuilder::new(&scenario)
//!     .faults(FaultSpec { crash_rate: 0.1, restart_after: 3, ..FaultSpec::default() })?
//!     .virtual_time(PaperProtocol::new(config));
//! let event = UpdateEvent { round: 0, key: DataKey::from_name("motd"), delete: false, sequence: 0 };
//! let update = cluster.initiate(&event).expect("someone online");
//! let converged = cluster.run_until_all_online_aware(update, 120);
//! assert!(converged.is_some(), "update reaches every online replica");
//! let report = cluster.report(update);
//! assert_eq!(report.decode_errors, 0, "strict codec, clean traffic");
//! assert!(report.bytes_sent > report.frames_sent, "bytes accounted per frame");
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod builder;
mod byzantine;
mod cell;
mod conductor;
mod fault;
mod report;
mod shard;
mod sharded;
mod trace;
mod virtual_time;

pub use builder::ClusterBuilder;
pub use byzantine::{ByzantineBehaviour, ByzantineSpec};
pub use cell::DelaySpec;
pub use fault::{FaultError, FaultSpec};
pub use report::ClusterReport;
pub use sharded::ShardedCluster;
pub use virtual_time::VirtualCluster;

// Re-exported so downstream crates can select a codec for
// [`ClusterBuilder::wire`] without depending on `rumor-wire` directly.
pub use rumor_wire::WireVersion;
