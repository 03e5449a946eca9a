//! `rumor-core` — the hybrid push/pull update protocol of Datta,
//! Hauswirth & Aberer, *Updates in Highly Unreliable, Replicated
//! Peer-to-Peer Systems* (ICDCS 2003).
//!
//! The crate implements the paper's primary contribution as a sans-IO
//! replica state machine, [`ReplicaPeer`]:
//!
//! * **Push phase** (§3): on receiving `Push(U, V, R_f, t)` a replica that
//!   has not yet processed the update selects a random subset `R_p` of its
//!   known replicas with `|R_p| = R · f_r` and, with probability `PF(t)`,
//!   forwards `Push(U, V, R_f ∪ R_p, t+1)` to `R_p \ R_f`. The partial
//!   flooding list `R_f` — the paper's *feed-forward/speculation*
//!   mechanism — suppresses duplicates and doubles as a replica-discovery
//!   channel (cf. the *name dropper* scheme).
//! * **Pull phase** (§3): replicas that come (back) online, have seen no
//!   update for a while, or receive a pull while unconfident, reconcile
//!   with randomly chosen replicas via version digests (anti-entropy).
//! * **Versioning** (§3, footnote 1): a version is a *chain of version
//!   identifiers* ([`Lineage`]); incomparable lineages coexist as distinct
//!   versions, deletions are tombstones carrying death certificates.
//! * **Self-tuning** (§6): forwarding probability driven by locally
//!   observable signals — duplicate counts, acknowledgements, and the
//!   partial-list length `l(t)` as an estimator of global spread.
//!
//! The peer is a pure state machine implementing [`rumor_net::Node`]:
//! every input writes its [`rumor_net::Effect`]s into a reusable
//! [`rumor_net::EffectSink`], so the same code runs — without allocating
//! on the hot path — under the synchronous round engine (the paper's
//! analysis model), the live cluster runtime, or any real transport a
//! downstream user wires up.
//!
//! # Examples
//!
//! ```
//! use rumor_core::{ProtocolConfig, ReplicaPeer, Value};
//! use rumor_net::EffectSink;
//! use rumor_types::{DataKey, PeerId, Round};
//! use rand::SeedableRng;
//!
//! let config = ProtocolConfig::builder(100)   // R = 100 replicas
//!     .fanout_fraction(0.05)                  // f_r
//!     .build()?;
//! let mut peer = ReplicaPeer::new(PeerId::new(0), config);
//! peer.learn_replicas((1..100).map(PeerId::new));
//!
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
//! let mut effects = EffectSink::new();
//! let key = DataKey::from_name("motd");
//! let update = peer.initiate_update(
//!     key, Some(Value::from("hello")), Round::ZERO, &mut rng, &mut effects);
//! assert_eq!(effects.len(), 5, "R * f_r = 5 initial pushes");
//! assert!(peer.store().latest(key).is_some());
//! # let _ = update;
//! # Ok::<(), rumor_core::CoreError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod digest;
mod error;
mod fanout;
mod forward;
mod message;
mod partial_list;
mod peer;
mod peer_set;
mod query;
mod select;
mod store;
mod update;
mod value;
mod version;

pub use config::{AckPolicy, ProtocolConfig, ProtocolConfigBuilder, PullConfig, PullStrategy};
pub use digest::StoreDigest;
pub use error::CoreError;
pub use fanout::FanoutPolicy;
pub use forward::{ForwardPolicy, TuningSignals};
pub use message::{Message, PushMessage, REPLICA_ENTRY_BYTES};
pub use partial_list::{DiscardStrategy, PartialList, TruncationPolicy};
pub use peer::{PeerStats, ReplicaPeer};
pub use query::{QueryAnswer, QueryPolicy};
pub use select::select_targets;
pub use store::{ApplyOutcome, DeltaAnswer, ReplicaStore, StoredVersion};
pub use update::Update;
pub use value::Value;
pub use version::{Lineage, VersionRelation};
