//! Logical-network substrate: the engine that drives protocol nodes.
//!
//! The paper separates the update algorithm from physical connectivity:
//! "the algorithm deals with logical connectivity (knowledge), and is
//! disentangled from the underlying network/physical connectivity" (§1),
//! and its analysis uses "a synchronous model which is a standard model
//! for analysing epidemic algorithms" (§3). Accordingly this crate offers
//! one engine over the [`Node`] abstraction: [`SyncEngine`] — lock-step
//! push rounds: a message sent in round `t` is delivered at the start of
//! round `t+1`; messages addressed to offline peers are lost (and still
//! counted, as in the paper's overhead metric). That rounds "need not be
//! synchronous" (§4.1) — messages of different rounds coexisting in
//! flight — is exercised by `rumor-cluster`'s delivery-delay model, which
//! mounts the same nodes.
//!
//! [`topology`] builds the *knowledge graph* — which replicas each peer
//! initially knows — *full* or *partial* (random subset), per §2's
//! assumption that "each replica knows a minimal fraction of the complete
//! set of replicas".

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod link;
mod node;
mod sink;
mod stats;
mod sync_engine;
mod timer;
pub mod topology;

pub use link::{BernoulliLoss, LinkFilter, Partition, PerfectLinks};
pub use node::{Effect, Node};
pub use sink::EffectSink;
pub use stats::EngineStats;
pub use sync_engine::SyncEngine;
pub use timer::TimerQueue;
