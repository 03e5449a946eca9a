//! Logical-network vocabulary: what a protocol node is and what it may
//! ask of whoever runs it.
//!
//! The paper separates the update algorithm from physical connectivity:
//! "the algorithm deals with logical connectivity (knowledge), and is
//! disentangled from the underlying network/physical connectivity" (§1).
//! Accordingly this crate holds the sans-IO pieces every execution path
//! shares and no round loop: a [`Node`] is a deterministic state machine
//! that writes [`Effect`]s (sends and timers) into an [`EffectSink`];
//! a [`LinkFilter`] decides which deliveries a faulty link drops; a
//! [`TimerQueue`] holds armed timers under one set of firing rules. The
//! paper's synchronous analysis model (§3) — a message sent in round `t`
//! is delivered at the start of round `t+1`, messages to offline peers
//! are lost but still counted — is run by `rumor_sim::Driver`; that
//! rounds "need not be synchronous" (§4.1) is exercised by
//! `rumor-cluster`'s delivery-delay model. Both mount the same nodes.
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
mod timer;
pub mod topology;

pub use link::{BernoulliLoss, LinkFilter, Partition, PerfectLinks};
pub use node::{Effect, Node};
pub use sink::EffectSink;
pub use timer::TimerQueue;
