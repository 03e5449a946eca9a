//! The benchmark's API contract with the repository.
//!
//! This is the only module that names `rumor::*` items; everything else
//! imports them from here. A refactor that renames, moves or removes one
//! of these (ROADMAP items 2a, 2c, 2f) therefore sees the whole surface
//! the benchmark depends on in one place — and every layer is measured
//! through it, from outside, with no access to anything `pub(crate)`.
//!
//! Methods the benchmark calls on these types:
//!
//! * `Scenario::builder` + `online_fraction` / `topology` / `churn` /
//!   `loss` / `convergence` / `build`; `Scenario::{drive, drive_traced,
//!   make_churn, initial_online_set}`
//! * `Driver::{initiate, track_update, rounds_run, messages, bytes_sent,
//!   stats, nodes, online, tracer}`; `EngineStats::{sent, wasted}`
//! * `Protocol` and `Node` (implemented by delegation in `span.rs`),
//!   `EffectSink::len`
//! * `PaperProtocol::new`, `ProtocolConfig::builder` + `fanout_absolute` /
//!   `pull_strategy` / `pull_retry` / `staleness_rounds` / `delta_pulls` /
//!   `build`, `AntiEntropy { push_pull }`, `MarkovChurn::new`,
//!   `Churn::step`
//! * `ClusterBuilder::{new, wire, workers, traced, sharded,
//!   virtual_time}`; `ShardedCluster::{initiate,
//!   run_until_all_online_aware, rounds_run, frames_sent, bytes_sent,
//!   messages_sent, finish, finish_traced}`; `VirtualCluster::{initiate,
//!   run_until_all_online_aware, rounds_run}`; the public fields of
//!   `ClusterReport`; `TraceDoc::events`
//! * `encode_frame`, `decode_frame`, `decode_frame_v2`, `BatchEncoder`,
//!   `frame_len`, `WireVersion`, `Encode`, `Decode`, `Bytes`
//! * `ReplicaStore::{new, apply, digest}`, `PartialList::union_with`,
//!   the public fields of `Message::Push` / `PullResponse` /
//!   `DeltaResponse`, `consistency_fraction`
//! * `MemTracer::{with_capacity, len, dropped}`, `NopTracer`, `Tracer`
//!   (as a bound only), `MsgKind`

pub use rumor::baselines::{AntiEntropy, DemersMsg};
pub use rumor::churn::{Churn, MarkovChurn, OnlineSet};
pub use rumor::cluster::{ClusterBuilder, ClusterReport, ShardedCluster, VirtualCluster};
pub use rumor::core::{
    Message, PartialList, ProtocolConfig, PullStrategy, ReplicaPeer, ReplicaStore, Update,
};
pub use rumor::net::{EffectSink, Node};
pub use rumor::obs::{MemTracer, MsgKind, NopTracer, Tracer};
pub use rumor::sim::{
    consistency_fraction, ConvergenceSpec, Driver, PaperProtocol, Protocol, Scenario, TopologySpec,
    UpdateEvent,
};
pub use rumor::types::{DataKey, PeerId, Round, UpdateId};
pub use rumor::wire::{
    decode_frame, decode_frame_v2, encode_frame, frame_len, BatchEncoder, Bytes, Decode, Encode,
    WireVersion,
};
