//! `rumor-obs` — deterministic structured tracing for the rumor stack.
//!
//! The paper's results are *dynamics* (fraction-aware-per-round curves,
//! push die-out, pull repair), but aggregate reports only say how a run
//! *ended*. This crate is the workspace's single observability surface:
//! a sink-style [`Tracer`] trait the engines are generic over, a
//! zero-cost [`NopTracer`] default, and a ring-buffered [`MemTracer`]
//! that captures structured [`TraceEvent`]s for export.
//!
//! Two invariants make traces trustworthy:
//!
//! * **Virtual time only.** Events are stamped with the synchronous
//!   round and a per-node capture sequence — never wall-clock time, so
//!   the `determinism` lint holds and a trace is a pure function of the
//!   seed.
//! * **Tracing never perturbs the run.** A tracer consumes no
//!   randomness and emits no effects; the [`NopTracer`] path
//!   monomorphizes away entirely, and enabling a [`MemTracer`] changes
//!   no message, draw or outcome.
//!
//! Per-cell buffers from the parallel cluster executors merge into one
//! canonical `(round, node, seq)` order ([`TraceDoc::merge`]); the
//! [environment sub-trace](TraceDoc::environment) — conductor-side
//! decisions only — is bit-identical across executors and worker
//! counts. [`analysis`] derives awareness curves, per-round traffic
//! series and dissemination trees; [`render_timeline`] prints a human
//! view; [`TraceDoc::to_json`] writes the `rumor-obs/trace/v1`
//! artefact.
//!
//! # Examples
//!
//! ```
//! use rumor_obs::{EventKind, MemTracer, MsgKind, TraceDoc, Tracer};
//!
//! let mut tracer = MemTracer::new();
//! tracer.record(0, 0, EventKind::Initiate { update: 0 });
//! tracer.record(0, 0, EventKind::Send { to: 1, kind: MsgKind::Push, bytes: 64 });
//! tracer.record(1, 1, EventKind::Deliver { from: 0, kind: MsgKind::Push });
//! tracer.record(1, 1, EventKind::Aware { update: 0 });
//!
//! let doc = TraceDoc::new("example", 42, 2, tracer.take());
//! assert!(doc.to_json().contains("rumor-obs/trace/v1"));
//! let tree = rumor_obs::analysis::dissemination_tree(&doc.events, 0);
//! assert_eq!(tree[1].parent, Some(0));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
mod awareness;
mod event;
mod timeline;
mod trace;
mod tracer;

pub use awareness::AwarenessRecorder;
pub use event::{EventKind, MsgKind, TraceEvent, CONDUCTOR};
pub use timeline::render_timeline;
pub use trace::{TraceDoc, TRACE_SCHEMA};
pub use tracer::{MemTracer, NopTracer, Tracer, DEFAULT_CAPACITY};
