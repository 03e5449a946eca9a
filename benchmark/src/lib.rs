//! `rumor-benchmark` — the repository's benchmark: closed-loop
//! update-delivery workloads over the engine and live-cluster paths, with
//! per-layer spans recorded from outside, through the public API only.
//!
//! See `README.md` for the workloads, the metrics, how they interact and
//! how to run and compare.

#![deny(unsafe_code)]
#![warn(missing_docs)]

#[allow(unsafe_code)]
pub mod alloc;
pub mod api;
pub mod compare;
pub mod harness;
pub mod json;
pub mod metrics;
pub mod pass;
pub mod probe;
pub mod result;
pub mod span;
pub mod stats;
pub mod sys;
pub mod workload;

#[global_allocator]
static ALLOCATOR: alloc::CountingAllocator = alloc::CountingAllocator;
