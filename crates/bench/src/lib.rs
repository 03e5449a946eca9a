//! Experiment harness regenerating every table and figure of the paper.
//!
//! One binary, `paper <name|all> [out_dir]`, runs [`paper::run`]: each
//! figure or table of the paper is one named experiment that prints the
//! series/rows the paper reports and writes them as JSON artefacts. The
//! [`experiments`] module exposes the raw data so integration tests can
//! assert the reproduced *shapes* (who wins, by what factor, where
//! crossovers fall) without parsing text.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
pub mod artefact;
pub mod cluster_bench;
pub mod experiments;
pub mod extensions;
pub mod head_to_head;
pub mod json;
pub mod paper;
pub mod render;
pub mod simfig;
