//! Experiment harness regenerating every table and figure of the paper.
//!
//! Each figure/table has a dedicated binary (`fig1` … `fig5`, `table2`,
//! `pull_phase`, `flooding`, `sim_vs_model`, `ablations`) that prints the
//! same series/rows the paper reports; `all_experiments` runs the lot and
//! emits JSON artefacts. The [`experiments`] module exposes the raw data
//! so integration tests can assert the reproduced *shapes* (who wins, by
//! what factor, where crossovers fall) without parsing text.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
pub mod artefact;
pub mod cluster_bench;
pub mod experiments;
pub mod extensions;
pub mod head_to_head;
pub mod json;
pub mod render;
pub mod simfig;
