//! `rumor-fuzz` — seeded chaos fuzzer for the rumor-spreading stack.
//!
//! The rest of the workspace proves the protocol on *chosen* scenarios:
//! golden-pinned cluster runs, analytical cross-checks, benchmark
//! baselines. This crate attacks it with *random* ones. From a single
//! master seed it generates whole fuzz cases — population, churn and
//! loss parameters, a workload of writes and deletes, a crash/restart
//! schedule, optionally a block of Byzantine members
//! ([`rumor_cluster::ByzantineBehaviour`]) — runs each case through an
//! existing execution path (the reference `rumor_sim::Driver` engine or
//! the virtual-time `rumor_cluster` runtime), and checks a convergence
//! oracle over the replicas that stayed online:
//!
//! * no initiated update may be *partially* known — either every stable
//!   correct witness holds it or none does;
//! * every stable correct witness's replica store digest must be equal
//!   (anti-entropy converged, tombstones included).
//!
//! Determinism is the contract that makes failures useful. All
//! randomness flows through `rumor_types::SeedSequence` (substream
//! `"fuzz/case"`), a case's seed is its *only* input, and a failing
//! case freezes into an [`ExecutionRecord`] — JSON whose numbers are
//! text-preserving ([`rumor_types::json::Json`]) — that
//! [`ExecutionRecord::replay`] re-runs bit for bit.
//!
//! The `fuzz` binary drives batches ([`run_batch`]), Byzantine
//! degradation sweeps ([`degradation_sweep`]) and record replays; CI
//! runs it in `--smoke` mode.
//!
//! # Examples
//!
//! ```
//! use rumor_fuzz::{run_batch, FuzzConfig};
//!
//! let config = FuzzConfig {
//!     cases: 2,
//!     max_population: 12,
//!     max_rounds: 60,
//!     ..FuzzConfig::default()
//! };
//! let report = run_batch(&config)?;
//! assert!(report.is_clean(), "benign cases must satisfy the oracle");
//! assert_eq!(report.cases_run, 2);
//! # Ok::<(), rumor_fuzz::ConfigError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod case;
mod config;
mod oracle;
mod record;
mod runner;
mod sweep;

pub use case::{behaviour_from_name, behaviour_name, CaseOutcome, CaseSpec, ExecPath};
pub use config::{ConfigError, FuzzConfig};
pub use oracle::Divergence;
pub use record::{ExecutionRecord, ReplayVerdict, RECORD_SCHEMA};
pub use runner::{run_batch, BatchReport, BATCH_SCHEMA};
pub use sweep::{degradation_sweep, SweepPoint, SweepReport, SWEEP_SCHEMA};
