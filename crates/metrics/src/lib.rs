//! Measurement substrate for the `rumor` experiments.
//!
//! The paper's performance criterion is "primarily the number of messages
//! that are generated as part of a single update, compared to the extent to
//! which the update propagates among the online population" (§5). This
//! crate provides the per-round series, summaries, convergence detectors
//! and plain-text table formatting that the simulator and the
//! experiment harness use to report exactly those quantities.
//!
//! # Examples
//!
//! ```
//! use rumor_metrics::{RoundSeries, SampleStats};
//!
//! let mut msgs = RoundSeries::new("messages");
//! msgs.record(0, 10.0);
//! msgs.record(1, 40.0);
//! assert_eq!(msgs.total(), 50.0);
//!
//! let s = SampleStats::of(&[1.0, 2.0, 3.0]);
//! assert_eq!(s.mean(), 2.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod convergence;
mod histogram;
mod series;
mod stats;
mod table;

pub use convergence::ConvergenceDetector;
pub use histogram::Histogram;
pub use series::{RoundSeries, SeriesPoint};
pub use stats::{t_critical_95, ConfidenceInterval, SampleStats};
pub use table::{Align, Table};
