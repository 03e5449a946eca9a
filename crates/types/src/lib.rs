//! Foundational identifier and time types shared by every `rumor` crate.
//!
//! The update algorithm of Datta et al. (ICDCS 2003) is expressed over
//! *logical* entities only: replicas, rounds, data keys and update versions.
//! This crate defines those vocabulary types once so that the protocol core,
//! the churn and network substrates, the simulator and the experiment
//! harness all speak the same language without depending on each other.
//! The [`json`] module is here for the same reason: it is the one JSON
//! value every artefact writer and the fuzz record reader share.
//!
//! # Examples
//!
//! ```
//! use rumor_types::{PeerId, Round};
//!
//! let p = PeerId::new(7);
//! let r = Round::ZERO.next();
//! assert_eq!(p.index(), 7);
//! assert_eq!(r.as_u32(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ids;
pub mod json;
mod seed;
mod time;

pub use ids::{DataKey, PeerId, UpdateId, VersionId};
pub use seed::{derive_seed, SeedSequence};
pub use time::Round;
