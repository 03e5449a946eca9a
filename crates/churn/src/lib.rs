//! Peer availability (churn) substrate.
//!
//! The paper's environment is defined by replicas that are offline most of
//! the time: "availability of the peers to be a random process with expected
//! value of being online between 10% to 30%" (§4.1), with `σ` the
//! probability that an online peer stays online across one push round and
//! `p_on` the probability that an offline peer comes online. This crate
//! provides that random process in several interchangeable forms:
//!
//! * [`MarkovChurn`] — the two-state per-round chain used throughout the
//!   paper's analysis (σ, `p_on`).
//! * [`StaticChurn`] — no transitions; isolates protocol behaviour.
//! * [`HeterogeneousChurn`] — §8's non-uniform availability: a reliable
//!   backbone class mixed with transient peers.
//! * [`Catastrophe`] — failure injection: mass offline events at scheduled
//!   rounds layered over any base model.
//!
//! # Examples
//!
//! ```
//! use rumor_churn::{Churn, MarkovChurn, OnlineSet};
//! use rand::SeedableRng;
//!
//! let mut online = OnlineSet::with_online_count(1000, 100);
//! let mut churn = MarkovChurn::new(0.95, 0.0).expect("valid probabilities");
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
//! churn.step(0, &mut online, &mut rng);
//! assert!(online.online_count() <= 100, "nobody comes online with p_on = 0");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod catastrophe;
mod error;
mod heterogeneous;
mod markov;
mod online_set;
mod poisson;

pub use catastrophe::Catastrophe;
pub use error::ChurnError;
pub use heterogeneous::HeterogeneousChurn;
pub use markov::{MarkovChurn, StaticChurn};
pub use online_set::OnlineSet;
pub use poisson::sample_poisson;

use rand_chacha::ChaCha8Rng;

/// A per-round availability process.
///
/// Implementations mutate the [`OnlineSet`] in place once per push round.
/// The simulator calls [`Churn::step`] *between* rounds, matching the
/// paper's synchronous model where `σ` acts once per round.
pub trait Churn {
    /// Advances the population by one round, toggling peers on/offline.
    fn step(&mut self, round: u32, online: &mut OnlineSet, rng: &mut ChaCha8Rng);

    /// The long-run expected online fraction, if the model has one.
    ///
    /// Markov churn with `σ` and `p_on` has stationary online probability
    /// `p_on / (p_on + 1 − σ)`; catastrophe models may not have a
    /// meaningful stationary value and return `None`.
    fn stationary_online_fraction(&self) -> Option<f64> {
        None
    }
}
