//! Logical time: push rounds.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A push round (the paper's `t`).
///
/// The paper is careful to note (§4.1) that `t` "needs to be interpreted as
/// the round number" rather than wall-clock time: messages from different
/// rounds may coexist in a real network. All analysis and the synchronous
/// simulator advance in these discrete rounds.
///
/// # Examples
///
/// ```
/// use rumor_types::Round;
/// let mut r = Round::ZERO;
/// r = r.next();
/// assert_eq!(r, Round::new(1));
/// assert_eq!(r + 2, Round::new(3));
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Round(u32);

impl Round {
    /// The first push round (the initiator's send happens in round 0).
    pub const ZERO: Self = Self(0);

    /// Creates a round from its number.
    pub const fn new(n: u32) -> Self {
        Self(n)
    }

    /// Returns the round number.
    pub const fn as_u32(self) -> u32 {
        self.0
    }

    /// Returns the round number as a `usize`, for indexing round series.
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// The round after this one.
    #[must_use]
    pub const fn next(self) -> Self {
        Self(self.0 + 1)
    }
}

impl fmt::Display for Round {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "round {}", self.0)
    }
}

impl Add<u32> for Round {
    type Output = Round;
    fn add(self, rhs: u32) -> Round {
        Round(self.0 + rhs)
    }
}

impl AddAssign<u32> for Round {
    fn add_assign(&mut self, rhs: u32) {
        self.0 += rhs;
    }
}

impl Sub<Round> for Round {
    type Output = u32;
    fn sub(self, rhs: Round) -> u32 {
        self.0.saturating_sub(rhs.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_next_increments() {
        assert_eq!(Round::ZERO.next().as_u32(), 1);
    }

    #[test]
    fn round_add_and_sub() {
        let r = Round::new(5);
        assert_eq!(r + 3, Round::new(8));
        assert_eq!(Round::new(8) - r, 3);
        assert_eq!(r - Round::new(8), 0, "subtraction saturates");
    }

    #[test]
    fn round_default_is_zero() {
        assert_eq!(Round::default(), Round::ZERO);
    }

    #[test]
    fn displays_mention_value() {
        assert!(format!("{}", Round::new(4)).contains('4'));
    }
}
