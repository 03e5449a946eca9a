//! Error type for churn model construction.

use std::error::Error;
use std::fmt;

/// Error returned when a churn model is configured with invalid parameters.
#[derive(Debug, Clone, PartialEq)]
pub enum ChurnError {
    /// A probability parameter was outside `[0, 1]`.
    ProbabilityOutOfRange {
        /// Which parameter was invalid.
        name: &'static str,
        /// The offending value.
        value: f64,
    },
    /// A per-peer availability assignment was empty or referenced an
    /// undefined class.
    InvalidTrace {
        /// Human-readable reason.
        reason: String,
    },
}

impl fmt::Display for ChurnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::ProbabilityOutOfRange { name, value } => {
                write!(f, "probability `{name}` must be in [0, 1], got {value}")
            }
            Self::InvalidTrace { reason } => write!(f, "invalid availability trace: {reason}"),
        }
    }
}

impl Error for ChurnError {}

pub(crate) fn check_probability(name: &'static str, value: f64) -> Result<f64, ChurnError> {
    if (0.0..=1.0).contains(&value) {
        Ok(value)
    } else {
        Err(ChurnError::ProbabilityOutOfRange { name, value })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probability_bounds() {
        assert!(check_probability("p", 0.0).is_ok());
        assert!(check_probability("p", 1.0).is_ok());
        assert!(check_probability("p", -0.1).is_err());
        assert!(check_probability("p", 1.1).is_err());
        assert!(check_probability("p", f64::NAN).is_err());
    }

    #[test]
    fn display_mentions_parameter() {
        let e = ChurnError::ProbabilityOutOfRange {
            name: "sigma",
            value: 2.0,
        };
        assert!(e.to_string().contains("sigma"));
    }
}
