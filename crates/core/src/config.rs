//! Protocol configuration and its builder.

use crate::error::CoreError;
use crate::fanout::FanoutPolicy;
use crate::forward::ForwardPolicy;
use crate::partial_list::TruncationPolicy;
use serde::{Deserialize, Serialize};

/// §6's acknowledgement policy: whom a replica acks after receiving an
/// update ("p may adopt a policy to reply back only to the first or first
/// k random replica\[s\]").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AckPolicy {
    /// Never acknowledge (the paper's base protocol).
    None,
    /// Acknowledge the first `k` distinct senders of an update
    /// (`FirstK(1)`: only the first replica it was received from).
    FirstK(u32),
}

impl AckPolicy {
    /// Maximum acks sent per update under this policy.
    pub fn limit(&self) -> u32 {
        match *self {
            Self::None => 0,
            Self::FirstK(k) => k,
        }
    }
}

/// When a replica initiates the pull phase (§3 pseudocode triggers).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PullStrategy {
    /// Pull immediately on coming online ("online_again").
    Eager,
    /// §6's lazy optimisation: after coming online, wait `patience` rounds
    /// for a push to arrive; pull only if none does.
    Lazy {
        /// Rounds to wait for a push before pulling.
        patience: u32,
    },
    /// Pull only when explicitly triggered (e.g. by an unconfident query).
    OnDemand,
}

/// Pull-phase configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PullConfig {
    /// Trigger strategy.
    pub strategy: PullStrategy,
    /// How many replicas to contact per pull ("it is preferable to
    /// contact multiple peers and choose the most up to date", §3).
    pub fanout: usize,
    /// `no_updates_since` trigger: pull after this many rounds without
    /// receiving any update information. `None` disables the periodic
    /// trigger (the setting used when reproducing pure push-phase
    /// figures).
    pub staleness_rounds: Option<u32>,
    /// Rounds to wait for a pull response before retrying (§4.3 models
    /// success over *k attempts* — a single salvo often hits only offline
    /// replicas). `0` disables retries.
    pub retry_rounds: u32,
    /// Maximum pull retries per trigger.
    pub max_retries: u32,
    /// Wire-v2 digest-delta pulls: instead of shipping the full store
    /// digest, name the store's state by its 8-byte digest fingerprint
    /// and receive what the responder's apply history says that state
    /// lacks — O(delta) response bytes instead of O(store) request +
    /// response. Off by default; the full-digest exchange remains the
    /// v1-compatible path.
    pub delta: bool,
}

impl Default for PullConfig {
    fn default() -> Self {
        Self {
            strategy: PullStrategy::Eager,
            fanout: 3,
            staleness_rounds: None,
            retry_rounds: 3,
            max_retries: 5,
            delta: false,
        }
    }
}

/// Complete configuration of a [`ReplicaPeer`](crate::ReplicaPeer).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProtocolConfig {
    /// The replication factor `R` this partition is configured for.
    pub total_replicas: usize,
    /// Push fanout (`f_r`).
    pub fanout: FanoutPolicy,
    /// Forwarding probability `PF(t)`.
    pub forward: ForwardPolicy,
    /// Partial-list bound (`L_thr`).
    pub truncation: TruncationPolicy,
    /// Acknowledgement policy.
    pub ack: AckPolicy,
    /// Rounds during which a peer that failed to ack is deprioritised
    /// (§6: the strategy "will only be effective for short time
    /// intervals").
    pub ack_cooloff_rounds: u32,
    /// Pull-phase behaviour.
    pub pull: PullConfig,
}

impl ProtocolConfig {
    /// Starts building a configuration for a partition of `total_replicas`
    /// replicas.
    ///
    /// # Examples
    ///
    /// ```
    /// use rumor_core::{ForwardPolicy, ProtocolConfig};
    ///
    /// let config = ProtocolConfig::builder(1000)
    ///     .fanout_fraction(0.01)
    ///     .forward(ForwardPolicy::ExponentialDecay { base: 0.9 })
    ///     .build()?;
    /// assert_eq!(config.push_targets(), 10);
    /// # Ok::<(), rumor_core::CoreError>(())
    /// ```
    pub fn builder(total_replicas: usize) -> ProtocolConfigBuilder {
        ProtocolConfigBuilder {
            config: ProtocolConfig {
                total_replicas,
                fanout: FanoutPolicy::Fraction { f_r: 0.01 },
                forward: ForwardPolicy::Always,
                truncation: TruncationPolicy::None,
                ack: AckPolicy::None,
                ack_cooloff_rounds: 10,
                pull: PullConfig::default(),
            },
        }
    }

    /// Number of replicas addressed per push under this configuration.
    pub fn push_targets(&self) -> usize {
        self.fanout.targets(self.total_replicas)
    }
}

/// Builder for [`ProtocolConfig`] (non-consuming terminal method).
#[derive(Debug, Clone)]
pub struct ProtocolConfigBuilder {
    config: ProtocolConfig,
}

impl ProtocolConfigBuilder {
    /// Sets the fanout as a fraction `f_r` of `R`.
    pub fn fanout_fraction(&mut self, f_r: f64) -> &mut Self {
        self.config.fanout = FanoutPolicy::Fraction { f_r };
        self
    }

    /// Sets the fanout as an absolute target count.
    pub fn fanout_absolute(&mut self, count: usize) -> &mut Self {
        self.config.fanout = FanoutPolicy::Absolute { count };
        self
    }

    /// Sets the forwarding policy `PF(t)`.
    pub fn forward(&mut self, policy: ForwardPolicy) -> &mut Self {
        self.config.forward = policy;
        self
    }

    /// Sets the partial-list truncation policy.
    pub fn truncation(&mut self, policy: TruncationPolicy) -> &mut Self {
        self.config.truncation = policy;
        self
    }

    /// Sets the acknowledgement policy.
    pub fn ack(&mut self, policy: AckPolicy) -> &mut Self {
        self.config.ack = policy;
        self
    }

    /// Sets how long non-acking peers are deprioritised.
    pub fn ack_cooloff_rounds(&mut self, rounds: u32) -> &mut Self {
        self.config.ack_cooloff_rounds = rounds;
        self
    }

    /// Sets the pull strategy.
    pub fn pull_strategy(&mut self, strategy: PullStrategy) -> &mut Self {
        self.config.pull.strategy = strategy;
        self
    }

    /// Sets how many replicas each pull contacts.
    pub fn pull_fanout(&mut self, fanout: usize) -> &mut Self {
        self.config.pull.fanout = fanout;
        self
    }

    /// Enables the periodic `no_updates_since` pull trigger.
    pub fn staleness_rounds(&mut self, rounds: u32) -> &mut Self {
        self.config.pull.staleness_rounds = Some(rounds);
        self
    }

    /// Configures pull retries: wait `rounds` for a response, retry up to
    /// `max` times (`rounds = 0` disables).
    pub fn pull_retry(&mut self, rounds: u32, max: u32) -> &mut Self {
        self.config.pull.retry_rounds = rounds;
        self.config.pull.max_retries = max;
        self
    }

    /// Enables wire-v2 digest-delta pulls (see [`PullConfig::delta`]).
    pub fn delta_pulls(&mut self, enabled: bool) -> &mut Self {
        self.config.pull.delta = enabled;
        self
    }

    /// Validates and returns the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] when any parameter is out of
    /// range (zero population, bad `f_r`, invalid `PF`, zero pull fanout).
    pub fn build(&self) -> Result<ProtocolConfig, CoreError> {
        let c = &self.config;
        if c.total_replicas == 0 {
            return Err(CoreError::invalid_config(
                "total_replicas",
                "population must be non-empty",
            ));
        }
        c.fanout
            .validate()
            .map_err(|e| CoreError::invalid_config("fanout", e))?;
        c.forward
            .validate()
            .map_err(|e| CoreError::invalid_config("forward", e))?;
        if c.pull.fanout == 0 {
            return Err(CoreError::invalid_config(
                "pull.fanout",
                "a pull must contact at least one replica",
            ));
        }
        if let TruncationPolicy::MaxFraction { fraction, .. } = c.truncation {
            if !(fraction > 0.0 && fraction <= 1.0) {
                return Err(CoreError::invalid_config(
                    "truncation",
                    format!("fraction must be in (0,1], got {fraction}"),
                ));
            }
        }
        Ok(c.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partial_list::DiscardStrategy;

    #[test]
    fn defaults_are_the_papers_base_protocol() {
        let c = ProtocolConfig::builder(1000).build().unwrap();
        assert_eq!(c.fanout, FanoutPolicy::Fraction { f_r: 0.01 });
        assert_eq!(c.forward, ForwardPolicy::Always);
        assert_eq!(c.truncation, TruncationPolicy::None);
        assert_eq!(c.ack, AckPolicy::None);
        assert_eq!(c.pull.strategy, PullStrategy::Eager);
        assert_eq!(c.push_targets(), 10);
    }

    #[test]
    fn builder_sets_every_knob() {
        let c = ProtocolConfig::builder(500)
            .fanout_absolute(4)
            .forward(ForwardPolicy::Constant { p: 0.8 })
            .truncation(TruncationPolicy::MaxEntries {
                cap: 50,
                discard: DiscardStrategy::Random,
            })
            .ack(AckPolicy::FirstK(2))
            .ack_cooloff_rounds(5)
            .pull_strategy(PullStrategy::Lazy { patience: 3 })
            .pull_fanout(7)
            .staleness_rounds(40)
            .pull_retry(2, 9)
            .delta_pulls(true)
            .build()
            .unwrap();
        assert_eq!(c.push_targets(), 4);
        assert_eq!(c.ack.limit(), 2);
        assert_eq!(c.ack_cooloff_rounds, 5);
        assert_eq!(c.pull.fanout, 7);
        assert_eq!(c.pull.staleness_rounds, Some(40));
        assert_eq!(c.pull.retry_rounds, 2);
        assert_eq!(c.pull.max_retries, 9);
        assert!(c.pull.delta);
    }

    #[test]
    fn rejects_empty_population() {
        assert!(ProtocolConfig::builder(0).build().is_err());
    }

    #[test]
    fn rejects_bad_fanout() {
        assert!(ProtocolConfig::builder(10)
            .fanout_fraction(0.0)
            .build()
            .is_err());
        assert!(ProtocolConfig::builder(10)
            .fanout_absolute(0)
            .build()
            .is_err());
    }

    #[test]
    fn rejects_bad_forward_policy() {
        assert!(ProtocolConfig::builder(10)
            .forward(ForwardPolicy::Constant { p: 2.0 })
            .build()
            .is_err());
    }

    #[test]
    fn rejects_zero_pull_fanout() {
        assert!(ProtocolConfig::builder(10).pull_fanout(0).build().is_err());
    }

    #[test]
    fn rejects_bad_truncation_fraction() {
        assert!(ProtocolConfig::builder(10)
            .truncation(TruncationPolicy::MaxFraction {
                fraction: 0.0,
                discard: DiscardStrategy::Head,
            })
            .build()
            .is_err());
    }

    #[test]
    fn ack_limits() {
        assert_eq!(AckPolicy::None.limit(), 0);
        assert_eq!(AckPolicy::FirstK(1).limit(), 1);
        assert_eq!(AckPolicy::FirstK(5).limit(), 5);
    }
}
