//! The seeded crash/restart fault injector.
//!
//! Churn (the paper's availability model) and crashes are different
//! faults: a churn-offline replica's runtime keeps running and merely
//! refuses protocol work, while a *crashed* node's executor is gone —
//! its cell is parked inside its shard and misses every tick until the
//! restart, with node state surviving the gap (the paper's replicas keep
//! their stores across sessions). The injector draws both decisions from
//! one dedicated ChaCha8 substream, stepped once per round by the one
//! conductor, so a crash schedule replays identically on the
//! virtual-time and sharded front-ends at any worker count.

use crate::byzantine::ByzantineSpec;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rumor_types::PeerId;

/// Crash/restart plan: per round, with probability `crash_rate`, one
/// uniformly chosen node crashes (no-op if the pick is already down) and
/// comes back `restart_after` rounds later. The optional
/// [`ByzantineSpec`] additionally mounts a seeded fraction of the
/// population as adversarial members.
///
/// A spec is *validated* when a cluster is built
/// ([`ClusterBuilder::faults`](crate::ClusterBuilder::faults) calls
/// [`FaultSpec::validate`]): a NaN, negative or greater-than-one rate or
/// fraction, or a zero restart gap, is a typed [`FaultError`] instead of
/// a silently misbehaving run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultSpec {
    /// Per-round probability that a crash is attempted.
    pub crash_rate: f64,
    /// Rounds a crashed node stays down before its restart (≥ 1).
    pub restart_after: u32,
    /// The adversarial population slice (disabled by default).
    pub byzantine: ByzantineSpec,
}

impl Default for FaultSpec {
    fn default() -> Self {
        Self {
            crash_rate: 0.0,
            restart_after: 5,
            byzantine: ByzantineSpec::default(),
        }
    }
}

impl FaultSpec {
    /// Checks every parameter, returning the spec unchanged when sound.
    ///
    /// # Errors
    ///
    /// [`FaultError::CrashRate`] when `crash_rate` is NaN, negative or
    /// above `1.0`; [`FaultError::RestartAfter`] when `restart_after`
    /// is `0` (a crash that never keeps the node down is a schedule
    /// bug, not a fault plan); [`FaultError::ByzantineFraction`] when
    /// the Byzantine fraction is NaN, negative or above `1.0`.
    pub fn validate(self) -> Result<Self, FaultError> {
        if !(0.0..=1.0).contains(&self.crash_rate) {
            return Err(FaultError::CrashRate {
                value: self.crash_rate,
            });
        }
        if self.restart_after == 0 {
            return Err(FaultError::RestartAfter);
        }
        if !(0.0..=1.0).contains(&self.byzantine.fraction) {
            return Err(FaultError::ByzantineFraction {
                value: self.byzantine.fraction,
            });
        }
        Ok(self)
    }
}

/// A rejected [`FaultSpec`] parameter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultError {
    /// `crash_rate` is not a probability (NaN, negative or > 1).
    CrashRate {
        /// The offending value.
        value: f64,
    },
    /// `restart_after` is zero.
    RestartAfter,
    /// The Byzantine fraction is not a probability (NaN, negative
    /// or > 1).
    ByzantineFraction {
        /// The offending value.
        value: f64,
    },
}

impl std::fmt::Display for FaultError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::CrashRate { value } => {
                write!(f, "crash_rate must be a probability in [0, 1], got {value}")
            }
            Self::RestartAfter => {
                write!(f, "restart_after must be at least 1 round")
            }
            Self::ByzantineFraction { value } => write!(
                f,
                "byzantine.fraction must be a probability in [0, 1], got {value}"
            ),
        }
    }
}

impl std::error::Error for FaultError {}

/// The fault decisions for one round, in application order: restarts
/// first (a node crashed earlier comes back), then at most one new crash.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub(crate) struct FaultEvents {
    pub restarts: Vec<PeerId>,
    pub crash: Option<PeerId>,
}

impl FaultEvents {
    /// The events as cell park-flag changes, in application order.
    pub fn parkings(self) -> impl Iterator<Item = (PeerId, bool)> {
        let restarts = self.restarts.into_iter().map(|peer| (peer, false));
        restarts.chain(self.crash.map(|peer| (peer, true)))
    }
}

/// Seeded crash scheduler owned by the conductor.
#[derive(Debug, Clone)]
pub(crate) struct FaultInjector {
    spec: FaultSpec,
    rng: ChaCha8Rng,
    down_until: Vec<Option<u32>>,
    pub crashes: u64,
    pub restarts: u64,
}

impl FaultInjector {
    pub fn new(spec: FaultSpec, seed: u64, population: usize) -> Self {
        Self {
            spec,
            rng: ChaCha8Rng::seed_from_u64(seed),
            down_until: vec![None; population],
            crashes: 0,
            restarts: 0,
        }
    }

    /// Draws this round's fault events and updates the down set.
    pub fn step(&mut self, round: u32) -> FaultEvents {
        let mut events = FaultEvents::default();
        for (i, slot) in self.down_until.iter_mut().enumerate() {
            if slot.is_some_and(|until| until <= round) {
                *slot = None;
                self.restarts += 1;
                events.restarts.push(PeerId::new(i as u32));
            }
        }
        if self.spec.crash_rate > 0.0 && self.rng.gen_bool(self.spec.crash_rate.min(1.0)) {
            let victim = self.rng.gen_range(0..self.down_until.len());
            if self.down_until[victim].is_none() {
                self.down_until[victim] = Some(round + self.spec.restart_after.max(1));
                self.crashes += 1;
                events.crash = Some(PeerId::new(victim as u32));
            }
        }
        events
    }

    /// Whether `peer` is currently crashed.
    pub fn is_down(&self, peer: PeerId) -> bool {
        self.down_until
            .get(peer.index())
            .is_some_and(Option::is_some)
    }

    /// Whether any node is currently crashed (blocks quiescence — frames
    /// may be parked in a dead node's mailbox).
    pub fn any_down(&self) -> bool {
        self.down_until.iter().any(Option::is_some)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_rate_means_no_faults() {
        let mut inj = FaultInjector::new(FaultSpec::default(), 1, 8);
        for round in 0..50 {
            assert_eq!(inj.step(round), FaultEvents::default());
        }
        assert!(!inj.any_down());
    }

    #[test]
    fn crash_then_restart_after_the_configured_gap() {
        let spec = FaultSpec {
            crash_rate: 1.0,
            restart_after: 3,
            ..FaultSpec::default()
        };
        let mut inj = FaultInjector::new(spec, 7, 4);
        let events = inj.step(0);
        let victim = events.crash.expect("rate 1.0 must crash someone");
        assert!(inj.is_down(victim));
        assert!(inj.any_down());
        // The victim restarts at round 3; other crashes may pile up on
        // the remaining nodes meanwhile.
        let mut restarted_at = None;
        for round in 1..10 {
            let events = inj.step(round);
            if events.restarts.contains(&victim) && restarted_at.is_none() {
                restarted_at = Some(round);
            }
        }
        assert_eq!(restarted_at, Some(3));
    }

    #[test]
    fn schedule_replays_per_seed() {
        let spec = FaultSpec {
            crash_rate: 0.4,
            restart_after: 2,
            ..FaultSpec::default()
        };
        let run = || {
            let mut inj = FaultInjector::new(spec, 42, 16);
            (0..40).map(|r| inj.step(r)).collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn crash_on_a_down_node_is_a_noop() {
        let spec = FaultSpec {
            crash_rate: 1.0,
            restart_after: 100,
            ..FaultSpec::default()
        };
        let mut inj = FaultInjector::new(spec, 3, 1); // single node
        assert!(inj.step(0).crash.is_some());
        for round in 1..10 {
            assert_eq!(inj.step(round).crash, None, "round {round}");
        }
        assert_eq!(inj.crashes, 1);
    }

    #[test]
    fn sound_specs_validate_unchanged() {
        for spec in [
            FaultSpec::default(),
            FaultSpec {
                crash_rate: 1.0,
                restart_after: 1,
                ..FaultSpec::default()
            },
            FaultSpec {
                byzantine: crate::ByzantineSpec {
                    fraction: 1.0,
                    behaviour: crate::ByzantineBehaviour::DigestLie,
                },
                ..FaultSpec::default()
            },
        ] {
            assert_eq!(spec.validate(), Ok(spec));
        }
    }

    #[test]
    fn bad_crash_rates_are_typed_errors() {
        for bad in [f64::NAN, -0.01, 1.01, f64::INFINITY, f64::NEG_INFINITY] {
            let spec = FaultSpec {
                crash_rate: bad,
                ..FaultSpec::default()
            };
            assert!(
                matches!(spec.validate(), Err(FaultError::CrashRate { .. })),
                "crash_rate {bad} slipped through"
            );
        }
    }

    #[test]
    fn zero_restart_gap_is_rejected() {
        let spec = FaultSpec {
            restart_after: 0,
            ..FaultSpec::default()
        };
        assert_eq!(spec.validate(), Err(FaultError::RestartAfter));
    }

    #[test]
    fn bad_byzantine_fractions_are_typed_errors() {
        for bad in [f64::NAN, -1.0, 1.5] {
            let spec = FaultSpec {
                byzantine: crate::ByzantineSpec {
                    fraction: bad,
                    ..crate::ByzantineSpec::default()
                },
                ..FaultSpec::default()
            };
            assert!(
                matches!(spec.validate(), Err(FaultError::ByzantineFraction { .. })),
                "fraction {bad} slipped through"
            );
        }
    }

    #[test]
    fn fault_errors_render_the_offending_value() {
        let err = FaultSpec {
            crash_rate: 2.0,
            ..FaultSpec::default()
        }
        .validate()
        .unwrap_err();
        assert!(err.to_string().contains("2"));
        assert!(FaultError::RestartAfter.to_string().contains("at least 1"));
    }
}
