//! Adversarial (Byzantine) cluster members.
//!
//! The crash/restart injector models benign failure: a crashed replica
//! is silent. Malkhi, Mansour & Reiter's Byzantine diffusion model asks
//! the harder question — what happens when a replica keeps talking but
//! *lies*? This module turns a seeded fraction of the population into
//! liars. A Byzantine member runs the ordinary node logic (so it stays
//! indistinguishable until it speaks) and tampers at the wire boundary,
//! where both runtime modes already funnel every message:
//!
//! * [`ByzantineBehaviour::DigestLie`] — rewrites outgoing messages
//!   through the protocol's typed liar
//!   ([`rumor_sim::Protocol::byzantine_liar`]); the paper peer's liar
//!   answers pull digests with "you are missing nothing".
//! * [`ByzantineBehaviour::StaleReplay`] — remembers frames it has sent
//!   or delivered and re-injects old ones alongside fresh sends,
//!   replaying stale and tombstoned updates bit-for-bit.
//! * [`ByzantineBehaviour::CorruptFrames`] — damages outgoing frames
//!   with [`rumor_wire::FrameCorruption`] draws; receivers count the
//!   rejects as decode errors.
//! * [`ByzantineBehaviour::Mixed`] — cycles through all three.
//!
//! Selection and every tampering decision draw from the dedicated
//! `"cluster/byzantine"` seed substream, so a Byzantine schedule replays
//! identically in virtual-time mode and is independent of the crash,
//! churn and link streams (a benign run's golden pins never move).

use bytes::Bytes;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rumor_sim::MsgTamper;
use rumor_types::derive_seed;
use rumor_wire::FrameCorruption;
use std::collections::VecDeque;

/// How many remembered frames a stale-replaying member keeps.
const REPLAY_MEMORY: usize = 32;

/// The adversarial slice of a [`FaultSpec`](crate::FaultSpec): what
/// fraction of the population is Byzantine and how those members
/// misbehave.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ByzantineSpec {
    /// Fraction of the population (rounded to the nearest whole number
    /// of replicas) mounted as Byzantine members. `0.0` — the default —
    /// disables the adversary entirely.
    pub fraction: f64,
    /// The lie those members tell.
    pub behaviour: ByzantineBehaviour,
}

impl Default for ByzantineSpec {
    fn default() -> Self {
        Self {
            fraction: 0.0,
            behaviour: ByzantineBehaviour::Mixed,
        }
    }
}

impl ByzantineSpec {
    /// Number of Byzantine members in a population of `population`.
    pub fn count(&self, population: usize) -> usize {
        ((self.fraction * population as f64).round() as usize).min(population)
    }
}

/// The catalogue of adversarial behaviours a Byzantine member performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ByzantineBehaviour {
    /// Lie in pull digests: outgoing messages pass through the
    /// protocol's typed liar, which (for the paper peer) empties pull
    /// responses so pull-based repair starves.
    DigestLie,
    /// Replay stale/tombstoned updates: old frames this member sent or
    /// delivered are re-injected alongside fresh traffic.
    StaleReplay,
    /// Push corrupt `rumor-wire` frames: outgoing frames are damaged so
    /// strict decoding rejects them at the receiver.
    CorruptFrames,
    /// Rotate through the three behaviours, one per outgoing message.
    Mixed,
}

/// Deterministically selects which peers are Byzantine: a partial
/// Fisher–Yates over the population, drawn from the
/// `"cluster/byzantine"` substream of the scenario seed. Returns one
/// flag per peer. Draws nothing when the spec selects nobody, so benign
/// runs consume no extra randomness.
pub(crate) fn select_byzantine(seed: u64, population: usize, spec: &ByzantineSpec) -> Vec<bool> {
    let mut flags = vec![false; population];
    let count = spec.count(population);
    if count == 0 {
        return flags;
    }
    let mut rng = ChaCha8Rng::seed_from_u64(derive_seed(seed, "cluster/byzantine"));
    let mut pool: Vec<usize> = (0..population).collect();
    for slot in 0..count {
        let pick = rng.gen_range(slot..pool.len());
        pool.swap(slot, pick);
        flags[pool[slot]] = true;
    }
    flags
}

/// Per-peer seed stream for Byzantine members' tampering decisions.
pub(crate) fn byzantine_seed(seed: u64, peer_index: u64) -> u64 {
    rumor_types::SeedSequence::new(derive_seed(seed, "cluster/byzantine"), "rng")
        .seed_at(peer_index)
}

/// The adversarial state mounted on one Byzantine member's cell.
#[derive(Debug)]
pub(crate) struct ByzantineState<M> {
    behaviour: ByzantineBehaviour,
    rng: ChaCha8Rng,
    liar: Option<MsgTamper<M>>,
    memory: VecDeque<Bytes>,
    turn: u64,
}

/// What a Byzantine member decided to do with one outgoing frame group
/// — the cell's send unit: a lone message under wire v1, all of a tick's
/// messages to one peer under v2.
pub(crate) struct TamperedGroup {
    /// The frame to put on the wire (clean, forged or corrupted).
    pub frame: Bytes,
    /// An old frame to replay to the same target, on top of the send.
    pub replay: Option<Bytes>,
    /// Whether the member actually lied this turn (for accounting).
    pub tampered: bool,
}

impl<M> ByzantineState<M> {
    pub fn new(behaviour: ByzantineBehaviour, seed: u64, liar: Option<MsgTamper<M>>) -> Self {
        Self {
            behaviour,
            rng: ChaCha8Rng::seed_from_u64(seed),
            liar,
            memory: VecDeque::new(),
            turn: 0,
        }
    }

    /// The behaviour governing the next outgoing message (resolves
    /// [`ByzantineBehaviour::Mixed`] by rotation).
    fn next_behaviour(&mut self) -> ByzantineBehaviour {
        let turn = self.turn;
        self.turn += 1;
        match self.behaviour {
            ByzantineBehaviour::Mixed => match turn % 3 {
                0 => ByzantineBehaviour::DigestLie,
                1 => ByzantineBehaviour::StaleReplay,
                _ => ByzantineBehaviour::CorruptFrames,
            },
            fixed => fixed,
        }
    }

    /// Whether this member hoards frames for later replay.
    pub fn replays(&self) -> bool {
        matches!(
            self.behaviour,
            ByzantineBehaviour::StaleReplay | ByzantineBehaviour::Mixed
        )
    }

    /// Adds a frame to the bounded replay memory.
    pub fn remember(&mut self, frame: &Bytes) {
        if self.memory.len() == REPLAY_MEMORY {
            self.memory.pop_front();
        }
        self.memory.push_back(frame.clone());
    }

    /// Decides what to do with one outgoing frame group: one behaviour
    /// draw per outgoing *frame*, not per message. A digest-lie turn
    /// rewrites the group's messages in place before encoding; a
    /// corrupt-frames turn damages the encoded frame once, so receivers
    /// drop the whole group and count a single reject; a stale-replay
    /// turn re-injects an entire remembered frame. `encode` is called
    /// exactly once, on the clean (or forged) group (so stale-replay
    /// members can remember their own clean frames).
    pub fn tamper_group(
        &mut self,
        msgs: &mut [M],
        encode: impl Fn(&[M]) -> Bytes,
    ) -> TamperedGroup {
        match self.next_behaviour() {
            ByzantineBehaviour::DigestLie => {
                let mut tampered = false;
                if let Some(lie) = self.liar {
                    for msg in msgs.iter_mut() {
                        if let Some(forged) = lie(msg) {
                            *msg = forged;
                            tampered = true;
                        }
                    }
                }
                TamperedGroup {
                    frame: encode(msgs),
                    replay: None,
                    tampered,
                }
            }
            ByzantineBehaviour::CorruptFrames => {
                let clean = encode(msgs);
                let corruption =
                    FrameCorruption::from_draws(self.rng.gen::<u32>(), self.rng.gen::<u32>());
                TamperedGroup {
                    frame: corruption.apply(&clean),
                    replay: None,
                    tampered: true,
                }
            }
            ByzantineBehaviour::StaleReplay => {
                let clean = encode(msgs);
                self.remember(&clean);
                let replay = if self.memory.len() > 1 {
                    let pick = self.rng.gen_range(0..self.memory.len());
                    Some(self.memory[pick].clone())
                } else {
                    None
                };
                TamperedGroup {
                    tampered: replay.is_some(),
                    frame: clean,
                    replay,
                }
            }
            ByzantineBehaviour::Mixed => unreachable!("next_behaviour resolves Mixed"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selection_is_seeded_and_sized() {
        let spec = ByzantineSpec {
            fraction: 0.25,
            behaviour: ByzantineBehaviour::Mixed,
        };
        let a = select_byzantine(7, 16, &spec);
        let b = select_byzantine(7, 16, &spec);
        assert_eq!(a, b, "selection replays per seed");
        assert_eq!(a.iter().filter(|&&f| f).count(), 4);
        let other = select_byzantine(8, 16, &spec);
        assert_ne!(a, other, "different seeds pick different members");
    }

    #[test]
    fn zero_fraction_selects_nobody() {
        let flags = select_byzantine(7, 16, &ByzantineSpec::default());
        assert!(flags.iter().all(|&f| !f));
    }

    #[test]
    fn fraction_one_selects_everybody() {
        let spec = ByzantineSpec {
            fraction: 1.0,
            behaviour: ByzantineBehaviour::DigestLie,
        };
        assert!(select_byzantine(3, 9, &spec).iter().all(|&f| f));
    }

    #[test]
    fn mixed_behaviour_rotates_through_the_catalogue() {
        let mut state: ByzantineState<u32> =
            ByzantineState::new(ByzantineBehaviour::Mixed, 1, None);
        assert_eq!(state.next_behaviour(), ByzantineBehaviour::DigestLie);
        assert_eq!(state.next_behaviour(), ByzantineBehaviour::StaleReplay);
        assert_eq!(state.next_behaviour(), ByzantineBehaviour::CorruptFrames);
        assert_eq!(state.next_behaviour(), ByzantineBehaviour::DigestLie);
    }

    #[test]
    fn replay_memory_is_bounded() {
        let mut state: ByzantineState<u32> =
            ByzantineState::new(ByzantineBehaviour::StaleReplay, 1, None);
        for n in 0..100u8 {
            state.remember(&Bytes::from(vec![n]));
        }
        assert_eq!(state.memory.len(), REPLAY_MEMORY);
        assert_eq!(state.memory.front().unwrap()[0], 100 - REPLAY_MEMORY as u8);
    }
}
