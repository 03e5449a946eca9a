//! The protocol-node abstraction every execution path drives.

use crate::sink::EffectSink;
use rand_chacha::ChaCha8Rng;
use rumor_types::{PeerId, Round};

/// An effect a node asks whoever runs it to perform.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Effect<M> {
    /// Send `msg` to another peer (one paper "message": the unit the
    /// paper's overhead metric counts, whether or not the target is
    /// online).
    Send {
        /// Destination replica.
        to: PeerId,
        /// Payload.
        msg: M,
    },
    /// Ask for [`Node::on_timer`] to fire after `delay` rounds. A delay
    /// beyond the `u32` round range saturates: the timer never fires.
    Timer {
        /// Delay until the timer fires, in rounds.
        delay: u64,
        /// Opaque tag handed back on expiry.
        tag: u64,
    },
}

impl<M> Effect<M> {
    /// Convenience constructor for a send effect.
    pub fn send(to: PeerId, msg: M) -> Self {
        Self::Send { to, msg }
    }
}

/// A deterministic protocol state machine, driven in rounds by
/// `rumor_sim::Driver` and by `rumor-cluster`'s cells.
///
/// All methods receive the runner's RNG so that a node's random choices
/// (fanout target selection, forwarding coin flips) replay under a fixed
/// experiment seed, and a reusable [`EffectSink`] to write their effects
/// into — the runner drains it after each callback, so steady-state
/// rounds never allocate for effect plumbing.
pub trait Node {
    /// The message type exchanged between nodes of this protocol.
    type Msg: Clone;

    /// This node's identity.
    fn id(&self) -> PeerId;

    /// A message arrived (the node is necessarily online). Response
    /// effects are written into `out`.
    fn on_message(
        &mut self,
        from: PeerId,
        msg: Self::Msg,
        round: Round,
        rng: &mut ChaCha8Rng,
        out: &mut EffectSink<Self::Msg>,
    );

    /// Called at the start of each round while the node is online.
    ///
    /// Protocols use this for periodic work such as lazy pull checks.
    fn on_round_start(
        &mut self,
        round: Round,
        rng: &mut ChaCha8Rng,
        out: &mut EffectSink<Self::Msg>,
    ) {
        let _ = (round, rng, out);
    }

    /// Availability transition: `online == true` means the node just came
    /// (back) online — in the paper this is where the pull phase triggers
    /// ("IF online_again … Contact online replicas").
    fn on_status_change(
        &mut self,
        online: bool,
        round: Round,
        rng: &mut ChaCha8Rng,
        out: &mut EffectSink<Self::Msg>,
    ) {
        let _ = (online, round, rng, out);
    }

    /// A previously requested timer fired.
    fn on_timer(
        &mut self,
        tag: u64,
        round: Round,
        rng: &mut ChaCha8Rng,
        out: &mut EffectSink<Self::Msg>,
    ) {
        let _ = (tag, round, rng, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Echo(PeerId);

    impl Node for Echo {
        type Msg = u32;
        fn id(&self) -> PeerId {
            self.0
        }
        fn on_message(
            &mut self,
            from: PeerId,
            msg: u32,
            _round: Round,
            _rng: &mut ChaCha8Rng,
            out: &mut EffectSink<u32>,
        ) {
            out.send(from, msg + 1);
        }
    }

    #[test]
    fn default_hooks_are_inert() {
        use rand::SeedableRng;
        let mut node = Echo(PeerId::new(0));
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let mut out = EffectSink::new();
        node.on_round_start(Round::ZERO, &mut rng, &mut out);
        node.on_status_change(true, Round::ZERO, &mut rng, &mut out);
        node.on_timer(0, Round::ZERO, &mut rng, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn effect_send_constructor() {
        let e: Effect<u32> = Effect::send(PeerId::new(2), 9);
        assert_eq!(
            e,
            Effect::Send {
                to: PeerId::new(2),
                msg: 9
            }
        );
    }

    #[test]
    fn on_message_writes_into_sink() {
        use rand::SeedableRng;
        let mut node = Echo(PeerId::new(0));
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let mut out = EffectSink::new();
        node.on_message(PeerId::new(4), 7, Round::ZERO, &mut rng, &mut out);
        assert_eq!(out.as_slice(), &[Effect::send(PeerId::new(4), 8)]);
    }
}
