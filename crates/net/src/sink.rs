//! The reusable effect buffer node callbacks write into.
//!
//! Returning a fresh `Vec<Effect>` from every callback put one heap
//! allocation (often several, counting growth) on the hot path of every
//! delivered message — at engine scale the harness spent a measurable
//! share of its time in the allocator instead of the protocol. An
//! [`EffectSink`] is the replacement: the engine owns one scratch sink,
//! hands `&mut` to each callback, drains it into its queues, and the
//! backing buffer's capacity is reused for the next callback. Steady-state
//! rounds allocate nothing.

use crate::node::Effect;
use rumor_types::PeerId;

/// A reusable buffer of [`Effect`]s produced by one node callback.
///
/// Engines drain it after every callback, so within a callback the sink
/// only ever holds this invocation's effects; `len()` before/after a
/// helper call is the idiom for "did that helper emit anything".
///
/// Dereferences to `[Effect<M>]` for inspection in tests and tools.
///
/// # Examples
///
/// ```
/// use rumor_net::{Effect, EffectSink};
/// use rumor_types::PeerId;
///
/// let mut sink: EffectSink<u32> = EffectSink::new();
/// sink.send(PeerId::new(1), 9);
/// sink.timer(3, 7);
/// assert_eq!(sink.len(), 2);
/// assert_eq!(sink[0], Effect::send(PeerId::new(1), 9));
/// let drained: Vec<_> = sink.drain().collect();
/// assert_eq!(drained.len(), 2);
/// assert!(sink.is_empty(), "drain leaves the buffer (capacity) behind");
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EffectSink<M> {
    effects: Vec<Effect<M>>,
}

impl<M> EffectSink<M> {
    /// Creates an empty sink.
    pub const fn new() -> Self {
        Self {
            effects: Vec::new(),
        }
    }

    /// Creates a sink with pre-reserved capacity.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            effects: Vec::with_capacity(capacity),
        }
    }

    /// Queues a send of `msg` to `to`.
    pub fn send(&mut self, to: PeerId, msg: M) {
        self.effects.push(Effect::Send { to, msg });
    }

    /// Queues a timer request firing after `delay` rounds.
    pub fn timer(&mut self, delay: u64, tag: u64) {
        self.effects.push(Effect::Timer { delay, tag });
    }

    /// Queues an already-built effect.
    pub fn push(&mut self, effect: Effect<M>) {
        self.effects.push(effect);
    }

    /// Number of queued effects.
    pub fn len(&self) -> usize {
        self.effects.len()
    }

    /// Whether no effect is queued.
    pub fn is_empty(&self) -> bool {
        self.effects.is_empty()
    }

    /// The queued effects, in emission order.
    pub fn as_slice(&self) -> &[Effect<M>] {
        &self.effects
    }

    /// Removes all queued effects, keeping the allocation.
    pub fn clear(&mut self) {
        self.effects.clear();
    }

    /// Drains the queued effects in emission order, keeping the
    /// allocation for reuse.
    pub fn drain(&mut self) -> std::vec::Drain<'_, Effect<M>> {
        self.effects.drain(..)
    }
}

impl<M> Default for EffectSink<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M> std::ops::Deref for EffectSink<M> {
    type Target = [Effect<M>];
    fn deref(&self) -> &[Effect<M>] {
        &self.effects
    }
}

impl<M> Extend<Effect<M>> for EffectSink<M> {
    fn extend<I: IntoIterator<Item = Effect<M>>>(&mut self, iter: I) {
        self.effects.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn send_and_timer_queue_in_order() {
        let mut sink: EffectSink<u8> = EffectSink::new();
        sink.send(PeerId::new(2), 5);
        sink.timer(1, 9);
        sink.push(Effect::send(PeerId::new(3), 6));
        assert_eq!(sink.len(), 3);
        assert!(matches!(sink[0], Effect::Send { .. }));
        assert!(matches!(sink[1], Effect::Timer { delay: 1, tag: 9 }));
        assert!(matches!(sink[2], Effect::Send { .. }));
    }

    #[test]
    fn drain_preserves_capacity() {
        let mut sink: EffectSink<u8> = EffectSink::with_capacity(8);
        for i in 0..8 {
            sink.send(PeerId::new(0), i);
        }
        let drained: Vec<_> = sink.drain().collect();
        assert_eq!(drained.len(), 8);
        assert!(sink.is_empty());
        assert!(sink.effects.capacity() >= 8, "allocation retained");
    }

    #[test]
    fn extend_and_clear() {
        let mut sink: EffectSink<u8> = EffectSink::default();
        sink.extend([
            Effect::send(PeerId::new(1), 1),
            Effect::send(PeerId::new(2), 2),
        ]);
        assert_eq!(sink.len(), 2);
        assert_eq!(sink.iter().count(), 2);
        sink.clear();
        assert!(sink.is_empty());
    }
}
