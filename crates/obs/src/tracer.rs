//! The [`Tracer`] sink trait and its two canonical implementations.

use crate::event::{EventKind, TraceEvent};
use std::collections::BTreeMap;

/// A sink for structured trace events.
///
/// Engines are generic over the tracer and default to [`NopTracer`], so
/// the disabled path monomorphizes to nothing — no branch, no
/// allocation, no drift in any random stream. Implementations must never
/// consume randomness or otherwise influence the traced run.
pub trait Tracer {
    /// True when events are captured. Callers may use this to skip
    /// building derived observations (e.g. awareness probes over the
    /// whole population) that exist only for the trace.
    fn is_enabled(&self) -> bool;

    /// Records one event at `(round, node)`. Sequence numbers are
    /// assigned by the implementation.
    fn record(&mut self, round: u32, node: u32, kind: EventKind);
}

/// The default tracer: ignores everything. Compiles to a no-op.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NopTracer;

impl Tracer for NopTracer {
    #[inline(always)]
    fn is_enabled(&self) -> bool {
        false
    }

    #[inline(always)]
    fn record(&mut self, _round: u32, _node: u32, _kind: EventKind) {}
}

/// Default [`MemTracer`] capacity: large enough for every test and smoke
/// scenario in the tree, small enough to bound a runaway capture.
pub const DEFAULT_CAPACITY: usize = 1 << 20;

/// A ring-buffered in-memory tracer.
///
/// Events are stamped with a per-node monotone sequence number at
/// capture time and kept in arrival order; once `capacity` is reached
/// the oldest events are overwritten (the dropped count is retained so
/// truncation is never silent).
#[derive(Debug, Clone)]
pub struct MemTracer {
    capacity: usize,
    events: Vec<TraceEvent>,
    /// Ring head: index of the oldest event once the buffer wrapped.
    head: usize,
    dropped: u64,
    seqs: BTreeMap<u32, u32>,
}

impl MemTracer {
    /// Creates a tracer with the default capacity.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_CAPACITY)
    }

    /// Creates a tracer that retains at most `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "tracer capacity must be positive");
        Self {
            capacity,
            events: Vec::new(),
            head: 0,
            dropped: 0,
            seqs: BTreeMap::new(),
        }
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing has been captured.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events overwritten because the ring was full.
    pub const fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Returns the retained events in capture order, leaving the tracer
    /// empty (sequence counters are retained, so a tracer drained
    /// mid-run keeps stamping a coherent stream).
    pub fn take(&mut self) -> Vec<TraceEvent> {
        let mut events = std::mem::take(&mut self.events);
        events.rotate_left(self.head);
        self.head = 0;
        events
    }

    /// The retained events in capture order (allocates when the ring has
    /// wrapped; borrow-free for the common unwrapped case is not worth
    /// the API split).
    pub fn events(&self) -> Vec<TraceEvent> {
        let mut events = self.events.clone();
        events.rotate_left(self.head);
        events
    }
}

impl Default for MemTracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer for MemTracer {
    fn is_enabled(&self) -> bool {
        true
    }

    fn record(&mut self, round: u32, node: u32, kind: EventKind) {
        let seq = self.seqs.entry(node).or_insert(0);
        let event = TraceEvent {
            round,
            node,
            seq: *seq,
            kind,
        };
        *seq += 1;
        if self.events.len() < self.capacity {
            self.events.push(event);
        } else {
            self.events[self.head] = event;
            self.head = (self.head + 1) % self.capacity;
            self.dropped += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nop_tracer_is_disabled() {
        let mut t = NopTracer;
        assert!(!t.is_enabled());
        t.record(0, 0, EventKind::Crash);
    }

    #[test]
    fn mem_tracer_stamps_per_node_sequences() {
        let mut t = MemTracer::new();
        t.record(0, 1, EventKind::Crash);
        t.record(0, 2, EventKind::Crash);
        t.record(1, 1, EventKind::Restart);
        let events = t.take();
        assert_eq!(events.len(), 3);
        assert_eq!((events[0].node, events[0].seq), (1, 0));
        assert_eq!((events[1].node, events[1].seq), (2, 0));
        assert_eq!((events[2].node, events[2].seq), (1, 1));
        assert!(t.is_empty());
        // Sequence counters survive a drain.
        t.record(2, 1, EventKind::Crash);
        assert_eq!(t.events()[0].seq, 2);
    }

    #[test]
    fn ring_overwrites_oldest_and_counts_drops() {
        let mut t = MemTracer::with_capacity(2);
        t.record(0, 0, EventKind::Crash);
        t.record(1, 0, EventKind::Restart);
        t.record(2, 0, EventKind::Crash);
        assert_eq!(t.dropped(), 1);
        let events = t.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].round, 1, "oldest event was overwritten");
        assert_eq!(events[1].round, 2);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_is_rejected() {
        let _ = MemTracer::with_capacity(0);
    }
}
