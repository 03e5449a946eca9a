//! Awareness bookkeeping shared by every traced execution path: the
//! engine driver (`rumor-sim`) and the cluster conductor
//! (`rumor-cluster`) both record through [`AwarenessRecorder`].

use crate::event::{EventKind, CONDUCTOR};
use crate::tracer::Tracer;
use rumor_types::UpdateId;

/// Turns initiations and per-round awareness observations into events:
/// a dense per-trace index for each update, assigned in initiation
/// order; one `Initiate` per update; one `Aware` the first round a node
/// is seen aware of the tracked update; and one `Probe` summary per
/// observed round. It consumes no randomness and only writes to the
/// tracer it is handed.
///
/// # Examples
///
/// ```
/// use rumor_obs::{AwarenessRecorder, EventKind, MemTracer, Tracer};
/// use rumor_types::UpdateId;
///
/// let mut tracer = MemTracer::new();
/// let mut awareness = AwarenessRecorder::default();
/// let update = UpdateId::from_bits(9);
/// awareness.initiate(&mut tracer, 0, 1, update);
/// // Tracking starts with the initiator (node 1) already aware.
/// awareness.track(update, [false, true, false]);
/// // Round 0: node 2 learned it while offline.
/// awareness.probe(&mut tracer, 0, [(true, false), (true, true), (false, true)]);
/// let kinds: Vec<EventKind> = tracer.take().into_iter().map(|e| e.kind).collect();
/// assert_eq!(
///     kinds,
///     [
///         EventKind::Initiate { update: 0 },
///         EventKind::Aware { update: 0 },
///         EventKind::Probe { online: 2, aware: 1 },
///     ]
/// );
/// ```
#[derive(Debug, Clone, Default)]
pub struct AwarenessRecorder {
    /// Updates in initiation order: an update's position is its index.
    updates: Vec<UpdateId>,
    /// Index of the tracked update.
    tracked: u32,
    /// Per-node awareness of the tracked update, as last observed.
    aware: Vec<bool>,
}

impl AwarenessRecorder {
    /// The dense trace index of `update`, assigning the next one on
    /// first sight.
    fn index(&mut self, update: UpdateId) -> u32 {
        match self.updates.iter().position(|&u| u == update) {
            Some(i) => i as u32,
            None => {
                self.updates.push(update);
                (self.updates.len() - 1) as u32
            }
        }
    }

    /// Emits the initiation of `update` at node `initiator`.
    pub fn initiate<T: Tracer>(
        &mut self,
        tracer: &mut T,
        round: u32,
        initiator: u32,
        update: UpdateId,
    ) {
        let index = self.index(update);
        tracer.record(round, initiator, EventKind::Initiate { update: index });
    }

    /// Starts tracking `update` from a snapshot of every node's
    /// awareness, in id order. A node already aware here (the initiator,
    /// whose `Initiate` event marks it) gets no `Aware` event.
    pub fn track(&mut self, update: UpdateId, aware: impl IntoIterator<Item = bool>) {
        self.tracked = self.index(update);
        self.aware.clear();
        self.aware.extend(aware);
    }

    /// Folds one observed round of the tracked update: `nodes` yields
    /// each node's `(online, aware)`, in the id order of the snapshot
    /// [`AwarenessRecorder::track`] took. Emits `Aware` for every node
    /// newly aware (online or not), then `Probe { online, aware }`,
    /// where `aware` counts the nodes both online and aware.
    pub fn probe<T: Tracer>(
        &mut self,
        tracer: &mut T,
        round: u32,
        nodes: impl IntoIterator<Item = (bool, bool)>,
    ) {
        let update = self.tracked;
        let (mut online_count, mut aware_count) = (0u32, 0u32);
        let observed = nodes.into_iter().zip(&mut self.aware).enumerate();
        for (node, ((online, aware), seen)) in observed {
            online_count += u32::from(online);
            aware_count += u32::from(online && aware);
            if aware && !*seen {
                *seen = true;
                tracer.record(round, node as u32, EventKind::Aware { update });
            }
        }
        let probe = EventKind::Probe {
            online: online_count,
            aware: aware_count,
        };
        tracer.record(round, CONDUCTOR, probe);
    }
}
