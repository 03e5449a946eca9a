//! A contiguous run of replica cells pumped as one unit.
//!
//! The [`Shard`] is the only place cells are ticked, initiated on and
//! summed into a [`ShardReport`]. [`crate::VirtualCluster`] drives one
//! shard inline; every [`crate::ShardedCluster`] worker thread owns one.
//! A *crash* parks the victim cell: it misses its ticks while frames
//! accumulate in its inbox, and the first tick after the restart drops
//! whatever became deliverable during the gap as lost-to-offline.

use crate::cell::{CellStats, Envelope, NodeCell};
use rumor_net::{LinkFilter, Node};
use rumor_sim::{Protocol, UpdateEvent};
use rumor_types::{PeerId, Round, UpdateId};
use rumor_wire::{Decode, Encode};

/// Awareness outcome of a probed tick over one shard's cells.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ProbeOutcome {
    /// Whether any of the shard's cells was effectively online
    /// (unspecified once `all_online_aware` is false — the verdict is
    /// already negative).
    pub any_online: bool,
    /// Whether every effectively-online cell was aware (vacuously true
    /// for a shard with nobody online).
    pub all_online_aware: bool,
}

/// Cumulative traffic stats summed over a shard's cells (parked cells
/// included — their counters never leave the shard), plus queue depth
/// and the awareness probe of the tick the report closes, if any.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct ShardReport {
    pub stats: CellStats,
    /// Frames queued in inboxes plus timers armed.
    pub pending: usize,
    pub probe: Option<ProbeOutcome>,
}

/// Cells `start..start + len` of the population plus their park flags.
pub(crate) struct Shard<N: Node> {
    start: usize,
    /// Fixed length: `parked` runs parallel to it.
    pub cells: Box<[NodeCell<N>]>,
    parked: Vec<bool>,
}

impl<N: Node> Shard<N>
where
    N::Msg: Encode + Decode,
{
    /// Wraps `cells`, the first of which is global cell `start`.
    pub fn new(start: usize, cells: Vec<NodeCell<N>>) -> Self {
        Self {
            start,
            parked: vec![false; cells.len()],
            cells: cells.into_boxed_slice(),
        }
    }

    /// Parks (crash) or un-parks (restart) `peer`'s cell.
    pub fn set_parked(&mut self, peer: PeerId, parked: bool) {
        self.parked[peer.index() - self.start] = parked;
    }

    /// Queues envelopes addressed to this shard's cells.
    pub fn accept(&mut self, batch: impl IntoIterator<Item = (PeerId, Envelope)>) {
        for (to, env) in batch {
            self.cells[to.index() - self.start].inbox.push_back(env);
        }
    }

    /// Ticks every un-parked cell in id order; `online` is the churn
    /// availability by peer, `dispatch` takes the frames they send.
    pub fn tick(
        &mut self,
        round: u32,
        online: &impl Fn(PeerId) -> bool,
        filter: &dyn LinkFilter,
        dispatch: &mut dyn FnMut(PeerId, Envelope),
    ) {
        for (cell, &parked) in self.cells.iter_mut().zip(&self.parked) {
            if !parked {
                cell.tick(round, online(cell.id), filter, dispatch);
            }
        }
    }

    /// Initiates `event` at `peer`; its frames are deliverable at the
    /// next tick (`round`).
    pub fn initiate<P: Protocol<Node = N>>(
        &mut self,
        protocol: &P,
        peer: PeerId,
        event: &UpdateEvent,
        round: u32,
        dispatch: &mut dyn FnMut(PeerId, Envelope),
    ) -> UpdateId {
        self.cells[peer.index() - self.start].initiate(
            round,
            |node, rng, sink| protocol.initiate(node, event, Round::new(round), rng, sink),
            dispatch,
        )
    }

    /// Evaluates the awareness probe against the effectively-online
    /// cells (churn-online and not parked), stopping at the first
    /// unaware one.
    pub fn probe<P: Protocol<Node = N>>(
        &self,
        protocol: &P,
        online: &impl Fn(PeerId) -> bool,
        update: UpdateId,
    ) -> ProbeOutcome {
        let mut any_online = false;
        for (cell, &parked) in self.cells.iter().zip(&self.parked) {
            if !parked && online(cell.id) {
                any_online = true;
                if !protocol.is_aware(&cell.node, update) {
                    return ProbeOutcome {
                        any_online,
                        all_online_aware: false,
                    };
                }
            }
        }
        ProbeOutcome {
            any_online,
            all_online_aware: true,
        }
    }

    /// Sums stats and queue depths over the cells, attaching `probe`.
    pub fn report(&self, probe: Option<ProbeOutcome>) -> ShardReport {
        let mut report = ShardReport {
            probe,
            ..ShardReport::default()
        };
        for cell in &self.cells {
            report.stats.absorb(&cell.stats);
            report.pending += cell.pending_frames() + cell.pending_timers();
        }
        report
    }
}
