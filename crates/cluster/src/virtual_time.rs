//! The deterministic virtual-time front-end: the conductor driving one
//! shard inline.
//!
//! No threads, no channels, no `Send` bounds: every cell ticks on the
//! caller's thread in id order and the frames they send loop straight
//! back into their targets' inboxes, so outcomes are bit-reproducible
//! per scenario seed and can be golden-pinned by `cargo test`. Runtime
//! semantics — encoded frames, crash faults, loss, delay — are those of
//! [`ShardedCluster`](crate::ShardedCluster), which is the throughput
//! path; this is the correctness path.

use crate::builder::ClusterBuilder;
use crate::cell::Envelope;
use crate::conductor::Conductor;
use crate::report::ClusterReport;
use crate::shard::Shard;
use rumor_net::{LinkFilter, Node};
use rumor_obs::TraceDoc;
use rumor_sim::{Protocol, UpdateEvent};
use rumor_types::{PeerId, UpdateId};
use rumor_wire::{Decode, Encode};

/// A live cluster executed deterministically in virtual time.
///
/// Build one with
/// [`ClusterBuilder::virtual_time`](crate::ClusterBuilder::virtual_time).
pub struct VirtualCluster<P: Protocol>
where
    <P::Node as Node>::Msg: Encode + Decode,
{
    protocol: P,
    conductor: Conductor,
    shard: Shard<P::Node>,
    filter: Box<dyn LinkFilter + Send + Sync>,
    staged: Vec<(PeerId, Envelope)>,
}

impl<P: Protocol> std::fmt::Debug for VirtualCluster<P>
where
    <P::Node as Node>::Msg: Encode + Decode,
{
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VirtualCluster")
            .field("population", &self.population())
            .field("rounds_run", &self.rounds_run())
            .finish_non_exhaustive()
    }
}

impl<P: Protocol> VirtualCluster<P>
where
    <P::Node as Node>::Msg: Encode + Decode,
{
    pub(crate) fn mount(builder: &ClusterBuilder<'_>, protocol: P) -> Self {
        let (conductor, cells) = Conductor::mount(builder, &protocol);
        Self {
            protocol,
            conductor,
            shard: Shard::new(0, cells),
            filter: builder.scenario.link_filter(),
            staged: Vec::new(),
        }
    }

    /// Population size.
    pub fn population(&self) -> usize {
        self.conductor.population()
    }

    /// Rounds executed so far.
    pub fn rounds_run(&self) -> u32 {
        self.conductor.rounds_run()
    }

    /// Nodes that are churn-online *and* not crashed.
    pub fn online_count(&self) -> usize {
        self.online_peers().len()
    }

    /// Peers that are churn-online and not crashed right now, ascending.
    pub fn online_peers(&self) -> Vec<PeerId> {
        self.conductor.online_peers()
    }

    /// Whether `peer` was mounted as a Byzantine member.
    pub fn is_byzantine(&self, peer: PeerId) -> bool {
        self.conductor.is_byzantine(peer)
    }

    /// Read access to `peer`'s protocol node (for external oracles that
    /// inspect replica state, e.g. the chaos fuzzer's convergence check).
    pub fn node(&self, peer: PeerId) -> &P::Node {
        &self.shard.cells[peer.index()].node
    }

    /// Initiates `event` at a random effectively-online node (its round-0
    /// frames are delivered next tick). `None` when nobody is up.
    pub fn initiate(&mut self, event: &UpdateEvent) -> Option<UpdateId> {
        let initiator = self.conductor.pick_initiator()?;
        let staged = &mut self.staged;
        let update = self.shard.initiate(
            &self.protocol,
            initiator,
            event,
            self.conductor.rounds_run(),
            &mut |to, env| staged.push((to, env)),
        );
        self.shard.accept(self.staged.drain(..));
        self.conductor.initiated(initiator, update);
        Some(update)
    }

    /// Executes one round: churn transition (after round 0), fault
    /// events, one tick per live node in id order, then delivery staging.
    pub fn step(&mut self) {
        self.step_probing(None);
    }

    fn step_probing(&mut self, probe: Option<UpdateId>) {
        let (round, events) = self.conductor.begin_round(probe);
        for (peer, parked) in events.parkings() {
            self.shard.set_parked(peer, parked);
        }
        let conductor = &self.conductor;
        let online = |peer| conductor.is_online(peer);
        let staged = &mut self.staged;
        self.shard
            .tick(round, &online, &*self.filter, &mut |to, env| {
                staged.push((to, env));
            });
        self.shard.accept(self.staged.drain(..));
        let outcome = probe.map(|update| self.shard.probe(&self.protocol, &online, update));
        self.conductor.end_round(probe, [outcome]);
    }

    /// Runs `n` rounds.
    pub fn run_rounds(&mut self, n: u32) {
        for _ in 0..n {
            self.step();
        }
    }

    /// True when no frame is queued anywhere, no timer is armed and no
    /// node is crashed (a dead node's inbox may hide in-flight frames).
    pub fn is_quiescent(&self) -> bool {
        let mut cells = self.shard.cells.iter();
        !self.conductor.any_down()
            && cells.all(|c| c.pending_frames() == 0 && c.pending_timers() == 0)
    }

    /// Whether `peer`'s node is aware of `update`.
    pub fn is_aware(&self, peer: PeerId, update: UpdateId) -> bool {
        self.protocol.is_aware(self.node(peer), update)
    }

    /// Every aware replica (offline included), sorted ascending.
    pub fn aware_set(&self, update: UpdateId) -> Vec<PeerId> {
        (0..self.population() as u32)
            .map(PeerId::new)
            .filter(|&p| self.is_aware(p, update))
            .collect()
    }

    /// Whether every effectively-online node is aware (and at least one
    /// node is up).
    pub fn all_online_aware(&self, update: UpdateId) -> bool {
        let outcome = self.shard.probe(
            &self.protocol,
            &|peer| self.conductor.is_online(peer),
            update,
        );
        outcome.any_online && outcome.all_online_aware
    }

    /// Steps until every online node is aware of `update` (recording the
    /// convergence round) or `max_rounds` elapse. Returns the converged
    /// round if reached.
    pub fn run_until_all_online_aware(&mut self, update: UpdateId, max_rounds: u32) -> Option<u32> {
        // Only the inline front-end can see per-node awareness, so only
        // its traces carry `Aware`/`Probe` events (neither is part of
        // the environment sub-trace contract).
        let (protocol, cells) = (&self.protocol, &self.shard.cells);
        let aware = || cells.iter().map(|c| protocol.is_aware(&c.node, update));
        self.conductor.trace_track(update, aware);
        for _ in 0..max_rounds {
            self.step_probing(Some(update));
            let (protocol, cells) = (&self.protocol, &self.shard.cells);
            let aware = || cells.iter().map(|c| protocol.is_aware(&c.node, update));
            self.conductor.trace_probe(aware);
            if self.conductor.converged_round().is_some() {
                return self.conductor.converged_round();
            }
        }
        None
    }

    /// Assembles and drains the captured trace into a canonical
    /// [`TraceDoc`] (conductor events plus every cell's buffer), or
    /// `None` when the cluster was not built with
    /// [`ClusterBuilder::traced`](crate::ClusterBuilder::traced). The
    /// cluster may keep running afterwards; a second call returns only
    /// events captured since.
    pub fn take_trace(&mut self, label: &str) -> Option<TraceDoc> {
        self.conductor.merge_trace(label, &mut self.shard.cells)
    }

    /// Folds the run into a [`ClusterReport`] for the tracked `update`.
    pub fn report(&self, update: UpdateId) -> ClusterReport {
        self.conductor
            .report(&self.protocol, &self.shard.cells, update)
    }
}
