//! The real-time front-end: the conductor driving M shards on worker
//! threads.
//!
//! Each worker owns one contiguous [`Shard`] of cells and pumps it
//! through the same tick loop [`crate::VirtualCluster`] runs inline;
//! frames cross shards as batched envelope vectors (one channel send per
//! sender-shard × receiver-shard pair per round, not one per frame), and
//! the conductor barriers on M shard reports. Populations of 10k+ live
//! replicas fit comfortably on one machine.
//! [`ClusterBuilder::workers`](crate::ClusterBuilder::workers) picks the
//! placement: available parallelism by default, `workers(population)`
//! for one OS thread per replica (the deployment shape, slower than a
//! core-sized pool in every `BENCH_cluster.json` row that measured it).
//!
//! Runtime semantics are the conductor's and the shard's, hence those of
//! virtual time: same [`rumor_sim::Scenario`] substreams, same
//! round-`t`-sent / tick-`t+1`-delivered timing contract, same
//! crash-parks-the-cell and Byzantine behaviours. With one worker the run
//! *is* virtual time bit for bit; with more, delivery order within a
//! round depends on worker interleaving, so it is distributionally
//! identical. `tests/cluster_sharded.rs` pins both.

use crate::builder::ClusterBuilder;
use crate::cell::{Envelope, NodeCell};
use crate::conductor::Conductor;
use crate::report::ClusterReport;
use crate::shard::{Shard, ShardReport};
use rumor_net::{LinkFilter, Node};
use rumor_obs::TraceDoc;
use rumor_sim::{Protocol, UpdateEvent};
use rumor_types::{PeerId, UpdateId};
use rumor_wire::{Decode, Encode};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;

/// Envelopes bound for one shard's cells, flushed once per tick.
type Batch = Vec<(PeerId, Envelope)>;

/// Contiguous balanced partition of `population` cells over `shards`
/// worker threads: shard `s` owns cells `s·N/M .. (s+1)·N/M` (integer
/// division), so shard sizes differ by at most one.
#[derive(Debug, Clone, Copy)]
struct ShardMap {
    population: usize,
    shards: usize,
}

impl ShardMap {
    fn new(population: usize, workers: usize) -> Self {
        Self {
            population,
            shards: workers.clamp(1, population.max(1)),
        }
    }

    /// The shard owning global cell index `index`.
    fn shard_of(&self, index: usize) -> usize {
        ((index + 1) * self.shards - 1) / self.population
    }

    /// The global index range `shard` owns.
    fn range(&self, shard: usize) -> std::ops::Range<usize> {
        shard * self.population / self.shards..(shard + 1) * self.population / self.shards
    }
}

/// Conductor → shard control messages. Closing the channel stops the
/// worker, which hands its cells back through its join handle.
enum ShardCtrl {
    Tick {
        round: u32,
        /// Churn availability per cell, shard-local order.
        online: Vec<bool>,
        probe: Option<UpdateId>,
    },
    Initiate {
        peer: PeerId,
        event: UpdateEvent,
        round: u32,
    },
    /// Park (crash) or un-park (restart) `peer`'s cell.
    Park { peer: PeerId, parked: bool },
}

/// Shard → conductor reply to a `Tick` or an `Initiate`.
struct ShardReply {
    shard: usize,
    report: ShardReport,
    /// The update an `Initiate` created.
    initiated: Option<UpdateId>,
}

/// What one worker thread owns.
struct Worker<P: Protocol> {
    index: usize,
    map: ShardMap,
    shard: Shard<P::Node>,
    protocol: Arc<P>,
    filter: Arc<dyn LinkFilter + Send + Sync>,
    ctrl: Receiver<ShardCtrl>,
    inbound: Receiver<Batch>,
    peers: Vec<Sender<Batch>>,
    replies: Sender<ShardReply>,
}

impl<P: Protocol> Worker<P>
where
    <P::Node as Node>::Msg: Encode + Decode,
{
    /// Pumps the shard until the conductor closes the control channel
    /// (or is gone), then returns the cells.
    fn run(mut self) -> Vec<NodeCell<P::Node>> {
        let (map, start) = (self.map, self.map.range(self.index).start);
        let mut outboxes: Vec<Batch> = (0..map.shards).map(|_| Batch::new()).collect();
        while let Ok(msg) = self.ctrl.recv() {
            let mut dispatch = |to: PeerId, env| outboxes[map.shard_of(to.index())].push((to, env));
            let (report, initiated) = match msg {
                ShardCtrl::Tick {
                    round,
                    online,
                    probe,
                } => {
                    // The conductor barriered the previous round, so
                    // every batch of frames sent before this tick is
                    // already in the inbound channel; frames from the
                    // current round carry a later `deliver_from` and
                    // wait in the inbox.
                    while let Ok(batch) = self.inbound.try_recv() {
                        self.shard.accept(batch);
                    }
                    let online = |peer: PeerId| online[peer.index() - start];
                    self.shard
                        .tick(round, &online, &*self.filter, &mut dispatch);
                    let outcome =
                        probe.map(|update| self.shard.probe(&*self.protocol, &online, update));
                    (self.shard.report(outcome), None)
                }
                ShardCtrl::Initiate { peer, event, round } => {
                    let update =
                        self.shard
                            .initiate(&*self.protocol, peer, &event, round, &mut dispatch);
                    // The report keeps the conductor's traffic snapshot
                    // fresh: frames sent while initiating are visible
                    // to `frames_sent()` before the next barrier.
                    (self.shard.report(None), Some(update))
                }
                ShardCtrl::Park { peer, parked } => {
                    self.shard.set_parked(peer, parked);
                    continue;
                }
            };
            // One batch per non-empty outbox. Sends cannot fail while
            // the conductor lives: the receivers sit in live workers.
            for (target, outbox) in outboxes.iter_mut().enumerate() {
                if !outbox.is_empty() {
                    let _ = self.peers[target].send(std::mem::take(outbox));
                }
            }
            let shard = self.index;
            let _ = self.replies.send(ShardReply {
                shard,
                report,
                initiated,
            });
        }
        self.shard.cells.into_vec()
    }
}

/// A live cluster multiplexing N replica cells over M worker threads.
///
/// Build one with
/// [`ClusterBuilder::sharded`](crate::ClusterBuilder::sharded) (worker
/// count via [`ClusterBuilder::workers`](crate::ClusterBuilder::workers),
/// defaulting to the machine's available parallelism); always
/// [`ShardedCluster::finish`] it (dropping shuts the workers down but
/// discards the report).
pub struct ShardedCluster<P>
where
    P: Protocol + Send + Sync + 'static,
    P::Node: Send + 'static,
    <P::Node as Node>::Msg: Encode + Decode + Send,
{
    protocol: Arc<P>,
    conductor: Conductor,
    map: ShardMap,
    ctrls: Vec<Sender<ShardCtrl>>,
    handles: Vec<JoinHandle<Vec<NodeCell<P::Node>>>>,
    reply_rx: Receiver<ShardReply>,
    /// Latest per-shard report (stats are cumulative).
    snapshots: Vec<ShardReport>,
}

impl<P> std::fmt::Debug for ShardedCluster<P>
where
    P: Protocol + Send + Sync + 'static,
    P::Node: Send + 'static,
    <P::Node as Node>::Msg: Encode + Decode + Send,
{
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedCluster")
            .field("population", &self.population())
            .field("workers", &self.workers())
            .field("rounds_run", &self.rounds_run())
            .finish_non_exhaustive()
    }
}

impl<P> ShardedCluster<P>
where
    P: Protocol + Send + Sync + 'static,
    P::Node: Send + 'static,
    <P::Node as Node>::Msg: Encode + Decode + Send,
{
    pub(crate) fn mount(builder: &ClusterBuilder<'_>, protocol: P) -> Self {
        let (conductor, cells) = Conductor::mount(builder, &protocol);
        // Default pool: the machine's available parallelism (4 when the
        // runtime cannot report it).
        let workers = builder
            .workers
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(4, usize::from));
        let map = ShardMap::new(cells.len(), workers);
        let protocol = Arc::new(protocol);
        let filter: Arc<dyn LinkFilter + Send + Sync> = Arc::from(builder.scenario.link_filter());
        let (replies, reply_rx) = mpsc::channel();
        let (peers, inbounds): (Vec<_>, Vec<_>) =
            (0..map.shards).map(|_| mpsc::channel::<Batch>()).unzip();
        let mut cells = cells.into_iter();
        let (ctrls, handles) = inbounds
            .into_iter()
            .enumerate()
            .map(|(index, inbound)| {
                let range = map.range(index);
                let (ctrl_tx, ctrl) = mpsc::channel();
                let worker = Worker {
                    index,
                    map,
                    shard: Shard::new(range.start, cells.by_ref().take(range.len()).collect()),
                    protocol: Arc::clone(&protocol),
                    filter: Arc::clone(&filter),
                    ctrl,
                    inbound,
                    peers: peers.clone(),
                    replies: replies.clone(),
                };
                let handle = std::thread::Builder::new()
                    .name(format!("rumor-shard-{index}"))
                    .spawn(move || worker.run())
                    .expect("spawn cluster shard thread");
                (ctrl_tx, handle)
            })
            .unzip();
        Self {
            protocol,
            conductor,
            map,
            ctrls,
            handles,
            reply_rx,
            snapshots: vec![ShardReport::default(); map.shards],
        }
    }

    /// Population size (= cells multiplexed over the worker pool).
    pub fn population(&self) -> usize {
        self.conductor.population()
    }

    /// Worker threads in the pool.
    pub fn workers(&self) -> usize {
        self.map.shards
    }

    /// Rounds executed so far.
    pub fn rounds_run(&self) -> u32 {
        self.conductor.rounds_run()
    }

    /// Nodes churn-online and not crashed.
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

    /// Frames handed to the transport so far (per the last barrier or
    /// initiation).
    pub fn frames_sent(&self) -> u64 {
        self.snapshots.iter().map(|s| s.stats.sent).sum()
    }

    /// Encoded bytes of [`ShardedCluster::frames_sent`].
    pub fn bytes_sent(&self) -> u64 {
        self.snapshots.iter().map(|s| s.stats.bytes_sent).sum()
    }

    /// Logical protocol messages inside [`ShardedCluster::frames_sent`]
    /// (equal to it under wire v1; larger under v2 batch frames).
    pub fn messages_sent(&self) -> u64 {
        self.snapshots.iter().map(|s| s.stats.messages_sent).sum()
    }

    /// True when, as of the last barrier, every frame was consumed, no
    /// timer is armed, and no node is crashed.
    pub fn is_quiescent(&self) -> bool {
        let consumed: u64 = self.snapshots.iter().map(|s| s.stats.consumed()).sum();
        !self.conductor.any_down()
            && self.frames_sent() == consumed
            && self.snapshots.iter().all(|s| s.pending == 0)
    }

    fn send(&self, shard: usize, msg: ShardCtrl) {
        self.ctrls[shard].send(msg).expect("shard alive");
    }

    /// Waits for the next shard reply and folds its report into the
    /// snapshots. A `Tick` report replaces the shard's probe outcome;
    /// an `Initiate` report keeps the last probed tick's.
    fn recv(&mut self) -> ShardReply {
        let reply = self
            .reply_rx
            .recv()
            .expect("cluster shard channel closed unexpectedly");
        let snapshot = &mut self.snapshots[reply.shard];
        let last_probe = snapshot.probe;
        *snapshot = reply.report;
        if reply.initiated.is_some() {
            snapshot.probe = last_probe;
        }
        reply
    }

    /// Initiates `event` at a random effectively-online node. `None`
    /// when nobody is up.
    pub fn initiate(&mut self, event: &UpdateEvent) -> Option<UpdateId> {
        let peer = self.conductor.pick_initiator()?;
        let (event, round) = (event.clone(), self.rounds_run());
        self.send(
            self.map.shard_of(peer.index()),
            ShardCtrl::Initiate { peer, event, round },
        );
        // No other reply can be outstanding: every tick is barriered
        // before new control is issued. Folding the fresh snapshot keeps
        // traffic accounting from lagging an initiation.
        let update = self.recv().initiated.expect("reply to an Initiate");
        self.conductor.initiated(peer, update);
        Some(update)
    }

    /// Executes one round across all shards, with an optional awareness
    /// probe for `probe`.
    pub fn step(&mut self, probe: Option<UpdateId>) {
        let (round, events) = self.conductor.begin_round(probe);
        // Fault events ride the ctrl channels ahead of the tick: FIFO
        // ordering guarantees a shard parks/un-parks the cell before it
        // pumps this round.
        for (peer, parked) in events.parkings() {
            self.send(
                self.map.shard_of(peer.index()),
                ShardCtrl::Park { peer, parked },
            );
        }
        // Broadcast the tick to every shard…
        for shard in 0..self.ctrls.len() {
            let online = self
                .map
                .range(shard)
                .map(|i| self.conductor.is_online(PeerId::new(i as u32)))
                .collect();
            self.send(
                shard,
                ShardCtrl::Tick {
                    round,
                    online,
                    probe,
                },
            );
        }
        // …and barrier on their reports.
        for _ in 0..self.ctrls.len() {
            self.recv();
        }
        self.conductor
            .end_round(probe, self.snapshots.iter().map(|s| s.probe));
    }

    /// Runs `n` rounds without probing (the throughput path).
    pub fn run_rounds(&mut self, n: u32) {
        for _ in 0..n {
            self.step(None);
        }
    }

    /// Steps (probing every round) until every online node is aware of
    /// `update` or `max_rounds` elapse; returns the converged round.
    pub fn run_until_all_online_aware(&mut self, update: UpdateId, max_rounds: u32) -> Option<u32> {
        for _ in 0..max_rounds {
            self.step(Some(update));
            if self.conductor.converged_round().is_some() {
                return self.conductor.converged_round();
            }
        }
        None
    }

    /// Gracefully shuts the worker pool down, reclaims the node states
    /// and folds the run into a [`ClusterReport`] for `update`.
    pub fn finish(self, update: UpdateId) -> ClusterReport {
        self.finish_traced(update, "sharded").0
    }

    /// Like [`ShardedCluster::finish`], additionally assembling the
    /// captured trace into a canonical [`TraceDoc`] labelled `label`
    /// (conductor events plus every reclaimed cell's buffer), or `None`
    /// when the cluster was not built with
    /// [`ClusterBuilder::traced`](crate::ClusterBuilder::traced).
    pub fn finish_traced(
        mut self,
        update: UpdateId,
        label: &str,
    ) -> (ClusterReport, Option<TraceDoc>) {
        self.ctrls.clear(); // closes every control channel: workers return
        let mut cells: Vec<NodeCell<P::Node>> = Vec::with_capacity(self.population());
        for handle in self.handles.drain(..) {
            cells.extend(handle.join().expect("cluster shard panicked"));
        }
        let report = self.conductor.report(&*self.protocol, &cells, update);
        (report, self.conductor.merge_trace(label, &mut cells))
    }
}

impl<P> Drop for ShardedCluster<P>
where
    P: Protocol + Send + Sync + 'static,
    P::Node: Send + 'static,
    <P::Node as Node>::Msg: Encode + Decode + Send,
{
    fn drop(&mut self) {
        // Best-effort shutdown for clusters dropped without `finish`
        // (including unwinds): close every control channel and join the
        // workers. After a `finish` both are already drained.
        self.ctrls.clear();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_map_partitions_contiguously_and_exhaustively() {
        for (population, workers) in [(1, 1), (5, 2), (7, 8), (64, 6), (1000, 16), (10_000, 12)] {
            let map = ShardMap::new(population, workers);
            assert!(map.shards <= workers.max(1));
            assert!(map.shards <= population);
            let mut covered = 0usize;
            let mut next = 0usize;
            for shard in 0..map.shards {
                let range = map.range(shard);
                assert_eq!(range.start, next, "ranges must be contiguous");
                next = range.end;
                for index in range.clone() {
                    assert_eq!(
                        map.shard_of(index),
                        shard,
                        "shard_of({index}) disagrees with range({shard}) at N={population} M={workers}"
                    );
                }
                covered += range.len();
            }
            assert_eq!(covered, population, "every cell owned exactly once");
            assert_eq!(next, population);
        }
    }

    #[test]
    fn shard_sizes_differ_by_at_most_one() {
        let map = ShardMap::new(10, 4);
        let sizes: Vec<usize> = (0..map.shards).map(|s| map.range(s).len()).collect();
        assert_eq!(sizes.iter().sum::<usize>(), 10);
        let max = sizes.iter().max().unwrap();
        let min = sizes.iter().min().unwrap();
        assert!(max - min <= 1, "unbalanced shards: {sizes:?}");
    }

    #[test]
    fn worker_count_is_clamped_to_the_population() {
        assert_eq!(ShardMap::new(3, 64).shards, 3);
        assert_eq!(ShardMap::new(64, 0).shards, 1);
        assert_eq!(ShardMap::new(64, 4).shards, 4);
    }
}
