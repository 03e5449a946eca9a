//! The protocol-agnostic round driver and the [`Protocol`] factory trait.
//!
//! The paper's central claim is comparative: the hybrid push/pull scheme
//! beats flooding, GOSSIP1 and the Demers epidemics *under identical
//! churn and network conditions* (§5.6, §7.2). That comparison is only
//! honest when every contender runs inside the same experiment harness —
//! CUP (Roussopoulos & Baker) calls this "one harness, many protocols".
//! [`Driver`] is that harness: it owns the round (churn transition →
//! status changes → round start → due timers → delivery) and the
//! observation for *any* [`Node`] population, and a [`Protocol`]
//! implementation describes how to mount one contender into it (how to
//! spawn a node, initiate an update, and probe awareness).
//!
//! The paper peer ([`PaperProtocol`]) and every `rumor_baselines`
//! protocol mount on it the same way, through
//! [`Scenario::drive`](crate::Scenario::drive); none has a round loop or
//! a wrapper of its own. The one paper-specific addition is §4.4's
//! [`Driver::query`] on `Driver<ReplicaPeer>`.

use crate::report::{RoundObservation, RunReport, UpdateOutcome, WorkloadReport};
use crate::scenario::ConvergenceSpec;
use crate::stats::EngineStats;
use crate::workload::UpdateEvent;
use rand_chacha::ChaCha8Rng;
use rumor_churn::{Churn, OnlineSet};
use rumor_core::{QueryAnswer, QueryPolicy, ReplicaPeer, Value};
use rumor_metrics::ConvergenceDetector;
use rumor_net::{Effect, EffectSink, LinkFilter, Node, TimerQueue};
use rumor_obs::{AwarenessRecorder, EventKind, MsgKind, NopTracer, Tracer, CONDUCTOR};
use rumor_types::{DataKey, PeerId, Round, UpdateId};

/// A pure function returning a message's encoded wire-frame size —
/// what [`Protocol::wire_sizer`] hands the driver for byte accounting.
pub type WireSizer<M> = fn(&M) -> usize;

/// A pure message transform a Byzantine host applies to a node's
/// outgoing traffic: `Some(forged)` replaces the message, `None` lets
/// it pass unchanged. What [`Protocol::byzantine_liar`] hands the
/// cluster runtime so adversarial members can lie in the protocol's own
/// vocabulary (the paper peer's liar answers pull digests with "you are
/// missing nothing").
pub type MsgTamper<M> = fn(&M) -> Option<M>;

/// A pure classifier mapping a protocol message to the coarse
/// [`MsgKind`] stamped on send/deliver trace events.
pub type MsgKinder<M> = fn(&M) -> MsgKind;

/// A factory that mounts one dissemination protocol into a
/// [`Scenario`](crate::Scenario): it spawns nodes, initiates scheduled
/// updates, and probes per-node awareness so the [`Driver`] can observe
/// propagation without knowing the protocol's message types.
pub trait Protocol {
    /// The node type this protocol drives.
    type Node: Node;

    /// Human-readable protocol name for reports and tables.
    fn name(&self) -> String;

    /// Creates the node with identity `id` knowing the replicas in
    /// `known` (the scenario's topology row, self excluded).
    /// `online_at_start` reports the node's availability at round 0 so
    /// protocols with warm-up state (e.g. the paper peer's confidence
    /// flag) can initialise accordingly.
    fn spawn(&self, id: PeerId, known: Vec<PeerId>, online_at_start: bool) -> Self::Node;

    /// Initiates the scheduled `event` at `node`, returning the update's
    /// identity and writing the round-0 effects to inject into `out`.
    /// Protocols without a data model (pure dissemination baselines)
    /// derive the identity from [`UpdateEvent::rumor_id`] and ignore the
    /// payload semantics.
    fn initiate(
        &self,
        node: &mut Self::Node,
        event: &UpdateEvent,
        round: Round,
        rng: &mut ChaCha8Rng,
        out: &mut EffectSink<<Self::Node as Node>::Msg>,
    ) -> UpdateId;

    /// Whether `node` has learned of `update`.
    fn is_aware(&self, node: &Self::Node, update: UpdateId) -> bool;

    /// Messages this protocol counts toward the paper's overhead metric
    /// at `node` (e.g. push messages for the paper peer). Defaults to 0
    /// for protocols whose driver-level total is the only meaningful
    /// count.
    fn protocol_messages(&self, node: &Self::Node) -> u64 {
        let _ = node;
        0
    }

    /// The wire sizer for this protocol's message type — a pure function
    /// returning a message's encoded frame size (typically
    /// `rumor_wire::frame_len::<Msg>`). When `Some`, the driver sizes
    /// every send with it, so every run also reports bandwidth
    /// ([`EngineStats::bytes_sent`], [`RunReport::total_bytes`]). The
    /// default `None` disables byte accounting for message types without
    /// a wire codec.
    fn wire_sizer(&self) -> Option<WireSizer<<Self::Node as Node>::Msg>> {
        None
    }

    /// The digest-lie transform a Byzantine host applies to this
    /// protocol's outgoing messages (see [`MsgTamper`]). The default
    /// `None` means the protocol defines no typed lie — Byzantine
    /// members of such a protocol can still replay stale frames and
    /// push corrupt ones, which need no message-type knowledge.
    fn byzantine_liar(&self) -> Option<MsgTamper<<Self::Node as Node>::Msg>> {
        None
    }

    /// The trace message classifier for this protocol's message type —
    /// a pure function mapping a message to the coarse
    /// [`MsgKind`] stamped on send/deliver trace events. Consulted only
    /// while a tracer is enabled; the default `None` stamps
    /// [`MsgKind::Other`].
    fn trace_msg_kind(&self) -> Option<MsgKinder<<Self::Node as Node>::Msg>> {
        None
    }
}

/// The paper's hybrid push/pull protocol as a [`Protocol`] factory:
/// spawns [`ReplicaPeer`]s, initiates real writes and tombstones, and
/// probes awareness via the processed-update set.
#[derive(Debug, Clone)]
pub struct PaperProtocol {
    config: rumor_core::ProtocolConfig,
}

impl PaperProtocol {
    /// Creates the factory from a validated protocol configuration.
    pub fn new(config: rumor_core::ProtocolConfig) -> Self {
        Self { config }
    }

    /// The protocol configuration every spawned peer receives.
    pub fn config(&self) -> &rumor_core::ProtocolConfig {
        &self.config
    }
}

impl Protocol for PaperProtocol {
    type Node = ReplicaPeer;

    fn name(&self) -> String {
        "hybrid push/pull (paper)".to_owned()
    }

    fn spawn(&self, id: PeerId, known: Vec<PeerId>, online_at_start: bool) -> ReplicaPeer {
        let mut peer = ReplicaPeer::new(id, self.config.clone());
        peer.learn_replicas(known);
        if !online_at_start {
            peer.set_initially_offline();
        }
        peer
    }

    fn initiate(
        &self,
        node: &mut ReplicaPeer,
        event: &UpdateEvent,
        round: Round,
        rng: &mut ChaCha8Rng,
        out: &mut EffectSink<rumor_core::Message>,
    ) -> UpdateId {
        let value = if event.delete {
            None // a tombstone: the §3 death certificate
        } else {
            Some(Value::from(event.payload().as_str()))
        };
        node.initiate_update(event.key, value, round, rng, out).id()
    }

    fn is_aware(&self, node: &ReplicaPeer, update: UpdateId) -> bool {
        node.has_processed(update)
    }

    fn protocol_messages(&self, node: &ReplicaPeer) -> u64 {
        node.stats().push_messages_sent
    }

    fn wire_sizer(&self) -> Option<fn(&rumor_core::Message) -> usize> {
        Some(rumor_wire::frame_len::<rumor_core::Message>)
    }

    fn trace_msg_kind(&self) -> Option<fn(&rumor_core::Message) -> MsgKind> {
        Some(|msg| match msg {
            rumor_core::Message::Push(_) => MsgKind::Push,
            rumor_core::Message::PullRequest { .. } => MsgKind::PullRequest,
            rumor_core::Message::PullResponse { .. } => MsgKind::PullResponse,
            rumor_core::Message::Ack { .. } => MsgKind::Ack,
            rumor_core::Message::PullSince { .. } => MsgKind::DeltaRequest,
            rumor_core::Message::DeltaResponse { .. } => MsgKind::DeltaResponse,
        })
    }

    fn byzantine_liar(&self) -> Option<MsgTamper<rumor_core::Message>> {
        // The paper's pull phase is the repair channel: an offline-again
        // replica hands its version digest to a peer and trusts the
        // missing-updates answer. The liar betrays exactly that trust —
        // it swears the digest is complete by emptying its pull
        // responses, starving pull-based repair while leaving its own
        // push traffic (which would incriminate nothing) intact.
        Some(|msg| match msg {
            rumor_core::Message::PullResponse { updates } if !updates.is_empty() => {
                Some(rumor_core::Message::PullResponse {
                    updates: Vec::new(),
                })
            }
            rumor_core::Message::DeltaResponse { upto, updates } if !updates.is_empty() => {
                // The wire-v2 delta pull trusts the same answer, and no
                // more than that: the victim stores nothing from it
                // (`upto` is not a cursor), so its next pull names its
                // own unchanged state and any honest responder sends
                // what the liar withheld.
                Some(rumor_core::Message::DeltaResponse {
                    upto: *upto,
                    updates: Vec::new(),
                })
            }
            _ => None,
        })
    }
}

/// In-flight messages for one peer: `(from, payload)`.
type Inbox<M> = Vec<(PeerId, M)>;

/// Drives any population of [`Node`]s in synchronous rounds under churn,
/// link faults and an update workload — the single round loop behind the
/// paper peer and every baseline.
///
/// One round is one network delay (§4.1): a message sent during round
/// `t` is delivered at the start of round `t+1`. Messages to peers that
/// are offline at delivery time are lost but still count toward the
/// overhead metric. The round allocates nothing: inboxes are drained in
/// place, callbacks share one [`EffectSink`], timers live in one
/// [`TimerQueue`] and quiescence is an O(1) counter check.
///
/// Build one by mounting a [`Protocol`] into a
/// [`Scenario`](crate::Scenario) via [`Scenario::drive`](crate::Scenario::drive).
pub struct Driver<N: Node, T = NopTracer> {
    nodes: Vec<N>,
    online: OnlineSet,
    churn: Box<dyn Churn>,
    filter: Box<dyn LinkFilter>,
    proto_rng: ChaCha8Rng,
    churn_rng: ChaCha8Rng,
    convergence: ConvergenceSpec,
    initial_online: usize,
    /// Rounds executed so far = the round the next step executes.
    rounds_run: u32,
    /// Per-recipient messages the next round delivers.
    current: Vec<Inbox<N::Msg>>,
    /// Per-recipient messages sent during the running round.
    next: Vec<Inbox<N::Msg>>,
    /// Messages queued in `current` and `next`.
    in_flight: usize,
    timers: TimerQueue<(PeerId, u64)>,
    /// Earliest round a newly armed timer may fire: the next timer scan
    /// that could observe it.
    timer_barrier: Round,
    /// Availability at the previous status-change scan.
    prev_online: Vec<bool>,
    stats: EngineStats,
    sent_this_round: u64,
    sizer: Option<WireSizer<N::Msg>>,
    kinder: Option<MsgKinder<N::Msg>>,
    /// The default [`NopTracer`] compiles every trace call away.
    tracer: T,
    /// Scratch sink every callback and injection writes into.
    sink: EffectSink<N::Msg>,
    /// Trace bookkeeping for `Initiate` / `Aware` / `Probe` events;
    /// used only while a tracer is enabled.
    awareness: AwarenessRecorder,
}

impl<N: Node, T> std::fmt::Debug for Driver<N, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Driver")
            .field("population", &self.nodes.len())
            .field("online", &self.online.online_count())
            .field("rounds_run", &self.rounds_run)
            .finish_non_exhaustive()
    }
}

impl<N: Node> Driver<N> {
    /// Assembles an untraced driver from fully-constructed parts. Most
    /// callers should go through
    /// [`Scenario::drive`](crate::Scenario::drive); this is the
    /// low-level mount point for callers that manage their own random
    /// streams (e.g. `rumor-baselines`' unit tests).
    ///
    /// # Examples
    ///
    /// ```
    /// use rand::SeedableRng;
    /// use rand_chacha::ChaCha8Rng;
    /// use rumor_churn::{OnlineSet, StaticChurn};
    /// use rumor_net::{EffectSink, Node, PerfectLinks};
    /// use rumor_sim::{ConvergenceSpec, Driver};
    /// use rumor_types::{PeerId, Round};
    ///
    /// struct Relay { id: PeerId }
    /// impl Node for Relay {
    ///     type Msg = u8;
    ///     fn id(&self) -> PeerId { self.id }
    ///     fn on_message(&mut self, _f: PeerId, m: u8, _r: Round,
    ///                   _rng: &mut ChaCha8Rng, out: &mut EffectSink<u8>) {
    ///         if m > 0 { out.send(PeerId::new(0), m - 1); }
    ///     }
    /// }
    ///
    /// let (nodes, rng) = (vec![Relay { id: PeerId::new(0) }, Relay { id: PeerId::new(1) }],
    ///                     ChaCha8Rng::seed_from_u64(0));
    /// let mut driver = Driver::assemble(nodes, OnlineSet::all_online(2),
    ///     Box::new(StaticChurn::new()), Box::new(PerfectLinks), rng.clone(), rng,
    ///     ConvergenceSpec::default());
    /// driver.apply(PeerId::new(1), |_, _, out| out.send(PeerId::new(0), 3));
    /// driver.run_until_quiescent(100);
    /// assert_eq!(driver.stats().sent, 4); // 3, 2, 1, 0
    /// ```
    pub fn assemble(
        nodes: Vec<N>,
        online: OnlineSet,
        churn: Box<dyn Churn>,
        filter: Box<dyn LinkFilter>,
        proto_rng: ChaCha8Rng,
        churn_rng: ChaCha8Rng,
        convergence: ConvergenceSpec,
    ) -> Self {
        Self::assemble_traced(
            nodes,
            online,
            churn,
            filter,
            proto_rng,
            churn_rng,
            convergence,
            NopTracer,
        )
    }
}

impl<N: Node, T: Tracer> Driver<N, T> {
    /// Assembles a driver that captures structured events into
    /// `tracer`. Tracing consumes no randomness: the traced run is
    /// bit-identical to the untraced one.
    #[allow(clippy::too_many_arguments)]
    pub fn assemble_traced(
        nodes: Vec<N>,
        online: OnlineSet,
        churn: Box<dyn Churn>,
        filter: Box<dyn LinkFilter>,
        proto_rng: ChaCha8Rng,
        churn_rng: ChaCha8Rng,
        convergence: ConvergenceSpec,
        tracer: T,
    ) -> Self {
        let population = nodes.len();
        let initial_online = online.online_count();
        Self {
            nodes,
            online,
            churn,
            filter,
            proto_rng,
            churn_rng,
            convergence,
            initial_online,
            rounds_run: 0,
            current: (0..population).map(|_| Vec::new()).collect(),
            next: (0..population).map(|_| Vec::new()).collect(),
            in_flight: 0,
            timers: TimerQueue::default(),
            timer_barrier: Round::ZERO,
            prev_online: Vec::with_capacity(population),
            stats: EngineStats::new(),
            sent_this_round: 0,
            sizer: None,
            kinder: None,
            tracer,
            sink: EffectSink::new(),
            awareness: AwarenessRecorder::default(),
        }
    }

    /// The mounted tracer.
    pub fn tracer(&self) -> &T {
        &self.tracer
    }

    /// Mutable access to the mounted tracer (e.g. to drain a
    /// [`rumor_obs::MemTracer`] capture).
    pub fn tracer_mut(&mut self) -> &mut T {
        &mut self.tracer
    }

    /// Consumes the driver, returning the tracer with its capture.
    pub fn into_tracer(self) -> T {
        self.tracer
    }

    /// Total population size `R`.
    pub fn population(&self) -> usize {
        self.nodes.len()
    }

    /// The current availability state.
    pub fn online(&self) -> &OnlineSet {
        &self.online
    }

    /// Read access to one node.
    ///
    /// # Panics
    ///
    /// Panics if the node is outside the population.
    pub fn node(&self, id: PeerId) -> &N {
        &self.nodes[id.index()]
    }

    /// All nodes, for whole-population assertions.
    pub fn nodes(&self) -> &[N] {
        &self.nodes
    }

    /// Rounds executed so far.
    pub fn rounds_run(&self) -> u32 {
        self.rounds_run
    }

    /// The number of nodes online when the driver started (`R_on(0)`).
    pub fn initial_online(&self) -> usize {
        self.initial_online
    }

    /// The convergence criterion used by [`Driver::track_update`].
    pub fn convergence(&self) -> ConvergenceSpec {
        self.convergence
    }

    /// Message accounting so far.
    pub fn stats(&self) -> &EngineStats {
        &self.stats
    }

    /// Total messages sent so far (the paper's overhead metric counts
    /// sends whether or not the target was online).
    pub fn messages(&self) -> u64 {
        self.stats.sent
    }

    /// Encoded wire bytes of every message sent so far (0 when the
    /// mounted protocol provides no [`Protocol::wire_sizer`]).
    pub fn bytes_sent(&self) -> u64 {
        self.stats.bytes_sent
    }

    /// Installs (or clears) the message sizer: every later send records
    /// its encoded frame size into [`EngineStats::bytes_sent`]. Sizing
    /// consumes no randomness and never alters behaviour.
    pub(crate) fn set_msg_sizer(&mut self, sizer: Option<WireSizer<N::Msg>>) {
        self.sizer = sizer;
    }

    /// Installs (or clears) the trace message classifier; without one,
    /// traced messages stamp [`MsgKind::Other`].
    pub(crate) fn set_msg_kind(&mut self, kinder: Option<MsgKinder<N::Msg>>) {
        self.kinder = kinder;
    }

    /// Messages per initially-online node.
    pub fn messages_per_initial_online(&self) -> f64 {
        if self.initial_online == 0 {
            0.0
        } else {
            self.messages() as f64 / self.initial_online as f64
        }
    }

    /// True when no message is in flight and no timer is pending:
    /// stepping further can only trigger `on_round_start` work. O(1).
    pub fn is_quiescent(&self) -> bool {
        self.in_flight == 0 && self.timers.is_empty()
    }

    /// Replaces the churn model (pre-run configuration hook).
    pub fn set_churn(&mut self, churn: Box<dyn Churn>) {
        self.churn = churn;
    }

    /// Forces a node's availability (test/fault-injection hook). The
    /// change takes effect at the next round's status-change scan.
    pub fn set_online(&mut self, peer: PeerId, online: bool) {
        self.online.set_online(peer, online);
    }

    /// Samples a random online node from the protocol stream.
    pub fn sample_online(&mut self) -> Option<PeerId> {
        self.online.sample_online(&mut self.proto_rng)
    }

    /// Samples up to `k` *distinct* online nodes (paper §4.4: a client
    /// queries distinct peers). Returns fewer when fewer are online.
    pub fn sample_online_distinct(&mut self, k: usize) -> Vec<PeerId> {
        let mut pool: Vec<PeerId> = self.online.iter_online().collect();
        let take = k.min(pool.len());
        // Partial Fisher–Yates: k draws, not a full shuffle of the pool.
        for i in 0..take {
            let j = rand::Rng::gen_range(&mut self.proto_rng, i..pool.len());
            pool.swap(i, j);
        }
        pool.truncate(take);
        pool
    }

    /// Runs `f` against one node with the protocol RNG and a scratch
    /// [`EffectSink`], queueing the effects it writes (e.g. an
    /// initiator's round-0 broadcast) and passing its output through.
    /// Its sends are delivered by the next [`Driver::step`].
    ///
    /// # Panics
    ///
    /// Panics if `at` is outside the population.
    pub fn apply<R>(
        &mut self,
        at: PeerId,
        f: impl FnOnce(&mut N, &mut ChaCha8Rng, &mut EffectSink<N::Msg>) -> R,
    ) -> R {
        let mut sink = std::mem::take(&mut self.sink);
        let out = f(&mut self.nodes[at.index()], &mut self.proto_rng, &mut sink);
        self.queue_effects(at, &mut sink, true);
        self.sink = sink;
        out
    }

    /// Initiates `event` at `initiator` (or a random online node),
    /// queueing the protocol's round-0 effects. Returns `None` when no
    /// initiator was given and nobody is online.
    pub fn initiate<P: Protocol<Node = N>>(
        &mut self,
        protocol: &P,
        initiator: Option<PeerId>,
        event: &UpdateEvent,
    ) -> Option<UpdateId> {
        let id = initiator.or_else(|| self.sample_online())?;
        let round = Round::new(self.rounds_run);
        let mut sink = std::mem::take(&mut self.sink);
        let update = protocol.initiate(
            &mut self.nodes[id.index()],
            event,
            round,
            &mut self.proto_rng,
            &mut sink,
        );
        if self.tracer.is_enabled() {
            self.awareness
                .initiate(&mut self.tracer, round.as_u32(), id.as_u32(), update);
        }
        self.queue_effects(id, &mut sink, true);
        self.sink = sink;
        Some(update)
    }

    /// Records `event` at `node` while the tracer is enabled.
    fn trace(&mut self, round: Round, node: u32, event: EventKind) {
        if self.tracer.is_enabled() {
            self.tracer.record(round.as_u32(), node, event);
        }
    }

    /// `msg`'s trace kind, classified only while the tracer is enabled.
    fn kind_of(&self, msg: &N::Msg) -> MsgKind {
        match self.kinder {
            Some(classify) if self.tracer.is_enabled() => classify(msg),
            _ => MsgKind::Other,
        }
    }

    /// Drains `sink` into the queues, attributing every effect to
    /// `from`. Sends queued between rounds go to `current` (delivered by
    /// the next round), sends of the running round to `next`.
    fn queue_effects(&mut self, from: PeerId, sink: &mut EffectSink<N::Msg>, into_current: bool) {
        let round = Round::new(self.rounds_run);
        for effect in sink.drain() {
            let (to, msg) = match effect {
                Effect::Send { to, msg } => (to, msg),
                Effect::Timer { delay, tag } => {
                    self.timers
                        .arm(round, delay, self.timer_barrier, (from, tag));
                    continue;
                }
            };
            let bytes = self.sizer.map_or(0, |size_of| size_of(&msg) as u64);
            self.stats.record_sent(1);
            self.stats.record_bytes(bytes);
            let (kind, bytes) = (self.kind_of(&msg), bytes.min(u64::from(u32::MAX)) as u32);
            let send = EventKind::Send {
                to: to.as_u32(),
                kind,
                bytes,
            };
            self.trace(round, from.as_u32(), send);
            self.sent_this_round += 1;
            let queue = if into_current {
                &mut self.current
            } else {
                &mut self.next
            };
            // Ids are learned from the wire, so a node may address a peer
            // outside the population: a replica that is never online. The
            // send counts, nothing is queued.
            match queue.get_mut(to.index()) {
                Some(inbox) => {
                    inbox.push((from, msg));
                    self.in_flight += 1;
                }
                None => self.stats.lost_offline += 1,
            }
        }
    }

    /// Executes one synchronous round:
    ///
    /// 0. the churn transition (after round 0),
    /// 1. availability transitions (`on_status_change`),
    /// 2. `on_round_start` for online peers,
    /// 3. due timers, in arming order (timers owned by offline peers are
    ///    dropped — an offline replica does no protocol work),
    /// 4. delivery of last round's messages through the link filter,
    /// 5. promotion of this round's sends for delivery by the next.
    pub fn step(&mut self) {
        if self.rounds_run > 0 {
            self.churn
                .step(self.rounds_run - 1, &mut self.online, &mut self.churn_rng);
        }
        let round = Round::new(self.rounds_run);
        self.trace(round, CONDUCTOR, EventKind::RoundStart);
        let mut sink = std::mem::take(&mut self.sink);
        let population = self.nodes.len();

        // 1. Status changes since the previous scan, the snapshot updated
        //    in place. The first scan is not a transition.
        if self.rounds_run == 0 {
            self.prev_online.clear();
            let online = &self.online;
            self.prev_online
                .extend((0..population).map(|i| online.is_online(PeerId::new(i as u32))));
        }
        for i in 0..population {
            let peer = PeerId::new(i as u32);
            let online = self.online.is_online(peer);
            if self.prev_online[i] != online {
                self.prev_online[i] = online;
                self.trace(round, peer.as_u32(), EventKind::Status { online });
                self.nodes[i].on_status_change(online, round, &mut self.proto_rng, &mut sink);
                self.queue_effects(peer, &mut sink, false);
            }
        }

        // 2. Round start for online peers.
        for i in 0..population {
            let peer = PeerId::new(i as u32);
            if self.online.is_online(peer) {
                self.nodes[i].on_round_start(round, &mut self.proto_rng, &mut sink);
                self.queue_effects(peer, &mut sink, false);
            }
        }

        // 3. Due timers, in arming order. The barrier moves first, so
        //    timers armed by `on_timer` itself wait for the next round.
        self.timer_barrier = round.next();
        while let Some((_, (peer, tag))) = self.timers.pop_due(round) {
            if self.online.is_online(peer) {
                self.trace(round, peer.as_u32(), EventKind::TimerFire { tag });
                self.nodes[peer.index()].on_timer(tag, round, &mut self.proto_rng, &mut sink);
                self.queue_effects(peer, &mut sink, false);
            }
        }

        // 4. Deliver the current inboxes, draining each in place so its
        //    buffer is reused next round. Nothing queues into `current`
        //    during the round, so the slot can stand empty meanwhile.
        for i in 0..population {
            let to = PeerId::new(i as u32);
            let mut inbox = std::mem::take(&mut self.current[i]);
            for (from, msg) in inbox.drain(..) {
                self.in_flight -= 1;
                let from32 = from.as_u32();
                if !self.online.is_online(to) {
                    self.stats.lost_offline += 1;
                    self.trace(round, to.as_u32(), EventKind::DropOffline { from: from32 });
                } else if !self.filter.allows(from, to, round, &mut self.proto_rng) {
                    self.stats.lost_fault += 1;
                    self.trace(round, to.as_u32(), EventKind::DropLoss { from: from32 });
                } else {
                    self.stats.delivered += 1;
                    let kind = self.kind_of(&msg);
                    self.trace(
                        round,
                        to.as_u32(),
                        EventKind::Deliver { from: from32, kind },
                    );
                    self.nodes[i].on_message(from, msg, round, &mut self.proto_rng, &mut sink);
                    self.queue_effects(to, &mut sink, false);
                }
            }
            self.current[i] = inbox;
        }

        // 5. Promote the next-round queue and close the round.
        std::mem::swap(&mut self.current, &mut self.next);
        let sent = std::mem::take(&mut self.sent_this_round);
        self.stats.close_round(round.as_u32(), sent);
        self.trace(round, CONDUCTOR, EventKind::RoundEnd { sent });
        self.sink = sink;
        self.rounds_run += 1;
    }

    /// Runs `n` rounds.
    pub fn run_rounds(&mut self, n: u32) {
        for _ in 0..n {
            self.step();
        }
    }

    /// Runs until quiescent (no message in flight, no timer pending) or
    /// `max_rounds` have elapsed; returns rounds executed.
    pub fn run_until_quiescent(&mut self, max_rounds: u32) -> u32 {
        let start = self.rounds_run;
        while !self.is_quiescent() && self.rounds_run - start < max_rounds {
            self.step();
        }
        self.rounds_run - start
    }

    /// Fraction of *online* nodes satisfying `aware`.
    pub fn aware_fraction(&self, aware: impl Fn(&N) -> bool) -> f64 {
        let online = self.online.online_count();
        if online == 0 {
            return 0.0;
        }
        let count = self
            .online
            .iter_online()
            .filter(|p| aware(&self.nodes[p.index()]))
            .count();
        count as f64 / online as f64
    }

    /// Fraction of the *entire* population (offline included) satisfying
    /// `aware`.
    pub fn aware_fraction_total(&self, aware: impl Fn(&N) -> bool) -> f64 {
        if self.nodes.is_empty() {
            return 0.0;
        }
        let count = self.nodes.iter().filter(|n| aware(n)).count();
        count as f64 / self.nodes.len() as f64
    }

    fn protocol_messages<P: Protocol<Node = N>>(&self, protocol: &P) -> u64 {
        self.nodes
            .iter()
            .map(|n| protocol.protocol_messages(n))
            .sum()
    }

    fn observe<P: Protocol<Node = N>>(&self, protocol: &P, update: UpdateId) -> RoundObservation {
        let online = self.online.online_count();
        let aware_online = self
            .online
            .iter_online()
            .filter(|p| protocol.is_aware(&self.nodes[p.index()], update))
            .count();
        RoundObservation {
            round: self.rounds_run - 1,
            online,
            aware_online,
            f_aware: if online == 0 {
                0.0
            } else {
                aware_online as f64 / online as f64
            },
            cum_messages: self.stats.sent,
            cum_push_messages: self.protocol_messages(protocol),
        }
    }

    /// Drives rounds until the propagation of `update` quiesces (or
    /// awareness stalls per the driver's [`ConvergenceSpec`]), recording
    /// per-round observations. This is the figure-reproduction workhorse,
    /// protocol-agnostic: mount any [`Protocol`] and compare trajectories
    /// apples-to-apples.
    pub fn track_update<P: Protocol<Node = N>>(
        &mut self,
        protocol: &P,
        update: UpdateId,
        max_rounds: u32,
    ) -> RunReport {
        let mut per_round = Vec::new();
        let c = self.convergence;
        let mut detector = ConvergenceDetector::new(c.epsilon, c.patience, c.target);
        let start_round = self.rounds_run;
        // First-awareness trace events start from the awareness at
        // tracking start: the initiator is marked by its `Initiate`.
        let tracing = self.tracer.is_enabled();
        if tracing {
            let aware = self.nodes.iter().map(|n| protocol.is_aware(n, update));
            self.awareness.track(update, aware);
        }
        while self.rounds_run - start_round < max_rounds {
            if self.is_quiescent() && self.rounds_run > start_round {
                break;
            }
            self.step();
            let obs = self.observe(protocol, update);
            if tracing {
                let (nodes, online) = (&self.nodes, &self.online);
                let observed = nodes.iter().enumerate().map(|(i, n)| {
                    let peer = PeerId::new(i as u32);
                    (online.is_online(peer), protocol.is_aware(n, update))
                });
                self.awareness
                    .probe(&mut self.tracer, self.rounds_run - 1, observed);
            }
            let f_aware = obs.f_aware;
            per_round.push(obs);
            if detector.observe(f_aware) {
                break;
            }
        }
        RunReport {
            rounds: self.rounds_run - start_round,
            aware_online_fraction: self.aware_fraction(|n| protocol.is_aware(n, update)),
            aware_total_fraction: self.aware_fraction_total(|n| protocol.is_aware(n, update)),
            protocol_messages: self.protocol_messages(protocol),
            total_messages: self.stats.sent,
            total_bytes: self.stats.bytes_sent,
            total_wasted: self.stats.wasted(),
            initial_online: self.initial_online,
            per_round,
            per_round_sent: self.stats.per_round_sent().clone(),
        }
    }

    /// Executes a scheduled update workload (writes **and** tombstones)
    /// through the mounted protocol, tracking per-update awareness.
    ///
    /// Events fire at their scheduled round relative to the start of this
    /// call; an event whose round arrives while nobody is online is
    /// retried each following round (and counted in
    /// [`WorkloadReport::dropped_events`] if the horizon ends first).
    /// After the last scheduled round the driver keeps running for
    /// `settle_rounds` so pulls and stragglers can catch up.
    ///
    /// An update is *converged* at the first round where the online-aware
    /// fraction reaches the driver's [`ConvergenceSpec::target`].
    pub fn run_workload<P: Protocol<Node = N>>(
        &mut self,
        protocol: &P,
        events: &[UpdateEvent],
        settle_rounds: u32,
    ) -> WorkloadReport {
        let start_round = self.rounds_run;
        let messages_before = self.stats.sent;
        let mut schedule: Vec<&UpdateEvent> = events.iter().collect();
        schedule.sort_by_key(|e| (e.round, e.sequence));
        let horizon = schedule.last().map_or(0, |e| e.round + 1) + settle_rounds;
        let target = self.convergence.target;

        let mut next = 0usize;
        let mut deferred: Vec<&UpdateEvent> = Vec::new();
        let mut outcomes: Vec<UpdateOutcome> = Vec::new();
        for rel in 0..horizon {
            let mut due = std::mem::take(&mut deferred);
            while next < schedule.len() && schedule[next].round <= rel {
                due.push(schedule[next]);
                next += 1;
            }
            for event in due {
                match self.initiate(protocol, None, event) {
                    Some(update) => outcomes.push(UpdateOutcome {
                        update,
                        key: event.key,
                        delete: event.delete,
                        sequence: event.sequence,
                        initiated_round: self.rounds_run,
                        converged_round: None,
                        final_aware_online: 0.0,
                        final_aware_total: 0.0,
                    }),
                    None => deferred.push(event),
                }
            }
            self.step();
            let executed = self.rounds_run - 1;
            for outcome in outcomes.iter_mut().filter(|o| o.converged_round.is_none()) {
                let f = self.aware_fraction(|n| protocol.is_aware(n, outcome.update));
                if f >= target {
                    outcome.converged_round = Some(executed);
                }
            }
        }
        for outcome in &mut outcomes {
            outcome.final_aware_online =
                self.aware_fraction(|n| protocol.is_aware(n, outcome.update));
            outcome.final_aware_total =
                self.aware_fraction_total(|n| protocol.is_aware(n, outcome.update));
        }
        WorkloadReport {
            rounds: self.rounds_run - start_round,
            messages: self.stats.sent - messages_before,
            initial_online: self.initial_online,
            dropped_events: deferred.len() + (schedule.len() - next),
            updates: outcomes,
        }
    }
}

impl<T: Tracer> Driver<ReplicaPeer, T> {
    /// Issues a query the way a client would (§4.4): collect local
    /// answers from up to `attempts` *distinct* random online replicas
    /// and resolve them under `policy`.
    ///
    /// When `attempts` meets or exceeds the online population, every
    /// online replica answers exactly once.
    pub fn query(
        &mut self,
        key: DataKey,
        attempts: usize,
        policy: QueryPolicy,
    ) -> Option<QueryAnswer> {
        let sampled = self.sample_online_distinct(attempts);
        let answers: Vec<QueryAnswer> = sampled
            .into_iter()
            .map(|p| self.node(p).answer_query(key))
            .collect();
        policy.resolve(&answers)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::consistency;
    use crate::scenario::{Scenario, TopologySpec};
    use rand::SeedableRng;
    use rumor_churn::{MarkovChurn, StaticChurn};
    use rumor_core::{ForwardPolicy, ProtocolConfig, PullStrategy, QueryPolicy};
    use rumor_net::{BernoulliLoss, PerfectLinks};

    /// The scheduled write of `key` the tests initiate (payload `"u0"`).
    fn write(key: DataKey) -> UpdateEvent {
        UpdateEvent {
            round: 0,
            key,
            delete: false,
            sequence: 0,
        }
    }

    /// Mounts the paper peer with `config` on `scenario`.
    pub(crate) fn mount(
        scenario: &Scenario,
        config: ProtocolConfig,
    ) -> (PaperProtocol, Driver<ReplicaPeer>) {
        let protocol = PaperProtocol::new(config);
        let driver = scenario.drive(&protocol);
        (protocol, driver)
    }

    /// Initiates [`write`]`(key)` at a random online peer and tracks it
    /// for up to `max_rounds` rounds.
    pub(crate) fn propagate(
        driver: &mut Driver<ReplicaPeer>,
        protocol: &PaperProtocol,
        key: DataKey,
        max_rounds: u32,
    ) -> RunReport {
        let update = driver
            .initiate(protocol, None, &write(key))
            .expect("an online initiator");
        driver.track_update(protocol, update, max_rounds)
    }

    /// Counts deliveries; forwards each message once to a fixed target.
    struct Forwarder {
        id: PeerId,
        to: Option<PeerId>,
        received: Vec<PeerId>,
        status_changes: Vec<bool>,
        timer_fired: Vec<u64>,
        /// Send this on every status change (ordering probes).
        announce_to: Option<PeerId>,
    }

    impl Forwarder {
        fn new(id: u32, to: Option<u32>) -> Self {
            Self {
                id: PeerId::new(id),
                to: to.map(PeerId::new),
                received: Vec::new(),
                status_changes: Vec::new(),
                timer_fired: Vec::new(),
                announce_to: None,
            }
        }
    }

    impl Node for Forwarder {
        type Msg = u32;
        fn id(&self) -> PeerId {
            self.id
        }
        fn on_message(
            &mut self,
            from: PeerId,
            msg: u32,
            _round: Round,
            _rng: &mut ChaCha8Rng,
            out: &mut EffectSink<u32>,
        ) {
            self.received.push(from);
            if let Some(t) = self.to {
                out.send(t, msg);
            }
        }
        fn on_status_change(
            &mut self,
            online: bool,
            _round: Round,
            _rng: &mut ChaCha8Rng,
            out: &mut EffectSink<u32>,
        ) {
            self.status_changes.push(online);
            if let Some(t) = self.announce_to {
                out.send(t, self.id.as_u32());
            }
        }
        fn on_timer(
            &mut self,
            tag: u64,
            _round: Round,
            _rng: &mut ChaCha8Rng,
            _out: &mut EffectSink<u32>,
        ) {
            self.timer_fired.push(tag);
        }
    }

    /// `nodes` all online, no churn, through `filter`, traced into
    /// `tracer`.
    fn forwarders_traced<F: LinkFilter + 'static, T: Tracer>(
        nodes: Vec<Forwarder>,
        filter: F,
        tracer: T,
    ) -> Driver<Forwarder, T> {
        let online = OnlineSet::all_online(nodes.len());
        let rng = || ChaCha8Rng::seed_from_u64(8);
        Driver::assemble_traced(
            nodes,
            online,
            Box::new(StaticChurn::new()),
            Box::new(filter),
            rng(),
            rng(),
            ConvergenceSpec::default(),
            tracer,
        )
    }

    /// `nodes` all online, no churn, perfect links, untraced.
    fn forwarders(nodes: Vec<Forwarder>) -> Driver<Forwarder> {
        forwarders_traced(nodes, PerfectLinks, NopTracer)
    }

    fn send(driver: &mut Driver<Forwarder, impl Tracer>, from: u32, to: u32, msg: u32) {
        driver.apply(PeerId::new(from), |_, _, out| {
            out.send(PeerId::new(to), msg)
        });
    }

    fn arm(driver: &mut Driver<Forwarder>, at: u32, delay: u64, tag: u64) {
        driver.apply(PeerId::new(at), |_, _, out| out.timer(delay, tag));
    }

    fn node(driver: &Driver<Forwarder, impl Tracer>, id: u32) -> &Forwarder {
        driver.node(PeerId::new(id))
    }

    #[test]
    fn message_takes_one_round() {
        let mut driver = forwarders(vec![Forwarder::new(0, None), Forwarder::new(1, None)]);
        send(&mut driver, 0, 1, 5);
        assert_eq!(node(&driver, 1).received.len(), 0);
        driver.step();
        assert_eq!(
            node(&driver, 1).received.len(),
            1,
            "delivered at start of next round"
        );
        assert_eq!(driver.stats().sent, 1);
        assert_eq!(driver.stats().delivered, 1);
    }

    #[test]
    fn chain_forwarding_costs_one_round_per_hop() {
        // 0 -> 1 -> 2: two hops, two rounds after injection.
        let mut driver = forwarders(vec![
            Forwarder::new(0, None),
            Forwarder::new(1, Some(2)),
            Forwarder::new(2, None),
        ]);
        send(&mut driver, 0, 1, 9);
        driver.step();
        assert_eq!(node(&driver, 2).received.len(), 0);
        driver.step();
        assert_eq!(node(&driver, 2).received.len(), 1);
        assert!(driver.is_quiescent());
    }

    #[test]
    fn offline_target_loses_message_but_counts_send() {
        let mut driver = forwarders(vec![Forwarder::new(0, None), Forwarder::new(1, None)]);
        driver.set_online(PeerId::new(1), false);
        send(&mut driver, 0, 1, 5);
        driver.step();
        assert_eq!(node(&driver, 1).received.len(), 0);
        assert_eq!(
            driver.stats().sent,
            1,
            "paper counts sends to offline peers"
        );
        assert_eq!(driver.stats().lost_offline, 1);
    }

    #[test]
    fn link_loss_is_counted_separately() {
        let nodes = vec![Forwarder::new(0, None), Forwarder::new(1, None)];
        let mut driver = forwarders_traced(nodes, BernoulliLoss::new(1.0), NopTracer);
        send(&mut driver, 0, 1, 5);
        driver.step();
        assert_eq!(driver.stats().lost_fault, 1);
        assert_eq!(node(&driver, 1).received.len(), 0);
    }

    #[test]
    fn status_changes_fire_once_per_transition() {
        let mut driver = forwarders(vec![Forwarder::new(0, None)]);
        driver.step();
        assert!(
            node(&driver, 0).status_changes.is_empty(),
            "initial state is not a transition"
        );
        driver.set_online(PeerId::new(0), false);
        driver.step();
        driver.set_online(PeerId::new(0), true);
        driver.step();
        driver.step();
        assert_eq!(node(&driver, 0).status_changes, vec![false, true]);
    }

    #[test]
    fn status_change_effects_fire_in_node_order() {
        // Regression for the in-place `prev_online` snapshot: several
        // peers transitioning in the same round must observe their
        // callbacks (and the effects those emit) in ascending node order,
        // exactly as the historical collect-then-apply staging did.
        let mut nodes = vec![
            Forwarder::new(0, None),
            Forwarder::new(1, None),
            Forwarder::new(2, None),
        ];
        nodes[1].announce_to = Some(PeerId::new(0));
        nodes[2].announce_to = Some(PeerId::new(0));
        let mut driver = forwarders(nodes);
        driver.step();
        // Flip both (higher index first, to prove ordering comes from the
        // scan, not the mutation order).
        driver.set_online(PeerId::new(2), false);
        driver.set_online(PeerId::new(1), false);
        driver.step();
        driver.step();
        assert_eq!(
            node(&driver, 0).received,
            vec![PeerId::new(1), PeerId::new(2)],
            "announcements delivered in node order"
        );
        // And the snapshot was updated in place: a quiet follow-up round
        // reports no further transitions.
        driver.step();
        assert_eq!(node(&driver, 1).status_changes, vec![false]);
        assert_eq!(node(&driver, 2).status_changes, vec![false]);
    }

    #[test]
    fn timers_fire_for_online_peers_only() {
        let mut driver = forwarders(vec![Forwarder::new(0, None), Forwarder::new(1, None)]);
        arm(&mut driver, 0, 1, 7);
        arm(&mut driver, 1, 1, 8);
        driver.set_online(PeerId::new(1), false);
        driver.step(); // round 0
        driver.step(); // round 1: timers due
        assert_eq!(node(&driver, 0).timer_fired, vec![7]);
        assert!(
            node(&driver, 1).timer_fired.is_empty(),
            "offline peer's timer dropped"
        );
        assert!(driver.is_quiescent());
    }

    #[test]
    fn timers_with_one_fire_round_pop_in_insertion_order() {
        // Three timers land on the same effective round through different
        // paths (long delay armed early, short delay armed late): the
        // heap must fire them in insertion order, matching the historical
        // Vec scan.
        let mut driver = forwarders(vec![Forwarder::new(0, None)]);
        arm(&mut driver, 0, 2, 1);
        arm(&mut driver, 0, 2, 2);
        driver.step(); // round 0
        arm(&mut driver, 0, 1, 3);
        driver.step(); // round 1
        driver.step(); // round 2: all due
        assert_eq!(node(&driver, 0).timer_fired, vec![1, 2, 3]);
    }

    #[test]
    fn timer_delays_beyond_the_round_range_saturate_instead_of_wrapping() {
        // Regression: `delay as u32` wrapped 2^32 to 0 (fired at once)
        // and `round + u32::MAX` overflowed the round counter.
        let mut driver = forwarders(vec![Forwarder::new(0, None)]);
        driver.step(); // round 0
        for (tag, delay) in [(1, 1u64 << 32), (2, u64::MAX)] {
            arm(&mut driver, 0, delay, tag);
        }
        driver.run_rounds(8);
        assert!(
            node(&driver, 0).timer_fired.is_empty(),
            "never fires within the run"
        );
        assert!(!driver.is_quiescent(), "both timers stay armed");
    }

    #[test]
    fn zero_delay_timer_queued_by_apply_fires_next_step() {
        let mut driver = forwarders(vec![Forwarder::new(0, None)]);
        arm(&mut driver, 0, 0, 4);
        assert!(!driver.is_quiescent(), "pending timer blocks quiescence");
        driver.step();
        assert_eq!(node(&driver, 0).timer_fired, vec![4]);
        assert!(driver.is_quiescent());
    }

    #[test]
    fn per_round_series_tracks_rounds() {
        let mut driver = forwarders(vec![Forwarder::new(0, Some(1)), Forwarder::new(1, Some(0))]);
        send(&mut driver, 0, 1, 1);
        driver.run_rounds(4);
        // Ping-pong forever: one send per round.
        assert_eq!(driver.stats().per_round_sent().points().len(), 4);
        assert_eq!(driver.stats().sent, 5); // inject + 4 forwards
    }

    #[test]
    fn in_flight_counter_tracks_queue_exactly() {
        let mut driver = forwarders(vec![Forwarder::new(0, Some(1)), Forwarder::new(1, None)]);
        assert_eq!(driver.in_flight, 0);
        send(&mut driver, 1, 0, 1);
        send(&mut driver, 1, 0, 2);
        assert_eq!(driver.in_flight, 2);
        // Both deliveries forward to peer 1: two consumed, two queued.
        driver.step();
        assert_eq!(driver.in_flight, 2);
        driver.step();
        assert_eq!(driver.in_flight, 0);
        assert!(driver.is_quiescent());
    }

    #[test]
    fn msg_sizer_records_bytes_per_send() {
        let mut driver = forwarders(vec![Forwarder::new(0, Some(1)), Forwarder::new(1, None)]);
        driver.set_msg_sizer(Some(|_m: &u32| 10));
        send(&mut driver, 1, 0, 1);
        driver.step();
        // inject + the forward produced by delivery: 2 sends × 10 bytes.
        assert_eq!(driver.stats().sent, 2);
        assert_eq!(driver.stats().bytes_sent, 20);
        assert_eq!(driver.stats().mean_message_bytes(), 10.0);
        driver.set_msg_sizer(None);
        send(&mut driver, 1, 0, 1);
        assert_eq!(
            driver.stats().bytes_sent,
            20,
            "cleared sizer stops accounting"
        );
    }

    #[test]
    fn traced_driver_captures_sends_and_deliveries_without_drift() {
        use rumor_obs::MemTracer;
        // Untraced reference run.
        let mut plain = forwarders(vec![Forwarder::new(0, Some(1)), Forwarder::new(1, None)]);
        send(&mut plain, 0, 1, 5);
        plain.step();
        let reference = plain.stats().clone();

        // Same run, traced: identical statistics, events captured.
        let nodes = vec![Forwarder::new(0, Some(1)), Forwarder::new(1, None)];
        let mut driver = forwarders_traced(nodes, PerfectLinks, MemTracer::new());
        driver.set_msg_sizer(Some(|_m: &u32| 10));
        send(&mut driver, 0, 1, 5);
        driver.step();
        assert_eq!(driver.stats().sent, reference.sent);
        assert_eq!(driver.stats().delivered, reference.delivered);
        let events = driver.tracer_mut().take();
        let kinds: Vec<&str> = events.iter().map(|e| e.kind.name()).collect();
        assert_eq!(
            kinds,
            vec!["send", "round_start", "deliver", "round_end"],
            "inject send, then the round frame around the delivery"
        );
        let send = events
            .iter()
            .find(|e| matches!(e.kind, EventKind::Send { .. }))
            .unwrap();
        assert!(matches!(send.kind, EventKind::Send { bytes: 10, .. }));
    }

    #[test]
    fn run_until_quiescent_respects_cap() {
        let mut driver = forwarders(vec![Forwarder::new(0, Some(1)), Forwarder::new(1, Some(0))]);
        send(&mut driver, 0, 1, 1);
        let rounds = driver.run_until_quiescent(10);
        assert_eq!(rounds, 10, "ping-pong never quiesces; cap applies");
    }

    fn key() -> DataKey {
        DataKey::from_name("test-key")
    }

    fn defaults(population: usize) -> ProtocolConfig {
        ProtocolConfig::builder(population).build().unwrap()
    }

    fn fanout(population: usize, fanout: usize) -> ProtocolConfig {
        ProtocolConfig::builder(population)
            .fanout_absolute(fanout)
            .build()
            .unwrap()
    }

    fn scenario(population: usize, seed: u64) -> Scenario {
        Scenario::builder(population, seed).build().unwrap()
    }
    #[test]
    fn push_reaches_everyone_when_all_online() {
        let (protocol, mut driver) = mount(&scenario(200, 3), fanout(200, 6));
        let report = propagate(&mut driver, &protocol, key(), 50);
        assert!(report.aware_online_fraction > 0.99, "{report:?}");
        assert!(report.protocol_messages > 0);
        assert!(report.rounds < 50);
    }

    #[test]
    fn push_only_reaches_online_peers() {
        // No churn, no pull triggers for offline peers (they never come
        // online), so offline peers stay unaware.
        let half = Scenario::builder(200, 3)
            .online_fraction(0.5)
            .build()
            .unwrap();
        let (protocol, mut driver) = mount(&half, fanout(200, 10));
        let report = propagate(&mut driver, &protocol, key(), 50);
        assert!(report.aware_online_fraction > 0.9);
        assert!(report.aware_total_fraction < 0.7);
    }

    #[test]
    fn awareness_is_monotone_per_round() {
        let (protocol, mut driver) = mount(&scenario(300, 5), fanout(300, 6));
        let report = propagate(&mut driver, &protocol, key(), 50);
        let f: Vec<f64> = report.per_round.iter().map(|o| o.f_aware).collect();
        assert!(f.windows(2).all(|w| w[0] <= w[1] + 1e-12), "{f:?}");
    }

    #[test]
    fn same_seed_same_outcome() {
        // Fanout 4 (not the default f_r·R = 1): with a single push target
        // the rumor often dies in round 0 under *any* seed, making the
        // divergence assertion below vacuous-or-flaky. A real trajectory
        // gives the two seeds room to visibly differ.
        let run = |seed| {
            let churned = Scenario::builder(100, seed)
                .online_fraction(0.5)
                .churn(MarkovChurn::new(0.9, 0.05).unwrap())
                .build()
                .unwrap();
            let (protocol, mut driver) = mount(&churned, fanout(100, 4));
            let r = propagate(&mut driver, &protocol, key(), 30);
            (r.protocol_messages, r.aware_online_fraction, r.rounds)
        };
        assert_eq!(run(11), run(11));
        assert_ne!(run(11), run(12), "different seeds diverge");
    }

    #[test]
    fn offline_initiator_panics() {
        // Initiating at an offline peer is allowed (it will push when the
        // engine delivers); only sampling when nobody is online fails.
        let one = Scenario::builder(4, 1).online_count(1).build().unwrap();
        let (protocol, mut driver) = mount(&one, defaults(4));
        // Peer 3 starts offline.
        let update = driver.initiate(&protocol, Some(PeerId::new(3)), &write(key()));
        assert!(update.is_some(), "explicit initiator is accepted");
    }

    #[test]
    fn query_resolves_after_propagation() {
        let (protocol, mut driver) = mount(&scenario(100, 9), fanout(100, 6));
        propagate(&mut driver, &protocol, key(), 30);
        let resolved = driver
            .query(key(), 5, QueryPolicy::Latest)
            .expect("resolved");
        assert_eq!(resolved.value.unwrap().as_bytes(), b"u0");
    }

    #[test]
    fn query_samples_distinct_replicas() {
        // Regression (§4.4): sampling with replacement could probe the
        // same replica twice, so a query with attempts >= online count
        // could still miss the only replica holding the value. Distinct
        // sampling makes such queries exhaustive and deterministic.
        let (protocol, mut driver) = mount(&scenario(5, 17), defaults(5));
        // Only the initiator holds the value: no rounds are run, so the
        // round-0 pushes are still in flight.
        driver.initiate(&protocol, Some(PeerId::new(0)), &write(key()));
        for _ in 0..20 {
            let answer = driver
                .query(key(), 5, QueryPolicy::Latest)
                .expect("5 distinct draws over 5 online peers must include the holder");
            assert_eq!(answer.value.unwrap().as_bytes(), b"u0");
        }
    }

    #[test]
    fn query_attempts_beyond_population_answer_each_replica_once() {
        let (protocol, mut driver) = mount(&scenario(3, 21), defaults(3));
        driver.initiate(&protocol, Some(PeerId::new(1)), &write(key()));
        // 100 attempts over 3 online replicas: exactly one holder answer.
        let answer = driver
            .query(key(), 100, QueryPolicy::Latest)
            .expect("resolved");
        assert_eq!(answer.value.unwrap().as_bytes(), b"u0");
    }

    #[test]
    fn report_aggregates_counters() {
        let (protocol, mut driver) = mount(&scenario(100, 2), defaults(100));
        propagate(&mut driver, &protocol, key(), 30);
        let stats = driver.stats();
        assert!(stats.sent > 0);
        assert_eq!(
            stats.sent,
            stats.delivered + stats.lost_offline + stats.lost_fault,
            "message conservation"
        );
        let pushes_received: u64 = driver
            .nodes()
            .iter()
            .map(|p| p.stats().pushes_received)
            .sum();
        assert!(pushes_received > 0);
    }

    #[test]
    fn loss_reduces_coverage_or_costs_messages() {
        let run = |loss| {
            let lossy = Scenario::builder(200, 4).loss(loss).build().unwrap();
            let (protocol, mut driver) = mount(&lossy, defaults(200));
            propagate(&mut driver, &protocol, key(), 40)
        };
        let (clean, lossy) = (run(0.0), run(0.7));
        assert!(
            lossy.aware_online_fraction <= clean.aware_online_fraction + 1e-9,
            "loss cannot improve coverage"
        );
    }

    #[test]
    fn pull_recovers_offline_peers_after_churn() {
        // Peers come online after the push and pull the update eagerly.
        let config = ProtocolConfig::builder(100)
            .fanout_fraction(0.05)
            .pull_strategy(PullStrategy::Eager)
            .build()
            .unwrap();
        let returning = Scenario::builder(100, 6)
            .online_fraction(0.5)
            .churn(MarkovChurn::new(1.0, 0.2).unwrap()) // offline peers return
            .build()
            .unwrap();
        let (protocol, mut driver) = mount(&returning, config);
        let update = driver
            .initiate(&protocol, None, &write(key()))
            .expect("an online initiator");
        driver.run_rounds(40);
        let aware_total = consistency::awareness(driver.nodes(), None, update);
        assert!(
            aware_total > 0.95,
            "pull must spread the update to returning peers, got {aware_total}"
        );
    }

    #[test]
    fn suppressed_forwarding_spreads_less() {
        let mk = |pf| {
            let config = ProtocolConfig::builder(300)
                .fanout_fraction(0.01)
                .forward(pf)
                .build()
                .unwrap();
            let (protocol, mut driver) = mount(&scenario(300, 8), config);
            propagate(&mut driver, &protocol, key(), 40)
        };
        let always = mk(ForwardPolicy::Always);
        let never = mk(ForwardPolicy::Constant { p: 0.0 });
        assert!(always.aware_online_fraction > never.aware_online_fraction);
        assert!(always.protocol_messages > never.protocol_messages);
    }

    #[test]
    fn partial_knowledge_still_spreads() {
        let subset = Scenario::builder(400, 13)
            .topology(TopologySpec::RandomSubset { k: 20 })
            .build()
            .unwrap();
        let (protocol, mut driver) = mount(&subset, fanout(400, 10));
        let report = propagate(&mut driver, &protocol, key(), 60);
        assert!(
            report.aware_online_fraction > 0.95,
            "{}",
            report.aware_online_fraction
        );
    }
}
