//! The protocol-agnostic round driver and the [`Protocol`] factory trait.
//!
//! The paper's central claim is comparative: the hybrid push/pull scheme
//! beats flooding, GOSSIP1 and the Demers epidemics *under identical
//! churn and network conditions* (§5.6, §7.2). That comparison is only
//! honest when every contender runs inside the same experiment harness —
//! CUP (Roussopoulos & Baker) calls this "one harness, many protocols".
//! [`Driver`] is that harness: it owns the round orchestration (churn
//! transition → engine round → observation) for *any* [`Node`]
//! population, and a [`Protocol`] implementation describes how to mount
//! one contender into it (how to spawn a node, initiate an update, and
//! probe awareness).
//!
//! The paper peer ([`PaperProtocol`]) and every `rumor_baselines`
//! protocol mount on it the same way, through
//! [`Scenario::drive`](crate::Scenario::drive); none has a round loop or
//! a wrapper of its own. The one paper-specific addition is §4.4's
//! [`Driver::query`] on `Driver<ReplicaPeer>`.

use crate::report::{RoundObservation, RunReport, UpdateOutcome, WorkloadReport};
use crate::scenario::ConvergenceSpec;
use crate::workload::UpdateEvent;
use rand_chacha::ChaCha8Rng;
use rumor_churn::{Churn, OnlineSet};
use rumor_core::{QueryAnswer, QueryPolicy, ReplicaPeer, Value};
use rumor_metrics::ConvergenceDetector;
use rumor_net::{EffectSink, EngineStats, LinkFilter, Node, SyncEngine};
use rumor_obs::{AwarenessRecorder, MsgKind, NopTracer, Tracer};
use rumor_types::{DataKey, PeerId, Round, UpdateId};

/// A pure function returning a message's encoded wire-frame size —
/// what [`Protocol::wire_sizer`] hands the engine for byte accounting.
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
    /// for protocols whose engine-level total is the only meaningful
    /// count.
    fn protocol_messages(&self, node: &Self::Node) -> u64 {
        let _ = node;
        0
    }

    /// The wire sizer for this protocol's message type — a pure function
    /// returning a message's encoded frame size (typically
    /// `rumor_wire::frame_len::<Msg>`). When `Some`, the driver installs
    /// it into the engine so every run also reports bandwidth
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

/// Drives any population of [`Node`]s in synchronous rounds under churn,
/// link faults and an update workload — the single round loop behind the
/// paper peer and every baseline.
///
/// Build one by mounting a [`Protocol`] into a
/// [`Scenario`](crate::Scenario) via [`Scenario::drive`](crate::Scenario::drive).
pub struct Driver<N: Node, T = NopTracer> {
    nodes: Vec<N>,
    online: OnlineSet,
    churn: Box<dyn Churn>,
    engine: SyncEngine<N::Msg, T>,
    filter: Box<dyn LinkFilter>,
    proto_rng: ChaCha8Rng,
    churn_rng: ChaCha8Rng,
    convergence: ConvergenceSpec,
    initial_online: usize,
    rounds_run: u32,
    /// Scratch sink for out-of-round effect injection (initiations).
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
    /// Assembles a driver whose engine captures structured events into
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
            engine: SyncEngine::with_tracer(population, tracer),
            filter,
            proto_rng,
            churn_rng,
            convergence,
            initial_online,
            rounds_run: 0,
            sink: EffectSink::new(),
            awareness: AwarenessRecorder::default(),
        }
    }

    /// The engine's tracer.
    pub fn tracer(&self) -> &T {
        self.engine.tracer()
    }

    /// Mutable access to the engine's tracer (e.g. to drain a
    /// [`rumor_obs::MemTracer`] capture).
    pub fn tracer_mut(&mut self) -> &mut T {
        self.engine.tracer_mut()
    }

    /// Consumes the driver, returning the tracer with its capture.
    pub fn into_tracer(self) -> T {
        self.engine.into_tracer()
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

    /// Engine-level message accounting so far.
    pub fn stats(&self) -> &EngineStats {
        self.engine.stats()
    }

    /// Total messages sent so far (the paper's overhead metric counts
    /// sends whether or not the target was online).
    pub fn messages(&self) -> u64 {
        self.engine.stats().sent
    }

    /// Encoded wire bytes of every message sent so far (0 when the
    /// mounted protocol provides no [`Protocol::wire_sizer`]).
    pub fn bytes_sent(&self) -> u64 {
        self.engine.stats().bytes_sent
    }

    /// Installs (or clears) the engine's message sizer. Normally set
    /// automatically by [`Scenario::drive`](crate::Scenario::drive) from
    /// [`Protocol::wire_sizer`]; exposed for wrappers assembling drivers
    /// by hand.
    pub fn set_msg_sizer(&mut self, sizer: Option<fn(&N::Msg) -> usize>) {
        self.engine.set_msg_sizer(sizer);
    }

    /// Installs (or clears) the engine's trace message classifier.
    /// Normally set automatically by
    /// [`Scenario::drive`](crate::Scenario::drive) from
    /// [`Protocol::trace_msg_kind`]; consulted only while a tracer is
    /// enabled.
    pub fn set_msg_kind(&mut self, kinder: Option<fn(&N::Msg) -> MsgKind>) {
        self.engine.set_msg_kind(kinder);
    }

    /// Messages per initially-online node.
    pub fn messages_per_initial_online(&self) -> f64 {
        if self.initial_online == 0 {
            0.0
        } else {
            self.messages() as f64 / self.initial_online as f64
        }
    }

    /// True when no message is in flight and no timer is pending.
    pub fn is_quiescent(&self) -> bool {
        self.engine.is_quiescent()
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
    /// [`EffectSink`], injecting the effects it writes (e.g. an
    /// initiator's round-0 broadcast) and passing its output through.
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
        self.engine.inject(at, sink.drain());
        self.sink = sink;
        out
    }

    /// Initiates `event` at `initiator` (or a random online node),
    /// injecting the protocol's round-0 effects. Returns `None` when no
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
        if self.engine.tracer().is_enabled() {
            let tracer = self.engine.tracer_mut();
            self.awareness
                .initiate(tracer, round.as_u32(), id.as_u32(), update);
        }
        self.engine.inject(id, sink.drain());
        self.sink = sink;
        Some(update)
    }

    /// Executes one synchronous round: churn transition (after round 0),
    /// then the engine round.
    pub fn step(&mut self) {
        if self.rounds_run > 0 {
            self.churn
                .step(self.rounds_run - 1, &mut self.online, &mut self.churn_rng);
        }
        self.engine.step(
            &mut self.nodes,
            &self.online,
            &self.filter,
            &mut self.proto_rng,
        );
        self.rounds_run += 1;
    }

    /// Runs `n` rounds.
    pub fn run_rounds(&mut self, n: u32) {
        for _ in 0..n {
            self.step();
        }
    }

    /// Runs until the engine is quiescent (no message in flight, no timer
    /// pending) or `max_rounds` have elapsed; returns rounds executed.
    pub fn run_until_quiescent(&mut self, max_rounds: u32) -> u32 {
        let start = self.rounds_run;
        while !self.engine.is_quiescent() && self.rounds_run - start < max_rounds {
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
            cum_messages: self.engine.stats().sent,
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
        let tracing = self.engine.tracer().is_enabled();
        if tracing {
            let aware = self.nodes.iter().map(|n| protocol.is_aware(n, update));
            self.awareness.track(update, aware);
        }
        while self.rounds_run - start_round < max_rounds {
            if self.engine.is_quiescent() && self.rounds_run > start_round {
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
                let tracer = self.engine.tracer_mut();
                self.awareness.probe(tracer, self.rounds_run - 1, observed);
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
            total_messages: self.engine.stats().sent,
            total_bytes: self.engine.stats().bytes_sent,
            total_wasted: self.engine.stats().wasted(),
            initial_online: self.initial_online,
            per_round,
            per_round_sent: self.engine.stats().per_round_sent().clone(),
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
        let messages_before = self.engine.stats().sent;
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
            messages: self.engine.stats().sent - messages_before,
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
