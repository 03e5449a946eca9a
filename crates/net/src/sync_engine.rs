//! The synchronous round engine — the paper's analysis model, executable.
//!
//! One push round = one network delay (§4.1): a message sent during round
//! `t` is delivered at the start of round `t+1`. Messages to peers that
//! are offline at delivery time are lost (the pull phase exists precisely
//! to repair this) but still count toward the overhead metric.
//!
//! The engine allocates only at construction: per-peer inboxes are
//! recycled across rounds (drain in place, capacity retained), node
//! callbacks write into one reusable [`EffectSink`], the availability
//! snapshot is updated in place, timers live in one [`TimerQueue`] (the
//! queue `rumor-cluster`'s cells use too), and quiescence is an O(1)
//! counter check.

use crate::link::LinkFilter;
use crate::node::{Effect, Node};
use crate::sink::EffectSink;
use crate::stats::EngineStats;
use crate::timer::TimerQueue;
use rand_chacha::ChaCha8Rng;
use rumor_churn::OnlineSet;
use rumor_obs::{EventKind, MsgKind, NopTracer, Tracer, CONDUCTOR};
use rumor_types::{PeerId, Round};

/// In-flight message: `(from, payload)`.
type Inbox<M> = Vec<(PeerId, M)>;

/// Deterministic lock-step engine over a population of [`Node`]s.
///
/// # Examples
///
/// ```
/// use rumor_net::{Effect, EffectSink, Node, PerfectLinks, SyncEngine};
/// use rumor_churn::OnlineSet;
/// use rumor_types::{PeerId, Round};
/// use rand::SeedableRng;
///
/// struct Relay { id: PeerId }
/// impl Node for Relay {
///     type Msg = u8;
///     fn id(&self) -> PeerId { self.id }
///     fn on_message(&mut self, _f: PeerId, m: u8, _r: Round,
///                   _rng: &mut rand_chacha::ChaCha8Rng, out: &mut EffectSink<u8>) {
///         if m > 0 { out.send(PeerId::new(0), m - 1); }
///     }
/// }
///
/// let mut nodes = vec![Relay { id: PeerId::new(0) }, Relay { id: PeerId::new(1) }];
/// let online = OnlineSet::all_online(2);
/// let mut engine = SyncEngine::new(2);
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0);
/// engine.inject(PeerId::new(1), vec![Effect::send(PeerId::new(0), 3)]);
/// while !engine.is_quiescent() {
///     engine.step(&mut nodes, &online, &PerfectLinks, &mut rng);
/// }
/// assert_eq!(engine.stats().sent, 4); // 3, 2, 1, 0
/// ```
#[derive(Debug)]
pub struct SyncEngine<M, T = NopTracer> {
    current: Vec<Inbox<M>>,
    next: Vec<Inbox<M>>,
    timers: TimerQueue<(PeerId, u64)>,
    /// Earliest round a newly queued timer may fire: the next timer scan
    /// that could observe it. Preserves the historical insertion-ordered
    /// Vec-scan semantics exactly (including zero-delay timers queued
    /// after a round's scan, which fire the following round).
    timer_barrier: Round,
    round: Round,
    prev_online: Vec<bool>,
    prev_online_primed: bool,
    stats: EngineStats,
    sent_this_round: u64,
    /// Messages queued for delivery (O(1) quiescence check).
    in_flight: usize,
    /// Optional wire sizer: encoded frame bytes per message, recorded
    /// into [`EngineStats::bytes_sent`] at send time.
    sizer: Option<fn(&M) -> usize>,
    /// Optional message classifier for trace events; consulted only when
    /// the tracer is enabled, never consumes randomness.
    kinder: Option<fn(&M) -> MsgKind>,
    /// Structured-event sink. The default [`NopTracer`] monomorphizes to
    /// nothing — the untraced engine is bit- and cost-identical to the
    /// pre-tracing one.
    tracer: T,
    /// Scratch sink node callbacks write into; drained after each call.
    sink: EffectSink<M>,
    /// Scratch inbox swapped against each peer slot during delivery.
    delivery_scratch: Inbox<M>,
}

impl<M: Clone> SyncEngine<M> {
    /// Creates an untraced engine for a population of `n` peers.
    pub fn new(n: usize) -> Self {
        Self::with_tracer(n, NopTracer)
    }
}

impl<M: Clone, T: Tracer> SyncEngine<M, T> {
    /// Creates an engine for a population of `n` peers capturing
    /// structured events into `tracer`.
    pub fn with_tracer(n: usize, tracer: T) -> Self {
        Self {
            current: (0..n).map(|_| Vec::new()).collect(),
            next: (0..n).map(|_| Vec::new()).collect(),
            timers: TimerQueue::default(),
            timer_barrier: Round::ZERO,
            round: Round::ZERO,
            prev_online: Vec::with_capacity(n),
            prev_online_primed: false,
            stats: EngineStats::new(),
            sent_this_round: 0,
            in_flight: 0,
            sizer: None,
            kinder: None,
            tracer,
            sink: EffectSink::new(),
            delivery_scratch: Vec::new(),
        }
    }

    /// The mounted tracer.
    pub const fn tracer(&self) -> &T {
        &self.tracer
    }

    /// Mutable access to the mounted tracer (e.g. to drain a
    /// [`rumor_obs::MemTracer`] mid-run).
    pub fn tracer_mut(&mut self) -> &mut T {
        &mut self.tracer
    }

    /// Consumes the engine, returning the tracer with its capture.
    pub fn into_tracer(self) -> T {
        self.tracer
    }

    /// The round the *next* [`SyncEngine::step`] call will execute.
    pub const fn round(&self) -> Round {
        self.round
    }

    /// Message accounting so far.
    pub const fn stats(&self) -> &EngineStats {
        &self.stats
    }

    /// Installs (or clears) the message sizer: a pure function mapping a
    /// message to its encoded wire-frame size, typically
    /// `rumor_wire::frame_len::<M>`. When set, every send additionally
    /// records its byte count into [`EngineStats::bytes_sent`], so
    /// protocol comparisons can report bandwidth next to message counts.
    /// Sizing consumes no randomness and never alters behaviour.
    pub fn set_msg_sizer(&mut self, sizer: Option<fn(&M) -> usize>) {
        self.sizer = sizer;
    }

    /// Installs (or clears) the trace message classifier: a pure
    /// function mapping a message to its coarse [`MsgKind`] for
    /// send/deliver trace events. Consulted only while the tracer is
    /// enabled; classification consumes no randomness and never alters
    /// behaviour. Without one, traced messages stamp
    /// [`MsgKind::Other`].
    pub fn set_msg_kind(&mut self, kinder: Option<fn(&M) -> MsgKind>) {
        self.kinder = kinder;
    }

    /// Number of messages queued for delivery (maintained incrementally;
    /// O(1)).
    pub const fn in_flight(&self) -> usize {
        self.in_flight
    }

    /// True when no message is in flight and no timer is pending:
    /// stepping further can only trigger `on_round_start` work. O(1).
    pub fn is_quiescent(&self) -> bool {
        self.in_flight == 0 && self.timers.is_empty()
    }

    /// Queues effects produced outside the engine (e.g. the update
    /// initiator's round-0 push, paper §4.2 "Round 0"). Sends are
    /// delivered during the *next* [`SyncEngine::step`] call. Accepts any
    /// effect iterator — a literal `Vec`, or an
    /// [`EffectSink::drain`](crate::EffectSink::drain).
    pub fn inject(&mut self, from: PeerId, effects: impl IntoIterator<Item = Effect<M>>) {
        for effect in effects {
            self.apply_effect(from, effect, true);
        }
    }

    fn apply_effect(&mut self, from: PeerId, effect: Effect<M>, into_current: bool) {
        match effect {
            Effect::Send { to, msg } => {
                self.stats.record_sent(1);
                let mut frame_bytes = 0u64;
                if let Some(size_of) = self.sizer {
                    frame_bytes = size_of(&msg) as u64;
                    self.stats.record_bytes(frame_bytes);
                }
                if self.tracer.is_enabled() {
                    let kind = self
                        .kinder
                        .map_or(MsgKind::Other, |classify| classify(&msg));
                    self.tracer.record(
                        self.round.as_u32(),
                        from.as_u32(),
                        EventKind::Send {
                            to: to.as_u32(),
                            kind,
                            bytes: frame_bytes.min(u64::from(u32::MAX)) as u32,
                        },
                    );
                }
                self.sent_this_round += 1;
                let queue = if into_current {
                    &mut self.current
                } else {
                    &mut self.next
                };
                // Ids are learned from the wire, so a node may address a
                // peer outside the population: a replica that is never
                // online. The send counts, nothing is queued.
                match queue.get_mut(to.index()) {
                    Some(inbox) => {
                        inbox.push((from, msg));
                        self.in_flight += 1;
                    }
                    None => self.stats.lost_offline += 1,
                }
            }
            Effect::Timer { delay, tag } => {
                self.timers
                    .arm(self.round, delay, self.timer_barrier, (from, tag));
            }
        }
    }

    /// Drains `sink` into the engine queues, attributing every effect to
    /// `from`.
    fn apply_sink(&mut self, from: PeerId, sink: &mut EffectSink<M>, into_current: bool) {
        for effect in sink.drain() {
            self.apply_effect(from, effect, into_current);
        }
    }

    /// Executes one full round:
    ///
    /// 1. availability transitions (`on_status_change`),
    /// 2. `on_round_start` for online peers,
    /// 3. due timers (for online peers; timers owned by offline peers are
    ///    dropped — an offline replica does no protocol work),
    /// 4. delivery of last round's messages through the link `filter`,
    /// 5. queueing of all produced sends for the next round.
    pub fn step<N, F>(
        &mut self,
        nodes: &mut [N],
        online: &OnlineSet,
        filter: &F,
        rng: &mut ChaCha8Rng,
    ) where
        N: Node<Msg = M>,
        F: LinkFilter,
    {
        assert_eq!(nodes.len(), self.current.len(), "population size mismatch");
        let round = self.round;
        if self.tracer.is_enabled() {
            self.tracer
                .record(round.as_u32(), CONDUCTOR, EventKind::RoundStart);
        }
        let mut sink = std::mem::take(&mut self.sink);

        // 1. Status changes relative to the previous observation, with
        //    the snapshot updated in place (no per-round collects).
        if self.prev_online_primed {
            for (i, node) in nodes.iter_mut().enumerate() {
                let peer = PeerId::new(i as u32);
                let now_online = online.is_online(peer);
                if self.prev_online[i] != now_online {
                    self.prev_online[i] = now_online;
                    if self.tracer.is_enabled() {
                        self.tracer.record(
                            round.as_u32(),
                            peer.as_u32(),
                            EventKind::Status { online: now_online },
                        );
                    }
                    node.on_status_change(now_online, round, rng, &mut sink);
                    self.apply_sink(peer, &mut sink, false);
                }
            }
        } else {
            // The initial observation is not a transition.
            self.prev_online.clear();
            self.prev_online
                .extend((0..online.len()).map(|i| online.is_online(PeerId::new(i as u32))));
            self.prev_online_primed = true;
        }

        // 2. Round start for online peers.
        for (i, node) in nodes.iter_mut().enumerate() {
            let peer = PeerId::new(i as u32);
            if online.is_online(peer) {
                node.on_round_start(round, rng, &mut sink);
                self.apply_sink(peer, &mut sink, false);
            }
        }

        // 3. Due timers, in scheduling order. The barrier moves first,
        //    so timers queued by `on_timer` itself wait for the next
        //    round, exactly as under the historical Vec scan.
        self.timer_barrier = round.next();
        while let Some((_, (peer, tag))) = self.timers.pop_due(round) {
            if online.is_online(peer) {
                if self.tracer.is_enabled() {
                    self.tracer
                        .record(round.as_u32(), peer.as_u32(), EventKind::TimerFire { tag });
                }
                nodes[peer.index()].on_timer(tag, round, rng, &mut sink);
                self.apply_sink(peer, &mut sink, false);
            }
        }

        // 4. Deliver the current inboxes, draining each in place so its
        //    buffer is reused next round. Indexed loop: the body needs
        //    `&mut self` for `apply_sink` while the slot is swapped out.
        let mut inbox = std::mem::take(&mut self.delivery_scratch);
        #[allow(clippy::needless_range_loop)]
        for i in 0..self.current.len() {
            std::mem::swap(&mut inbox, &mut self.current[i]);
            let to = PeerId::new(i as u32);
            for (from, msg) in inbox.drain(..) {
                self.in_flight -= 1;
                if !online.is_online(to) {
                    self.stats.lost_offline += 1;
                    if self.tracer.is_enabled() {
                        self.tracer.record(
                            round.as_u32(),
                            to.as_u32(),
                            EventKind::DropOffline {
                                from: from.as_u32(),
                            },
                        );
                    }
                    continue;
                }
                if !filter.allows(from, to, round, rng) {
                    self.stats.lost_fault += 1;
                    if self.tracer.is_enabled() {
                        self.tracer.record(
                            round.as_u32(),
                            to.as_u32(),
                            EventKind::DropLoss {
                                from: from.as_u32(),
                            },
                        );
                    }
                    continue;
                }
                self.stats.delivered += 1;
                if self.tracer.is_enabled() {
                    let kind = self
                        .kinder
                        .map_or(MsgKind::Other, |classify| classify(&msg));
                    self.tracer.record(
                        round.as_u32(),
                        to.as_u32(),
                        EventKind::Deliver {
                            from: from.as_u32(),
                            kind,
                        },
                    );
                }
                nodes[i].on_message(from, msg, round, rng, &mut sink);
                self.apply_sink(to, &mut sink, false);
            }
            std::mem::swap(&mut inbox, &mut self.current[i]);
        }
        self.delivery_scratch = inbox;

        // 5. Promote next-round queue and close the round.
        std::mem::swap(&mut self.current, &mut self.next);
        self.stats.close_round(round.as_u32(), self.sent_this_round);
        if self.tracer.is_enabled() {
            self.tracer.record(
                round.as_u32(),
                CONDUCTOR,
                EventKind::RoundEnd {
                    sent: self.sent_this_round,
                },
            );
        }
        self.sent_this_round = 0;
        self.round = round.next();
        self.sink = sink;
    }

    /// Runs until quiescent or `max_rounds` is hit; returns rounds run.
    pub fn run_to_quiescence<N, F>(
        &mut self,
        nodes: &mut [N],
        online: &OnlineSet,
        filter: &F,
        rng: &mut ChaCha8Rng,
        max_rounds: u32,
    ) -> u32
    where
        N: Node<Msg = M>,
        F: LinkFilter,
    {
        let start = self.round;
        while !self.is_quiescent() && self.round - start < max_rounds {
            self.step(nodes, online, filter, rng);
        }
        self.round - start
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::{BernoulliLoss, PerfectLinks};
    use rand::SeedableRng;
    use rumor_types::Round;

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
            let _ = msg;
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

    fn rng() -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(8)
    }

    #[test]
    fn message_takes_one_round() {
        let mut nodes = vec![Forwarder::new(0, None), Forwarder::new(1, None)];
        let online = OnlineSet::all_online(2);
        let mut engine = SyncEngine::new(2);
        engine.inject(PeerId::new(0), vec![Effect::send(PeerId::new(1), 5)]);
        assert_eq!(nodes[1].received.len(), 0);
        engine.step(&mut nodes, &online, &PerfectLinks, &mut rng());
        assert_eq!(
            nodes[1].received.len(),
            1,
            "delivered at start of next round"
        );
        assert_eq!(engine.stats().sent, 1);
        assert_eq!(engine.stats().delivered, 1);
    }

    #[test]
    fn chain_forwarding_costs_one_round_per_hop() {
        // 0 -> 1 -> 2: two hops, two rounds after injection.
        let mut nodes = vec![
            Forwarder::new(0, None),
            Forwarder::new(1, Some(2)),
            Forwarder::new(2, None),
        ];
        let online = OnlineSet::all_online(3);
        let mut engine = SyncEngine::new(3);
        engine.inject(PeerId::new(0), vec![Effect::send(PeerId::new(1), 9)]);
        engine.step(&mut nodes, &online, &PerfectLinks, &mut rng());
        assert_eq!(nodes[2].received.len(), 0);
        engine.step(&mut nodes, &online, &PerfectLinks, &mut rng());
        assert_eq!(nodes[2].received.len(), 1);
        assert!(engine.is_quiescent());
    }

    #[test]
    fn offline_target_loses_message_but_counts_send() {
        let mut nodes = vec![Forwarder::new(0, None), Forwarder::new(1, None)];
        let online = OnlineSet::with_online_count(2, 1); // peer 1 offline
        let mut engine = SyncEngine::new(2);
        engine.inject(PeerId::new(0), vec![Effect::send(PeerId::new(1), 5)]);
        engine.step(&mut nodes, &online, &PerfectLinks, &mut rng());
        assert_eq!(nodes[1].received.len(), 0);
        assert_eq!(
            engine.stats().sent,
            1,
            "paper counts sends to offline peers"
        );
        assert_eq!(engine.stats().lost_offline, 1);
    }

    #[test]
    fn link_loss_is_counted_separately() {
        let mut nodes = vec![Forwarder::new(0, None), Forwarder::new(1, None)];
        let online = OnlineSet::all_online(2);
        let mut engine = SyncEngine::new(2);
        engine.inject(PeerId::new(0), vec![Effect::send(PeerId::new(1), 5)]);
        engine.step(&mut nodes, &online, &BernoulliLoss::new(1.0), &mut rng());
        assert_eq!(engine.stats().lost_fault, 1);
        assert_eq!(nodes[1].received.len(), 0);
    }

    #[test]
    fn status_changes_fire_once_per_transition() {
        let mut nodes = vec![Forwarder::new(0, None)];
        let mut online = OnlineSet::all_online(1);
        let mut engine = SyncEngine::new(1);
        engine.step(&mut nodes, &online, &PerfectLinks, &mut rng());
        assert!(
            nodes[0].status_changes.is_empty(),
            "initial state is not a transition"
        );
        online.set_online(PeerId::new(0), false);
        engine.step(&mut nodes, &online, &PerfectLinks, &mut rng());
        online.set_online(PeerId::new(0), true);
        engine.step(&mut nodes, &online, &PerfectLinks, &mut rng());
        engine.step(&mut nodes, &online, &PerfectLinks, &mut rng());
        assert_eq!(nodes[0].status_changes, vec![false, true]);
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
        let mut online = OnlineSet::all_online(3);
        let mut engine = SyncEngine::new(3);
        engine.step(&mut nodes, &online, &PerfectLinks, &mut rng());
        // Flip both (higher index first, to prove ordering comes from the
        // scan, not the mutation order).
        online.set_online(PeerId::new(2), false);
        online.set_online(PeerId::new(1), false);
        engine.step(&mut nodes, &online, &PerfectLinks, &mut rng());
        engine.step(&mut nodes, &online, &PerfectLinks, &mut rng());
        assert_eq!(
            nodes[0].received,
            vec![PeerId::new(1), PeerId::new(2)],
            "announcements delivered in node order"
        );
        // And the snapshot was updated in place: a quiet follow-up round
        // reports no further transitions.
        engine.step(&mut nodes, &online, &PerfectLinks, &mut rng());
        assert_eq!(nodes[1].status_changes, vec![false]);
        assert_eq!(nodes[2].status_changes, vec![false]);
    }

    #[test]
    fn timers_fire_for_online_peers_only() {
        let mut nodes = vec![Forwarder::new(0, None), Forwarder::new(1, None)];
        let mut online = OnlineSet::all_online(2);
        let mut engine = SyncEngine::new(2);
        engine.inject(PeerId::new(0), vec![Effect::Timer { delay: 1, tag: 7 }]);
        engine.inject(PeerId::new(1), vec![Effect::Timer { delay: 1, tag: 8 }]);
        online.set_online(PeerId::new(1), false);
        engine.step(&mut nodes, &online, &PerfectLinks, &mut rng()); // round 0
        engine.step(&mut nodes, &online, &PerfectLinks, &mut rng()); // round 1: timers due
        assert_eq!(nodes[0].timer_fired, vec![7]);
        assert!(
            nodes[1].timer_fired.is_empty(),
            "offline peer's timer dropped"
        );
        assert!(engine.is_quiescent());
    }

    #[test]
    fn timers_with_one_fire_round_pop_in_insertion_order() {
        // Three timers land on the same effective round through different
        // paths (long delay armed early, short delay armed late): the
        // heap must fire them in insertion order, matching the historical
        // Vec scan.
        let mut nodes = vec![Forwarder::new(0, None)];
        let online = OnlineSet::all_online(1);
        let mut engine = SyncEngine::new(1);
        engine.inject(PeerId::new(0), vec![Effect::Timer { delay: 2, tag: 1 }]);
        engine.inject(PeerId::new(0), vec![Effect::Timer { delay: 2, tag: 2 }]);
        engine.step(&mut nodes, &online, &PerfectLinks, &mut rng()); // round 0
        engine.inject(PeerId::new(0), vec![Effect::Timer { delay: 1, tag: 3 }]);
        engine.step(&mut nodes, &online, &PerfectLinks, &mut rng()); // round 1
        engine.step(&mut nodes, &online, &PerfectLinks, &mut rng()); // round 2: all due
        assert_eq!(nodes[0].timer_fired, vec![1, 2, 3]);
    }

    #[test]
    fn timer_delays_beyond_the_round_range_saturate_instead_of_wrapping() {
        // Regression: `delay as u32` wrapped 2^32 to 0 (fired at once)
        // and `round + u32::MAX` overflowed the round counter.
        let mut nodes = vec![Forwarder::new(0, None)];
        let online = OnlineSet::all_online(1);
        let mut engine = SyncEngine::new(1);
        engine.step(&mut nodes, &online, &PerfectLinks, &mut rng()); // round 0
        for (tag, delay) in [(1, 1u64 << 32), (2, u64::MAX)] {
            engine.inject(PeerId::new(0), vec![Effect::Timer { delay, tag }]);
        }
        for _ in 0..8 {
            engine.step(&mut nodes, &online, &PerfectLinks, &mut rng());
        }
        assert!(
            nodes[0].timer_fired.is_empty(),
            "never fires within the run"
        );
        assert!(!engine.is_quiescent(), "both timers stay armed");
    }

    #[test]
    fn zero_delay_timer_queued_by_inject_fires_next_step() {
        let mut nodes = vec![Forwarder::new(0, None)];
        let online = OnlineSet::all_online(1);
        let mut engine = SyncEngine::new(1);
        engine.inject(PeerId::new(0), vec![Effect::Timer { delay: 0, tag: 4 }]);
        assert!(!engine.is_quiescent(), "pending timer blocks quiescence");
        engine.step(&mut nodes, &online, &PerfectLinks, &mut rng());
        assert_eq!(nodes[0].timer_fired, vec![4]);
        assert!(engine.is_quiescent());
    }

    #[test]
    fn per_round_series_tracks_rounds() {
        let mut nodes = vec![Forwarder::new(0, Some(1)), Forwarder::new(1, Some(0))];
        let online = OnlineSet::all_online(2);
        let mut engine = SyncEngine::new(2);
        engine.inject(PeerId::new(0), vec![Effect::send(PeerId::new(1), 1)]);
        for _ in 0..4 {
            engine.step(&mut nodes, &online, &PerfectLinks, &mut rng());
        }
        // Ping-pong forever: one send per round.
        assert_eq!(engine.stats().per_round_sent().points().len(), 4);
        assert_eq!(engine.stats().sent, 5); // inject + 4 forwards
    }

    #[test]
    fn in_flight_counter_tracks_queue_exactly() {
        let mut nodes = vec![Forwarder::new(0, Some(1)), Forwarder::new(1, None)];
        let online = OnlineSet::all_online(2);
        let mut engine = SyncEngine::new(2);
        assert_eq!(engine.in_flight(), 0);
        engine.inject(PeerId::new(1), vec![Effect::send(PeerId::new(0), 1)]);
        engine.inject(PeerId::new(1), vec![Effect::send(PeerId::new(0), 2)]);
        assert_eq!(engine.in_flight(), 2);
        // Both deliveries forward to peer 1: two consumed, two queued.
        engine.step(&mut nodes, &online, &PerfectLinks, &mut rng());
        assert_eq!(engine.in_flight(), 2);
        engine.step(&mut nodes, &online, &PerfectLinks, &mut rng());
        assert_eq!(engine.in_flight(), 0);
        assert!(engine.is_quiescent());
    }

    #[test]
    fn msg_sizer_records_bytes_per_send() {
        let mut nodes = vec![Forwarder::new(0, Some(1)), Forwarder::new(1, None)];
        let online = OnlineSet::all_online(2);
        let mut engine = SyncEngine::new(2);
        engine.set_msg_sizer(Some(|_m: &u32| 10));
        engine.inject(PeerId::new(1), vec![Effect::send(PeerId::new(0), 1)]);
        engine.step(&mut nodes, &online, &PerfectLinks, &mut rng());
        // inject + the forward produced by delivery: 2 sends × 10 bytes.
        assert_eq!(engine.stats().sent, 2);
        assert_eq!(engine.stats().bytes_sent, 20);
        assert_eq!(engine.stats().mean_message_bytes(), 10.0);
        engine.set_msg_sizer(None);
        engine.inject(PeerId::new(1), vec![Effect::send(PeerId::new(0), 1)]);
        assert_eq!(
            engine.stats().bytes_sent,
            20,
            "cleared sizer stops accounting"
        );
    }

    #[test]
    fn traced_engine_captures_sends_and_deliveries_without_drift() {
        use rumor_obs::MemTracer;
        // Untraced reference run.
        let mut nodes = vec![Forwarder::new(0, Some(1)), Forwarder::new(1, None)];
        let online = OnlineSet::all_online(2);
        let mut plain = SyncEngine::new(2);
        plain.inject(PeerId::new(0), vec![Effect::send(PeerId::new(1), 5)]);
        plain.step(&mut nodes, &online, &PerfectLinks, &mut rng());
        let reference = plain.stats().clone();

        // Same run, traced: identical statistics, events captured.
        let mut nodes = vec![Forwarder::new(0, Some(1)), Forwarder::new(1, None)];
        let mut engine = SyncEngine::with_tracer(2, MemTracer::new());
        engine.set_msg_sizer(Some(|_m: &u32| 10));
        engine.inject(PeerId::new(0), vec![Effect::send(PeerId::new(1), 5)]);
        engine.step(&mut nodes, &online, &PerfectLinks, &mut rng());
        assert_eq!(engine.stats().sent, reference.sent);
        assert_eq!(engine.stats().delivered, reference.delivered);
        let events = engine.tracer_mut().take();
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
    fn run_to_quiescence_respects_cap() {
        let mut nodes = vec![Forwarder::new(0, Some(1)), Forwarder::new(1, Some(0))];
        let online = OnlineSet::all_online(2);
        let mut engine = SyncEngine::new(2);
        engine.inject(PeerId::new(0), vec![Effect::send(PeerId::new(1), 1)]);
        let rounds = engine.run_to_quiescence(&mut nodes, &online, &PerfectLinks, &mut rng(), 10);
        assert_eq!(rounds, 10, "ping-pong never quiesces; cap applies");
    }
}
