//! Per-node runtime state: the cell every shard ticks.
//!
//! A [`NodeCell`] wraps one sans-IO [`Node`] with everything the live
//! runtime owns per replica: its protocol and link RNG substreams, its
//! own [`TimerQueue`], and the inbox of *encoded* [`Envelope`]s. The
//! tick routine mirrors the round of `rumor_sim::Driver::step` —
//! status change, round start, due timers, delivery — with one
//! addition: every message crosses the node boundary as a `rumor-wire`
//! frame, encoded at send and strictly decoded at delivery. The timer
//! rules (saturating delay, floor, arming order) are the driver's: both
//! arm the same `rumor_net` queue, the driver one for the population, a
//! cell one for itself.

use crate::byzantine::{ByzantineState, TamperedGroup};
use bytes::Bytes;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rumor_net::{Effect, EffectSink, LinkFilter, Node, TimerQueue};
use rumor_obs::{EventKind, MemTracer, MsgKind, TraceEvent, Tracer};
use rumor_types::{PeerId, Round};
use rumor_wire::{
    decode_frame, decode_frame_v2, encode_frame, BatchEncoder, Decode, Encode, WireError,
    WireVersion,
};
use std::collections::VecDeque;

/// Extra in-flight delivery delay: each frame draws a uniform extra
/// `0..=max_extra_rounds` rounds (once, at its first eligible tick) from
/// the receiver's link stream. Zero (the default) reproduces the
/// synchronous one-round delay exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DelaySpec {
    /// Maximum extra rounds a frame may spend in flight.
    pub max_extra_rounds: u32,
}

/// An encoded frame in flight between two cluster nodes.
#[derive(Debug, Clone)]
pub(crate) struct Envelope {
    /// Sending replica.
    pub from: PeerId,
    /// First round at which the frame may be delivered (sender's round
    /// plus one network delay).
    pub deliver_from: u32,
    /// Whether the extra-delay draw already happened for this frame.
    pub delay_resolved: bool,
    /// The encoded `rumor-wire` frame.
    pub frame: Bytes,
}

/// Per-cell traffic accounting. `sent` counts frames handed to the
/// transport (the paper's overhead metric counts sends to offline peers
/// too); the consumed side splits into delivered / lost-offline /
/// lost-fault / decode-error / version-mismatch so `sent == consumed`
/// across the cluster is the quiescence check. Under wire v1 every
/// frame carries exactly one message and the `messages_*` counters move
/// in lockstep with the frame counters; under wire v2 one batch frame
/// carries a whole per-peer round group, so the two diverge and the
/// ratio is the batching win.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct CellStats {
    pub sent: u64,
    pub bytes_sent: u64,
    /// Logical protocol messages inside `sent` frames (a replayed frame
    /// is opaque and counts as one).
    pub messages_sent: u64,
    pub delivered: u64,
    pub bytes_delivered: u64,
    /// Logical messages handed to the node out of `delivered` frames.
    pub messages_delivered: u64,
    pub lost_offline: u64,
    pub lost_fault: u64,
    pub decode_errors: u64,
    /// Frames rejected for carrying a codec version this cell does not
    /// speak (a v2 batch arriving at a v1 cell, a forged version byte) —
    /// distinct from `decode_errors` so coexistence drops are visible.
    pub version_mismatches: u64,
    /// Sends this cell's Byzantine layer tampered with (lied, replayed
    /// or corrupted). Always 0 on an honest cell.
    pub tampered: u64,
}

impl CellStats {
    /// Frames this cell has consumed (delivered or dropped for any
    /// reason) — the receiving side of the in-flight balance.
    pub fn consumed(&self) -> u64 {
        self.delivered
            + self.lost_offline
            + self.lost_fault
            + self.decode_errors
            + self.version_mismatches
    }

    /// Adds `other`'s counters into `self` — shard-level aggregation in
    /// the sharded runtime, where one report sums a whole shard's cells.
    pub fn absorb(&mut self, other: &CellStats) {
        self.sent += other.sent;
        self.bytes_sent += other.bytes_sent;
        self.messages_sent += other.messages_sent;
        self.delivered += other.delivered;
        self.bytes_delivered += other.bytes_delivered;
        self.messages_delivered += other.messages_delivered;
        self.lost_offline += other.lost_offline;
        self.lost_fault += other.lost_fault;
        self.decode_errors += other.decode_errors;
        self.version_mismatches += other.version_mismatches;
        self.tampered += other.tampered;
    }
}

/// One replica mounted in the live runtime.
pub(crate) struct NodeCell<N: Node> {
    pub id: PeerId,
    pub node: N,
    rng: ChaCha8Rng,
    link_rng: ChaCha8Rng,
    prev_online: bool,
    primed: bool,
    timers: TimerQueue<u64>,
    pub inbox: VecDeque<Envelope>,
    sink: EffectSink<N::Msg>,
    pub stats: CellStats,
    delay: DelaySpec,
    byz: Option<ByzantineState<N::Msg>>,
    wire: WireVersion,
    /// Cells in the cluster: a frame addressed beyond them has no inbox
    /// to reach (see [`Self::emit`]).
    population: usize,
    /// Wire-v2 send staging: `(target, message)` pairs accumulated over
    /// one tick, flushed per peer as (batch) frames at the tick's end
    /// (a flushed message leaves `None` behind until the buffer is
    /// cleared). Kept, like `group_scratch`, across ticks: a steady-state
    /// flush allocates nothing.
    outbox: Vec<(PeerId, Option<N::Msg>)>,
    /// The one per-peer group being emitted by [`Self::flush_outbox`].
    group_scratch: Vec<N::Msg>,
    decode_scratch: Vec<N::Msg>,
    retained_scratch: Vec<Envelope>,
    /// Per-cell trace capture; `None` (the default) costs one untaken
    /// branch per event site. Events never leave the cell until the
    /// run finishes, so tracing adds no cross-thread traffic.
    tracer: Option<MemTracer>,
    /// Message classifier stamped on send/deliver trace events.
    kinder: Option<fn(&N::Msg) -> MsgKind>,
}

impl<N: Node> NodeCell<N>
where
    N::Msg: Encode + Decode,
{
    /// Wraps `node` with fresh RNG substreams and empty queues.
    pub fn new(id: PeerId, node: N, node_seed: u64, link_seed: u64, delay: DelaySpec) -> Self {
        Self {
            id,
            node,
            rng: ChaCha8Rng::seed_from_u64(node_seed),
            link_rng: ChaCha8Rng::seed_from_u64(link_seed),
            prev_online: false,
            primed: false,
            timers: TimerQueue::default(),
            inbox: VecDeque::new(),
            sink: EffectSink::new(),
            stats: CellStats::default(),
            delay,
            byz: None,
            wire: WireVersion::V1,
            population: usize::MAX,
            outbox: Vec::new(),
            group_scratch: Vec::new(),
            decode_scratch: Vec::new(),
            retained_scratch: Vec::new(),
            tracer: None,
            kinder: None,
        }
    }

    /// Enables trace capture on this cell with `kinder` classifying
    /// message kinds (None stamps [`MsgKind::Other`]). Capture consumes
    /// no randomness: a traced run is bit-identical to an untraced one.
    pub fn enable_trace(&mut self, kinder: Option<fn(&N::Msg) -> MsgKind>) {
        self.tracer = Some(MemTracer::new());
        self.kinder = kinder;
    }

    /// Drains the cell's captured events (empty when tracing is off).
    pub fn take_trace(&mut self) -> Vec<TraceEvent> {
        self.tracer.as_mut().map_or_else(Vec::new, MemTracer::take)
    }

    /// Mounts adversarial behaviour on this cell: from now on every
    /// outgoing message passes through the Byzantine tamper layer.
    pub fn set_byzantine(&mut self, state: ByzantineState<N::Msg>) {
        self.byz = Some(state);
    }

    /// Selects the wire codec version this cell speaks. V1 — the
    /// default — frames one message per frame; V2 coalesces each tick's
    /// per-peer traffic into batch frames and decodes both versions.
    pub fn set_wire(&mut self, wire: WireVersion) {
        self.wire = wire;
    }

    /// Tells the cell how many cells the cluster mounts (ids
    /// `0..population`). A lone cell routes every address.
    pub fn set_population(&mut self, population: usize) {
        self.population = population;
    }

    /// Frames queued (not yet delivered or dropped).
    pub fn pending_frames(&self) -> usize {
        self.inbox.len()
    }

    /// Timers armed and not yet fired or dropped.
    pub fn pending_timers(&self) -> usize {
        self.timers.len()
    }

    /// Records one trace event for this cell (no-op when tracing is off).
    fn trace(&mut self, round: u32, kind: EventKind) {
        if let Some(t) = self.tracer.as_mut() {
            t.record(round, self.id.as_u32(), kind);
        }
    }

    /// Dispatches the sink's effects. A send becomes an envelope
    /// deliverable from `deliver_from` — emitted on the spot as a group
    /// of one under wire v1, staged for the end-of-tick per-peer flush
    /// under v2; a timer of delay `d` requested at round `now` fires at
    /// `now + d`, floored at `deliver_from` too (the next tick that could
    /// observe it, preserving the driver's barrier semantics).
    fn drain_effects(
        &mut self,
        now: u32,
        deliver_from: u32,
        dispatch: &mut dyn FnMut(PeerId, Envelope),
    ) {
        let mut sink = std::mem::take(&mut self.sink);
        for effect in sink.drain() {
            match effect {
                Effect::Send { to, msg } if self.wire == WireVersion::V2 => {
                    self.outbox.push((to, Some(msg)));
                }
                Effect::Send { to, mut msg } => {
                    self.emit(
                        to,
                        std::slice::from_mut(&mut msg),
                        now,
                        deliver_from,
                        dispatch,
                    );
                }
                Effect::Timer { delay, tag } => {
                    let floor = Round::new(deliver_from);
                    self.timers.arm(Round::new(now), delay, floor, tag);
                }
            }
        }
        self.sink = sink;
    }

    /// Flushes the wire-v2 outbox: staged sends are grouped per target
    /// peer (first-send order; a linear scan, not a hash, so iteration
    /// stays deterministic) and each group leaves through
    /// [`Self::emit`]. No-op under wire v1, whose sends never stage.
    fn flush_outbox(
        &mut self,
        now: u32,
        deliver_from: u32,
        dispatch: &mut dyn FnMut(PeerId, Envelope),
    ) {
        if self.outbox.is_empty() {
            return;
        }
        let mut staged = std::mem::take(&mut self.outbox);
        let mut group = std::mem::take(&mut self.group_scratch);
        for first in 0..staged.len() {
            // A target's whole group left with its first send.
            if staged[first].1.is_none() {
                continue;
            }
            let to = staged[first].0;
            group.extend(
                staged[first..]
                    .iter_mut()
                    .filter(|(peer, _)| *peer == to)
                    .filter_map(|(_, msg)| msg.take()),
            );
            self.emit(to, &mut group, now, deliver_from, dispatch);
            group.clear();
        }
        staged.clear();
        self.outbox = staged;
        self.group_scratch = group;
    }

    /// The one send site: puts the group `msgs` bound for `to` on the
    /// wire as a single frame (see [`encode_group`]). Wire v1 is the
    /// group of one. The Byzantine layer tampers per *frame*, and a
    /// stale-replay turn adds a second, remembered frame to the same
    /// target.
    ///
    /// Nodes learn ids from the wire, so `to` may lie outside the
    /// population: a replica that is never online. Its frame is counted
    /// and traced as sent like any other, then lost-to-offline here at
    /// the sender instead of dispatched, which keeps `sent == consumed`
    /// closing.
    fn emit(
        &mut self,
        to: PeerId,
        msgs: &mut [N::Msg],
        now: u32,
        deliver_from: u32,
        dispatch: &mut dyn FnMut(PeerId, Envelope),
    ) {
        // A lone message keeps its kind; a batch frame is stamped
        // `Other` (it carries many kinds at once).
        let kind = match (&self.tracer, self.kinder, &*msgs) {
            (Some(_), Some(k), [single]) => k(single),
            _ => MsgKind::Other,
        };
        let group = match self.byz.as_mut() {
            None => TamperedGroup {
                frame: encode_group(msgs),
                replay: None,
                tampered: false,
            },
            Some(byz) => byz.tamper_group(msgs, encode_group),
        };
        if group.tampered {
            self.stats.tampered += 1;
            self.trace(now, EventKind::Tamper);
        }
        // A replayed frame's content is opaque: one frame, counted as
        // one logical message of kind `Other`.
        let fresh = (group.frame, kind, msgs.len() as u64);
        let stale = group.replay.map(|frame| (frame, MsgKind::Other, 1));
        for (frame, kind, messages) in std::iter::once(fresh).chain(stale) {
            self.stats.sent += 1;
            self.stats.messages_sent += messages;
            self.stats.bytes_sent += frame.len() as u64;
            self.trace(
                now,
                EventKind::Send {
                    to: to.as_u32(),
                    kind,
                    bytes: frame.len() as u32,
                },
            );
            if to.index() >= self.population {
                self.stats.lost_offline += 1;
                continue;
            }
            dispatch(
                to,
                Envelope {
                    from: self.id,
                    deliver_from,
                    delay_resolved: false,
                    frame,
                },
            );
        }
    }

    /// Runs `f` against the node outside a tick (update initiation): its
    /// sends become deliverable at the *next* tick (`round`), mirroring
    /// `rumor_sim::Driver::apply` before a step.
    pub fn initiate<T>(
        &mut self,
        round: u32,
        f: impl FnOnce(&mut N, &mut ChaCha8Rng, &mut EffectSink<N::Msg>) -> T,
        dispatch: &mut dyn FnMut(PeerId, Envelope),
    ) -> T {
        let out = f(&mut self.node, &mut self.rng, &mut self.sink);
        self.drain_effects(round, round, dispatch);
        self.flush_outbox(round, round, dispatch);
        out
    }

    /// Executes one tick of round `round` with availability `online`:
    /// status change, round start, due timers, then delivery of eligible
    /// inbox frames ([`Self::deliver`]). Sends produced during the tick
    /// are deliverable from `round + 1`.
    ///
    /// A crashed node simply misses its ticks; frames that came
    /// deliverable during the gap (`deliver_from < round`) are dropped as
    /// lost-to-offline on the next tick, and timers that came due during
    /// the gap are dropped — exactly the driver's offline semantics.
    pub fn tick(
        &mut self,
        round: u32,
        online: bool,
        filter: &dyn LinkFilter,
        dispatch: &mut dyn FnMut(PeerId, Envelope),
    ) {
        let r = Round::new(round);
        // 1. Availability transition (the first observation is not one).
        if self.primed {
            if self.prev_online != online {
                self.prev_online = online;
                self.node
                    .on_status_change(online, r, &mut self.rng, &mut self.sink);
                self.drain_effects(round, round + 1, dispatch);
            }
        } else {
            self.primed = true;
            self.prev_online = online;
        }

        // 2. Round start while online.
        if online {
            self.node.on_round_start(r, &mut self.rng, &mut self.sink);
            self.drain_effects(round, round + 1, dispatch);
        }

        // 3. Due timers, in arming order. Timers due exactly this round
        //    fire if the node is online; earlier fire rounds can only
        //    mean the node was crashed when they came due — dropped, as
        //    the driver drops offline peers' due timers. A timer armed
        //    by `on_timer` is floored past this round, so it waits.
        while let Some((fire, tag)) = self.timers.pop_due(r) {
            if online && fire == r {
                self.trace(round, EventKind::TimerFire { tag });
                self.node.on_timer(tag, r, &mut self.rng, &mut self.sink);
                self.drain_effects(round, round + 1, dispatch);
            }
        }

        // 4. Delivery of eligible frames, in arrival order.
        let mut retained = std::mem::take(&mut self.retained_scratch);
        retained.clear();
        while let Some(mut env) = self.inbox.pop_front() {
            if env.deliver_from > round {
                retained.push(env);
                continue;
            }
            // A frame older than this round became deliverable during a
            // crash gap. Checked before the delay draw so a gap frame is
            // never resurrected into a later round by the delay model.
            let stale = env.deliver_from < round;
            if !stale && !env.delay_resolved {
                env.delay_resolved = true;
                if self.delay.max_extra_rounds > 0 {
                    let extra = self.link_rng.gen_range(0..self.delay.max_extra_rounds + 1);
                    if extra > 0 {
                        env.deliver_from = round + extra;
                        retained.push(env);
                        continue;
                    }
                }
            }
            if stale || !online {
                self.stats.lost_offline += 1;
                let from = env.from.as_u32();
                self.trace(round, EventKind::DropOffline { from });
                continue;
            }
            self.deliver(&env, round, filter, dispatch);
        }
        self.inbox.extend(retained.drain(..));
        self.retained_scratch = retained;
        self.flush_outbox(round, round + 1, dispatch);
    }

    /// The one delivery site: decodes a frame that reached this online
    /// cell in its round and hands every message the link filter lets
    /// through to the node. The wire version only picks the decoder and
    /// where the filter draws: v1 draws once per frame *before*
    /// decoding; v2 decodes the whole frame first — a corrupted batch
    /// drops whole and counts once — then draws once per logical message
    /// in send order, mirroring v1's one draw per single-message frame
    /// so zero-delay link-RNG trajectories stay aligned.
    fn deliver(
        &mut self,
        env: &Envelope,
        round: u32,
        filter: &dyn LinkFilter,
        dispatch: &mut dyn FnMut(PeerId, Envelope),
    ) {
        let r = Round::new(round);
        let draw_per_frame = self.wire == WireVersion::V1;
        if draw_per_frame && !filter.allows(env.from, self.id, r, &mut self.link_rng) {
            self.lose(round, env.from);
            return;
        }
        let mut msgs = std::mem::take(&mut self.decode_scratch);
        msgs.clear();
        let decoded = if draw_per_frame {
            decode_frame(&env.frame).map(|msg| msgs.push(msg))
        } else {
            decode_frame_v2(&env.frame, &mut msgs)
        };
        match decoded {
            Err(WireError::BadVersion { .. }) => self.stats.version_mismatches += 1,
            Err(_) => self.stats.decode_errors += 1,
            Ok(()) => {
                if let Some(byz) = self.byz.as_mut() {
                    if byz.replays() {
                        byz.remember(&env.frame);
                    }
                }
                let mut survivors = 0u64;
                for msg in msgs.drain(..) {
                    if !draw_per_frame && !filter.allows(env.from, self.id, r, &mut self.link_rng) {
                        continue;
                    }
                    survivors += 1;
                    if self.tracer.is_some() {
                        let from = env.from.as_u32();
                        let kind = self.kinder.map_or(MsgKind::Other, |k| k(&msg));
                        self.trace(round, EventKind::Deliver { from, kind });
                    }
                    self.node
                        .on_message(env.from, msg, r, &mut self.rng, &mut self.sink);
                    self.drain_effects(round, round + 1, dispatch);
                }
                self.stats.messages_delivered += survivors;
                if survivors > 0 {
                    self.stats.delivered += 1;
                    self.stats.bytes_delivered += env.frame.len() as u64;
                } else {
                    self.lose(round, env.from);
                }
            }
        }
        self.decode_scratch = msgs;
    }

    /// Counts a frame the link filter dropped.
    fn lose(&mut self, round: u32, from: PeerId) {
        self.stats.lost_fault += 1;
        let from = from.as_u32();
        self.trace(round, EventKind::DropLoss { from });
    }
}

/// Encodes one per-peer send group: a lone message leaves as a plain
/// frame (v1 or v2 header according to its kind), two or more as one
/// wire-v2 batch frame.
fn encode_group<M: Encode>(msgs: &[M]) -> Bytes {
    match msgs {
        [single] => encode_frame(single),
        _ => {
            let mut batch = BatchEncoder::new();
            for msg in msgs {
                batch.push(msg);
            }
            batch.finish()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::{BufMut, BytesMut};
    use rumor_net::PerfectLinks;
    use rumor_wire::{Reader, WireError};

    /// Echo node: replies `msg + 1` to the sender, records timers.
    struct Echo {
        id: PeerId,
        received: Vec<(PeerId, u32)>,
        timers: Vec<u64>,
        statuses: Vec<bool>,
    }

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    struct Num(u32);

    impl Encode for Num {
        fn kind(&self) -> u8 {
            1
        }
        fn payload_len(&self) -> usize {
            4
        }
        fn encode_payload(&self, buf: &mut BytesMut) {
            buf.put_u32(self.0);
        }
    }

    impl Decode for Num {
        fn decode_payload(kind: u8, payload: &[u8]) -> Result<Self, WireError> {
            if kind != 1 {
                return Err(WireError::UnknownKind { kind });
            }
            let mut r = Reader::new(payload);
            let n = Num(r.u32()?);
            r.finish()?;
            Ok(n)
        }
    }

    impl Node for Echo {
        type Msg = Num;
        fn id(&self) -> PeerId {
            self.id
        }
        fn on_message(
            &mut self,
            from: PeerId,
            msg: Num,
            _round: Round,
            _rng: &mut ChaCha8Rng,
            out: &mut EffectSink<Num>,
        ) {
            self.received.push((from, msg.0));
            if msg.0 > 0 {
                out.send(from, Num(msg.0 - 1));
            }
        }
        fn on_timer(
            &mut self,
            tag: u64,
            _round: Round,
            _rng: &mut ChaCha8Rng,
            _out: &mut EffectSink<Num>,
        ) {
            self.timers.push(tag);
        }
        fn on_status_change(
            &mut self,
            online: bool,
            _round: Round,
            _rng: &mut ChaCha8Rng,
            _out: &mut EffectSink<Num>,
        ) {
            self.statuses.push(online);
        }
    }

    fn cell(id: u32) -> NodeCell<Echo> {
        NodeCell::new(
            PeerId::new(id),
            Echo {
                id: PeerId::new(id),
                received: Vec::new(),
                timers: Vec::new(),
                statuses: Vec::new(),
            },
            id as u64 + 1,
            id as u64 + 100,
            DelaySpec::default(),
        )
    }

    fn envelope(from: u32, deliver_from: u32, value: u32) -> Envelope {
        Envelope {
            from: PeerId::new(from),
            deliver_from,
            delay_resolved: false,
            frame: encode_frame(&Num(value)),
        }
    }

    #[test]
    fn delivery_round_trips_through_the_codec() {
        let mut c = cell(0);
        c.inbox.push_back(envelope(7, 1, 5));
        let mut out = Vec::new();
        c.tick(1, true, &PerfectLinks, &mut |to, env| out.push((to, env)));
        assert_eq!(c.node.received, vec![(PeerId::new(7), 5)]);
        assert_eq!(c.stats.delivered, 1);
        assert_eq!(c.stats.decode_errors, 0);
        // The reply was re-encoded for the wire.
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, PeerId::new(7));
        assert_eq!(out[0].1.deliver_from, 2);
        assert_eq!(decode_frame::<Num>(&out[0].1.frame).unwrap(), Num(4));
        assert_eq!(c.stats.sent, 1);
        assert_eq!(c.stats.bytes_sent, out[0].1.frame.len() as u64);
    }

    #[test]
    fn early_frames_wait_for_their_round() {
        let mut c = cell(0);
        c.inbox.push_back(envelope(1, 3, 0));
        let mut drop_dispatch = |_: PeerId, _: Envelope| {};
        c.tick(2, true, &PerfectLinks, &mut drop_dispatch);
        assert!(c.node.received.is_empty());
        assert_eq!(c.pending_frames(), 1);
        c.tick(3, true, &PerfectLinks, &mut drop_dispatch);
        assert_eq!(c.node.received.len(), 1);
    }

    #[test]
    fn offline_target_loses_frames_and_due_timers() {
        let mut c = cell(0);
        c.inbox.push_back(envelope(1, 1, 0));
        let mut drop_dispatch = |_: PeerId, _: Envelope| {};
        // Arm a timer at round 0 (fires round 1 at the earliest).
        c.initiate(0, |_node, _rng, sink| sink.timer(1, 42), &mut drop_dispatch);
        c.tick(0, true, &PerfectLinks, &mut drop_dispatch);
        c.tick(1, false, &PerfectLinks, &mut drop_dispatch);
        assert_eq!(c.stats.lost_offline, 1);
        assert!(c.node.timers.is_empty(), "offline due timer dropped");
        assert_eq!(c.pending_timers(), 0);
    }

    #[test]
    fn timer_delays_beyond_the_round_range_saturate_instead_of_wrapping() {
        // Regression: `delay as u32` wrapped 2^32 to 0, firing at once.
        let mut c = cell(0);
        let mut drop_dispatch = |_: PeerId, _: Envelope| {};
        for (tag, delay) in [(1, 1u64 << 32), (2, u64::MAX)] {
            c.initiate(
                0,
                |_node, _rng, sink| sink.timer(delay, tag),
                &mut drop_dispatch,
            );
        }
        for round in 0..8 {
            c.tick(round, true, &PerfectLinks, &mut drop_dispatch);
        }
        assert!(c.node.timers.is_empty(), "never fires within the run");
        assert_eq!(c.pending_timers(), 2, "both timers stay armed");
    }

    #[test]
    fn stale_frames_after_a_crash_gap_count_as_offline_losses() {
        let mut c = cell(0);
        let mut drop_dispatch = |_: PeerId, _: Envelope| {};
        c.tick(0, true, &PerfectLinks, &mut drop_dispatch);
        // Rounds 1-2 the node is "crashed" (no ticks); a frame became
        // deliverable at round 1.
        c.inbox.push_back(envelope(1, 1, 0));
        // Frame deliverable exactly at the restart round is delivered.
        c.inbox.push_back(envelope(1, 3, 9));
        c.tick(3, true, &PerfectLinks, &mut drop_dispatch);
        assert_eq!(c.stats.lost_offline, 1);
        assert_eq!(c.node.received, vec![(PeerId::new(1), 9)]);
    }

    #[test]
    fn corrupt_frames_are_counted_not_panicked() {
        let mut c = cell(0);
        // Valid v1 header, unknown kind: a decode error proper.
        let mut env = envelope(1, 1, 0);
        env.frame = Bytes::copy_from_slice(&[1, 0xEE, 0, 0, 0, 0]);
        c.inbox.push_back(env);
        // Foreign version byte: counted as a version mismatch instead.
        let mut env = envelope(1, 1, 0);
        env.frame = Bytes::copy_from_slice(&[0xFF, 0, 0, 0, 0, 0]);
        c.inbox.push_back(env);
        c.tick(1, true, &PerfectLinks, &mut |_, _| {});
        assert_eq!(c.stats.decode_errors, 1);
        assert_eq!(c.stats.version_mismatches, 1);
        assert_eq!(c.stats.delivered, 0);
        assert_eq!(c.stats.consumed(), 2);
    }

    #[test]
    fn status_transitions_fire_once() {
        let mut c = cell(0);
        let mut drop_dispatch = |_: PeerId, _: Envelope| {};
        c.tick(0, true, &PerfectLinks, &mut drop_dispatch);
        assert!(c.node.statuses.is_empty(), "priming is not a transition");
        c.tick(1, false, &PerfectLinks, &mut drop_dispatch);
        c.tick(2, false, &PerfectLinks, &mut drop_dispatch);
        c.tick(3, true, &PerfectLinks, &mut drop_dispatch);
        assert_eq!(c.node.statuses, vec![false, true]);
    }

    #[test]
    fn crash_gap_frames_are_not_resurrected_by_the_delay_model() {
        // Regression: the stale-gap drop must run before the extra-delay
        // draw, otherwise a frame that became deliverable while the node
        // was crashed could be postponed into a live round and delivered.
        let mut c = NodeCell::new(
            PeerId::new(0),
            Echo {
                id: PeerId::new(0),
                received: Vec::new(),
                timers: Vec::new(),
                statuses: Vec::new(),
            },
            1,
            2,
            DelaySpec {
                max_extra_rounds: 3,
            },
        );
        let mut drop_dispatch = |_: PeerId, _: Envelope| {};
        c.tick(0, true, &PerfectLinks, &mut drop_dispatch);
        // Rounds 1-4: crashed (no ticks). Frames became deliverable at
        // rounds 1 and 3.
        c.inbox.push_back(envelope(1, 1, 0));
        c.inbox.push_back(envelope(1, 3, 1));
        for round in 5..12 {
            c.tick(round, true, &PerfectLinks, &mut drop_dispatch);
        }
        assert_eq!(c.stats.lost_offline, 2, "both gap frames dropped");
        assert!(c.node.received.is_empty(), "gap frames must never deliver");
    }

    #[test]
    fn extra_delay_postpones_but_never_loses() {
        let mut c = NodeCell::new(
            PeerId::new(0),
            Echo {
                id: PeerId::new(0),
                received: Vec::new(),
                timers: Vec::new(),
                statuses: Vec::new(),
            },
            1,
            2,
            DelaySpec {
                max_extra_rounds: 3,
            },
        );
        let mut drop_dispatch = |_: PeerId, _: Envelope| {};
        for i in 0..8 {
            c.inbox.push_back(envelope(1, 1, i));
        }
        for round in 0..8 {
            c.tick(round, true, &PerfectLinks, &mut drop_dispatch);
        }
        assert_eq!(c.stats.delivered, 8, "every frame eventually arrives");
    }

    #[test]
    fn every_corruption_class_counts_a_decode_error_and_the_cell_survives() {
        use rumor_wire::{garbage_frame, FrameCorruption};
        let clean = encode_frame(&Num(5));
        // Payload/kind/length damage stays a decode error; version-byte
        // damage (bump, flip at 0, garbage) is a version mismatch.
        let decode_bad: Vec<Bytes> = vec![
            FrameCorruption::Truncate { keep: 3 }.apply(&clean),
            FrameCorruption::ForgeKind { kind: 0xEE }.apply(&clean),
            FrameCorruption::InflateLength { extra: 9 }.apply(&clean),
        ];
        let version_bad: Vec<Bytes> = vec![
            FrameCorruption::BumpVersion.apply(&clean),
            FrameCorruption::FlipByte { index: 0 }.apply(&clean),
            garbage_frame(16, 0xAB),
        ];
        let (decode_total, version_total) = (decode_bad.len() as u64, version_bad.len() as u64);
        let mut c = cell(0);
        for frame in decode_bad.into_iter().chain(version_bad) {
            c.inbox.push_back(Envelope {
                from: PeerId::new(1),
                deliver_from: 1,
                delay_resolved: false,
                frame,
            });
        }
        c.inbox.push_back(envelope(1, 1, 9));
        c.tick(1, true, &PerfectLinks, &mut |_, _| {});
        assert_eq!(
            c.stats.decode_errors, decode_total,
            "each bad frame is counted"
        );
        assert_eq!(
            c.stats.version_mismatches, version_total,
            "version damage is counted apart"
        );
        assert_eq!(c.stats.delivered, 1, "the clean frame still delivers");
        assert_eq!(c.node.received, vec![(PeerId::new(1), 9)]);
        assert_eq!(
            c.stats.consumed(),
            decode_total + version_total + 1,
            "rejects balance the in-flight ledger"
        );
    }

    use crate::byzantine::{ByzantineBehaviour, ByzantineState};

    const BOTH_WIRES: [WireVersion; 2] = [WireVersion::V1, WireVersion::V2];

    /// A Byzantine echo cell speaking `wire`: a lone send is a group of
    /// one on both versions, so each behaviour has one expectation.
    fn byzantine_cell(
        wire: WireVersion,
        behaviour: ByzantineBehaviour,
        seed: u64,
        liar: Option<rumor_sim::MsgTamper<Num>>,
    ) -> NodeCell<Echo> {
        let mut c = cell(0);
        c.set_wire(wire);
        c.set_byzantine(ByzantineState::new(behaviour, seed, liar));
        c
    }

    #[test]
    fn digest_liar_rewrites_outgoing_messages() {
        let liar: rumor_sim::MsgTamper<Num> = |msg| match msg {
            Num(0) => None,
            Num(_) => Some(Num(0)),
        };
        for wire in BOTH_WIRES {
            let mut c = byzantine_cell(wire, ByzantineBehaviour::DigestLie, 9, Some(liar));
            let mut out = Vec::new();
            c.initiate(
                0,
                |_node, _rng, sink| sink.send(PeerId::new(1), Num(7)),
                &mut |to, env| out.push((to, env)),
            );
            assert_eq!(out.len(), 1, "{wire:?}");
            assert_eq!(decode_frame::<Num>(&out[0].1.frame).unwrap(), Num(0));
            assert_eq!(c.stats.tampered, 1, "{wire:?}");
        }
    }

    #[test]
    fn corrupt_frames_member_emits_undecodable_frames() {
        for wire in BOTH_WIRES {
            let mut c = byzantine_cell(wire, ByzantineBehaviour::CorruptFrames, 5, None);
            let mut out = Vec::new();
            c.initiate(
                0,
                |_node, _rng, sink| sink.send(PeerId::new(1), Num(3)),
                &mut |to, env| out.push((to, env)),
            );
            assert_eq!(out.len(), 1, "{wire:?}");
            assert!(decode_frame::<Num>(&out[0].1.frame).is_err(), "{wire:?}");
            assert_eq!(c.stats.tampered, 1);
            assert_eq!(c.stats.sent, 1);
            assert_eq!(c.stats.bytes_sent, out[0].1.frame.len() as u64);
        }
    }

    #[test]
    fn stale_replay_member_reinjects_remembered_frames() {
        for wire in BOTH_WIRES {
            let mut c = byzantine_cell(wire, ByzantineBehaviour::StaleReplay, 11, None);
            let mut out = Vec::new();
            c.initiate(
                0,
                |_node, _rng, sink| sink.send(PeerId::new(1), Num(1)),
                &mut |to, env| out.push((to, env)),
            );
            assert_eq!(out.len(), 1, "{wire:?}: nothing to replay yet");
            assert_eq!(c.stats.tampered, 0);
            c.initiate(
                1,
                |_node, _rng, sink| sink.send(PeerId::new(2), Num(2)),
                &mut |to, env| out.push((to, env)),
            );
            assert_eq!(out.len(), 3, "{wire:?}: second send carries a stale replay");
            assert_eq!(c.stats.tampered, 1);
            assert_eq!(c.stats.sent, 3, "replays count as sends");
            assert_eq!(c.stats.messages_sent, 3, "a replay is one opaque message");
            let replayed = decode_frame::<Num>(&out[2].1.frame).unwrap();
            assert!(
                replayed == Num(1) || replayed == Num(2),
                "replay is a real old frame"
            );
        }
    }

    #[test]
    fn replaying_member_remembers_delivered_frames_too() {
        for wire in BOTH_WIRES {
            let mut c = byzantine_cell(wire, ByzantineBehaviour::StaleReplay, 13, None);
            c.inbox.push_back(envelope(1, 1, 0));
            c.tick(1, true, &PerfectLinks, &mut |_, _| {});
            assert_eq!(c.stats.delivered, 1, "{wire:?}");
            let mut out = Vec::new();
            c.initiate(
                1,
                |_node, _rng, sink| sink.send(PeerId::new(2), Num(4)),
                &mut |to, env| out.push((to, env)),
            );
            assert_eq!(
                out.len(),
                2,
                "{wire:?}: first send already has ammunition to replay"
            );
            assert_eq!(c.stats.tampered, 1);
        }
    }

    /// Link filter answering `allow` after one draw from the link stream.
    struct DrawThen {
        allow: bool,
    }

    impl LinkFilter for DrawThen {
        fn allows(&self, _: PeerId, _: PeerId, _: Round, rng: &mut ChaCha8Rng) -> bool {
            let _ = rng.gen::<u32>();
            self.allow
        }
    }

    #[test]
    fn an_undecodable_frame_costs_one_link_draw_under_v1_and_none_under_v2() {
        // The one ordering the shared delivery path must keep: v1 draws
        // the link filter per frame *before* decoding, v2 per decoded
        // message — so garbage burns a draw (and can be lost to the
        // link) only under v1.
        // (wire, filter allows, draws, lost_fault, decode_errors)
        let table = [
            (WireVersion::V1, false, 1, 1, 0),
            (WireVersion::V1, true, 1, 0, 1),
            (WireVersion::V2, false, 0, 0, 1),
            (WireVersion::V2, true, 0, 0, 1),
        ];
        for (wire, allow, draws, lost_fault, decode_errors) in table {
            let mut c = cell(0);
            c.set_wire(wire);
            let mut env = envelope(1, 1, 0);
            // Valid v1 header, unknown kind.
            env.frame = Bytes::copy_from_slice(&[1, 0xEE, 0, 0, 0, 0]);
            c.inbox.push_back(env);
            c.tick(1, true, &DrawThen { allow }, &mut |_, _| {});
            let case = format!("{wire:?}, filter allows = {allow}");
            assert_eq!(c.stats.lost_fault, lost_fault, "{case}");
            assert_eq!(c.stats.decode_errors, decode_errors, "{case}");
            assert_eq!(c.stats.consumed(), 1, "{case}");
            let mut expected = ChaCha8Rng::seed_from_u64(100);
            for _ in 0..draws {
                let _ = expected.gen::<u32>();
            }
            assert_eq!(
                c.link_rng.gen::<u64>(),
                expected.gen::<u64>(),
                "{case}: link stream position"
            );
        }
    }

    /// Fan-out node: on round start, sends `copies` messages to peer 1
    /// and — after the first of them — one to peer 2 (exercising per-peer
    /// grouping of interleaved sends).
    struct FanOut {
        id: PeerId,
        copies: u32,
        received: Vec<(PeerId, u32)>,
    }

    impl Node for FanOut {
        type Msg = Num;
        fn id(&self) -> PeerId {
            self.id
        }
        fn on_message(
            &mut self,
            from: PeerId,
            msg: Num,
            _round: Round,
            _rng: &mut ChaCha8Rng,
            _out: &mut EffectSink<Num>,
        ) {
            self.received.push((from, msg.0));
        }
        fn on_round_start(
            &mut self,
            _round: Round,
            _rng: &mut ChaCha8Rng,
            out: &mut EffectSink<Num>,
        ) {
            let mut copies = 0..self.copies;
            if let Some(n) = copies.next() {
                out.send(PeerId::new(1), Num(n));
            }
            out.send(PeerId::new(2), Num(99));
            for n in copies {
                out.send(PeerId::new(1), Num(n));
            }
        }
    }

    fn v2_fanout_cell(copies: u32) -> NodeCell<FanOut> {
        let mut c = NodeCell::new(
            PeerId::new(0),
            FanOut {
                id: PeerId::new(0),
                copies,
                received: Vec::new(),
            },
            1,
            2,
            DelaySpec::default(),
        );
        c.set_wire(WireVersion::V2);
        c
    }

    #[test]
    fn v2_cell_coalesces_per_peer_sends_into_batch_frames() {
        let mut c = v2_fanout_cell(16);
        let mut out = Vec::new();
        c.tick(0, true, &PerfectLinks, &mut |to, env| out.push((to, env)));
        // Two frames left: one batch of 16 for peer 1, one plain frame
        // for peer 2 — instead of wire v1's seventeen frames.
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].0, PeerId::new(1));
        assert_eq!(out[1].0, PeerId::new(2));
        assert_eq!(c.stats.sent, 2);
        assert_eq!(c.stats.messages_sent, 17);
        let mut batch: Vec<Num> = Vec::new();
        decode_frame_v2(&out[0].1.frame, &mut batch).expect("batch decodes");
        assert_eq!(batch, (0..16).map(Num).collect::<Vec<_>>());
        // The singleton went out as a plain decodable v1 frame.
        assert_eq!(decode_frame::<Num>(&out[1].1.frame).unwrap(), Num(99));
        // Header amortisation: the batch undercuts sixteen lone frames.
        assert!(out[0].1.frame.len() < 16 * encode_frame(&Num(0)).len());
        // The next tick frames the same bytes out of the same two staging
        // buffers: a steady-state flush allocates nothing.
        let capacities = (c.outbox.capacity(), c.group_scratch.capacity());
        let mut again = Vec::new();
        c.tick(1, true, &PerfectLinks, &mut |to, env| again.push((to, env)));
        let frames = |sent: &[(PeerId, Envelope)]| -> Vec<(PeerId, Bytes)> {
            sent.iter()
                .map(|(to, env)| (*to, env.frame.clone()))
                .collect()
        };
        assert_eq!(frames(&again), frames(&out));
        assert!(c.outbox.is_empty() && c.group_scratch.is_empty());
        assert_eq!(
            (c.outbox.capacity(), c.group_scratch.capacity()),
            capacities
        );
    }

    #[test]
    fn v2_cell_delivers_batches_and_counts_messages() {
        let mut c = v2_fanout_cell(0);
        let mut batch = BatchEncoder::new();
        for n in [5, 6, 7] {
            batch.push(&Num(n));
        }
        c.inbox.push_back(Envelope {
            from: PeerId::new(9),
            deliver_from: 1,
            delay_resolved: false,
            frame: batch.finish(),
        });
        c.tick(1, true, &PerfectLinks, &mut |_, _| {});
        assert_eq!(
            c.node.received,
            vec![
                (PeerId::new(9), 5),
                (PeerId::new(9), 6),
                (PeerId::new(9), 7)
            ]
        );
        assert_eq!(c.stats.delivered, 1, "one frame");
        assert_eq!(c.stats.messages_delivered, 3, "three messages");
    }

    #[test]
    fn v1_cell_counts_a_batch_as_a_version_mismatch_not_a_decode_error() {
        let mut c = cell(0);
        let mut batch = BatchEncoder::new();
        batch.push(&Num(1));
        c.inbox.push_back(Envelope {
            from: PeerId::new(9),
            deliver_from: 1,
            delay_resolved: false,
            frame: batch.finish(),
        });
        c.tick(1, true, &PerfectLinks, &mut |_, _| {});
        assert_eq!(c.stats.version_mismatches, 1);
        assert_eq!(c.stats.decode_errors, 0);
        assert!(c.node.received.is_empty());
    }

    #[test]
    fn corrupted_batch_drops_whole_and_counts_once() {
        use rumor_wire::FrameCorruption;
        let mut c = v2_fanout_cell(0);
        let mut batch = BatchEncoder::new();
        for n in 0..5 {
            batch.push(&Num(n));
        }
        let corrupted = FrameCorruption::Truncate { keep: 14 }.apply(&batch.finish());
        c.inbox.push_back(Envelope {
            from: PeerId::new(9),
            deliver_from: 1,
            delay_resolved: false,
            frame: corrupted,
        });
        c.tick(1, true, &PerfectLinks, &mut |_, _| {});
        // Five messages were lost but the ledger records exactly one
        // rejected frame and zero partial deliveries.
        assert_eq!(c.stats.decode_errors + c.stats.version_mismatches, 1);
        assert_eq!(c.stats.messages_delivered, 0);
        assert!(c.node.received.is_empty(), "no partial batch delivery");
    }

    #[test]
    fn v2_corrupt_member_damages_the_whole_batch_frame() {
        let mut c = v2_fanout_cell(3);
        c.set_byzantine(ByzantineState::new(
            ByzantineBehaviour::CorruptFrames,
            5,
            None,
        ));
        let mut out = Vec::new();
        c.tick(0, true, &PerfectLinks, &mut |to, env| out.push((to, env)));
        assert_eq!(out.len(), 2, "one frame per peer group");
        assert_eq!(c.stats.tampered, 2, "one tamper decision per frame");
        let mut scratch: Vec<Num> = Vec::new();
        for (_, env) in &out {
            scratch.clear();
            assert!(
                decode_frame_v2::<Num>(&env.frame, &mut scratch).is_err(),
                "corrupted group frame must not decode"
            );
        }
    }
}
