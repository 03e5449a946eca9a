//! Outside-in spans: wrappers that implement the public `Protocol` and
//! `Node` traits by delegation and time every call into a per-node slot
//! of a shared table.
//!
//! The wrappers consume no randomness and emit no effects of their own,
//! so a wrapped run replays the unwrapped one bit for bit on the engine
//! path (`tests/transparency.rs` pins that).

use crate::api::{EffectSink, MsgKind, Node, PeerId, Protocol, Round, UpdateEvent, UpdateId};
use rand_chacha::ChaCha8Rng;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Message kinds a callback is classified by, in metric-name order.
pub const KINDS: [MsgKind; 6] = [
    MsgKind::Push,
    MsgKind::PullRequest,
    MsgKind::PullResponse,
    MsgKind::DeltaRequest,
    MsgKind::DeltaResponse,
    MsgKind::Ack,
];

/// What a slot counts. The first six are whole calls into the wrapped
/// protocol; the `In*` entries split `OnMessage` by message kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Call {
    /// `Node::on_message`.
    OnMessage,
    /// `Node::on_round_start`.
    OnRoundStart,
    /// `Node::on_status_change`.
    OnStatusChange,
    /// `Node::on_timer`.
    OnTimer,
    /// `Protocol::initiate`.
    Initiate,
    /// `Protocol::is_aware` — the driver's awareness probe.
    Probe,
    /// `on_message` calls whose message classified as `KINDS[i]`.
    In(usize),
}

const CALLS: usize = 6 + KINDS.len();

impl Call {
    /// The node callbacks: what the wrapped protocol's state machine
    /// costs, `Probe` excluded because the driver, not the protocol,
    /// decides how often to ask.
    pub const BUSY: [Call; 5] = [
        Call::OnMessage,
        Call::OnRoundStart,
        Call::OnStatusChange,
        Call::OnTimer,
        Call::Initiate,
    ];

    const fn index(self) -> usize {
        match self {
            Self::OnMessage => 0,
            Self::OnRoundStart => 1,
            Self::OnStatusChange => 2,
            Self::OnTimer => 3,
            Self::Initiate => 4,
            Self::Probe => 5,
            Self::In(kind) => 6 + kind,
        }
    }
}

/// One node's counters. Aligned to a cache line so the slots of nodes on
/// different workers never share one.
#[derive(Debug, Default)]
#[repr(align(64))]
struct Slot {
    ns: [AtomicU64; CALLS],
    calls: [AtomicU64; CALLS],
    sends_from_messages: AtomicU64,
}

impl Slot {
    // Relaxed throughout: the counters are statistics read after the
    // workers have passed the round barrier; they publish no other data.
    fn add(&self, call: Call, ns: u64) {
        self.ns[call.index()].fetch_add(ns, Relaxed);
        self.calls[call.index()].fetch_add(1, Relaxed);
    }
}

/// Summed counters of every slot at one instant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Totals {
    ns: [u64; CALLS],
    calls: [u64; CALLS],
    /// Sends written by `on_message` callbacks.
    pub sends_from_messages: u64,
}

impl Totals {
    /// Nanoseconds spent in `call`, as the clock read them.
    pub fn raw_ns(&self, call: Call) -> u64 {
        self.ns[call.index()]
    }

    /// Calls of `call`.
    pub fn calls(&self, call: Call) -> u64 {
        self.calls[call.index()]
    }

    /// Nanoseconds spent in `call` with the clock's own cost taken out:
    /// every span includes one clock read, `pair_ns` long, that is not
    /// the callee's work.
    pub fn ns(&self, call: Call, pair_ns: f64) -> f64 {
        (self.raw_ns(call) as f64 - self.calls(call) as f64 * pair_ns).max(0.0)
    }

    /// Seconds in the node callbacks and `initiate`, clock cost removed.
    pub fn busy_s(&self, pair_ns: f64) -> f64 {
        Call::BUSY.iter().map(|&c| self.ns(c, pair_ns)).sum::<f64>() / 1e9
    }

    /// What happened between `earlier` and `self`.
    pub fn since(&self, earlier: &Totals) -> Totals {
        let mut out = *self;
        for i in 0..CALLS {
            out.ns[i] -= earlier.ns[i];
            out.calls[i] -= earlier.calls[i];
        }
        out.sends_from_messages -= earlier.sends_from_messages;
        out
    }
}

/// Most messages the sample keeps.
pub const SAMPLE_CAP: usize = 4096;

struct Sample<M> {
    kept: Vec<M>,
    /// Every `stride`-th message a node receives is kept; doubles each
    /// time the sample fills, which also drops every other kept message.
    stride: u64,
}

/// The shared span table: one slot per node plus a stride sample of the
/// messages the nodes received.
pub struct SpanTable<M> {
    slots: Vec<Slot>,
    kinder: Option<fn(&M) -> MsgKind>,
    stride: AtomicU64,
    sample: Mutex<Sample<M>>,
}

impl<M: Clone> SpanTable<M> {
    fn new(population: usize, kinder: Option<fn(&M) -> MsgKind>) -> Self {
        const FIRST_STRIDE: u64 = 16;
        Self {
            slots: (0..population).map(|_| Slot::default()).collect(),
            kinder,
            stride: AtomicU64::new(FIRST_STRIDE),
            sample: Mutex::new(Sample {
                kept: Vec::with_capacity(SAMPLE_CAP),
                stride: FIRST_STRIDE,
            }),
        }
    }

    /// Index into [`KINDS`] of `msg`'s kind, if the protocol classifies it.
    pub fn kind_of(&self, msg: &M) -> Option<usize> {
        let kind = (self.kinder?)(msg);
        KINDS.iter().position(|&k| k == kind)
    }

    /// The sum of every slot.
    pub fn totals(&self) -> Totals {
        let mut t = Totals::default();
        for slot in &self.slots {
            for i in 0..CALLS {
                t.ns[i] += slot.ns[i].load(Relaxed);
                t.calls[i] += slot.calls[i].load(Relaxed);
            }
            t.sends_from_messages += slot.sends_from_messages.load(Relaxed);
        }
        t
    }

    /// Per-node `(busy nanoseconds, callback calls)`, for the span file.
    pub fn per_node(&self) -> Vec<(u64, u64)> {
        self.slots
            .iter()
            .map(|slot| {
                Call::BUSY.iter().fold((0, 0), |(ns, n), &c| {
                    (
                        ns + slot.ns[c.index()].load(Relaxed),
                        n + slot.calls[c.index()].load(Relaxed),
                    )
                })
            })
            .collect()
    }

    /// A copy of the message sample.
    pub fn sample(&self) -> Vec<M> {
        self.lock_sample().kept.clone()
    }

    fn lock_sample(&self) -> std::sync::MutexGuard<'_, Sample<M>> {
        // A worker that panicked mid-push leaves a valid Vec behind; the
        // run is aborting anyway, so keep reading.
        self.sample.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn keep(&self, msg: &M) {
        let mut sample = self.lock_sample();
        sample.kept.push(msg.clone());
        if sample.kept.len() >= SAMPLE_CAP {
            let mut index = 0;
            sample.kept.retain(|_| {
                index += 1;
                index % 2 == 1
            });
            sample.stride *= 2;
            self.stride.store(sample.stride, Relaxed);
        }
    }
}

/// Calibrates the clock: the mean nanoseconds an empty span reads.
pub fn clock_pair_ns() -> f64 {
    const READS: u32 = 200_000;
    let mut total = 0u64;
    for _ in 0..READS {
        let t = Instant::now();
        total += std::hint::black_box(t.elapsed().as_nanos() as u64);
    }
    total as f64 / f64::from(READS)
}

/// A `Protocol` that delegates to `P` and times `initiate` and `is_aware`;
/// the nodes it spawns time their callbacks.
pub struct SpanProtocol<P: Protocol> {
    inner: P,
    table: Arc<SpanTable<<P::Node as Node>::Msg>>,
}

impl<P: Protocol> SpanProtocol<P> {
    /// Wraps `inner` for a population of `population` nodes.
    pub fn new(inner: P, population: usize) -> Self {
        let table = Arc::new(SpanTable::new(population, inner.trace_msg_kind()));
        Self { inner, table }
    }

    /// The shared table (clone the `Arc` before mounting a cluster, which
    /// takes the protocol by value).
    pub fn table(&self) -> &Arc<SpanTable<<P::Node as Node>::Msg>> {
        &self.table
    }
}

/// A `Node` that delegates to `N` and times every callback.
pub struct SpanNode<N: Node> {
    inner: N,
    table: Arc<SpanTable<N::Msg>>,
    slot: usize,
}

impl<N: Node> SpanNode<N> {
    fn slot(&self) -> &Slot {
        &self.table.slots[self.slot]
    }
}

impl<P: Protocol> Protocol for SpanProtocol<P> {
    type Node = SpanNode<P::Node>;

    fn name(&self) -> String {
        self.inner.name()
    }

    fn spawn(&self, id: PeerId, known: Vec<PeerId>, online_at_start: bool) -> Self::Node {
        SpanNode {
            inner: self.inner.spawn(id, known, online_at_start),
            table: Arc::clone(&self.table),
            slot: id.index(),
        }
    }

    fn initiate(
        &self,
        node: &mut Self::Node,
        event: &UpdateEvent,
        round: Round,
        rng: &mut ChaCha8Rng,
        out: &mut EffectSink<<P::Node as Node>::Msg>,
    ) -> UpdateId {
        let t = Instant::now();
        let update = self.inner.initiate(&mut node.inner, event, round, rng, out);
        node.slot()
            .add(Call::Initiate, t.elapsed().as_nanos() as u64);
        update
    }

    fn is_aware(&self, node: &Self::Node, update: UpdateId) -> bool {
        let t = Instant::now();
        let aware = self.inner.is_aware(&node.inner, update);
        node.slot().add(Call::Probe, t.elapsed().as_nanos() as u64);
        aware
    }

    fn protocol_messages(&self, node: &Self::Node) -> u64 {
        self.inner.protocol_messages(&node.inner)
    }

    fn wire_sizer(&self) -> Option<fn(&<P::Node as Node>::Msg) -> usize> {
        self.inner.wire_sizer()
    }

    fn byzantine_liar(
        &self,
    ) -> Option<fn(&<P::Node as Node>::Msg) -> Option<<P::Node as Node>::Msg>> {
        self.inner.byzantine_liar()
    }

    fn trace_msg_kind(&self) -> Option<fn(&<P::Node as Node>::Msg) -> MsgKind> {
        self.inner.trace_msg_kind()
    }
}

impl<N: Node> Node for SpanNode<N> {
    type Msg = N::Msg;

    fn id(&self) -> PeerId {
        self.inner.id()
    }

    fn on_message(
        &mut self,
        from: PeerId,
        msg: N::Msg,
        round: Round,
        rng: &mut ChaCha8Rng,
        out: &mut EffectSink<N::Msg>,
    ) {
        // Classification and sampling happen before the clock starts, so
        // they cost wall-clock (trace overhead) but not callback time.
        let kind = self.table.kind_of(&msg);
        let seen = self.slot().calls[Call::OnMessage.index()].load(Relaxed);
        if seen.is_multiple_of(self.table.stride.load(Relaxed)) {
            self.table.keep(&msg);
        }
        let sends_before = out.len();
        let t = Instant::now();
        self.inner.on_message(from, msg, round, rng, out);
        let ns = t.elapsed().as_nanos() as u64;
        let slot = self.slot();
        slot.add(Call::OnMessage, ns);
        if let Some(kind) = kind {
            slot.add(Call::In(kind), ns);
        }
        slot.sends_from_messages
            .fetch_add((out.len() - sends_before) as u64, Relaxed);
    }

    fn on_round_start(&mut self, round: Round, rng: &mut ChaCha8Rng, out: &mut EffectSink<N::Msg>) {
        let t = Instant::now();
        self.inner.on_round_start(round, rng, out);
        self.slot()
            .add(Call::OnRoundStart, t.elapsed().as_nanos() as u64);
    }

    fn on_status_change(
        &mut self,
        online: bool,
        round: Round,
        rng: &mut ChaCha8Rng,
        out: &mut EffectSink<N::Msg>,
    ) {
        let t = Instant::now();
        self.inner.on_status_change(online, round, rng, out);
        self.slot()
            .add(Call::OnStatusChange, t.elapsed().as_nanos() as u64);
    }

    fn on_timer(
        &mut self,
        tag: u64,
        round: Round,
        rng: &mut ChaCha8Rng,
        out: &mut EffectSink<N::Msg>,
    ) {
        let t = Instant::now();
        self.inner.on_timer(tag, round, rng, out);
        self.slot()
            .add(Call::OnTimer, t.elapsed().as_nanos() as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_subtract_the_clock_cost_per_call() {
        let table: SpanTable<u8> = SpanTable::new(2, None);
        table.slots[0].add(Call::OnMessage, 500);
        table.slots[1].add(Call::OnMessage, 300);
        table.slots[1].add(Call::Probe, 40);
        let t = table.totals();
        assert_eq!(t.raw_ns(Call::OnMessage), 800);
        assert_eq!(t.calls(Call::OnMessage), 2);
        assert_eq!(t.ns(Call::OnMessage, 100.0), 600.0);
        // The probe read less than one clock pair: floors at zero.
        assert_eq!(t.ns(Call::Probe, 100.0), 0.0);
        assert!(
            (t.busy_s(100.0) - 600e-9).abs() < 1e-15,
            "probe is not busy time"
        );
        let later = {
            table.slots[0].add(Call::OnTimer, 70);
            table.totals()
        };
        let delta = later.since(&t);
        assert_eq!(delta.raw_ns(Call::OnTimer), 70);
        assert_eq!(delta.calls(Call::OnMessage), 0);
    }

    #[test]
    fn sample_halves_and_doubles_its_stride_when_full() {
        let table: SpanTable<u32> = SpanTable::new(1, None);
        for i in 0..SAMPLE_CAP as u32 {
            table.keep(&i);
        }
        let sample = table.sample();
        assert_eq!(sample.len(), SAMPLE_CAP / 2);
        assert_eq!(&sample[..3], &[0, 2, 4], "every other message survives");
        assert_eq!(table.stride.load(Relaxed), 32);
    }

    #[test]
    fn clock_calibration_is_small_and_positive() {
        let pair = clock_pair_ns();
        assert!(pair > 0.0 && pair < 10_000.0, "clock pair {pair} ns");
    }
}
