//! The closed loop and the execution paths it drives.
//!
//! A [`Harness`] is one mounted system that can take the client's next
//! update and run until it is delivered. The engine, the sharded cluster
//! and the virtual-time cluster each get one, so a single loop body
//! measures all of them.

use crate::api::{
    ClusterBuilder, Decode, Driver, Encode, MemTracer, Node, NopTracer, OnlineSet, Protocol,
    Scenario, ShardedCluster, Tracer, UpdateEvent, UpdateId, VirtualCluster, WireVersion,
};
use crate::workload::{self, CLUSTER_WORKERS, ROUND_CAP};
use std::time::Instant;

/// Cumulative traffic counters of a mounted system.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// Rounds executed.
    pub rounds: u64,
    /// Logical protocol messages sent.
    pub messages: u64,
    /// Encoded bytes of those messages.
    pub bytes: u64,
}

impl Counters {
    /// What happened between `earlier` and `self`.
    pub fn since(&self, earlier: &Counters) -> Counters {
        Counters {
            rounds: self.rounds - earlier.rounds,
            messages: self.messages - earlier.messages,
            bytes: self.bytes - earlier.bytes,
        }
    }
}

/// How one update ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Delivery {
    /// Reached the workload's delivered threshold.
    Delivered,
    /// Ran into [`ROUND_CAP`], or awareness stalled below the threshold.
    Capped,
    /// `initiate` found nobody online to start at.
    Refused,
}

/// What a harness folds into when the pass ends.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Finish {
    /// Frames that failed strict decoding (cluster paths).
    pub decode_errors: u64,
    /// Frames of a codec version the receiver does not speak.
    pub version_mismatches: u64,
    /// Frames handed to the transport (cluster paths; 0 on the engine).
    pub frames: u64,
    /// Logical messages sent over the whole run.
    pub messages: u64,
    /// Messages sent to peers that were offline (engine path).
    pub wasted: u64,
    /// Share of online replicas holding the majority store digest.
    pub consistency: Option<f64>,
    /// `(captured, dropped)` events when an observability tracer was mounted.
    pub obs_events: Option<(u64, u64)>,
}

/// One mounted system under the closed loop.
pub trait Harness {
    /// Initiates `event` and runs until it is delivered or gives up;
    /// returns how it ended.
    fn issue(&mut self, event: &UpdateEvent) -> Delivery;

    /// Traffic so far.
    fn counters(&self) -> Counters;

    /// Ends the run (stopping any thread it started) and folds the totals.
    fn finish(self) -> Finish;
}

/// The capture an engine-path tracer holds, if it is a capturing one.
pub trait Capture: Tracer {
    /// `(captured, dropped)` events.
    fn captured(&self) -> Option<(u64, u64)>;
}

impl Capture for NopTracer {
    fn captured(&self) -> Option<(u64, u64)> {
        None
    }
}

impl Capture for MemTracer {
    fn captured(&self) -> Option<(u64, u64)> {
        Some((self.len() as u64 + self.dropped(), self.dropped()))
    }
}

/// Majority-digest share of the online nodes, where the node type has a
/// store to compare.
pub type Consistency<N> = fn(&[N], &OnlineSet) -> f64;

/// The engine path: `Scenario::drive` + `Driver::track_update`.
pub struct EngineHarness<P: Protocol, T: Tracer = NopTracer> {
    driver: Driver<P::Node, T>,
    protocol: P,
    delivered_at: f64,
    consistency: Option<Consistency<P::Node>>,
}

impl<P: Protocol> EngineHarness<P> {
    /// Mounts `protocol` into `scenario`.
    pub fn mount(
        scenario: &Scenario,
        protocol: P,
        delivered_at: f64,
        consistency: Option<Consistency<P::Node>>,
    ) -> Self {
        Self {
            driver: scenario.drive(&protocol),
            protocol,
            delivered_at,
            consistency,
        }
    }
}

impl<P: Protocol> EngineHarness<P, MemTracer> {
    /// Mounts `protocol` with a `rumor-obs` capture of `capacity` events.
    pub fn mount_capturing(
        scenario: &Scenario,
        protocol: P,
        delivered_at: f64,
        capacity: usize,
    ) -> Self {
        let tracer = MemTracer::with_capacity(capacity);
        Self {
            driver: scenario.drive_traced(&protocol, tracer),
            protocol,
            delivered_at,
            consistency: None,
        }
    }
}

impl<P: Protocol, T: Capture> Harness for EngineHarness<P, T> {
    fn issue(&mut self, event: &UpdateEvent) -> Delivery {
        let Some(update) = self.driver.initiate(&self.protocol, None, event) else {
            return Delivery::Refused;
        };
        // `track_update` returns when awareness stalls as well as when it
        // reaches the target (the initiator may have gone offline holding
        // the only copy), so keep tracking until the update is delivered
        // or the round cap is spent.
        let mut rounds = 0;
        loop {
            let report = self
                .driver
                .track_update(&self.protocol, update, ROUND_CAP - rounds);
            rounds += report.rounds;
            if report.aware_online_fraction >= self.delivered_at {
                return Delivery::Delivered;
            }
            if rounds >= ROUND_CAP || report.rounds == 0 {
                return Delivery::Capped;
            }
        }
    }

    fn counters(&self) -> Counters {
        Counters {
            rounds: u64::from(self.driver.rounds_run()),
            messages: self.driver.messages(),
            bytes: self.driver.bytes_sent(),
        }
    }

    fn finish(self) -> Finish {
        Finish {
            messages: self.driver.messages(),
            wasted: self.driver.stats().wasted(),
            consistency: self
                .consistency
                .map(|f| f(self.driver.nodes(), self.driver.online())),
            obs_events: self.driver.tracer().captured(),
            ..Finish::default()
        }
    }
}

/// The live path: the sharded executor on [`CLUSTER_WORKERS`] workers.
pub struct ClusterHarness<P>
where
    P: Protocol + Send + Sync + 'static,
    P::Node: Send + 'static,
    <P::Node as Node>::Msg: Encode + Decode + Send,
{
    cluster: ShardedCluster<P>,
    /// `finish` reports on one update; the last one issued stands in.
    last: Option<UpdateId>,
}

impl<P> ClusterHarness<P>
where
    P: Protocol + Send + Sync + 'static,
    P::Node: Send + 'static,
    <P::Node as Node>::Msg: Encode + Decode + Send,
{
    /// Mounts `protocol` on the sharded executor; `capturing` adds the
    /// cluster's `rumor-obs` capture.
    pub fn mount(scenario: &Scenario, protocol: P, wire: WireVersion, capturing: bool) -> Self {
        let mut builder = ClusterBuilder::new(scenario)
            .wire(wire)
            .workers(CLUSTER_WORKERS);
        if capturing {
            builder = builder.traced();
        }
        Self {
            cluster: builder.sharded(protocol),
            last: None,
        }
    }
}

impl<P> Harness for ClusterHarness<P>
where
    P: Protocol + Send + Sync + 'static,
    P::Node: Send + 'static,
    <P::Node as Node>::Msg: Encode + Decode + Send,
{
    fn issue(&mut self, event: &UpdateEvent) -> Delivery {
        let Some(update) = self.cluster.initiate(event) else {
            return Delivery::Refused;
        };
        self.last = Some(update);
        match self.cluster.run_until_all_online_aware(update, ROUND_CAP) {
            Some(_) => Delivery::Delivered,
            None => Delivery::Capped,
        }
    }

    fn counters(&self) -> Counters {
        Counters {
            rounds: u64::from(self.cluster.rounds_run()),
            messages: self.cluster.messages_sent(),
            bytes: self.cluster.bytes_sent(),
        }
    }

    fn finish(self) -> Finish {
        let update = self.last.unwrap_or_else(|| workload::event(0).rumor_id());
        let (report, trace) = self.cluster.finish_traced(update, "benchmark");
        Finish {
            decode_errors: report.decode_errors,
            version_mismatches: report.version_mismatches,
            frames: report.frames_sent,
            messages: report.messages_sent,
            // The cluster's capture does not publish its drop count.
            obs_events: trace.map(|doc| (doc.events.len() as u64, 0)),
            ..Finish::default()
        }
    }
}

/// The same cluster on one thread in virtual time — the serial reference
/// `cluster.parallel_speedup` is measured against.
pub struct VirtualHarness<P>
where
    P: Protocol,
    <P::Node as Node>::Msg: Encode + Decode,
{
    cluster: VirtualCluster<P>,
}

impl<P> VirtualHarness<P>
where
    P: Protocol,
    <P::Node as Node>::Msg: Encode + Decode,
{
    /// Mounts `protocol` on the virtual-time executor.
    pub fn mount(scenario: &Scenario, protocol: P, wire: WireVersion) -> Self {
        Self {
            cluster: ClusterBuilder::new(scenario)
                .wire(wire)
                .virtual_time(protocol),
        }
    }
}

impl<P> Harness for VirtualHarness<P>
where
    P: Protocol,
    <P::Node as Node>::Msg: Encode + Decode,
{
    fn issue(&mut self, event: &UpdateEvent) -> Delivery {
        let Some(update) = self.cluster.initiate(event) else {
            return Delivery::Refused;
        };
        match self.cluster.run_until_all_online_aware(update, ROUND_CAP) {
            Some(_) => Delivery::Delivered,
            None => Delivery::Capped,
        }
    }

    fn counters(&self) -> Counters {
        Counters {
            rounds: u64::from(self.cluster.rounds_run()),
            ..Counters::default()
        }
    }

    fn finish(self) -> Finish {
        Finish::default()
    }
}

/// One update of the closed loop, stamped relative to the pass's epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UpdateSample {
    /// When the client issued it.
    pub start_ns: u64,
    /// When it was delivered (or given up on).
    pub end_ns: u64,
    /// How it ended.
    pub delivery: Delivery,
    /// The system's counters right after it.
    pub after: Counters,
}

impl UpdateSample {
    /// Wall-clock milliseconds from `initiate` to delivered.
    pub fn latency_ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// A finished stretch of the closed loop.
#[derive(Debug, Clone, PartialEq)]
pub struct LoopRun {
    /// Counters before the first update.
    pub before: Counters,
    /// Every update issued, in order.
    pub updates: Vec<UpdateSample>,
}

impl LoopRun {
    /// Counters after the last update.
    pub fn after(&self) -> Counters {
        self.updates.last().map_or(self.before, |u| u.after)
    }

    /// Traffic of the whole stretch.
    pub fn traffic(&self) -> Counters {
        self.after().since(&self.before)
    }

    /// Traffic of the delivered updates alone, and how many there were.
    /// A failed update is counted in `failed`; the 200 rounds it ran
    /// before giving up would otherwise swamp every per-update mean.
    pub fn delivered_traffic(&self) -> (Counters, usize) {
        let mut before = self.before;
        let mut sum = Counters::default();
        let mut delivered = 0;
        for update in &self.updates {
            if update.delivery == Delivery::Delivered {
                let own = update.after.since(&before);
                sum.rounds += own.rounds;
                sum.messages += own.messages;
                sum.bytes += own.bytes;
                delivered += 1;
            }
            before = update.after;
        }
        (sum, delivered)
    }

    /// Wall-clock seconds from the first issue to the last delivery.
    pub fn wall_s(&self) -> f64 {
        match (self.updates.first(), self.updates.last()) {
            (Some(first), Some(last)) => (last.end_ns - first.start_ns) as f64 / 1e9,
            _ => 0.0,
        }
    }

    /// Updates that were refused, capped or stalled below the threshold.
    pub fn failed(&self) -> usize {
        self.updates
            .iter()
            .filter(|u| u.delivery != Delivery::Delivered)
            .count()
    }

    /// Per-update latencies. A capped update has run the full round cap,
    /// so its own time is the cap; a refused one did no work and is
    /// charged the slowest latency seen instead of its near-zero own.
    pub fn latencies_ms(&self) -> Vec<f64> {
        let slowest = self
            .updates
            .iter()
            .map(UpdateSample::latency_ms)
            .fold(0.0, f64::max);
        self.updates
            .iter()
            .map(|u| match u.delivery {
                Delivery::Refused => slowest,
                _ => u.latency_ms(),
            })
            .collect()
    }

    /// The first `n` updates as a stretch of their own.
    pub fn prefix(&self, n: usize) -> LoopRun {
        LoopRun {
            before: self.before,
            updates: self.updates[..n.min(self.updates.len())].to_vec(),
        }
    }
}

/// The closed loop with one client: issue request `first_sequence`, run
/// until it is delivered, issue the next, `updates` times. The work is
/// fixed and the time it takes is the measurement. `after_update` runs
/// between updates, outside every latency.
pub fn closed_loop<H: Harness>(
    harness: &mut H,
    epoch: Instant,
    first_sequence: u32,
    updates: u32,
    mut after_update: impl FnMut(),
) -> LoopRun {
    let mut run = LoopRun {
        before: harness.counters(),
        updates: Vec::with_capacity(updates as usize),
    };
    for sequence in first_sequence..first_sequence + updates {
        let start_ns = epoch.elapsed().as_nanos() as u64;
        let delivery = harness.issue(&workload::event(sequence));
        let end_ns = epoch.elapsed().as_nanos() as u64;
        run.updates.push(UpdateSample {
            start_ns,
            end_ns,
            delivery,
            after: harness.counters(),
        });
        after_update();
    }
    run
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(start_ms: u64, end_ms: u64, delivery: Delivery, rounds: u64) -> UpdateSample {
        UpdateSample {
            start_ns: start_ms * 1_000_000,
            end_ns: end_ms * 1_000_000,
            delivery,
            after: Counters {
                rounds,
                messages: rounds * 10,
                bytes: rounds * 1000,
            },
        }
    }

    fn run() -> LoopRun {
        LoopRun {
            before: Counters {
                rounds: 100,
                messages: 1000,
                bytes: 100_000,
            },
            updates: vec![
                sample(0, 40, Delivery::Delivered, 104),
                sample(40, 2040, Delivery::Capped, 304),
                sample(2040, 2041, Delivery::Refused, 304),
                sample(2041, 2101, Delivery::Delivered, 310),
            ],
        }
    }

    #[test]
    fn traffic_and_wall_clock_span_the_whole_stretch() {
        let run = run();
        assert_eq!(run.traffic().rounds, 210);
        assert_eq!(run.traffic().messages, 2100);
        assert!((run.wall_s() - 2.101).abs() < 1e-12);
        assert_eq!(run.failed(), 2);
        assert_eq!(run.prefix(1).traffic().rounds, 4);
        assert_eq!(run.prefix(9).updates.len(), 4);
    }

    #[test]
    fn count_metrics_leave_failed_updates_out() {
        let (traffic, delivered) = run().delivered_traffic();
        assert_eq!(delivered, 2);
        assert_eq!(
            traffic.rounds,
            4 + 6,
            "the capped update's 200 rounds are not counted"
        );
        assert_eq!(traffic.messages, 100);
        assert_eq!(traffic.bytes, 10_000);
    }

    #[test]
    fn a_capped_update_is_its_own_cap_and_a_refused_one_the_slowest() {
        assert_eq!(run().latencies_ms(), [40.0, 2000.0, 2000.0, 60.0]);
    }
}
