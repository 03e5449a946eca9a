//! Conductor-side trace capture.
//!
//! Message-level events (send, deliver, drop, timer, tamper) are
//! captured inside each [`NodeCell`](crate::cell::NodeCell)'s own
//! `MemTracer`, so they never cross a thread boundary until the run
//! finishes. Everything the *conductor* decides — round boundaries,
//! churn transitions, crash/restart faults, update initiations — is
//! captured here instead, by the one conductor both front-ends share.
//! That makes the environment sub-trace
//! ([`TraceDoc::environment`](rumor_obs::TraceDoc::environment))
//! byte-identical across the virtual-time and sharded front-ends and
//! across worker counts, even though message interleavings (and
//! therefore the full trace) are only deterministic in virtual time.
//!
//! Update indices, `Initiate`, first-awareness `Aware` and `Probe`
//! events are recorded into the same buffer by [`AwarenessRecorder`],
//! the bookkeeping the engine driver uses too, so both paths stamp them
//! by the same rules.

use crate::fault::FaultEvents;
use rumor_churn::OnlineSet;
use rumor_obs::{AwarenessRecorder, EventKind, MemTracer, TraceEvent, Tracer, CONDUCTOR};
use rumor_types::PeerId;

/// The conductor's trace state: an event buffer, the previous
/// availability for churn transitions, and the awareness bookkeeping
/// that records into the same buffer.
pub(crate) struct ConductorTrace {
    pub tracer: MemTracer,
    prev_online: Vec<bool>,
    pub awareness: AwarenessRecorder,
}

impl ConductorTrace {
    /// Starts a conductor capture primed with the round-0 availability
    /// (priming is not a transition, mirroring the cell semantics).
    pub fn new(online: &OnlineSet, population: usize) -> Self {
        Self {
            tracer: MemTracer::new(),
            prev_online: (0..population)
                .map(|i| online.is_online(PeerId::new(i as u32)))
                .collect(),
            awareness: AwarenessRecorder::default(),
        }
    }

    /// Emits the round boundary and any churn transitions since the
    /// previous round, in ascending node order.
    pub fn round_start(&mut self, round: u32, online: &OnlineSet) {
        self.tracer.record(round, CONDUCTOR, EventKind::RoundStart);
        for (i, prev) in self.prev_online.iter_mut().enumerate() {
            let now = online.is_online(PeerId::new(i as u32));
            if *prev != now {
                *prev = now;
                self.tracer
                    .record(round, i as u32, EventKind::Status { online: now });
            }
        }
    }

    /// Emits this round's fault decisions in application order:
    /// restarts first, then at most one crash.
    pub fn fault_events(&mut self, round: u32, events: &FaultEvents) {
        for peer in &events.restarts {
            self.tracer.record(round, peer.as_u32(), EventKind::Restart);
        }
        if let Some(victim) = events.crash {
            self.tracer.record(round, victim.as_u32(), EventKind::Crash);
        }
    }

    /// Drains the captured buffer.
    pub fn take(&mut self) -> Vec<TraceEvent> {
        self.tracer.take()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rumor_obs::TraceDoc;
    use rumor_types::UpdateId;

    #[test]
    fn churn_transitions_emit_status_once_per_flip() {
        let mut online = OnlineSet::all_offline(3);
        online.set_online(PeerId::new(0), true);
        let mut trace = ConductorTrace::new(&online, 3);
        trace.round_start(0, &online);
        online.set_online(PeerId::new(0), false);
        online.set_online(PeerId::new(2), true);
        trace.round_start(1, &online);
        trace.round_start(2, &online);
        let doc = TraceDoc::new("t", 0, 3, trace.take());
        let statuses: Vec<_> = doc
            .events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Status { .. }))
            .collect();
        assert_eq!(statuses.len(), 2, "one event per transition");
        assert_eq!(statuses[0].node, 0);
        assert_eq!(statuses[1].node, 2);
        assert_eq!(doc.environment().events.len(), 5, "3 rounds + 2 statuses");
    }

    #[test]
    fn probe_emits_aware_once_and_skips_the_initiator() {
        let online = OnlineSet::all_offline(3);
        let mut trace = ConductorTrace::new(&online, 3);
        let update = UpdateId::from_bits(9);
        let ConductorTrace {
            tracer, awareness, ..
        } = &mut trace;
        awareness.initiate(tracer, 0, 1, update);
        awareness.track(update, [false, true, false]);
        // Initiator plus node 2 aware: only node 2 gets an Aware event.
        awareness.probe(tracer, 1, [(false, false), (true, true), (true, true)]);
        awareness.probe(tracer, 2, [(true, true), (true, true), (true, true)]);
        let events = trace.take();
        let aware: Vec<_> = events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Aware { .. }))
            .map(|e| (e.round, e.node))
            .collect();
        assert_eq!(aware, vec![(1, 2), (2, 0)]);
        let probes = events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Probe { .. }))
            .count();
        assert_eq!(probes, 2);
    }
}
