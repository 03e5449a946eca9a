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

use crate::fault::FaultEvents;
use rumor_churn::OnlineSet;
use rumor_obs::{EventKind, MemTracer, TraceEvent, Tracer, CONDUCTOR};
use rumor_types::{PeerId, UpdateId};

/// The conductor's trace state: an event buffer plus the bookkeeping
/// needed to turn seeded decisions into events (previous availability
/// for churn transitions, dense per-trace update indices, per-update
/// awareness snapshots for the probe path).
pub(crate) struct ConductorTrace {
    tracer: MemTracer,
    prev_online: Vec<bool>,
    traced_updates: Vec<UpdateId>,
    /// The update the awareness snapshot belongs to.
    aware_update: Option<UpdateId>,
    aware: Vec<bool>,
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
            traced_updates: Vec::new(),
            aware_update: None,
            aware: vec![false; population],
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

    /// Dense per-trace index of `update`, assigned in initiation order.
    fn update_index(&mut self, update: UpdateId) -> u32 {
        match self.traced_updates.iter().position(|&u| u == update) {
            Some(i) => i as u32,
            None => {
                self.traced_updates.push(update);
                (self.traced_updates.len() - 1) as u32
            }
        }
    }

    /// Emits an initiation at `initiator`.
    pub fn initiate(&mut self, round: u32, initiator: PeerId, update: UpdateId) {
        let index = self.update_index(update);
        self.tracer.record(
            round,
            initiator.as_u32(),
            EventKind::Initiate { update: index },
        );
    }

    /// Folds one convergence-probe observation (virtual time only, where
    /// per-node awareness is visible to the front-end): emits `Aware`
    /// for every node newly aware of `update`, then the probe summary.
    /// The initiator counts as aware from its `Initiate` event, not a
    /// duplicate `Aware`.
    pub fn probe(
        &mut self,
        round: u32,
        update: UpdateId,
        aware_now: impl Iterator<Item = bool>,
        online: u32,
    ) {
        if self.aware_update != Some(update) {
            self.aware_update = Some(update);
            self.aware.iter_mut().for_each(|a| *a = false);
            if let Some(initiator) = self.initiator_of(update) {
                self.aware[initiator.index()] = true;
            }
        }
        let index = self.update_index(update);
        let mut aware_count = 0u32;
        for (i, now) in aware_now.enumerate() {
            if now {
                aware_count += 1;
                if !self.aware[i] {
                    self.aware[i] = true;
                    self.tracer
                        .record(round, i as u32, EventKind::Aware { update: index });
                }
            }
        }
        self.tracer.record(
            round,
            CONDUCTOR,
            EventKind::Probe {
                online,
                aware: aware_count,
            },
        );
    }

    /// The node whose `Initiate` event carries `update`, if captured.
    fn initiator_of(&self, update: UpdateId) -> Option<PeerId> {
        let index = self.traced_updates.iter().position(|&u| u == update)? as u32;
        self.tracer.events().iter().find_map(|e| match e.kind {
            EventKind::Initiate { update: u } if u == index => Some(PeerId::new(e.node)),
            _ => None,
        })
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
        trace.initiate(0, PeerId::new(1), update);
        // Initiator plus node 2 aware: only node 2 gets an Aware event.
        trace.probe(1, update, [false, true, true].into_iter(), 2);
        trace.probe(2, update, [true, true, true].into_iter(), 3);
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
