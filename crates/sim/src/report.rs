//! Simulation reports.

use rumor_metrics::RoundSeries;
use rumor_types::{DataKey, UpdateId};
use serde::{Deserialize, Serialize};

/// A per-round snapshot taken while an update propagates.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RoundObservation {
    /// Round just executed.
    pub round: u32,
    /// Online peers at the end of the round.
    pub online: usize,
    /// Online peers aware of the tracked update.
    pub aware_online: usize,
    /// Aware fraction of the online population.
    pub f_aware: f64,
    /// Cumulative messages sent (all kinds).
    pub cum_messages: u64,
    /// Cumulative protocol messages sent (pushes for the paper peer; see
    /// [`RunReport::protocol_messages`]).
    pub cum_push_messages: u64,
}

/// Outcome of tracking one update through *any* mounted protocol (the
/// simulator's analogue of the analytical `PushOutcome`), produced by
/// [`Driver::track_update`](crate::Driver::track_update).
///
/// `protocol_messages` is whatever the mounted
/// [`Protocol`](crate::Protocol) counts as its overhead metric (push
/// messages for the paper peer, 0 for baselines whose engine-level total
/// is the meaningful number). Message counters are cumulative over the
/// driver's lifetime.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunReport {
    /// Rounds executed by this tracking call.
    pub rounds: u32,
    /// Aware fraction of the online population at the end.
    pub aware_online_fraction: f64,
    /// Aware fraction of the *entire* population (offline included).
    pub aware_total_fraction: f64,
    /// Protocol-specific overhead messages (see type docs).
    pub protocol_messages: u64,
    /// All messages sent so far (cumulative engine total).
    pub total_messages: u64,
    /// Encoded wire bytes of `total_messages`, per the mounted protocol's
    /// [`Protocol::wire_sizer`](crate::Protocol::wire_sizer) (0 when the
    /// protocol has no wire codec).
    pub total_bytes: u64,
    /// Messages that reached nobody — lost to an offline target or a
    /// link fault (cumulative engine total,
    /// [`EngineStats::wasted`](crate::EngineStats::wasted)).
    pub total_wasted: u64,
    /// Initial online population (normalisation denominator).
    pub initial_online: usize,
    /// Per-round trace.
    pub per_round: Vec<RoundObservation>,
    /// Per-round sent-message series over the driver's lifetime
    /// ([`EngineStats::per_round_sent`](crate::EngineStats::per_round_sent),
    /// previously collected but unpublished).
    pub per_round_sent: RoundSeries,
}

impl RunReport {
    /// Total messages per initially-online peer.
    pub fn messages_per_initial_online(&self) -> f64 {
        if self.initial_online == 0 {
            0.0
        } else {
            self.total_messages as f64 / self.initial_online as f64
        }
    }

    /// Fraction of sent messages that reached nobody.
    pub fn wasted_fraction(&self) -> f64 {
        if self.total_messages == 0 {
            0.0
        } else {
            self.total_wasted as f64 / self.total_messages as f64
        }
    }

    /// Mean encoded bytes per sent message — the paper's `L_M` made
    /// measurable (0 when no message was sent or no sizer was installed).
    pub fn mean_message_bytes(&self) -> f64 {
        if self.total_messages == 0 {
            0.0
        } else {
            self.total_bytes as f64 / self.total_messages as f64
        }
    }

    /// `(f_aware, cumulative protocol messages / R_on(0))` series — the
    /// paper's figure axes, matching
    /// `rumor_analysis::PushOutcome::awareness_cost_series`.
    pub fn awareness_cost_series(&self) -> Vec<(f64, f64)> {
        let denom = self.initial_online.max(1) as f64;
        self.per_round
            .iter()
            .map(|o| (o.f_aware, o.cum_push_messages as f64 / denom))
            .collect()
    }
}

/// Per-update outcome inside a [`WorkloadReport`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct UpdateOutcome {
    /// The update's identity (protocol-assigned or derived from the
    /// event's sequence number for data-less baselines).
    pub update: UpdateId,
    /// Key the event targeted.
    pub key: DataKey,
    /// Whether the event was a tombstone.
    pub delete: bool,
    /// Schedule sequence number.
    pub sequence: u32,
    /// Absolute round at which the update was initiated.
    pub initiated_round: u32,
    /// First absolute round at which online awareness reached the
    /// scenario's convergence target, if it ever did.
    pub converged_round: Option<u32>,
    /// Online-aware fraction when the workload finished.
    pub final_aware_online: f64,
    /// Whole-population aware fraction when the workload finished.
    pub final_aware_total: f64,
}

impl UpdateOutcome {
    /// Rounds from initiation to convergence, if the update converged.
    pub fn rounds_to_converge(&self) -> Option<u32> {
        self.converged_round.map(|r| r - self.initiated_round)
    }
}

/// Outcome of executing a multi-update schedule through
/// [`Driver::run_workload`](crate::Driver::run_workload).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadReport {
    /// Rounds executed by the workload call.
    pub rounds: u32,
    /// Messages sent during the workload (delta, all kinds).
    pub messages: u64,
    /// Initial online population (normalisation denominator).
    pub initial_online: usize,
    /// Scheduled events that could not be initiated before the horizon
    /// ended (nobody was online when their round came up).
    pub dropped_events: usize,
    /// Per-update outcomes in initiation order.
    pub updates: Vec<UpdateOutcome>,
}

impl WorkloadReport {
    /// Fraction of initiated updates that reached the convergence target.
    pub fn converged_fraction(&self) -> f64 {
        if self.updates.is_empty() {
            return 0.0;
        }
        let converged = self
            .updates
            .iter()
            .filter(|u| u.converged_round.is_some())
            .count();
        converged as f64 / self.updates.len() as f64
    }

    /// Mean rounds-to-convergence over the updates that converged.
    pub fn mean_rounds_to_converge(&self) -> Option<f64> {
        let latencies: Vec<f64> = self
            .updates
            .iter()
            .filter_map(|u| u.rounds_to_converge().map(f64::from))
            .collect();
        if latencies.is_empty() {
            None
        } else {
            Some(latencies.iter().sum::<f64>() / latencies.len() as f64)
        }
    }

    /// Mean final online awareness over all initiated updates.
    pub fn mean_final_awareness(&self) -> f64 {
        if self.updates.is_empty() {
            return 0.0;
        }
        self.updates
            .iter()
            .map(|u| u.final_aware_online)
            .sum::<f64>()
            / self.updates.len() as f64
    }

    /// Workload messages per initially-online peer.
    pub fn messages_per_initial_online(&self) -> f64 {
        if self.initial_online == 0 {
            0.0
        } else {
            self.messages as f64 / self.initial_online as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_report(protocol_messages: u64, total_messages: u64, initial_online: usize) -> RunReport {
        RunReport {
            rounds: 0,
            aware_online_fraction: 0.0,
            aware_total_fraction: 0.0,
            protocol_messages,
            total_messages,
            total_bytes: 0,
            total_wasted: 0,
            initial_online,
            per_round: Vec::new(),
            per_round_sent: RoundSeries::new("messages sent"),
        }
    }

    #[test]
    fn normalisation_guards_zero() {
        let r = RunReport {
            total_wasted: 5,
            ..run_report(10, 10, 0)
        };
        assert_eq!(r.messages_per_initial_online(), 0.0);
        assert!(r.awareness_cost_series().is_empty());
        assert!((r.wasted_fraction() - 0.5).abs() < 1e-12);
        assert_eq!(run_report(0, 0, 10).mean_message_bytes(), 0.0);
    }

    #[test]
    fn workload_report_aggregates() {
        let outcome = |sequence, initiated, converged: Option<u32>, aware| UpdateOutcome {
            update: UpdateId::from_bits(u128::from(sequence) + 1),
            key: DataKey::new(1),
            delete: sequence % 2 == 1,
            sequence,
            initiated_round: initiated,
            converged_round: converged,
            final_aware_online: aware,
            final_aware_total: aware / 2.0,
        };
        let report = WorkloadReport {
            rounds: 50,
            messages: 200,
            initial_online: 20,
            dropped_events: 0,
            updates: vec![
                outcome(0, 0, Some(4), 1.0),
                outcome(1, 10, Some(16), 1.0),
                outcome(2, 20, None, 0.5),
            ],
        };
        assert!((report.converged_fraction() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(report.mean_rounds_to_converge(), Some(5.0));
        assert!((report.mean_final_awareness() - 2.5 / 3.0).abs() < 1e-12);
        assert_eq!(report.messages_per_initial_online(), 10.0);
        assert_eq!(report.updates[2].rounds_to_converge(), None);
    }

    #[test]
    fn empty_workload_report_guards_division() {
        let report = WorkloadReport {
            rounds: 0,
            messages: 0,
            initial_online: 0,
            dropped_events: 0,
            updates: Vec::new(),
        };
        assert_eq!(report.converged_fraction(), 0.0);
        assert_eq!(report.mean_rounds_to_converge(), None);
        assert_eq!(report.mean_final_awareness(), 0.0);
        assert_eq!(report.messages_per_initial_online(), 0.0);
    }

    #[test]
    fn series_uses_push_messages() {
        let r = RunReport {
            rounds: 1,
            aware_online_fraction: 0.5,
            aware_total_fraction: 0.25,
            per_round: vec![RoundObservation {
                round: 0,
                online: 10,
                aware_online: 5,
                f_aware: 0.5,
                cum_messages: 30,
                cum_push_messages: 20,
            }],
            ..run_report(20, 30, 10)
        };
        // The figure axis counts pushes; the scalar counts every message.
        assert_eq!(r.awareness_cost_series(), vec![(0.5, 2.0)]);
        assert_eq!(r.messages_per_initial_online(), 3.0);
    }
}
