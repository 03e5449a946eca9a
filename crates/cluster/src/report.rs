//! Aggregated outcome of a cluster run.

use crate::cell::CellStats;
use rumor_types::PeerId;

/// What a cluster run produced: wire-level traffic totals (frames *and*
/// bytes — every message crossed the `rumor-wire` codec), fault counts,
/// and the awareness outcome for the tracked update.
///
/// `aware_set` is the sorted list of every replica aware of the tracked
/// update — crashed and churn-offline replicas included — so two runs of
/// the same scenario can be compared set-for-set (the cluster/engine
/// parity suite does exactly that).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ClusterReport {
    /// Rounds (ticks) executed.
    pub rounds: u32,
    /// Frames handed to the transport (sends to offline peers included,
    /// per the paper's overhead metric).
    pub frames_sent: u64,
    /// Encoded bytes of `frames_sent` (header + payload per frame).
    pub bytes_sent: u64,
    /// Logical protocol messages inside `frames_sent`. Equal to
    /// `frames_sent` under wire v1 (one message per frame); larger under
    /// wire v2, where per-peer batch frames carry whole round groups.
    pub messages_sent: u64,
    /// Frames delivered to an online node and decoded successfully.
    pub frames_delivered: u64,
    /// Encoded bytes of `frames_delivered`.
    pub bytes_delivered: u64,
    /// Logical messages handed to nodes out of `frames_delivered`.
    pub messages_delivered: u64,
    /// Frames dropped because the target was offline or crashed.
    pub lost_offline: u64,
    /// Frames dropped by the link-fault filter (loss / partition).
    pub lost_fault: u64,
    /// Frames that failed strict decoding (0 in a healthy cluster).
    pub decode_errors: u64,
    /// Frames dropped for carrying a codec version the receiver does
    /// not speak — v1/v2 coexistence drops, counted apart from
    /// `decode_errors` (0 in a version-homogeneous cluster).
    pub version_mismatches: u64,
    /// Sends the Byzantine members tampered with (0 without adversaries).
    pub frames_tampered: u64,
    /// Node crashes injected.
    pub crashes: u64,
    /// Node restarts performed.
    pub restarts: u64,
    /// Nodes online (and not crashed) at the end of the run.
    pub online: usize,
    /// Of those, how many were aware of the tracked update.
    pub aware_online: usize,
    /// First round at which every online node was aware, if reached.
    pub converged_round: Option<u32>,
    /// Every aware replica (offline included), sorted ascending.
    pub aware_set: Vec<PeerId>,
    /// Replicas mounted as Byzantine members.
    pub byzantine: usize,
}

impl ClusterReport {
    /// Sums per-cell traffic stats into a report; the conductor fills in
    /// the run outcome (rounds, faults, awareness).
    pub(crate) fn fold<'a>(stats: impl IntoIterator<Item = &'a CellStats>) -> Self {
        let mut total = CellStats::default();
        for cell in stats {
            total.absorb(cell);
        }
        Self {
            frames_sent: total.sent,
            bytes_sent: total.bytes_sent,
            messages_sent: total.messages_sent,
            frames_delivered: total.delivered,
            bytes_delivered: total.bytes_delivered,
            messages_delivered: total.messages_delivered,
            lost_offline: total.lost_offline,
            lost_fault: total.lost_fault,
            decode_errors: total.decode_errors,
            version_mismatches: total.version_mismatches,
            frames_tampered: total.tampered,
            ..Self::default()
        }
    }

    /// Aware fraction of the final online population.
    pub fn aware_online_fraction(&self) -> f64 {
        if self.online == 0 {
            0.0
        } else {
            self.aware_online as f64 / self.online as f64
        }
    }

    /// Mean encoded frame size over everything sent.
    pub fn mean_frame_bytes(&self) -> f64 {
        if self.frames_sent == 0 {
            0.0
        } else {
            self.bytes_sent as f64 / self.frames_sent as f64
        }
    }

    /// Mean wire bytes per *logical message* sent — the bandwidth-diet
    /// metric. Under wire v1 this equals [`ClusterReport::mean_frame_bytes`];
    /// under wire v2 batching amortises headers across the group and
    /// this falls below it.
    pub fn mean_message_bytes(&self) -> f64 {
        if self.messages_sent == 0 {
            0.0
        } else {
            self.bytes_sent as f64 / self.messages_sent as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> ClusterReport {
        ClusterReport {
            rounds: 10,
            frames_sent: 4,
            bytes_sent: 100,
            messages_sent: 10,
            frames_delivered: 3,
            bytes_delivered: 75,
            messages_delivered: 8,
            lost_offline: 1,
            lost_fault: 0,
            decode_errors: 0,
            version_mismatches: 0,
            frames_tampered: 0,
            crashes: 1,
            restarts: 1,
            online: 8,
            aware_online: 6,
            converged_round: None,
            aware_set: vec![PeerId::new(0)],
            byzantine: 0,
        }
    }

    #[test]
    fn derived_fractions() {
        let r = report();
        assert_eq!(r.aware_online_fraction(), 0.75);
        assert_eq!(r.mean_frame_bytes(), 25.0);
        assert_eq!(r.mean_message_bytes(), 10.0);
    }

    #[test]
    fn zero_guards() {
        let mut r = report();
        r.online = 0;
        r.frames_sent = 0;
        r.messages_sent = 0;
        assert_eq!(r.aware_online_fraction(), 0.0);
        assert_eq!(r.mean_frame_bytes(), 0.0);
        assert_eq!(r.mean_message_bytes(), 0.0);
    }
}
