//! The driver's message accounting.

use rumor_metrics::RoundSeries;
use serde::{Deserialize, Serialize};

/// Message counts kept by the [`Driver`](crate::Driver).
///
/// The paper's cost metric counts every message *sent*, "including
/// messages to offline replicas" (§4.2); `sent` is therefore the number to
/// normalise by `R_on[0]` when reproducing the figures. The split into
/// delivered / lost-to-offline / lost-to-fault is extra observability the
/// paper's analysis folds into a single number.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EngineStats {
    /// Messages handed to the driver (the paper's message count).
    pub sent: u64,
    /// Encoded wire bytes of the messages in `sent`, as sized by the
    /// mounted protocol's [`Protocol::wire_sizer`](crate::Protocol::wire_sizer)
    /// (zero when it has none — e.g. for toy message types without a wire
    /// format). One frame per message: header plus payload, per
    /// `rumor-wire`.
    pub bytes_sent: u64,
    /// Messages delivered to an online peer.
    pub delivered: u64,
    /// Messages addressed to a peer that was offline at delivery time.
    pub lost_offline: u64,
    /// Messages dropped by a link fault (loss model or partition).
    pub lost_fault: u64,
    per_round_sent: RoundSeries,
}

impl EngineStats {
    /// Creates zeroed statistics.
    pub fn new() -> Self {
        Self {
            sent: 0,
            bytes_sent: 0,
            delivered: 0,
            lost_offline: 0,
            lost_fault: 0,
            per_round_sent: RoundSeries::new("messages sent"),
        }
    }

    pub(crate) fn record_sent(&mut self, n: u64) {
        self.sent += n;
    }

    pub(crate) fn record_bytes(&mut self, n: u64) {
        self.bytes_sent += n;
    }

    /// Mean encoded bytes per sent message (0 when nothing was sent or
    /// no sizer is installed).
    pub fn mean_message_bytes(&self) -> f64 {
        if self.sent == 0 {
            0.0
        } else {
            self.bytes_sent as f64 / self.sent as f64
        }
    }

    pub(crate) fn close_round(&mut self, round: u32, sent_this_round: u64) {
        self.per_round_sent.record(round, sent_this_round as f64);
    }

    /// Per-round sent-message series (one point per completed round).
    pub fn per_round_sent(&self) -> &RoundSeries {
        &self.per_round_sent
    }

    /// Messages that reached nobody (offline target or link fault).
    pub fn wasted(&self) -> u64 {
        self.lost_offline + self.lost_fault
    }
}

impl Default for EngineStats {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accounting_sums() {
        let mut s = EngineStats::new();
        s.record_sent(10);
        s.delivered = 4;
        s.lost_offline = 5;
        s.lost_fault = 1;
        assert_eq!(s.sent, 10);
        assert_eq!(s.wasted(), 6);
    }

    #[test]
    fn byte_accounting_and_mean() {
        let mut s = EngineStats::new();
        assert_eq!(s.mean_message_bytes(), 0.0, "no sends, no mean");
        s.record_sent(4);
        s.record_bytes(100);
        assert_eq!(s.bytes_sent, 100);
        assert_eq!(s.mean_message_bytes(), 25.0);
    }

    #[test]
    fn per_round_series_records() {
        let mut s = EngineStats::new();
        s.close_round(0, 3);
        s.close_round(1, 7);
        assert_eq!(s.per_round_sent().points().len(), 2);
        assert_eq!(s.per_round_sent().total(), 10.0);
    }
}
