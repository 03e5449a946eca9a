//! The structured trace event model.
//!
//! Every event is stamped with *virtual time only*: the synchronous round
//! it happened in, the node it happened at, and a per-node sequence
//! number assigned at capture time. Wall-clock time never appears — that
//! is what keeps traces bit-reproducible across runs, executors and
//! worker counts.

/// Sentinel node id for events emitted by the experiment conductor (the
/// round loop itself) rather than by a peer: round boundaries, churn
/// decisions, convergence probes. Sorts *before* every real node within
/// a round in the canonical event order.
pub const CONDUCTOR: u32 = u32::MAX;

/// Coarse message classification for send/deliver events, produced by an
/// optional pure classifier function installed next to the wire sizer.
/// Engines that have no classifier stamp [`MsgKind::Other`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum MsgKind {
    /// Unclassified (no classifier installed, or an unknown variant).
    Other,
    /// A push-phase rumor message.
    Push,
    /// A pull-phase digest request (first attempt or retry — retries are
    /// visible as the [`EventKind::TimerFire`] that precedes them).
    PullRequest,
    /// A pull response carrying full missing updates.
    PullResponse,
    /// A wire-v2 delta pull request (the requester's digest fingerprint).
    DeltaRequest,
    /// A wire-v2 delta response carrying what the named state lacks.
    DeltaResponse,
    /// A §6 receipt acknowledgement.
    Ack,
}

impl MsgKind {
    /// Stable lowercase name used in JSON and timelines.
    pub const fn name(self) -> &'static str {
        match self {
            Self::Other => "other",
            Self::Push => "push",
            Self::PullRequest => "pull_req",
            Self::PullResponse => "pull_resp",
            Self::DeltaRequest => "delta_req",
            Self::DeltaResponse => "delta_resp",
            Self::Ack => "ack",
        }
    }
}

/// What happened. All payload fields are `Copy` — recording an event
/// never allocates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A round began (conductor or engine scope).
    RoundStart,
    /// A round closed; `sent` messages/frames were queued during it.
    RoundEnd {
        /// Messages handed to the transport during the round.
        sent: u64,
    },
    /// The node handed a message to the transport.
    Send {
        /// Destination peer.
        to: u32,
        /// Coarse message class.
        kind: MsgKind,
        /// Encoded frame bytes (0 when no sizer is installed).
        bytes: u32,
    },
    /// A message reached the node.
    Deliver {
        /// Originating peer.
        from: u32,
        /// Coarse message class.
        kind: MsgKind,
    },
    /// A message was dropped because the destination was offline.
    DropOffline {
        /// Originating peer.
        from: u32,
    },
    /// A message was dropped by a link fault (loss model or partition).
    DropLoss {
        /// Originating peer.
        from: u32,
    },
    /// The node's availability changed (churn transition).
    Status {
        /// New availability.
        online: bool,
    },
    /// A protocol timer fired at the node.
    TimerFire {
        /// The timer's tag, protocol-defined.
        tag: u64,
    },
    /// The node's process crashed (fault injection).
    Crash,
    /// The node's process restarted from a fresh replica.
    Restart,
    /// A Byzantine host tampered with one of the node's outgoing
    /// messages.
    Tamper,
    /// The node initiated a tracked update.
    Initiate {
        /// Dense per-trace update index (assigned in initiation order).
        update: u32,
    },
    /// A convergence probe first observed the node aware of an update.
    Aware {
        /// Dense per-trace update index.
        update: u32,
    },
    /// A conductor-level convergence probe summary.
    Probe {
        /// Nodes online at the probe.
        online: u32,
        /// Online nodes aware of the probed update.
        aware: u32,
    },
}

impl EventKind {
    /// Stable lowercase name used in JSON and timelines.
    pub const fn name(&self) -> &'static str {
        match self {
            Self::RoundStart => "round_start",
            Self::RoundEnd { .. } => "round_end",
            Self::Send { .. } => "send",
            Self::Deliver { .. } => "deliver",
            Self::DropOffline { .. } => "drop_offline",
            Self::DropLoss { .. } => "drop_loss",
            Self::Status { .. } => "status",
            Self::TimerFire { .. } => "timer",
            Self::Crash => "crash",
            Self::Restart => "restart",
            Self::Tamper => "tamper",
            Self::Initiate { .. } => "initiate",
            Self::Aware { .. } => "aware",
            Self::Probe { .. } => "probe",
        }
    }

    /// True for *environment* events: decisions the conductor (round
    /// loop, churn model, fault plan) makes independently of message
    /// interleaving. The environment sub-trace of a run is identical
    /// across the virtual-time and sharded executors and any worker
    /// count, while the full message-level trace is only reproducible on
    /// the single-threaded deterministic paths.
    pub const fn is_environment(&self) -> bool {
        matches!(
            self,
            Self::RoundStart
                | Self::Status { .. }
                | Self::Crash
                | Self::Restart
                | Self::Initiate { .. }
        )
    }
}

/// One captured event: `(round, node, seq)` plus the payload. The triple
/// is the canonical sort key — `seq` is per-node monotone within a
/// round, so merging per-cell buffers by this key yields one canonical
/// order regardless of which executor (or how many workers) produced
/// them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Virtual round the event happened in.
    pub round: u32,
    /// Node the event happened at ([`CONDUCTOR`] for conductor events).
    pub node: u32,
    /// Per-node capture sequence within the trace.
    pub seq: u32,
    /// The event payload.
    pub kind: EventKind,
}

impl TraceEvent {
    /// The canonical ordering key. The conductor sorts first within a
    /// round (its `u32::MAX` id wraps to 0), so round boundaries and
    /// churn decisions precede the node activity they frame.
    pub const fn key(&self) -> (u32, u32, u32) {
        (self.round, self.node.wrapping_add(1), self.seq)
    }

    /// Renders the event as one compact JSON object (no spaces, stable
    /// field order) — the line format used inside `TRACE_*.json`.
    pub fn compact_json(&self) -> String {
        let mut s = String::with_capacity(64);
        s.push_str("{\"round\":");
        s.push_str(&self.round.to_string());
        s.push_str(",\"node\":");
        if self.node == CONDUCTOR {
            s.push_str("\"conductor\"");
        } else {
            s.push_str(&self.node.to_string());
        }
        s.push_str(",\"seq\":");
        s.push_str(&self.seq.to_string());
        s.push_str(",\"ev\":\"");
        s.push_str(self.kind.name());
        s.push('"');
        match self.kind {
            EventKind::RoundStart | EventKind::Crash | EventKind::Restart | EventKind::Tamper => {}
            EventKind::RoundEnd { sent } => {
                s.push_str(",\"sent\":");
                s.push_str(&sent.to_string());
            }
            EventKind::Send { to, kind, bytes } => {
                s.push_str(",\"to\":");
                s.push_str(&to.to_string());
                s.push_str(",\"kind\":\"");
                s.push_str(kind.name());
                s.push_str("\",\"bytes\":");
                s.push_str(&bytes.to_string());
            }
            EventKind::Deliver { from, kind } => {
                s.push_str(",\"from\":");
                s.push_str(&from.to_string());
                s.push_str(",\"kind\":\"");
                s.push_str(kind.name());
                s.push('"');
            }
            EventKind::DropOffline { from } | EventKind::DropLoss { from } => {
                s.push_str(",\"from\":");
                s.push_str(&from.to_string());
            }
            EventKind::Status { online } => {
                s.push_str(",\"online\":");
                s.push_str(if online { "true" } else { "false" });
            }
            EventKind::TimerFire { tag } => {
                s.push_str(",\"tag\":");
                s.push_str(&tag.to_string());
            }
            EventKind::Initiate { update } | EventKind::Aware { update } => {
                s.push_str(",\"update\":");
                s.push_str(&update.to_string());
            }
            EventKind::Probe { online, aware } => {
                s.push_str(",\"online\":");
                s.push_str(&online.to_string());
                s.push_str(",\"aware\":");
                s.push_str(&aware.to_string());
            }
        }
        s.push('}');
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conductor_sorts_first_within_a_round() {
        let conductor = TraceEvent {
            round: 3,
            node: CONDUCTOR,
            seq: 9,
            kind: EventKind::RoundStart,
        };
        let node = TraceEvent {
            round: 3,
            node: 0,
            seq: 0,
            kind: EventKind::Crash,
        };
        assert!(conductor.key() < node.key());
        let earlier_round = TraceEvent {
            round: 2,
            node: 7,
            seq: 4,
            kind: EventKind::Crash,
        };
        assert!(earlier_round.key() < conductor.key());
    }

    #[test]
    fn compact_json_is_stable() {
        let ev = TraceEvent {
            round: 1,
            node: 4,
            seq: 2,
            kind: EventKind::Send {
                to: 9,
                kind: MsgKind::Push,
                bytes: 130,
            },
        };
        assert_eq!(
            ev.compact_json(),
            "{\"round\":1,\"node\":4,\"seq\":2,\"ev\":\"send\",\"to\":9,\"kind\":\"push\",\"bytes\":130}"
        );
        let probe = TraceEvent {
            round: 0,
            node: CONDUCTOR,
            seq: 0,
            kind: EventKind::Probe {
                online: 10,
                aware: 3,
            },
        };
        assert_eq!(
            probe.compact_json(),
            "{\"round\":0,\"node\":\"conductor\",\"seq\":0,\"ev\":\"probe\",\"online\":10,\"aware\":3}"
        );
    }

    #[test]
    fn environment_classification() {
        assert!(EventKind::RoundStart.is_environment());
        assert!(EventKind::Status { online: false }.is_environment());
        assert!(EventKind::Crash.is_environment());
        assert!(!EventKind::RoundEnd { sent: 1 }.is_environment());
        assert!(!EventKind::Deliver {
            from: 0,
            kind: MsgKind::Other
        }
        .is_environment());
    }
}
