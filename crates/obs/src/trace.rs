//! The trace document: canonical ordering, the environment sub-trace,
//! the `rumor-obs/trace/v1` JSON artefact, and trace diffing.

use crate::analysis;
use crate::event::TraceEvent;
use rumor_metrics::RoundSeries;
use rumor_types::json::Json;

/// Schema identifier written into every trace artefact.
pub const TRACE_SCHEMA: &str = "rumor-obs/trace/v1";

/// A complete captured run: identifying metadata plus the event stream
/// in canonical `(round, node, seq)` order.
///
/// Determinism contract: for a given seed the full document is
/// byte-identical across runs on the single-threaded deterministic
/// executors (engine, `VirtualCluster`), and the
/// [environment sub-trace](TraceDoc::environment) is additionally
/// byte-identical across *all* executors and worker counts, because it
/// contains only conductor-side decisions (round boundaries, churn,
/// crash/restart, initiations) drawn from seeded streams the message
/// interleaving cannot perturb.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceDoc {
    /// Human-readable run label (scenario or contender name).
    pub label: String,
    /// The run's master seed.
    pub seed: u64,
    /// Population size of the traced run.
    pub population: u32,
    /// Events in canonical order.
    pub events: Vec<TraceEvent>,
}

impl TraceDoc {
    /// Builds a document from one event buffer, sorting it into
    /// canonical order.
    pub fn new(label: &str, seed: u64, population: u32, mut events: Vec<TraceEvent>) -> Self {
        events.sort_by_key(TraceEvent::key);
        Self {
            label: label.to_owned(),
            seed,
            population,
            events,
        }
    }

    /// Merges several per-cell buffers (each already per-node coherent)
    /// into one canonical document — how the cluster conductor
    /// assembles a trace from its cells' local captures.
    pub fn merge(
        label: &str,
        seed: u64,
        population: u32,
        buffers: impl IntoIterator<Item = Vec<TraceEvent>>,
    ) -> Self {
        let mut events: Vec<TraceEvent> = buffers.into_iter().flatten().collect();
        events.sort_by_key(TraceEvent::key);
        Self {
            label: label.to_owned(),
            seed,
            population,
            events,
        }
    }

    /// The environment sub-trace: only events with
    /// [`EventKind::is_environment`](crate::EventKind::is_environment)
    /// retained, order preserved.
    pub fn environment(&self) -> Self {
        Self {
            label: self.label.clone(),
            seed: self.seed,
            population: self.population,
            events: self
                .events
                .iter()
                .filter(|e| e.kind.is_environment())
                .copied()
                .collect(),
        }
    }

    /// Rounds spanned by the trace (highest stamped round + 1).
    pub fn rounds(&self) -> u32 {
        self.events.iter().map(|e| e.round + 1).max().unwrap_or(0)
    }

    /// Renders the `rumor-obs/trace/v1` artefact: metadata, the raw
    /// event stream (one compact object per line), and the derived
    /// sections — awareness curves and dissemination trees per tracked
    /// update, plus per-round send/byte series. Ends with a newline.
    pub fn to_json(&self) -> String {
        let updates = analysis::updates(&self.events);
        let per_update: Vec<Json> = updates
            .iter()
            .map(|&u| {
                Json::obj([
                    ("update", Json::from_u32(u)),
                    (
                        "awareness",
                        series_json(&analysis::awareness_curve(&self.events, u)),
                    ),
                    (
                        "tree",
                        Json::Arr(
                            analysis::dissemination_tree(&self.events, u)
                                .into_iter()
                                .map(|edge| {
                                    Json::obj([
                                        ("node", Json::from_u32(edge.node)),
                                        ("parent", edge.parent.map_or(Json::Null, Json::from_u32)),
                                        ("round", Json::from_u32(edge.round)),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                ])
            })
            .collect();
        let doc = Json::obj([
            ("schema", Json::from_text(TRACE_SCHEMA)),
            ("label", Json::from_text(&self.label)),
            ("seed", Json::from_u64(self.seed)),
            ("population", Json::from_u32(self.population)),
            ("rounds", Json::from_u32(self.rounds())),
            ("event_count", Json::from_usize(self.events.len())),
            (
                "events",
                Json::Arr(
                    self.events
                        .iter()
                        .map(|e| Json::Raw(e.compact_json()))
                        .collect(),
                ),
            ),
            (
                "derived",
                Json::obj([
                    (
                        "sends_per_round",
                        series_json(&analysis::sends_per_round(&self.events)),
                    ),
                    (
                        "bytes_per_round",
                        series_json(&analysis::bytes_per_round(&self.events)),
                    ),
                    ("updates", Json::Arr(per_update)),
                ]),
            ),
        ]);
        doc.pretty() + "\n"
    }

    /// First difference between two traces, as a human-readable
    /// description, or `None` when they are identical. Metadata is
    /// compared first, then events pairwise in canonical order.
    pub fn diff(&self, other: &Self) -> Option<String> {
        if self.label != other.label {
            return Some(format!("label: {:?} vs {:?}", self.label, other.label));
        }
        if self.seed != other.seed {
            return Some(format!("seed: {} vs {}", self.seed, other.seed));
        }
        if self.population != other.population {
            return Some(format!(
                "population: {} vs {}",
                self.population, other.population
            ));
        }
        for (i, (a, b)) in self.events.iter().zip(&other.events).enumerate() {
            if a != b {
                return Some(format!(
                    "event {i}: {} vs {}",
                    a.compact_json(),
                    b.compact_json()
                ));
            }
        }
        if self.events.len() != other.events.len() {
            let (longer, n) = if self.events.len() > other.events.len() {
                (&self.events, other.events.len())
            } else {
                (&other.events, self.events.len())
            };
            return Some(format!(
                "length: {} vs {} (first extra: {})",
                self.events.len(),
                other.events.len(),
                longer[n].compact_json()
            ));
        }
        None
    }
}

/// Renders a [`RoundSeries`] as an array of `[round, value]` pairs.
fn series_json(series: &RoundSeries) -> Json {
    Json::Arr(
        series
            .points()
            .iter()
            .map(|p| Json::Arr(vec![Json::from_u32(p.round), Json::from_f64(p.value)]))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{EventKind, MsgKind, CONDUCTOR};

    fn ev(round: u32, node: u32, seq: u32, kind: EventKind) -> TraceEvent {
        TraceEvent {
            round,
            node,
            seq,
            kind,
        }
    }

    fn sample() -> TraceDoc {
        TraceDoc::merge(
            "sample",
            7,
            2,
            [
                vec![
                    ev(0, CONDUCTOR, 0, EventKind::RoundStart),
                    ev(0, 0, 0, EventKind::Initiate { update: 0 }),
                    ev(
                        0,
                        0,
                        1,
                        EventKind::Send {
                            to: 1,
                            kind: MsgKind::Push,
                            bytes: 80,
                        },
                    ),
                ],
                vec![
                    ev(
                        1,
                        1,
                        0,
                        EventKind::Deliver {
                            from: 0,
                            kind: MsgKind::Push,
                        },
                    ),
                    ev(1, 1, 1, EventKind::Aware { update: 0 }),
                    ev(1, CONDUCTOR, 1, EventKind::RoundStart),
                ],
            ],
        )
    }

    #[test]
    fn merge_sorts_canonically() {
        let doc = sample();
        let keys: Vec<_> = doc.events.iter().map(TraceEvent::key).collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted);
        assert_eq!(doc.events[0].node, CONDUCTOR, "conductor frames the round");
        assert_eq!(doc.rounds(), 2);
    }

    #[test]
    fn environment_subtrace_drops_message_level_events() {
        let env = sample().environment();
        assert_eq!(env.events.len(), 3); // 2 round starts + initiate
        assert!(env.events.iter().all(|e| e.kind.is_environment()));
    }

    #[test]
    fn json_carries_schema_and_derived_sections() {
        let json = sample().to_json();
        assert!(json.starts_with("{\n  \"schema\": \"rumor-obs/trace/v1\""));
        assert!(json.contains("\"sends_per_round\""));
        assert!(json.contains("\"tree\""));
        assert!(json.ends_with('\n'));
    }

    #[test]
    fn diff_reports_first_divergence() {
        let a = sample();
        assert_eq!(a.diff(&a.clone()), None);
        let mut b = sample();
        b.events.pop();
        let d = a.diff(&b).expect("length divergence");
        assert!(d.contains("length"), "{d}");
        let mut c = sample();
        c.events[2].kind = EventKind::Send {
            to: 1,
            kind: MsgKind::Push,
            bytes: 81,
        };
        let d = a.diff(&c).expect("event divergence");
        assert!(d.contains("event 2"), "{d}");
    }
}
