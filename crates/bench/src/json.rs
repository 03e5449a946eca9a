//! JSON emission for experiment artefacts.
//!
//! The offline `serde` shim provides no serialization framework, so the
//! experiment payload types serialise through [`ToJson`] instead: one
//! implementation per payload `paper` writes, each building
//! the workspace's shared [`Json`] value. Output is plain
//! standards-compliant JSON, so downstream plotting scripts see the same
//! artefacts they would with `serde_json`.

use crate::ablation::AblationRow;
use crate::artefact::FigureArtefact;
use crate::experiments::{FigureSeries, FloodingRow, PullRow};
use crate::extensions::{BimodalReport, HeterogeneityRow};
use crate::head_to_head::{ContenderRow, ContenderSummary};
use crate::simfig::{ReplicatedSeries, ValidationRow};
use rumor_analysis::{PfSchedule, PushOutcome, PushParams, RoundRow, SchemeResult};
use rumor_metrics::SampleStats;
use rumor_types::json::Json;

/// Conversion into the [`Json`] document model.
pub trait ToJson {
    /// Converts `self` into a JSON document.
    fn to_json(&self) -> Json;
}

impl ToJson for Json {
    fn to_json(&self) -> Json {
        self.clone()
    }
}

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::from_f64(*self)
    }
}

impl ToJson for u32 {
    fn to_json(&self) -> Json {
        Json::from_u32(*self)
    }
}

impl ToJson for u64 {
    fn to_json(&self) -> Json {
        Json::from_u64(*self)
    }
}

impl ToJson for usize {
    fn to_json(&self) -> Json {
        Json::from_usize(*self)
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl ToJson for (f64, f64) {
    fn to_json(&self) -> Json {
        Json::Arr(vec![self.0.to_json(), self.1.to_json()])
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        self.as_ref().map_or(Json::Null, ToJson::to_json)
    }
}

impl ToJson for FigureSeries {
    fn to_json(&self) -> Json {
        Json::obj([
            ("label", self.label.to_json()),
            ("points", self.points.to_json()),
            ("rounds", self.rounds.to_json()),
            ("died", self.died.to_json()),
            ("total_per_peer", self.total_per_peer.to_json()),
            ("final_awareness", self.final_awareness.to_json()),
        ])
    }
}

impl ToJson for PullRow {
    fn to_json(&self) -> Json {
        Json::obj([
            ("f_aware", self.f_aware.to_json()),
            ("attempts", self.attempts.to_json()),
            ("probability", self.probability.to_json()),
        ])
    }
}

impl ToJson for FloodingRow {
    fn to_json(&self) -> Json {
        Json::obj([
            ("fanout", self.fanout.to_json()),
            ("pure_flooding", self.pure_flooding.to_json()),
            ("gnutella_per_peer", self.gnutella_per_peer.to_json()),
            ("attempts_10_targets", self.attempts_10_targets.to_json()),
        ])
    }
}

impl ToJson for SampleStats {
    /// The replication-statistics block every Monte Carlo artefact
    /// publishes: `mean/ci95/stddev/n` plus extrema. `ci95` is the
    /// half-width of the Student-t interval (`null` when `n < 2`, where
    /// dispersion is unknowable).
    fn to_json(&self) -> Json {
        let ci = self.ci95();
        Json::obj([
            ("mean", self.mean().to_json()),
            ("ci95", ci.half_width().to_json()),
            ("stddev", self.std_dev().to_json()),
            ("n", self.n().to_json()),
            ("min", self.min().to_json()),
            ("max", self.max().to_json()),
            ("median", self.median().to_json()),
        ])
    }
}

impl ToJson for ValidationRow {
    fn to_json(&self) -> Json {
        Json::obj([
            ("setting", self.setting.to_json()),
            ("model_cost", self.model_cost.to_json()),
            ("sim_cost", self.sim_cost.to_json()),
            ("model_awareness", self.model_awareness.to_json()),
            ("sim_awareness", self.sim_awareness.to_json()),
            ("model_rounds", self.model_rounds.to_json()),
            ("sim_rounds", self.sim_rounds.to_json()),
            ("trials", self.trials.to_json()),
        ])
    }
}

impl ToJson for ReplicatedSeries {
    fn to_json(&self) -> Json {
        Json::obj([
            ("label", self.label.to_json()),
            ("n", self.n.to_json()),
            ("total_per_peer", self.total_per_peer.to_json()),
            ("rounds", self.rounds.to_json()),
            ("final_awareness", self.final_awareness.to_json()),
            ("died_fraction", self.died_fraction.to_json()),
        ])
    }
}

impl ToJson for FigureArtefact {
    fn to_json(&self) -> Json {
        Json::obj([
            ("figure", self.figure.to_json()),
            ("analytic", self.analytic.to_json()),
            ("simulated", self.simulated.to_json()),
        ])
    }
}

impl ToJson for ContenderSummary {
    fn to_json(&self) -> Json {
        Json::obj([
            ("protocol", self.protocol.to_json()),
            ("n", self.n.to_json()),
            ("protocol_messages", self.protocol_messages.to_json()),
            ("total_messages", self.total_messages.to_json()),
            ("total_bytes", self.total_bytes.to_json()),
            ("mean_message_bytes", self.mean_message_bytes.to_json()),
            (
                "messages_per_initial_online",
                self.messages_per_initial_online.to_json(),
            ),
            ("coverage", self.coverage.to_json()),
            ("rounds", self.rounds.to_json()),
        ])
    }
}

impl ToJson for BimodalReport {
    fn to_json(&self) -> Json {
        Json::obj([
            ("awareness", self.awareness.to_json()),
            ("low", self.low.to_json()),
            ("high", self.high.to_json()),
            ("middle", self.middle.to_json()),
            ("stats", self.stats.to_json()),
            ("is_bimodal", self.is_bimodal().to_json()),
        ])
    }
}

impl ToJson for HeterogeneityRow {
    fn to_json(&self) -> Json {
        Json::obj([
            ("scenario", self.scenario.to_json()),
            ("awareness", self.awareness.to_json()),
            ("cost", self.cost.to_json()),
            ("rounds", self.rounds.to_json()),
        ])
    }
}

impl ToJson for AblationRow {
    fn to_json(&self) -> Json {
        Json::obj([
            ("variant", self.variant.to_json()),
            ("push_cost", self.push_cost.to_json()),
            ("duplicates", self.duplicates.to_json()),
            ("total_cost", self.total_cost.to_json()),
            ("awareness", self.awareness.to_json()),
            ("rounds", self.rounds.to_json()),
        ])
    }
}

impl ToJson for PfSchedule {
    fn to_json(&self) -> Json {
        match self {
            PfSchedule::One => Json::from_text("One"),
            PfSchedule::Constant(p) => Json::obj([("Constant", p.to_json())]),
            PfSchedule::Linear { rate } => {
                Json::obj([("Linear", Json::obj([("rate", rate.to_json())]))])
            }
            PfSchedule::Exponential { base } => {
                Json::obj([("Exponential", Json::obj([("base", base.to_json())]))])
            }
            PfSchedule::OffsetExponential {
                scale,
                base,
                offset,
            } => Json::obj([(
                "OffsetExponential",
                Json::obj([
                    ("scale", scale.to_json()),
                    ("base", base.to_json()),
                    ("offset", offset.to_json()),
                ]),
            )]),
            PfSchedule::FloodThenGossip { p, k } => Json::obj([(
                "FloodThenGossip",
                Json::obj([("p", p.to_json()), ("k", k.to_json())]),
            )]),
        }
    }
}

impl ToJson for PushParams {
    fn to_json(&self) -> Json {
        Json::obj([
            ("total_replicas", self.total_replicas.to_json()),
            ("online_initial", self.online_initial.to_json()),
            ("sigma", self.sigma.to_json()),
            ("f_r", self.f_r.to_json()),
            ("pf", self.pf.to_json()),
            ("partial_list", self.partial_list.to_json()),
            ("list_threshold", self.list_threshold.to_json()),
            ("update_size", self.update_size.to_json()),
            ("delta", self.delta.to_json()),
            ("max_rounds", self.max_rounds.to_json()),
            ("awareness_target", self.awareness_target.to_json()),
            ("min_new_aware", self.min_new_aware.to_json()),
            ("died_threshold", self.died_threshold.to_json()),
        ])
    }
}

impl ToJson for RoundRow {
    fn to_json(&self) -> Json {
        Json::obj([
            ("t", self.t.to_json()),
            ("online", self.online.to_json()),
            ("pushers", self.pushers.to_json()),
            ("messages", self.messages.to_json()),
            ("cum_messages", self.cum_messages.to_json()),
            ("new_aware", self.new_aware.to_json()),
            ("f_aware", self.f_aware.to_json()),
            ("list_len", self.list_len.to_json()),
            ("message_bytes", self.message_bytes.to_json()),
        ])
    }
}

impl ToJson for PushOutcome {
    fn to_json(&self) -> Json {
        Json::obj([
            ("rows", self.rows.to_json()),
            ("total_messages", self.total_messages.to_json()),
            ("rounds", self.rounds.to_json()),
            ("final_awareness", self.final_awareness.to_json()),
            ("died", self.died.to_json()),
            ("params", self.params.to_json()),
        ])
    }
}

impl ToJson for SchemeResult {
    fn to_json(&self) -> Json {
        Json::obj([
            ("scheme", self.scheme.to_json()),
            ("messages_per_online", self.messages_per_online.to_json()),
            ("rounds", self.rounds.to_json()),
            ("final_awareness", self.final_awareness.to_json()),
            ("outcome", self.outcome.to_json()),
        ])
    }
}

impl ToJson for ContenderRow {
    fn to_json(&self) -> Json {
        Json::obj([
            ("protocol", self.protocol.to_json()),
            ("protocol_messages", self.protocol_messages.to_json()),
            ("total_messages", self.total_messages.to_json()),
            ("total_bytes", self.total_bytes.to_json()),
            ("mean_message_bytes", self.mean_message_bytes.to_json()),
            (
                "messages_per_initial_online",
                self.messages_per_initial_online.to_json(),
            ),
            ("coverage", self.coverage.to_json()),
            ("rounds", self.rounds.to_json()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_escape_control_characters() {
        let j = "a\"b\\c\nd\u{1}".to_string().to_json();
        assert_eq!(j.pretty(), "\"a\\\"b\\\\c\\nd\\u0001\"");
    }

    #[test]
    fn numbers_render_json_style() {
        assert_eq!(3.0f64.to_json().pretty(), "3.0");
        assert_eq!(0.5f64.to_json().pretty(), "0.5");
        assert_eq!(f64::NAN.to_json().pretty(), "null");
        assert_eq!(12u64.to_json().pretty(), "12");
        assert_eq!(7u32.to_json().pretty(), "7");
        assert_eq!((0.25, 2.0).to_json().pretty(), "[\n  0.25,\n  2.0\n]");
    }

    #[test]
    fn flooding_row_includes_every_field() {
        let row = FloodingRow {
            fanout: 4.0,
            pure_flooding: 1.0,
            gnutella_per_peer: 2.0,
            attempts_10_targets: 3.0,
        };
        let text = row.to_json().pretty();
        for key in [
            "fanout",
            "pure_flooding",
            "gnutella_per_peer",
            "attempts_10_targets",
        ] {
            assert!(
                text.contains(&format!("\"{key}\"")),
                "missing {key} in {text}"
            );
        }
    }

    #[test]
    fn sample_stats_emit_mean_ci95_stddev_n() {
        let text = SampleStats::of(&[1.0, 2.0, 3.0]).to_json().pretty();
        for key in ["mean", "ci95", "stddev", "n", "min", "max", "median"] {
            assert!(
                text.contains(&format!("\"{key}\"")),
                "missing {key} in {text}"
            );
        }
        assert!(text.contains("\"n\": 3"));
        // A single sample has an unknowable dispersion: ci95 is null.
        let lone = SampleStats::of(&[5.0]).to_json().pretty();
        assert!(lone.contains("\"ci95\": null"), "{lone}");
    }

    #[test]
    fn figure_series_includes_every_field() {
        let s = FigureSeries {
            label: "c".into(),
            points: vec![(0.1, 2.0)],
            rounds: 3,
            died: false,
            total_per_peer: 2.0,
            final_awareness: 0.9,
        };
        let text = s.to_json().pretty();
        for key in [
            "label",
            "points",
            "rounds",
            "died",
            "total_per_peer",
            "final_awareness",
        ] {
            assert!(
                text.contains(&format!("\"{key}\"")),
                "missing {key} in {text}"
            );
        }
    }
}
