//! The metric catalogue: every name the runner emits, with its unit and
//! direction. `BENCHMARK.json` repeats these and adds the regression
//! bounds; `tests/contract.rs` keeps the two in step.

use crate::json::Json;

/// One metric of the catalogue.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Metric {
    /// Name, as printed and as keyed in result files.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// `true` when a larger value is better.
    pub higher_is_better: bool,
}

fn lower(name: impl Into<String>, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        unit,
        higher_is_better: false,
    }
}

fn higher(name: impl Into<String>, unit: &'static str) -> Metric {
    Metric {
        higher_is_better: true,
        ..lower(name, unit)
    }
}

/// What a user of the system sees; from the untraced pass only.
pub fn end_to_end() -> Vec<Metric> {
    vec![
        lower("setup_s", "s"),
        higher("rounds_per_s", "1/s"),
        lower("update_latency_ms_p50", "ms"),
        lower("update_latency_ms_p90", "ms"),
        lower("rounds_per_update", "count"),
        lower("msgs_per_update_per_replica", "count"),
        lower("bytes_per_msg", "B"),
        lower("peak_rss_mb", "MB"),
    ]
}

/// The catalogue a pass prints: per-layer when traced, end-to-end when not.
pub fn catalogue(traced: bool) -> Vec<Metric> {
    if traced {
        per_layer()
    } else {
        end_to_end()
    }
}

/// Message-kind suffixes, in [`crate::span::KINDS`] order.
pub const KIND_NAMES: [&str; 6] = [
    "push",
    "pull_req",
    "pull_resp",
    "delta_req",
    "delta_resp",
    "ack",
];

/// The per-layer catalogue, in print order. Layer = crate name. Every
/// workload emits every name; one that does not apply to a workload (a
/// `cluster.*` metric on the engine path, `core.*` under anti-entropy)
/// reads 0.
pub fn per_layer() -> Vec<Metric> {
    let mut m = vec![
        lower("sim.build_s", "s"),
        lower("sim.mount_s", "s"),
        lower("cluster.mount_s", "s"),
        lower("cluster.finish_s", "s"),
        lower("sim.probe_s", "s"),
        lower("sim.probe_n", "count"),
    ];
    for layer in ["core", "baselines"] {
        for call in [
            "on_message",
            "on_round_start",
            "on_status_change",
            "on_timer",
        ] {
            m.push(lower(format!("{layer}.{call}_s"), "s"));
            m.push(lower(format!("{layer}.{call}_n"), "count"));
        }
        m.push(lower(format!("{layer}.initiate_s"), "s"));
        m.push(lower(format!("{layer}.busy_s"), "s"));
        m.push(lower(format!("{layer}.busy_share"), "share"));
    }
    for kind in KIND_NAMES {
        m.push(lower(format!("core.in.{kind}_n"), "count"));
        m.push(lower(format!("core.in.{kind}_s"), "s"));
    }
    m.extend([
        lower("core.out_sends_per_message", "count"),
        lower("core.callback_ns_growth", "ratio"),
        lower("core.partial_list_union_ns", "ns"),
        lower("core.store_apply_ns", "ns"),
        lower("core.store_digest_ns", "ns"),
        lower("wire.encode_ns_per_msg", "ns"),
        lower("wire.decode_ns_per_msg", "ns"),
        lower("wire.frame_len_ns_per_msg", "ns"),
        lower("wire.est_busy_s", "s"),
        lower("wire.est_busy_share", "share"),
    ]);
    for kind in KIND_NAMES {
        m.push(lower(format!("wire.bytes_per_msg.{kind}"), "B"));
    }
    for kind in KIND_NAMES {
        m.push(lower(format!("wire.bytes_share.{kind}"), "share"));
    }
    m.extend([
        higher("wire.msgs_per_frame", "count"),
        lower("net.self_s", "s"),
        lower("net.self_share", "share"),
        lower("net.self_ns_per_msg", "ns"),
        lower("net.sent_n", "count"),
        lower("net.wasted_share", "share"),
        lower("churn.step_ns_per_round", "ns"),
        lower("cluster.cpu_s", "s"),
        higher("cluster.cpu_util", "share"),
        lower("cluster.overhead_cpu_s", "s"),
        lower("cluster.round_ms_mean", "ms"),
        lower("cluster.virtual_round_ms_mean", "ms"),
        higher("cluster.parallel_speedup", "ratio"),
        lower("alloc.per_round", "count"),
        lower("alloc.bytes_per_round", "B"),
        lower("alloc.per_msg", "count"),
        lower("obs.capture_overhead_ratio", "ratio"),
        lower("obs.events_n", "count"),
        lower("obs.dropped_n", "count"),
        lower("trace.overhead_ratio", "ratio"),
    ]);
    m
}

/// Measured values keyed by metric name, in insertion order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Values(Vec<(String, f64)>);

impl Values {
    /// Records `name = value` (a later value replaces an earlier one).
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        let name = name.into();
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name, value)),
        }
    }

    /// The value recorded for `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// The contract's `metrics` object: every catalogue entry with its
    /// value (0 where the workload recorded none) and unit.
    pub fn to_json(&self, catalogue: &[Metric]) -> Json {
        Json::obj(catalogue.iter().map(|m| {
            let value = self.get(&m.name).unwrap_or(0.0);
            (
                m.name.as_str(),
                Json::obj([("value", Json::Num(value)), ("unit", Json::str(m.unit))]),
            )
        }))
    }

    /// One `name value unit` line per catalogue entry.
    pub fn table(&self, catalogue: &[Metric]) -> String {
        catalogue
            .iter()
            .map(|m| {
                format!(
                    "{} {} {}\n",
                    m.name,
                    self.get(&m.name).unwrap_or(0.0),
                    m.unit
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_names_fit_the_contract() {
        let layers = per_layer();
        assert!(layers.len() <= 128, "{} per-layer metrics", layers.len());
        let end_to_end = end_to_end();
        let mut names: Vec<&str> = end_to_end
            .iter()
            .chain(&layers)
            .map(|m| m.name.as_str())
            .collect();
        for name in &names {
            assert!(name.len() <= 64, "{name} too long");
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before, "metric names are unique");
    }

    #[test]
    fn missing_values_read_zero_and_later_sets_replace() {
        let mut v = Values::default();
        v.set("setup_s", 1.5);
        v.set("setup_s", 2.5);
        assert_eq!(v.get("setup_s"), Some(2.5));
        let json = v.to_json(&end_to_end());
        assert_eq!(json.members().len(), end_to_end().len());
        let setup = json.get("setup_s").unwrap();
        assert_eq!(setup.get("value").and_then(Json::as_f64), Some(2.5));
        assert_eq!(setup.get("unit").and_then(Json::as_str), Some("s"));
        let missing = json.get("rounds_per_s").unwrap();
        assert_eq!(missing.get("value").and_then(Json::as_f64), Some(0.0));
    }
}
