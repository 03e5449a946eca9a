//! Byzantine degradation sweep: convergence probability as a function
//! of the Byzantine fraction.
//!
//! For each fraction the sweep forces a fixed fraction of the
//! population Byzantine (same behaviour at every point, views pinned
//! sparse — see [`SWEEP_SUBSET_K`]), runs a block of otherwise-random
//! cluster cases and measures how often the convergence oracle still
//! passes. The resulting curve is the fuzzer's headline artefact: it
//! shows where the paper protocol's redundancy stops absorbing
//! adversarial members.

use rumor_cluster::ByzantineBehaviour;

use crate::case::{behaviour_name, CaseSpec, ExecPath};
use crate::config::{ConfigError, FuzzConfig};
use rumor_types::json::Json;

/// Schema tag stamped into sweep artefacts.
pub const SWEEP_SCHEMA: &str = "rumor-fuzz/sweep/v1";

/// Knowledge-graph out-degree forced onto every sweep case. On a full
/// mesh the protocol's periodic anti-entropy absorbs even large liar
/// blocks (every pull has honest sources in range); the interesting
/// degradation happens on sparse views, where a peer whose whole view
/// is Byzantine has no honest repair path.
pub const SWEEP_SUBSET_K: usize = 3;

/// One measured point of the degradation curve.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    /// Byzantine fraction forced onto every case at this point.
    pub fraction: f64,
    /// Cases run at this point.
    pub cases: u32,
    /// Cases that passed the convergence oracle.
    pub converged: u32,
    /// `converged / cases`.
    pub convergence_probability: f64,
    /// Mean tampered sends per case.
    pub mean_tampered: f64,
}

/// The full degradation curve for one behaviour.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepReport {
    /// Master seed the sweep derived its cases from.
    pub seed: u64,
    /// The Byzantine behaviour under test.
    pub behaviour: ByzantineBehaviour,
    /// Measured points, in the order the fractions were given.
    pub points: Vec<SweepPoint>,
}

impl SweepReport {
    /// Serializes the sweep artefact (pretty JSON, trailing newline).
    pub fn to_json(&self) -> String {
        let doc = Json::Obj(vec![
            ("schema".into(), Json::from_text(SWEEP_SCHEMA)),
            ("seed".into(), Json::from_u64(self.seed)),
            (
                "behaviour".into(),
                Json::from_text(behaviour_name(self.behaviour)),
            ),
            (
                "points".into(),
                Json::Arr(
                    self.points
                        .iter()
                        .map(|point| {
                            Json::Obj(vec![
                                ("fraction".into(), Json::from_f64(point.fraction)),
                                ("cases".into(), Json::from_u32(point.cases)),
                                ("converged".into(), Json::from_u32(point.converged)),
                                (
                                    "convergence_probability".into(),
                                    Json::from_f64(point.convergence_probability),
                                ),
                                ("mean_tampered".into(), Json::from_f64(point.mean_tampered)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]);
        let mut text = doc.pretty();
        text.push('\n');
        text
    }
}

/// Runs the degradation sweep: `cases_per_point` cluster cases at each
/// of `fractions`, all members of the Byzantine block running
/// `behaviour`. Case indices are disjoint across points, so every case
/// draws a distinct scenario.
pub fn degradation_sweep(
    config: &FuzzConfig,
    behaviour: ByzantineBehaviour,
    fractions: &[f64],
    cases_per_point: u32,
) -> Result<SweepReport, ConfigError> {
    let config = config.clone().validate()?;
    if cases_per_point == 0 {
        return Err(ConfigError::NoCases);
    }
    for &fraction in fractions {
        if !(0.0..=1.0).contains(&fraction) {
            return Err(ConfigError::ByzantineFraction { value: fraction });
        }
    }
    let mut points = Vec::with_capacity(fractions.len());
    for (point_idx, &fraction) in fractions.iter().enumerate() {
        let mut converged = 0u32;
        let mut tampered_total = 0u64;
        let mut case_idx = 0u32;
        while case_idx < cases_per_point {
            let index = point_idx as u32 * cases_per_point + case_idx;
            let mut spec = CaseSpec::generate(&config, index);
            spec.path = ExecPath::Cluster;
            spec.subset_k = SWEEP_SUBSET_K;
            spec.byzantine_fraction = fraction;
            spec.byzantine_behaviour = behaviour;
            // A case that cannot run counts as non-converged.
            if let Ok(outcome) = spec.run() {
                tampered_total += outcome.tampered;
                if outcome.divergence.is_none() {
                    converged += 1;
                }
            }
            case_idx += 1;
        }
        points.push(SweepPoint {
            fraction,
            cases: cases_per_point,
            converged,
            convergence_probability: f64::from(converged) / f64::from(cases_per_point),
            mean_tampered: tampered_total as f64 / f64::from(cases_per_point),
        });
    }
    Ok(SweepReport {
        seed: config.seed,
        behaviour,
        points,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_fraction_point_always_converges_and_never_tampers() {
        let config = FuzzConfig {
            max_population: 16,
            max_rounds: 100,
            ..FuzzConfig::default()
        };
        let report = degradation_sweep(&config, ByzantineBehaviour::DigestLie, &[0.0], 4)
            .expect("valid sweep");
        let point = &report.points[0];
        assert_eq!(point.converged, point.cases);
        assert_eq!(point.convergence_probability, 1.0);
        assert_eq!(point.mean_tampered, 0.0);
    }

    #[test]
    fn byzantine_members_actually_tamper() {
        let config = FuzzConfig {
            max_population: 20,
            max_rounds: 80,
            ..FuzzConfig::default()
        };
        let report = degradation_sweep(&config, ByzantineBehaviour::CorruptFrames, &[0.3], 3)
            .expect("valid sweep");
        assert!(
            report.points[0].mean_tampered > 0.0,
            "a 30% CorruptFrames block must tamper with some sends"
        );
    }

    #[test]
    fn bad_fraction_and_zero_block_are_rejected() {
        let config = FuzzConfig::default();
        assert!(degradation_sweep(&config, ByzantineBehaviour::Mixed, &[1.5], 2).is_err());
        assert!(degradation_sweep(&config, ByzantineBehaviour::Mixed, &[0.1], 0).is_err());
    }

    #[test]
    fn sweep_artefact_carries_schema_and_curve() {
        let config = FuzzConfig {
            max_population: 12,
            max_rounds: 60,
            ..FuzzConfig::default()
        };
        let report = degradation_sweep(&config, ByzantineBehaviour::StaleReplay, &[0.0, 0.25], 2)
            .expect("valid sweep");
        let doc = rumor_types::json::parse(&report.to_json()).expect("artefact parses");
        assert_eq!(doc.get("schema").and_then(Json::as_str), Some(SWEEP_SCHEMA));
        assert_eq!(
            doc.get("behaviour").and_then(Json::as_str),
            Some("stale-replay")
        );
        let curve = doc.get("points").and_then(Json::as_array).expect("points");
        assert_eq!(curve.len(), 2);
        assert!(curve[0].get("convergence_probability").is_some());
    }
}
