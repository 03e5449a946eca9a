//! Batch runner: generate cases, run them, collect violations.

use crate::case::{CaseSpec, ExecPath};
use crate::config::{ConfigError, FuzzConfig};
use crate::record::{ExecutionRecord, RECORD_SCHEMA};
use rumor_types::json::Json;

/// Schema tag stamped into batch artefacts.
pub const BATCH_SCHEMA: &str = "rumor-fuzz/batch/v1";

/// Aggregate result of one fuzz batch.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchReport {
    /// The validated config the batch ran under.
    pub config: FuzzConfig,
    /// Cases executed (always `config.cases`).
    pub cases_run: u32,
    /// Cases that took the engine path.
    pub engine_cases: u32,
    /// Cases that took the cluster path.
    pub cluster_cases: u32,
    /// Total messages sent across all cases.
    pub total_messages: u64,
    /// Total sends tampered with by Byzantine members.
    pub total_tampered: u64,
    /// Every oracle violation, frozen as a replayable record.
    pub violations: Vec<ExecutionRecord>,
    /// Cases that failed to build or run (spec + error text).
    pub errors: Vec<String>,
}

impl BatchReport {
    /// `true` when every case ran and passed the oracle.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty() && self.errors.is_empty()
    }

    /// Serializes the batch artefact (pretty JSON, trailing newline).
    pub fn to_json(&self) -> String {
        let doc = Json::Obj(vec![
            ("schema".into(), Json::from_text(BATCH_SCHEMA)),
            ("seed".into(), Json::from_u64(self.config.seed)),
            ("cases_run".into(), Json::from_u32(self.cases_run)),
            ("engine_cases".into(), Json::from_u32(self.engine_cases)),
            ("cluster_cases".into(), Json::from_u32(self.cluster_cases)),
            ("total_messages".into(), Json::from_u64(self.total_messages)),
            ("total_tampered".into(), Json::from_u64(self.total_tampered)),
            ("record_schema".into(), Json::from_text(RECORD_SCHEMA)),
            (
                "violations".into(),
                Json::Arr(
                    self.violations
                        .iter()
                        .map(|record| {
                            Json::Obj(vec![
                                ("case".into(), record.spec.to_json()),
                                ("divergence".into(), record.divergence.to_json()),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "errors".into(),
                Json::Arr(self.errors.iter().map(|e| Json::from_text(e)).collect()),
            ),
        ]);
        let mut text = doc.pretty();
        text.push('\n');
        text
    }
}

/// Generates and runs `config.cases` cases, collecting every oracle
/// violation as a replayable [`ExecutionRecord`].
pub fn run_batch(config: &FuzzConfig) -> Result<BatchReport, ConfigError> {
    let config = config.clone().validate()?;
    let mut report = BatchReport {
        cases_run: config.cases,
        config: config.clone(),
        engine_cases: 0,
        cluster_cases: 0,
        total_messages: 0,
        total_tampered: 0,
        violations: Vec::new(),
        errors: Vec::new(),
    };
    let mut case_idx = 0u32;
    while case_idx < config.cases {
        let spec = CaseSpec::generate(&config, case_idx);
        match spec.path {
            ExecPath::Engine => report.engine_cases += 1,
            ExecPath::Cluster => report.cluster_cases += 1,
        }
        match spec.run() {
            Ok(outcome) => {
                report.total_messages += outcome.messages;
                report.total_tampered += outcome.tampered;
                if let Some(divergence) = outcome.divergence {
                    report.violations.push(ExecutionRecord { spec, divergence });
                }
            }
            Err(error) => report.errors.push(format!("case {case_idx}: {error}")),
        }
        case_idx += 1;
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_benign() -> FuzzConfig {
        FuzzConfig {
            cases: 6,
            max_population: 16,
            max_rounds: 100,
            ..FuzzConfig::default()
        }
    }

    #[test]
    fn benign_batch_is_clean_and_deterministic() {
        let first = run_batch(&small_benign()).expect("valid config");
        assert!(first.is_clean(), "violations: {:?}", first.violations);
        assert_eq!(first.cases_run, 6);
        assert_eq!(first.engine_cases + first.cluster_cases, 6);
        assert!(first.total_messages > 0);
        assert_eq!(first.total_tampered, 0, "benign batches never tamper");
        let second = run_batch(&small_benign()).expect("valid config");
        assert_eq!(first, second, "batches must be reproducible");
    }

    #[test]
    fn invalid_config_is_rejected_before_running() {
        let bad = FuzzConfig {
            cases: 0,
            ..FuzzConfig::default()
        };
        assert!(run_batch(&bad).is_err());
    }

    #[test]
    fn batch_artefact_carries_schema_and_counters() {
        let report = run_batch(&small_benign()).expect("valid config");
        let text = report.to_json();
        let doc = rumor_types::json::parse(&text).expect("artefact parses");
        assert_eq!(doc.get("schema").and_then(Json::as_str), Some(BATCH_SCHEMA));
        assert_eq!(doc.get("cases_run").and_then(Json::as_u32), Some(6));
        assert_eq!(
            doc.get("violations")
                .and_then(Json::as_array)
                .map(<[Json]>::len),
            Some(0)
        );
    }
}
