//! Replayable execution records: a failing case frozen as JSON.
//!
//! A record carries the full [`CaseSpec`] plus the [`Divergence`] the
//! oracle reported. Because the spec is the *only* input a run consumes
//! (all randomness derives from its seed), re-running the spec
//! reproduces the identical trajectory — [`ExecutionRecord::replay`]
//! checks that the divergence comes back structurally equal, and
//! serializing the replayed record yields the committed bytes.

use crate::case::{CaseOutcome, CaseSpec};
use crate::oracle::Divergence;
use rumor_obs::TraceDoc;
use rumor_types::json::{self, Json};

/// Schema tag stamped into every record artefact.
pub const RECORD_SCHEMA: &str = "rumor-fuzz/record/v1";

/// A failing fuzz case frozen for replay.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecutionRecord {
    /// The case that failed.
    pub spec: CaseSpec,
    /// The violation the oracle reported.
    pub divergence: Divergence,
}

/// What replaying a record produced.
#[derive(Debug, Clone, PartialEq)]
pub enum ReplayVerdict {
    /// The recorded divergence came back identically — a true repro.
    Reproduced,
    /// The case diverged, but differently — the record is stale
    /// (protocol or fuzzer semantics changed since it was captured).
    DifferentDivergence(Divergence),
    /// The case now passes the oracle — the defect is gone.
    Clean,
}

impl ExecutionRecord {
    /// Serializes the record (pretty JSON, trailing newline).
    pub fn to_json(&self) -> String {
        let doc = Json::Obj(vec![
            ("schema".into(), Json::from_text(RECORD_SCHEMA)),
            ("case".into(), self.spec.to_json()),
            ("divergence".into(), self.divergence.to_json()),
        ]);
        let mut text = doc.pretty();
        text.push('\n');
        text
    }

    /// Parses a record serialized by [`ExecutionRecord::to_json`].
    pub fn from_json(text: &str) -> Result<ExecutionRecord, String> {
        let doc = json::parse(text)?;
        let schema = doc
            .get("schema")
            .and_then(Json::as_str)
            .ok_or("record missing `schema`")?;
        if schema != RECORD_SCHEMA {
            return Err(format!(
                "unsupported record schema `{schema}` (want `{RECORD_SCHEMA}`)"
            ));
        }
        let spec = CaseSpec::from_json(doc.get("case").ok_or("record missing `case`")?)?;
        let divergence =
            Divergence::from_json(doc.get("divergence").ok_or("record missing `divergence`")?)?;
        Ok(ExecutionRecord { spec, divergence })
    }

    /// Re-runs the recorded case and compares the oracle verdict.
    pub fn replay(&self) -> Result<(ReplayVerdict, CaseOutcome), String> {
        let outcome = self.spec.run()?;
        let verdict = self.verdict_of(&outcome);
        Ok((verdict, outcome))
    }

    /// Like [`ExecutionRecord::replay`], additionally capturing the
    /// replayed trajectory as a `rumor-obs` trace. Tracing consumes no
    /// randomness, so the verdict is identical to an untraced replay —
    /// the trace is the same run, made inspectable.
    pub fn replay_traced(
        &self,
        label: &str,
    ) -> Result<(ReplayVerdict, CaseOutcome, TraceDoc), String> {
        let (outcome, trace) = self.spec.run_traced(label)?;
        let verdict = self.verdict_of(&outcome);
        Ok((verdict, outcome, trace))
    }

    fn verdict_of(&self, outcome: &CaseOutcome) -> ReplayVerdict {
        match &outcome.divergence {
            Some(d) if *d == self.divergence => ReplayVerdict::Reproduced,
            Some(d) => ReplayVerdict::DifferentDivergence(d.clone()),
            None => ReplayVerdict::Clean,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FuzzConfig;

    fn sample_record() -> ExecutionRecord {
        ExecutionRecord {
            spec: CaseSpec::generate(&FuzzConfig::default(), 5),
            divergence: Divergence::StoreMismatch {
                representative: 0,
                divergent: vec![3, 7],
            },
        }
    }

    #[test]
    fn record_serialization_is_the_identity_under_a_round_trip() {
        let record = sample_record();
        let text = record.to_json();
        let back = ExecutionRecord::from_json(&text).expect("record parses");
        assert_eq!(back, record);
        assert_eq!(back.to_json(), text, "bytes must be reproduced exactly");
    }

    #[test]
    fn wrong_schema_and_missing_fields_are_rejected() {
        let good = sample_record().to_json();
        let wrong_schema = good.replace(RECORD_SCHEMA, "rumor-fuzz/record/v0");
        assert!(ExecutionRecord::from_json(&wrong_schema).is_err());
        assert!(ExecutionRecord::from_json("{}").is_err());
        assert!(ExecutionRecord::from_json("not json").is_err());
    }

    #[test]
    fn replaying_a_fabricated_divergence_reports_clean() {
        // The sample spec passes the oracle, so a fabricated divergence
        // must replay as Clean — proving replay really re-runs the case.
        let record = sample_record();
        let (verdict, outcome) = record.replay().expect("replays");
        assert_eq!(verdict, ReplayVerdict::Clean);
        assert_eq!(outcome.divergence, None);
    }
}
