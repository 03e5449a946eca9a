//! What the runner prints and the result files `all` writes and
//! `compare` reads.

use crate::json::Json;
use crate::metrics::catalogue;
use crate::pass::PassReport;
use crate::sys;

/// Schema identifier of a result file.
pub const SCHEMA: &str = "rumor-benchmark/result/v1";

/// The line a pass ends its standard output with: exactly `correct`,
/// `attempted`, `failed` and `metrics`.
pub fn contract_line(report: &PassReport) -> String {
    let catalogue = catalogue(report.traced);
    Json::obj([
        ("correct", Json::Bool(report.correct)),
        ("attempted", Json::UInt(report.attempted)),
        ("failed", Json::UInt(report.failed)),
        ("metrics", report.metrics.to_json(&catalogue)),
    ])
    .compact()
}

/// Everything one pass measured, as `all` stores it.
pub fn record(report: &PassReport) -> Json {
    let catalogue = catalogue(report.traced);
    Json::obj([
        ("workload", Json::str(&*report.workload)),
        ("traced", Json::Bool(report.traced)),
        ("correct", Json::Bool(report.correct)),
        (
            "problems",
            Json::Arr(report.problems.iter().map(|p| Json::str(&**p)).collect()),
        ),
        ("attempted", Json::UInt(report.attempted)),
        ("failed", Json::UInt(report.failed)),
        ("failed_share", Json::Num(report.failed_share())),
        ("detail", report.detail.clone()),
        ("metrics", report.metrics.to_json(&catalogue)),
    ])
}

/// The provenance header of a result file.
pub fn provenance(seed: u64, seconds: f64, workers: usize, wall_clock_s: f64) -> Json {
    Json::obj([
        ("schema", Json::str(SCHEMA)),
        ("git_commit", Json::str(sys::git_commit())),
        ("rustc", Json::str(sys::rustc_version())),
        ("nproc", Json::UInt(sys::nproc() as u64)),
        ("cluster_workers", Json::UInt(workers as u64)),
        ("seed", Json::UInt(seed)),
        ("seconds", Json::Num(seconds)),
        ("wall_clock_s", Json::Num(wall_clock_s)),
    ])
}

/// A result file: the header plus one record per pass run.
pub fn file(provenance: Json, records: Vec<Json>) -> Json {
    Json::obj([("provenance", provenance), ("passes", Json::Arr(records))])
}

/// One untraced pass read back from a result file.
#[derive(Debug, Clone, PartialEq)]
pub struct EndToEnd {
    /// Workload name.
    pub workload: String,
    /// The seed its inputs derived from.
    pub seed: u64,
    /// Replicas.
    pub population: u64,
    /// Timed updates issued.
    pub updates: u64,
    /// The count metrics are a function of the seed alone (engine path).
    pub exact_counts: bool,
    /// Failed updates as a share of those attempted.
    pub failed_share: f64,
    /// `(metric name, value)`.
    pub metrics: Vec<(String, f64)>,
}

impl EndToEnd {
    /// The value of one metric, when the pass reported it.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }
}

/// The untraced passes of a result file, in file order.
///
/// # Errors
///
/// Returns a message when the text is not a result file of this schema.
pub fn read_end_to_end(text: &str) -> Result<Vec<EndToEnd>, String> {
    let doc = Json::parse(text)?;
    let schema = doc
        .get("provenance")
        .and_then(|p| p.get("schema"))
        .and_then(Json::as_str);
    if schema != Some(SCHEMA) {
        return Err(format!("not a {SCHEMA} file (schema {schema:?})"));
    }
    let passes = doc.get("passes").ok_or("result file has no passes")?;
    passes
        .items()
        .iter()
        .filter(|pass| pass.get("traced").and_then(Json::as_bool) == Some(false))
        .map(|pass| {
            let workload = pass
                .get("workload")
                .and_then(Json::as_str)
                .ok_or("pass without a workload name")?;
            let detail = |key: &str| {
                pass.get("detail")
                    .and_then(|d| d.get(key))
                    .ok_or(format!("{workload}: pass without detail.{key}"))
            };
            let size = |key: &str| {
                detail(key)?
                    .as_u64()
                    .ok_or(format!("{workload}: detail.{key} is not a count"))
            };
            let metrics = pass
                .get("metrics")
                .ok_or("pass without metrics")?
                .members()
                .iter()
                .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
                .collect();
            Ok(EndToEnd {
                workload: workload.to_owned(),
                seed: size("seed")?,
                population: size("population")?,
                updates: size("updates")?,
                exact_counts: detail("exact_counts")?.as_bool() == Some(true),
                failed_share: pass
                    .get("failed_share")
                    .and_then(Json::as_f64)
                    .unwrap_or(0.0),
                metrics,
            })
        })
        .collect()
}
