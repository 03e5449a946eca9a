//! Command line of the benchmark.
//!
//! ```text
//! rumor-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! rumor-benchmark all [--seed <n>] [--seconds <s>] [--out <file>]
//! rumor-benchmark compare --base <file>... --new <file>... [--bounds <BENCHMARK.json>]
//! rumor-benchmark list
//! ```

use rumor_benchmark::json::Json;
use rumor_benchmark::metrics::catalogue;
use rumor_benchmark::pass::{self, Options};
use rumor_benchmark::{compare, result, workload};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

/// The documented default seed; 23 is held out (see the README).
const DEFAULT_SEED: u64 = 11;
/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = workload::REFERENCE_SECONDS;
/// The prefix of the line a pass prints its full record on.
const RECORD_PREFIX: &str = "record ";

fn package_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// `--flag value` pairs; a flag may repeat (`--base a --base b`) or take
/// several values (`--base a b`).
struct Flags(Vec<(String, Vec<String>)>);

impl Flags {
    fn parse(args: &[String]) -> Result<Self, String> {
        let mut flags: Vec<(String, Vec<String>)> = Vec::new();
        for arg in args {
            match (arg.strip_prefix("--"), flags.last_mut()) {
                (Some(name), _) => flags.push((name.to_owned(), Vec::new())),
                (None, Some((_, values))) => values.push(arg.clone()),
                (None, None) => return Err(format!("unexpected argument {arg:?}")),
            }
        }
        Ok(Self(flags))
    }

    fn all(&self, name: &str) -> Vec<&str> {
        self.0
            .iter()
            .filter(|(n, _)| n == name)
            .flat_map(|(_, values)| values.iter().map(String::as_str))
            .collect()
    }

    fn one<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        match self.all(name).as_slice() {
            [] => Ok(None),
            [value] => value
                .parse()
                .map(Some)
                .map_err(|_| format!("--{name}: cannot read {value:?}")),
            _ => Err(format!("--{name} takes one value")),
        }
    }

    fn check_known(&self, known: &[&str]) -> Result<(), String> {
        match self.0.iter().find(|(n, _)| !known.contains(&n.as_str())) {
            Some((name, _)) => Err(format!("unknown flag --{name}")),
            None => Ok(()),
        }
    }
}

fn run_pass(flags: &Flags) -> Result<ExitCode, String> {
    flags.check_known(&["workload", "seed", "seconds", "trace"])?;
    let name: String = flags.one("workload")?.ok_or("--workload is required")?;
    let spec = workload::by_name(&name).ok_or_else(|| {
        let names: Vec<&str> = workload::all().iter().map(|s| s.name).collect();
        format!("unknown workload {name:?}; one of {names:?}")
    })?;
    let seconds = flags.one::<f64>("seconds")?.unwrap_or(DEFAULT_SECONDS);
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err(format!("--seconds {seconds} out of range"));
    }
    let traced = match flags.one::<u8>("trace")?.unwrap_or(0) {
        0 => false,
        1 => true,
        other => return Err(format!("--trace {other}: 0 or 1")),
    };
    let options = Options {
        seed: flags.one("seed")?.unwrap_or(DEFAULT_SEED),
        updates: pass::timed_updates(&spec, seconds, traced),
        spans_dir: Some(package_dir().join("out")),
    };
    let report = pass::run(&spec, &options, traced);
    print!("{}", report.metrics.table(&catalogue(traced)));
    for problem in &report.problems {
        eprintln!("{name}: INCORRECT: {problem}");
    }
    println!("{RECORD_PREFIX}{}", result::record(&report).compact());
    println!("{}", result::contract_line(&report));
    Ok(ExitCode::SUCCESS)
}

fn run_all(flags: &Flags) -> Result<ExitCode, String> {
    flags.check_known(&["seed", "seconds", "out"])?;
    let seed = flags.one("seed")?.unwrap_or(DEFAULT_SEED);
    let seconds = flags.one::<f64>("seconds")?.unwrap_or(DEFAULT_SECONDS);
    let out: PathBuf = flags.one::<PathBuf>("out")?.unwrap_or_else(|| {
        package_dir()
            .join("out")
            .join(format!("result-seed{seed}.json"))
    });
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;

    let began = Instant::now();
    let mut records = Vec::new();
    let mut all_correct = true;
    for spec in workload::all() {
        for trace in [0, 1] {
            // Each pass gets a process of its own so peak_rss_mb is the
            // workload's, not the largest so far.
            let child = Command::new(&exe)
                .args(["--workload", spec.name])
                .args(["--seed", &seed.to_string()])
                .args(["--seconds", &seconds.to_string()])
                .args(["--trace", &trace.to_string()])
                .stdin(Stdio::null())
                .stderr(Stdio::inherit())
                .output()
                .map_err(|e| format!("cannot start {}: {e}", spec.name))?;
            let stdout = String::from_utf8_lossy(&child.stdout);
            let record = stdout
                .lines()
                .find_map(|line| line.strip_prefix(RECORD_PREFIX))
                .ok_or_else(|| {
                    format!(
                        "{} --trace {trace}: no record ({})",
                        spec.name, child.status
                    )
                })
                .and_then(Json::parse)?;
            all_correct &= record.get("correct").and_then(Json::as_bool) == Some(true);
            for (name, metric) in record.get("metrics").map_or(&[][..], Json::members) {
                println!(
                    "{}/{name} {} {}",
                    spec.name,
                    metric.get("value").and_then(Json::as_f64).unwrap_or(0.0),
                    metric.get("unit").and_then(Json::as_str).unwrap_or("")
                );
            }
            println!(
                "{}/failed_share {} share",
                spec.name,
                record
                    .get("failed_share")
                    .and_then(Json::as_f64)
                    .unwrap_or(0.0)
            );
            records.push(record);
        }
    }
    let header = result::provenance(
        seed,
        seconds,
        workload::CLUSTER_WORKERS,
        began.elapsed().as_secs_f64(),
    );
    if let Some(dir) = out.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(&out, result::file(header, records).pretty())
        .map_err(|e| format!("{}: {e}", out.display()))?;
    eprintln!("wrote {}", out.display());
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("at least one pass failed its correctness checks");
        ExitCode::FAILURE
    })
}

fn run_compare(flags: &Flags) -> Result<ExitCode, String> {
    flags.check_known(&["base", "new", "bounds"])?;
    let read = |path: &str| std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"));
    let side = |name: &str| -> Result<Vec<result::EndToEnd>, String> {
        let files = flags.all(name);
        if files.is_empty() {
            return Err(format!("--{name} needs at least one result file"));
        }
        let mut passes = Vec::new();
        for file in files {
            passes
                .extend(result::read_end_to_end(&read(file)?).map_err(|e| format!("{file}: {e}"))?);
        }
        Ok(passes)
    };
    let bounds_path = flags.one::<String>("bounds")?.unwrap_or_else(|| {
        package_dir()
            .join("../BENCHMARK.json")
            .display()
            .to_string()
    });
    let rules = compare::bounds(&Json::parse(&read(&bounds_path)?)?)?;
    let comparison = compare::compare(&side("base")?, &side("new")?, &rules)?;
    print!("{}", comparison.render());
    Ok(if comparison.passed() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match args.first().map(String::as_str) {
        Some(first) if !first.starts_with("--") => (first, &args[1..]),
        _ => ("run", &args[..]),
    };
    let outcome = Flags::parse(rest).and_then(|flags| match command {
        "run" => run_pass(&flags),
        "all" => run_all(&flags),
        "compare" => run_compare(&flags),
        "list" => {
            for spec in workload::all() {
                println!("{} N={} — {}", spec.name, spec.population, spec.why);
            }
            Ok(ExitCode::SUCCESS)
        }
        other => Err(format!(
            "unknown command {other:?}; run, all, compare or list"
        )),
    });
    outcome.unwrap_or_else(|message| {
        eprintln!("rumor-benchmark: {message}");
        ExitCode::from(2)
    })
}
