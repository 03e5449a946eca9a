//! The paper's evaluation, one experiment per name: `paper <name|all>
//! [out_dir]` runs [`run`], which prints each experiment's tables and
//! writes its JSON artefacts under `out_dir`.
//!
//! Every experiment is seeded by a constant master seed, so two runs
//! print and write the same bytes.

use crate::ablation::{self, AblationRow};
use crate::artefact::{Figure, FIGURES};
use crate::experiments::{self, Table2Setting};
use crate::extensions::{bimodal, heterogeneity};
use crate::head_to_head::standard_comparison;
use crate::json::ToJson;
use crate::render::{mean_ci, render_error_bars, render_figure, to_json};
use crate::simfig::standard_suite;
use rumor_analysis::SchemeResult;
use rumor_metrics::{Align, Histogram, Table};
use std::fs;
use std::io;
use std::path::Path;

/// Master seed of the figures, the validation suite, the ablations and
/// the extensions.
const SEED: u64 = 42;

/// Master seed of the simulated head-to-head.
const HEAD_TO_HEAD_SEED: u64 = 77;

/// Replications per figure overlay curve and per head-to-head contender.
const REPLICATIONS: u32 = 5;

/// Prints one experiment and writes its artefacts into the directory.
type Printer = fn(&Path) -> io::Result<()>;

/// The experiments after the figures, in the order `all` runs them.
const TABLES: [(&str, Printer); 7] = [
    ("table2", table2),
    ("pull_phase", pull_phase),
    ("flooding", flooding),
    ("sim_vs_model", sim_vs_model),
    ("head_to_head", head_to_head),
    ("extensions", extensions),
    ("ablations", ablations),
];

/// Every experiment name, in the order `all` runs them.
pub fn names() -> impl Iterator<Item = &'static str> {
    FIGURES
        .iter()
        .map(|f| f.name)
        .chain(TABLES.iter().map(|&(name, _)| name))
}

/// Runs the experiment `name`, or every one in [`names`] order for
/// `all`: prints its tables to stdout and writes its JSON into
/// `out_dir`, creating the directory first.
///
/// # Errors
///
/// `InvalidInput`, listing the valid names, when `name` is unknown;
/// otherwise the filesystem error of creating `out_dir` or writing an
/// artefact into it, prefixed with the directory.
pub fn run(name: &str, out_dir: &Path) -> io::Result<()> {
    let selected: Vec<&str> = match name {
        "all" => names().collect(),
        _ if names().any(|known| known == name) => vec![name],
        _ => {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "unknown experiment `{name}`; expected `all` or one of: {}",
                    names().collect::<Vec<_>>().join(" ")
                ),
            ))
        }
    };
    let in_dir = |e: io::Error| io::Error::new(e.kind(), format!("{}: {e}", out_dir.display()));
    fs::create_dir_all(out_dir).map_err(in_dir)?;
    for name in selected {
        if let Some(figure) = FIGURES.iter().find(|f| f.name == name) {
            print_figure(figure, out_dir).map_err(in_dir)?;
        }
        if let Some((_, print)) = TABLES.iter().find(|&&(known, _)| known == name) {
            print(out_dir).map_err(in_dir)?;
        }
    }
    Ok(())
}

/// Writes `value` as pretty JSON to `out_dir/file` and reports the path.
fn write(out_dir: &Path, file: &str, value: &impl ToJson) -> io::Result<()> {
    let path = out_dir.join(file);
    fs::write(&path, to_json(value))?;
    println!("wrote {}", path.display());
    Ok(())
}

/// A figure: the analytic point tables, the analytic and simulated
/// summaries, and the error bars of its metric.
fn print_figure(figure: &Figure, out_dir: &Path) -> io::Result<()> {
    let artefact = figure.artefact(REPLICATIONS, SEED);
    println!("{}", render_figure(figure.title, &artefact.analytic));
    println!("{}", artefact.render(&format!("{} summary", figure.short)));
    if let Some((noun, metric)) = figure.bars {
        let title = format!("{} simulated {noun} (95% CI)", figure.short);
        println!("{}", render_error_bars(&title, &artefact.simulated, metric));
    }
    let path = artefact.write_json(out_dir)?;
    println!("wrote {}", path.display());
    Ok(())
}

/// Table 2: scheme comparison (Gnutella / partial list / Haas / ours).
fn table2(out_dir: &Path) -> io::Result<()> {
    fn render(title: &str, rows: &[SchemeResult]) {
        let mut t = Table::new(vec![
            "Scheme".into(),
            "msgs/online peer".into(),
            "push rounds".into(),
            "awareness".into(),
        ]);
        t.align(1, Align::Right)
            .align(2, Align::Right)
            .align(3, Align::Right);
        for r in rows {
            t.row(vec![
                r.scheme.clone(),
                format!("{:.3}", r.messages_per_online),
                r.rounds.to_string(),
                format!("{:.4}", r.final_awareness),
            ]);
        }
        println!("== {title} ==\n{}", t.render());
    }

    let a = experiments::table2(Table2Setting::A);
    render(
        "Table 2 (setting A): R_on/R = 10^4/10^4, sigma=1, fanout R*f_r = 4 | paper: 4 / 3.92 / 3.136 / 2.215",
        &a,
    );
    let b = experiments::table2(Table2Setting::B);
    render(
        "Table 2 (setting B): R_on/R = 10^3/10^4, sigma=1, R*f_r = 40 | paper: 40 / 35.22 / 28.49 / 16.35",
        &b,
    );
    write(out_dir, "table2a.json", &a)?;
    write(out_dir, "table2b.json", &b)
}

/// Section 4.3: pull-phase success probability.
fn pull_phase(out_dir: &Path) -> io::Result<()> {
    let (rows, attempts_999) = experiments::pull_phase();
    let mut t = Table::new(vec![
        "f_aware".into(),
        "attempts".into(),
        "P(success)".into(),
    ]);
    t.align(0, Align::Right)
        .align(1, Align::Right)
        .align(2, Align::Right);
    for r in &rows {
        t.row(vec![
            format!("{:.2}", r.f_aware),
            r.attempts.to_string(),
            format!("{:.6}", r.probability),
        ]);
    }
    println!(
        "== Sec. 4.3: pull success at 10% availability ==\n{}",
        t.render()
    );
    println!(
        "Attempts for 99.9% success at 10% availability (paper Sec. 2: ~65): {:?}",
        attempts_999
    );
    write(out_dir, "pull_phase.json", &rows)
}

/// Section 5.6: flooding analysis under Poisson availability.
fn flooding(out_dir: &Path) -> io::Result<()> {
    let rows = experiments::flooding();
    let mut t = Table::new(vec![
        "fanout R*f_r".into(),
        "pure flooding msgs".into(),
        "dup-avoid msgs/online peer".into(),
        "E[attempts] for 10 online".into(),
    ]);
    for i in 0..4 {
        t.align(i, Align::Right);
    }
    for r in &rows {
        t.row(vec![
            format!("{:.0}", r.fanout),
            format!("{:.0}", r.pure_flooding),
            format!("{:.1}", r.gnutella_per_peer),
            format!("{:.1}", r.attempts_10_targets),
        ]);
    }
    println!(
        "== Sec. 5.6: flooding at R=10^4, 10% availability ==\n{}",
        t.render()
    );
    write(out_dir, "flooding.json", &rows)
}

/// Validation: the discrete simulator (replicated, with 95% CIs)
/// against the analytical recursion.
fn sim_vs_model(out_dir: &Path) -> io::Result<()> {
    let rows = standard_suite(SEED);
    let mut t = Table::new(vec![
        "setting".into(),
        "model msgs/peer".into(),
        "sim msgs/peer".into(),
        "err".into(),
        "model aware".into(),
        "sim aware".into(),
        "model rounds".into(),
        "sim rounds".into(),
        "n".into(),
    ]);
    for i in 1..9 {
        t.align(i, Align::Right);
    }
    for r in &rows {
        t.row(vec![
            r.setting.clone(),
            format!("{:.2}", r.model_cost),
            format!(
                "{:.2} ± {:.2}",
                r.sim_cost.mean(),
                r.sim_cost.ci95().half_width()
            ),
            format!("{:.1}%", r.cost_error() * 100.0),
            format!("{:.4}", r.model_awareness),
            format!(
                "{:.4} ± {:.4}",
                r.sim_awareness.mean(),
                r.sim_awareness.ci95().half_width()
            ),
            r.model_rounds.to_string(),
            format!(
                "{:.1} ± {:.1}",
                r.sim_rounds.mean(),
                r.sim_rounds.ci95().half_width()
            ),
            r.trials.to_string(),
        ]);
    }
    println!(
        "== Simulator vs analytical model (seed {SEED}, mean ± 95% CI) ==\n{}",
        t.render()
    );
    write(out_dir, "sim_vs_model.json", &rows)
}

/// Simulated head-to-head: every contender in one shared `Scenario`,
/// replicated over independent seed substreams (95% CIs).
fn head_to_head(out_dir: &Path) -> io::Result<()> {
    let rows =
        standard_comparison(1_000, REPLICATIONS, HEAD_TO_HEAD_SEED).map_err(io::Error::other)?;
    let mut t = Table::new(vec![
        "protocol".into(),
        "proto msgs".into(),
        "total msgs".into(),
        "wire bytes".into(),
        "bytes/msg".into(),
        "msgs/peer".into(),
        "coverage".into(),
        "rounds".into(),
        "n".into(),
    ]);
    for i in 1..9 {
        t.align(i, Align::Right);
    }
    for r in &rows {
        t.row(vec![
            r.protocol.clone(),
            mean_ci(&r.protocol_messages),
            mean_ci(&r.total_messages),
            mean_ci(&r.total_bytes),
            mean_ci(&r.mean_message_bytes),
            mean_ci(&r.messages_per_initial_online),
            mean_ci(&r.coverage),
            mean_ci(&r.rounds),
            r.n.to_string(),
        ]);
    }
    println!(
        "== Simulated head-to-head (R = 1000, all online, {REPLICATIONS} replications, mean ± 95% CI) =="
    );
    println!("{}", t.render());
    println!("note: total msgs include feedback/ack/digest traffic where the protocol uses it;");
    println!("      wire bytes are rumor-wire frame sizes (header + payload) of every send.");
    write(out_dir, "head_to_head.json", &rows)
}

/// §8 future-work experiments: bimodal delivery distribution and
/// non-uniform (backbone) availability, with replication statistics.
fn extensions(out_dir: &Path) -> io::Result<()> {
    let report = bimodal(60, SEED);
    println!("== Bimodal behaviour at near-critical fanout (60 replications) ==");
    println!(
        "almost none (<20%): {}   middle: {}   almost all (>80%): {}   => bimodal: {}",
        report.low,
        report.middle,
        report.high,
        report.is_bimodal()
    );
    println!("awareness: {}", report.stats);
    let mut hist = Histogram::new(0.0, 1.0, 10);
    for &a in &report.awareness {
        hist.record(a);
    }
    let mut t = Table::new(vec!["awareness bucket".into(), "replications".into()]);
    t.align(1, Align::Right);
    for (edge, count) in hist.iter() {
        t.row(vec![format!("{edge:.1}+"), count.to_string()]);
    }
    println!("{}", t.render());
    write(out_dir, "extensions_bimodal.json", &report)?;

    println!("== Non-uniform availability (backbone), mean ± 95% CI ==");
    let rows = heterogeneity(5, SEED);
    let mut t = Table::new(vec![
        "scenario".into(),
        "awareness".into(),
        "msgs/peer".into(),
        "rounds".into(),
        "n".into(),
    ]);
    for i in 1..5 {
        t.align(i, Align::Right);
    }
    for row in &rows {
        t.row(vec![
            row.scenario.clone(),
            format!(
                "{:.4} ± {:.4}",
                row.awareness.mean(),
                row.awareness.ci95().half_width()
            ),
            format!(
                "{:.2} ± {:.2}",
                row.cost.mean(),
                row.cost.ci95().half_width()
            ),
            format!(
                "{:.1} ± {:.1}",
                row.rounds.mean(),
                row.rounds.ci95().half_width()
            ),
            row.awareness.n().to_string(),
        ]);
    }
    println!("{}", t.render());
    write(out_dir, "extensions_heterogeneity.json", &rows)
}

/// Section 6 ablations: partial list, acks, PF tuning, pull strategies.
fn ablations(out_dir: &Path) -> io::Result<()> {
    type Study = fn(u64) -> Vec<AblationRow>;
    let studies: [(&str, &str, Study); 4] = [
        (
            "Ablation: partial flooding list (Sec. 4.2)",
            "ablation_partial_list.json",
            ablation::partial_list,
        ),
        (
            "Ablation: acknowledgements (Sec. 6)",
            "ablation_acks.json",
            ablation::acks,
        ),
        (
            "Ablation: forwarding policy incl. self-tuning (Sec. 6)",
            "ablation_forwarding.json",
            ablation::forwarding,
        ),
        (
            "Ablation: pull strategies (Sec. 6)",
            "ablation_pull.json",
            ablation::pull_strategies,
        ),
    ];
    for (title, file, study) in studies {
        let rows = study(SEED);
        let mut t = Table::new(vec![
            "variant".into(),
            "push msgs/peer".into(),
            "dups/peer".into(),
            "total msgs/peer".into(),
            "awareness".into(),
            "rounds".into(),
        ]);
        for i in 1..6 {
            t.align(i, Align::Right);
        }
        for r in &rows {
            t.row(vec![
                r.variant.clone(),
                format!("{:.2}", r.push_cost),
                format!("{:.2}", r.duplicates),
                format!("{:.2}", r.total_cost),
                format!("{:.4}", r.awareness),
                r.rounds.to_string(),
            ]);
        }
        println!("== {title} ==\n{}", t.render());
        write(out_dir, file, &rows)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_name_and_unwritable_dir_are_errors() {
        let err = run("fig9", Path::new("unused")).expect_err("unknown name");
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(err.to_string().contains("fig1a") && err.to_string().contains("ablations"));

        let file = std::env::temp_dir().join("rumor-paper-not-a-dir");
        fs::write(&file, "").expect("create a regular file");
        let under_file = file.join("out");
        assert!(run("table2", &under_file).is_err());
        assert!(run("all", &under_file).is_err());
        fs::remove_file(&file).ok();
    }

    #[test]
    fn names_are_unique() {
        let all: Vec<&str> = names().collect();
        assert_eq!(all.len(), 13);
        assert!(all
            .iter()
            .all(|n| all.iter().filter(|m| *m == n).count() == 1));
        assert!(!all.contains(&"all"));
    }
}
