//! `single-round-loop` — one driver, one replication harness.
//!
//! `rumor_sim::Driver` owns the round loop and `rumor_sim::Experiment`
//! owns the Monte Carlo trial loop; no other crate may re-grow either
//! (ROADMAP: "one driver, many protocols", "one replication harness").
//! On the simulation path the round itself is `Driver::step`: `rumor-net`
//! holds only what a round is made of (`Node`, `Effect`, `EffectSink`,
//! `LinkFilter`, `TimerQueue`) and no step or quiescence loop of its
//! own. The rule flags `for <ident> in …` loops whose induction variable
//! is a trial/replication/round counter anywhere outside
//! `crates/sim/src/`. Loops inside `#[cfg(test)]` items are exempt (tests drive fixtures
//! round by round); genuine domain iteration elsewhere — e.g. replaying
//! a churn model to record a trace — carries an inline allow.

use crate::report::Finding;
use crate::rules::push;
use crate::source::SourceFile;

/// Rule name.
pub const NAME: &str = "single-round-loop";

/// Induction variables that signal an orchestration loop.
const LOOP_VARS: [&str; 8] = [
    "trial",
    "trials",
    "rep",
    "reps",
    "replication",
    "replications",
    "round",
    "rounds",
];

/// Runs the rule.
pub fn check(files: &[SourceFile], out: &mut Vec<Finding>) {
    for file in files {
        if file.rel.starts_with("crates/sim/src/") || file.rel.starts_with("crates/lint/") {
            continue;
        }
        for (idx, line) in file.lines.iter().enumerate() {
            let lineno = idx + 1;
            if file.is_test_line(lineno) {
                continue;
            }
            if let Some(var) = loop_var(line) {
                push(
                    out,
                    NAME,
                    file,
                    lineno,
                    format!(
                        "`for {var} in …` loop outside rumor-sim: round/trial orchestration \
                         belongs to Driver/Experiment (mount a Protocol or use \
                         Experiment::run instead)"
                    ),
                );
            }
        }
    }
}

/// The offending induction variable, if the line opens a counter loop.
fn loop_var(line: &str) -> Option<&'static str> {
    let mut rest = line;
    while let Some(idx) = rest.find("for ") {
        // Must be the `for` keyword, not the tail of an identifier.
        let at_start = idx == 0
            || !rest[..idx]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        let after = &rest[idx + 4..];
        if at_start {
            let mut words = after.split_whitespace();
            if let (Some(var), Some("in")) = (words.next(), words.next()) {
                if let Some(&hit) = LOOP_VARS.iter().find(|&&v| v == var) {
                    return Some(hit);
                }
            }
        }
        rest = &rest[idx + 4..];
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_on(rel: &str, text: &str) -> Vec<Finding> {
        let f = SourceFile::from_text(rel.into(), text);
        let mut out = Vec::new();
        check(&[f], &mut out);
        out
    }

    #[test]
    fn flags_trial_loop_outside_sim() {
        let found = run_on("crates/bench/src/x.rs", "for trial in 0..n {\n}\n");
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].line, 1);
    }

    #[test]
    fn sim_driver_is_exempt() {
        assert!(run_on("crates/sim/src/driver.rs", "for round in 0..r {}\n").is_empty());
    }

    #[test]
    fn cfg_test_loops_are_exempt() {
        let text = "#[cfg(test)]\nmod tests {\n  fn t() { for round in 0..9 {} }\n}\n";
        assert!(run_on("crates/churn/src/x.rs", text).is_empty());
    }

    #[test]
    fn unrelated_for_loops_pass() {
        assert!(run_on("crates/core/src/x.rs", "for peer in &self.known {}\n").is_empty());
        assert!(run_on("crates/core/src/x.rs", "info_for round trip\n").is_empty());
    }
}
