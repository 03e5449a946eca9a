//! The replication-harness determinism suite: one `Experiment`, many
//! worker-thread counts, byte-identical `ReplicatedReport`s.
//!
//! CI runs `cargo test` twice with `RUMOR_TEST_THREADS=1` and `=4`; the
//! suite compares the env-selected worker count against the sequential
//! baseline (and a few fixed counts), so thread-count invariance is
//! enforced on every push no matter which runner executes it.

use rumor::churn::MarkovChurn;
use rumor::core::ProtocolConfig;
use rumor::sim::{
    Experiment, PaperProtocol, ReplicatedReport, RunReport, Scenario, TopologySpec, UpdateEvent,
};
use rumor::types::DataKey;

/// Worker count under test: `RUMOR_TEST_THREADS` when set (CI matrix),
/// otherwise 4.
fn env_threads() -> usize {
    std::env::var("RUMOR_TEST_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(4)
}

/// Mounts the paper peer with `config`, writes `key` at a random online
/// peer and tracks the push for up to `max_rounds` rounds.
fn propagate(scenario: &Scenario, config: ProtocolConfig, key: &str, max_rounds: u32) -> RunReport {
    let protocol = PaperProtocol::new(config);
    let mut driver = scenario.drive(&protocol);
    let event = UpdateEvent {
        round: 0,
        key: DataKey::from_name(key),
        delete: false,
        sequence: 0,
    };
    let update = driver
        .initiate(&protocol, None, &event)
        .expect("an online initiator");
    driver.track_update(&protocol, update, max_rounds)
}

/// A deliberately non-trivial replication body: churn, partial
/// knowledge, message loss — every seeded stream in play.
fn replicated(threads: usize) -> ReplicatedReport {
    let experiment = Experiment::new(2024, 10).threads(threads);
    let reports = experiment.run(|rep| {
        let scenario = Scenario::builder(150, rep.seed)
            .online_fraction(0.4)
            .topology(TopologySpec::RandomSubset { k: 30 })
            .churn(MarkovChurn::new(0.92, 0.04).expect("valid churn"))
            .loss(0.05)
            .build()
            .expect("valid scenario");
        let config = ProtocolConfig::builder(150)
            .fanout_absolute(5)
            .build()
            .expect("valid config");
        propagate(&scenario, config, "det-suite", 60)
    });
    ReplicatedReport::from_push(&reports)
}

#[test]
fn replicated_report_is_byte_identical_across_thread_counts() {
    let baseline = replicated(1);
    for threads in [2, 8, env_threads()] {
        let parallel = replicated(threads);
        assert_eq!(
            baseline, parallel,
            "ReplicatedReport diverged at {threads} worker threads"
        );
        // Byte-identical, not just PartialEq: the serialised artefact
        // must not depend on scheduling either.
        assert_eq!(
            format!("{baseline:?}"),
            format!("{parallel:?}"),
            "debug serialisation diverged at {threads} worker threads"
        );
    }
}

#[test]
fn golden_replicated_aggregate_is_pinned() {
    // Golden pin over the whole pipeline (seed derivation → scenario
    // build → driver → aggregation). If this fails, the replication
    // seed stream or the simulation itself changed behaviour — update
    // the constants only for a deliberate, documented change.
    let agg = replicated(env_threads());
    assert_eq!(agg.n, 10);
    assert_eq!(agg.rounds.n(), 10);
    assert!(
        (agg.total_messages.mean() - 696.7).abs() < 1e-9,
        "total_messages mean drifted: {}",
        agg.total_messages.mean()
    );
    assert_eq!(agg.total_messages.min(), 144.0);
    assert_eq!(agg.total_messages.max(), 1596.0);
    assert!(
        (agg.rounds.mean() - 25.7).abs() < 1e-9,
        "rounds mean drifted: {}",
        agg.rounds.mean()
    );
    assert!(
        (agg.aware_online_fraction.mean() - 0.421_700_429_724_014_67).abs() < 1e-12,
        "awareness mean drifted: {}",
        agg.aware_online_fraction.mean()
    );
}

#[test]
fn substream_trajectories_differ_but_replay_exactly() {
    // Seed-independence at the full-pipeline level: distinct substreams
    // of one master seed produce distinct trajectories, while re-running
    // the experiment replays every replication bit for bit.
    let experiment = Experiment::new(77, 6).threads(env_threads());
    let run = || {
        experiment.run(|rep| {
            let scenario = Scenario::builder(100, rep.seed)
                .online_fraction(0.5)
                .build()
                .expect("valid scenario");
            let config = ProtocolConfig::builder(100)
                .fanout_absolute(4)
                .build()
                .expect("valid config");
            let r = propagate(&scenario, config, "indep", 50);
            (r.total_messages, r.protocol_messages, r.rounds)
        })
    };
    let first = run();
    let second = run();
    assert_eq!(first, second, "same substream must replay identically");
    let distinct: std::collections::HashSet<_> = first.iter().collect();
    assert!(
        distinct.len() > 1,
        "substreams must diverge in trajectory: {first:?}"
    );
}
