//! The declarative `Scenario` pipeline end to end: multi-update workloads
//! with tombstones through `run_workload`, and the seed-parity pin
//! proving the driver redesign changed no trajectories.

use rumor::baselines::GnutellaFlooding;
use rumor::churn::MarkovChurn;
use rumor::core::{ProtocolConfig, PullStrategy};
use rumor::sim::{ConvergenceSpec, PaperProtocol, Scenario, UpdateEvent, WorkloadBuilder};
use rumor::types::DataKey;

/// The scheduled write of `key` every tracked push here initiates.
fn write(key: DataKey) -> UpdateEvent {
    UpdateEvent {
        round: 0,
        key,
        delete: false,
        sequence: 0,
    }
}

/// A `WorkloadBuilder` schedule (multiple keys, deletes included) runs
/// through `run_workload` with per-update convergence tracking; tombstone
/// events become visible death certificates in the stores.
#[test]
fn workload_with_tombstones_executes_end_to_end() {
    let population = 300;
    let workload = WorkloadBuilder::new(41)
        .keys(&["board/a", "board/b", "board/c"])
        .rate_per_round(0.2)
        .rounds(60)
        .delete_fraction(0.3)
        .generate();
    let deletes: Vec<&UpdateEvent> = workload.iter().filter(|e| e.delete).collect();
    assert!(!deletes.is_empty(), "schedule must include tombstones");

    let scenario = Scenario::builder(population, 41)
        .online_fraction(0.6)
        .churn(MarkovChurn::new(0.99, 0.05).unwrap())
        .workload(workload.clone())
        .build()
        .unwrap();
    let config = ProtocolConfig::builder(population)
        .fanout_fraction(0.05)
        .pull_strategy(PullStrategy::Eager)
        .pull_retry(2, 4)
        .build()
        .unwrap();

    let protocol = PaperProtocol::new(config);
    let mut driver = scenario.drive(&protocol);
    let report = driver.run_workload(&protocol, scenario.workload(), 60);

    assert_eq!(
        report.updates.len(),
        workload.len(),
        "every event initiated"
    );
    assert_eq!(report.dropped_events, 0);
    assert!(
        report.mean_final_awareness() > 0.9,
        "per-update awareness stays high under mild churn, got {}",
        report.mean_final_awareness()
    );
    assert!(
        report.converged_fraction() > 0.5,
        "most updates reach full online awareness, got {}",
        report.converged_fraction()
    );
    for outcome in &report.updates {
        if let Some(round) = outcome.converged_round {
            assert!(round >= outcome.initiated_round);
            assert!(
                (outcome.final_aware_online - 1.0).abs() < 0.2,
                "a converged update stays widely known: {outcome:?}"
            );
        }
    }

    // Tombstone visibility: for every delete event, some peer that
    // processed it holds a death certificate for the key.
    for event in deletes {
        let outcome = report
            .updates
            .iter()
            .find(|o| o.sequence == event.sequence)
            .expect("tracked");
        assert!(outcome.delete);
        let holder = driver
            .nodes()
            .iter()
            .find(|p| p.has_processed(outcome.update))
            .expect("someone processed the delete");
        assert!(
            holder
                .store()
                .versions(event.key)
                .iter()
                .any(|v| v.is_tombstone()),
            "a processed delete must leave a tombstone for {}",
            event.key
        );
    }
}

/// Seed parity: the constants below were recorded by running this exact
/// configuration against the **pre-redesign** simulator (its own round
/// loop, commit 7ce9ffc), so a pass proves the `Scenario` → `Driver` path
/// every protocol now runs on changed no trajectory.
#[test]
fn driver_path_matches_simulation_propagate_bit_for_bit() {
    let population = 400;
    let key = DataKey::from_name("parity");
    let config = ProtocolConfig::builder(population)
        .fanout_absolute(5)
        .build()
        .unwrap();
    let scenario = Scenario::builder(population, 99)
        .online_fraction(0.5)
        .churn(MarkovChurn::new(0.95, 0.01).unwrap())
        .build()
        .unwrap();
    let protocol = PaperProtocol::new(config);
    let mut driver = scenario.drive(&protocol);
    let update = driver.initiate(&protocol, None, &write(key)).unwrap();
    let run = driver.track_update(&protocol, update, 50);
    let duplicates: u64 = driver
        .nodes()
        .iter()
        .map(|p| p.stats().duplicates_received)
        .sum();

    // Golden trajectory recorded from the pre-redesign implementation.
    assert_eq!(run.rounds, 21);
    assert_eq!(run.protocol_messages, 657);
    assert_eq!(run.total_messages, 874);
    assert_eq!(duplicates, 123);
    assert_eq!(run.initial_online, 200);
    assert_eq!(run.aware_online_fraction, 70.0 / 97.0);
    assert_eq!(run.aware_total_fraction, 0.37);
    let last = run.per_round.last().unwrap();
    assert_eq!((last.round, last.online, last.aware_online), (20, 97, 70));
}

/// The convergence criterion is part of the scenario, not a buried
/// constant: loosening the target ends tracking earlier.
#[test]
fn scenario_convergence_spec_controls_tracking() {
    let key = DataKey::from_name("conv");
    let run = |spec: ConvergenceSpec| {
        let scenario = Scenario::builder(300, 5).convergence(spec).build().unwrap();
        let config = ProtocolConfig::builder(300)
            .fanout_absolute(6)
            .build()
            .unwrap();
        let protocol = PaperProtocol::new(config);
        let mut driver = scenario.drive(&protocol);
        let update = driver.initiate(&protocol, None, &write(key)).unwrap();
        driver.track_update(&protocol, update, 60)
    };
    let strict = run(ConvergenceSpec::default());
    let loose = run(ConvergenceSpec {
        target: 0.4,
        ..ConvergenceSpec::default()
    });
    assert!(
        loose.rounds < strict.rounds,
        "{} !< {}",
        loose.rounds,
        strict.rounds
    );
    assert!(loose.aware_online_fraction < strict.aware_online_fraction);
}

/// One scenario drives a baseline and the paper protocol under identical
/// conditions — the whole point of the redesign.
#[test]
fn one_scenario_drives_paper_and_baseline_alike() {
    let population = 200;
    let scenario = Scenario::builder(population, 13)
        .online_fraction(0.8)
        .build()
        .unwrap();
    let event = write(DataKey::from_name("versus"));

    let paper = PaperProtocol::new(
        ProtocolConfig::builder(population)
            .fanout_absolute(5)
            .pull_strategy(PullStrategy::OnDemand)
            .build()
            .unwrap(),
    );
    let mut ours = scenario.drive(&paper);
    let update = ours.initiate(&paper, None, &event).unwrap();
    let ours_report = ours.track_update(&paper, update, 60);

    let flood = GnutellaFlooding { fanout: 5, ttl: 10 };
    let mut theirs = scenario.drive(&flood);
    let rumor = theirs.initiate(&flood, None, &event).unwrap();
    let flood_report = theirs.track_update(&flood, rumor, 60);

    assert_eq!(
        ours.initial_online(),
        theirs.initial_online(),
        "same environment"
    );
    assert!(ours_report.aware_online_fraction > 0.9);
    assert!(flood_report.aware_online_fraction > 0.9);
    assert!(
        ours_report.protocol_messages < flood_report.total_messages,
        "the partial list + PF decay beat duplicate-avoidance flooding: {} !< {}",
        ours_report.protocol_messages,
        flood_report.total_messages
    );
}
