//! Live-cluster integration suite: the `rumor-cluster` runtime executes
//! the same sans-IO nodes as the simulator, over encoded `rumor-wire`
//! frames, and must (a) deliver an initiated update to every online
//! replica under churn + loss + crash faults at N ≥ 64, (b) be
//! bit-reproducible in virtual-time mode (golden-pinned), and (c)
//! converge to the same awareness set over the final online population
//! as the `Driver` run of the identical scenario.

use rand_chacha::ChaCha8Rng;
use rumor::churn::{Churn, MarkovChurn, OnlineSet};
use rumor::cluster::{ClusterBuilder, DelaySpec, FaultSpec};
use rumor::core::{ProtocolConfig, PullStrategy};
use rumor::sim::{PaperProtocol, Protocol, Scenario, UpdateEvent};
use rumor::types::{DataKey, PeerId};

/// Markov churn active only for the first `until` rounds, so runs have a
/// genuine churn phase *and* a stable convergence check afterwards.
#[derive(Debug, Clone)]
struct WindowedChurn {
    inner: MarkovChurn,
    until: u32,
}

impl Churn for WindowedChurn {
    fn step(&mut self, round: u32, online: &mut OnlineSet, rng: &mut ChaCha8Rng) {
        if round < self.until {
            self.inner.step(round, online, rng);
        }
    }
}

fn windowed_churn(until: u32) -> WindowedChurn {
    WindowedChurn {
        inner: MarkovChurn::new(0.95, 0.3).expect("valid churn"),
        until,
    }
}

fn cluster_scenario(population: usize, seed: u64, churn_until: u32) -> Scenario {
    Scenario::builder(population, seed)
        .online_fraction(0.75)
        .churn(windowed_churn(churn_until))
        .loss(0.05)
        .build()
        .expect("valid scenario")
}

fn paper(population: usize) -> PaperProtocol {
    PaperProtocol::new(
        ProtocolConfig::builder(population)
            .fanout_absolute(4)
            .pull_strategy(PullStrategy::Eager)
            .pull_retry(2, 3)
            .staleness_rounds(6)
            .build()
            .expect("valid config"),
    )
}

fn event() -> UpdateEvent {
    UpdateEvent {
        round: 0,
        key: DataKey::from_name("cluster-motd"),
        delete: false,
        sequence: 0,
    }
}

#[test]
fn virtual_cluster_delivers_to_every_online_replica_under_faults() {
    // N = 64 under churn, 5% loss, crash/restart faults and extra
    // delivery delay: the acceptance scenario on the deterministic path.
    let scenario = cluster_scenario(64, 2026, 60);
    let mut cluster = ClusterBuilder::new(&scenario)
        .faults(FaultSpec {
            crash_rate: 0.10,
            restart_after: 4,
            ..FaultSpec::default()
        })
        .expect("sound fault spec")
        .delay(DelaySpec {
            max_extra_rounds: 1,
        })
        .virtual_time(paper(64));
    let update = cluster.initiate(&event()).expect("someone online");
    let converged = cluster.run_until_all_online_aware(update, 250);
    assert!(converged.is_some(), "cluster failed to converge");
    let report = cluster.report(update);
    assert_eq!(
        report.online, report.aware_online,
        "an online replica missed the update"
    );
    assert!(report.online > 0);
    assert_eq!(report.decode_errors, 0, "strict codec saw corrupt frames");
    assert!(report.crashes > 0, "fault injector never fired");
    assert!(report.lost_fault > 0, "loss model never fired");
    assert!(
        report.bytes_sent > report.frames_sent * 6,
        "every frame costs at least its header"
    );
}

#[test]
fn virtual_time_mode_is_bit_reproducible_and_golden_pinned() {
    let run = || {
        let scenario = cluster_scenario(64, 77, 40);
        let mut cluster = ClusterBuilder::new(&scenario)
            .faults(FaultSpec {
                crash_rate: 0.05,
                restart_after: 3,
                ..FaultSpec::default()
            })
            .expect("sound fault spec")
            .virtual_time(paper(64));
        let update = cluster.initiate(&event()).expect("someone online");
        cluster.run_rounds(100);
        cluster.report(update)
    };
    let first = run();
    let second = run();
    assert_eq!(first, second, "virtual-time mode must replay bit-for-bit");
    // Golden pin, captured from the first implementation: a drift in any
    // number means the cluster runtime's RNG consumption, codec sizes or
    // scheduling changed — do not update without understanding why.
    assert_eq!(first.rounds, 100);
    assert_eq!(
        (first.frames_sent, first.bytes_sent),
        (14_352, 366_054),
        "golden traffic totals drifted"
    );
    assert_eq!(
        (
            first.frames_delivered,
            first.lost_offline,
            first.lost_fault,
            first.decode_errors,
        ),
        (12_233, 1_345, 685, 0),
        "golden delivery split drifted"
    );
    assert_eq!(
        (first.crashes, first.restarts, first.aware_set.len()),
        (2, 2, 64),
        "golden fault/awareness outcome drifted"
    );
    assert_eq!((first.online, first.aware_online), (58, 58));
}

#[test]
fn cluster_and_engine_converge_to_the_same_awareness_set() {
    // The same Scenario drives both execution paths: the reference
    // simulation `Driver` and the live virtual-time cluster. Their churn
    // trajectories are identical (same model, same "churn" substream),
    // so after the churn window closes both must converge the *same*
    // final online population — and the cluster must inform exactly the
    // replicas the engine path informs, despite every message having
    // round-tripped through the wire codec.
    let horizon = 160;
    let scenario = cluster_scenario(64, 4242, 50);
    let protocol = paper(64);

    let mut driver = scenario.drive(&protocol);
    let engine_update = driver
        .initiate(&protocol, None, &event())
        .expect("someone online");
    driver.run_rounds(horizon);
    let engine_online: Vec<PeerId> = driver.online().iter_online().collect();
    let engine_aware_online: Vec<PeerId> = engine_online
        .iter()
        .copied()
        .filter(|&p| protocol.is_aware(driver.node(p), engine_update))
        .collect();

    let mut cluster = ClusterBuilder::new(&scenario).virtual_time(paper(64));
    let cluster_update = cluster.initiate(&event()).expect("someone online");
    cluster.run_rounds(horizon);
    let report = cluster.report(cluster_update);
    // The cluster's awareness restricted to the engine's final online
    // population (identical churn trajectory ⇒ identical online set,
    // asserted below via the online counts).
    let cluster_online_set: Vec<PeerId> = report
        .aware_set
        .iter()
        .copied()
        .filter(|p| engine_online.contains(p))
        .collect();

    // Both paths converged their full online population…
    assert_eq!(
        engine_aware_online.len(),
        engine_online.len(),
        "engine path left an online replica unaware"
    );
    assert_eq!(
        report.aware_online, report.online,
        "cluster path left an online replica unaware"
    );
    assert_eq!(
        report.online,
        engine_online.len(),
        "churn trajectories diverged"
    );
    // …and the awareness sets over that shared online population match.
    assert_eq!(
        cluster_online_set, engine_aware_online,
        "cluster and engine awareness sets diverged over the online population"
    );
    assert_eq!(report.decode_errors, 0);
}

#[test]
fn virtual_cluster_reports_the_second_updates_convergence_round() {
    // Regression: `converged_round` was never reset, so a second
    // tracked update's report carried the *first* update's round.
    let scenario = cluster_scenario(48, 13, 0);
    let mut cluster = ClusterBuilder::new(&scenario).virtual_time(paper(48));
    let first = cluster.initiate(&event()).expect("someone online");
    let first_round = cluster
        .run_until_all_online_aware(first, 100)
        .expect("first update converges");

    let rounds_before_second = cluster.rounds_run();
    let second_event = UpdateEvent {
        round: rounds_before_second,
        key: DataKey::from_name("cluster-motd-2"),
        delete: false,
        sequence: 1,
    };
    let second = cluster.initiate(&second_event).expect("someone online");
    assert_ne!(first, second);
    let second_round = cluster
        .run_until_all_online_aware(second, 100)
        .expect("second update converges");
    assert!(
        second_round >= rounds_before_second,
        "second convergence round {second_round} predates the second \
         initiation at {rounds_before_second} — stale probe state \
         (first converged at {first_round})"
    );
    assert_eq!(cluster.report(second).converged_round, Some(second_round));
}
