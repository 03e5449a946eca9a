//! Engine-parity golden pins: the sink-based effect API and the
//! allocation-free `SyncEngine` internals (recycled inboxes, in-place
//! availability snapshot, heap-backed timers, O(1) quiescence) must be
//! observationally identical to the historical Vec-returning engine.
//!
//! Every constant below was captured by running the *pre-refactor* engine
//! on these exact scenarios; one scenario per protocol family runs
//! through the refactored stack and must reproduce the signatures bit for
//! bit (awareness fractions are compared via `f64::to_bits`). A drift in
//! any number means the refactor changed RNG call order or effect
//! scheduling — do not update the constants without understanding why.

use rumor::baselines::{
    AntiEntropy, GnutellaFlooding, Gossip1, MongerConfig, MongerStop, PureFlooding, RumorMongering,
};
use rumor::churn::MarkovChurn;
use rumor::core::{ProtocolConfig, PullStrategy};
use rumor::sim::{
    Experiment, PaperProtocol, Protocol, ReplicatedReport, Scenario, UpdateEvent, WorkloadBuilder,
};
use rumor::types::DataKey;

/// `(rounds, total_messages, protocol_messages, aware_online_bits,
/// aware_total_bits)`.
type Signature = (u32, u64, u64, u64, u64);

fn parity_scenario(population: usize, seed: u64) -> Scenario {
    Scenario::builder(population, seed)
        .online_fraction(0.7)
        .churn(MarkovChurn::new(0.97, 0.2).unwrap())
        .loss(0.03)
        .build()
        .unwrap()
}

fn parity_event() -> UpdateEvent {
    UpdateEvent {
        round: 0,
        key: DataKey::from_name("parity"),
        delete: false,
        sequence: 0,
    }
}

fn paper_config(population: usize) -> ProtocolConfig {
    ProtocolConfig::builder(population)
        .fanout_absolute(4)
        .pull_strategy(PullStrategy::Eager)
        .pull_retry(2, 3)
        .staleness_rounds(6)
        .build()
        .unwrap()
}

fn signature<P: Protocol>(protocol: &P, horizon: u32) -> Signature {
    let scenario = parity_scenario(150, 42);
    let mut driver = scenario.drive(protocol);
    let update = driver
        .initiate(protocol, None, &parity_event())
        .expect("someone online");
    let report = driver.track_update(protocol, update, horizon);
    (
        report.rounds,
        report.total_messages,
        report.protocol_messages,
        report.aware_online_fraction.to_bits(),
        report.aware_total_fraction.to_bits(),
    )
}

#[test]
fn paper_peer_signature_is_unchanged() {
    // Exercises every callback: pushes and acks (messages), eager pulls
    // with retry timers (status changes + timers), staleness pulls
    // (round starts).
    assert_eq!(
        signature(&PaperProtocol::new(paper_config(150)), 40),
        (13, 4365, 430, 0x3ff0000000000000, 0x3feeeeeeeeeeeeef),
    );
}

#[test]
fn gnutella_flooding_signature_is_unchanged() {
    assert_eq!(
        signature(&GnutellaFlooding { fanout: 5, ttl: 8 }, 40),
        (7, 650, 0, 0x3fee43790de43791, 0x3febbbbbbbbbbbbc),
    );
}

#[test]
fn pure_flooding_signature_is_unchanged() {
    assert_eq!(
        signature(&PureFlooding { fanout: 4, ttl: 6 }, 40),
        (6, 1996, 0, 0x3ff0000000000000, 0x3fec5f92c5f92c60),
    );
}

#[test]
fn gossip1_signature_is_unchanged() {
    assert_eq!(
        signature(
            &Gossip1 {
                fanout: 5,
                ttl: 8,
                p: 0.8,
                k: 2,
            },
            40,
        ),
        (8, 470, 0, 0x3fec47711dc47712, 0x3fea06d3a06d3a07),
    );
}

#[test]
fn anti_entropy_signature_is_unchanged() {
    assert_eq!(
        signature(&AntiEntropy { push_pull: true }, 60),
        (14, 3104, 0, 0x3ff0000000000000, 0x3fee147ae147ae14),
    );
}

#[test]
fn rumor_mongering_signature_is_unchanged() {
    assert_eq!(
        signature(
            &RumorMongering {
                config: MongerConfig {
                    feedback: true,
                    stop: MongerStop::Coin { k: 4 },
                },
            },
            80,
        ),
        (20, 1473, 0, 0x3ff0000000000000, 0x3fef5c28f5c28f5c),
    );
}

#[test]
fn workload_with_tombstones_signature_is_unchanged() {
    // Writes + tombstones through Scenario::run (Driver::run_workload):
    // pins the Driver::initiate path (sink injection) and per-update
    // convergence bookkeeping.
    let workload = WorkloadBuilder::new(9)
        .rate_per_round(0.3)
        .rounds(20)
        .generate();
    let scenario = Scenario::builder(120, 7)
        .online_fraction(0.6)
        .churn(MarkovChurn::new(0.95, 0.25).unwrap())
        .loss(0.02)
        .workload(workload)
        .build()
        .unwrap();
    let report = scenario.run(&PaperProtocol::new(paper_config(120)), 10);
    assert_eq!(report.rounds, 22);
    assert_eq!(report.messages, 6371);
    assert_eq!(report.dropped_events, 0);
    let updates: Vec<(u32, Option<u32>, u64)> = report
        .updates
        .iter()
        .map(|u| {
            (
                u.sequence,
                u.converged_round,
                u.final_aware_online.to_bits(),
            )
        })
        .collect();
    assert_eq!(
        updates,
        vec![
            (0, None, 4606387665924599085),
            (1, None, 4607094112924970928),
        ]
    );
}

#[test]
fn seed_parity_between_runs_and_thread_counts() {
    // The same scenario driven twice replays bit-for-bit, and the
    // replication harness aggregates identically for any worker count
    // (honouring the RUMOR_TEST_THREADS matrix the CI jobs set).
    let protocol = PaperProtocol::new(paper_config(150));
    let run = |threads: usize| -> ReplicatedReport {
        Experiment::new(42, 4)
            .threads(threads)
            .run_replicated(|rep| {
                let scenario = parity_scenario(150, rep.seed);
                let mut driver = scenario.drive(&protocol);
                let update = driver
                    .initiate(&protocol, None, &parity_event())
                    .expect("someone online");
                driver.track_update(&protocol, update, 40)
            })
    };
    let configured: usize = std::env::var("RUMOR_TEST_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(4);
    let base = run(1);
    assert_eq!(base, run(4), "1 vs 4 worker threads");
    assert_eq!(base, run(configured), "1 vs RUMOR_TEST_THREADS workers");
    assert_eq!(base.n, 4);
}
