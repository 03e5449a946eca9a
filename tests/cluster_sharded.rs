//! Sharded-executor integration suite: M worker threads hosting N
//! replica cells must (a) converge under churn + loss + crashes like
//! the virtual-time front-end, (b) agree across worker placements —
//! one thread per replica vs a 4-worker pool — on the converged online
//! population when driven by the identical scenario (same churn, fault
//! and Byzantine substreams), (c) drain flood-style traffic to provable
//! quiescence with exact frame conservation, (d) track multiple
//! sequential updates correctly — the converged-round reset and
//! initiate-stats-freshness fixes end to end — and (e) with one worker
//! be the virtual-time front-end bit for bit: the contract that lets
//! both share one conductor and one shard core.

use rand_chacha::ChaCha8Rng;
use rumor::churn::{Churn, MarkovChurn, OnlineSet};
use rumor::cluster::{
    ByzantineBehaviour, ByzantineSpec, ClusterBuilder, ClusterReport, DelaySpec, FaultSpec,
    WireVersion,
};
use rumor::core::{ProtocolConfig, PullStrategy};
use rumor::sim::{PaperProtocol, Scenario, UpdateEvent};
use rumor::types::{DataKey, PeerId};

/// Markov churn active only for the first `until` rounds, so runs have
/// a genuine churn phase *and* a stable convergence check afterwards.
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

fn cluster_scenario(population: usize, seed: u64, churn_until: u32) -> Scenario {
    Scenario::builder(population, seed)
        .online_fraction(0.75)
        .churn(WindowedChurn {
            inner: MarkovChurn::new(0.95, 0.3).expect("valid churn"),
            until: churn_until,
        })
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

fn event(name: &str) -> UpdateEvent {
    UpdateEvent {
        round: 0,
        key: DataKey::from_name(name),
        delete: false,
        sequence: 0,
    }
}

#[test]
fn sharded_cluster_converges_under_churn_loss_and_crashes() {
    // N = 256 on a 4-worker pool under churn, 5% loss and crash faults:
    // the acceptance scenario on the scale path.
    let scenario = cluster_scenario(256, 2027, 60);
    let mut cluster = ClusterBuilder::new(&scenario)
        .faults(FaultSpec {
            crash_rate: 0.10,
            restart_after: 4,
            ..FaultSpec::default()
        })
        .expect("sound fault spec")
        .workers(4)
        .sharded(paper(256));
    assert_eq!(cluster.workers(), 4);
    assert_eq!(cluster.population(), 256);
    let update = cluster
        .initiate(&event("sharded-motd"))
        .expect("someone online");
    // Ride out the churn/fault window first, then require convergence
    // once the environment calms down.
    cluster.run_rounds(60);
    let converged = cluster.run_until_all_online_aware(update, 250);
    assert!(converged.is_some(), "sharded cluster failed to converge");
    assert!(cluster.frames_sent() > 0);
    assert!(cluster.bytes_sent() > cluster.frames_sent() * 6);
    let report = cluster.finish(update);
    assert_eq!(report.online, report.aware_online);
    assert_eq!(report.decode_errors, 0);
    assert!(report.crashes > 0, "fault injector never fired");
    assert!(report.restarts > 0, "no cell was ever un-parked");
    assert!(report.lost_fault > 0, "loss model never fired");
}

#[test]
fn threaded_and_sharded_agree_on_the_converged_population() {
    // The same Scenario drives both worker placements of the one
    // executor: `workers(256)` is one OS thread per replica, `workers(4)`
    // the pool. Churn, fault and Byzantine substreams are identical and
    // the conductor consumes the control stream identically, so after
    // the same number of rounds the environments match exactly: same
    // online set, same down set, same initiator, same adversaries.
    // Message interleavings (and so per-frame trajectories) differ — the
    // invariants compared are outcome-level.
    let scenario = cluster_scenario(256, 4243, 50);
    let faults = FaultSpec {
        crash_rate: 0.06,
        restart_after: 4,
        byzantine: ByzantineSpec {
            fraction: 0.05,
            behaviour: ByzantineBehaviour::DigestLie,
        },
    };
    let run = |workers: usize| {
        let mut cluster = ClusterBuilder::new(&scenario)
            .faults(faults)
            .expect("sound fault spec")
            .workers(workers)
            .sharded(paper(256));
        assert_eq!(cluster.workers(), workers);
        let update = cluster.initiate(&event("parity")).expect("someone online");
        cluster.run_rounds(200);
        let online = cluster.online_peers();
        (update, online, cluster.finish(update))
    };
    let (threaded_update, threaded_online, threaded_report) = run(256);
    let (sharded_update, sharded_online, sharded_report) = run(4);

    assert_eq!(
        threaded_update, sharded_update,
        "same control substream must pick the same initiator"
    );
    // Identical environment trajectory…
    assert_eq!(
        threaded_online, sharded_online,
        "online populations diverged under the same churn + fault streams"
    );
    assert_eq!(threaded_report.crashes, sharded_report.crashes);
    assert_eq!(threaded_report.restarts, sharded_report.restarts);
    assert_eq!(threaded_report.byzantine, sharded_report.byzantine);
    assert!(threaded_report.byzantine > 0, "no adversary was mounted");
    // …and the same awareness outcome over it: both placements fully
    // converged their online population despite the digest liars.
    assert_eq!(threaded_report.online, threaded_report.aware_online);
    assert_eq!(sharded_report.online, sharded_report.aware_online);
    let aware_online = |report: &ClusterReport| -> Vec<PeerId> {
        let aware = report.aware_set.iter().copied();
        aware.filter(|p| sharded_online.contains(p)).collect()
    };
    assert_eq!(
        aware_online(&threaded_report),
        aware_online(&sharded_report),
        "awareness over the shared online population diverged"
    );
    // Frame conservation holds in both placements: nothing is created
    // or destroyed outside the four consumption buckets (exact equality
    // needs quiescence, which staleness pulls never reach — in-flight
    // frames keep `consumed ≤ sent` an inequality here).
    for report in [&threaded_report, &sharded_report] {
        let consumed = report.frames_delivered
            + report.lost_offline
            + report.lost_fault
            + report.decode_errors;
        assert!(
            consumed <= report.frames_sent,
            "consumed more frames than were ever sent"
        );
        assert_eq!(report.decode_errors, 0, "digest lies stay wire-valid");
        assert!(report.frames_tampered > 0, "liars never lied");
    }
}

#[test]
fn sharded_cluster_drains_to_quiescence_without_round_start_traffic() {
    // Flood-style traffic (no per-round pulls) must quiesce, and the
    // conductor must prove it from the shard reports alone — then the
    // frame ledger balances exactly.
    use rumor::baselines::GnutellaFlooding;
    let scenario = Scenario::builder(96, 5).build().expect("valid scenario");
    let mut cluster = ClusterBuilder::new(&scenario)
        .workers(3)
        .sharded(GnutellaFlooding { fanout: 4, ttl: 6 });
    let update = cluster.initiate(&event("flood")).expect("someone online");
    cluster.run_rounds(30);
    assert!(cluster.is_quiescent(), "flood must drain");
    let report = cluster.finish(update);
    assert_eq!(
        report.frames_sent,
        report.frames_delivered + report.lost_offline + report.lost_fault + report.decode_errors,
        "every frame is accounted exactly once"
    );
    assert!(report.aware_online_fraction() > 0.9);
}

#[test]
fn sharded_cluster_tracks_sequential_updates_independently() {
    // Two updates in one run. The second `run_until_all_online_aware`
    // must measure the *second* update (the probe state resets when the
    // tracked update changes), and `frames_sent()` must reflect the
    // second initiation immediately, not at the next barrier.
    let scenario = cluster_scenario(128, 71, 0);
    let mut cluster = ClusterBuilder::new(&scenario)
        .workers(4)
        .sharded(paper(128));
    let first = cluster.initiate(&event("first")).expect("someone online");
    let first_round = cluster
        .run_until_all_online_aware(first, 120)
        .expect("first update converges");

    let rounds_before_second = cluster.rounds_run();
    let frames_before_second = cluster.frames_sent();
    let second = cluster.initiate(&event("second")).expect("someone online");
    assert_ne!(first, second, "distinct keys must yield distinct updates");
    assert!(
        cluster.frames_sent() > frames_before_second,
        "initiation frames must reach the accounting before the next barrier"
    );
    let second_round = cluster
        .run_until_all_online_aware(second, 120)
        .expect("second update converges");
    assert!(
        second_round >= rounds_before_second,
        "second convergence round {second_round} predates the second \
         initiation at {rounds_before_second} — stale probe state \
         (first converged at {first_round})"
    );
    let report = cluster.finish(second);
    assert_eq!(report.converged_round, Some(second_round));
    assert_eq!(report.online, report.aware_online);
    assert_eq!(report.decode_errors, 0);
}

#[test]
fn worker_count_defaults_to_available_parallelism_and_clamps() {
    // Default worker count mounts and runs; a worker count above the
    // population clamps to one cell per worker.
    let scenario = Scenario::builder(12, 3).build().expect("valid scenario");
    let mut cluster = ClusterBuilder::new(&scenario).sharded(paper(12));
    assert!(cluster.workers() >= 1);
    assert!(cluster.workers() <= 12, "never more workers than cells");
    let update = cluster
        .initiate(&event("defaults"))
        .expect("someone online");
    cluster
        .run_until_all_online_aware(update, 60)
        .expect("converges");
    let report = cluster.finish(update);
    assert_eq!(report.online, report.aware_online);

    let scenario = Scenario::builder(8, 4).build().expect("valid scenario");
    let cluster = ClusterBuilder::new(&scenario).workers(64).sharded(paper(8));
    assert_eq!(cluster.workers(), 8, "worker pool clamps to population");
}

#[test]
fn one_worker_sharded_is_virtual_time_bit_for_bit() {
    // Crash faults, churn, loss, a second update initiated mid-run and
    // probed to convergence: with a single worker the cells tick in id
    // order and frames re-enter the inboxes in send order, so the whole
    // report — traffic ledger, aware set, convergence round — must
    // equal the inline front-end's field for field.
    let faults = FaultSpec {
        crash_rate: 0.10,
        restart_after: 4,
        ..FaultSpec::default()
    };
    let delayed = DelaySpec {
        max_extra_rounds: 3,
    };
    for seed in [7, 2026, 4243] {
        for wire in [WireVersion::V1, WireVersion::V2] {
            for delay in [DelaySpec::default(), delayed] {
                let case = format!("seed {seed}, {wire:?}, {delay:?}");
                let scenario = cluster_scenario(64, seed, 40);
                let builder = || {
                    ClusterBuilder::new(&scenario)
                        .faults(faults)
                        .expect("sound fault spec")
                        .wire(wire)
                        .delay(delay)
                };

                let mut inline = builder().virtual_time(paper(64));
                inline.initiate(&event("first")).expect("someone online");
                inline.run_rounds(30);
                let update = inline.initiate(&event("second")).expect("someone online");
                let inline_round = inline.run_until_all_online_aware(update, 250);

                let mut pooled = builder().workers(1).sharded(paper(64));
                pooled.initiate(&event("first")).expect("someone online");
                pooled.run_rounds(30);
                let pooled_update = pooled.initiate(&event("second")).expect("someone online");
                assert_eq!(update, pooled_update, "{case}: initiator diverged");
                let pooled_round = pooled.run_until_all_online_aware(update, 250);

                assert!(inline_round.is_some(), "{case}: never converged");
                assert_eq!(inline_round, pooled_round, "{case}: convergence round");
                let report = inline.report(update);
                assert!(report.crashes > 0, "{case}: fault schedule never fired");
                // §4.1, rounds need not be synchronous: also under
                // multi-round skew, peers the churn window took offline
                // recover by eager pull, not by the push alone.
                let pulls: u64 = (0..64)
                    .map(|i| inline.node(PeerId::new(i)).stats().pulls_initiated)
                    .sum();
                assert!(pulls > 0, "{case}: returning peers must have pulled");
                assert_eq!(report, pooled.finish(update), "{case}: reports diverged");
            }
        }
    }
}

#[test]
fn reports_carry_a_convergence_round_only_for_the_probed_update() {
    // Regression: the report fold copied the conductor's convergence
    // round unconditionally, so after probing `a` a report for the
    // unprobed `b` claimed `a`'s round. One fold, both front-ends.
    let scenario = cluster_scenario(48, 13, 0);

    let mut inline = ClusterBuilder::new(&scenario).virtual_time(paper(48));
    let a = inline.initiate(&event("a")).expect("someone online");
    let a_round = inline
        .run_until_all_online_aware(a, 100)
        .expect("a converges");
    let b = inline.initiate(&event("b")).expect("someone online");
    assert_eq!(inline.report(b).converged_round, None, "b was never probed");
    assert_eq!(inline.report(a).converged_round, Some(a_round));
    let b_round = inline
        .run_until_all_online_aware(b, 100)
        .expect("b converges");
    assert_eq!(inline.report(b).converged_round, Some(b_round));
    assert_eq!(inline.report(a).converged_round, None, "probe moved to b");

    // `finish` consumes the cluster: one run per asserted report.
    for finish_on_b in [true, false] {
        let mut pooled = ClusterBuilder::new(&scenario).workers(3).sharded(paper(48));
        let a = pooled.initiate(&event("a")).expect("someone online");
        let a_round = pooled
            .run_until_all_online_aware(a, 100)
            .expect("a converges");
        let b = pooled.initiate(&event("b")).expect("someone online");
        if finish_on_b {
            assert_eq!(pooled.finish(b).converged_round, None, "b was never probed");
        } else {
            // Re-probing the probed update keeps its first verdict.
            assert_eq!(pooled.run_until_all_online_aware(a, 10), Some(a_round));
            assert_eq!(pooled.finish(a).converged_round, Some(a_round));
        }
    }
}
