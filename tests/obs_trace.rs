//! Trace-determinism gates for `rumor-obs`: the structured trace is a
//! pure function of the seed, never of the executor or its thread
//! schedule, and capturing it never perturbs the run it observes.
//!
//! - A fixed-seed `VirtualCluster` run emits a byte-identical
//!   `TRACE_*.json` artefact on every run — pinned by a golden FNV-1a
//!   digest, so any drift in event emission, ordering or JSON layout is
//!   caught.
//! - The environment sub-trace (round starts, churn, crashes, restarts,
//!   initiations) is byte-identical between the virtual-time front-end
//!   and the sharded executor (worker pool and thread-per-replica
//!   placements) at N = 256 under churn + crashes + Byzantine members,
//!   and invariant to the sharded worker count (including the
//!   `RUMOR_TEST_THREADS` CI matrix).
//! - Mounting a `MemTracer` on the reference engine driver reproduces
//!   the untraced engine-parity signature bit for bit — tracing draws
//!   no randomness, so the `engine_parity` goldens stand unmodified.

use rand_chacha::ChaCha8Rng;
use rumor::churn::{Churn, MarkovChurn, OnlineSet};
use rumor::cluster::{ByzantineBehaviour, ByzantineSpec, ClusterBuilder, FaultSpec};
use rumor::core::{ProtocolConfig, PullStrategy};
use rumor::obs::{EventKind, MemTracer, TraceDoc, TRACE_SCHEMA};
use rumor::sim::{PaperProtocol, Scenario, UpdateEvent};
use rumor::types::DataKey;

/// Markov churn active only for the first `until` rounds — the same
/// windowed shape the sharded-executor suite drives.
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

/// FNV-1a 64 over the artefact bytes: a cheap, dependency-free content
/// pin that makes "byte-identical" a one-number golden.
fn fnv1a(text: &str) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for byte in text.bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn virtual_trace() -> TraceDoc {
    let scenario = cluster_scenario(40, 77, 20);
    let mut cluster = ClusterBuilder::new(&scenario)
        .faults(FaultSpec {
            crash_rate: 0.05,
            restart_after: 3,
            ..FaultSpec::default()
        })
        .expect("sound fault spec")
        .traced()
        .virtual_time(paper(40));
    cluster.initiate(&event("traced")).expect("someone online");
    cluster.run_rounds(30);
    cluster.take_trace("virtual").expect("cluster was traced")
}

#[test]
fn virtual_cluster_trace_is_golden_pinned_byte_for_byte() {
    let artefact = virtual_trace().to_json();
    assert_eq!(
        artefact,
        virtual_trace().to_json(),
        "two identical-seed runs emitted different artefacts"
    );
    assert!(artefact.contains(TRACE_SCHEMA), "schema tag missing");
    // Golden pin: any change to event emission, canonical ordering or
    // the JSON layout moves this digest. Update it only when the trace
    // format is *meant* to change, alongside the schema docs.
    assert_eq!(
        (fnv1a(&artefact), virtual_trace().events.len()),
        (0xec4b_3bd6_b9d3_d0af, 5155),
        "TRACE artefact drifted"
    );
}

#[test]
fn environment_trace_is_identical_across_real_time_executors() {
    // Mirror of the sharded-executor parity scenario: N = 256, churn
    // for 50 rounds, crash faults and a digest-lie block, on the inline
    // virtual-time front-end and on both real-time worker placements
    // (a 4-worker pool, one thread per replica). Message interleavings
    // differ between them, so full traces differ — but the environment
    // sub-trace is conductor-driven and must match byte for byte.
    let horizon = 200;
    let scenario = cluster_scenario(256, 4243, 50);
    let builder = || {
        ClusterBuilder::new(&scenario)
            .faults(FaultSpec {
                crash_rate: 0.06,
                restart_after: 4,
                byzantine: ByzantineSpec {
                    fraction: 0.05,
                    behaviour: ByzantineBehaviour::DigestLie,
                },
            })
            .expect("sound fault spec")
            .traced()
    };

    let mut inline = builder().virtual_time(paper(256));
    let update = inline.initiate(&event("parity")).expect("someone online");
    inline.run_rounds(horizon);
    let report = inline.report(update);
    assert!(
        report.crashes > 0 && report.byzantine > 0,
        "the fault schedule never fired"
    );
    let virtual_env = inline
        .take_trace("parity")
        .expect("virtual cluster was traced")
        .environment();
    assert!(
        !virtual_env.events.is_empty(),
        "environment sub-trace is empty"
    );

    for workers in [4, 256] {
        let mut sharded = builder().workers(workers).sharded(paper(256));
        let sharded_update = sharded.initiate(&event("parity")).expect("someone online");
        assert_eq!(update, sharded_update);
        sharded.run_rounds(horizon);
        let (_, sharded_trace) = sharded.finish_traced(update, "parity");
        let sharded_env = sharded_trace
            .expect("sharded cluster was traced")
            .environment();
        assert_eq!(
            virtual_env.to_json(),
            sharded_env.to_json(),
            "environment sub-traces diverged at {workers} workers:\n{}",
            virtual_env
                .diff(&sharded_env)
                .unwrap_or_else(|| "(no first divergence found)".into())
        );
    }
}

#[test]
fn environment_trace_is_invariant_to_the_sharded_worker_count() {
    // Same scenario, 1 vs 4 vs RUMOR_TEST_THREADS workers: the shard
    // partition must never leak into the captured environment.
    let run = |workers: usize| -> TraceDoc {
        let scenario = cluster_scenario(96, 909, 25);
        let mut cluster = ClusterBuilder::new(&scenario)
            .faults(FaultSpec {
                crash_rate: 0.08,
                restart_after: 3,
                ..FaultSpec::default()
            })
            .expect("sound fault spec")
            .traced()
            .workers(workers)
            .sharded(paper(96));
        let update = cluster.initiate(&event("workers")).expect("someone online");
        cluster.run_rounds(80);
        let (_, trace) = cluster.finish_traced(update, "workers");
        trace.expect("sharded cluster was traced").environment()
    };
    let configured: usize = std::env::var("RUMOR_TEST_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(4);
    let base = run(1);
    assert!(!base.events.is_empty());
    assert_eq!(
        base.to_json(),
        run(4).to_json(),
        "1 vs 4 workers diverged on the environment"
    );
    assert_eq!(
        base.to_json(),
        run(configured).to_json(),
        "1 vs RUMOR_TEST_THREADS workers diverged on the environment"
    );
}

#[test]
fn mounting_a_tracer_reproduces_the_engine_parity_signature() {
    // The engine-parity golden for the paper protocol, captured on the
    // *untraced* engine. A driver mounted with a `MemTracer` must
    // reproduce it bit for bit: tracing consumes no randomness and
    // schedules no effects.
    let protocol = PaperProtocol::new(
        ProtocolConfig::builder(150)
            .fanout_absolute(4)
            .pull_strategy(PullStrategy::Eager)
            .pull_retry(2, 3)
            .staleness_rounds(6)
            .build()
            .unwrap(),
    );
    let scenario = Scenario::builder(150, 42)
        .online_fraction(0.7)
        .churn(MarkovChurn::new(0.97, 0.2).unwrap())
        .loss(0.03)
        .build()
        .unwrap();
    let mut driver = scenario.drive_traced(&protocol, MemTracer::new());
    let update = driver
        .initiate(&protocol, None, &parity_event())
        .expect("someone online");
    let report = driver.track_update(&protocol, update, 40);
    assert_eq!(
        (
            report.rounds,
            report.total_messages,
            report.protocol_messages,
            report.aware_online_fraction.to_bits(),
            report.aware_total_fraction.to_bits(),
        ),
        (13, 4365, 430, 0x3ff0000000000000, 0x3feeeeeeeeeeeeef),
        "tracing perturbed the engine trajectory"
    );
    let events = driver.tracer_mut().take();
    assert!(!events.is_empty(), "the tracer captured nothing");
}

#[test]
fn probes_count_only_online_aware_nodes_on_both_paths() {
    // `Probe.aware` counts the nodes both online and aware. Under this
    // churn, nodes that learned the update go offline while still
    // aware, so a probe that counted every aware node would report
    // more aware nodes than online ones. Both execution paths fold
    // their probes through the same recorder and must agree on this.
    let scenario = Scenario::builder(40, 77)
        .online_fraction(0.75)
        .churn(MarkovChurn::new(0.9, 0.3).expect("valid churn"))
        .build()
        .expect("valid scenario");
    let protocol = || {
        PaperProtocol::new(
            ProtocolConfig::builder(40)
                .fanout_absolute(4)
                .pull_strategy(PullStrategy::Eager)
                .staleness_rounds(6)
                .build()
                .expect("valid config"),
        )
    };

    let mut cluster = ClusterBuilder::new(&scenario)
        .traced()
        .virtual_time(protocol());
    let update = cluster.initiate(&event("probed")).expect("someone online");
    cluster.run_until_all_online_aware(update, 10);
    let clustered = cluster.take_trace("cluster").expect("cluster was traced");

    let protocol = protocol();
    let mut driver = scenario.drive_traced(&protocol, MemTracer::new());
    let update = driver
        .initiate(&protocol, None, &event("probed"))
        .expect("someone online");
    driver.track_update(&protocol, update, 40);
    let driven = driver.tracer_mut().take();

    for (path, events) in [("cluster", clustered.events), ("driver", driven)] {
        let probes: Vec<(u32, u32, u32)> = events
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::Probe { online, aware } => Some((e.round, online, aware)),
                _ => None,
            })
            .collect();
        assert!(!probes.is_empty(), "{path}: no probe captured");
        let over: Vec<_> = probes.iter().filter(|p| p.2 > p.1).collect();
        assert!(
            over.is_empty(),
            "{path}: {} of {} probes (round, online, aware) count offline aware nodes: {over:?}",
            over.len(),
            probes.len()
        );
    }
}

fn parity_event() -> UpdateEvent {
    UpdateEvent {
        round: 0,
        key: DataKey::from_name("parity"),
        delete: false,
        sequence: 0,
    }
}
