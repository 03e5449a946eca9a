//! Tracked live-cluster throughput measurement (frames/sec, bytes/sec).
//!
//! The `rumor-cluster` runtime is the repo's real-time path: live
//! replicas exchanging encoded `rumor-wire` frames. This module defines
//! its tracked benchmark — a steady-state environment (partial
//! knowledge, churn, loss, a paper-peer configuration whose staleness
//! pulls keep traffic flowing forever)
//! executed live on the sharded executor (a worker pool sized to the
//! machine's available parallelism hosting all cells). Emitted as
//! `BENCH_cluster.json` so the throughput trajectory is comparable
//! across commits in both frames *and* bytes per second.

use rumor_baselines::AntiEntropy;
use rumor_churn::MarkovChurn;
use rumor_cluster::ClusterBuilder;
use rumor_core::{ProtocolConfig, PullStrategy};
use rumor_net::Node;
use rumor_sim::{PaperProtocol, Protocol, Scenario, TopologySpec, UpdateEvent};
use rumor_types::json::Json;
use rumor_types::DataKey;
use rumor_wire::{Decode, Encode, WireVersion};
use std::time::Instant;

/// Seed every cluster-bench scenario derives from.
pub const CLUSTER_BENCH_SEED: u64 = 99;

/// Untimed rounds before the measured window. Long enough that the
/// initial flood has decayed and (under wire v2) most peer pairs have
/// exchanged their first delta pull — the measured window is the
/// steady-state staleness-pull regime, not the transient.
pub const WARMUP_ROUNDS: u32 = 40;

/// Distinct updates seeded at round 0 (one per key). The paper's
/// steady-state regime circulates many updates, so the store every v1
/// pull digests is O(`BENCH_UPDATE_BURST`) — a single-update store
/// would hide exactly the O(store)-vs-O(delta) gap the wire-v2 rows
/// exist to measure.
pub const BENCH_UPDATE_BURST: usize = 16;

/// Round cap for the deterministic convergence probe attached to every
/// row (virtual-time replay of the same scenario seed).
pub const CONVERGENCE_PROBE_CAP: u32 = 400;

/// One measured configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterBenchRow {
    /// Contender label (`"paper"` or `"anti-entropy"`).
    pub contender: String,
    /// Executor label (always `"sharded"`; kept so schema v2 holds).
    pub mode: String,
    /// Population size (= replicas mounted).
    pub population: usize,
    /// Rounds in the timed window.
    pub rounds: u32,
    /// Wall-clock seconds for the timed window.
    pub elapsed_secs: f64,
    /// Encoded frames sent per second during the window.
    pub frames_per_sec: f64,
    /// Encoded bytes sent per second during the window.
    pub bytes_per_sec: f64,
    /// Frames sent during the window.
    pub frames: u64,
    /// Bytes sent during the window.
    pub bytes: u64,
    /// Wire codec version the cluster ran (1 or 2).
    pub wire_version: u8,
    /// Logical protocol messages inside `frames` (equal to `frames`
    /// under wire v1; larger under v2 batch frames).
    pub messages: u64,
    /// Mean encoded bytes per frame during the window.
    pub mean_frame_bytes: f64,
    /// Mean encoded bytes per *logical message* during the window — the
    /// bandwidth-diet metric that batching and delta pulls push down.
    pub mean_message_bytes: f64,
    /// First round at which every online node was aware of the tracked
    /// update, from a deterministic virtual-time replay of the same
    /// scenario seed and protocol (worker-pool interleavings are
    /// nondeterministic, so convergence is probed out of band). `None`
    /// if the probe cap elapsed first.
    pub converged_round: Option<u32>,
    /// Frames the run failed to decode (whole-run total; asserted zero
    /// for bench traffic, published so regressions are visible in the
    /// artefact, not just in a panic message).
    pub decode_errors: u64,
    /// Frames carrying an unknown wire version (whole-run total).
    pub version_mismatches: u64,
    /// Frames corrupted by Byzantine members before send (whole-run
    /// total; zero under the bench's fault-free plan).
    pub frames_tampered: u64,
}

/// The steady-state environment: partial knowledge (§2), Markov churn
/// and link loss, mounted live.
pub fn bench_scenario(population: usize, seed: u64) -> Scenario {
    let k = 32.min(population.saturating_sub(1)).max(1);
    Scenario::builder(population, seed)
        .online_fraction(0.7)
        .topology(TopologySpec::RandomSubset { k })
        .churn(MarkovChurn::new(0.97, 0.2).expect("valid churn"))
        .loss(0.03)
        .build()
        .expect("valid bench scenario")
}

/// The paper-peer configuration under test: staleness pulls keep the
/// cluster under sustained load forever (steady state, not a decaying
/// flood).
pub fn bench_paper_config(population: usize) -> ProtocolConfig {
    ProtocolConfig::builder(population)
        .fanout_absolute(4)
        .pull_strategy(PullStrategy::Eager)
        .pull_retry(2, 3)
        .staleness_rounds(6)
        .build()
        .expect("valid bench config")
}

/// The same paper-peer configuration with digest-delta pulls enabled —
/// the wire-v2 contender (pull requests name the store's state by its
/// 8-byte fingerprint and answers carry only what that state lacks
/// instead of the full digest).
pub fn bench_paper_config_v2(population: usize) -> ProtocolConfig {
    ProtocolConfig::builder(population)
        .fanout_absolute(4)
        .pull_strategy(PullStrategy::Eager)
        .pull_retry(2, 3)
        .staleness_rounds(6)
        .delta_pulls(true)
        .build()
        .expect("valid bench config")
}

fn bench_event(index: usize) -> UpdateEvent {
    UpdateEvent {
        round: 0,
        key: DataKey::from_name(&format!("cluster-bench-{index}")),
        delete: false,
        sequence: 0,
    }
}

/// Replays the row's scenario seed and protocol in the deterministic
/// virtual-time executor to pin the convergence round — the live
/// executors' interleavings are nondeterministic, so convergence is
/// probed out of band where it is bit-reproducible.
fn probe_converged_round<P>(scenario: &Scenario, protocol: P, wire: WireVersion) -> Option<u32>
where
    P: Protocol,
    <P::Node as Node>::Msg: Encode + Decode,
{
    let mut probe = ClusterBuilder::new(scenario)
        .wire(wire)
        .virtual_time(protocol);
    let update = probe.initiate(&bench_event(0))?;
    for i in 1..BENCH_UPDATE_BURST {
        probe.initiate(&bench_event(i))?;
    }
    probe.run_until_all_online_aware(update, CONVERGENCE_PROBE_CAP)
}

fn measure<P>(
    label: &str,
    protocol: P,
    population: usize,
    rounds: u32,
    wire: WireVersion,
) -> ClusterBenchRow
where
    P: Protocol + Clone + Send + Sync + 'static,
    P::Node: Send + 'static,
    <P::Node as Node>::Msg: Encode + Decode + Send,
{
    let scenario = bench_scenario(population, CLUSTER_BENCH_SEED);
    let converged_round = probe_converged_round(&scenario, protocol.clone(), wire);
    let mut cluster = ClusterBuilder::new(&scenario).wire(wire).sharded(protocol);
    let update = cluster
        .initiate(&bench_event(0))
        .expect("bench initiator online");
    for i in 1..BENCH_UPDATE_BURST {
        cluster
            .initiate(&bench_event(i))
            .expect("bench initiator online");
    }
    cluster.run_rounds(WARMUP_ROUNDS);
    let frames_before = cluster.frames_sent();
    let bytes_before = cluster.bytes_sent();
    let messages_before = cluster.messages_sent();
    #[allow(clippy::disallowed_methods)]
    // rumor-lint: allow(determinism) -- wall-clock is the measurand here, never a protocol input
    let start = Instant::now();
    cluster.run_rounds(rounds);
    let elapsed = start.elapsed().as_secs_f64().max(f64::MIN_POSITIVE);
    let frames = cluster.frames_sent() - frames_before;
    let bytes = cluster.bytes_sent() - bytes_before;
    let messages = cluster.messages_sent() - messages_before;
    let report = cluster.finish(update);
    assert_eq!(report.decode_errors, 0, "bench traffic must decode cleanly");
    assert_eq!(
        report.version_mismatches, 0,
        "bench cluster is version-homogeneous"
    );
    ClusterBenchRow {
        contender: label.to_owned(),
        mode: "sharded".to_owned(),
        population,
        rounds,
        elapsed_secs: elapsed,
        frames_per_sec: frames as f64 / elapsed,
        bytes_per_sec: bytes as f64 / elapsed,
        frames,
        bytes,
        wire_version: wire.byte(),
        messages,
        mean_frame_bytes: if frames == 0 {
            0.0
        } else {
            bytes as f64 / frames as f64
        },
        mean_message_bytes: if messages == 0 {
            0.0
        } else {
            bytes as f64 / messages as f64
        },
        converged_round,
        decode_errors: report.decode_errors,
        version_mismatches: report.version_mismatches,
        frames_tampered: report.frames_tampered,
    }
}

/// Measures the paper peer (wire v1).
pub fn measure_paper(population: usize, rounds: u32) -> ClusterBenchRow {
    measure(
        "paper",
        PaperProtocol::new(bench_paper_config(population)),
        population,
        rounds,
        WireVersion::V1,
    )
}

/// Measures the paper peer under wire v2: per-peer batch frames plus
/// digest-delta pulls. The bandwidth-diet contender.
pub fn measure_paper_wire_v2(population: usize, rounds: u32) -> ClusterBenchRow {
    measure(
        "paper",
        PaperProtocol::new(bench_paper_config_v2(population)),
        population,
        rounds,
        WireVersion::V2,
    )
}

/// Measures Demers push-pull anti-entropy (per-round digest exchange:
/// sustained small-frame traffic).
pub fn measure_anti_entropy(population: usize, rounds: u32) -> ClusterBenchRow {
    measure(
        "anti-entropy",
        AntiEntropy { push_pull: true },
        population,
        rounds,
        WireVersion::V1,
    )
}

/// Timed rounds per population: per-round coordination cost grows with
/// N, so the window shrinks as the population grows.
pub fn default_rounds_for(population: usize) -> u32 {
    match population {
        0..=128 => 400,
        129..=512 => 150,
        513..=2048 => 50,
        _ => 30,
    }
}

/// Runs the full tracked matrix: every contender at each population.
pub fn run_matrix(populations: &[usize]) -> Vec<ClusterBenchRow> {
    let mut rows = Vec::new();
    for &n in populations {
        let rounds = default_rounds_for(n);
        rows.push(measure_paper(n, rounds));
        rows.push(measure_paper_wire_v2(n, rounds));
        rows.push(measure_anti_entropy(n, rounds));
    }
    rows
}

/// Serialises rows into the `BENCH_cluster.json` document (schema
/// `rumor-bench/cluster/v2` — v2 added `wire_version`, `messages`, the
/// per-frame/per-message byte means and the deterministic
/// `converged_round` probe; the wire-health columns `decode_errors`,
/// `version_mismatches` and `frames_tampered` are additive within v2).
pub fn to_json(rows: &[ClusterBenchRow]) -> Json {
    Json::obj([
        ("schema", Json::Str("rumor-bench/cluster/v2".into())),
        ("seed", Json::from_u64(CLUSTER_BENCH_SEED)),
        ("warmup_rounds", Json::from_u32(WARMUP_ROUNDS)),
        (
            "rows",
            Json::Arr(
                rows.iter()
                    .map(|r| {
                        Json::obj([
                            ("contender", Json::Str(r.contender.clone())),
                            ("mode", Json::Str(r.mode.clone())),
                            ("population", Json::from_usize(r.population)),
                            ("rounds", Json::from_u32(r.rounds)),
                            ("elapsed_secs", Json::from_f64(r.elapsed_secs)),
                            ("frames_per_sec", Json::from_f64(r.frames_per_sec)),
                            ("bytes_per_sec", Json::from_f64(r.bytes_per_sec)),
                            ("frames", Json::from_u64(r.frames)),
                            ("bytes", Json::from_u64(r.bytes)),
                            ("wire_version", Json::from_u32(u32::from(r.wire_version))),
                            ("messages", Json::from_u64(r.messages)),
                            ("mean_frame_bytes", Json::from_f64(r.mean_frame_bytes)),
                            ("mean_message_bytes", Json::from_f64(r.mean_message_bytes)),
                            (
                                "converged_round",
                                match r.converged_round {
                                    Some(round) => Json::from_u32(round),
                                    None => Json::Null,
                                },
                            ),
                            ("decode_errors", Json::from_u64(r.decode_errors)),
                            ("version_mismatches", Json::from_u64(r.version_mismatches)),
                            ("frames_tampered", Json::from_u64(r.frames_tampered)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_measurement_produces_live_traffic() {
        let row = measure_paper(24, 10);
        assert_eq!(row.contender, "paper");
        assert_eq!(row.mode, "sharded");
        assert_eq!(row.population, 24);
        assert_eq!(row.wire_version, 1);
        assert_eq!(row.messages, row.frames, "wire v1: one message per frame");
        assert!(row.frames > 0, "steady-state scenario must send frames");
        assert!(row.bytes > row.frames * 6, "bytes include frame headers");
        assert!(row.frames_per_sec > 0.0);
        assert!(row.bytes_per_sec > row.frames_per_sec);
        assert!(row.mean_frame_bytes > 6.0);
        assert_eq!(row.mean_frame_bytes, row.mean_message_bytes);
        assert!(
            row.converged_round.is_some(),
            "24-node bench scenario converges well inside the probe cap"
        );
        let ae = measure_anti_entropy(24, 10);
        assert!(ae.frames > 0);
    }

    #[test]
    fn wire_v2_row_spends_fewer_bytes_per_message_at_the_same_convergence() {
        let v1 = measure_paper(24, 10);
        let v2 = measure_paper_wire_v2(24, 10);
        assert_eq!(v2.wire_version, 2);
        assert!(
            v2.messages >= v2.frames,
            "batch frames carry at least one message each"
        );
        assert!(
            v2.mean_message_bytes < v1.mean_message_bytes,
            "the bandwidth diet must show: v2 {} vs v1 {}",
            v2.mean_message_bytes,
            v1.mean_message_bytes
        );
        // Both probes are deterministic replays of the same seed; the
        // diet must not slow the rumor down.
        let v1_round = v1.converged_round.expect("v1 probe converges");
        let v2_round = v2.converged_round.expect("v2 probe converges");
        assert!(
            v2_round <= v1_round,
            "wire v2 must not delay convergence: v2 {v2_round} vs v1 {v1_round}"
        );
    }

    #[test]
    fn json_schema_is_stable() {
        let rows = vec![ClusterBenchRow {
            contender: "paper".into(),
            mode: "sharded".into(),
            population: 64,
            rounds: 10,
            elapsed_secs: 0.5,
            frames_per_sec: 20.0,
            bytes_per_sec: 600.0,
            frames: 10,
            bytes: 300,
            wire_version: 2,
            messages: 25,
            mean_frame_bytes: 30.0,
            mean_message_bytes: 12.0,
            converged_round: Some(7),
            decode_errors: 0,
            version_mismatches: 0,
            frames_tampered: 0,
        }];
        let text = to_json(&rows).pretty();
        for key in [
            "\"schema\"",
            "rumor-bench/cluster/v2",
            "\"seed\"",
            "\"warmup_rounds\"",
            "\"rows\"",
            "\"contender\"",
            "\"mode\"",
            "\"population\"",
            "\"rounds\"",
            "\"elapsed_secs\"",
            "\"frames_per_sec\"",
            "\"bytes_per_sec\"",
            "\"frames\"",
            "\"bytes\"",
            "\"wire_version\"",
            "\"messages\"",
            "\"mean_frame_bytes\"",
            "\"mean_message_bytes\"",
            "\"converged_round\"",
            "\"decode_errors\"",
            "\"version_mismatches\"",
            "\"frames_tampered\"",
        ] {
            assert!(text.contains(key), "missing {key} in {text}");
        }
    }
}
