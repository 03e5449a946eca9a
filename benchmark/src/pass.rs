//! One pass of one workload: the untraced pass that produces the
//! end-to-end metrics, and the traced pass that produces the per-layer
//! metrics and the span file.

use crate::alloc;
use crate::api::{
    consistency_fraction, AntiEntropy, Decode, Encode, Node, OnlineSet, PaperProtocol, Protocol,
    ReplicaPeer, Scenario, WireVersion,
};
use crate::harness::{
    closed_loop, ClusterHarness, Consistency, Counters, Delivery, EngineHarness, Finish, Harness,
    LoopRun, VirtualHarness,
};
use crate::json::Json;
use crate::metrics::{Values, KIND_NAMES};
use crate::probe::{self, Probed};
use crate::span::{clock_pair_ns, Call, SpanProtocol, Totals, KINDS};
use crate::stats::{median, percentile, samples_beyond, self_ns, self_ns_aggregate};
use crate::sys;
use crate::workload::{Contender, Path, Spec, ROUND_CAP, WARMUP_UPDATES};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// Mounts timed per untraced pass; `setup_s` is their median.
pub const SETUP_SAMPLES: usize = 9;

/// Updates the traced pass replays on each reference mount (untraced,
/// `rumor-obs` capture, virtual time) to put a ratio on a fixed piece of
/// work.
pub const REFERENCE_UPDATES: u32 = 20;

/// Share of the untraced pass's timed updates the traced pass gives its
/// main loop; the rest of its time pays for the reference mounts and the
/// isolated probes, so a traced invocation costs about what an untraced
/// one does.
pub const TRACED_LOOP_SHARE: f64 = 0.6;

/// Share of failed updates above which a pass reports itself incorrect.
pub const MAX_FAILED_SHARE: f64 = 0.10;

/// Events the engine-path `rumor-obs` capture may hold before it drops.
const CAPTURE_CAPACITY: usize = 1 << 22;

/// How a pass is sized and seeded.
#[derive(Debug, Clone, PartialEq)]
pub struct Options {
    /// Every random stream of the scenario derives from this.
    pub seed: u64,
    /// Timed updates the loop issues (see [`timed_updates`]).
    pub updates: u32,
    /// Where the traced pass writes `<workload>.spans.json` (`None`
    /// keeps the spans in memory only).
    pub spans_dir: Option<PathBuf>,
}

/// What one pass measured.
#[derive(Debug, Clone, PartialEq)]
pub struct PassReport {
    /// Workload name.
    pub workload: String,
    /// `true` for the per-layer pass.
    pub traced: bool,
    /// Every correctness check passed.
    pub correct: bool,
    /// What failed, when something did.
    pub problems: Vec<String>,
    /// Timed updates issued.
    pub attempted: u64,
    /// Of those, refused, capped or stalled below the threshold.
    pub failed: u64,
    /// The metrics of this pass.
    pub metrics: Values,
    /// Sizes, caps and wall-clock for the provenance header.
    pub detail: Json,
}

impl PassReport {
    /// Failed updates as a share of those attempted.
    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Timed updates of one pass of a `--seconds` run: a function of the
/// workload and `--seconds` alone, never of how fast the box is.
pub fn timed_updates(spec: &Spec, seconds: f64, traced: bool) -> u32 {
    let updates = spec.timed_updates(seconds);
    if traced {
        ((f64::from(updates) * TRACED_LOOP_SHARE).round() as u32).max(1)
    } else {
        updates
    }
}

/// Runs one pass of `spec`.
pub fn run(spec: &Spec, options: &Options, traced: bool) -> PassReport {
    fn paper_consistency(nodes: &[ReplicaPeer], online: &OnlineSet) -> f64 {
        consistency_fraction(nodes, Some(online))
    }
    let paper = || PaperProtocol::new(spec.paper_config());
    let anti_entropy = || AntiEntropy { push_pull: true };
    match spec.path {
        Path::Engine(Contender::Paper) => {
            engine(spec, options, traced, paper, Some(paper_consistency))
        }
        Path::Engine(Contender::AntiEntropy) => engine(spec, options, traced, anti_entropy, None),
        Path::Cluster(wire) => cluster(spec, options, traced, wire, paper),
    }
}

fn engine<P>(
    spec: &Spec,
    options: &Options,
    traced: bool,
    protocol: impl Fn() -> P,
    consistency: Option<Consistency<P::Node>>,
) -> PassReport
where
    P: Protocol,
    <P::Node as Node>::Msg: Probed,
{
    let at = spec.delivered_at;
    let plain = |s: &Scenario| EngineHarness::mount(s, protocol(), at, consistency);
    if !traced {
        return untraced_pass(spec, options, plain);
    }
    traced_pass(
        spec,
        options,
        Mounts {
            protocol: &protocol,
            spanned: |s: &Scenario, p| EngineHarness::mount(s, p, at, None),
            plain,
            capturing: |s: &Scenario| {
                EngineHarness::mount_capturing(s, protocol(), at, CAPTURE_CAPACITY)
            },
            serial: None::<fn(&Scenario) -> EngineHarness<P>>,
        },
    )
}

fn cluster<P>(
    spec: &Spec,
    options: &Options,
    traced: bool,
    wire: WireVersion,
    protocol: impl Fn() -> P,
) -> PassReport
where
    P: Protocol + Send + Sync + 'static,
    P::Node: Send + 'static,
    <P::Node as Node>::Msg: Probed + Encode + Decode + Send,
{
    let plain = |s: &Scenario| ClusterHarness::mount(s, protocol(), wire, false);
    if !traced {
        return untraced_pass(spec, options, plain);
    }
    traced_pass(
        spec,
        options,
        Mounts {
            protocol: &protocol,
            spanned: |s: &Scenario, p| ClusterHarness::mount(s, p, wire, false),
            plain,
            capturing: |s: &Scenario| ClusterHarness::mount(s, protocol(), wire, true),
            serial: Some(|s: &Scenario| VirtualHarness::mount(s, protocol(), wire)),
        },
    )
}

/// Worker interleaving decides cross-shard delivery order on the live
/// path, so only the engine path's counts are a function of the seed alone.
fn exact_counts(spec: &Spec) -> bool {
    !spec.on_cluster()
}

fn warm_up<H: Harness>(harness: &mut H, epoch: Instant) -> LoopRun {
    closed_loop(harness, epoch, 0, WARMUP_UPDATES, || {})
}

/// The end-to-end metrics of the timed loop. Per-update cost and message
/// size grow with history, so every one of them is taken over the same
/// fixed updates on every commit.
fn loop_metrics(spec: &Spec, run: &LoopRun, into: &mut Values) {
    let latencies = run.latencies_ms();
    into.set("rounds_per_s", run.traffic().rounds as f64 / run.wall_s());
    into.set("update_latency_ms_p50", median(&latencies));
    into.set("update_latency_ms_p90", percentile(&latencies, 90.0));
    let (traffic, delivered) = run.delivered_traffic();
    let updates = delivered.max(1) as f64;
    into.set("rounds_per_update", traffic.rounds as f64 / updates);
    into.set(
        "msgs_per_update_per_replica",
        traffic.messages as f64 / (updates * spec.population as f64),
    );
    into.set(
        "bytes_per_msg",
        traffic.bytes as f64 / traffic.messages.max(1) as f64,
    );
}

fn check_finish(spec: &Spec, finish: &Finish, problems: &mut Vec<String>) {
    if finish.decode_errors > 0 || finish.version_mismatches > 0 {
        problems.push(format!(
            "{} decode errors, {} version mismatches",
            finish.decode_errors, finish.version_mismatches
        ));
    }
    match spec.path {
        Path::Cluster(WireVersion::V1) if finish.frames != finish.messages => {
            problems.push(format!(
                "wire v1 sent {} frames for {} messages",
                finish.frames, finish.messages
            ))
        }
        Path::Cluster(WireVersion::V2) if finish.frames >= finish.messages => {
            problems.push(format!(
                "wire v2 batched nothing: {} frames for {} messages",
                finish.frames, finish.messages
            ))
        }
        _ => {}
    }
    if finish.consistency.is_some_and(|c| !(c > 0.0 && c <= 1.0)) {
        problems.push(format!(
            "consistency fraction {:?} out of range",
            finish.consistency
        ));
    }
}

fn check_run(run: &LoopRun, problems: &mut Vec<String>) {
    let traffic = run.traffic();
    if traffic.rounds == 0 || traffic.messages == 0 || traffic.bytes == 0 {
        problems.push(format!("timed loop did no work: {traffic:?}"));
    }
    let share = run.failed() as f64 / run.updates.len().max(1) as f64;
    if share > MAX_FAILED_SHARE {
        problems.push(format!("failed share {share:.3} above {MAX_FAILED_SHARE}"));
    }
}

fn detail(spec: &Spec, options: &Options, run: &LoopRun, began: Instant, finish: &Finish) -> Json {
    let updates = run.updates.len();
    Json::obj([
        ("population", Json::UInt(spec.population as u64)),
        ("workers", Json::UInt(spec.workers() as u64)),
        ("seed", Json::UInt(options.seed)),
        ("warmup_updates", Json::UInt(u64::from(WARMUP_UPDATES))),
        ("updates", Json::UInt(updates as u64)),
        ("exact_counts", Json::Bool(exact_counts(spec))),
        ("round_cap", Json::UInt(u64::from(ROUND_CAP))),
        ("delivered_at", Json::Num(spec.delivered_at)),
        (
            "samples_beyond_p90",
            Json::UInt(samples_beyond(updates.max(1), 90.0) as u64),
        ),
        (
            "consistency_fraction",
            finish.consistency.map_or(Json::Null, Json::Num),
        ),
        ("loop_wall_clock_s", Json::Num(run.wall_s())),
        ("wall_clock_s", Json::Num(began.elapsed().as_secs_f64())),
    ])
}

/// The untraced pass: set-up samples, the determinism replay where the
/// path is deterministic, warm-up, the timed loop.
fn untraced_pass<H: Harness>(
    spec: &Spec,
    options: &Options,
    mount: impl Fn(&Scenario) -> H,
) -> PassReport {
    let epoch = Instant::now();
    let mut problems = Vec::new();

    // The first updates on a mount of their own; the measured mount must
    // repeat their counts exactly.
    let reference = exact_counts(spec).then(|| {
        let mut harness = mount(&spec.scenario(options.seed));
        let run = warm_up(&mut harness, epoch);
        harness.finish();
        outcomes(&run)
    });

    let mut setup = Vec::with_capacity(SETUP_SAMPLES);
    let mut mounted = None;
    for _ in 0..SETUP_SAMPLES {
        // Ending the previous sample (joining its workers) is not set-up.
        drop(mounted.take());
        let t = Instant::now();
        let scenario = spec.scenario(options.seed);
        mounted = Some(mount(&scenario));
        setup.push(t.elapsed().as_secs_f64());
    }
    let mut harness = mounted.expect("at least one set-up sample");

    let warm = warm_up(&mut harness, epoch);
    if reference.is_some_and(|r| r != outcomes(&warm)) {
        problems.push("the first updates did not replay with identical counts".to_owned());
    }
    let run = closed_loop(&mut harness, epoch, WARMUP_UPDATES, options.updates, || {});
    let finish = harness.finish();
    check_run(&run, &mut problems);
    check_finish(spec, &finish, &mut problems);

    let mut metrics = Values::default();
    metrics.set("setup_s", median(&setup));
    loop_metrics(spec, &run, &mut metrics);
    metrics.set("peak_rss_mb", sys::peak_rss_mb());
    PassReport {
        workload: spec.name.to_owned(),
        traced: false,
        correct: problems.is_empty(),
        problems,
        attempted: run.updates.len() as u64,
        failed: run.failed() as u64,
        metrics,
        detail: detail(spec, options, &run, epoch, &finish),
    }
}

fn outcomes(run: &LoopRun) -> Vec<(Delivery, Counters)> {
    run.updates.iter().map(|u| (u.delivery, u.after)).collect()
}

/// How the traced pass mounts the workload: wrapped in spans, plain,
/// with the `rumor-obs` capture, and (cluster paths) on one thread in
/// virtual time.
struct Mounts<MakeP, Spanned, Plain, Capturing, Serial> {
    protocol: MakeP,
    spanned: Spanned,
    plain: Plain,
    capturing: Capturing,
    serial: Option<Serial>,
}

/// The first [`REFERENCE_UPDATES`] timed updates on a fresh mount.
fn reference_run<H: Harness>(
    spec: &Spec,
    options: &Options,
    epoch: Instant,
    updates: u32,
    mount: impl Fn(&Scenario) -> H,
) -> (LoopRun, Finish, (u64, u64)) {
    let start_ns = epoch.elapsed().as_nanos() as u64;
    let mut harness = mount(&spec.scenario(options.seed));
    warm_up(&mut harness, epoch);
    let run = closed_loop(&mut harness, epoch, WARMUP_UPDATES, updates, || {});
    let finish = harness.finish();
    (run, finish, (start_ns, epoch.elapsed().as_nanos() as u64))
}

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator > 0.0 {
        numerator / denominator
    } else {
        0.0
    }
}

fn ms_per_round(run: &LoopRun) -> f64 {
    ratio(run.wall_s() * 1e3, run.traffic().rounds as f64)
}

fn traced_pass<P, MakeP, HS, HP, HO, HV>(
    spec: &Spec,
    options: &Options,
    mounts: Mounts<
        MakeP,
        impl Fn(&Scenario, SpanProtocol<P>) -> HS,
        impl Fn(&Scenario) -> HP,
        impl Fn(&Scenario) -> HO,
        impl Fn(&Scenario) -> HV,
    >,
) -> PassReport
where
    P: Protocol,
    <P::Node as Node>::Msg: Probed,
    MakeP: Fn() -> P,
    HS: Harness,
    HP: Harness,
    HO: Harness,
    HV: Harness,
{
    let pair_ns = clock_pair_ns();
    let epoch = Instant::now();
    let now_ns = || epoch.elapsed().as_nanos() as u64;
    let mut problems = Vec::new();
    let mut m = Values::default();
    let mut spans = SpanLog::new();

    // Set-up, split by layer.
    let t = Instant::now();
    let scenario = spec.scenario(options.seed);
    let build_s = t.elapsed().as_secs_f64();
    let built_ns = now_ns();
    let t = Instant::now();
    let protocol = SpanProtocol::new((mounts.protocol)(), spec.population);
    let table = Arc::clone(protocol.table());
    let mut harness = (mounts.spanned)(&scenario, protocol);
    let mount_s = t.elapsed().as_secs_f64();
    let mounted_ns = now_ns();
    let setup = spans.push(ROOT, "setup", 0, mounted_ns, Json::Null);
    spans.push(setup, "sim.build", 0, built_ns, Json::Null);
    let mount_layer = if spec.on_cluster() {
        "cluster.mount"
    } else {
        "sim.mount"
    };
    spans.push(setup, mount_layer, built_ns, mounted_ns, Json::Null);
    m.set("sim.build_s", build_s);
    m.set(format!("{mount_layer}_s"), mount_s);

    warm_up(&mut harness, epoch);
    spans.push(ROOT, "warmup", mounted_ns, now_ns(), Json::Null);

    // The traced loop. Totals are read between updates, so update i's
    // callbacks are marks[i + 1] - marks[i].
    let mut marks: Vec<Totals> = Vec::with_capacity(options.updates as usize + 1);
    marks.push(table.totals());
    let allocated_before = alloc::counted();
    let cpu_before = sys::cpu_seconds();
    alloc::set_counting(true);
    let run = closed_loop(&mut harness, epoch, WARMUP_UPDATES, options.updates, || {
        marks.push(table.totals());
    });
    alloc::set_counting(false);
    let cpu_s = sys::cpu_seconds() - cpu_before;
    let allocated = alloc::counted();
    let finish_from = now_ns();
    let t = Instant::now();
    let finish = harness.finish();
    let finish_s = t.elapsed().as_secs_f64();
    spans.push(ROOT, "finish", finish_from, now_ns(), Json::Null);
    check_run(&run, &mut problems);
    check_finish(spec, &finish, &mut problems);

    let traffic = run.traffic();
    let wall_s = run.wall_s();
    let rounds = traffic.rounds as f64;
    let messages = traffic.messages as f64;
    let totals = marks[marks.len() - 1].since(&marks[0]);
    let per_update: Vec<Totals> = marks.windows(2).map(|w| w[1].since(&w[0])).collect();
    let on_cluster = spec.on_cluster();

    // Node callbacks, under the crate that implements them.
    let layer = match spec.contender() {
        Contender::Paper => "core",
        Contender::AntiEntropy => "baselines",
    };
    for (call, name) in [
        (Call::OnMessage, "on_message"),
        (Call::OnRoundStart, "on_round_start"),
        (Call::OnStatusChange, "on_status_change"),
        (Call::OnTimer, "on_timer"),
    ] {
        m.set(format!("{layer}.{name}_s"), totals.ns(call, pair_ns) / 1e9);
        m.set(format!("{layer}.{name}_n"), totals.calls(call) as f64);
    }
    let busy_s = totals.busy_s(pair_ns);
    let probe_s = totals.ns(Call::Probe, pair_ns) / 1e9;
    m.set(
        format!("{layer}.initiate_s"),
        totals.ns(Call::Initiate, pair_ns) / 1e9,
    );
    m.set(format!("{layer}.busy_s"), busy_s);
    m.set(format!("{layer}.busy_share"), ratio(busy_s, cpu_s));
    m.set("sim.probe_s", probe_s);
    m.set("sim.probe_n", totals.calls(Call::Probe) as f64);
    for (kind, name) in KIND_NAMES.iter().enumerate() {
        m.set(
            format!("core.in.{name}_n"),
            totals.calls(Call::In(kind)) as f64,
        );
        m.set(
            format!("core.in.{name}_s"),
            totals.ns(Call::In(kind), pair_ns) / 1e9,
        );
    }
    m.set(
        "core.out_sends_per_message",
        ratio(
            totals.sends_from_messages as f64,
            totals.calls(Call::OnMessage) as f64,
        ),
    );
    m.set(
        "core.callback_ns_growth",
        callback_growth(&per_update, pair_ns),
    );

    // Isolated probes over the captured messages.
    let sample = table.sample();
    let core = <P::Node as Node>::Msg::core_probe(&sample);
    m.set("core.partial_list_union_ns", core.partial_list_union_ns);
    m.set("core.store_apply_ns", core.store_apply_ns);
    m.set("core.store_digest_ns", core.store_digest_ns);
    let msgs_per_frame = if on_cluster {
        ratio(finish.messages as f64, finish.frames as f64)
    } else {
        1.0
    };
    let version = match spec.path {
        Path::Cluster(version) => version,
        Path::Engine(_) => WireVersion::V1,
    };
    let wire = probe::wire(&sample, version, msgs_per_frame.round() as usize);
    m.set("wire.encode_ns_per_msg", wire.encode_ns);
    m.set("wire.decode_ns_per_msg", wire.decode_ns);
    m.set("wire.frame_len_ns_per_msg", wire.frame_len_ns);
    // The engine only sizes messages; the cluster encodes and decodes them.
    let wire_busy_s = messages / 1e9
        * if on_cluster {
            wire.encode_ns + wire.decode_ns
        } else {
            wire.frame_len_ns
        };
    m.set("wire.est_busy_s", wire_busy_s);
    m.set("wire.est_busy_share", ratio(wire_busy_s, cpu_s));
    m.set("wire.msgs_per_frame", msgs_per_frame);
    let mut kind_bytes = [0.0; KINDS.len()];
    let mut kind_seen = [0.0; KINDS.len()];
    for msg in &sample {
        if let Some(kind) = table.kind_of(msg) {
            kind_bytes[kind] += crate::api::frame_len(msg) as f64;
            kind_seen[kind] += 1.0;
        }
    }
    let delivered_bytes: Vec<f64> = (0..KINDS.len())
        .map(|k| ratio(kind_bytes[k], kind_seen[k]) * totals.calls(Call::In(k)) as f64)
        .collect();
    for (kind, name) in KIND_NAMES.iter().enumerate() {
        m.set(
            format!("wire.bytes_per_msg.{name}"),
            ratio(kind_bytes[kind], kind_seen[kind]),
        );
        m.set(
            format!("wire.bytes_share.{name}"),
            ratio(delivered_bytes[kind], delivered_bytes.iter().sum()),
        );
    }

    // Update spans, and what the engine itself costs: an update's wall
    // clock minus the callbacks and probes it made.
    let mut net_self_ns = 0u64;
    let mut rounds_before = run.before.rounds;
    for (i, (update, calls)) in run.updates.iter().zip(&per_update).enumerate() {
        let busy_ns = (calls.busy_s(pair_ns) * 1e9) as u64;
        let probe_ns = calls.ns(Call::Probe, pair_ns) as u64;
        let own = self_ns_aggregate(update.end_ns - update.start_ns, &[busy_ns, probe_ns]);
        net_self_ns += own;
        let id = spans.push(
            ROOT,
            &format!("update[{i}]"),
            update.start_ns,
            update.end_ns,
            Json::obj([
                ("rounds", Json::UInt(update.after.rounds - rounds_before)),
                (
                    "delivered",
                    Json::Bool(update.delivery == Delivery::Delivered),
                ),
                (&*format!("{layer}.busy_ns"), Json::UInt(busy_ns)),
                ("sim.probe_ns", Json::UInt(probe_ns)),
                (
                    "callbacks",
                    Json::UInt(Call::BUSY.iter().map(|&c| calls.calls(c)).sum()),
                ),
            ]),
        );
        spans.spans[id].self_ns = Some(own);
        rounds_before = update.after.rounds;
    }
    if !on_cluster {
        let net_self_s = net_self_ns as f64 / 1e9;
        let update_wall_s: f64 = run.updates.iter().map(|u| u.latency_ms() / 1e3).sum();
        m.set("net.self_s", net_self_s);
        m.set("net.self_share", ratio(net_self_s, update_wall_s));
        m.set("net.self_ns_per_msg", ratio(net_self_s * 1e9, messages));
        m.set("net.sent_n", messages);
        m.set(
            "net.wasted_share",
            ratio(finish.wasted as f64, finish.messages as f64),
        );
    }
    m.set(
        "churn.step_ns_per_round",
        probe::churn_step_ns(&scenario, options.seed),
    );

    let counted = (
        (allocated.allocations - allocated_before.allocations) as f64,
        (allocated.bytes - allocated_before.bytes) as f64,
    );
    m.set("alloc.per_round", ratio(counted.0, rounds));
    m.set("alloc.bytes_per_round", ratio(counted.1, rounds));
    m.set("alloc.per_msg", ratio(counted.0, messages));

    // Reference mounts: the same first updates untraced, captured by
    // rumor-obs, and (cluster) serial in virtual time.
    let k = REFERENCE_UPDATES.min(run.updates.len() as u32);
    let (plain, _, at) = reference_run(spec, options, epoch, k, &mounts.plain);
    spans.push(ROOT, "reference.untraced", at.0, at.1, Json::Null);
    let (captured, captured_finish, at) = reference_run(spec, options, epoch, k, &mounts.capturing);
    spans.push(ROOT, "reference.obs", at.0, at.1, Json::Null);
    m.set(
        "trace.overhead_ratio",
        ratio(run.prefix(k as usize).wall_s(), plain.wall_s()),
    );
    m.set(
        "obs.capture_overhead_ratio",
        ratio(captured.wall_s(), plain.wall_s()),
    );
    let (events, dropped) = captured_finish.obs_events.unwrap_or((0, 0));
    m.set("obs.events_n", events as f64);
    m.set("obs.dropped_n", dropped as f64);
    if on_cluster {
        m.set("cluster.finish_s", finish_s);
        m.set("cluster.cpu_s", cpu_s);
        m.set(
            "cluster.cpu_util",
            ratio(cpu_s, wall_s * spec.workers() as f64),
        );
        m.set(
            "cluster.overhead_cpu_s",
            (cpu_s - busy_s - wire_busy_s).max(0.0),
        );
        m.set("cluster.round_ms_mean", ms_per_round(&run));
    }
    if let Some(serial) = &mounts.serial {
        let (serial, _, at) = reference_run(spec, options, epoch, k, serial);
        spans.push(ROOT, "reference.serial", at.0, at.1, Json::Null);
        m.set("cluster.virtual_round_ms_mean", ms_per_round(&serial));
        m.set(
            "cluster.parallel_speedup",
            ratio(ms_per_round(&serial), ms_per_round(&plain)),
        );
    }

    if let Some(dir) = &options.spans_dir {
        let header = Json::obj([
            ("schema", Json::str("rumor-benchmark/spans/v1")),
            ("workload", Json::str(spec.name)),
            ("seed", Json::UInt(options.seed)),
            ("clock_pair_ns", Json::Num(pair_ns)),
            ("end_ns", Json::UInt(now_ns())),
        ]);
        if let Err(e) = spans.write(dir, spec.name, header, now_ns(), &table.per_node()) {
            problems.push(format!("span file: {e}"));
        }
    }

    PassReport {
        workload: spec.name.to_owned(),
        traced: true,
        correct: problems.is_empty(),
        problems,
        attempted: run.updates.len() as u64,
        failed: run.failed() as u64,
        metrics: m,
        detail: detail(spec, options, &run, epoch, &finish),
    }
}

/// Mean callback nanoseconds in the last quarter of the updates over the
/// first quarter: what per-peer state that only grows costs.
fn callback_growth(per_update: &[Totals], pair_ns: f64) -> f64 {
    let quarter = (per_update.len() / 4).max(1).min(per_update.len());
    let mean_ns = |updates: &[Totals]| {
        let ns: f64 = updates.iter().map(|t| t.busy_s(pair_ns) * 1e9).sum();
        let calls: u64 = updates
            .iter()
            .map(|t| Call::BUSY.iter().map(|&c| t.calls(c)).sum::<u64>())
            .sum();
        ratio(ns, calls as f64)
    };
    ratio(
        mean_ns(&per_update[per_update.len() - quarter..]),
        mean_ns(&per_update[..quarter]),
    )
}

/// The in-memory span log: `workload` → `setup` | `warmup` | `update[i]`
/// | `finish` | `reference.*`, each with start, end, parent and self time.
/// A span's id is its index; span 0 is the root.
#[derive(Debug)]
struct SpanLog {
    spans: Vec<SpanRecord>,
}

#[derive(Debug)]
struct SpanRecord {
    parent: Option<usize>,
    name: String,
    start_ns: u64,
    end_ns: u64,
    /// Set for spans whose children are aggregates without stamps.
    self_ns: Option<u64>,
    extra: Json,
}

/// The id of the root `workload` span.
const ROOT: usize = 0;

impl SpanLog {
    /// A log holding the root span, whose end `write` fills in.
    fn new() -> Self {
        Self {
            spans: vec![SpanRecord {
                parent: None,
                name: "workload".to_owned(),
                start_ns: 0,
                end_ns: 0,
                self_ns: None,
                extra: Json::Null,
            }],
        }
    }

    fn push(
        &mut self,
        parent: usize,
        name: &str,
        start_ns: u64,
        end_ns: u64,
        extra: Json,
    ) -> usize {
        self.spans.push(SpanRecord {
            parent: Some(parent),
            name: name.to_owned(),
            start_ns,
            end_ns,
            self_ns: None,
            extra,
        });
        self.spans.len() - 1
    }

    fn write(
        &mut self,
        dir: &std::path::Path,
        workload: &str,
        header: Json,
        end_ns: u64,
        per_node: &[(u64, u64)],
    ) -> std::io::Result<()> {
        self.spans[ROOT].end_ns = end_ns;
        let spans = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, span)| {
                let children: Vec<(u64, u64)> = self
                    .spans
                    .iter()
                    .filter(|s| s.parent == Some(id))
                    .map(|s| (s.start_ns, s.end_ns))
                    .collect();
                let own = span
                    .self_ns
                    .unwrap_or_else(|| self_ns(span.start_ns, span.end_ns, &children));
                let mut fields = vec![
                    ("id".to_owned(), Json::UInt(id as u64)),
                    (
                        "parent".to_owned(),
                        span.parent.map_or(Json::Null, |p| Json::UInt(p as u64)),
                    ),
                    ("name".to_owned(), Json::str(&*span.name)),
                    ("start_ns".to_owned(), Json::UInt(span.start_ns)),
                    ("end_ns".to_owned(), Json::UInt(span.end_ns)),
                    ("self_ns".to_owned(), Json::UInt(own)),
                ];
                fields.extend(span.extra.members().iter().cloned());
                Json::Obj(fields)
            })
            .collect();
        let nodes = per_node
            .iter()
            .map(|&(ns, calls)| Json::Arr(vec![Json::UInt(ns), Json::UInt(calls)]))
            .collect();
        let mut doc = header.members().to_vec();
        doc.push(("spans".to_owned(), Json::Arr(spans)));
        doc.push(("per_node_busy_ns_and_calls".to_owned(), Json::Arr(nodes)));
        std::fs::create_dir_all(dir)?;
        std::fs::write(
            dir.join(format!("{workload}.spans.json")),
            Json::Obj(doc).pretty(),
        )
    }
}
