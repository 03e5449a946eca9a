//! Live cluster: the paper protocol on the `rumor-cluster` runtime —
//! replicas multiplexed over a pool of worker threads, every message an
//! encoded `rumor-wire` frame — under churn, loss and crash faults.
//!
//! Run with: `cargo run --release --example live_cluster`

use rumor::churn::MarkovChurn;
use rumor::cluster::{ClusterBuilder, FaultSpec};
use rumor::core::{ProtocolConfig, PullStrategy};
use rumor::sim::{PaperProtocol, Scenario, TopologySpec, UpdateEvent};
use rumor::types::DataKey;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The environment is a plain Scenario — the same declarative object
    // the simulation harness uses, so the live run is directly
    // comparable to a Driver run of the identical scenario. Each
    // replica knows a sparse random subset (§2's partial-knowledge
    // regime), not the full mesh, so the same program scales to 10k+.
    let population = 128;
    let scenario = Scenario::builder(population, 2026)
        .online_fraction(0.7)
        .topology(TopologySpec::RandomSubset { k: 32 })
        .churn(MarkovChurn::new(0.97, 0.2)?)
        .loss(0.03)
        .build()?;

    let config = ProtocolConfig::builder(population)
        .fanout_absolute(4)
        .pull_strategy(PullStrategy::Eager) // online_again => pull
        .pull_retry(2, 3)
        .staleness_rounds(6) // periodic anti-entropy repairs push misses
        .build()?;

    // Mount the paper peer on the sharded executor: worker count
    // defaults to the machine's available parallelism (`.workers(n)`
    // overrides it; `.workers(population)` is one OS thread per
    // replica), each worker owning a contiguous shard of cells and
    // in-process channels carrying length-prefixed binary frames
    // between shards. A crash parks the victim cell inside its shard —
    // frames pile up in its inbox until the seeded restart.
    let mut cluster = ClusterBuilder::new(&scenario)
        .faults(FaultSpec {
            crash_rate: 0.05,
            restart_after: 4,
            ..FaultSpec::default()
        })?
        .sharded(PaperProtocol::new(config));

    let event = UpdateEvent {
        round: 0,
        key: DataKey::from_name("message-of-the-day"),
        delete: false,
        sequence: 0,
    };
    let update = cluster.initiate(&event).expect("someone is online");
    let workers = cluster.workers();
    let converged = cluster.run_until_all_online_aware(update, 200);
    let report = cluster.finish(update);

    println!("live cluster ({population} replicas on {workers} workers):");
    match converged {
        Some(round) => println!("  converged at round    : {round}"),
        None => println!("  converged             : not within the horizon"),
    }
    println!("  rounds executed       : {}", report.rounds);
    println!(
        "  online awareness      : {}/{} replicas",
        report.aware_online, report.online
    );
    println!("  frames on the wire    : {}", report.frames_sent);
    println!(
        "  bytes on the wire     : {} ({:.1} B/frame)",
        report.bytes_sent,
        report.mean_frame_bytes()
    );
    println!(
        "  delivered / off / lost: {} / {} / {}",
        report.frames_delivered, report.lost_offline, report.lost_fault
    );
    println!(
        "  cell crashes          : {} ({} restarts)",
        report.crashes, report.restarts
    );
    assert_eq!(report.decode_errors, 0, "strict codec, clean traffic");
    Ok(())
}
