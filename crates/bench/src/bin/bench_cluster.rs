//! Tracked live-cluster throughput benchmark: measures frames/sec and
//! bytes/sec of the `rumor-cluster` runtime for the paper peer and the
//! anti-entropy baseline on the sharded worker-pool executor at
//! populations from N = 64 to N = 10000, and writes `BENCH_cluster.json`.
//!
//! `cargo run --release -p rumor-bench --bin bench_cluster [-- out_dir]`
//! `cargo run --release -p rumor-bench --bin bench_cluster -- --smoke [out_dir]`
//!
//! `--smoke` runs tiny windows (an N = 32 trio plus one N = 4096 row) —
//! CI uses it (under a wall-clock bound) to keep the live-cluster
//! executor working and the artefact schema stable.

use rumor_bench::cluster_bench::{self, ClusterBenchRow};
use std::path::PathBuf;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_dir = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .map_or_else(|| PathBuf::from("experiments-out"), PathBuf::from);

    let rows: Vec<ClusterBenchRow> = if smoke {
        vec![
            cluster_bench::measure_paper(32, 20),
            cluster_bench::measure_paper_wire_v2(32, 20),
            cluster_bench::measure_anti_entropy(32, 20),
            cluster_bench::measure_paper(4_096, 10),
        ]
    } else {
        cluster_bench::run_matrix(&[64, 256, 1_024, 4_096, 10_000])
    };

    println!(
        "{:<14} {:<5} {:<9} {:>10} {:>8} {:>14} {:>14} {:>12} {:>11}",
        "contender",
        "wire",
        "mode",
        "population",
        "rounds",
        "frames/sec",
        "bytes/sec",
        "bytes/msg",
        "conv round"
    );
    for row in &rows {
        println!(
            "{:<14} {:<5} {:<9} {:>10} {:>8} {:>14.1} {:>14.1} {:>12.1} {:>11}",
            row.contender,
            format!("v{}", row.wire_version),
            row.mode,
            row.population,
            row.rounds,
            row.frames_per_sec,
            row.bytes_per_sec,
            row.mean_message_bytes,
            row.converged_round
                .map_or_else(|| "-".to_owned(), |r| r.to_string()),
        );
    }

    std::fs::create_dir_all(&out_dir).expect("create output directory");
    let path = out_dir.join("BENCH_cluster.json");
    std::fs::write(&path, cluster_bench::to_json(&rows).pretty() + "\n").expect("write artefact");
    println!("wrote {}", path.display());
}
