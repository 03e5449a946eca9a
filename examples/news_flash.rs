//! Bulletin-board scenario (§2's motivating workload): a stream of news
//! items published by random peers under heavy churn, executed through
//! the declarative `Scenario` + `run_workload` pipeline with per-update
//! convergence tracking, then cross-checked with majority queries.
//!
//! Run with: `cargo run --example news_flash`

use rumor::churn::MarkovChurn;
use rumor::core::{ForwardPolicy, ProtocolConfig, PullStrategy, QueryPolicy};
use rumor::sim::{PaperProtocol, Scenario, WorkloadBuilder};

const TOPICS: [&str; 4] = ["news/tech", "news/science", "news/sports", "news/music"];

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let population = 800;

    // A Poisson stream of news posts over four topics.
    let workload = WorkloadBuilder::new(99)
        .keys(&TOPICS)
        .rate_per_round(0.15)
        .rounds(120)
        .generate();
    println!("publishing {} news items over 120 rounds…", workload.len());

    // The environment: 25% online under churn, with the schedule attached.
    let scenario = Scenario::builder(population, 7)
        .online_fraction(0.25)
        .churn(MarkovChurn::new(0.97, 0.01)?)
        .workload(workload.clone())
        .build()?;

    let config = ProtocolConfig::builder(population)
        .fanout_fraction(0.03)
        .forward(ForwardPolicy::self_tuning_default())
        .pull_strategy(PullStrategy::Eager)
        .staleness_rounds(40) // no_updates_since trigger (§3)
        .build()?;

    // Execute the whole schedule (plus 30 settle rounds for late pulls)
    // and collect per-update outcomes.
    let protocol = PaperProtocol::new(config);
    let mut sim = scenario.drive(&protocol);
    let report = sim.run_workload(&protocol, scenario.workload(), 30);

    println!("\nworkload outcome:");
    println!("  rounds executed       : {}", report.rounds);
    println!("  messages              : {}", report.messages);
    println!(
        "  msgs/initially-online : {:.2}",
        report.messages_per_initial_online()
    );
    println!(
        "  converged updates     : {:.1}% ({} of {})",
        report.converged_fraction() * 100.0,
        report
            .updates
            .iter()
            .filter(|u| u.converged_round.is_some())
            .count(),
        report.updates.len()
    );
    if let Some(latency) = report.mean_rounds_to_converge() {
        println!("  mean rounds to conv.  : {latency:.1}");
    }
    println!(
        "  mean final awareness  : {:.3}",
        report.mean_final_awareness()
    );

    // How fresh is the board? The workload payload for event #n is "u{n}",
    // so the majority answer per topic should be its latest story.
    println!("\nfinal state:");
    for topic in TOPICS {
        let key = rumor::types::DataKey::from_name(topic);
        let latest = workload.iter().rev().find(|e| e.key == key);
        let answer = sim.query(key, 7, QueryPolicy::Majority);
        match (latest, answer) {
            (Some(want), Some(got)) => {
                let fresh = got
                    .value
                    .as_ref()
                    .is_some_and(|v| v.as_bytes() == want.payload().as_bytes());
                println!(
                    "  {topic:<14} majority answer {} story #{}",
                    if fresh {
                        "IS the newest"
                    } else {
                        "is NOT the newest"
                    },
                    want.sequence
                );
            }
            (Some(_), None) => println!("  {topic:<14} no replica answered"),
            (None, _) => println!("  {topic:<14} nothing was published"),
        }
    }

    let traffic = sim.stats();
    println!(
        "\ntraffic: sent {}, delivered {}, lost offline {}, lost to faults {}",
        traffic.sent, traffic.delivered, traffic.lost_offline, traffic.lost_fault
    );
    let (pushes, duplicates, pulls) = sim.nodes().iter().fold((0, 0, 0), |acc, p| {
        let s = p.stats();
        (
            acc.0 + s.pushes_received,
            acc.1 + s.duplicates_received,
            acc.2 + s.pulls_initiated,
        )
    });
    println!("peer counters: {pushes} pushes received ({duplicates} duplicates), {pulls} pulls");
    Ok(())
}
