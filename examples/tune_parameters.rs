//! Parameter-tuning walkthrough: sweep `f_r` and `PF(t)` with the
//! analytical model to pick a configuration, then confirm the choice with
//! the simulator — the workflow §6 envisions for deployments.
//!
//! Run with: `cargo run --example tune_parameters`

use rumor::analysis::{PfSchedule, PushModel, PushParams};
use rumor::churn::MarkovChurn;
use rumor::core::{ForwardPolicy, ProtocolConfig, PullStrategy};
use rumor::metrics::{Align, Table};
use rumor::sim::{PaperProtocol, Scenario, UpdateEvent};
use rumor::types::DataKey;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Environment: 5000 replicas, 20% online, sigma = 0.95.
    let (r, online, sigma) = (5_000.0, 1_000.0, 0.95);

    println!("sweeping the analytical model…\n");
    let mut table = Table::new(vec![
        "f_r".into(),
        "PF".into(),
        "msgs/peer".into(),
        "rounds".into(),
        "awareness".into(),
    ]);
    for i in 2..5 {
        table.align(i, Align::Right);
    }
    let mut best: Option<(f64, PfSchedule, f64)> = None;
    for f_r in [0.005, 0.01, 0.02] {
        for (label, pf) in [
            ("1", PfSchedule::One),
            ("0.9^t", PfSchedule::Exponential { base: 0.9 }),
            (
                "0.8*0.7^t+0.2",
                PfSchedule::OffsetExponential {
                    scale: 0.8,
                    base: 0.7,
                    offset: 0.2,
                },
            ),
        ] {
            let out = PushModel::new(PushParams::new(r, online, sigma, f_r).with_pf(pf)).run();
            table.row(vec![
                format!("{f_r}"),
                label.into(),
                format!("{:.2}", out.messages_per_initial_online()),
                out.rounds.to_string(),
                format!("{:.4}", out.final_awareness),
            ]);
            // Pick the cheapest configuration that still reaches 95%.
            if out.final_awareness > 0.95 {
                let cost = out.messages_per_initial_online();
                if best.is_none_or(|(_, _, c)| cost < c) {
                    best = Some((f_r, pf, cost));
                }
            }
        }
    }
    println!("{table}");

    let (f_r, pf, cost) = best.expect("some configuration reaches 95%");
    println!("model's pick: f_r = {f_r}, PF = {pf:?} at {cost:.2} msgs/peer\n");

    // Confirm with the simulator (real protocol incl. partial lists).
    let forward = match pf {
        PfSchedule::One => ForwardPolicy::Always,
        PfSchedule::Exponential { base } => ForwardPolicy::ExponentialDecay { base },
        PfSchedule::OffsetExponential {
            scale,
            base,
            offset,
        } => ForwardPolicy::OffsetExponential {
            scale,
            base,
            offset,
        },
        _ => ForwardPolicy::Always,
    };
    let scenario = Scenario::builder(5_000, 3)
        .online_count(1_000)
        .churn(MarkovChurn::new(sigma, 0.0)?)
        .build()?;
    let config = ProtocolConfig::builder(5_000)
        .fanout_fraction(f_r)
        .forward(forward)
        .pull_strategy(PullStrategy::OnDemand)
        .build()?;
    let protocol = PaperProtocol::new(config);
    let mut sim = scenario.drive(&protocol);
    let event = UpdateEvent {
        round: 0,
        key: DataKey::from_name("tuned"),
        delete: false,
        sequence: 0,
    };
    let update = sim
        .initiate(&protocol, None, &event)
        .expect("someone is online");
    let report = sim.track_update(&protocol, update, 80);
    println!(
        "simulator confirms: {:.2} msgs/peer, awareness {:.4}, {} rounds",
        report.protocol_messages as f64 / report.initial_online as f64,
        report.aware_online_fraction,
        report.rounds
    );
    Ok(())
}
