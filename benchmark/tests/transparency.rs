//! Tracing must not perturb the run: on the deterministic engine path the
//! span wrappers replay the unwrapped run count for count.

use rumor_benchmark::api::PaperProtocol;
use rumor_benchmark::harness::{closed_loop, EngineHarness, Harness};
use rumor_benchmark::span::{Call, SpanProtocol};
use rumor_benchmark::workload;
use std::sync::Arc;
use std::time::Instant;

#[test]
fn span_protocol_is_transparent_on_engine_paper() {
    let spec = workload::by_name("engine-paper")
        .expect("defined workload")
        .with_population(200);
    let scenario = spec.scenario(11);
    let protocol = || PaperProtocol::new(spec.paper_config());
    let epoch = Instant::now();

    let mut plain = EngineHarness::mount(&scenario, protocol(), spec.delivered_at, None);
    let plain_run = closed_loop(&mut plain, epoch, 0, 10, || {});

    let wrapped = SpanProtocol::new(protocol(), spec.population);
    let table = Arc::clone(wrapped.table());
    let mut spanned = EngineHarness::mount(&scenario, wrapped, spec.delivered_at, None);
    let spanned_run = closed_loop(&mut spanned, epoch, 0, 10, || {});

    // rounds_run, messages and bytes_sent after every one of the ten updates.
    let counts = |run: &rumor_benchmark::harness::LoopRun| -> Vec<_> {
        run.updates.iter().map(|u| (u.delivery, u.after)).collect()
    };
    assert_eq!(counts(&plain_run), counts(&spanned_run));
    assert_eq!(plain.counters(), spanned.counters());
    assert!(plain.counters().rounds > 0 && plain.counters().bytes > 0);

    // The wrapper saw the run it did not disturb.
    let totals = table.totals();
    assert!(totals.calls(Call::OnMessage) > 0);
    assert_eq!(totals.calls(Call::Initiate), 10);
    assert!(totals.calls(Call::Probe) > 0);
    assert!(
        totals.calls(Call::In(0)) > 0,
        "push messages are classified"
    );
    let classified: u64 = (0..6).map(|k| totals.calls(Call::In(k))).sum();
    assert_eq!(classified, totals.calls(Call::OnMessage));
    assert!(!table.sample().is_empty());
}
