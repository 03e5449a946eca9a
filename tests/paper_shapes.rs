//! The headline reproduction claims: every figure and table of the paper
//! holds in *shape* — who wins, by roughly what factor, where the
//! crossovers fall. The comment at each assertion names the claim it
//! checks; ROADMAP item 12 tracks where the numbers and the paper part.

use rumor_bench::experiments::{self, Table2Setting};

#[test]
fn fig1_small_online_population_kills_the_rumor_large_does_not() {
    let dead = &experiments::fig1a()[0];
    assert!(dead.died, "1% online: the rumor must die");
    assert!(dead.final_awareness < 0.7);

    let healthy = experiments::fig1b();
    for s in &healthy[1..] {
        assert!(!s.died, "{} must spread", s.label);
    }
    // Cost roughly independent of the initial population (paper: "the
    // message overhead is relatively independent of the online
    // population").
    let costs: Vec<f64> = healthy[1..].iter().map(|s| s.total_per_peer).collect();
    let (min, max) = costs
        .iter()
        .fold((f64::MAX, 0.0f64), |(lo, hi), &c| (lo.min(c), hi.max(c)));
    assert!(max / min < 2.0, "costs within 2x of each other: {costs:?}");
}

#[test]
fn fig2_fanout_multiplies_cost_without_extending_reach() {
    let series = experiments::fig2();
    let c05 = series[0].total_per_peer; // f_r = 0.005
    let c50 = series[3].total_per_peer; // f_r = 0.05
    assert!(
        c50 / c05 > 5.0 && c50 / c05 < 15.0,
        "paper: 8-10x more duplicates; got ratio {}",
        c50 / c05
    );
    let reach_gain = series[3].final_awareness - series[0].final_awareness;
    assert!(
        reach_gain < 0.08,
        "extra fanout buys almost no extra coverage: {reach_gain}"
    );
}

#[test]
fn fig3_algorithm_robust_to_peers_dropping_offline() {
    let series = experiments::fig3();
    // σ from 1.0 down to 0.8: coverage stays high while cost *drops* (the
    // paper's "curiously the message overhead decreases" observation that
    // motivated PF(t)).
    assert!(series[2].final_awareness > 0.95, "σ=0.8 still covers");
    assert!(series[2].total_per_peer < series[0].total_per_peer * 0.6);
}

#[test]
fn fig4_best_strategy_is_decaying_pf() {
    let series = experiments::fig4();
    let pf1 = &series[0];
    let best = series
        .iter()
        .filter(|s| s.final_awareness > 0.95)
        .min_by(|a, b| a.total_per_peer.partial_cmp(&b.total_per_peer).unwrap())
        .expect("some schedule keeps coverage");
    assert_ne!(best.label, pf1.label, "a decaying schedule must win");
    assert!(best.total_per_peer < pf1.total_per_peer * 0.8);
    // Over-aggressive decay sacrifices coverage (the paper's tuning
    // warning).
    let worst = &series[5]; // 0.5^t
    assert!(worst.final_awareness < 0.9);
}

#[test]
fn fig5_overhead_stays_bounded_across_four_orders_of_magnitude() {
    let series = experiments::fig5();
    let costs: Vec<f64> = series.iter().map(|s| s.total_per_peer).collect();
    assert!(
        costs.windows(2).all(|w| w[0] >= w[1]),
        "decreasing: {costs:?}"
    );
    assert!(
        costs.iter().all(|&c| (15.0..45.0).contains(&c)),
        "paper: around 20 messages/peer: {costs:?}"
    );
}

#[test]
fn table2_full_ordering_and_factors() {
    // Setting A — paper: 4 / 3.92 / 3.136 / 2.215 msgs per online peer.
    let a = experiments::table2(Table2Setting::A);
    let m: Vec<f64> = a.iter().map(|r| r.messages_per_online).collect();
    assert!(
        m[0] > m[1] && m[1] > m[2] && m[2] > m[3],
        "A ordering: {m:?}"
    );
    assert!((m[0] - 4.0).abs() < 1e-9);
    assert!(
        (m[1] - 3.92).abs() / 3.92 < 0.05,
        "partial list ≈ paper: {m:?}"
    );
    assert!((m[2] - 3.136).abs() / 3.136 < 0.10, "Haas ≈ paper: {m:?}");
    assert!((m[3] - 2.215).abs() / 2.215 < 0.20, "ours ≈ paper: {m:?}");

    // Setting B — paper: 40 / 35.22 / 28.49 / 16.35.
    let b = experiments::table2(Table2Setting::B);
    let m: Vec<f64> = b.iter().map(|r| r.messages_per_online).collect();
    assert!(
        m[0] > m[1] && m[1] > m[2] && m[2] > m[3],
        "B ordering: {m:?}"
    );
    assert!((m[0] - 40.0).abs() < 1e-9);
    assert!((m[1] - 35.22).abs() / 35.22 < 0.10, "{m:?}");
    assert!((m[2] - 28.49).abs() / 28.49 < 0.10, "{m:?}");
    assert!((m[3] - 16.35).abs() / 16.35 < 0.20, "{m:?}");

    // Ours pays at most a small latency premium (paper: +1 round).
    assert!(a[3].rounds <= a[0].rounds + 3);
    assert!(b[3].rounds <= b[0].rounds + 3);
}

#[test]
fn pull_phase_constant_attempts_suffice() {
    let (rows, attempts_999) = experiments::pull_phase();
    // The paper's §2 sizing: ~65 serial attempts for 99.9% at 10% online.
    assert_eq!(attempts_999, Some(66));
    // Once the push saturated (f_aware = 1), 65 attempts ≈ 99.9%.
    let saturated = rows
        .iter()
        .find(|r| r.f_aware == 1.0 && r.attempts == 65)
        .expect("row exists");
    assert!(saturated.probability > 0.998);
}

#[test]
fn ablations_support_the_design_choices() {
    let list = rumor_bench::ablation::partial_list(7);
    assert!(
        list[0].duplicates < list[2].duplicates,
        "partial list suppresses duplicates: {list:?}"
    );
    let fwd = rumor_bench::ablation::forwarding(7);
    assert!(
        fwd[1].push_cost < fwd[0].push_cost,
        "decaying PF cheaper than PF=1: {fwd:?}"
    );
    assert!(
        fwd[2].awareness > 0.85,
        "self-tuning keeps coverage: {fwd:?}"
    );
}
