//! The pluggable defense-arm subsystem end to end: every registered arm
//! runs the timer-channel workload deterministically (byte-identical
//! sweep JSON across runner thread counts), and the Deterland epoch arm —
//! a single-host defense with no replication at all — flips the channel's
//! leakage verdict from LEAKY to TIGHT while the report prices its
//! latency cost against the undefended sibling cell.

use harness::prelude::*;
use simkit::time::SimDuration;

/// A (defense arm x victim presence) grid over the timer channel. The
/// timer deadlines sit on a grid the default 5 ms epoch divides, so the
/// arms' release rules are exercised exactly as documented.
fn arm_grid(arms: &[&str]) -> SweepSpec {
    let values: Vec<String> = arms.iter().map(|a| a.to_string()).collect();
    let mut spec = SweepSpec::new("defense-arms", "timer-channel")
        .axis("cfg.defense", &values)
        .axis("victim", &["false", "true"])
        .seed_shards(42, 3);
    spec.base_params = vec![("rounds".to_string(), "12".to_string())];
    spec.base_overrides = vec![
        ("broadcast_band".to_string(), "off".to_string()),
        ("disk".to_string(), "ssd".to_string()),
    ];
    spec.duration = SimDuration::from_secs(120);
    spec
}

fn report(arms: &[&str], threads: usize) -> SweepReport {
    let scenarios = arm_grid(arms).scenarios().expect("grid expands");
    let outcomes = run_scenarios(
        &scenarios,
        &RunnerOptions {
            threads,
            progress: false,
        },
    );
    SweepReport::from_outcomes("defense-arms", &outcomes, None)
}

/// The subsystem's determinism contract: one sweep covering **every**
/// registered arm renders byte-identical JSON on 1 and 8 runner threads.
/// A new arm is pulled into this test the moment it registers.
#[test]
fn every_registered_arm_is_thread_count_invariant() {
    let arms = vmm::defense::arm_names();
    let one = report(arms, 1).to_json();
    let eight = report(arms, 8).to_json();
    assert_eq!(one, eight, "1-thread vs 8-thread JSON");
    assert!(one.contains("\"failures\": []"), "runs were not vacuous");
    for arm in arms {
        assert!(
            one.contains(&format!("\"defense\": \"{arm}\"")),
            "arm {arm} missing from the report"
        );
    }
}

/// The pinned cross-arm verdict: a non-StopWatch arm closes the channel.
/// Deterland releases every timer fire at the next epoch boundary, so the
/// victim's sub-epoch dispatch delays vanish — the victim cell reads
/// identical to the clean cell of the same arm — while the undefended
/// baseline stays distinguishable. The report also prices the arm: the
/// deterland cells carry an `overhead` block against their baseline
/// siblings.
#[test]
fn deterland_flips_the_timer_channel_from_leaky_to_tight_and_reports_overhead() {
    let r = report(&["baseline", "deterland"], 2);
    assert!(r.failures.is_empty(), "failures: {:?}", r.failures);
    let verdict = |cell: &str| {
        r.leakage
            .iter()
            .find(|v| v.cell == cell)
            .unwrap_or_else(|| panic!("no verdict for {cell:?} in {:?}", r.leakage))
    };

    let leaky = verdict("cfg.defense=baseline,victim=true");
    assert_eq!(leaky.baseline, "cfg.defense=baseline,victim=false");
    assert!(
        leaky.distinguishable_at_95,
        "undefended victim must be LEAKY: {leaky:?}"
    );

    let tight = verdict("cfg.defense=deterland,victim=true");
    assert_eq!(tight.baseline, "cfg.defense=deterland,victim=false");
    assert!(
        !tight.distinguishable_at_95,
        "deterland victim must be TIGHT: {tight:?}"
    );
    assert!(
        tight.ks_distance < 1e-9,
        "epoch releases are identical to clean: {tight:?}"
    );

    let cell = r
        .cells
        .iter()
        .find(|c| c.cell == "cfg.defense=deterland,victim=true")
        .expect("deterland victim cell");
    assert_eq!(cell.defense, "deterland");
    let overhead = cell.overhead.as_ref().expect("deterland cell is priced");
    assert_eq!(overhead.vs_cell, "cfg.defense=baseline,victim=true");
    assert!(overhead.throughput_ratio > 0.0);
    assert!(
        overhead.latency_p50_delta_ms > 0.0,
        "waiting for the epoch boundary costs latency: {overhead:?}"
    );
    let json = r.to_json();
    assert!(json.contains("\"overhead\""), "{json}");
    assert!(json.contains("\"defense\": \"deterland\""), "{json}");
}
