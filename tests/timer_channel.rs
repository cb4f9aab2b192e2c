//! End-to-end timer-channel experiment: the leakage verdict must flip
//! from LEAKY (baseline, one replica) to TIGHT (StopWatch, three and
//! five replicas) on a fixed seed grid, and the attacker's
//! burst-recovery accuracy must collapse from near-certain to chance —
//! the same shape as `tests/cache_channel.rs` and
//! `tests/disk_channel.rs`, for the fourth timing channel.

use harness::prelude::*;
use simkit::time::SimDuration;

/// A fixed 4-cell grid (defense arm x victim presence) over 3 seeds at
/// one replica count, anchored on the clean baseline cell. The channel
/// needs no exotic physics overrides: the signal is the vCPU scheduler
/// itself — the attacker's one-shot timers fire late by the victim's
/// timeslice whenever the victim's periodic burst holds the host.
fn grid(replicas: u64) -> SweepSpec {
    let mut spec = SweepSpec::new("timer-flip", "timer-channel")
        .axis("cfg.defense", &["baseline", "stopwatch"])
        .axis("victim", &["false", "true"])
        .seed_shards(42, 3);
    spec.base_params = vec![("rounds".to_string(), "12".to_string())];
    spec.base_overrides = vec![
        ("broadcast_band".to_string(), "off".to_string()),
        ("disk".to_string(), "ssd".to_string()),
        ("replicas".to_string(), replicas.to_string()),
    ];
    spec.duration = SimDuration::from_secs(120);
    spec
}

/// Builds the report with the leakage baseline anchored on `baseline` —
/// the observer's reference distribution. Like the disk channel, a
/// *clean* timer fire reads differently per arm by construction (raw
/// dispatch times vs the flat Δt release), so each arm's victim cell is
/// judged against the clean cell of the **same** arm.
fn report(replicas: u64, baseline: &str) -> SweepReport {
    let scenarios = grid(replicas).scenarios().expect("grid expands");
    let outcomes = run_scenarios(
        &scenarios,
        &RunnerOptions {
            threads: 2,
            progress: false,
        },
    );
    SweepReport::from_outcomes("timer-flip", &outcomes, Some(baseline))
}

fn verdict<'a>(r: &'a SweepReport, cell: &str) -> &'a LeakageVerdict {
    r.leakage
        .iter()
        .find(|v| v.cell == cell)
        .unwrap_or_else(|| panic!("no verdict for {cell:?} in {:?}", r.leakage))
}

fn cell<'a>(r: &'a SweepReport, name: &str) -> &'a CellAggregate {
    r.cells
        .iter()
        .find(|c| c.cell == name)
        .unwrap_or_else(|| panic!("no cell {name:?}"))
}

#[test]
fn leakage_verdict_flips_from_leaky_to_tight_with_replication() {
    // One replica (baseline): the victim's secret-phased compute burst
    // holds the host through one probe window per round, and that
    // window's timer fires a timeslice late — an observer distinguishes
    // the victim cell from the clean cell of the same arm.
    let r = report(3, "cfg.defense=baseline,victim=false");
    assert!(r.failures.is_empty(), "failures: {:?}", r.failures);
    assert_eq!(r.cells.len(), 4, "2 arms x victim on/off");
    let leaky = verdict(&r, "cfg.defense=baseline,victim=true");
    assert!(
        leaky.distinguishable_at_95,
        "baseline + victim must be LEAKY: {leaky:?}"
    );
    assert!(leaky.ks_distance > 0.05, "victim shifts the KS distance");

    // Three replicas (StopWatch): every replica proposes the programmed
    // deadline plus Δt, the median ignores the one contended host's
    // dispatch jitter, and every fire reads the identical flat release —
    // indistinguishable from the protected clean cell.
    let r = report(3, "cfg.defense=stopwatch,victim=false");
    let tight = verdict(&r, "cfg.defense=stopwatch,victim=true");
    assert!(
        !tight.distinguishable_at_95,
        "StopWatch + victim must be TIGHT: {tight:?}"
    );
    assert!(
        tight.ks_distance < 1e-9,
        "agreed release times are identical to clean: {tight:?}"
    );
}

#[test]
fn five_replicas_stay_tight_too() {
    let r = report(5, "cfg.defense=stopwatch,victim=false");
    assert!(r.failures.is_empty(), "failures: {:?}", r.failures);
    let tight = verdict(&r, "cfg.defense=stopwatch,victim=true");
    assert!(
        !tight.distinguishable_at_95,
        "5 replicas must stay TIGHT: {tight:?}"
    );
    assert!(tight.ks_distance < 1e-9, "{tight:?}");
    let c = cell(&r, "cfg.defense=stopwatch,victim=true");
    let acc = c.extra("recovered_rounds") / c.extra("probe_rounds");
    let chance = 1.0 / 4.0;
    assert!(
        acc <= chance + 0.05,
        "5 replicas: accuracy at or below chance ({acc} vs chance {chance})"
    );
}

#[test]
fn recovery_accuracy_degrades_toward_chance_as_replicas_grow() {
    let r = report(3, "cfg.defense=baseline,victim=false");
    let acc = |name: &str| {
        let c = cell(&r, name);
        c.extra("recovered_rounds") / c.extra("probe_rounds")
    };
    let baseline = acc("cfg.defense=baseline,victim=true");
    let stopwatch = acc("cfg.defense=stopwatch,victim=true");
    let chance = 1.0 / 4.0;
    assert!(
        baseline >= 0.75,
        "1 replica: attacker recovers the burst window most rounds ({baseline})"
    );
    assert!(
        stopwatch <= chance + 0.05,
        "3 replicas: accuracy at or below chance ({stopwatch} vs chance {chance})"
    );
    assert!(
        baseline - stopwatch > 0.4,
        "accuracy must collapse 1 -> 3 replicas ({baseline} -> {stopwatch})"
    );

    // Every cell ran all its rounds (the verdicts mean nothing on a
    // timed-out attacker).
    for c in &r.cells {
        assert_eq!(c.timeouts, 0, "cell {} timed out", c.cell);
        assert_eq!(c.completed, 3 * 12, "cell {} rounds", c.cell);
    }

    // The paper's Δt diagnostic: a 10ms Δt covers the worst-case 2ms
    // run-queue wait with room to spare, so no replica ever overruns its
    // release point — in either stopwatch cell.
    for name in [
        "cfg.defense=stopwatch,victim=false",
        "cfg.defense=stopwatch,victim=true",
    ] {
        assert_eq!(
            cell(&r, name).counters.get("dt_violations"),
            0,
            "Δt covers the dispatch latency in {name}"
        );
    }
    // And the contended cell really did exercise the scheduler: the
    // victim's bursts preempted attacker fires.
    let contended = cell(&r, "cfg.defense=stopwatch,victim=true");
    assert!(
        contended.counters.get("sched_preemptions") > 0,
        "victim bursts must contend the run queue"
    );
    assert!(contended.counters.get("vtimer_irq") > 0);
    assert!(contended.counters.get("timer_arms") > 0);
}

/// The harness determinism contract extended to the timer channel: the
/// sweep JSON is byte-identical across runner thread counts.
#[test]
fn timer_sweep_is_thread_count_invariant() {
    let json = |threads: usize| {
        let mut spec = SweepSpec::new("timer-det", "timer-channel")
            .axis("cfg.defense", &["baseline", "stopwatch"])
            .seed_shards(7, 2);
        spec.base_params = vec![
            ("rounds".to_string(), "8".to_string()),
            ("victim".to_string(), "true".to_string()),
        ];
        spec.base_overrides = vec![
            ("broadcast_band".to_string(), "off".to_string()),
            ("disk".to_string(), "ssd".to_string()),
        ];
        spec.duration = SimDuration::from_secs(60);
        let scenarios = spec.scenarios().expect("spec expands");
        let outcomes = run_scenarios(
            &scenarios,
            &RunnerOptions {
                threads,
                progress: false,
            },
        );
        SweepReport::from_outcomes(&spec.name, &outcomes, None).to_json()
    };
    let one = json(1);
    assert_eq!(one, json(8), "1-thread vs 8-thread JSON");
    assert!(one.contains("\"failures\": []"), "runs were not vacuous");
    assert!(one.contains("\"vtimer_irq\""), "timer counters aggregated");
}

/// Satellite: the timer subsystem is inert for the legacy channels —
/// net-, cache-, and disk-channel runs arm no virtual timers, count no
/// timer IRQs or violations, and send no timer proposals. Together with
/// `tests/harness_determinism.rs` (whose byte-identity checks cover the
/// web and cache sweeps) this pins that wiring `ChannelKind::Timer`
/// changed nothing for existing traces.
#[test]
fn legacy_channels_report_zero_timer_activity() {
    for (workload, params, overrides) in [
        (
            "web-http",
            vec![("bytes", "20000"), ("downloads", "2")],
            vec![("disk", "ssd")],
        ),
        (
            "cache-channel",
            vec![("rounds", "8"), ("sets", "4"), ("victim", "true")],
            vec![("disk", "ssd")],
        ),
        (
            "disk-channel",
            vec![("rounds", "6"), ("victim", "true")],
            vec![
                ("disk", "rotating"),
                ("delta_d_ms", "25"),
                ("image_blocks", "16000000"),
            ],
        ),
    ] {
        let mut s = Scenario::new(workload, 42);
        s.workload_params = params
            .iter()
            .map(|&(k, v)| (k.to_string(), v.to_string()))
            .collect();
        s.overrides = overrides
            .iter()
            .map(|&(k, v)| (k.to_string(), v.to_string()))
            .collect();
        s.overrides
            .push(("broadcast_band".to_string(), "off".to_string()));
        s.duration = SimDuration::from_secs(120);
        let r = s.run().unwrap_or_else(|e| panic!("{workload}: {e}"));
        for counter in [
            "vtimer_irq",
            "timer_arms",
            "dt_violations",
            "timer_proposals_sent",
        ] {
            assert_eq!(
                r.counter(counter),
                0,
                "{workload} must not touch the timer channel ({counter})"
            );
        }
    }
}

/// StopWatch fixes a timer fire as soon as the proposals received
/// determine its median, so a fast majority can deliver a fire before a
/// slower replica's own hardware event for it elapses. That late event
/// must still propose (with five replicas a peer may be waiting for it)
/// and must not fail the cell; at Δt = 1–3 ms this grid used to fail 6 of
/// its scenarios with `timer_elapsed for unknown fire N`.
///
/// At Δt = 20 ms (one default window) every fire is delivered at the
/// next probe's midpoint, and at Δt = 0 every fire overruns Δt and waits
/// for its peers' proposals, often past that midpoint. The attacker then
/// arms its next probe 1 ns after the delivery instead of at a deadline
/// already past; every Δt = 0 and Δt = 20 scenario used to fail with
/// `guest timer 1 mis-programmed`.
#[test]
fn stopwatch_fire_delivered_before_its_own_hardware_event_keeps_the_cell() {
    let mut spec = SweepSpec::new("timer-late-fire", "timer-channel")
        .axis("cfg.delta_t_ms", &["0", "1", "2", "3", "20"])
        .axis("cfg.replicas", &["3", "5"])
        .seed_shards(42, 8);
    spec.base_params = vec![("victim".to_string(), "true".to_string())];
    spec.base_overrides = vec![("defense".to_string(), "stopwatch".to_string())];
    let scenarios = spec.scenarios().expect("grid expands");
    assert_eq!(scenarios.len(), 80);
    let outcomes = run_scenarios(
        &scenarios,
        &RunnerOptions {
            threads: 2,
            progress: false,
        },
    );
    let r = SweepReport::from_outcomes("timer-late-fire", &outcomes, None);
    assert!(r.failures.is_empty(), "failures: {:?}", r.failures);
    assert_eq!(r.cells.len(), 10);
    for c in &r.cells {
        assert_eq!(c.runs, 8, "{}", c.cell);
        assert_eq!(c.timeouts, 0, "{}", c.cell);
        assert_eq!(c.completed, 8 * 12, "{}: every round finished", c.cell);
        let delta_t_ms: f64 = c.params[0].1.parse().expect("Δt axis value");
        let samples = c.samples.as_slice();
        assert!(!samples.is_empty(), "{} recorded no fire", c.cell);
        // At Δt = 0 a fire reads its agreement latency instead.
        assert!(
            delta_t_ms == 0.0 || samples.iter().all(|&s| s == delta_t_ms),
            "{}: every fire reads exactly Δt = {delta_t_ms} ms",
            c.cell
        );
    }
}
