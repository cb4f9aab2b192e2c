//! The harness determinism contract: a sweep's JSON aggregate is
//! byte-identical regardless of runner thread count, because every
//! scenario is an isolated deterministic simulation and aggregation is a
//! pure fold in grid order.

use harness::prelude::*;
use simkit::time::SimDuration;

fn demo_spec() -> SweepSpec {
    let mut spec = SweepSpec::new("determinism", "web-http")
        .axis("cfg.delta_n_ms", &[2u64, 10])
        .axis("cfg.defense", &["baseline", "stopwatch"])
        .seed_shards(7, 2);
    spec.base_params = vec![
        ("bytes".to_string(), "20000".to_string()),
        ("downloads".to_string(), "1".to_string()),
    ];
    spec.base_overrides = vec![
        ("broadcast_band".to_string(), "off".to_string()),
        ("disk".to_string(), "ssd".to_string()),
    ];
    spec.duration = SimDuration::from_secs(60);
    spec
}

fn sweep_json(threads: usize) -> String {
    let spec = demo_spec();
    let scenarios = spec.scenarios().expect("spec expands");
    assert_eq!(scenarios.len(), 8, "2 x 2 grid x 2 seeds");
    let outcomes = run_scenarios(
        &scenarios,
        &RunnerOptions {
            threads,
            progress: false,
        },
    );
    SweepReport::from_outcomes(&spec.name, &outcomes, None).to_json()
}

#[test]
fn sweep_json_is_byte_identical_at_1_2_and_8_threads() {
    let one = sweep_json(1);
    let two = sweep_json(2);
    let eight = sweep_json(8);
    assert_eq!(one, two, "1-thread vs 2-thread JSON");
    assert_eq!(two, eight, "2-thread vs 8-thread JSON");
    // And the run was not vacuous: all cells populated, no failures.
    assert!(one.contains("\"scenarios\": 8"));
    assert!(one.contains("\"failures\": []"));
    assert!(one.contains("cfg.delta_n_ms=10,cfg.defense=stopwatch"));
    // The report header carries the schema version, and every cell embeds
    // its fully-resolved construction inputs (config knobs + workload
    // params + seeds) so any cell is reproducible from the report alone.
    assert!(one.contains(&format!(
        "\"schema_version\": {}",
        harness::aggregate::REPORT_SCHEMA_VERSION
    )));
    assert!(one.contains("\"resolved\""));
    assert!(one.contains("\"workload\": \"web-http\""));
    assert!(one.contains("\"delta_n_ms\": \"2\""), "swept knob value");
    assert!(one.contains("\"disk\": \"ssd\""), "base override value");
    assert!(one.contains("\"bytes\": \"20000\""), "explicit param");
    assert!(one.contains("\"file_id\": \"1\""), "schema-default param");
    assert!(one.contains("\"seeds\": ["), "per-cell shard seeds");
}

#[test]
fn repeated_runs_are_identical() {
    assert_eq!(sweep_json(4), sweep_json(4), "same spec, same bytes");
}

/// The same contract for the cache-channel workload, whose probe
/// proposals ride the PGM streams next to network proposals: thread
/// count must not change a byte of the aggregate.
#[test]
fn cache_channel_sweep_is_thread_count_invariant() {
    let json = |threads: usize| {
        let mut spec = SweepSpec::new("cache-det", "cache-channel")
            .axis("cfg.defense", &["baseline", "stopwatch"])
            .seed_shards(7, 2);
        spec.base_params = vec![
            ("rounds".to_string(), "8".to_string()),
            ("sets".to_string(), "4".to_string()),
            ("secret".to_string(), "1".to_string()),
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
    assert!(one.contains("\"cache_irq\""), "probe counters aggregated");
}
