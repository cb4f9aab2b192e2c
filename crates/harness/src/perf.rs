//! The storm benches: named, fixed scenario lists that stress one hot
//! path each (packet, disk, cache and timer agreement, the defense arms),
//! plus the full delta-n sweep.
//!
//! The registry carries no timing code. `tests/golden_reports.rs` pins
//! each bench's quick report by digest, `tests/alloc_budget.rs` bounds
//! cache-storm's allocations, and the repository benchmark
//! (`benchmark/`, see its README) times cache-storm as one of its
//! workloads.

use crate::presets;
use crate::scenario::Scenario;
use simkit::time::SimDuration;

/// A named storm bench: a fixed scenario list in a quick and a full
/// shape.
pub struct PerfBench {
    /// Registry key.
    pub name: &'static str,
    /// What the benchmark stresses.
    pub about: &'static str,
    build: fn(quick: bool) -> Result<Vec<Scenario>, String>,
}

impl PerfBench {
    /// Materializes the scenario list.
    pub fn scenarios(&self, quick: bool) -> Result<Vec<Scenario>, String> {
        (self.build)(quick)
    }
}

/// Every named perf benchmark.
pub const PERF_BENCHES: &[PerfBench] = &[
    PerfBench {
        name: "delta-n",
        about: "the full 64-cell delta-n sweep (16 quick) — the ROADMAP sweep-throughput benchmark",
        build: |quick| {
            presets::preset("delta-n")
                .expect("delta-n preset exists")
                .spec(quick)
                .scenarios()
        },
    },
    PerfBench {
        name: "packet-storm",
        about: "one cloud, UDP-NAK bulk transfer — a packet-dense microbench of the engine + median-agreement hot paths",
        build: |quick| {
            let mut s = Scenario::new("web-udp", 42);
            s.label = "packet-storm".to_string();
            s.cell = "packet-storm".to_string();
            s.workload_params = vec![
                (
                    "bytes".to_string(),
                    if quick { "200000" } else { "2000000" }.to_string(),
                ),
                ("downloads".to_string(), if quick { "2" } else { "4" }.to_string()),
            ];
            s.overrides = vec![
                ("broadcast_band".to_string(), "off".to_string()),
                ("disk".to_string(), "ssd".to_string()),
            ];
            s.duration = SimDuration::from_secs(600);
            Ok(vec![s])
        },
    },
    PerfBench {
        name: "disk-storm",
        about: "one cloud, dense disk probing on a rotating medium — stresses the disk-completion agreement hot path",
        build: |quick| {
            let mut s = Scenario::new("disk-channel", 42);
            s.label = "disk-storm".to_string();
            s.cell = "disk-storm".to_string();
            s.workload_params = vec![
                ("arms".to_string(), "8".to_string()),
                ("probes_per_arm".to_string(), "2".to_string()),
                ("probe_gap_ticks".to_string(), "8".to_string()),
                (
                    "rounds".to_string(),
                    if quick { "120" } else { "480" }.to_string(),
                ),
                ("victim".to_string(), "true".to_string()),
                ("victim_every".to_string(), "2".to_string()),
            ];
            s.overrides = vec![
                ("broadcast_band".to_string(), "off".to_string()),
                ("disk".to_string(), "rotating".to_string()),
                ("delta_d_ms".to_string(), "25".to_string()),
                ("image_blocks".to_string(), "16000000".to_string()),
            ];
            s.duration = SimDuration::from_secs(600);
            Ok(vec![s])
        },
    },
    PerfBench {
        name: "cache-storm",
        about: "one cloud, dense PRIME+PROBE rounds — stresses the cache-probe proposal/median hot path",
        build: |quick| {
            let mut s = Scenario::new("cache-channel", 42);
            s.label = "cache-storm".to_string();
            s.cell = "cache-storm".to_string();
            s.workload_params = vec![
                ("sets".to_string(), "32".to_string()),
                ("ways".to_string(), "4".to_string()),
                (
                    "rounds".to_string(),
                    if quick { "40" } else { "200" }.to_string(),
                ),
                ("victim".to_string(), "true".to_string()),
            ];
            s.overrides = vec![
                ("broadcast_band".to_string(), "off".to_string()),
                ("disk".to_string(), "ssd".to_string()),
            ];
            s.duration = SimDuration::from_secs(600);
            Ok(vec![s])
        },
    },
    PerfBench {
        name: "timer-storm",
        about: "one cloud, dense virtual-timer arming under contention — stresses the vCPU scheduler + Δt agreement hot path",
        build: |quick| {
            let mut s = Scenario::new("timer-channel", 42);
            s.label = "timer-storm".to_string();
            s.cell = "timer-storm".to_string();
            s.workload_params = vec![
                ("arms".to_string(), "8".to_string()),
                ("window_ms".to_string(), "5".to_string()),
                (
                    "rounds".to_string(),
                    if quick { "400" } else { "1600" }.to_string(),
                ),
                ("secret".to_string(), "5".to_string()),
                ("victim".to_string(), "true".to_string()),
            ];
            s.overrides = vec![
                ("broadcast_band".to_string(), "off".to_string()),
                ("disk".to_string(), "ssd".to_string()),
                // Δt and the timeslice must fit inside the 5 ms probe
                // window or the next arm would already be in the past
                // when the previous fire delivers.
                ("delta_t_ms".to_string(), "2".to_string()),
                ("timeslice_ms".to_string(), "1".to_string()),
            ];
            s.duration = SimDuration::from_secs(600);
            Ok(vec![s])
        },
    },
    PerfBench {
        name: "defense-storm",
        about: "the timer-storm scenario once per registered defense arm — stresses the arm dispatch + release-rule hot paths",
        build: |quick| {
            // One dense timer-channel cloud per arm, so a slow release
            // rule (or a regression in the arm dispatch itself) shows up
            // in the same events/sec headline the other storms use. The
            // epoch and bucket are sized like Δt: they must fit inside
            // the 5 ms probe window (see timer-storm above).
            let scenarios = vmm::defense::arm_names()
                .iter()
                .map(|arm| {
                    let mut s = Scenario::new("timer-channel", 42);
                    s.label = format!("defense-storm:{arm}");
                    s.cell = format!("defense-storm:{arm}");
                    s.workload_params = vec![
                        ("arms".to_string(), "8".to_string()),
                        ("window_ms".to_string(), "5".to_string()),
                        (
                            "rounds".to_string(),
                            if quick { "200" } else { "800" }.to_string(),
                        ),
                        ("secret".to_string(), "5".to_string()),
                        ("victim".to_string(), "true".to_string()),
                    ];
                    s.overrides = vec![
                        ("broadcast_band".to_string(), "off".to_string()),
                        ("disk".to_string(), "ssd".to_string()),
                        ("delta_t_ms".to_string(), "2".to_string()),
                        ("timeslice_ms".to_string(), "1".to_string()),
                        ("defense".to_string(), arm.to_string()),
                        ("epoch_ms".to_string(), "2".to_string()),
                        ("bucket_ns".to_string(), "2000000".to_string()),
                    ];
                    s.duration = SimDuration::from_secs(600);
                    s
                })
                .collect();
            Ok(scenarios)
        },
    },
];

/// Looks up a perf benchmark by name.
pub fn perf_bench(name: &str) -> Option<&'static PerfBench> {
    PERF_BENCHES.iter().find(|b| b.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::ScenarioResult;

    /// Runs the single scenario of a storm's quick shape.
    fn quick_storm(name: &str) -> ScenarioResult {
        let scenarios = perf_bench(name).unwrap().scenarios(true).unwrap();
        assert_eq!(scenarios.len(), 1, "single-cloud microbench");
        scenarios[0].run().expect("quick storm runs")
    }

    #[test]
    fn quick_vs_full_cell_counts() {
        let quick = perf_bench("delta-n").unwrap().scenarios(true).unwrap();
        let full = perf_bench("delta-n").unwrap().scenarios(false).unwrap();
        assert_eq!(quick.len(), 16, "8 grid points x 2 quick seeds");
        assert_eq!(full.len(), 64, "8 grid points x 8 seeds");
        let storm = perf_bench("packet-storm").unwrap().scenarios(true).unwrap();
        assert_eq!(storm.len(), 1, "single-cloud microbench");
        let cache = perf_bench("cache-storm").unwrap().scenarios(true).unwrap();
        assert_eq!(cache.len(), 1, "single-cloud microbench");
        assert_eq!(cache[0].workload, "cache-channel");
        let timer = perf_bench("timer-storm").unwrap().scenarios(true).unwrap();
        assert_eq!(timer.len(), 1, "single-cloud microbench");
        assert_eq!(timer[0].workload, "timer-channel");
        let defense = perf_bench("defense-storm")
            .unwrap()
            .scenarios(true)
            .unwrap();
        assert_eq!(
            defense.len(),
            vmm::defense::arm_names().len(),
            "one cloud per registered arm"
        );
        for (s, arm) in defense.iter().zip(vmm::defense::arm_names()) {
            assert_eq!(s.workload, "timer-channel");
            assert!(
                s.overrides
                    .contains(&("defense".to_string(), arm.to_string())),
                "scenario {} pins its arm",
                s.label
            );
        }
    }

    #[test]
    fn quick_perf_run_end_to_end() {
        let r = quick_storm("packet-storm");
        assert!(r.clients_done, "the bulk transfer finishes in budget");
        assert!(r.events_executed > 0, "simulated something");
        assert!(
            r.counter("ingress_packets") > 0,
            "packet-dense by construction"
        );
        assert!(r.counter("net_irq") > 0, "delivers packet interrupts");
    }

    #[test]
    fn timer_storm_quick_run_counts_timer_work() {
        let r = quick_storm("timer-storm");
        assert!(r.events_executed > 0);
        assert!(r.counter("timer_arms") > 0, "arms virtual timers");
        assert!(r.counter("vtimer_irq") > 0, "delivers timer interrupts");
    }

    #[test]
    fn cache_storm_quick_run_counts_probe_work() {
        let r = quick_storm("cache-storm");
        assert!(r.events_executed > 0);
        assert!(r.counter("cache_probes") > 0, "probes the shared cache");
        assert!(r.counter("cache_irq") > 0, "delivers probe readouts");
    }
}
