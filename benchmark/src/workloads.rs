//! The four benchmark workloads. Each is a user-visible sweep: a preset
//! (or the cache-storm perf scenario) whose seed shards start at the
//! benchmark's `--seed`.

use harness::perf::perf_bench;
use harness::presets::preset;
use harness::sweep::SweepSpec;

/// One workload: a sweep shape plus the reason it is in the benchmark.
pub struct Workload {
    /// Name as passed to `--workload`.
    pub name: &'static str,
    /// Why the benchmark runs it (one line; `BENCHMARK.json` repeats it).
    pub why: &'static str,
    build: fn(quick: bool) -> SweepSpec,
}

impl Workload {
    /// The sweep of one pass: the workload's shape with its seed shards
    /// renumbered from `seed`.
    pub fn spec(&self, seed: u64, quick: bool) -> SweepSpec {
        let spec = (self.build)(quick);
        let shards = spec.seeds.len();
        spec.seed_shards(seed, shards)
    }
}

fn preset_spec(name: &str, quick: bool) -> SweepSpec {
    preset(name)
        .unwrap_or_else(|| panic!("preset {name} is registered"))
        .spec(quick)
}

/// Every workload, in interleaving order.
pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "delta-n",
        why: "paper Sec. VII-A calibration: bulk web downloads over 8 delta-n values x 8 seeds; \
              network path only, the control for cache, disk and timer changes",
        build: |quick| preset_spec("delta-n", quick),
    },
    Workload {
        name: "nfs-load",
        why: "fig6 NFS ops at its 5 offered rates, baseline arm: small RPCs at a fixed rate \
              plus disk I/O, so bulk-only network gains show their cost here",
        build: |quick| {
            let mut spec = preset_spec("fig6", quick).seed_shards(0, 1);
            // Only the baseline arm: the NFS server guest sends its
            // per-connection timer output in `HashMap` order, which differs
            // between replicas and between runs, so the StopWatch cells
            // count egress divergences and their reports are not
            // reproducible. Restricting the axis keeps fig6's cell names.
            for axis in spec.axes.iter_mut().filter(|a| a.key == "cfg.defense") {
                axis.values = vec!["baseline".to_string()];
            }
            spec
        },
    },
    Workload {
        name: "defense-shootout",
        why: "3 channels x 4 defense arms x replicas {3,5} x victim: every defense arm, disk, \
              cache and timer agreement, the scheduler, and the heaviest report aggregation",
        build: |quick| preset_spec("defense-shootout", quick).seed_shards(0, 1),
    },
    Workload {
        name: "cache-storm",
        why: "one dense PRIME+PROBE cloud (32 sets x 4 ways, 40 rounds): cache model and \
              cache-probe agreement dominate, almost no packets; 5x slower per event",
        build: |_quick| {
            // The perf bench's quick shape is already small; both modes use it.
            let bench = perf_bench("cache-storm").expect("cache-storm perf bench is registered");
            let scenario = bench
                .scenarios(true)
                .expect("cache-storm scenario builds")
                .remove(0);
            let mut spec = SweepSpec::new("cache-storm", &scenario.workload);
            spec.base_params = scenario.workload_params;
            spec.base_overrides = scenario.overrides;
            spec.duration = scenario.duration;
            spec.drain = scenario.drain;
            spec
        },
    },
];

/// Looks up a workload by name.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pass_shapes_match_the_documented_scenario_counts() {
        let count = |name: &str, quick: bool| {
            workload(name)
                .expect("registered")
                .spec(7, quick)
                .scenarios()
                .expect("expands")
                .len()
        };
        assert_eq!(count("delta-n", false), 64);
        assert_eq!(count("nfs-load", false), 5);
        assert_eq!(count("defense-shootout", false), 48);
        assert_eq!(count("cache-storm", false), 1);
        assert_eq!(count("delta-n", true), 16);
        assert_eq!(count("defense-shootout", true), 24);
    }

    #[test]
    fn seed_becomes_the_shard_base() {
        let spec = workload("delta-n").expect("registered").spec(1000, false);
        assert_eq!(spec.seeds, (1000..1008).collect::<Vec<u64>>());
        let spec = workload("cache-storm").expect("registered").spec(9, true);
        assert_eq!(spec.seeds, vec![9]);
    }
}
