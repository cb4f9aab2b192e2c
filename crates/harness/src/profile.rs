//! Phase-attributed wall time of scenario runs.
//!
//! Every [`Scenario::run`](crate::scenario::Scenario::run) splits its wall
//! time into four phases — config/param **resolve**, cloud **build**
//! (together: setup), event-loop **run**, and result **aggregate** — and
//! [`run_scenarios_profiled`](crate::runner::run_scenarios_profiled) sums
//! them across its worker threads. The repository benchmark reads the
//! split for its `setup_s` metric and its per-layer spans. The phase
//! timers are monotonic wall-clock reads outside the simulated world: they
//! never touch simulated state, so determinism (byte-identical sweep JSON
//! at any thread count) is unaffected.

/// Per-phase wall nanoseconds of one or more scenario runs. Additive:
/// worker threads accumulate locally and the runner folds them together,
/// so totals are sums over all scenarios regardless of parallelism.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Phases {
    /// Config override application + workload parameter resolution (the
    /// schema walks that render `resolved_config` / `resolved_params`).
    pub resolve_ns: u64,
    /// Workload install + `CloudBuilder::build` — topology construction,
    /// guest images, initial event scheduling.
    pub build_ns: u64,
    /// The event loop: `run_until_clients_done` plus the drain window.
    pub run_ns: u64,
    /// Result extraction: workload collect, counter harvest, report
    /// assembly.
    pub aggregate_ns: u64,
}

impl Phases {
    /// Everything before the first event executes.
    pub fn setup_ns(&self) -> u64 {
        self.resolve_ns + self.build_ns
    }

    /// Folds another accumulator into this one.
    pub fn add(&mut self, other: &Phases) {
        self.resolve_ns += other.resolve_ns;
        self.build_ns += other.build_ns;
        self.run_ns += other.run_ns;
        self.aggregate_ns += other.aggregate_ns;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phases_are_additive() {
        let mut a = Phases {
            resolve_ns: 1,
            build_ns: 2,
            run_ns: 3,
            aggregate_ns: 4,
        };
        let b = Phases {
            resolve_ns: 10,
            build_ns: 20,
            run_ns: 30,
            aggregate_ns: 40,
        };
        a.add(&b);
        assert_eq!(
            a,
            Phases {
                resolve_ns: 11,
                build_ns: 22,
                run_ns: 33,
                aggregate_ns: 44,
            }
        );
        assert_eq!(a.setup_ns(), 33);
    }

    #[test]
    fn profile_runs_a_quick_bench_and_attributes_every_phase() {
        use crate::runner::{run_scenarios_profiled, RunnerOptions};
        use crate::scenario::Scenario;

        let storm = crate::perf::perf_bench("packet-storm")
            .expect("packet-storm is registered")
            .scenarios(true)
            .expect("quick packet-storm expands");
        // One scenario always runs on one worker; two copies at two
        // threads take the pooled path, whose per-worker totals are folded.
        let twice: Vec<Scenario> = storm.iter().chain(&storm).cloned().collect();
        for (scenarios, threads) in [(&storm, 1), (&twice, 2)] {
            let (outcomes, phases) = run_scenarios_profiled(
                scenarios,
                &RunnerOptions {
                    threads,
                    progress: false,
                },
            );
            assert!(
                outcomes.iter().all(|o| o.result.is_ok()),
                "a scenario failed at {threads} thread(s)"
            );
            assert!(
                phases.build_ns > 0,
                "build attributed at {threads} thread(s)"
            );
            assert!(phases.run_ns > 0, "run attributed at {threads} thread(s)");
        }
    }
}
