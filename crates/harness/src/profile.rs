//! Phase-attributed wall-time profiles of the sweep engine.
//!
//! Perf numbers without attribution invite guessing, so every
//! [`Scenario::run`](crate::scenario::Scenario::run) splits its wall time
//! into four phases — config/param **resolve**, cloud **build** (together:
//! setup), event-loop **run**, and result **aggregate** — and the runner
//! sums them across its worker threads. `swbench profile [<bench>]`
//! surfaces the split per registered perf bench as a schema-versioned
//! `PROFILE_*.json`, and `swbench perf --profile` writes the same document
//! for the timed passes of a gate run. The phase timers are monotonic
//! wall-clock reads outside the simulated world: they never touch
//! simulated state, so determinism (byte-identical sweep JSON at any
//! thread count) is unaffected.

use crate::json::Json;
use crate::perf::{perf_bench, PerfReport, PERF_BENCHES};
use crate::runner::{run_scenarios_profiled, RunnerOptions};

/// Version of the `PROFILE_*.json` layout. Bumped whenever the document
/// shape changes.
pub const PROFILE_SCHEMA_VERSION: u64 = 1;

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

    /// Total attributed wall time.
    pub fn total_ns(&self) -> u64 {
        self.setup_ns() + self.run_ns + self.aggregate_ns
    }

    /// Folds another accumulator into this one.
    pub fn add(&mut self, other: &Phases) {
        self.resolve_ns += other.resolve_ns;
        self.build_ns += other.build_ns;
        self.run_ns += other.run_ns;
        self.aggregate_ns += other.aggregate_ns;
    }
}

/// Knobs of one profile pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ProfileOptions {
    /// Profile the quick (smoke) scenario shapes.
    pub quick: bool,
    /// Worker threads (0 = one per core).
    pub threads: usize,
}

/// One bench's phase breakdown, ready to render as `PROFILE_<name>.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileReport {
    /// Benchmark name.
    pub bench: String,
    /// Whether the quick (smoke) shape ran.
    pub quick: bool,
    /// Scenarios per pass.
    pub scenarios: u64,
    /// Passes the phase totals cover (1 for `swbench profile`, the timed
    /// repeats for `swbench perf --profile`).
    pub passes: u64,
    /// Summed phase wall time over all passes and scenarios.
    pub phases: Phases,
}

impl ProfileReport {
    /// A profile view of a finished perf run: the phase totals the timed
    /// repeats accumulated, attributed per pass.
    pub fn from_perf(report: &PerfReport) -> ProfileReport {
        ProfileReport {
            bench: report.bench.clone(),
            quick: report.quick,
            scenarios: report.scenarios,
            passes: report.repeats,
            phases: report.phases,
        }
    }

    /// The report as a [`Json`] value — embeddable in the consolidated
    /// all-bench document as well as standalone.
    pub fn to_json_value(&self) -> Json {
        let per_pass = |ns: u64| Json::F64(ns as f64 / 1e6 / self.passes.max(1) as f64);
        let total = self.phases.total_ns().max(1) as f64;
        let share = |ns: u64| Json::F64((ns as f64 / total * 1000.0).round() / 10.0);
        Json::obj()
            .with("schema_version", Json::U64(PROFILE_SCHEMA_VERSION))
            .with("kind", Json::str("phase-profile"))
            .with("bench", Json::str(&self.bench))
            .with("mode", Json::str(if self.quick { "quick" } else { "full" }))
            .with("scenarios", Json::U64(self.scenarios))
            .with("passes", Json::U64(self.passes))
            .with("setup_ms", per_pass(self.phases.setup_ns()))
            .with("setup_resolve_ms", per_pass(self.phases.resolve_ns))
            .with("setup_build_ms", per_pass(self.phases.build_ns))
            .with("run_ms", per_pass(self.phases.run_ns))
            .with("aggregate_ms", per_pass(self.phases.aggregate_ns))
            .with("total_ms", per_pass(self.phases.total_ns()))
            .with("setup_pct", share(self.phases.setup_ns()))
            .with("run_pct", share(self.phases.run_ns))
            .with("aggregate_pct", share(self.phases.aggregate_ns))
    }

    /// Renders the standalone `PROFILE_<name>.json` document.
    pub fn to_json(&self) -> String {
        self.to_json_value().render_pretty()
    }

    /// One human line for the terminal.
    pub fn summary(&self) -> String {
        let ms = |ns: u64| ns as f64 / 1e6 / self.passes.max(1) as f64;
        let total = self.phases.total_ns().max(1) as f64;
        let pct = |ns: u64| ns as f64 / total * 100.0;
        format!(
            "{} {} scenarios: setup {:.2} ms ({:.0}% — resolve {:.2} + build {:.2}), \
             run {:.2} ms ({:.0}%), aggregate {:.2} ms ({:.0}%)",
            self.bench,
            self.scenarios,
            ms(self.phases.setup_ns()),
            pct(self.phases.setup_ns()),
            ms(self.phases.resolve_ns),
            ms(self.phases.build_ns),
            ms(self.phases.run_ns),
            pct(self.phases.run_ns),
            ms(self.phases.aggregate_ns),
            pct(self.phases.aggregate_ns),
        )
    }
}

/// The consolidated document of one `swbench profile` pass over several
/// benches (`kind: "profile-set"`), in registry order.
#[derive(Debug, Clone, Default)]
pub struct ProfileSet {
    /// One entry per profiled bench.
    pub entries: Vec<ProfileReport>,
}

impl ProfileSet {
    /// Renders the consolidated `PROFILE_benches.json` document.
    pub fn to_json(&self) -> String {
        Json::obj()
            .with("schema_version", Json::U64(PROFILE_SCHEMA_VERSION))
            .with("kind", Json::str("profile-set"))
            .with(
                "benches",
                Json::Arr(self.entries.iter().map(|e| e.to_json_value()).collect()),
            )
            .render_pretty()
    }
}

/// Profiles one registered perf bench: a single pass over its scenario
/// list with the phase timers folded across workers.
///
/// # Errors
///
/// Reports unknown bench names and scenario failures (a profile of a
/// partially-failed pass would misattribute the missing work).
pub fn run_profile(name: &str, opts: &ProfileOptions) -> Result<ProfileReport, String> {
    let bench = perf_bench(name).ok_or_else(|| {
        let known: Vec<&str> = PERF_BENCHES.iter().map(|b| b.name).collect();
        format!(
            "unknown perf benchmark {name:?} (known: {})",
            known.join(", ")
        )
    })?;
    let scenarios = bench.scenarios(opts.quick)?;
    let runner = RunnerOptions {
        threads: opts.threads,
        progress: false,
    };
    let (outcomes, phases) = run_scenarios_profiled(&scenarios, &runner);
    if let Some((label, err)) = outcomes.iter().find_map(|o| {
        o.result
            .as_ref()
            .err()
            .map(|e| (o.label.clone(), e.clone()))
    }) {
        return Err(format!("scenario {label:?} failed: {err}"));
    }
    Ok(ProfileReport {
        bench: bench.name.to_string(),
        quick: opts.quick,
        scenarios: scenarios.len() as u64,
        passes: 1,
        phases,
    })
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
        assert_eq!(a.setup_ns(), 33);
        assert_eq!(a.total_ns(), 110);
    }

    #[test]
    fn profile_json_shape() {
        let report = ProfileReport {
            bench: "packet-storm".to_string(),
            quick: true,
            scenarios: 1,
            passes: 2,
            phases: Phases {
                resolve_ns: 1_000_000,
                build_ns: 3_000_000,
                run_ns: 4_000_000,
                aggregate_ns: 2_000_000,
            },
        };
        let json = report.to_json();
        assert!(json.contains(&format!("\"schema_version\": {PROFILE_SCHEMA_VERSION}")));
        assert!(json.contains("\"kind\": \"phase-profile\""));
        assert!(json.contains("\"bench\": \"packet-storm\""));
        assert!(json.contains("\"mode\": \"quick\""));
        // Phase totals are per pass: 4 ms setup over 2 passes = 2 ms.
        assert!(json.contains("\"setup_ms\": 2.0"), "{json}");
        assert!(json.contains("\"run_ms\": 2.0"), "{json}");
        assert!(json.contains("\"aggregate_ms\": 1.0"), "{json}");
        assert!(json.contains("\"total_ms\": 5.0"), "{json}");
        assert!(json.contains("\"setup_pct\": 40.0"), "{json}");
        let set = ProfileSet {
            entries: vec![report],
        };
        let json = set.to_json();
        assert!(json.contains("\"kind\": \"profile-set\""));
        assert!(json.contains("\"kind\": \"phase-profile\""));
    }

    #[test]
    fn profile_runs_a_quick_bench_and_attributes_every_phase() {
        let opts = ProfileOptions {
            quick: true,
            threads: 1,
        };
        let report = run_profile("packet-storm", &opts).expect("profile run");
        assert_eq!(report.scenarios, 1);
        assert_eq!(report.passes, 1);
        assert!(report.phases.build_ns > 0, "build phase attributed");
        assert!(report.phases.run_ns > 0, "run phase attributed");
        assert!(report.phases.total_ns() > 0);
    }

    #[test]
    fn unknown_bench_is_a_clear_error() {
        let err = run_profile("no-such", &ProfileOptions::default()).unwrap_err();
        assert!(err.contains("unknown perf benchmark"), "{err}");
    }
}
