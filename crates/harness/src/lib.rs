//! # harness — parallel scenario-sweep orchestration
//!
//! The StopWatch paper's claims are parameter sweeps: overhead and leakage
//! as functions of Δn/Δd padding, replica count, host jitter, and workload
//! mix. This crate turns the reproduction's one-cloud-at-a-time simulator
//! into a sweep engine that saturates every core:
//!
//! * [`scenario`] — a declarative [`Scenario`](scenario::Scenario): one
//!   isolated, deterministic cloud run (workload, config overrides,
//!   seed, duration), its VM replicated on hosts `0..replicas`;
//! * [`sweep`] — [`SweepSpec`](sweep::SweepSpec): cartesian axis grids ×
//!   seed shards expanding to a flat scenario list, validated against the
//!   typed knob/parameter schemas (`CloudConfig::knobs`,
//!   `Workload::params`) before anything runs;
//! * [`runner`] — a work-stealing std-thread pool whose output is
//!   independent of thread count;
//! * [`aggregate`] — per-cell percentile summaries, KS/χ² leakage
//!   verdicts via [`timestats`], and deterministic JSON reports;
//! * [`presets`] — named paper-figure sweeps for the `swbench` binary;
//! * [`perf`] — the storm benches: fixed scenario lists that stress one
//!   hot path each, pinned by golden digests (timing lives in the
//!   repository benchmark, `benchmark/`);
//! * [`profile`] — [`Phases`](profile::Phases), the per-scenario
//!   resolve/build/run/aggregate wall-time split the runner folds;
//! * [`json`] — the dependency-free deterministic JSON writer.
//!
//! # Examples
//!
//! A 4-scenario Δn sweep on two threads, aggregated to JSON:
//!
//! ```
//! use harness::prelude::*;
//!
//! let mut spec = SweepSpec::new("demo", "web-http")
//!     .axis("cfg.delta_n_ms", &[2u64, 10])
//!     .seed_shards(1, 2);
//! spec.base_params = vec![
//!     ("bytes".into(), "20000".into()),
//!     ("downloads".into(), "1".into()),
//! ];
//! spec.base_overrides = vec![("broadcast_band".into(), "off".into())];
//!
//! let scenarios = spec.scenarios().unwrap();
//! assert_eq!(scenarios.len(), 4);
//! let outcomes = run_scenarios(&scenarios, &RunnerOptions { threads: 2, progress: false });
//! let report = SweepReport::from_outcomes(&spec.name, &outcomes, None);
//! assert_eq!(report.cells.len(), 2);
//! assert!(report.to_json().contains("\"sweep\": \"demo\""));
//! ```

pub mod aggregate;
pub mod json;
pub mod perf;
pub mod presets;
pub mod profile;
pub mod runner;
pub mod scenario;
pub mod sweep;

/// One-line import for the common types.
pub mod prelude {
    pub use crate::aggregate::{CellAggregate, LeakageVerdict, SweepReport, REPORT_SCHEMA_VERSION};
    pub use crate::json::Json;
    pub use crate::perf::{perf_bench, PERF_BENCHES};
    pub use crate::presets::{preset, PRESETS};
    pub use crate::profile::Phases;
    pub use crate::runner::{run_scenarios, run_scenarios_profiled, RunOutcome, RunnerOptions};
    pub use crate::scenario::{Scenario, ScenarioArena, ScenarioResult};
    pub use crate::sweep::{Axis, SweepSpec};
}
