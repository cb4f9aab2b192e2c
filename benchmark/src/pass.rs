//! One pass: a complete user-visible sweep of one workload — spec
//! expansion, the scenarios on one worker, report aggregation and JSON
//! rendering — timed from outside the program.

use crate::trace::Trace;
use crate::workloads::Workload;
use harness::aggregate::SweepReport;
use harness::profile::Phases;
use harness::runner::{run_scenarios_profiled, RunOutcome, RunnerOptions};
use harness::scenario::ScenarioArena;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// What one pass produced and how long it took.
pub struct Pass {
    /// Wall time of the whole pass.
    pub wall_ns: u64,
    /// Time before any event executed: expansion + Σ resolve + Σ build.
    pub setup_ns: u64,
    /// Scenarios the pass ran.
    pub scenarios: u64,
    /// Scenarios that errored or timed out.
    pub failed: u64,
    /// The aggregated report.
    pub report: SweepReport,
    /// The report's JSON bytes, the pass's user-visible output.
    pub json: String,
}

impl Pass {
    fn new(wall_ns: u64, setup_ns: u64, report: SweepReport, json: String) -> Pass {
        let timeouts: u64 = report.cells.iter().map(|c| c.timeouts).sum();
        Pass {
            wall_ns,
            setup_ns,
            scenarios: report.scenarios,
            failed: report.failures.len() as u64 + timeouts,
            report,
            json,
        }
    }
}

fn ns(d: Duration) -> u64 {
    d.as_nanos() as u64
}

/// Runs one untraced pass through the harness's own runner.
///
/// # Errors
///
/// A sweep spec that does not expand.
pub fn run_pass(workload: &Workload, seed: u64, quick: bool) -> Result<Pass, String> {
    let start = Instant::now();
    let spec = workload.spec(seed, quick);
    let scenarios = spec.scenarios()?;
    let expand_ns = ns(start.elapsed());
    let runner = RunnerOptions {
        threads: 1,
        progress: false,
    };
    let (outcomes, phases) = run_scenarios_profiled(&scenarios, &runner);
    let report = SweepReport::from_outcomes(&spec.name, &outcomes, None);
    let json = report.to_json();
    let wall_ns = ns(start.elapsed());
    Ok(Pass::new(
        wall_ns,
        expand_ns + phases.setup_ns(),
        report,
        json,
    ))
}

/// Runs one pass with a span around every call into the harness. The
/// scenario loop is the runner's one-worker loop, written out here so
/// each scenario gets its own span and phase laps.
///
/// # Errors
///
/// A sweep spec that does not expand.
pub fn run_traced_pass(
    workload: &Workload,
    seed: u64,
    quick: bool,
    trace: &mut Trace,
    pass: u64,
) -> Result<Pass, String> {
    let t0 = Instant::now();
    let spec = workload.spec(seed, quick);
    let scenarios = spec.scenarios()?;
    let t1 = Instant::now();
    let mut arena = ScenarioArena::new();
    let mut laps = Vec::with_capacity(scenarios.len());
    let mut outcomes = Vec::with_capacity(scenarios.len());
    for scenario in &scenarios {
        let mut phases = Phases::default();
        let begin = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(|| {
            scenario.run_phased_in(&mut arena, &mut phases)
        }))
        .unwrap_or_else(|_| Err("scenario panicked".to_string()));
        laps.push((begin, Instant::now(), phases));
        outcomes.push(RunOutcome {
            label: scenario.label.clone(),
            result,
        });
    }
    let t2 = Instant::now();
    let report = SweepReport::from_outcomes(&spec.name, &outcomes, None);
    let t3 = Instant::now();
    let json = report.to_json();
    let t4 = Instant::now();

    let at = (workload.name, pass);
    let root = trace.push(None, "harness.pass", at, t0, t4);
    trace.push(Some(root), "harness.expand", at, t0, t1);
    let mut setup_ns = ns(t1 - t0);
    for (begin, end, phases) in laps {
        let scenario = trace.push(Some(root), "harness.scenario", at, begin, end);
        let mut mark = begin;
        for (name, lap_ns) in [
            ("harness.resolve", phases.resolve_ns),
            ("harness.build", phases.build_ns),
            ("harness.run", phases.run_ns),
            ("harness.collect", phases.aggregate_ns),
        ] {
            let next = mark + Duration::from_nanos(lap_ns);
            trace.push(Some(scenario), name, at, mark, next);
            mark = next;
        }
        setup_ns += phases.setup_ns();
    }
    trace.push(Some(root), "harness.report", at, t2, t3);
    trace.push(Some(root), "harness.json", at, t3, t4);
    Ok(Pass::new(ns(t4 - t0), setup_ns, report, json))
}
