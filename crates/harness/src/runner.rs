//! Parallel scenario execution on std threads.
//!
//! The queue is a single atomic cursor over the scenario list: idle
//! workers steal the next unclaimed index, so long scenarios never block
//! short ones behind a static partition, and the pool saturates every
//! core until the list drains. Results land in their scenario's slot, so
//! the output order — and therefore every aggregate built from it — is
//! **independent of thread count and scheduling**: each scenario is an
//! isolated deterministic simulation keyed only by its own spec and seed.

use crate::profile::Phases;
use crate::scenario::{Scenario, ScenarioArena, ScenarioResult};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Runner knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RunnerOptions {
    /// Worker threads; 0 means one per available core. Note the `swbench`
    /// CLI rejects an explicit `--threads 0` (omitting the flag is how
    /// "all cores" is spelled there); this API-level 0 exists so callers
    /// can default without probing the machine themselves.
    pub threads: usize,
    /// Print per-scenario progress lines to stderr.
    pub progress: bool,
}

impl RunnerOptions {
    /// Resolves `threads == 0` to the machine's parallelism.
    pub fn effective_threads(&self) -> usize {
        if self.threads > 0 {
            self.threads
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        }
    }
}

/// One scenario's outcome: its result, or the error message that stopped
/// it. Build errors and panics are captured per scenario — one bad cell
/// cannot take down a sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOutcome {
    /// The scenario's label.
    pub label: String,
    /// Result or error.
    pub result: Result<ScenarioResult, String>,
}

/// Runs every scenario across a work-stealing thread pool and returns the
/// outcomes **in input order**.
pub fn run_scenarios(scenarios: &[Scenario], opts: &RunnerOptions) -> Vec<RunOutcome> {
    run_scenarios_profiled(scenarios, opts).0
}

/// [`run_scenarios`] plus the pass's phase-timer totals: each worker
/// accumulates the per-scenario setup/run/aggregate wall split locally
/// and the sums are folded once at scope exit, so the profile costs two
/// monotonic clock reads per phase and no shared-state traffic on the
/// hot path. The outcomes are byte-for-byte those of [`run_scenarios`] —
/// timings live outside [`RunOutcome`], so determinism comparisons never
/// see them.
pub fn run_scenarios_profiled(
    scenarios: &[Scenario],
    opts: &RunnerOptions,
) -> (Vec<RunOutcome>, Phases) {
    let threads = opts.effective_threads().min(scenarios.len()).max(1);
    let total = scenarios.len();
    let done = AtomicUsize::new(0);
    // One scenario, start to outcome. `phases` is plain counters and the
    // arena only ever gains complete entries: a panicking scenario at
    // worst leaves its own partial timings behind, which is the honest
    // attribution anyway.
    let run_one = |idx: usize, arena: &mut ScenarioArena, phases: &mut Phases| {
        let scenario = &scenarios[idx];
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            scenario.run_phased_in(arena, phases)
        }))
        .unwrap_or_else(|panic| Err(panic_message(panic)));
        let finished = done.fetch_add(1, Ordering::Relaxed) + 1;
        if opts.progress {
            let status = match &result {
                Ok(r) if r.clients_done => "ok",
                Ok(_) => "timeout",
                Err(_) => "ERROR",
            };
            eprintln!("[{finished}/{total}] {} {status}", scenario.label);
        }
        RunOutcome {
            label: scenario.label.clone(),
            result,
        }
    };
    if threads == 1 {
        // One worker claims every index in order anyway, so skip the
        // scope/Mutex machinery: no thread spawn, no per-slot locks. The
        // outcomes are identical by construction — output order is input
        // order in both paths.
        let mut phases = Phases::default();
        let mut arena = ScenarioArena::new();
        let outcomes = (0..total)
            .map(|idx| run_one(idx, &mut arena, &mut phases))
            .collect();
        return (outcomes, phases);
    }
    let cursor = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<RunOutcome>>> =
        scenarios.iter().map(|_| Mutex::new(None)).collect();
    let totals = Mutex::new(Phases::default());

    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                let mut local = Phases::default();
                let mut arena = ScenarioArena::new();
                loop {
                    let idx = cursor.fetch_add(1, Ordering::Relaxed);
                    if idx >= total {
                        break;
                    }
                    let outcome = run_one(idx, &mut arena, &mut local);
                    *slots[idx].lock().expect("result slot") = Some(outcome);
                }
                totals.lock().expect("phase totals").add(&local);
            });
        }
    });

    let outcomes = slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot")
                .expect("every index claimed exactly once")
        })
        .collect();
    (outcomes, totals.into_inner().expect("phase totals"))
}

fn panic_message(panic: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        format!("scenario panicked: {s}")
    } else if let Some(s) = panic.downcast_ref::<String>() {
        format!("scenario panicked: {s}")
    } else {
        "scenario panicked".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::SweepSpec;
    use simkit::time::SimDuration;

    fn tiny_sweep() -> Vec<Scenario> {
        let mut spec = SweepSpec::new("t", "idle").seed_shards(5, 6);
        spec.duration = SimDuration::from_millis(50);
        spec.drain = SimDuration::ZERO;
        spec.scenarios().unwrap()
    }

    #[test]
    fn outcomes_keep_input_order_at_any_thread_count() {
        let scenarios = tiny_sweep();
        let one = run_scenarios(
            &scenarios,
            &RunnerOptions {
                threads: 1,
                progress: false,
            },
        );
        let four = run_scenarios(
            &scenarios,
            &RunnerOptions {
                threads: 4,
                progress: false,
            },
        );
        assert_eq!(one.len(), scenarios.len());
        assert_eq!(one, four, "thread count must not change outcomes");
        for (outcome, scenario) in one.iter().zip(&scenarios) {
            assert_eq!(outcome.label, scenario.label);
            assert!(outcome.result.is_ok());
        }
    }

    #[test]
    fn errors_are_captured_not_fatal() {
        let mut scenarios = tiny_sweep();
        scenarios[2].workload = "no-such-workload".to_string();
        let out = run_scenarios(
            &scenarios,
            &RunnerOptions {
                threads: 3,
                progress: false,
            },
        );
        assert!(out[2].result.is_err());
        assert!(out
            .iter()
            .enumerate()
            .all(|(i, o)| i == 2 || o.result.is_ok()));
    }

    #[test]
    fn more_threads_than_work_is_fine() {
        let scenarios = tiny_sweep();
        let out = run_scenarios(
            &scenarios,
            &RunnerOptions {
                threads: 64,
                progress: false,
            },
        );
        assert_eq!(out.len(), scenarios.len());
    }
}
