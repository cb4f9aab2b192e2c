//! Heap allocations per executed engine event, and the peak heap of a
//! run or of a whole sweep pass, stay under a budget.
//!
//! The cloud posts typed events into the engine's recycled slab, reuses
//! its PGM receive buffers, and refreshes host activity in place, so a
//! warmed-up run allocates far less than once per event. These tests pin
//! that: a thread-local counting `#[global_allocator]` (the pattern of the
//! repo benchmark's `alloc.rs`) counts the allocator calls and the live
//! bytes of one run of a scenario list at one thread, after an untimed
//! warm-up run of the same list. The call count is divided by the engine
//! events the run executed; the live-byte peak is taken as is.
//!
//! Each bound is the measured value plus headroom, so an allocation put
//! back on a per-event path, or a structure that grows with the run,
//! fails here first.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use harness::prelude::*;

struct Counting;

#[derive(Clone, Copy)]
struct State {
    on: bool,
    /// Live bytes relative to the start of the measurement.
    live: i64,
    peak: i64,
    calls: u64,
}

thread_local! {
    // Const-initialised and free of `Drop`: reading it never allocates.
    static STATE: Cell<State> = const {
        Cell::new(State { on: false, live: 0, peak: 0, calls: 0 })
    };
}

fn record(grown: i64, calls: u64) {
    let _ = STATE.try_with(|cell| {
        let mut s = cell.get();
        if s.on {
            s.live += grown;
            s.peak = s.peak.max(s.live);
            s.calls += calls;
            cell.set(s);
        }
    });
}

// SAFETY: every method forwards to `System` unchanged; the bookkeeping
// touches only a thread-local `Cell` and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size() as i64, 1);
        // SAFETY: the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(layout.size() as i64, 1);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        record(-(layout.size() as i64), 0);
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size as i64 - layout.size() as i64, 1);
        // SAFETY: the caller upholds `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

const ONE_THREAD: RunnerOptions = RunnerOptions {
    threads: 1,
    progress: false,
};

/// One call of `f` on this thread, after an untimed warm-up call: its
/// output, its allocator calls and its peak live bytes.
fn measured<T>(f: impl Fn() -> T) -> (T, u64, u64) {
    f();
    STATE.with(|cell| {
        cell.set(State {
            on: true,
            live: 0,
            peak: 0,
            calls: 0,
        })
    });
    let out = f();
    let s = STATE.with(|cell| {
        let s = cell.get();
        cell.set(State { on: false, ..s });
        s
    });
    (out, s.calls, s.peak.max(0) as u64)
}

/// One run of `scenarios` at one thread (the runner then stays on the
/// calling thread, which is the one counted), after a warm-up run.
fn measured_run(scenarios: &[Scenario]) -> (Vec<RunOutcome>, u64, u64) {
    measured(|| run_scenarios(scenarios, &ONE_THREAD))
}

/// Allocator calls per executed event of one warmed-up run.
fn allocs_per_event(scenarios: &[Scenario]) -> f64 {
    let (outcomes, calls, _) = measured_run(scenarios);
    let events: u64 = outcomes
        .iter()
        .map(|o| o.result.as_ref().expect("scenario runs").events_executed)
        .sum();
    assert!(events > 0, "the scenarios executed no events");
    calls as f64 / events as f64
}

fn cache_storm_quick() -> Vec<Scenario> {
    perf_bench("cache-storm")
        .expect("perf bench exists")
        .scenarios(true)
        .expect("bench expands")
}

#[test]
fn cache_storm_quick_bench_stays_under_its_allocation_budget() {
    let scenarios = cache_storm_quick();
    // Measured: 0.177 allocations per event over 63,597 events.
    let ratio = allocs_per_event(&scenarios);
    assert!(
        ratio < 0.25,
        "cache-storm: {ratio:.3} allocations per event"
    );
}

#[test]
fn delta_n_quick_sweep_stays_under_its_allocation_budget() {
    let scenarios = preset("delta-n")
        .expect("preset exists")
        .spec(true)
        .scenarios()
        .expect("preset expands");
    // Measured: 0.593 allocations per event.
    let ratio = allocs_per_event(&scenarios);
    assert!(ratio < 0.70, "delta-n: {ratio:.3} allocations per event");
}

#[test]
fn cache_storm_quick_bench_peak_heap_stays_under_its_budget() {
    // The PGM send histories are the largest structures of a cache-storm
    // run: 128 probe proposals per round, each multicast to every peer,
    // and each replica's sender keeps its last 4,096 proposals (16 bytes
    // each) for retransmission. Next is the engine's event slab (64-byte
    // entries). Measured: 562,460 bytes.
    let (outcomes, _, peak) = measured_run(&cache_storm_quick());
    assert!(outcomes.iter().all(|o| o.result.is_ok()), "scenarios run");
    assert!(peak < 640 << 10, "cache-storm: peak heap {peak} bytes");
}

#[test]
fn defense_shootout_quick_pass_peak_heap_stays_under_its_budget() {
    // One pass as the repository benchmark measures it: expand the
    // sweep, run it at one thread, fold the report and render its JSON.
    // The report's cells share each config shape's resolved listings
    // with the scenario results, and `to_json` streams into the output
    // string without building a tree. Measured: 243,379
    // bytes (441,192 when every result and cell copied its listings and
    // the report rendered through a `Json` tree).
    let spec = preset("defense-shootout")
        .expect("preset exists")
        .spec(true)
        .seed_shards(42, 1);
    let ((report, json), _, peak) = measured(|| {
        let scenarios = spec.scenarios().expect("preset expands");
        let outcomes = run_scenarios(&scenarios, &ONE_THREAD);
        let report = SweepReport::from_outcomes(&spec.name, &outcomes, None);
        let json = report.to_json();
        (report, json)
    });
    assert!(report.failures.is_empty(), "{:?}", report.failures);
    assert!(json.ends_with("}\n"));
    assert!(peak < 320 << 10, "defense-shootout: peak heap {peak} bytes");
}
