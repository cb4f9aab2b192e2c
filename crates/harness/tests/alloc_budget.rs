//! Heap allocations per executed engine event stay under a budget.
//!
//! The cloud posts typed events into the engine's recycled slab, reuses
//! its PGM receive buffers, and refreshes host activity in place, so a
//! warmed-up run allocates far less than once per event. These tests pin
//! that: a thread-local counting `#[global_allocator]` (the pattern of the
//! repo benchmark's `alloc.rs`) counts the allocator calls of one run of a
//! scenario list at one thread, after an untimed warm-up run of the same
//! list, and divides by the engine events the run executed.
//!
//! Each bound is the measured ratio plus headroom, so an allocation put
//! back on a per-event path fails here first.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use harness::prelude::*;

struct Counting;

thread_local! {
    // Const-initialised and free of `Drop`: reading it never allocates.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static CALLS: Cell<u64> = const { Cell::new(0) };
}

fn record() {
    let _ = COUNTING.try_with(|on| {
        if on.get() {
            CALLS.with(|c| c.set(c.get() + 1));
        }
    });
}

// SAFETY: every method forwards to `System` unchanged; the bookkeeping
// touches only thread-local `Cell`s and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record();
        // SAFETY: the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record();
        // SAFETY: the caller upholds `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Allocator calls per executed event of one run of `scenarios` at one
/// thread (the runner then stays on the calling thread, which is the one
/// counted), after a warm-up run.
fn allocs_per_event(scenarios: &[Scenario]) -> f64 {
    let opts = RunnerOptions {
        threads: 1,
        progress: false,
    };
    run_scenarios(scenarios, &opts);
    CALLS.with(|c| c.set(0));
    COUNTING.with(|on| on.set(true));
    let outcomes = run_scenarios(scenarios, &opts);
    COUNTING.with(|on| on.set(false));
    let calls = CALLS.with(Cell::get);
    let events: u64 = outcomes
        .iter()
        .map(|o| o.result.as_ref().expect("scenario runs").events_executed)
        .sum();
    assert!(events > 0, "the scenarios executed no events");
    calls as f64 / events as f64
}

#[test]
fn cache_storm_quick_bench_stays_under_its_allocation_budget() {
    let scenarios = perf_bench("cache-storm")
        .expect("perf bench exists")
        .scenarios(true)
        .expect("bench expands");
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
