//! A counting global allocator for the `peak_heap_mb` and
//! `simkit.allocs_per_event` metrics.
//!
//! Counting is per thread and off by default: [`measure`] switches it on
//! for the calling thread only, so timed passes, and other threads such as
//! parallel tests, pay one thread-local read per allocation and are never
//! counted. Passes run their scenarios on the calling thread (the runner
//! at one worker does not spawn), so one thread sees all of a pass's heap
//! traffic.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator plus per-thread live-byte, peak and call counts.
pub struct Counting;

#[derive(Clone, Copy)]
struct State {
    on: bool,
    live: i64,
    peak: i64,
    allocations: u64,
}

thread_local! {
    // Const-initialised and free of `Drop`, so reading it never allocates
    // and stays valid during thread teardown.
    static STATE: Cell<State> = const {
        Cell::new(State { on: false, live: 0, peak: 0, allocations: 0 })
    };
}

fn record(grown: i64, calls: u64) {
    let _ = STATE.try_with(|cell| {
        let mut s = cell.get();
        if s.on {
            s.live += grown;
            s.peak = s.peak.max(s.live);
            s.allocations += calls;
            cell.set(s);
        }
    });
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System` upholds the `GlobalAlloc` contract; the
// bookkeeping touches only a thread-local `Cell` and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller guarantees `layout` is valid with non-zero size.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            record(layout.size() as i64, 1);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            record(layout.size() as i64, 1);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller guarantees `ptr` came from this allocator,
        // i.e. from `System`, with this `layout`.
        unsafe { System.dealloc(ptr, layout) };
        record(-(layout.size() as i64), 0);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller guarantees `ptr`/`layout` describe a live
        // `System` block and `new_size` is valid for its alignment.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            record(new_size as i64 - layout.size() as i64, 1);
        }
        p
    }
}

/// Heap traffic of one measured closure on the calling thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeapUsage {
    /// Highest live-byte count reached, relative to the start (blocks
    /// freed during the closure that predate it count negative).
    pub peak_bytes: u64,
    /// `alloc`, `alloc_zeroed` and `realloc` calls.
    pub allocations: u64,
}

/// Runs `f` with counting on for the calling thread.
pub fn measure<T>(f: impl FnOnce() -> T) -> (T, HeapUsage) {
    let fresh = State {
        on: true,
        live: 0,
        peak: 0,
        allocations: 0,
    };
    STATE.with(|cell| cell.set(fresh));
    let out = f();
    let s = STATE.with(|cell| {
        let s = cell.get();
        cell.set(State { on: false, ..s });
        s
    });
    let usage = HeapUsage {
        peak_bytes: s.peak.max(0) as u64,
        allocations: s.allocations,
    };
    (out, usage)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_only_inside_measure_and_on_this_thread() {
        let (v, usage) = measure(|| {
            let v: Vec<u8> = Vec::with_capacity(1 << 20);
            let other = std::thread::spawn(|| vec![0u8; 1 << 22]);
            other.join().expect("helper thread").len() + v.capacity()
        });
        assert_eq!(v, (1 << 22) + (1 << 20));
        assert!(usage.peak_bytes >= 1 << 20, "{usage:?}");
        assert!(
            usage.peak_bytes < 1 << 22,
            "other thread not counted: {usage:?}"
        );
        assert!(usage.allocations >= 1);
        let _outside = vec![0u8; 1 << 20];
        let (_, idle) = measure(|| ());
        assert_eq!(idle.allocations, 0);
    }
}
