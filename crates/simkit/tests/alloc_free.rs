//! Steady-state posting and firing of typed events allocates nothing.
//!
//! A counting `#[global_allocator]` (per thread, so parallel tests do not
//! disturb it) wraps the system allocator. A small periodic world warms
//! the engine up — slab, free list and queue heap reach their
//! working sizes — and then a further stretch of the same traffic must
//! make no allocator call at all: events fire from recycled slab slots,
//! and a cancelled event gives its slot back when its queue entry is
//! popped.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use simkit::engine::{Event, EventId, Sim};
use simkit::time::{SimDuration, SimTime};

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

/// Allocator calls made by `f` on this thread.
fn allocations(f: impl FnOnce()) -> u64 {
    CALLS.with(|c| c.set(0));
    COUNTING.with(|on| on.set(true));
    f();
    COUNTING.with(|on| on.set(false));
    CALLS.with(Cell::get)
}

/// A world of `STREAMS` periodic tickers. Each tick re-arms its stream,
/// posts a same-time follow-up, and posts a decoy that the next tick of
/// the stream cancels before it can fire.
const STREAMS: u32 = 12;

/// Stream `s` ticks every 2^(s mod 6) × 4,096 ns (4.1 µs to 131 µs):
/// phased, but periodic, so the number of pending events repeats and the
/// queue heap settles at its working capacity.
fn period(stream: u32) -> SimDuration {
    SimDuration::from_nanos(4_096 << (stream % 6))
}

#[derive(Default)]
struct World {
    fired: u64,
    followups: u64,
    decoys: [Option<EventId>; STREAMS as usize],
}

/// A 64-byte payload keeps the slab honest about moving real events.
enum Ev {
    Tick { stream: u32, _pad: [u64; 6] },
    FollowUp,
    Decoy,
}

impl Event<World> for Ev {
    fn fire(self, sim: &mut Sim<World, Ev>, w: &mut World) {
        match self {
            Ev::Tick { stream, .. } => {
                w.fired += 1;
                let period = period(stream);
                sim.post_in(
                    period,
                    Ev::Tick {
                        stream,
                        _pad: [0; 6],
                    },
                );
                sim.post(sim.now(), Ev::FollowUp);
                let slot = &mut w.decoys[stream as usize];
                if let Some(id) = slot.take() {
                    assert!(sim.cancel(id), "decoy cancelled before it fired");
                }
                *slot = Some(sim.post_in(period + period, Ev::Decoy));
            }
            Ev::FollowUp => w.followups += 1,
            Ev::Decoy => panic!("every decoy is cancelled"),
        }
    }
}

#[test]
fn steady_state_post_fire_and_cancel_allocate_nothing() {
    let mut sim: Sim<World, Ev> = Sim::new();
    let mut world = World::default();
    for stream in 0..STREAMS {
        sim.post(
            SimTime::from_nanos(u64::from(stream) * 1_000),
            Ev::Tick {
                stream,
                _pad: [0; 6],
            },
        );
    }
    // Warm-up: 1.1 s of simulated time, far longer than any stream's
    // period, so the slab, the free list and the queue heap have all reached
    // their working capacities before the measured stretch.
    sim.run_until(&mut world, SimTime::from_millis(1_100));
    let fired = world.fired;
    let calls = allocations(|| {
        sim.run_until(&mut world, SimTime::from_millis(1_300));
    });
    let ran = world.fired - fired;
    assert!(ran > 50_000, "too little traffic to be convincing: {ran}");
    assert_eq!(world.followups, world.fired, "every follow-up fired");
    assert_eq!(calls, 0, "allocator calls over {ran} steady-state ticks");
    // The counter is live: one box is one allocator call.
    assert_eq!(allocations(|| drop(std::hint::black_box(Box::new(ran)))), 1);
    // Per stream: its next tick, its live decoy, and at most one
    // cancelled decoy whose queue entry is not yet due.
    assert!(sim.pending() <= 3 * STREAMS as usize);
}
