//! Property tests: the engine's run loop (one binary-heap queue of slab
//! slots, with cancellation kept in the event slab) executes events in
//! exactly the order of a model binary heap.
//!
//! The model below is the textbook one-pop-per-event loop: a `BinaryHeap`
//! keyed on `(at, seq)` plus a cancel set. Every schedule is replayed into
//! both, and the logs must match element for element. The schedules are
//! biased toward the cases where the engine's slab bookkeeping could
//! diverge from the model's total order:
//!
//! * dense same-timestamp bursts;
//! * timestamps from nanoseconds to minutes ahead, with reused slab slots
//!   in between;
//! * cancellations, whose queue entries must still advance time
//!   identically, including children cancelled by the handler that
//!   scheduled them, and stale ids of events that already ran;
//! * handlers that schedule children at `now` and in the near future
//!   while the loop is draining;
//! * `step(n)` stopping among events that share a timestamp, with new
//!   work scheduled before the run resumes.
//!
//! Each observation is `(now at execution, tag)`.

use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap};

use proptest::prelude::*;
use simkit::prelude::*;

#[derive(Default)]
struct World {
    log: Vec<(u64, u32)>,
}

/// What an event does when it runs, after logging `(now, tag)`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Act {
    Log,
    /// Schedules a child at `now`: it runs after every event already due
    /// then.
    SameTimeChild,
    /// Schedules a child this many ns later.
    NearChild(u64),
    /// Schedules a child this many ns later (0 = at `now`) and cancels it.
    CancelledChild(u64),
}

/// The oracle: one heap pop per event, tombstones dropped on pop.
#[derive(Default)]
struct Model {
    now: u64,
    next_seq: u64,
    heap: BinaryHeap<Reverse<(u64, u64, u32, Act)>>,
    cancelled: BTreeSet<u64>,
    log: Vec<(u64, u32)>,
}

impl Model {
    fn schedule(&mut self, at: u64, tag: u32, act: Act) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse((at.max(self.now), seq, tag, act)));
        seq
    }

    /// Runs at most `n` non-cancelled events, like `Sim::step`.
    fn step(&mut self, n: u64) {
        let mut ran = 0;
        while ran < n {
            let Some(Reverse((at, seq, tag, act))) = self.heap.pop() else {
                break;
            };
            self.now = at;
            if self.cancelled.remove(&seq) {
                continue;
            }
            ran += 1;
            self.log.push((at, tag));
            match act {
                Act::Log => {}
                Act::SameTimeChild => {
                    self.schedule(at, tag + 1_000_000, Act::Log);
                }
                Act::NearChild(d) => {
                    self.schedule(at + d, tag + 2_000_000, Act::Log);
                }
                Act::CancelledChild(d) => {
                    let seq = self.schedule(at + d, tag + 3_000_000, Act::Log);
                    self.cancelled.insert(seq);
                }
            }
        }
    }
}

/// The engine handler that performs `act`.
fn handler(tag: u32, act: Act) -> impl FnOnce(&mut Sim<World>, &mut World) {
    move |sim, w| {
        let now = sim.now();
        w.log.push((now.as_nanos(), tag));
        match act {
            Act::Log => {}
            Act::SameTimeChild => {
                sim.schedule(now, handler(tag + 1_000_000, Act::Log));
            }
            Act::NearChild(d) => {
                sim.schedule_in(
                    SimDuration::from_nanos(d),
                    handler(tag + 2_000_000, Act::Log),
                );
            }
            Act::CancelledChild(d) => {
                let id = sim.schedule_in(
                    SimDuration::from_nanos(d),
                    handler(tag + 3_000_000, Act::Log),
                );
                sim.cancel(id);
            }
        }
    }
}

/// Maps one raw draw to a timestamp: hot, near, mid and far future.
fn time_for(sel: u64) -> u64 {
    match sel % 4 {
        // A handful of hot timestamps a few ns apart: same-timestamp
        // bursts plus neighbouring-timestamp ordering.
        0 => 4096 + (sel >> 2) % 3,
        // Near future: up to 65 µs.
        1 => (sel >> 2) % (1 << 16),
        // Mid future: up to 17 ms.
        2 => (sel >> 2) % (1 << 24),
        // Far future: 69 s and beyond.
        _ => (1 << 36) + (sel >> 2) % (1 << 38),
    }
}

/// The engine and the model, fed the same schedule.
#[derive(Default)]
struct Pair {
    sim: Sim<World>,
    world: World,
    model: Model,
    ids: Vec<(EventId, u64)>,
}

impl Pair {
    /// Applies one (sel, kind) op to both: cancel an earlier event, or
    /// schedule one that logs and possibly spawns a child.
    fn apply(&mut self, tag: u32, sel: u64, kind: u64) {
        let delta = 1 + sel % 5_000;
        let act = match kind % 8 {
            0 if !self.ids.is_empty() => {
                let (id, seq) = self.ids[(sel as usize) % self.ids.len()];
                self.sim.cancel(id);
                self.model.cancelled.insert(seq);
                return;
            }
            1 => Act::SameTimeChild,
            2 => Act::NearChild(delta),
            3 => Act::CancelledChild(if sel & 1 == 0 { 0 } else { delta }),
            _ => Act::Log,
        };
        let at = time_for(sel);
        let id = self
            .sim
            .schedule(SimTime::from_nanos(at), handler(tag, act));
        let seq = self.model.schedule(at, tag, act);
        self.ids.push((id, seq));
    }

    fn step(&mut self, n: u64) {
        let ran = self.sim.step(&mut self.world, n);
        let before = self.model.log.len();
        self.model.step(n);
        assert_eq!(
            ran as usize,
            self.model.log.len() - before,
            "step({n}) count"
        );
    }

    /// Runs both to completion and returns the engine's log once it has
    /// been matched against the model's.
    fn finish(mut self) -> Vec<(u64, u32)> {
        self.sim.run(&mut self.world);
        self.model.step(u64::MAX);
        assert_eq!(self.world.log, self.model.log, "execution order");
        assert_eq!(self.sim.now().as_nanos(), self.model.now, "final time");
        assert_eq!(self.sim.pending(), 0, "run() drains everything");
        assert_eq!(self.sim.events_executed(), self.world.log.len() as u64);
        self.world.log
    }
}

/// Replays `ops`, calling `step(n)` on both after each op whose third
/// field asks for it (`steps % 4 == 0`, `n = (steps >> 2) % 8`).
fn run_interrupted(ops: &[(u64, u64, u64)]) -> Vec<(u64, u32)> {
    let mut pair = Pair::default();
    for (i, &(sel, kind, steps)) in ops.iter().enumerate() {
        pair.apply(i as u32, sel, kind);
        if steps % 4 == 0 {
            pair.step((steps >> 2) % 8);
        }
    }
    pair.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn wheel_and_scalar_heap_execute_identical_orders(
        ops in prop::collection::vec((0u64..=u64::MAX, 0u64..=u64::MAX), 1..120),
    ) {
        let mut pair = Pair::default();
        for (i, &(sel, kind)) in ops.iter().enumerate() {
            pair.apply(i as u32, sel, kind);
        }
        pair.finish();
    }

    #[test]
    fn step_interruptions_match_the_model_heap(
        ops in prop::collection::vec(
            (0u64..=u64::MAX, 0u64..=u64::MAX, 0u64..=u64::MAX),
            1..80,
        ),
    ) {
        run_interrupted(&ops);
    }
}

/// One fixed, dense trace: 400 ops from a linear congruential generator,
/// with a step interruption after about every fourth op.
#[test]
fn torture_trace_matches_the_model_heap() {
    let mut state = 0x5eed_u64;
    let mut next = || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state
    };
    let ops: Vec<(u64, u64, u64)> = (0..400).map(|_| (next(), next(), next())).collect();
    let log = run_interrupted(&ops);
    assert!(log.len() > 300, "trace too small to be convincing");
}
