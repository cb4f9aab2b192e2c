//! The discrete-event simulation engine.
//!
//! [`Sim<W, E>`] owns a queue of scheduled events of type `E`. Each event
//! fires once, receiving the engine (to schedule more events) and the user
//! world `W` — see [`Event`]. Ties at equal timestamps are broken by
//! scheduling order, making every run fully deterministic — a property the
//! StopWatch reproduction leans on heavily (replica determinism is part of
//! the defense itself).
//!
//! # Typed events in a slab
//!
//! A world with a fixed set of event kinds names them in one enum and
//! implements [`Event`] for it with a single `match`; posting such an
//! event ([`Sim::post`]) moves it into a **slab** of recycled slots, so a
//! steady-state run allocates nothing per event. The default event type,
//! [`Closure`], boxes an arbitrary `FnOnce` ([`Sim::schedule`]) — one
//! allocation per event, convenient for tests, examples and one-off
//! drivers.
//!
//! The queue never holds events themselves: its entries are `(at, seq,
//! slot)` triples pointing into the slab, so a sift moves a few words
//! however large the event type is. Each slab slot also records the `seq`
//! of the event posted into it, which is what an [`EventId`] names:
//! [`Sim::cancel`] takes the event out of its slot only while that `seq`
//! still matches. A slot returns to the free list when its queue entry is
//! popped, whether its event then fires or was cancelled.
//!
//! # One binary heap
//!
//! The queue is a `std` binary heap of `(at, seq, slot)` keys, and the
//! run loop pops one entry per event, so events execute in global `(at,
//! seq)` order — past times clamped to `now` included. A cloud run keeps
//! the heap shallow (tens to hundreds of pending events), where a
//! log-depth sift is a handful of comparisons on one small allocation.
//! The engine's property tests (`tests/engine_wheel.rs`) check the order
//! against a model heap.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::time::{SimDuration, SimTime};

/// Identifier of a scheduled event, usable for cancellation: the event's
/// scheduling sequence number and the slab slot it was posted into.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EventId {
    seq: u64,
    slot: Slot,
}

/// An event the engine can fire: consumed once, at its scheduled time.
pub trait Event<W>: Sized {
    /// Runs the event at `sim.now()`.
    fn fire(self, sim: &mut Sim<W, Self>, world: &mut W);
}

type Handler<W> = Box<dyn FnOnce(&mut Sim<W>, &mut W)>;

/// The default event type: a boxed closure (see [`Sim::schedule`]).
pub struct Closure<W>(Handler<W>);

impl<W> Event<W> for Closure<W> {
    fn fire(self, sim: &mut Sim<W>, world: &mut W) {
        (self.0)(sim, world)
    }
}

/// Index of an event's slab slot.
type Slot = u32;

/// A slab slot: the `seq` of the event last posted into it, and that
/// event until it fires or is cancelled.
struct Entry<E> {
    seq: u64,
    event: Option<E>,
}

/// A deterministic discrete-event simulation executor.
///
/// # Examples
///
/// ```
/// use simkit::engine::Sim;
/// use simkit::time::{SimDuration, SimTime};
///
/// let mut sim: Sim<Vec<u64>> = Sim::new();
/// let mut world = Vec::new();
/// sim.schedule_in(SimDuration::from_millis(2), |_, w: &mut Vec<u64>| w.push(2));
/// sim.schedule_in(SimDuration::from_millis(1), |sim, w: &mut Vec<u64>| {
///     w.push(1);
///     sim.schedule_in(SimDuration::from_millis(5), |_, w: &mut Vec<u64>| w.push(6));
/// });
/// sim.run(&mut world);
/// assert_eq!(world, vec![1, 2, 6]);
/// assert_eq!(sim.now(), SimTime::from_millis(6));
/// ```
///
/// A typed event enum instead of closures:
///
/// ```
/// use simkit::engine::{Event, Sim};
/// use simkit::time::{SimDuration, SimTime};
///
/// enum Tick {
///     Count(u32),
/// }
/// impl Event<Vec<u32>> for Tick {
///     fn fire(self, sim: &mut Sim<Vec<u32>, Tick>, w: &mut Vec<u32>) {
///         let Tick::Count(n) = self;
///         w.push(n);
///         if n < 3 {
///             sim.post_in(SimDuration::from_millis(1), Tick::Count(n + 1));
///         }
///     }
/// }
/// let mut sim: Sim<Vec<u32>, Tick> = Sim::new();
/// let mut world = Vec::new();
/// sim.post(SimTime::ZERO, Tick::Count(1));
/// sim.run(&mut world);
/// assert_eq!(world, vec![1, 2, 3]);
/// assert_eq!(sim.now(), SimTime::from_millis(2));
/// ```
pub struct Sim<W, E = Closure<W>> {
    now: SimTime,
    next_seq: u64,
    /// Pending events: a min-heap of `(at nanos, seq, slot)`.
    queue: BinaryHeap<Reverse<(u64, u64, Slot)>>,
    /// The events themselves. A slot whose event fired or was cancelled
    /// holds `None`; it joins `free` once its queue entry is popped.
    slab: Vec<Entry<E>>,
    /// Free slab slots, reused before the slab grows.
    free: Vec<Slot>,
    executed: u64,
    /// `W` appears only through the events' `Event<W>` bound.
    _world: std::marker::PhantomData<fn(&mut W)>,
}

impl<W, E: Event<W>> Default for Sim<W, E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<W> Sim<W> {
    /// Schedules `handler` to run at absolute time `at` (see
    /// [`Sim::post`]). Each call boxes the closure.
    pub fn schedule(
        &mut self,
        at: SimTime,
        handler: impl FnOnce(&mut Sim<W>, &mut W) + 'static,
    ) -> EventId {
        self.post(at, Closure(Box::new(handler)))
    }

    /// Schedules `handler` to run `delay` after the current time.
    pub fn schedule_in(
        &mut self,
        delay: SimDuration,
        handler: impl FnOnce(&mut Sim<W>, &mut W) + 'static,
    ) -> EventId {
        self.schedule(self.now + delay, handler)
    }
}

impl<W, E: Event<W>> Sim<W, E> {
    /// Creates an empty engine at time zero.
    pub fn new() -> Self {
        Sim {
            now: SimTime::ZERO,
            next_seq: 0,
            queue: BinaryHeap::new(),
            slab: Vec::new(),
            free: Vec::new(),
            executed: 0,
            _world: std::marker::PhantomData,
        }
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events executed so far.
    pub fn events_executed(&self) -> u64 {
        self.executed
    }

    /// Number of events still pending (including cancelled ones whose
    /// time has not yet come).
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Posts `event` to fire at absolute time `at`.
    ///
    /// Events posted for a time earlier than `now` fire "immediately" (at
    /// `now`): the engine never moves time backwards.
    pub fn post(&mut self, at: SimTime, event: E) -> EventId {
        let at = at.max(self.now);
        let seq = self.next_seq;
        self.next_seq += 1;
        let entry = Entry {
            seq,
            event: Some(event),
        };
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot as usize] = entry;
                slot
            }
            None => {
                self.slab.push(entry);
                Slot::try_from(self.slab.len() - 1).expect("fewer than 2^32 pending events")
            }
        };
        self.queue.push(Reverse((at.as_nanos(), seq, slot)));
        EventId { seq, slot }
    }

    /// Posts `event` to fire `delay` after the current time.
    pub fn post_in(&mut self, delay: SimDuration, event: E) -> EventId {
        self.post(self.now + delay, event)
    }

    /// Cancels a previously scheduled event.
    ///
    /// Returns `true` if the event had not yet run (it is dropped now;
    /// its slot is freed when its time comes). Cancelling an
    /// already-executed or already-cancelled event returns `false`.
    pub fn cancel(&mut self, id: EventId) -> bool {
        match self.slab.get_mut(id.slot as usize) {
            Some(entry) if entry.seq == id.seq => entry.event.take().is_some(),
            _ => false,
        }
    }

    /// Runs events until the queue is empty; returns the final time.
    pub fn run(&mut self, world: &mut W) -> SimTime {
        self.run_until(world, SimTime::MAX)
    }

    /// Runs events with timestamps `<= deadline`; time stops at the deadline
    /// (or at the last event, whichever is earlier). Returns the final time.
    pub fn run_until(&mut self, world: &mut W, deadline: SimTime) -> SimTime {
        while let Some(event) = self.pop_due(deadline) {
            self.executed += 1;
            event.fire(self, world);
        }
        if !self.queue.is_empty() {
            self.now = deadline;
        }
        self.now
    }

    /// Runs at most `n` (non-cancelled) events; returns how many ran.
    pub fn step(&mut self, world: &mut W, n: u64) -> u64 {
        let mut ran = 0;
        while ran < n {
            let Some(event) = self.pop_due(SimTime::MAX) else {
                break;
            };
            self.executed += 1;
            ran += 1;
            event.fire(self, world);
        }
        ran
    }

    /// Pops queue entries due by `deadline`, advancing `now` to each, until
    /// one holds a live event; the slots of cancelled ones are freed on the
    /// way. `None` once the queue is empty or its head lies past
    /// `deadline`.
    fn pop_due(&mut self, deadline: SimTime) -> Option<E> {
        while let Some(&Reverse((at, _, slot))) = self.queue.peek() {
            let at = SimTime::from_nanos(at);
            if at > deadline {
                return None;
            }
            self.queue.pop();
            debug_assert!(at >= self.now, "event queue went backwards");
            self.now = at;
            let event = self.slab[slot as usize].event.take();
            self.free.push(slot);
            if event.is_some() {
                return event;
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_in_time_order() {
        let mut sim: Sim<Vec<u32>> = Sim::new();
        let mut w = Vec::new();
        sim.schedule(SimTime::from_millis(30), |_, w: &mut Vec<u32>| w.push(3));
        sim.schedule(SimTime::from_millis(10), |_, w: &mut Vec<u32>| w.push(1));
        sim.schedule(SimTime::from_millis(20), |_, w: &mut Vec<u32>| w.push(2));
        sim.run(&mut w);
        assert_eq!(w, vec![1, 2, 3]);
    }

    #[test]
    fn equal_times_run_fifo() {
        let mut sim: Sim<Vec<u32>> = Sim::new();
        let mut w = Vec::new();
        let t = SimTime::from_millis(5);
        for i in 0..100 {
            sim.schedule(t, move |_, w: &mut Vec<u32>| w.push(i));
        }
        sim.run(&mut w);
        assert_eq!(w, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn nested_scheduling() {
        let mut sim: Sim<Vec<&'static str>> = Sim::new();
        let mut w = Vec::new();
        sim.schedule_in(SimDuration::from_millis(1), |sim, w: &mut Vec<_>| {
            w.push("outer");
            sim.schedule_in(SimDuration::from_millis(1), |_, w: &mut Vec<_>| {
                w.push("inner");
            });
        });
        sim.schedule_in(SimDuration::from_millis(3), |_, w: &mut Vec<_>| {
            w.push("late");
        });
        sim.run(&mut w);
        assert_eq!(w, vec!["outer", "inner", "late"]);
        assert_eq!(sim.now(), SimTime::from_millis(3));
    }

    #[test]
    fn cancel_prevents_execution() {
        let mut sim: Sim<Vec<u32>> = Sim::new();
        let mut w = Vec::new();
        let id = sim.schedule(SimTime::from_millis(1), |_, w: &mut Vec<u32>| w.push(1));
        sim.schedule(SimTime::from_millis(2), |_, w: &mut Vec<u32>| w.push(2));
        assert!(sim.cancel(id));
        assert!(!sim.cancel(id), "double-cancel reports false");
        sim.run(&mut w);
        assert_eq!(w, vec![2]);
        assert_eq!(sim.events_executed(), 1);
    }

    #[test]
    fn cancel_works_on_staged_same_time_events() {
        // An event posted at `now`, due before anything else can run,
        // must still honour cancellation.
        let mut sim: Sim<Vec<u32>> = Sim::new();
        let mut w = Vec::new();
        let id = sim.schedule(SimTime::ZERO, |_, w: &mut Vec<u32>| w.push(1));
        sim.schedule(SimTime::ZERO, |_, w: &mut Vec<u32>| w.push(2));
        assert!(sim.cancel(id));
        sim.run(&mut w);
        assert_eq!(w, vec![2]);
    }

    #[test]
    fn cancel_unknown_id_is_false() {
        let mut sim: Sim<()> = Sim::new();
        assert!(!sim.cancel(EventId { seq: 42, slot: 0 }));
    }

    #[test]
    fn run_until_respects_deadline() {
        let mut sim: Sim<Vec<u32>> = Sim::new();
        let mut w = Vec::new();
        sim.schedule(SimTime::from_millis(1), |_, w: &mut Vec<u32>| w.push(1));
        sim.schedule(SimTime::from_millis(10), |_, w: &mut Vec<u32>| w.push(10));
        let t = sim.run_until(&mut w, SimTime::from_millis(5));
        assert_eq!(w, vec![1]);
        assert_eq!(t, SimTime::from_millis(5));
        sim.run(&mut w);
        assert_eq!(w, vec![1, 10]);
    }

    #[test]
    fn past_schedules_clamp_to_now() {
        let mut sim: Sim<Vec<u64>> = Sim::new();
        let mut w = Vec::new();
        sim.schedule(SimTime::from_millis(10), |sim, w: &mut Vec<u64>| {
            // Scheduling "in the past" runs at now, not before.
            sim.schedule(SimTime::from_millis(1), |sim, w: &mut Vec<u64>| {
                w.push(sim.now().as_nanos());
            });
            w.push(sim.now().as_nanos());
        });
        sim.run(&mut w);
        assert_eq!(w, vec![10_000_000, 10_000_000]);
    }

    #[test]
    fn step_runs_bounded_count() {
        let mut sim: Sim<Vec<u32>> = Sim::new();
        let mut w = Vec::new();
        for i in 0..5 {
            sim.schedule(
                SimTime::from_millis(i as u64),
                move |_, w: &mut Vec<u32>| w.push(i),
            );
        }
        assert_eq!(sim.step(&mut w, 2), 2);
        assert_eq!(w, vec![0, 1]);
        assert_eq!(sim.step(&mut w, 10), 3);
    }

    #[test]
    fn step_interrupting_a_same_time_batch_keeps_fifo_order() {
        // step() stops among events sharing a timestamp; a fresh schedule
        // at that time must still run after the not-yet-run remainder.
        let mut sim: Sim<Vec<u32>> = Sim::new();
        let mut w = Vec::new();
        let t = SimTime::from_millis(1);
        for i in 0..3 {
            sim.schedule(t, move |_, w: &mut Vec<u32>| w.push(i));
        }
        assert_eq!(sim.step(&mut w, 1), 1);
        assert_eq!(sim.now(), t);
        sim.schedule(t, |_, w: &mut Vec<u32>| w.push(99));
        sim.run(&mut w);
        assert_eq!(w, vec![0, 1, 2, 99]);
    }

    #[test]
    fn cancelled_events_give_their_slots_back() {
        // Each round posts one event that fires and cancels two: one due
        // at `now`, one later. Every slot comes back, so the slab never
        // outgrows the three events of one round.
        let mut sim: Sim<u32> = Sim::new();
        let mut fired = 0;
        for round in 1..=1000u64 {
            let now = sim.now();
            let lane = sim.schedule(now, |_, n: &mut u32| *n += 100);
            sim.schedule_in(SimDuration::from_nanos(5), |_, n: &mut u32| *n += 1);
            let queued = sim.schedule_in(SimDuration::from_nanos(7), |_, n: &mut u32| *n += 100);
            assert!(sim.cancel(lane) && sim.cancel(queued));
            sim.run_until(&mut fired, SimTime::from_nanos(round * 10));
        }
        assert_eq!(fired, 1000);
        assert_eq!(sim.pending(), 0);
        assert_eq!(sim.slab.len(), 3, "slots are reused, not appended");
        assert_eq!(sim.free.len(), 3, "an empty queue holds no slot");
        assert!(
            sim.slab.iter().all(|entry| entry.event.is_none()),
            "no cancelled event is left in the slab"
        );
    }

    #[test]
    fn cancelling_an_event_that_already_ran_returns_false() {
        let mut sim: Sim<Vec<u32>> = Sim::new();
        let mut w = Vec::new();
        let ran = sim.schedule(SimTime::from_millis(1), |_, w: &mut Vec<u32>| w.push(1));
        sim.run(&mut w);
        assert!(!sim.cancel(ran), "the event already ran");
        // Its slot now carries a later event, which the stale id must
        // not reach.
        let live = sim.schedule(SimTime::from_millis(2), |_, w: &mut Vec<u32>| w.push(2));
        assert!(!sim.cancel(ran), "a stale id cancels nothing");
        sim.run(&mut w);
        assert_eq!(w, vec![1, 2]);
        assert!(!sim.cancel(live));
        assert_eq!(sim.pending(), 0);
        assert_eq!(sim.slab.len(), 1, "the one slot was reused");
    }

    #[test]
    fn periodic_self_rescheduling() {
        struct W {
            ticks: u32,
        }
        fn tick(sim: &mut Sim<W>, w: &mut W) {
            w.ticks += 1;
            if w.ticks < 10 {
                sim.schedule_in(SimDuration::from_millis(4), tick);
            }
        }
        let mut sim = Sim::new();
        let mut w = W { ticks: 0 };
        sim.schedule(SimTime::ZERO, tick);
        sim.run(&mut w);
        assert_eq!(w.ticks, 10);
        assert_eq!(sim.now(), SimTime::from_millis(36));
    }

    #[test]
    fn same_time_chains_skip_the_heap() {
        // A handler that schedules at `now` repeatedly: the whole chain
        // runs at one instant. The name is from a same-time lane that once
        // kept such chains out of the heap; the engine now queues every
        // event in the heap, and the test pins the behaviour.
        fn chain(sim: &mut Sim<Vec<u64>>, w: &mut Vec<u64>) {
            w.push(sim.now().as_nanos());
            if w.len() < 5 {
                let now = sim.now();
                sim.schedule(now, chain);
            }
        }
        let mut sim: Sim<Vec<u64>> = Sim::new();
        let mut w = Vec::new();
        sim.schedule(SimTime::from_millis(2), chain);
        sim.run(&mut w);
        assert_eq!(w, vec![2_000_000; 5]);
        assert_eq!(sim.events_executed(), 5);
        assert_eq!(sim.pending(), 0);
    }
}
