//! The deterministic per-host vCPU scheduler.
//!
//! Every physical host multiplexes its guest slots over one (modelled)
//! core with round-robin timeslices, the way hypercraft's per-CPU
//! scheduler does: a vCPU that becomes runnable (here: a virtual timer
//! fires for its guest) is appended to the tail of the run queue and is
//! dispatched only after every currently-busy co-resident vCPU has run a
//! slice. The wait it accrues is the **scheduler-beat timing channel**:
//! on an unprotected host the guest's timer interrupt lands
//! `slice x busy co-residents` late, so a co-resident's secret-dependent
//! CPU bursts are readable from the guest's own timeslice jitter.
//!
//! Two hypercraft idioms are modelled explicitly:
//!
//! * `switch_vm_timer` — the dispatch point charges the outgoing slice
//!   and re-arms the next preemption boundary; here that is
//!   [`VcpuScheduler::dispatch_delay`] (on a wake-up) and
//!   [`VcpuScheduler::tick`] (the periodic host scheduling tick the
//!   cloud's pacing heartbeat drives).
//! * `htimedelta` — the per-vCPU sum of time stolen by co-residents,
//!   hidden from the guest's own clocks. [`VcpuScheduler::htimedelta`]
//!   accumulates exactly that; under StopWatch it never reaches the
//!   guest (fires are delivered at the replica median of
//!   deadline-plus-Δt proposals), under Baseline it *is* the leak.
//!
//! Everything here is a pure function of the call sequence — no physical
//! clocks, no randomness — so replicas fed the same event order account
//! identically and the scheduler itself cannot break determinism.

use simkit::time::VirtOffset;
use std::collections::BTreeMap;

/// Deterministic round-robin vCPU scheduler state for one host.
#[derive(Debug, Clone)]
pub struct VcpuScheduler {
    slice: VirtOffset,
    cursor: usize,
    slices_granted: u64,
    preemptions: u64,
    context_switches: u64,
    steal_ns: BTreeMap<usize, u64>,
}

impl VcpuScheduler {
    /// A scheduler granting `slice`-long timeslices. Panics on a zero
    /// slice — a zero-length quantum would make the run queue spin
    /// without advancing accounting.
    pub fn new(slice: VirtOffset) -> Self {
        assert!(slice.as_nanos() > 0, "vCPU timeslice must be positive");
        VcpuScheduler {
            slice,
            cursor: 0,
            slices_granted: 0,
            preemptions: 0,
            context_switches: 0,
            steal_ns: BTreeMap::new(),
        }
    }

    /// The configured timeslice.
    pub fn slice(&self) -> VirtOffset {
        self.slice
    }

    /// A vCPU of `slot` became runnable (its guest's virtual timer
    /// elapsed). It joins the tail of the run queue behind every busy
    /// co-resident vCPU in `busy` (slot indices in ascending order; its
    /// own entry is ignored: the waking
    /// vCPU cannot queue behind itself), each of which runs one slice
    /// before the waker is dispatched — so the returned dispatch delay is
    /// `slice x busy co-residents`. The delay is charged to the slot's
    /// [`VcpuScheduler::htimedelta`].
    pub fn dispatch_delay(
        &mut self,
        slot: usize,
        busy: impl IntoIterator<Item = usize>,
    ) -> VirtOffset {
        let ahead = busy.into_iter().filter(|&b| b != slot).count() as u64;
        self.slices_granted += 1 + ahead;
        self.context_switches += ahead;
        if ahead > 0 {
            self.preemptions += 1;
            self.cursor = slot;
        }
        let delay_ns = self.slice.as_nanos().saturating_mul(ahead);
        *self.steal_ns.entry(slot).or_insert(0) += delay_ns;
        VirtOffset::from_nanos(delay_ns)
    }

    /// The periodic host scheduling tick (driven by the cloud's pacing
    /// heartbeat): rotates the run-queue cursor past the next busy slot
    /// (`busy` in ascending order; past the last one it wraps to the
    /// first) and accounts the slice it consumed. Pure bookkeeping —
    /// delivery times are agreed elsewhere — but it keeps
    /// `slices_granted` / `context_switches` honest between wake-ups.
    pub fn tick(&mut self, busy: impl IntoIterator<Item = usize>) {
        let mut busy = busy.into_iter();
        let Some(first) = busy.next() else {
            return;
        };
        let next = if first >= self.cursor {
            first
        } else {
            busy.find(|&b| b >= self.cursor).unwrap_or(first)
        };
        if next != self.cursor {
            self.context_switches += 1;
        }
        self.cursor = next + 1;
        self.slices_granted += 1;
    }

    /// Total timeslices handed out (wake-up dispatches plus ticks).
    pub fn slices_granted(&self) -> u64 {
        self.slices_granted
    }

    /// Wake-ups that found at least one busy co-resident ahead of them.
    pub fn preemptions(&self) -> u64 {
        self.preemptions
    }

    /// Run-queue rotations that switched away from the current vCPU.
    pub fn context_switches(&self) -> u64 {
        self.context_switches
    }

    /// Accumulated nanoseconds stolen from `slot` by co-resident slices —
    /// hypercraft's `htimedelta`, the quantity StopWatch keeps out of
    /// every guest-visible clock and interrupt timestamp.
    pub fn htimedelta(&self, slot: usize) -> u64 {
        self.steal_ns.get(&slot).copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sched() -> VcpuScheduler {
        VcpuScheduler::new(VirtOffset::from_millis(2))
    }

    #[test]
    fn idle_host_dispatches_immediately() {
        let mut s = sched();
        assert_eq!(s.dispatch_delay(0, []).as_nanos(), 0);
        assert_eq!(s.preemptions(), 0);
        assert_eq!(s.slices_granted(), 1);
        assert_eq!(s.htimedelta(0), 0);
    }

    #[test]
    fn each_busy_coresident_costs_one_slice() {
        let mut s = sched();
        let d = s.dispatch_delay(0, [1, 2]);
        assert_eq!(d.as_nanos(), 2 * 2_000_000);
        assert_eq!(s.preemptions(), 1);
        assert_eq!(s.context_switches(), 2);
        assert_eq!(s.slices_granted(), 3);
        assert_eq!(s.htimedelta(0), 4_000_000);
    }

    #[test]
    fn waker_never_queues_behind_itself() {
        let mut s = sched();
        let d = s.dispatch_delay(1, [1]);
        assert_eq!(d.as_nanos(), 0);
        assert_eq!(s.preemptions(), 0);
    }

    #[test]
    fn htimedelta_accumulates_per_slot() {
        let mut s = sched();
        s.dispatch_delay(0, [1]);
        s.dispatch_delay(0, [1, 2]);
        s.dispatch_delay(2, [0]);
        assert_eq!(s.htimedelta(0), 3 * 2_000_000);
        assert_eq!(s.htimedelta(2), 2_000_000);
        assert_eq!(s.htimedelta(1), 0);
    }

    #[test]
    fn accounting_is_a_pure_function_of_the_call_sequence() {
        let run = || {
            let mut s = sched();
            s.tick([0, 2]);
            s.dispatch_delay(1, [0, 2]);
            s.tick([2]);
            s.tick([]);
            (
                s.slices_granted(),
                s.preemptions(),
                s.context_switches(),
                s.htimedelta(1),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn tick_rotates_past_busy_slots_only() {
        let mut s = sched();
        s.tick([]);
        assert_eq!(s.slices_granted(), 0, "idle tick grants nothing");
        s.tick([1, 3]);
        s.tick([1, 3]);
        assert_eq!(s.slices_granted(), 2);
        assert!(s.context_switches() >= 1);
    }

    #[test]
    fn tick_wraps_to_the_first_busy_slot() {
        let mut s = sched();
        s.tick([1, 3]); // cursor 0 -> slot 1
        s.tick([1, 3]); // cursor 2 -> slot 3
        s.tick([1, 3]); // cursor 4: none at or past it, wraps to slot 1
        assert_eq!((s.slices_granted(), s.context_switches()), (3, 3));
        s.tick([2]); // cursor 2 is slot 2 itself: no switch
        assert_eq!((s.slices_granted(), s.context_switches()), (4, 3));
    }

    #[test]
    #[should_panic(expected = "timeslice must be positive")]
    fn zero_slice_is_rejected() {
        let _ = VcpuScheduler::new(VirtOffset::from_nanos(0));
    }
}
