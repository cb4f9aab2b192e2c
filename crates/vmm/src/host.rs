//! A physical host: one execution-speed profile, one disk, and the guest
//! slots it runs (the paper's testbed ran up to `c` one-vCPU guests per
//! multicore machine; each slot models one pinned vCPU, with cross-guest
//! interference entering through the shared contention factor and the
//! shared disk FIFO).

use crate::cache::CacheModel;
use crate::channel::ChannelKind;
use crate::sched::VcpuScheduler;
use crate::slot::{ArrivalOutcome, GuestSlot, SlotError, SlotOutput};
use crate::speed::SpeedProfile;
use netsim::link::NetNode;
use netsim::packet::Packet;
use simkit::time::{SimTime, VirtNanos, VirtOffset};
use storage::device::{DiskDevice, DiskRequest};
use storage::model::AccessModel;

/// Default shared-LLC geometry when nothing configures it (a small
/// teaching-sized cache; cache workloads set their own via
/// [`HostMachine::set_cache`]).
const DEFAULT_CACHE_SETS: u64 = 64;
const DEFAULT_CACHE_WAYS: usize = 8;

/// Default vCPU timeslice when nothing configures it (Xen's credit
/// scheduler default quantum order of magnitude).
const DEFAULT_TIMESLICE_MS: u64 = 2;

/// One physical machine.
pub struct HostMachine {
    id: NetNode,
    profile: SpeedProfile,
    disk: DiskDevice<Box<dyn AccessModel>>,
    cache: CacheModel,
    sched: VcpuScheduler,
    slots: Vec<GuestSlot>,
}

impl std::fmt::Debug for HostMachine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HostMachine")
            .field("id", &self.id)
            .field("slots", &self.slots.len())
            .finish_non_exhaustive()
    }
}

impl HostMachine {
    /// Creates a host.
    pub fn new(id: NetNode, profile: SpeedProfile, disk: DiskDevice<Box<dyn AccessModel>>) -> Self {
        HostMachine {
            id,
            profile,
            disk,
            cache: CacheModel::new(DEFAULT_CACHE_SETS, DEFAULT_CACHE_WAYS),
            sched: VcpuScheduler::new(VirtOffset::from_millis(DEFAULT_TIMESLICE_MS)),
            slots: Vec::new(),
        }
    }

    /// Replaces this host's vCPU scheduler (the timeslice is a platform
    /// property; call before booting any slot).
    pub fn set_scheduler(&mut self, sched: VcpuScheduler) {
        self.sched = sched;
    }

    /// The host's vCPU scheduler (accounting inspection).
    pub fn scheduler(&self) -> &VcpuScheduler {
        &self.sched
    }

    /// Replaces this host's shared LLC (geometry is a platform property;
    /// call before booting any slot).
    pub fn set_cache(&mut self, cache: CacheModel) {
        self.cache = cache;
    }

    /// The host's shared LLC (occupancy inspection).
    pub fn cache(&self) -> &CacheModel {
        &self.cache
    }

    /// This host's network identity.
    pub fn id(&self) -> NetNode {
        self.id
    }

    /// Adds a guest slot; returns its index on this host.
    pub fn add_slot(&mut self, slot: GuestSlot) -> usize {
        self.slots.push(slot);
        self.slots.len() - 1
    }

    /// Number of slots.
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// Immutable access to a slot.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range index.
    pub fn slot(&self, idx: usize) -> &GuestSlot {
        &self.slots[idx]
    }

    /// Mutable access to a slot (for program state extraction).
    pub fn slot_mut(&mut self, idx: usize) -> &mut GuestSlot {
        &mut self.slots[idx]
    }

    /// The host's speed profile.
    pub fn profile(&self) -> &SpeedProfile {
        &self.profile
    }

    /// Boots slot `idx` at `now`.
    ///
    /// # Errors
    ///
    /// Propagates the slot's [`SlotError`]s.
    pub fn boot_slot(&mut self, idx: usize, now: SimTime) -> Result<Vec<SlotOutput>, SlotError> {
        let (profile, cache, slot) = (&self.profile, &mut self.cache, &mut self.slots[idx]);
        slot.boot(profile, cache, now)
    }

    /// Runs everything due for slot `idx` at `now` (against this host's
    /// shared LLC — coresident slots see each other's evictions).
    ///
    /// # Errors
    ///
    /// Propagates the slot's [`SlotError`]s.
    pub fn process_slot(&mut self, idx: usize, now: SimTime) -> Result<Vec<SlotOutput>, SlotError> {
        let (profile, cache, slot) = (&self.profile, &mut self.cache, &mut self.slots[idx]);
        slot.process(profile, cache, now)
    }

    /// Next wake time for slot `idx`.
    pub fn next_wake(&self, idx: usize, now: SimTime) -> Option<SimTime> {
        self.slots[idx].next_wake(&self.profile, now)
    }

    /// Packet arrival at the device model for slot `idx`.
    pub fn packet_arrival(
        &mut self,
        idx: usize,
        now: SimTime,
        ingress_seq: u64,
        packet: Packet,
    ) -> ArrivalOutcome {
        let (profile, slot) = (&self.profile, &mut self.slots[idx]);
        slot.on_packet_arrival(profile, now, ingress_seq, packet)
    }

    /// Records a burst of delivery-time proposals (any mix of channels)
    /// for slot `idx` in one pass; returns how many events now have a
    /// fixed delivery time (see [`GuestSlot::add_proposals`]).
    pub fn add_proposals(
        &mut self,
        idx: usize,
        now: SimTime,
        batch: impl IntoIterator<Item = (ChannelKind, u64, VirtNanos)>,
    ) -> usize {
        let (profile, slot) = (&self.profile, &mut self.slots[idx]);
        slot.add_proposals(profile, now, batch)
    }

    /// Submits a disk request from slot `idx` to the host disk; returns
    /// the absolute completion time.
    pub fn submit_disk(&mut self, request: DiskRequest, now: SimTime) -> SimTime {
        self.disk.submit(request, now)
    }

    /// The disk transfer for `(slot, op_id)` completed. Under StopWatch
    /// the slot answers with its completion-timestamp proposal for the
    /// replicas to agree on (see [`GuestSlot::disk_ready`]).
    ///
    /// # Errors
    ///
    /// Propagates the slot's [`SlotError`]s.
    pub fn disk_ready(
        &mut self,
        idx: usize,
        now: SimTime,
        op_id: u64,
    ) -> Result<ArrivalOutcome, SlotError> {
        let (profile, slot) = (&self.profile, &mut self.slots[idx]);
        slot.disk_ready(profile, now, op_id)
    }

    /// The hardware timer event for `(slot, fire_seq)` elapsed: the vCPU
    /// scheduler computes the slot's dispatch delay from the run queue of
    /// currently busy co-residents, and the slot answers with its Δt
    /// fire-time proposal (StopWatch) or schedules the jittered local
    /// delivery (Baseline). Returns `Ok(None)` for cancelled fires.
    ///
    /// # Errors
    ///
    /// Propagates the slot's [`SlotError`]s.
    pub fn timer_elapsed(
        &mut self,
        idx: usize,
        now: SimTime,
        fire_seq: u64,
    ) -> Result<Option<ArrivalOutcome>, SlotError> {
        let delay = self.sched.dispatch_delay(idx, busy_slots(&self.slots));
        let (profile, slot) = (&self.profile, &mut self.slots[idx]);
        slot.timer_elapsed(profile, now, fire_seq, delay)
    }

    /// Physical time at which slot `idx`'s virtual clock first reaches
    /// `deadline` — when to schedule its hardware timer event.
    pub fn timer_event_time(&self, idx: usize, now: SimTime, deadline: VirtNanos) -> SimTime {
        self.slots[idx].phys_at_virt(&self.profile, now, deadline)
    }

    /// The periodic host scheduling tick (driven by the cloud's pacing
    /// heartbeat): pure run-queue accounting, no guest-visible effect.
    pub fn sched_tick(&mut self) {
        self.sched.tick(busy_slots(&self.slots));
    }

    /// Current virtual time of slot `idx`.
    pub fn virt_of(&self, idx: usize, now: SimTime) -> VirtNanos {
        self.slots[idx].virt_at(&self.profile, now)
    }

    /// Stalls slot `idx` until `t` (fastest-replica pacing).
    pub fn stall_slot(&mut self, idx: usize, now: SimTime, until: SimTime) {
        let (profile, slot) = (&self.profile, &mut self.slots[idx]);
        slot.stall_until(profile, now, until);
    }

    /// Sets the host's contention factor from its busy slots — a quarter
    /// per busy guest, capped at 0.9 — slowing *all* guests; returns `true`
    /// when it changed (callers then recompute pending wakes). This is
    /// how one guest's load perturbs the timing of its coresident guests:
    /// the cross-VM interference access-driven attacks feed on, and the
    /// lever of the Sec. IX collaborating-attacker load attack.
    pub fn refresh_activity(&mut self) -> bool {
        // `is_busy` reads the action queue directly, which only changes
        // inside `process()` — no per-slot clock sync is needed here.
        //
        // `set_contention` runs even when the value does not change, and
        // that is part of the output: its generation bump drops every
        // slot's `next_wake` memo, whose instant was inverted from the
        // first probe's `now`. A fresh inversion from a later `now` can
        // land a few ns away, so skipping an unchanged value moves report
        // bytes (delta-n, nfs-load and defense-shootout cells among them).
        let before = self.profile.contention();
        let busy = self.slots.iter().filter(|s| s.is_busy()).count();
        self.profile.set_contention((busy as f64 * 0.25).min(0.9));
        (self.profile.contention() - before).abs() > 1e-12
    }
}

/// Indices of the busy slots, ascending: the scheduler's run queue,
/// read in place on every tick and wake-up, never collected.
fn busy_slots(slots: &[GuestSlot]) -> impl Iterator<Item = usize> + '_ {
    slots
        .iter()
        .enumerate()
        .filter(|(_, s)| s.is_busy())
        .map(|(i, _)| i)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::VirtualClock;
    use crate::devices::PlatformClocks;
    use crate::guest::{GuestEnv, GuestProgram, IdleGuest};
    use crate::slot::{DefenseMode, SlotConfig};
    use netsim::packet::EndpointId;
    use simkit::rng::SimRng;
    use simkit::time::SimDuration;
    use storage::block::{BlockRange, DiskImage};
    use storage::device::DiskOp;
    use storage::model::Ssd;

    fn host() -> HostMachine {
        let profile = SpeedProfile::new(
            1.0e9,
            0.0,
            SimDuration::from_millis(10),
            SimRng::new(1).stream("h0"),
        );
        let disk: DiskDevice<Box<dyn AccessModel>> =
            DiskDevice::new(Box::new(Ssd::sata()), SimRng::new(1).stream("d0"));
        HostMachine::new(NetNode(0), profile, disk)
    }

    fn guest_slot(program: Box<dyn GuestProgram>, endpoint: u64) -> GuestSlot {
        GuestSlot::new(
            program,
            SlotConfig {
                endpoint: EndpointId(endpoint),
                exit_every: 50_000,
                mode: DefenseMode::baseline(),
                clocks: PlatformClocks::default(),
            },
            VirtualClock::new(VirtNanos::ZERO, 1.0),
            DiskImage::new(1024),
        )
    }

    fn idle_slot() -> GuestSlot {
        guest_slot(Box::new(IdleGuest), 1)
    }

    #[test]
    fn add_and_boot_slots() {
        let mut h = host();
        let a = h.add_slot(idle_slot());
        let b = h.add_slot(idle_slot());
        assert_eq!((a, b), (0, 1));
        assert!(h.boot_slot(0, SimTime::ZERO).expect("boot").is_empty());
        assert_eq!(h.slot_count(), 2);
    }

    #[test]
    fn activity_raises_contention() {
        // Busy from boot until one compute burst retires.
        struct Burst;
        impl GuestProgram for Burst {
            fn on_boot(&mut self, env: &mut GuestEnv) {
                env.compute(1_000_000);
            }
        }
        let mut h = host();
        let idle = h.add_slot(idle_slot());
        let bursts = [
            h.add_slot(guest_slot(Box::new(Burst), 2)),
            h.add_slot(guest_slot(Box::new(Burst), 3)),
        ];
        h.boot_slot(idle, SimTime::ZERO).expect("boot idle");
        assert!(!h.refresh_activity(), "an idle guest adds no contention");
        assert_eq!(h.profile().contention(), 0.0);
        h.boot_slot(bursts[0], SimTime::ZERO).expect("boot");
        assert!(h.refresh_activity());
        assert_eq!(h.profile().contention(), 0.25);
        h.boot_slot(bursts[1], SimTime::ZERO).expect("boot");
        assert!(h.refresh_activity());
        assert_eq!(h.profile().contention(), 0.5);
        // Both bursts retire: the host is quiet again.
        for &s in &bursts {
            let end = h.next_wake(s, SimTime::ZERO).expect("burst end");
            h.process_slot(s, end).expect("retire burst");
            assert!(!h.slot(s).is_busy());
        }
        assert!(h.refresh_activity());
        assert_eq!(h.profile().contention(), 0.0);
    }

    #[test]
    fn disk_submission_roundtrip() {
        let mut h = host();
        h.add_slot(idle_slot());
        let done = h.submit_disk(
            DiskRequest {
                op: DiskOp::Read,
                range: BlockRange::new(0, 1),
            },
            SimTime::ZERO,
        );
        assert!(done > SimTime::ZERO);
    }

    #[test]
    fn timer_elapsed_charges_run_queue_wait_to_the_waker() {
        // Slot 0 arms a timer; slot 1 sits on a long compute burst. The
        // scheduler must charge slot 0 one slice of wait.
        struct Arm;
        impl GuestProgram for Arm {
            fn on_boot(&mut self, env: &mut GuestEnv) {
                env.set_timer(1, VirtNanos::from_millis(5));
            }
        }
        struct Burn;
        impl GuestProgram for Burn {
            fn on_boot(&mut self, env: &mut GuestEnv) {
                env.compute(1_000_000_000);
            }
        }
        let mut h = host();
        let armer = h.add_slot(guest_slot(Box::new(Arm), 1));
        let burner = h.add_slot(guest_slot(Box::new(Burn), 2));
        let boot_out = h.boot_slot(armer, SimTime::ZERO).expect("boot armer");
        h.boot_slot(burner, SimTime::ZERO).expect("boot burner");
        assert!(h.slot(burner).is_busy());
        let SlotOutput::TimerArm { fire_seq, deadline } = boot_out[0] else {
            panic!("{:?}", boot_out[0]);
        };
        let t = h.timer_event_time(armer, SimTime::ZERO, deadline);
        let outcome = h.timer_elapsed(armer, t, fire_seq).expect("live fire");
        assert_eq!(outcome, Some(ArrivalOutcome::Scheduled));
        // One busy co-resident => one slice (the default 2ms) of steal.
        assert_eq!(h.scheduler().htimedelta(armer), 2_000_000);
        assert_eq!(h.scheduler().preemptions(), 1);
        // The sched tick is pure accounting.
        h.sched_tick();
        assert!(h.scheduler().slices_granted() >= 2);
    }
}
