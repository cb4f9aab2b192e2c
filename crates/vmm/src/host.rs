//! A physical host: the devices its guest slots share — one
//! execution-speed profile, one disk FIFO, one last-level cache and one
//! vCPU scheduler (the paper's testbed ran up to `c` one-vCPU guests per
//! multicore machine). The slots themselves live with the cloud, which
//! hands each one its host's profile (and LLC) on every call; cross-guest
//! interference enters through the shared contention factor, cache, disk
//! queue and run queue.

use crate::cache::CacheModel;
use crate::sched::VcpuScheduler;
use crate::speed::SpeedProfile;
use netsim::link::NetNode;
use storage::device::DiskDevice;
use storage::model::AccessModel;

/// One physical machine's shared devices.
pub struct HostMachine {
    /// This host's network identity.
    pub id: NetNode,
    /// Branch↔time mapping of every slot on this host, slowed by the
    /// contention factor [`HostMachine::refresh_activity`] sets.
    pub profile: SpeedProfile,
    /// The disk every slot's requests queue on, first come first served.
    pub disk: DiskDevice<Box<dyn AccessModel>>,
    /// The LLC every slot touches, so coresident slots see each other's
    /// evictions.
    pub cache: CacheModel,
    /// The vCPU run queue the host's busy slots share.
    pub sched: VcpuScheduler,
}

impl HostMachine {
    /// Sets the host's contention factor from its count of `busy` slots —
    /// a quarter per busy guest, capped at 0.9 — slowing *all* guests;
    /// returns `true` when it changed (callers then recompute pending
    /// wakes). This is how one guest's load perturbs the timing of its
    /// coresident guests: the cross-VM interference access-driven attacks
    /// feed on, and the lever of the Sec. IX collaborating-attacker load
    /// attack.
    pub fn refresh_activity(&mut self, busy: usize) -> bool {
        // `set_contention` runs even when the value does not change, and
        // that is part of the output: its generation bump drops every
        // slot's `next_wake` memo, whose instant was inverted from the
        // first probe's `now`. A fresh inversion from a later `now` can
        // land a few ns away, so skipping an unchanged value moves report
        // bytes (delta-n, nfs-load and defense-shootout cells among them).
        let before = self.profile.contention();
        self.profile.set_contention((busy as f64 * 0.25).min(0.9));
        (self.profile.contention() - before).abs() > 1e-12
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::VirtualClock;
    use crate::devices::PlatformClocks;
    use crate::guest::{GuestEnv, GuestProgram};
    use crate::slot::{ArrivalOutcome, DefenseMode, GuestSlot, SlotConfig, SlotOutput};
    use netsim::packet::EndpointId;
    use simkit::rng::SimRng;
    use simkit::time::{SimDuration, SimTime, VirtNanos, VirtOffset};
    use storage::block::{BlockRange, DiskImage};
    use storage::device::{DiskOp, DiskRequest};
    use storage::model::Ssd;

    fn host() -> HostMachine {
        HostMachine {
            id: NetNode(0),
            profile: SpeedProfile::new(
                1.0e9,
                0.0,
                SimDuration::from_millis(10),
                SimRng::new(1).stream("h0"),
            ),
            disk: DiskDevice::new(Box::new(Ssd::sata()), SimRng::new(1).stream("d0")),
            cache: CacheModel::new(64, 8),
            sched: VcpuScheduler::new(VirtOffset::from_millis(2)),
        }
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

    /// Indices of the busy slots, ascending: the scheduler's run queue.
    fn busy(slots: &[GuestSlot]) -> impl Iterator<Item = usize> + '_ {
        slots
            .iter()
            .enumerate()
            .filter(|(_, s)| s.is_busy())
            .map(|(i, _)| i)
    }

    #[test]
    fn activity_raises_contention() {
        let mut h = host();
        assert!(!h.refresh_activity(0), "an idle host adds no contention");
        assert_eq!(h.profile.contention(), 0.0);
        for (busy, contention) in [(1, 0.25), (2, 0.5), (9, 0.9)] {
            assert!(h.refresh_activity(busy));
            assert_eq!(h.profile.contention(), contention);
        }
        assert!(!h.refresh_activity(9), "the cap holds");
        // The busy guests retire: the host is quiet again.
        assert!(h.refresh_activity(0));
        assert_eq!(h.profile.contention(), 0.0);
    }

    #[test]
    fn disk_submission_roundtrip() {
        let mut h = host();
        let done = h.disk.submit(
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
        let mut slots = [guest_slot(Box::new(Arm), 1), guest_slot(Box::new(Burn), 2)];
        let boot_out = slots[0]
            .boot(&h.profile, &mut h.cache, SimTime::ZERO)
            .expect("boot armer");
        slots[1]
            .boot(&h.profile, &mut h.cache, SimTime::ZERO)
            .expect("boot burner");
        assert!(busy(&slots).eq([1]));
        let SlotOutput::TimerArm { fire_seq, deadline } = boot_out[0] else {
            panic!("{:?}", boot_out[0]);
        };
        let t = slots[0].phys_at_virt(&h.profile, SimTime::ZERO, deadline);
        let delay = h.sched.dispatch_delay(0, busy(&slots));
        let outcome = slots[0]
            .timer_elapsed(&h.profile, t, fire_seq, delay)
            .expect("live fire");
        assert_eq!(outcome, Some(ArrivalOutcome::Scheduled));
        // One busy co-resident => one slice (2ms) of steal.
        assert_eq!(h.sched.htimedelta(0), 2_000_000);
        assert_eq!(h.sched.preemptions(), 1);
        // The sched tick is pure accounting.
        h.sched.tick(busy(&slots));
        assert!(h.sched.slices_granted() >= 2);
    }
}
