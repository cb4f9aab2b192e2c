//! The guest VM abstraction.
//!
//! A guest is a *deterministic state machine*: its behaviour is a function
//! of the sequence of injected events (packets, disk completions, timer
//! ticks — each delivered at a defined virtual time) plus its own logic.
//! Exactly the determinism the paper enforces for uniprocessor VMs — which
//! is why three replicas fed the same injection schedule emit identical
//! output streams.
//!
//! Guest code reacts to events by queueing [`GuestAction`]s: bounded
//! computation, disk I/O, and packet sends. Between events the VM runs its
//! queued actions and then its idle loop (which retires branches, so
//! virtual time keeps advancing).

use crate::actions::ActionQueue;
use netsim::packet::{Body, EndpointId, Packet};
use simkit::time::{VirtNanos, VirtOffset};
use storage::block::BlockRange;
use storage::device::DiskOp;

/// Work the guest asks its (virtual) hardware to do, in program order.
#[derive(Debug, Clone, PartialEq)]
pub enum GuestAction {
    /// Execute `branches` branches of computation.
    Compute {
        /// Branch count to retire.
        branches: u64,
    },
    /// Issue a disk read; the result arrives later via
    /// [`GuestProgram::on_disk_done`].
    DiskRead {
        /// Blocks to read.
        range: BlockRange,
    },
    /// Issue a disk write (completion interrupt likewise delayed by Δd).
    DiskWrite {
        /// Blocks to write.
        range: BlockRange,
        /// Content hash to store.
        value: u64,
    },
    /// Emit a network packet (under StopWatch, tunneled to the egress
    /// node). The device model builds the [`Packet`] at execution time
    /// with the guest's endpoint as source, so the packet — and its
    /// cached content hash — is constructed exactly once.
    Send {
        /// Destination endpoint.
        dst: EndpointId,
        /// Payload.
        body: Body,
    },
    /// Invoke [`GuestProgram::on_call`] when execution reaches this point
    /// (a deterministic self-callback: "after the work queued so far, run
    /// this continuation").
    Call {
        /// Caller-defined token passed back to `on_call`.
        token: u64,
    },
    /// Touch a line of the host's shared LLC (install or refresh it) with
    /// no completion event — the PRIME half of PRIME+PROBE, and the
    /// victim's secret-dependent footprint.
    CacheTouch {
        /// Cache set index (wraps modulo the host cache's set count).
        set: u64,
        /// Line tag within the set (per-owner).
        tag: u64,
    },
    /// Probe a line of the host's shared LLC; its hit-or-miss latency
    /// arrives later via [`GuestProgram::on_cache_probe`] — under
    /// StopWatch at the replica-median timestamp, like a network
    /// interrupt.
    CacheProbe {
        /// Cache set index.
        set: u64,
        /// Line tag within the set.
        tag: u64,
    },
    /// Arm (or re-arm) a guest-programmable virtual timer: the fire
    /// arrives later via [`GuestProgram::on_vtimer`] — under StopWatch at
    /// the replica-median timestamp, so vCPU-scheduler dispatch jitter
    /// never reaches the guest.
    SetTimer {
        /// Guest-chosen timer identifier (re-arming an armed id replaces
        /// its programmed deadline).
        timer_id: u64,
        /// Absolute virtual deadline. Must lie strictly in the guest's
        /// future — a zero or already-passed deadline is a structured
        /// slot failure, not a panic.
        deadline: VirtNanos,
        /// `Some(p)` re-arms every `p` after each fire (periodic mode);
        /// `None` is one-shot.
        period: Option<VirtOffset>,
    },
    /// Disarm a virtual timer; a cancel racing an in-flight fire lets the
    /// fire win (the interrupt is already agreed on every replica).
    CancelTimer {
        /// The timer to disarm (unknown ids are a silent no-op, like real
        /// hypervisor timer hypercalls).
        timer_id: u64,
    },
}

/// What the guest sees when one of its handlers runs: the virtualized
/// platform clocks at the current VM exit, and its action queue.
#[derive(Debug)]
pub struct GuestEnv<'a> {
    /// Guest time (virtual under StopWatch) at this VM exit.
    pub now: VirtNanos,
    /// The delivery timestamp of the interrupt this handler services —
    /// what the virtual device's completion register reads. Under
    /// StopWatch this is the **replica-agreed** (median) timestamp, a
    /// pure function of agreed values even when the injection exit is
    /// not; outside interrupt handlers it equals [`GuestEnv::now`].
    pub irq_timestamp: VirtNanos,
    /// PIT timer interrupts delivered so far.
    pub pit_ticks: u64,
    /// `rdtsc` value.
    pub tsc: u64,
    /// CMOS RTC seconds.
    pub rtc_secs: u64,
    /// The guest's virtualized branch counter.
    pub branches: u64,
    actions: &'a mut ActionQueue,
}

impl<'a> GuestEnv<'a> {
    /// Creates an environment view (used by the slot executor).
    /// `irq_timestamp` is the serviced interrupt's delivery time, `None`
    /// outside interrupt handlers.
    pub fn new(
        now: VirtNanos,
        irq_timestamp: Option<VirtNanos>,
        pit_ticks: u64,
        tsc: u64,
        rtc_secs: u64,
        branches: u64,
        actions: &'a mut ActionQueue,
    ) -> Self {
        GuestEnv {
            now,
            irq_timestamp: irq_timestamp.unwrap_or(now),
            pit_ticks,
            tsc,
            rtc_secs,
            branches,
            actions,
        }
    }

    /// Queues `branches` of computation (consecutive runs coalesce into
    /// one queue entry).
    pub fn compute(&mut self, branches: u64) {
        self.actions.push(GuestAction::Compute { branches });
    }

    /// Queues a disk read.
    pub fn disk_read(&mut self, range: BlockRange) {
        self.actions.push(GuestAction::DiskRead { range });
    }

    /// Queues a disk write.
    pub fn disk_write(&mut self, range: BlockRange, value: u64) {
        self.actions.push(GuestAction::DiskWrite { range, value });
    }

    /// Queues a packet send from this guest (the device model stamps the
    /// guest's endpoint as source when the packet is built).
    pub fn send(&mut self, dst: EndpointId, body: Body) {
        self.actions.push(GuestAction::Send { dst, body });
    }

    /// Queues a continuation: [`GuestProgram::on_call`] fires with `token`
    /// after all previously queued actions have executed.
    pub fn call_after(&mut self, token: u64) {
        self.actions.push(GuestAction::Call { token });
    }

    /// Queues a silent touch of shared-LLC line `(set, tag)` (prime /
    /// victim access; no completion event).
    pub fn cache_touch(&mut self, set: u64, tag: u64) {
        self.actions.push(GuestAction::CacheTouch { set, tag });
    }

    /// Queues a shared-LLC probe of line `(set, tag)`; the latency readout
    /// arrives via [`GuestProgram::on_cache_probe`].
    pub fn cache_probe(&mut self, set: u64, tag: u64) {
        self.actions.push(GuestAction::CacheProbe { set, tag });
    }

    /// Arms one-shot virtual timer `timer_id` for the absolute virtual
    /// `deadline`; the fire arrives via [`GuestProgram::on_vtimer`].
    pub fn set_timer(&mut self, timer_id: u64, deadline: VirtNanos) {
        self.actions.push(GuestAction::SetTimer {
            timer_id,
            deadline,
            period: None,
        });
    }

    /// Arms periodic virtual timer `timer_id`: first fire at `deadline`,
    /// then re-armed every `period` after each fire.
    pub fn set_periodic_timer(&mut self, timer_id: u64, deadline: VirtNanos, period: VirtOffset) {
        self.actions.push(GuestAction::SetTimer {
            timer_id,
            deadline,
            period: Some(period),
        });
    }

    /// Disarms virtual timer `timer_id` (no-op for unknown ids).
    pub fn cancel_timer(&mut self, timer_id: u64) {
        self.actions.push(GuestAction::CancelTimer { timer_id });
    }

    /// Queued actions not yet executed.
    pub fn queue_len(&self) -> usize {
        self.actions.len()
    }
}

/// A deterministic guest program.
///
/// Handlers run at VM exits with interrupts injected at VM entry, matching
/// the Xen HVM flow the paper modifies. All decisions must be functions of
/// the handler inputs and [`GuestEnv`] clock reads only — no ambient
/// randomness, no host state — or replica determinism (and with it the
/// defense's output voting) breaks. Every handler defaults to a no-op, so
/// a program implements only the interrupts it reacts to.
pub trait GuestProgram {
    /// Called once when the VM boots.
    fn on_boot(&mut self, _env: &mut GuestEnv) {}

    /// A network packet was copied into guest memory and its interrupt
    /// asserted.
    fn on_packet(&mut self, _packet: &Packet, _env: &mut GuestEnv) {}

    /// A disk operation completed (for reads, `data` holds per-block
    /// content hashes).
    fn on_disk_done(
        &mut self,
        _op: DiskOp,
        _range: BlockRange,
        _data: &[u64],
        _env: &mut GuestEnv,
    ) {
    }

    /// A PIT timer interrupt (only delivered when [`GuestProgram::wants_timer`]).
    fn on_timer(&mut self, _env: &mut GuestEnv) {}

    /// A continuation queued via [`GuestEnv::call_after`] was reached.
    fn on_call(&mut self, _token: u64, _env: &mut GuestEnv) {}

    /// A virtual timer armed via [`GuestEnv::set_timer`] (or its periodic
    /// sibling) fired. [`GuestEnv::irq_timestamp`] is the fire's delivery
    /// time — under StopWatch the **replica-median** agreed timestamp, so
    /// `irq_timestamp - deadline` is the guest's whole view of scheduler
    /// latency.
    fn on_vtimer(&mut self, _timer_id: u64, _env: &mut GuestEnv) {}

    /// A cache probe queued via [`GuestEnv::cache_probe`] completed.
    /// `latency_ns` is the probe's readout in virtual nanoseconds — under
    /// StopWatch the median over the replicas' locally measured
    /// latencies, under Baseline the local hit/miss latency itself.
    fn on_cache_probe(&mut self, _set: u64, _tag: u64, _latency_ns: u64, _env: &mut GuestEnv) {}

    /// Opt into per-tick timer interrupts (off by default; ticks are
    /// always visible via [`GuestEnv::pit_ticks`]).
    fn wants_timer(&self) -> bool {
        false
    }

    /// Downcast support for extracting recorded observations after a run.
    /// Programs holding measurement state should override with
    /// `Some(self)`.
    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        None
    }
}

/// A trivial guest that idles forever (useful as filler load and in tests).
#[derive(Debug, Clone, Default)]
pub struct IdleGuest;

impl GuestProgram for IdleGuest {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_queues_actions_in_order() {
        let mut q = ActionQueue::new();
        let mut env = GuestEnv::new(VirtNanos::ZERO, None, 0, 0, 0, 0, &mut q);
        env.compute(100);
        env.disk_read(BlockRange::new(0, 1));
        env.send(EndpointId(9), Body::Raw { tag: 1, len: 10 });
        env.set_timer(4, VirtNanos::from_millis(7));
        env.set_periodic_timer(5, VirtNanos::from_millis(9), VirtOffset::from_millis(2));
        env.cancel_timer(4);
        assert_eq!(env.queue_len(), 6);
        assert!(matches!(
            q.get(0),
            Some(GuestAction::Compute { branches: 100 })
        ));
        assert!(matches!(q.get(1), Some(GuestAction::DiskRead { .. })));
        assert!(matches!(q.get(2), Some(GuestAction::Send { .. })));
        assert!(matches!(
            q.get(3),
            Some(GuestAction::SetTimer {
                timer_id: 4,
                period: None,
                ..
            })
        ));
        assert!(matches!(
            q.get(4),
            Some(GuestAction::SetTimer {
                timer_id: 5,
                period: Some(_),
                ..
            })
        ));
        assert!(matches!(
            q.get(5),
            Some(GuestAction::CancelTimer { timer_id: 4 })
        ));
    }

    #[test]
    fn consecutive_env_computes_coalesce_into_one_action() {
        let mut q = ActionQueue::new();
        let mut env = GuestEnv::new(VirtNanos::ZERO, None, 0, 0, 0, 0, &mut q);
        env.compute(100);
        env.compute(23);
        assert_eq!(env.queue_len(), 1);
        assert!(matches!(
            q.front(),
            Some(GuestAction::Compute { branches: 123 })
        ));
    }

    #[test]
    fn idle_guest_stays_idle() {
        let mut g = IdleGuest;
        let mut q = ActionQueue::new();
        let mut env = GuestEnv::new(VirtNanos::ZERO, None, 0, 0, 0, 0, &mut q);
        g.on_boot(&mut env);
        assert_eq!(env.queue_len(), 0);
        assert!(!g.wants_timer());
    }
}
