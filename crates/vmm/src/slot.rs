//! The guest slot: all per-guest VMM state on one host.
//!
//! This is where the paper's mechanisms live:
//!
//! * the virtualized **branch counter** driving [`VirtualClock`];
//! * **guest-caused VM exits** every `exit_every` branches — the only
//!   points where interrupts are injected (Sec. IV-B);
//! * the **unified timing-channel core**: every interrupt class whose
//!   timing an attacker could observe — network packets (Sec. V-B,
//!   Fig. 3), shared-LLC probe readouts (Sec. III), disk/DMA
//!   completions (Sec. V-A) and virtual-timer fires — flows through one
//!   pending table, one early-proposal buffer, and one replica-median
//!   agreement path, parameterized by [`ChannelKind`];
//! * delivery of data *only at injection time* (no early polling);
//! * detection of synchrony violations (median already passed — paper
//!   footnote 4) and Δd/Δt violations (the local device overran its
//!   release bound).
//!
//! # One `open`, one `settle`
//!
//! Every channel event takes the same two steps, and they are the only
//! places the defense arm is decided. `open` files the event in the
//! pending table: under StopWatch it awaits every replica's proposal
//! (draining peer proposals that arrived first), under a local arm only
//! its own settlement. `settle` runs once the event is observed locally
//! — packet arrival, probe latency, disk transfer, hardware timer fire —
//! at `observed`, anchored at the replica-identical instant `anchor`
//! where the event has one (issue time, programmed deadline). StopWatch
//! proposes the release bound `anchor + Δ`, or `observed` when the local
//! device overran it; a local arm fixes `release.apply(observed,
//! anchor)` at once. Each call site supplies only its inputs.
//!
//! # Determinism model
//!
//! The slot tracks two branch counts:
//!
//! * `pc` — the guest's *logical* position in branch space. Everything the
//!   guest observes or emits is stamped at `pc`: handler clock reads, disk
//!   issue times `V`, output-packet virtual times. `pc` advances only by
//!   completed compute actions and by jumps to interrupt-injection exits —
//!   all pure functions of agreed values (median delivery times, channel
//!   offsets, tick schedule, the program's own action sizes). Three
//!   replicas therefore compute identical `pc` sequences and identical
//!   outputs.
//! * the *physical* branch count (a function of host wall-clock time via
//!   [`SpeedProfile`]) — which only *gates* when, in real time, each `pc`
//!   point is reached. Host speed differences shift real-time behaviour
//!   (absorbed by the offset/median machinery and the egress), never
//!   logical behaviour.

use crate::actions::ActionQueue;
use crate::cache::CacheModel;
use crate::channel::ChannelKind;
use crate::clock::VirtualClock;
use crate::counter::{SlotCounter, SlotCounts};
pub use crate::defense::{DefenseMode, ReleaseRule};
use crate::devices::PlatformClocks;
use crate::guest::{GuestAction, GuestEnv, GuestProgram};
use crate::pending::{ChannelPayload, PendingTable, Row};
use crate::speed::SpeedProfile;
use netsim::packet::{EndpointId, Packet};
use simkit::fxhash::FxHashMap;
use simkit::time::{SimDuration, SimTime, VirtNanos, VirtOffset};
use std::cell::Cell;
use std::collections::BTreeMap;
use storage::block::{BlockRange, DiskImage};
use storage::device::{DiskOp, DiskRequest};

/// Static configuration of a guest slot.
#[derive(Debug, Clone)]
pub struct SlotConfig {
    /// The guest's network endpoint identity.
    pub endpoint: EndpointId,
    /// Branches between guest-caused VM exits (injection opportunities).
    pub exit_every: u64,
    /// Defense mode.
    pub mode: DefenseMode,
    /// Emulated platform clocks.
    pub clocks: PlatformClocks,
}

/// A structured slot failure: a malformed scenario (or a driver bug)
/// surfaces as an error that fails the owning sweep *cell*, not a panic
/// that takes down the whole sweep process.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SlotError {
    /// `disk_ready` named an operation the device model is not tracking.
    UnknownDiskOp {
        /// The unknown slot-local operation id.
        op_id: u64,
    },
    /// A disk interrupt came due with no data in the hidden buffer.
    MissingDiskData {
        /// The affected operation id.
        op_id: u64,
    },
    /// A due interrupt's pending entry vanished or never fixed a delivery
    /// time.
    MissingDelivery {
        /// The affected channel.
        kind: ChannelKind,
        /// The channel-local id.
        id: u64,
    },
    /// A guest armed a virtual timer with an unusable program: a zero (or
    /// otherwise non-future) deadline, or a zero period.
    BadTimerDeadline {
        /// The guest-chosen timer id.
        timer_id: u64,
        /// The rejected deadline.
        deadline: VirtNanos,
    },
    /// A periodic timer's re-arm overflowed virtual time.
    TimerOverflow {
        /// The guest-chosen timer id.
        timer_id: u64,
    },
    /// `timer_elapsed` named a fire this slot is not tracking.
    UnknownTimerFire {
        /// The unknown slot-local fire sequence number.
        fire_seq: u64,
    },
    /// A guest disk request reaches past the end of its disk image.
    DiskPastImage {
        /// The block just past the request's last block.
        end: u64,
        /// The image's size in blocks.
        image_blocks: u64,
    },
}

impl std::fmt::Display for SlotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SlotError::UnknownDiskOp { op_id } => {
                write!(f, "disk_ready for unknown op {op_id}")
            }
            SlotError::MissingDiskData { op_id } => {
                write!(f, "disk op {op_id} came due without data in the buffer")
            }
            SlotError::MissingDelivery { kind, id } => {
                write!(
                    f,
                    "{} interrupt {id} came due without an agreed delivery time",
                    kind.name()
                )
            }
            SlotError::BadTimerDeadline { timer_id, deadline } => {
                write!(
                    f,
                    "guest timer {timer_id} mis-programmed: deadline {}ns is not in the future \
                     (or its period is zero)",
                    deadline.as_nanos()
                )
            }
            SlotError::TimerOverflow { timer_id } => {
                write!(
                    f,
                    "periodic timer {timer_id} re-arm overflowed virtual time"
                )
            }
            SlotError::UnknownTimerFire { fire_seq } => {
                write!(f, "timer_elapsed for unknown fire {fire_seq}")
            }
            SlotError::DiskPastImage { end, image_blocks } => {
                write!(
                    f,
                    "guest disk request ends at block {end}, past the {image_blocks}-block image"
                )
            }
        }
    }
}

impl std::error::Error for SlotError {}

/// Something the slot wants the outside world (host/cloud) to do.
#[derive(Debug, Clone, PartialEq)]
pub enum SlotOutput {
    /// The guest emitted a packet at virtual time `virt` (output number
    /// `out_seq`); under StopWatch the host tunnels it to the egress node.
    Packet {
        /// Per-guest output sequence number (identical across replicas).
        out_seq: u64,
        /// The packet (src patched to the guest endpoint).
        packet: Packet,
        /// Virtual emission time.
        virt: VirtNanos,
    },
    /// The guest issued a disk request; submit it to the host disk.
    DiskSubmit {
        /// Slot-local operation id.
        op_id: u64,
        /// The request.
        request: DiskRequest,
    },
    /// StopWatch: this VMM proposes a delivery timestamp for channel
    /// `kind`'s event `seq`; multicast it to the peer VMMs, which adopt
    /// the median (Fig. 3's flow, for whichever channel emitted it).
    Proposal {
        /// The timing channel the proposal belongs to.
        kind: ChannelKind,
        /// Channel-local event id (identical across replicas).
        seq: u64,
        /// Proposed virtual delivery time.
        proposal: VirtNanos,
    },
    /// The guest armed a virtual timer: the host must schedule a hardware
    /// timer event at this slot's physical projection of `deadline` and
    /// call back [`GuestSlot::timer_elapsed`] with `fire_seq` when it
    /// elapses (the cloud adds the run-queue wait there).
    TimerArm {
        /// Slot-local fire sequence number (identical across replicas).
        fire_seq: u64,
        /// The programmed absolute virtual deadline.
        deadline: VirtNanos,
    },
}

/// Outcome of settling a locally observed channel event (an inbound
/// packet, a finished disk transfer, an elapsed hardware timer).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArrivalOutcome {
    /// StopWatch: the VMM proposes this virtual delivery time; multicast it
    /// to the peer VMMs.
    Proposal(VirtNanos),
    /// A local arm fixed the delivery time; just recompute the wake.
    Scheduled,
}

/// The median of `needed` proposals when the `received` subset alone
/// determines it. With `m = needed / 2` (odd `needed`) and `missing`
/// proposals outstanding, the full-set median is bracketed by the order
/// statistics `received[m - missing]` (every missing value below) and
/// `received[m]` (every missing value above); when those coincide, no
/// completion can move the median off that value.
fn median_if_determined(received: &[VirtNanos], needed: usize) -> Option<VirtNanos> {
    let m = needed / 2;
    let missing = needed - received.len();
    if m >= received.len() || m < missing {
        return None;
    }
    let mut sorted = received.to_vec();
    sorted.sort_unstable();
    (sorted[m - missing] == sorted[m]).then(|| sorted[m])
}

/// A slot's next scheduling step (see [`GuestSlot::next_step`]), in rank
/// order: at equal branch positions, a compute completes before an
/// interrupt is injected, and an injection runs before a zero-branch
/// action.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// The head compute action completes.
    Complete,
    /// The earliest due interrupt is injected: channel `kind`'s event
    /// `id`, or the periodic tick when the kind is `None`.
    Inject(Option<ChannelKind>, u64),
    /// The zero-branch head action runs.
    Act,
}

/// Memo key for [`GuestSlot::next_wake`]: `(target branch, synced
/// branches, synced_at nanos, resume_at nanos, profile generation)`.
type WakeKey = (u64, u64, u64, u64, u64);

/// All per-guest state of the VMM on one host.
pub struct GuestSlot {
    program: Box<dyn GuestProgram>,
    cfg: SlotConfig,
    clock: VirtualClock,
    image: DiskImage,
    // Physical execution state.
    branches: u64,
    synced_at: SimTime,
    resume_at: SimTime,
    // Logical (deterministic) execution state.
    pc: u64,
    compute_end: Option<u64>,
    actions: ActionQueue,
    booted: bool,
    // The unified timing-channel core: one pending table and one
    // early-proposal buffer for every channel kind. The table is
    // struct-of-arrays (see [`crate::pending`]) with an ordered index of
    // its injectable rows, so the step query reads one first element
    // instead of scanning payload-sized nodes.
    pending: PendingTable,
    /// Peer proposals that arrived before this replica opened the matching
    /// pending entry (replicas run at different physical speeds); drained
    /// when the entry opens. Dropping them would deadlock the agreement.
    /// Keyed by `(kind id, seq)`; every access is a point query, so the
    /// map is hashed, not ordered.
    early: FxHashMap<(u8, u64), Vec<VirtNanos>>,
    /// Whether the guest program takes PIT ticks — a constant of the
    /// program, cached off the hot step query.
    wants_timer: bool,
    /// Memoized next PIT-tick injection point: `(tick number, tick virt
    /// nanos, injection branch)`. The tick schedule and the clock are
    /// fixed at construction, so an entry stays valid until
    /// `ticks_delivered` moves past it.
    pit_memo: Cell<(u64, u64, u64)>,
    /// Memoized [`GuestSlot::next_wake`] projection: `(key, wake nanos)`
    /// where the key captures every input the float inversion depends on
    /// — target branch, synced branch count, sync/resume instants, and
    /// the speed profile's generation. While none of those move (the
    /// common case: a burst of proposal arrivals re-probing the wake
    /// without a sync in between), the cached absolute wake time is
    /// returned with zero float work.
    wake_memo: Cell<Option<(WakeKey, u64)>>,
    next_op_id: u64,
    next_probe_id: u64,
    next_fire_seq: u64,
    /// Armed virtual timers: guest timer id -> live fire sequence number.
    armed: BTreeMap<u64, u64>,
    /// Fires whose hardware event has not elapsed yet: fire sequence
    /// number -> programmed deadline, or `None` once the guest cancelled
    /// the fire (its elapse is then consumed silently). The deadline
    /// outlives the pending entry: StopWatch may deliver a fire from its
    /// peers' proposals before this host's own hardware event elapses.
    hw_fires: FxHashMap<u64, Option<VirtNanos>>,
    out_seq: u64,
    ticks_delivered: u64,
    // Telemetry.
    counters: SlotCounts,
    delivered_log: Vec<(u64, VirtNanos)>,
}

impl std::fmt::Debug for GuestSlot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GuestSlot")
            .field("endpoint", &self.cfg.endpoint)
            .field("branches", &self.branches)
            .field("pc", &self.pc)
            .field("pending", &self.pending.len())
            .finish_non_exhaustive()
    }
}

impl GuestSlot {
    /// Creates a slot for `program` with the given clock and (replicated)
    /// disk image.
    ///
    /// # Panics
    ///
    /// Panics if `exit_every == 0` or a StopWatch mode names fewer than
    /// 3 or an even number of replicas.
    pub fn new(
        program: Box<dyn GuestProgram>,
        cfg: SlotConfig,
        clock: VirtualClock,
        image: DiskImage,
    ) -> Self {
        assert!(cfg.exit_every > 0, "exit_every must be positive");
        if let DefenseMode::StopWatch { replicas, .. } = cfg.mode {
            assert!(
                replicas >= 3 && replicas % 2 == 1,
                "StopWatch needs an odd replica count >= 3"
            );
        }
        let wants_timer = program.wants_timer();
        GuestSlot {
            program,
            cfg,
            clock,
            image,
            branches: 0,
            synced_at: SimTime::ZERO,
            resume_at: SimTime::ZERO,
            pc: 0,
            compute_end: None,
            actions: ActionQueue::new(),
            booted: false,
            pending: PendingTable::default(),
            early: FxHashMap::default(),
            wants_timer,
            pit_memo: Cell::new((0, 0, 0)),
            wake_memo: Cell::new(None),
            next_op_id: 0,
            next_probe_id: 0,
            next_fire_seq: 0,
            armed: BTreeMap::new(),
            hw_fires: FxHashMap::default(),
            out_seq: 0,
            ticks_delivered: 0,
            counters: SlotCounts::default(),
            delivered_log: Vec::new(),
        }
    }

    /// Slot telemetry, one count per [`SlotCounter`].
    pub fn counters(&self) -> &SlotCounts {
        &self.counters
    }

    /// `(ingress seq, virtual delivery time)` of every network interrupt
    /// injected so far — identical across replicas; the attacker's Fig. 4
    /// observable.
    pub fn delivered_log(&self) -> &[(u64, VirtNanos)] {
        &self.delivered_log
    }

    /// A mutable handle to the guest program (for extracting recorded
    /// observations after a run).
    pub fn program_mut(&mut self) -> &mut dyn GuestProgram {
        &mut *self.program
    }

    /// `true` while the guest has queued work (it is computing or doing
    /// I/O rather than idling) — the signal that drives host contention.
    pub fn is_busy(&self) -> bool {
        !self.actions.is_empty()
    }

    /// Physical branch count at arbitrary `now` (read-only projection).
    fn branches_at(&self, profile: &SpeedProfile, now: SimTime) -> u64 {
        let start = self.synced_at.max(self.resume_at);
        if now <= start {
            return self.branches;
        }
        self.branches + profile.branches_between(start, now)
    }

    /// Virtual time at physical `now`.
    pub fn virt_at(&self, profile: &SpeedProfile, now: SimTime) -> VirtNanos {
        self.clock.virt(self.branches_at(profile, now))
    }

    /// Virtual time as of the last guest-caused VM exit before `now` —
    /// what the network device model reads from shared memory when
    /// computing a proposal (Fig. 3).
    fn virt_at_last_exit(&self, profile: &SpeedProfile, now: SimTime) -> VirtNanos {
        let b = self.branches_at(profile, now);
        self.clock.virt(b - b % self.cfg.exit_every)
    }

    /// Stalls guest execution until `t` (fastest-replica pacing, Sec. V-A:
    /// the gap between the two fastest replicas "can be limited by slowing
    /// the execution of the fastest replica").
    pub fn stall_until(&mut self, profile: &SpeedProfile, now: SimTime, t: SimTime) {
        self.sync(profile, now);
        self.resume_at = self.resume_at.max(t);
        self.counters[SlotCounter::Stalls] += 1;
    }

    fn sync(&mut self, profile: &SpeedProfile, now: SimTime) {
        let start = self.synced_at.max(self.resume_at);
        if now > start {
            self.branches += profile.branches_between(start, now);
        }
        self.synced_at = self.synced_at.max(now);
    }

    fn exit_ceil(&self, b: u64) -> u64 {
        b.div_ceil(self.cfg.exit_every) * self.cfg.exit_every
    }

    /// Branch count of the first guest-caused exit at which an interrupt
    /// with virtual delivery time `deliver` can be injected.
    fn injection_branch(&self, deliver: VirtNanos) -> u64 {
        self.exit_ceil(self.clock.instr_for(deliver))
    }

    /// The next PIT tick's `(virtual time, injection branch)`, memoized.
    /// The tick schedule and the clock never change after construction,
    /// so the pair is a pure function of `ticks_delivered` — step queries
    /// share one float inversion per delivered tick instead of redoing it
    /// per call.
    fn pit_candidate(&self) -> (VirtNanos, u64) {
        let n = self.ticks_delivered + 1;
        let (memo_n, tick_ns, branch) = self.pit_memo.get();
        if memo_n == n {
            return (VirtNanos::from_nanos(tick_ns), branch);
        }
        let tick = self.cfg.clocks.pit_tick_time(n);
        let branch = self.injection_branch(tick);
        self.pit_memo.set((n, tick.as_nanos(), branch));
        (tick, branch)
    }

    /// Runs a guest handler at logical position `at_pc`. `irq_timestamp`
    /// is the serviced interrupt's (agreed) delivery time — what the
    /// virtual device's completion register exposes — or `None` outside
    /// interrupt handlers.
    fn run_handler<F>(&mut self, at_pc: u64, irq_timestamp: Option<VirtNanos>, f: F)
    where
        F: FnOnce(&mut dyn GuestProgram, &mut GuestEnv),
    {
        let v = self.clock.virt(at_pc);
        let mut env = GuestEnv::new(
            v,
            irq_timestamp,
            self.cfg.clocks.pit_ticks(v),
            self.cfg.clocks.rdtsc(v),
            self.cfg.clocks.rtc_secs(v),
            at_pc,
            &mut self.actions,
        );
        f(&mut *self.program, &mut env);
    }

    /// Boots the guest and processes any immediately runnable work.
    /// `cache` is the host's shared LLC (every slot on a host gets the
    /// same one).
    ///
    /// # Errors
    ///
    /// Propagates [`SlotError`]s from processing.
    ///
    /// # Panics
    ///
    /// Panics on double boot.
    pub fn boot(
        &mut self,
        profile: &SpeedProfile,
        cache: &mut CacheModel,
        now: SimTime,
    ) -> Result<Vec<SlotOutput>, SlotError> {
        assert!(!self.booted, "double boot");
        self.booted = true;
        self.synced_at = now;
        self.run_handler(0, None, |prog, env| prog.on_boot(env));
        self.process(profile, cache, now)
    }

    /// The slot's next step and the branch position it runs at. The
    /// lowest position wins; ties go by [`Step`] rank (compute completion,
    /// injection, zero-branch action), so replicas choose identically.
    /// Due interrupts are ordered among themselves by `(injection branch,
    /// delivery virt, class rank, id)` (see
    /// [`ChannelKind::injection_rank`]), and one whose branch `pc` already
    /// passed is injected at `pc`. [`GuestSlot::process`] runs the step
    /// once the physical branch count reaches its position, and
    /// [`GuestSlot::next_wake`] wakes the slot then.
    fn next_step(&self) -> Option<(u64, Step)> {
        let head = self.actions.front();
        let mut next = match head {
            Some(GuestAction::Compute { branches }) => Some((
                self.compute_end.unwrap_or(self.pc + branches),
                Step::Complete,
            )),
            _ => None,
        };
        let pit = self.wants_timer.then(|| self.pit_candidate());
        if let Some((branch, _, _, id, kind)) = self.pending.next_due(pit) {
            let pos = branch.max(self.pc);
            if next.is_none_or(|(at, _)| pos < at) {
                next = Some((pos, Step::Inject(kind, id)));
            }
        }
        let zero_branch_head = head.is_some_and(|a| !matches!(a, GuestAction::Compute { .. }));
        if zero_branch_head && next.is_none_or(|(at, _)| self.pc < at) {
            next = Some((self.pc, Step::Act));
        }
        next
    }

    /// Processes everything due at `now`: completes actions, injects due
    /// interrupts, runs handlers. Returns emitted outputs. `cache` is the
    /// host's shared LLC.
    ///
    /// # Errors
    ///
    /// Surfaces malformed channel state ([`SlotError`]) instead of
    /// panicking, so a broken scenario fails its cell only.
    pub fn process(
        &mut self,
        profile: &SpeedProfile,
        cache: &mut CacheModel,
        now: SimTime,
    ) -> Result<Vec<SlotOutput>, SlotError> {
        self.sync(profile, now);
        let phys = self.branches;
        let mut out = Vec::new();
        loop {
            // Pin down the head compute's completion point in pc space.
            // The queue is told: from here on, new computes must not
            // coalesce into this (now executing) entry — its stored
            // branch count is dead, the pinned end below is the truth.
            if self.compute_end.is_none() {
                if let Some(GuestAction::Compute { branches }) = self.actions.front() {
                    self.compute_end = Some(self.pc + branches);
                    self.actions.pin_front();
                }
            }
            let Some((pos, step)) = self.next_step().filter(|&(pos, _)| pos <= phys) else {
                break;
            };
            self.pc = pos;
            match step {
                Step::Complete => {
                    self.compute_end = None;
                    self.actions.pop_front();
                }
                Step::Inject(kind, id) => self.inject(kind, id, &mut out)?,
                Step::Act => {
                    let action = self.actions.pop_front().expect("zero-branch head");
                    self.execute_zero_branch(action, cache, &mut out)?;
                }
            }
        }
        Ok(out)
    }

    fn execute_zero_branch(
        &mut self,
        action: GuestAction,
        cache: &mut CacheModel,
        out: &mut Vec<SlotOutput>,
    ) -> Result<(), SlotError> {
        match action {
            GuestAction::DiskRead { range } => {
                out.push(self.issue_disk(DiskOp::Read, range, 0)?);
            }
            GuestAction::DiskWrite { range, value } => {
                out.push(self.issue_disk(DiskOp::Write, range, value)?);
            }
            GuestAction::Send { dst, body } => {
                let packet = Packet::new(self.cfg.endpoint, dst, body);
                let virt = self.clock.virt(self.pc);
                let seq = self.out_seq;
                self.out_seq += 1;
                out.push(SlotOutput::Packet {
                    out_seq: seq,
                    packet,
                    virt,
                });
            }
            GuestAction::Call { token } => {
                let at_pc = self.pc;
                self.run_handler(at_pc, None, |prog, env| prog.on_call(token, env));
            }
            GuestAction::CacheTouch { set, tag } => {
                cache.touch(self.cfg.endpoint.0, set, tag);
            }
            GuestAction::CacheProbe { set, tag } => {
                let latency = cache.probe(self.cfg.endpoint.0, set, tag);
                self.counters[SlotCounter::CacheProbes] += 1;
                self.counters[if latency == CacheModel::HIT_NS {
                    SlotCounter::CacheHits
                } else {
                    SlotCounter::CacheMisses
                }] += 1;
                let issue_virt = self.clock.virt(self.pc);
                let probe_id = self.next_probe_id;
                self.next_probe_id += 1;
                let payload = ChannelPayload::Cache {
                    set,
                    tag,
                    issue_virt,
                };
                let row = self.open(ChannelKind::Cache, probe_id, payload);
                // The locally measured completion is the observation;
                // under StopWatch it stays hidden until the replicas
                // agree (Fig. 3's flow, cache edition).
                let observed = issue_virt + VirtOffset::from_nanos(latency);
                if let ArrivalOutcome::Proposal(proposal) =
                    self.settle(ChannelKind::Cache, row, observed, Some(issue_virt))
                {
                    out.push(SlotOutput::Proposal {
                        kind: ChannelKind::Cache,
                        seq: probe_id,
                        proposal,
                    });
                }
            }
            GuestAction::SetTimer {
                timer_id,
                deadline,
                period,
            } => {
                let now_virt = self.clock.virt(self.pc);
                if deadline <= now_virt || period.is_some_and(|p| p.as_nanos() == 0) {
                    // A zero (or otherwise non-future) deadline and a
                    // zero period are guest programming errors: surface a
                    // structured failure that fails this sweep cell, not
                    // a panic that takes down the whole sweep.
                    return Err(SlotError::BadTimerDeadline { timer_id, deadline });
                }
                self.arm_timer(timer_id, deadline, period, out);
            }
            GuestAction::CancelTimer { timer_id } => {
                // Unknown ids are a silent no-op; a cancel that logically
                // follows the fire loses the race identically on every
                // replica (the fire's injection sorts before this action).
                if let Some(fire_seq) = self.armed.remove(&timer_id) {
                    self.cancel_fire(fire_seq);
                }
            }
            GuestAction::Compute { .. } => unreachable!("compute handled in main loop"),
        }
        Ok(())
    }

    /// Arms `timer_id` for `deadline` (replacing any live arm of the same
    /// id) and emits the [`SlotOutput::TimerArm`] the host turns into a
    /// hardware timer event. The pending entry opens *now*, on every
    /// replica, at the same logical point — which is why early peer timer
    /// proposals can always be buffered (see
    /// [`ChannelKind::buffers_early`]). The fire time is settled when the
    /// hardware event elapses (see `timer_elapsed`).
    fn arm_timer(
        &mut self,
        timer_id: u64,
        deadline: VirtNanos,
        period: Option<VirtOffset>,
        out: &mut Vec<SlotOutput>,
    ) {
        if let Some(old) = self.armed.remove(&timer_id) {
            self.cancel_fire(old);
        }
        let fire_seq = self.next_fire_seq;
        self.next_fire_seq += 1;
        self.armed.insert(timer_id, fire_seq);
        self.hw_fires.insert(fire_seq, Some(deadline));
        self.counters[SlotCounter::TimerArms] += 1;
        let payload = ChannelPayload::Timer {
            timer_id,
            deadline,
            period,
        };
        self.open(ChannelKind::Timer, fire_seq, payload);
        out.push(SlotOutput::TimerArm { fire_seq, deadline });
    }

    /// Forgets a live fire: its pending entry, any buffered early peer
    /// proposals, and marks it so a still-scheduled hardware event is
    /// consumed silently.
    fn cancel_fire(&mut self, fire_seq: u64) {
        self.pending.remove(ChannelKind::Timer, fire_seq);
        self.early.remove(&(ChannelKind::Timer.id(), fire_seq));
        if let Some(deadline) = self.hw_fires.get_mut(&fire_seq) {
            *deadline = None;
        }
    }

    /// Opens the pending entry of `kind`'s event `seq`. Under StopWatch it
    /// awaits every replica's proposal, and peer proposals that outran
    /// this replica are drained into it. The drain can never complete the
    /// proposal set (PGM dedups retransmits, so at most `replicas - 1`
    /// peers are buffered and this replica's own proposal is still
    /// outstanding), so no clamp check is needed here — the zero sentinel
    /// would skip it in the impossible case. Under a local arm the entry
    /// awaits only its own [`GuestSlot::settle`].
    fn open(&mut self, kind: ChannelKind, seq: u64, payload: ChannelPayload) -> Row {
        let DefenseMode::StopWatch { replicas, .. } = self.cfg.mode else {
            return self.pending.insert_agreeing(kind, seq, payload, 1);
        };
        let row = self.pending.insert_agreeing(kind, seq, payload, replicas);
        if let Some(early) = self.early.remove(&(kind.id(), seq)) {
            for p in early {
                self.record_proposal(kind, seq, p, VirtNanos::ZERO);
            }
        }
        row
    }

    /// Settles `kind`'s event `row`, observed locally at `observed` and
    /// anchored at its replica-identical instant `anchor` where it has
    /// one. StopWatch returns this replica's proposal (see
    /// [`GuestSlot::propose`]) for the caller to multicast; a local arm
    /// fixes the delivery at `release.apply(observed, anchor)` at once.
    fn settle(
        &mut self,
        kind: ChannelKind,
        row: Row,
        observed: VirtNanos,
        anchor: Option<VirtNanos>,
    ) -> ArrivalOutcome {
        match self.cfg.mode {
            DefenseMode::StopWatch { .. } => {
                ArrivalOutcome::Proposal(self.propose(kind, observed, anchor))
            }
            DefenseMode::Local { release } => {
                let deliver = release.apply(observed, anchor);
                let branch = self.injection_branch(deliver);
                self.pending.set_deliver(row, deliver, branch);
                ArrivalOutcome::Scheduled
            }
        }
    }

    /// StopWatch's proposal for `kind`'s event observed locally at
    /// `observed`: the release bound `anchor + Δ`, or `observed` when the
    /// local device overran the bound (counted in
    /// [`ChannelKind::overrun_counter`]). The anchor is replica-identical,
    /// so proposals differ only where local devices do. A packet has no
    /// anchor: its proposal is `observed + Δn`.
    fn propose(
        &mut self,
        kind: ChannelKind,
        observed: VirtNanos,
        anchor: Option<VirtNanos>,
    ) -> VirtNanos {
        let delta = self
            .cfg
            .mode
            .offset(kind)
            .expect("only StopWatch proposes: a local arm settles its own entry");
        let Some(anchor) = anchor else {
            return observed + delta;
        };
        let bound = anchor + delta;
        if bound >= observed {
            return bound;
        }
        if let Some(counter) = kind.overrun_counter() {
            self.counters[counter] += 1;
        }
        observed
    }

    fn inject(
        &mut self,
        kind: Option<ChannelKind>,
        id: u64,
        out: &mut Vec<SlotOutput>,
    ) -> Result<(), SlotError> {
        let at_pc = self.pc;
        let Some(kind) = kind else {
            let tick = self.cfg.clocks.pit_tick_time(self.ticks_delivered + 1);
            self.ticks_delivered += 1;
            self.run_handler(at_pc, Some(tick), |prog, env| prog.on_timer(env));
            return Ok(());
        };
        let (payload, deliver) = self
            .pending
            .remove(kind, id)
            .ok_or(SlotError::MissingDelivery { kind, id })?;
        let deliver = deliver.ok_or(SlotError::MissingDelivery { kind, id })?;
        self.counters[SlotCounter::irq(kind)] += 1;
        match payload {
            ChannelPayload::Net { packet } => {
                self.delivered_log.push((id, deliver));
                self.run_handler(at_pc, Some(deliver), |prog, env| {
                    prog.on_packet(&packet, env)
                });
            }
            ChannelPayload::Cache {
                set,
                tag,
                issue_virt,
            } => {
                // The readout the guest sees: agreed completion minus the
                // (replica-identical) issue instant — a pure function of
                // agreed values, so all replicas observe the same latency.
                let latency_ns = (deliver - issue_virt).as_nanos();
                self.run_handler(at_pc, Some(deliver), |prog, env| {
                    prog.on_cache_probe(set, tag, latency_ns, env)
                });
            }
            ChannelPayload::Disk {
                op, range, data, ..
            } => {
                // Data is copied into the guest address space only now (no
                // early polling, Sec. V-A).
                let data = data.ok_or(SlotError::MissingDiskData { op_id: id })?;
                self.run_handler(at_pc, Some(deliver), |prog, env| {
                    prog.on_disk_done(op, range, &data, env)
                });
            }
            ChannelPayload::Timer {
                timer_id,
                deadline,
                period,
            } => {
                if self.armed.get(&timer_id) == Some(&id) {
                    self.armed.remove(&timer_id);
                }
                self.run_handler(at_pc, Some(deliver), |prog, env| {
                    prog.on_vtimer(timer_id, env)
                });
                if let Some(p) = period {
                    // Periodic mode: re-arm from the *programmed* deadline
                    // (not the delivery time), catching up past periods so
                    // a delivery median beyond deadline+period cannot wedge
                    // the timer. `pc` is logical, so the catch-up target is
                    // replica-identical.
                    let now_virt = self.clock.virt(self.pc);
                    let mut next = deadline;
                    while next <= now_virt {
                        next = VirtNanos::from_nanos(
                            next.as_nanos()
                                .checked_add(p.as_nanos())
                                .ok_or(SlotError::TimerOverflow { timer_id })?,
                        );
                    }
                    self.arm_timer(timer_id, next, Some(p), out);
                }
            }
        }
        Ok(())
    }

    fn issue_disk(
        &mut self,
        op: DiskOp,
        range: BlockRange,
        value: u64,
    ) -> Result<SlotOutput, SlotError> {
        let image_blocks = self.image.size_blocks();
        if range.end().0 > image_blocks {
            return Err(SlotError::DiskPastImage {
                end: range.end().0,
                image_blocks,
            });
        }
        if op == DiskOp::Write {
            self.image.write(range, value);
        }
        let op_id = self.next_op_id;
        self.next_op_id += 1;
        let payload = ChannelPayload::Disk {
            op,
            range,
            issue_virt: self.clock.virt(self.pc),
            data: None,
        };
        // Settled when the host transfer finishes (see `disk_ready`).
        // Under StopWatch, peers with faster disks may already have
        // proposed this op.
        self.open(ChannelKind::Disk, op_id, payload);
        Ok(SlotOutput::DiskSubmit {
            op_id,
            request: DiskRequest { op, range },
        })
    }

    /// An inbound packet reached this host's device model (step 1 of
    /// Fig. 3). Under StopWatch it is hidden from the guest and a delivery
    /// proposal is returned for multicast; under a local arm it is
    /// scheduled at the release-shaped arrival time.
    pub fn on_packet_arrival(
        &mut self,
        profile: &SpeedProfile,
        now: SimTime,
        ingress_seq: u64,
        packet: Packet,
    ) -> ArrivalOutcome {
        let row = self.open(
            ChannelKind::Net,
            ingress_seq,
            ChannelPayload::Net { packet },
        );
        // StopWatch's device model reads virtual time as of the last exit
        // (Fig. 3); a local arm observes the arrival's current virtual
        // time. An external arrival has no replica-identical anchor.
        let observed = match self.cfg.mode {
            DefenseMode::StopWatch { .. } => self.virt_at_last_exit(profile, now),
            DefenseMode::Local { .. } => self.virt_at(profile, now),
        };
        self.settle(ChannelKind::Net, row, observed, None)
    }

    /// The host disk finished a transfer for `op_id`; the device model's
    /// hidden buffer now holds the data.
    ///
    /// Under StopWatch this VMM now proposes the op's delivery timestamp
    /// — `issue virt + Δd`, or the current virtual time if the local disk
    /// overran Δd (sized too small, paper Sec. V-A: `dd_violations`
    /// counts it) — and the caller multicasts it; delivery happens at the
    /// replica median, so one contended disk cannot shift what any guest
    /// observes. Under a local arm the release-shaped completion is
    /// scheduled.
    ///
    /// # Errors
    ///
    /// [`SlotError::UnknownDiskOp`] when `op_id` is not in flight.
    pub fn disk_ready(
        &mut self,
        profile: &SpeedProfile,
        now: SimTime,
        op_id: u64,
    ) -> Result<ArrivalOutcome, SlotError> {
        let observed = self.virt_at(profile, now);
        let image = &self.image;
        let Some(row) = self.pending.row(ChannelKind::Disk, op_id) else {
            return Err(SlotError::UnknownDiskOp { op_id });
        };
        let issue_virt = {
            let ChannelPayload::Disk {
                op,
                range,
                issue_virt,
                data,
            } = self.pending.payload_mut(row)
            else {
                return Err(SlotError::UnknownDiskOp { op_id });
            };
            *data = Some(match *op {
                DiskOp::Read => image.read(*range),
                DiskOp::Write => Vec::new(),
            });
            *issue_virt
        };
        self.pending.set_ready(row);
        Ok(self.settle(ChannelKind::Disk, row, observed, Some(issue_virt)))
    }

    /// The host's hardware timer elapsed for `fire_seq` and the vCPU
    /// scheduler dispatched this slot after `sched_delay` of run-queue
    /// wait (zero on an uncontended host).
    ///
    /// Under StopWatch this VMM now proposes the fire's delivery
    /// timestamp — `deadline + Δt`, or the locally observed fire time if
    /// dispatch overran Δt (sized too small: `dt_violations` counts it) —
    /// and the caller multicasts it; delivery happens at the replica
    /// median, so one contended scheduler cannot shift what any guest's
    /// timer observes. Under a local arm the fire is delivered at the
    /// release-shaped local dispatch time; under baseline that includes
    /// the scheduler jitter — the leak the timer workload measures.
    ///
    /// Returns `Ok(None)` for a fire the guest cancelled after its
    /// hardware event was scheduled (the cancel already ran identically
    /// on every replica).
    ///
    /// A StopWatch fire may already be delivered when its hardware event
    /// elapses: a median-determining majority of peer proposals fixed it
    /// (see [`ChannelKind::fixes_on_majority`]) and it was injected. Its
    /// proposal is still returned, because with five replicas a peer may
    /// still need it; this slot's own [`GuestSlot::add_proposals`] drops
    /// it as a stray.
    ///
    /// # Errors
    ///
    /// [`SlotError::UnknownTimerFire`] when `fire_seq` was never armed or
    /// already elapsed.
    pub fn timer_elapsed(
        &mut self,
        profile: &SpeedProfile,
        now: SimTime,
        fire_seq: u64,
        sched_delay: VirtOffset,
    ) -> Result<Option<ArrivalOutcome>, SlotError> {
        let deadline = match self.hw_fires.remove(&fire_seq) {
            Some(Some(deadline)) => deadline,
            Some(None) => return Ok(None),
            None => return Err(SlotError::UnknownTimerFire { fire_seq }),
        };
        if sched_delay.as_nanos() > 0 {
            self.counters[SlotCounter::SchedPreemptions] += 1;
        }
        // The locally observed fire: the programmed deadline plus however
        // long the run queue held this vCPU (plus any lag of the hardware
        // event itself). Identity leaks that jitter (baseline); an epoch
        // boundary, a bucket grid or the replica median hides it.
        let observed = (deadline + sched_delay).max(self.virt_at(profile, now));
        let anchor = Some(deadline);
        let outcome = match self.pending.row(ChannelKind::Timer, fire_seq) {
            Some(row) => self.settle(ChannelKind::Timer, row, observed, anchor),
            // Already delivered from the peers' proposals (see above).
            None => ArrivalOutcome::Proposal(self.propose(ChannelKind::Timer, observed, anchor)),
        };
        Ok(Some(outcome))
    }

    /// Physical time at which this slot's virtual clock first reaches `v`
    /// — how the host schedules a virtual timer's hardware event.
    pub fn phys_at_virt(&self, profile: &SpeedProfile, now: SimTime, v: VirtNanos) -> SimTime {
        self.reach_time(profile, now, self.clock.instr_for(v))
            .unwrap_or(now.max(self.resume_at))
    }

    /// The instant, from `now` on, at which the slot's branch trajectory
    /// reaches `target`; `None` when it already has. The profile's float
    /// inversion can land a branch or two short, so the instant is nudged
    /// forward until the projection reaches the target: a wake then finds
    /// its step due, and a timer's hardware event reads virt >= its
    /// deadline.
    fn reach_time(&self, profile: &SpeedProfile, now: SimTime, target: u64) -> Option<SimTime> {
        let phys = self.branches_at(profile, now);
        if target <= phys {
            return None;
        }
        let mut t = profile.time_for_branches(now.max(self.resume_at), target - phys);
        for _ in 0..16 {
            if self.branches_at(profile, t) >= target {
                break;
            }
            t += SimDuration::from_nanos(2);
        }
        Some(t)
    }

    /// Records a burst of delivery-time proposals that reached this
    /// replica together: this VMM's own proposal (a one-entry burst) or
    /// one PGM packet's delivered backlog. For each entry, when all
    /// proposals for channel `kind`'s event `seq` are in, adopts the
    /// median. One virtual-clock read covers the whole batch, and every
    /// event whose proposal set completes gets its median fixed by an
    /// in-place selection over its own proposal buffer — no per-event
    /// clone-and-sort. Returns how many of the batch's events now have a
    /// fixed delivery time (including ones that already had one), i.e.
    /// whether the caller needs to recompute the slot's wake.
    ///
    /// A proposal arriving before this replica opened the matching entry
    /// (a peer outran us) is buffered and drained at open — dropping it
    /// would deadlock the agreement. Whether an already-passed median is
    /// clamped to "now" (and counted) is the channel's
    /// [`ChannelKind::clamp_counter`].
    ///
    /// A burst leaves exactly the state of one single-entry burst per
    /// entry at the same `now`: all entries see the same current virtual
    /// time either way, and fixing one event's delivery never affects
    /// another event's proposals.
    pub fn add_proposals(
        &mut self,
        profile: &SpeedProfile,
        now: SimTime,
        batch: impl IntoIterator<Item = (ChannelKind, u64, VirtNanos)>,
    ) -> usize {
        let cur_virt = self.virt_at(profile, now);
        batch
            .into_iter()
            .filter(|&(kind, seq, proposal)| self.record_proposal(kind, seq, proposal, cur_virt))
            .count()
    }

    /// `true` when `seq` lies below `kind`'s local allocation cursor —
    /// i.e. this replica already opened (and since closed) the entry, so
    /// a proposal for it is a stray, not an early peer.
    fn already_opened(&self, kind: ChannelKind, seq: u64) -> bool {
        let next = match kind {
            ChannelKind::Cache => self.next_probe_id,
            ChannelKind::Disk => self.next_op_id,
            ChannelKind::Timer => self.next_fire_seq,
            // Net ids are ingress-assigned, not locally allocated (and
            // net never buffers early proposals anyway).
            ChannelKind::Net => return false,
        };
        seq < next
    }

    /// The median-agreement core shared by every channel, behind
    /// [`GuestSlot::add_proposals`]. `cur_virt` is the replica's current
    /// virtual time (read once per batch).
    fn record_proposal(
        &mut self,
        kind: ChannelKind,
        seq: u64,
        proposal: VirtNanos,
        cur_virt: VirtNanos,
    ) -> bool {
        let Some(row) = self.pending.row(kind, seq) else {
            // A peer outran this replica: it proposed an event ours has
            // not opened yet. Guest-initiated channels buffer it for the
            // guaranteed local open; net entries are created by an
            // external arrival that a lossy fabric may never deliver, so
            // their strays are dropped instead of leaking in the buffer.
            // An id *below* the kind's local allocation cursor was already
            // opened here (opens are in id order) and has since been
            // delivered or cancelled — also a stray, never re-buffered.
            if kind.buffers_early() && !self.already_opened(kind, seq) {
                self.early
                    .entry((kind.id(), seq))
                    .or_default()
                    .push(proposal);
            }
            return false;
        };
        if self.pending.deliver_of(row).is_some() {
            return true;
        }
        let (received_len, needed, determined) = {
            let (received, needed) = self.pending.push_proposal(row, proposal);
            // A virtual-time-gated channel (timer) fixes delivery the
            // moment the received proposals *determine* the median: the
            // still-missing proposals come from replicas whose virtual
            // clocks lag (contended hosts), and gating injection on them
            // would push the fast replicas' next fires — and thus the next
            // median — ever later. Late stragglers hit the delivered
            // fast-path above or the `already_opened` stray filter.
            let determined = if received.len() < needed && kind.fixes_on_majority() {
                median_if_determined(received, needed)
            } else {
                None
            };
            (received.len(), needed, determined)
        };
        let median = if received_len < needed {
            match determined {
                Some(m) => m,
                None => return false,
            }
        } else {
            // All proposals are in: adopt the median by selecting the
            // middle element in place (the buffer is dead after this).
            self.pending.median_full(row)
        };
        let fixed = match kind.clamp_counter().filter(|_| median < cur_virt) {
            Some(counter) => {
                // The agreed time already passed in this replica's virtual
                // time: the synchrony assumption was violated (paper
                // footnote 4); deliver now and count it.
                self.counters[counter] += 1;
                cur_virt
            }
            None => median,
        };
        // The injection branch is fixed here, once, alongside the
        // delivery time; step queries reuse the cached value.
        let branch = self.injection_branch(fixed);
        self.pending.set_deliver(row, fixed, branch);
        true
    }

    /// Early-buffered peer proposals currently awaiting a local open —
    /// the quantity the buffer-leak regression property pins to zero
    /// after every entry is opened or retired.
    pub fn early_buffered(&self) -> usize {
        self.early.values().map(Vec::len).sum()
    }

    /// The next absolute time at which this slot needs to run: when the
    /// physical branch count reaches its next step's position (`None` =
    /// fully idle until new input).
    pub fn next_wake(&self, profile: &SpeedProfile, now: SimTime) -> Option<SimTime> {
        let (target, _) = self.next_step()?;
        let start = now.max(self.resume_at);
        // The wake instant is the earliest time the slot's branch
        // trajectory reaches `target` — a function of the slot's synced
        // state and the profile, not of the probing `now` (as long as
        // `now` has not yet passed the wake). Memoize it on exactly those
        // inputs so proposal bursts that re-probe the wake between syncs
        // skip the float inversion entirely.
        let key: WakeKey = (
            target,
            self.branches,
            self.synced_at.as_nanos(),
            self.resume_at.as_nanos(),
            profile.generation(),
        );
        if let Some((k, wake_ns)) = self.wake_memo.get() {
            let t = SimTime::from_nanos(wake_ns);
            if k == key && now <= t {
                return Some(t.max(start));
            }
        }
        let Some(t) = self.reach_time(profile, now, target) else {
            return Some(start);
        };
        self.wake_memo.set(Some((key, t.as_nanos())));
        Some(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheModel;
    use crate::guest::IdleGuest;
    use netsim::packet::Body;
    use simkit::rng::SimRng;
    use simkit::time::SimDuration;

    fn profile() -> SpeedProfile {
        // 1e9 branches/s, no jitter: 1 branch = 1 ns.
        SpeedProfile::new(
            1.0e9,
            0.0,
            SimDuration::from_millis(10),
            SimRng::new(1).stream("h"),
        )
    }

    fn stopwatch_cfg() -> SlotConfig {
        SlotConfig {
            endpoint: EndpointId(7),
            exit_every: 50_000, // 50 us at 1e9 b/s
            mode: DefenseMode::StopWatch {
                delta_n: VirtOffset::from_millis(10),
                delta_d: VirtOffset::from_millis(10),
                delta_t: VirtOffset::from_millis(10),
                replicas: 3,
            },
            clocks: PlatformClocks::default(),
        }
    }

    fn clock() -> VirtualClock {
        VirtualClock::new(VirtNanos::ZERO, 1.0)
    }

    /// A guest that echoes each packet back to its sender and records the
    /// virtual receive times.
    #[derive(Default)]
    struct EchoGuest {
        recv_virt: Vec<VirtNanos>,
    }

    impl GuestProgram for EchoGuest {
        fn on_packet(&mut self, packet: &Packet, env: &mut GuestEnv) {
            self.recv_virt.push(env.now);
            env.send(packet.src(), Body::Raw { tag: 1, len: 64 });
        }
    }

    /// A guest that reads a block at boot, then computes, then writes.
    struct DiskGuest;
    impl GuestProgram for DiskGuest {
        fn on_boot(&mut self, env: &mut GuestEnv) {
            env.disk_read(BlockRange::new(0, 4));
        }
        fn on_disk_done(&mut self, op: DiskOp, _r: BlockRange, _d: &[u64], env: &mut GuestEnv) {
            if op == DiskOp::Read {
                env.compute(1_000_000);
                env.disk_write(BlockRange::new(10, 1), 99);
            }
        }
    }

    fn slot_with(program: Box<dyn GuestProgram>, mode: DefenseMode) -> GuestSlot {
        let mut cfg = stopwatch_cfg();
        cfg.mode = mode;
        GuestSlot::new(program, cfg, clock(), DiskImage::new(1 << 20))
    }

    #[test]
    fn idle_guest_has_no_wake() {
        let p = profile();
        let mut cache = CacheModel::new(8, 2);
        let mut slot = slot_with(Box::new(IdleGuest), DefenseMode::baseline());
        let out = slot.boot(&p, &mut cache, SimTime::ZERO).expect("boot");
        assert!(out.is_empty());
        assert_eq!(slot.next_wake(&p, SimTime::ZERO), None);
    }

    #[test]
    fn virt_advances_while_idle() {
        let p = profile();
        let mut cache = CacheModel::new(8, 2);
        let mut slot = slot_with(Box::new(IdleGuest), DefenseMode::baseline());
        slot.boot(&p, &mut cache, SimTime::ZERO).expect("boot");
        let v1 = slot.virt_at(&p, SimTime::from_millis(1));
        let v2 = slot.virt_at(&p, SimTime::from_millis(5));
        assert!(v2 > v1, "idle loop must keep virtual time moving");
        assert_eq!(v2.as_nanos(), 5_000_000); // slope 1, 1 branch/ns
    }

    #[test]
    fn virt_at_last_exit_quantizes() {
        let p = profile();
        let mut cache = CacheModel::new(8, 2);
        let mut slot = slot_with(Box::new(IdleGuest), DefenseMode::baseline());
        slot.boot(&p, &mut cache, SimTime::ZERO).expect("boot");
        // At t=123.456us, branches=123456; last exit at 100000.
        let v = slot.virt_at_last_exit(&p, SimTime::from_nanos(123_456));
        assert_eq!(v.as_nanos(), 100_000);
    }

    #[test]
    fn stopwatch_packet_needs_median_before_delivery() {
        let p = profile();
        let mut cache = CacheModel::new(8, 2);
        let mut slot = slot_with(Box::<EchoGuest>::default(), stopwatch_cfg().mode);
        slot.boot(&p, &mut cache, SimTime::ZERO).expect("boot");
        let pkt = Packet::new(EndpointId(1), EndpointId(7), Body::Raw { tag: 0, len: 100 });
        let t_arr = SimTime::from_millis(1);
        let outcome = slot.on_packet_arrival(&p, t_arr, 0, pkt);
        let ArrivalOutcome::Proposal(own) = outcome else {
            panic!("expected proposal")
        };
        // Own proposal = last-exit virt + Δn = 1ms floored to exit + 10ms.
        assert_eq!(own.as_nanos(), 1_000_000 + 10_000_000);
        // No delivery scheduled until all three proposals arrive.
        assert_eq!(slot.next_wake(&p, t_arr), None);
        assert!(slot.add_proposals(&p, t_arr, [(ChannelKind::Net, 0, own)]) == 0);
        assert!(
            slot.add_proposals(
                &p,
                t_arr,
                [(ChannelKind::Net, 0, VirtNanos::from_nanos(11_500_000))]
            ) == 0
        );
        assert!(
            slot.add_proposals(
                &p,
                t_arr,
                [(ChannelKind::Net, 0, VirtNanos::from_nanos(12_000_000))]
            ) > 0
        );
        // Median of {11.0ms, 11.5ms, 12.0ms} = 11.5ms.
        let wake = slot.next_wake(&p, t_arr).expect("delivery scheduled");
        // Injection at first exit with virt >= 11.5ms => branch 11.5e6
        // (already a multiple of 50k), at 1 branch/ns => t ~= 11.5ms.
        let ns = wake.as_nanos();
        assert!((11_500_000..11_500_050).contains(&ns), "wake at {ns}");
        // Process at the wake: packet injected, echo emitted.
        let out = slot.process(&p, &mut cache, wake).expect("process");
        assert_eq!(out.len(), 1);
        match &out[0] {
            SlotOutput::Packet {
                out_seq,
                packet,
                virt,
            } => {
                assert_eq!(*out_seq, 0);
                assert_eq!(packet.src(), EndpointId(7));
                assert_eq!(virt.as_nanos(), 11_500_000);
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(slot.counters()[SlotCounter::NetIrq], 1);
        assert_eq!(slot.delivered_log().len(), 1);
        assert_eq!(slot.delivered_log()[0].1.as_nanos(), 11_500_000);
    }

    #[test]
    fn baseline_packet_delivers_at_next_exit() {
        let p = profile();
        let mut cache = CacheModel::new(8, 2);
        let mut slot = slot_with(Box::<EchoGuest>::default(), DefenseMode::baseline());
        slot.boot(&p, &mut cache, SimTime::ZERO).expect("boot");
        let pkt = Packet::new(EndpointId(1), EndpointId(7), Body::Raw { tag: 0, len: 100 });
        slot.on_packet_arrival(&p, SimTime::from_micros(130), 0, pkt);
        let wake = slot.next_wake(&p, SimTime::from_micros(130)).unwrap();
        // Delivery virt = 130us; next exit boundary at 150us (float
        // integration may land a nanosecond or two past it).
        let ns = wake.as_nanos();
        assert!((150_000..150_050).contains(&ns), "wake at {ns}");
        let out = slot.process(&p, &mut cache, wake).expect("process");
        assert_eq!(out.len(), 1, "echo reply");
    }

    #[test]
    fn median_already_passed_counts_sync_violation() {
        let p = profile();
        let mut cache = CacheModel::new(8, 2);
        let mut slot = slot_with(Box::<EchoGuest>::default(), stopwatch_cfg().mode);
        slot.boot(&p, &mut cache, SimTime::ZERO).expect("boot");
        let pkt = Packet::new(EndpointId(1), EndpointId(7), Body::Raw { tag: 0, len: 100 });
        slot.on_packet_arrival(&p, SimTime::from_millis(1), 0, pkt);
        // Peers propose times far in this replica's past.
        let late = SimTime::from_millis(50);
        let two_ms = VirtNanos::from_millis(2);
        slot.add_proposals(&p, late, [(ChannelKind::Net, 0, two_ms)]);
        slot.add_proposals(&p, late, [(ChannelKind::Net, 0, two_ms)]);
        assert!(slot.add_proposals(&p, late, [(ChannelKind::Net, 0, two_ms)]) > 0);
        assert_eq!(slot.counters()[SlotCounter::SyncViolations], 1);
        // Still delivered (recovery), at current virt.
        let wake = slot.next_wake(&p, late).unwrap();
        let out = slot.process(&p, &mut cache, wake).expect("process");
        assert_eq!(out.len(), 1);
    }

    /// Feeds a disk op's own proposal back plus two peers at the same
    /// timestamp — the common case where every replica's disk met Δd and
    /// proposed `issue + Δd` exactly.
    fn agree_disk(slot: &mut GuestSlot, p: &SpeedProfile, now: SimTime, op: u64, at: VirtNanos) {
        for _ in 0..3 {
            slot.add_proposals(p, now, [(ChannelKind::Disk, op, at)]);
        }
    }

    #[test]
    fn disk_flow_with_delta_d() {
        let p = profile();
        let mut cache = CacheModel::new(8, 2);
        let mut slot = slot_with(Box::new(DiskGuest), stopwatch_cfg().mode);
        let out = slot.boot(&p, &mut cache, SimTime::ZERO).expect("boot");
        // Boot issues the read immediately.
        assert_eq!(out.len(), 1);
        let SlotOutput::DiskSubmit { op_id, request } = &out[0] else {
            panic!("expected disk submit")
        };
        assert_eq!(request.op, DiskOp::Read);
        // Data ready at 3ms (before issue + Δd = 10ms): the VMM proposes
        // the Δd release point, no violation.
        let t_ready = SimTime::from_millis(3);
        let outcome = slot.disk_ready(&p, t_ready, *op_id).expect("known op");
        let ArrivalOutcome::Proposal(own) = outcome else {
            panic!("stopwatch disk completion proposes")
        };
        assert_eq!(own.as_nanos(), 10_000_000, "proposal = issue + Δd");
        assert_eq!(slot.counters()[SlotCounter::DdViolations], 0);
        // No injection until the replicas agree.
        assert_eq!(slot.next_wake(&p, t_ready), None);
        agree_disk(&mut slot, &p, t_ready, *op_id, own);
        let wake = slot.next_wake(&p, t_ready).unwrap();
        let ns = wake.as_nanos();
        assert!(
            (10_000_000..10_000_050).contains(&ns),
            "V + Δd wake at {ns}"
        );
        let out2 = slot.process(&p, &mut cache, wake).expect("process");
        // Handler queues compute + write; the write issues after 1M
        // branches = 1ms later, so not yet.
        assert!(out2.is_empty());
        let wake2 = slot.next_wake(&p, wake).unwrap();
        let ns2 = wake2.as_nanos();
        assert!((11_000_000..11_000_050).contains(&ns2), "wake2 at {ns2}");
        let out3 = slot.process(&p, &mut cache, wake2).expect("process");
        assert_eq!(out3.len(), 1);
        assert!(matches!(out3[0], SlotOutput::DiskSubmit { .. }));
        assert_eq!(slot.counters()[SlotCounter::DiskIrq], 1);
    }

    #[test]
    fn slow_disk_counts_dd_violation_but_median_prevails() {
        let p = profile();
        let mut cache = CacheModel::new(8, 2);
        let mut slot = slot_with(Box::new(DiskGuest), stopwatch_cfg().mode);
        let out = slot.boot(&p, &mut cache, SimTime::ZERO).expect("boot");
        let SlotOutput::DiskSubmit { op_id, .. } = &out[0] else {
            panic!()
        };
        // Data only ready at 25ms — the local disk overran Δd (10ms), so
        // this replica proposes "now" and counts the violation...
        let t_ready = SimTime::from_millis(25);
        let ArrivalOutcome::Proposal(own) = slot.disk_ready(&p, t_ready, *op_id).expect("known op")
        else {
            panic!("proposal expected")
        };
        assert_eq!(own.as_nanos(), 25_000_000);
        assert_eq!(slot.counters()[SlotCounter::DdViolations], 1);
        // ...but the two peers met Δd, so the agreed median is the Δd
        // release point — in this replica's past. No clamp for disk: the
        // interrupt fires at the next exit while the *agreed* timestamp
        // stays replica-identical (no divergence).
        slot.add_proposals(&p, t_ready, [(ChannelKind::Disk, *op_id, own)]);
        let peer = VirtNanos::from_millis(10);
        slot.add_proposals(&p, t_ready, [(ChannelKind::Disk, *op_id, peer)]);
        assert!(slot.add_proposals(&p, t_ready, [(ChannelKind::Disk, *op_id, peer)]) > 0);
        let wake = slot.next_wake(&p, t_ready).unwrap();
        assert_eq!(wake, SimTime::from_millis(25), "fires at the next exit");
        slot.process(&p, &mut cache, wake).expect("process");
        assert_eq!(slot.counters()[SlotCounter::DiskIrq], 1);
    }

    #[test]
    fn early_peer_disk_proposals_are_buffered_until_local_issue() {
        // Peers' disks finished before this replica's guest even issued
        // the op (it runs on a slower host): the proposals must survive.
        let p = profile();
        let mut cache = CacheModel::new(8, 2);
        let mut slot = slot_with(Box::new(DiskGuest), stopwatch_cfg().mode);
        let peer = VirtNanos::from_millis(10);
        assert!(slot.add_proposals(&p, SimTime::ZERO, [(ChannelKind::Disk, 0, peer)]) == 0);
        assert!(slot.add_proposals(&p, SimTime::ZERO, [(ChannelKind::Disk, 0, peer)]) == 0);
        let out = slot.boot(&p, &mut cache, SimTime::ZERO).expect("boot");
        let SlotOutput::DiskSubmit { op_id, .. } = &out[0] else {
            panic!()
        };
        let t_ready = SimTime::from_millis(3);
        let ArrivalOutcome::Proposal(own) = slot.disk_ready(&p, t_ready, *op_id).expect("known op")
        else {
            panic!()
        };
        // Our own proposal completes the drained set of three.
        assert!(slot.add_proposals(&p, t_ready, [(ChannelKind::Disk, *op_id, own)]) > 0);
        let wake = slot.next_wake(&p, t_ready).expect("agreed");
        slot.process(&p, &mut cache, wake).expect("process");
        assert_eq!(slot.counters()[SlotCounter::DiskIrq], 1);
    }

    #[test]
    fn baseline_disk_delivers_when_ready() {
        let p = profile();
        let mut cache = CacheModel::new(8, 2);
        let mut slot = slot_with(Box::new(DiskGuest), DefenseMode::baseline());
        let out = slot.boot(&p, &mut cache, SimTime::ZERO).expect("boot");
        let SlotOutput::DiskSubmit { op_id, .. } = &out[0] else {
            panic!()
        };
        let t_ready = SimTime::from_millis(3);
        let outcome = slot.disk_ready(&p, t_ready, *op_id).expect("known op");
        assert_eq!(
            outcome,
            ArrivalOutcome::Scheduled,
            "baseline never proposes"
        );
        assert_eq!(slot.counters()[SlotCounter::DdViolations], 0);
        let wake = slot.next_wake(&p, t_ready).unwrap();
        let ns = wake.as_nanos();
        assert!((3_000_000..3_050_050).contains(&ns), "ready-time wake {ns}");
        slot.process(&p, &mut cache, wake).expect("process");
        assert_eq!(slot.counters()[SlotCounter::DiskIrq], 1);
    }

    /// A guest that reads a block at boot and logs the interrupt classes
    /// it services, in order.
    #[derive(Default)]
    struct IrqLogGuest {
        log: Vec<&'static str>,
    }
    impl GuestProgram for IrqLogGuest {
        fn on_boot(&mut self, env: &mut GuestEnv) {
            env.disk_read(BlockRange::new(0, 1));
        }
        fn on_disk_done(&mut self, _op: DiskOp, _r: BlockRange, _d: &[u64], _env: &mut GuestEnv) {
            self.log.push("disk");
        }
        fn on_packet(&mut self, _packet: &Packet, _env: &mut GuestEnv) {
            self.log.push("net");
        }
        fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
            Some(self)
        }
    }

    #[test]
    fn tied_disk_and_net_injections_run_in_rank_order() {
        // A disk completion and a packet observed at the same instant fix
        // the same delivery time and injection branch; `process` injects
        // them in class-rank order (disk before net) whichever of the two
        // was settled first.
        let p = profile();
        for disk_first in [true, false] {
            let mut cache = CacheModel::new(8, 2);
            let mut slot = slot_with(Box::<IrqLogGuest>::default(), DefenseMode::baseline());
            let out = slot.boot(&p, &mut cache, SimTime::ZERO).expect("boot");
            let [SlotOutput::DiskSubmit { op_id, .. }] = &out[..] else {
                panic!("one disk submit at boot: {out:?}");
            };
            let op_id = *op_id;
            let now = SimTime::from_millis(3);
            let pkt = Packet::new(EndpointId(1), EndpointId(7), Body::Raw { tag: 0, len: 100 });
            if disk_first {
                slot.disk_ready(&p, now, op_id).expect("known op");
                slot.on_packet_arrival(&p, now, 0, pkt);
            } else {
                slot.on_packet_arrival(&p, now, 0, pkt);
                slot.disk_ready(&p, now, op_id).expect("known op");
            }
            let fixed: Vec<_> = slot
                .pending
                .snapshot()
                .into_iter()
                .map(|(.., fixed)| fixed)
                .collect();
            assert_eq!(fixed.len(), 2);
            assert!(
                fixed[0].is_some() && fixed[0] == fixed[1],
                "one delivery time and injection branch: {fixed:?}"
            );
            let wake = slot.next_wake(&p, now).expect("two due interrupts");
            slot.process(&p, &mut cache, wake).expect("process");
            let guest = slot
                .program_mut()
                .as_any_mut()
                .and_then(|g| g.downcast_mut::<IrqLogGuest>())
                .expect("irq logger");
            assert_eq!(
                guest.log,
                ["disk", "net"],
                "disk settled first: {disk_first}"
            );
        }
    }

    #[test]
    fn unknown_disk_op_is_a_structured_error_not_a_panic() {
        let p = profile();
        let mut cache = CacheModel::new(8, 2);
        let mut slot = slot_with(Box::new(DiskGuest), stopwatch_cfg().mode);
        slot.boot(&p, &mut cache, SimTime::ZERO).expect("boot");
        let err = slot
            .disk_ready(&p, SimTime::from_millis(1), 999)
            .expect_err("unknown op id");
        assert_eq!(err, SlotError::UnknownDiskOp { op_id: 999 });
        assert!(err.to_string().contains("unknown op 999"), "{err}");
    }

    #[test]
    fn replicas_deliver_identically_despite_speed_skew() {
        // Two replicas with different host speeds, same agreed proposals:
        // delivered virtual times AND emitted packets (content + virtual
        // stamp) must match exactly.
        let fast = SpeedProfile::new(
            1.05e9,
            0.02,
            SimDuration::from_millis(10),
            SimRng::new(2).stream("fast"),
        );
        let slow = SpeedProfile::new(
            0.95e9,
            0.02,
            SimDuration::from_millis(10),
            SimRng::new(2).stream("slow"),
        );
        let run = |p: &SpeedProfile| {
            let mut cache = CacheModel::new(8, 2);
            let mut slot = slot_with(Box::<EchoGuest>::default(), stopwatch_cfg().mode);
            slot.boot(p, &mut cache, SimTime::ZERO).expect("boot");
            let pkt = Packet::new(EndpointId(1), EndpointId(7), Body::Raw { tag: 0, len: 100 });
            // Packet arrives at (slightly) different real times per host.
            slot.on_packet_arrival(p, SimTime::from_micros(900), 0, pkt);
            for prop in [11_000_000u64, 11_500_000, 12_100_000] {
                slot.add_proposals(
                    p,
                    SimTime::from_millis(2),
                    [(ChannelKind::Net, 0, VirtNanos::from_nanos(prop))],
                );
            }
            let wake = slot.next_wake(p, SimTime::from_millis(2)).unwrap();
            let out = slot.process(p, &mut cache, wake).expect("process");
            (slot.delivered_log().to_vec(), out)
        };
        let (log_fast, out_fast) = run(&fast);
        let (log_slow, out_slow) = run(&slow);
        assert_eq!(log_fast, log_slow, "virtual delivery times identical");
        let key = |o: &SlotOutput| match o {
            SlotOutput::Packet {
                out_seq,
                packet,
                virt,
            } => (*out_seq, packet.content_hash(), *virt),
            _ => unreachable!(),
        };
        assert_eq!(key(&out_fast[0]), key(&out_slow[0]));
    }

    #[test]
    fn stall_freezes_virtual_time() {
        let p = profile();
        let mut cache = CacheModel::new(8, 2);
        let mut slot = slot_with(Box::new(IdleGuest), DefenseMode::baseline());
        slot.boot(&p, &mut cache, SimTime::ZERO).expect("boot");
        slot.stall_until(&p, SimTime::from_millis(1), SimTime::from_millis(5));
        let v_mid = slot.virt_at(&p, SimTime::from_millis(3));
        assert_eq!(v_mid.as_nanos(), 1_000_000, "no progress while stalled");
        let v_after = slot.virt_at(&p, SimTime::from_millis(7));
        assert_eq!(v_after.as_nanos(), 3_000_000, "resumes after the stall");
        assert_eq!(slot.counters()[SlotCounter::Stalls], 1);
    }

    #[test]
    fn timer_irqs_delivered_when_opted_in() {
        struct TimerGuest {
            ticks: u64,
        }
        impl GuestProgram for TimerGuest {
            fn on_timer(&mut self, env: &mut GuestEnv) {
                self.ticks += 1;
                assert_eq!(env.pit_ticks, self.ticks);
            }
            fn wants_timer(&self) -> bool {
                true
            }
        }
        let p = profile();
        let mut cache = CacheModel::new(8, 2);
        let mut slot = slot_with(Box::new(TimerGuest { ticks: 0 }), DefenseMode::baseline());
        slot.boot(&p, &mut cache, SimTime::ZERO).expect("boot");
        // First tick at virt 4ms (250 Hz).
        let wake = slot.next_wake(&p, SimTime::ZERO).unwrap();
        assert!((4_000_000..4_000_050).contains(&wake.as_nanos()));
        slot.process(&p, &mut cache, wake).expect("process");
        assert_eq!(slot.ticks_delivered, 1);
        let wake2 = slot.next_wake(&p, wake).unwrap();
        assert!((8_000_000..8_000_050).contains(&wake2.as_nanos()));
    }

    #[test]
    fn mid_compute_injection_preserves_compute_completion() {
        // A packet injected mid-compute must not truncate the compute: the
        // compute still completes at its full branch allotment.
        struct BusyEcho;
        impl GuestProgram for BusyEcho {
            fn on_boot(&mut self, env: &mut GuestEnv) {
                env.compute(10_000_000); // 10ms of work
                env.send(EndpointId(1), Body::Raw { tag: 42, len: 10 });
            }
            fn on_packet(&mut self, _p: &Packet, env: &mut GuestEnv) {
                env.send(EndpointId(1), Body::Raw { tag: 43, len: 10 });
            }
        }
        let p = profile();
        let mut cache = CacheModel::new(8, 2);
        let mut slot = slot_with(Box::new(BusyEcho), DefenseMode::baseline());
        slot.boot(&p, &mut cache, SimTime::ZERO).expect("boot");
        // Packet arrives at 2ms (mid-compute), delivered at exit ~2ms.
        let pkt = Packet::new(EndpointId(1), EndpointId(7), Body::Raw { tag: 0, len: 10 });
        slot.on_packet_arrival(&p, SimTime::from_millis(2), 0, pkt);
        let wake = slot.next_wake(&p, SimTime::from_millis(2)).unwrap();
        let out1 = slot.process(&p, &mut cache, wake).expect("process");
        // The handler ran (echo 43 queued BEHIND the boot send? No: actions
        // queue FIFO: compute, send(42), then handler pushes send(43)).
        // At 2ms the compute is still running, so nothing emitted yet.
        assert!(out1.is_empty());
        let wake2 = slot.next_wake(&p, wake).unwrap();
        assert!(
            (10_000_000..10_000_050).contains(&wake2.as_nanos()),
            "compute completes near 10ms, got {wake2}"
        );
        let out2 = slot.process(&p, &mut cache, wake2).expect("process");
        // Both sends now fire at pc = 10ms, in FIFO order.
        assert_eq!(out2.len(), 2);
        match (&out2[0], &out2[1]) {
            (
                SlotOutput::Packet {
                    packet: a,
                    virt: va,
                    ..
                },
                SlotOutput::Packet {
                    packet: b,
                    virt: vb,
                    ..
                },
            ) => {
                assert!(matches!(a.body(), Body::Raw { tag: 42, .. }));
                assert!(matches!(b.body(), Body::Raw { tag: 43, .. }));
                assert_eq!(va.as_nanos(), 10_000_000);
                assert_eq!(vb.as_nanos(), 10_000_000);
            }
            other => panic!("{other:?}"),
        }
    }

    /// A guest that probes two lines at boot (one it primed, one cold)
    /// and records the latency readouts.
    #[derive(Default)]
    struct CacheProber {
        readouts: Vec<(u64, u64)>,
    }

    impl GuestProgram for CacheProber {
        fn on_boot(&mut self, env: &mut GuestEnv) {
            env.cache_touch(3, 1); // primed: resident afterwards
            env.cache_probe(3, 1); // hit
            env.cache_probe(4, 9); // cold: miss
        }
        fn on_cache_probe(&mut self, set: u64, _tag: u64, latency_ns: u64, _env: &mut GuestEnv) {
            self.readouts.push((set, latency_ns));
        }
        fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
            Some(self)
        }
    }

    fn probe_readouts(slot: &mut GuestSlot) -> Vec<(u64, u64)> {
        slot.program_mut()
            .as_any_mut()
            .expect("prober")
            .downcast_mut::<CacheProber>()
            .expect("prober type")
            .readouts
            .clone()
    }

    #[test]
    fn baseline_cache_probe_reads_local_hit_and_miss() {
        let p = profile();
        let mut cache = CacheModel::new(8, 2);
        let mut slot = slot_with(Box::<CacheProber>::default(), DefenseMode::baseline());
        slot.boot(&p, &mut cache, SimTime::ZERO).expect("boot");
        // Probes issued at pc 0 deliver at +40/+400 ns; the injection exit
        // is the first one, at branch 50k = 50 us.
        let wake = slot.next_wake(&p, SimTime::ZERO).expect("probe wake");
        slot.process(&p, &mut cache, wake).expect("process");
        assert_eq!(
            probe_readouts(&mut slot),
            vec![(3, CacheModel::HIT_NS), (4, CacheModel::MISS_NS)],
            "baseline readout is the local latency"
        );
        assert_eq!(slot.counters()[SlotCounter::CacheIrq], 2);
        assert_eq!(slot.counters()[SlotCounter::CacheProbes], 2);
        assert_eq!(slot.counters()[SlotCounter::CacheHits], 1);
        assert_eq!(slot.counters()[SlotCounter::CacheMisses], 1);
        assert_eq!(cache.occupancy(7), 2, "primed line + cold probe resident");
    }

    #[test]
    fn stopwatch_median_overrides_the_local_miss() {
        // This replica's host had the probed line evicted (a coresident
        // victim, in the full cloud) — but the two peers read hits, so the
        // median readout is a hit: the coresidency channel is closed.
        let p = profile();
        let mut cache = CacheModel::new(8, 2);
        let mut slot = slot_with(Box::<CacheProber>::default(), stopwatch_cfg().mode);
        let out = slot.boot(&p, &mut cache, SimTime::ZERO).expect("boot");
        let proposals: Vec<(u64, VirtNanos)> = out
            .iter()
            .map(|o| match o {
                SlotOutput::Proposal {
                    kind: ChannelKind::Cache,
                    seq,
                    proposal,
                } => (*seq, *proposal),
                other => panic!("{other:?}"),
            })
            .collect();
        assert_eq!(proposals.len(), 2, "one proposal per probe");
        assert_eq!(proposals[0].1.as_nanos(), CacheModel::HIT_NS);
        assert_eq!(proposals[1].1.as_nanos(), CacheModel::MISS_NS);
        // No delivery until the peers' proposals arrive.
        assert_eq!(slot.next_wake(&p, SimTime::ZERO), None);
        for (probe_id, own) in &proposals {
            // Own proposal (as the cloud would add it back), then peers.
            assert!(
                slot.add_proposals(&p, SimTime::ZERO, [(ChannelKind::Cache, *probe_id, *own)]) == 0
            );
            let peer = VirtNanos::from_nanos(CacheModel::HIT_NS);
            assert!(
                slot.add_proposals(&p, SimTime::ZERO, [(ChannelKind::Cache, *probe_id, peer)]) == 0
            );
            assert!(
                slot.add_proposals(&p, SimTime::ZERO, [(ChannelKind::Cache, *probe_id, peer)]) > 0
            );
        }
        let wake = slot.next_wake(&p, SimTime::ZERO).expect("agreed wake");
        slot.process(&p, &mut cache, wake).expect("process");
        assert_eq!(
            probe_readouts(&mut slot),
            vec![(3, CacheModel::HIT_NS), (4, CacheModel::HIT_NS)],
            "median of (miss, hit, hit) reads hit"
        );
    }

    #[test]
    fn early_peer_cache_proposals_are_buffered_not_dropped() {
        // A faster peer proposes probe 0 before this replica's guest even
        // reaches it; the proposal must survive until the local issue.
        let p = profile();
        let mut cache = CacheModel::new(8, 2);
        let mut slot = slot_with(Box::<CacheProber>::default(), stopwatch_cfg().mode);
        let hit = VirtNanos::from_nanos(CacheModel::HIT_NS);
        assert!(
            slot.add_proposals(&p, SimTime::ZERO, [(ChannelKind::Cache, 0, hit)]) == 0,
            "no pending yet"
        );
        assert!(slot.add_proposals(&p, SimTime::ZERO, [(ChannelKind::Cache, 0, hit)]) == 0);
        let out = slot.boot(&p, &mut cache, SimTime::ZERO).expect("boot");
        assert_eq!(out.len(), 2);
        // Both early proposals drained at issue; our own completes the set.
        let SlotOutput::Proposal { seq, proposal, .. } = out[0].clone() else {
            panic!("{:?}", out[0]);
        };
        assert!(slot.add_proposals(&p, SimTime::ZERO, [(ChannelKind::Cache, seq, proposal)]) > 0);
        let wake = slot.next_wake(&p, SimTime::ZERO).expect("probe 0 agreed");
        slot.process(&p, &mut cache, wake).expect("process");
        assert_eq!(probe_readouts(&mut slot), vec![(3, CacheModel::HIT_NS)]);
    }

    #[test]
    fn stray_net_proposals_are_dropped_not_buffered() {
        // A net pending entry is opened by an external packet arrival,
        // which a lossy fabric may never deliver — a stray proposal for a
        // packet this replica never received must not leak into the
        // early buffer (unlike cache/disk, whose local open is
        // guaranteed by replica determinism).
        let p = profile();
        let mut cache = CacheModel::new(8, 2);
        let mut slot = slot_with(Box::<EchoGuest>::default(), stopwatch_cfg().mode);
        slot.boot(&p, &mut cache, SimTime::ZERO).expect("boot");
        let stray = VirtNanos::from_millis(11);
        assert!(slot.add_proposals(&p, SimTime::ZERO, [(ChannelKind::Net, 0, stray)]) == 0);
        // The packet then does arrive: the dropped stray must NOT count
        // toward the three needed proposals.
        let pkt = Packet::new(EndpointId(1), EndpointId(7), Body::Raw { tag: 0, len: 100 });
        let t = SimTime::from_millis(1);
        slot.on_packet_arrival(&p, t, 0, pkt);
        assert!(slot.add_proposals(&p, t, [(ChannelKind::Net, 0, stray)]) == 0);
        assert!(
            slot.add_proposals(&p, t, [(ChannelKind::Net, 0, stray)]) == 0,
            "two live proposals + one dropped stray must not fix delivery"
        );
        assert!(slot.add_proposals(&p, t, [(ChannelKind::Net, 0, stray)]) > 0);
    }

    /// A guest that arms one-shot virtual timer 1 at boot and records each
    /// fire's `(irq_timestamp, now)` pair.
    #[derive(Default)]
    struct VtimerGuest {
        deadline_ms: u64,
        period_ms: Option<u64>,
        fires: Vec<(VirtNanos, VirtNanos)>,
    }

    impl GuestProgram for VtimerGuest {
        fn on_boot(&mut self, env: &mut GuestEnv) {
            let deadline = VirtNanos::from_millis(self.deadline_ms);
            match self.period_ms {
                Some(p) => env.set_periodic_timer(1, deadline, VirtOffset::from_millis(p)),
                None => env.set_timer(1, deadline),
            }
        }
        fn on_vtimer(&mut self, timer_id: u64, env: &mut GuestEnv) {
            assert_eq!(timer_id, 1);
            self.fires.push((env.irq_timestamp, env.now));
        }
        fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
            Some(self)
        }
    }

    fn vtimer_fires(slot: &mut GuestSlot) -> Vec<(VirtNanos, VirtNanos)> {
        slot.program_mut()
            .as_any_mut()
            .expect("vtimer guest")
            .downcast_mut::<VtimerGuest>()
            .expect("vtimer type")
            .fires
            .clone()
    }

    fn boot_vtimer(
        mode: DefenseMode,
        deadline_ms: u64,
        period_ms: Option<u64>,
    ) -> (GuestSlot, u64) {
        let p = profile();
        let mut cache = CacheModel::new(8, 2);
        let guest = VtimerGuest {
            deadline_ms,
            period_ms,
            fires: Vec::new(),
        };
        let mut slot = slot_with(Box::new(guest), mode);
        let out = slot.boot(&p, &mut cache, SimTime::ZERO).expect("boot");
        assert_eq!(out.len(), 1);
        let SlotOutput::TimerArm { fire_seq, deadline } = out[0] else {
            panic!("{:?}", out[0]);
        };
        assert_eq!(deadline.as_nanos(), deadline_ms * 1_000_000);
        (slot, fire_seq)
    }

    #[test]
    fn baseline_timer_delivers_scheduler_jitter() {
        let p = profile();
        let mut cache = CacheModel::new(8, 2);
        let (mut slot, fire_seq) = boot_vtimer(DefenseMode::baseline(), 5, None);
        // Hardware event at the deadline projection; the vCPU scheduler
        // held the slot 2ms behind a busy co-resident.
        let t = slot.phys_at_virt(&p, SimTime::ZERO, VirtNanos::from_millis(5));
        let outcome = slot
            .timer_elapsed(&p, t, fire_seq, VirtOffset::from_millis(2))
            .expect("live fire");
        assert_eq!(outcome, Some(ArrivalOutcome::Scheduled));
        assert_eq!(slot.counters()[SlotCounter::SchedPreemptions], 1);
        let wake = slot.next_wake(&p, t).expect("delivery scheduled");
        slot.process(&p, &mut cache, wake).expect("process");
        let fires = vtimer_fires(&mut slot);
        assert_eq!(fires.len(), 1);
        // The guest-visible fire carries the dispatch delay: the leak.
        assert_eq!(fires[0].0.as_nanos(), 7_000_000);
        assert_eq!(slot.counters()[SlotCounter::VtimerIrq], 1);
        assert_eq!(slot.counters()[SlotCounter::TimerArms], 1);
    }

    #[test]
    fn stopwatch_timer_proposes_deadline_plus_delta_t() {
        let p = profile();
        let mut cache = CacheModel::new(8, 2);
        let (mut slot, fire_seq) = boot_vtimer(stopwatch_cfg().mode, 5, None);
        let t = slot.phys_at_virt(&p, SimTime::ZERO, VirtNanos::from_millis(5));
        // Same 2ms of scheduler contention as the baseline test...
        let outcome = slot
            .timer_elapsed(&p, t, fire_seq, VirtOffset::from_millis(2))
            .expect("live fire");
        // ...but the proposal is deadline + Δt, independent of it.
        let Some(ArrivalOutcome::Proposal(own)) = outcome else {
            panic!("{outcome:?}");
        };
        assert_eq!(own.as_nanos(), 15_000_000, "deadline 5ms + Δt 10ms");
        assert_eq!(slot.counters()[SlotCounter::DtViolations], 0);
        assert_eq!(slot.next_wake(&p, t), None, "no delivery before agreement");
        for _ in 0..2 {
            slot.add_proposals(&p, t, [(ChannelKind::Timer, fire_seq, own)]);
        }
        assert!(slot.add_proposals(&p, t, [(ChannelKind::Timer, fire_seq, own)]) > 0);
        let wake = slot.next_wake(&p, t).expect("agreed");
        slot.process(&p, &mut cache, wake).expect("process");
        let fires = vtimer_fires(&mut slot);
        assert_eq!(fires.len(), 1);
        assert_eq!(
            fires[0].0.as_nanos(),
            15_000_000,
            "guest reads the agreed median, not the local dispatch"
        );
    }

    #[test]
    fn dispatch_overrunning_delta_t_counts_a_dt_violation() {
        let p = profile();
        let (mut slot, fire_seq) = boot_vtimer(stopwatch_cfg().mode, 5, None);
        let t = slot.phys_at_virt(&p, SimTime::ZERO, VirtNanos::from_millis(5));
        // 12ms of run-queue wait overruns Δt = 10ms: propose the local
        // fire and count it.
        let outcome = slot
            .timer_elapsed(&p, t, fire_seq, VirtOffset::from_millis(12))
            .expect("live fire");
        let Some(ArrivalOutcome::Proposal(own)) = outcome else {
            panic!("{outcome:?}");
        };
        assert_eq!(own.as_nanos(), 17_000_000, "local fire 5ms + 12ms");
        assert_eq!(slot.counters()[SlotCounter::DtViolations], 1);
    }

    #[test]
    fn stopwatch_fire_fixed_by_peers_still_proposes_when_its_hardware_event_elapses() {
        let p = profile();
        let mut cache = CacheModel::new(8, 2);
        let (mut slot, fire_seq) = boot_vtimer(stopwatch_cfg().mode, 5, None);
        // Two equal peer proposals of three determine the median, so the
        // fire is delivered before this host's hardware event elapses.
        let agreed = VirtNanos::from_millis(15);
        for _ in 0..2 {
            slot.add_proposals(&p, SimTime::ZERO, [(ChannelKind::Timer, fire_seq, agreed)]);
        }
        let wake = slot
            .next_wake(&p, SimTime::ZERO)
            .expect("fixed on majority");
        slot.process(&p, &mut cache, wake).expect("process");
        assert_eq!(vtimer_fires(&mut slot).len(), 1);
        // The late hardware event still proposes deadline + Δt for the
        // replicas that have not fixed the median yet...
        let outcome = slot
            .timer_elapsed(&p, wake, fire_seq, VirtOffset::from_nanos(0))
            .expect("a late fire is not an error");
        assert_eq!(outcome, Some(ArrivalOutcome::Proposal(agreed)));
        // ...and this slot drops its own copy as a stray.
        assert_eq!(
            slot.add_proposals(&p, wake, [(ChannelKind::Timer, fire_seq, agreed)]),
            0
        );
        assert_eq!(slot.early_buffered(), 0);
        assert_eq!(slot.counters()[SlotCounter::VtimerIrq], 1);
        // The hardware event is consumed: a second elapse is unknown.
        assert_eq!(
            slot.timer_elapsed(&p, wake, fire_seq, VirtOffset::from_nanos(0)),
            Err(SlotError::UnknownTimerFire { fire_seq })
        );
    }

    #[test]
    fn periodic_timer_rearms_from_the_programmed_deadline() {
        let p = profile();
        let mut cache = CacheModel::new(8, 2);
        let (mut slot, fire0) = boot_vtimer(DefenseMode::baseline(), 5, Some(3));
        let t = slot.phys_at_virt(&p, SimTime::ZERO, VirtNanos::from_millis(5));
        slot.timer_elapsed(&p, t, fire0, VirtOffset::from_nanos(0))
            .expect("live fire");
        let wake = slot.next_wake(&p, t).expect("due");
        let out = slot.process(&p, &mut cache, wake).expect("process");
        // The injection re-armed the next period: 5ms + 3ms = 8ms.
        assert_eq!(out.len(), 1);
        let SlotOutput::TimerArm { fire_seq, deadline } = out[0] else {
            panic!("{:?}", out[0]);
        };
        assert_eq!(fire_seq, fire0 + 1);
        assert_eq!(deadline.as_nanos(), 8_000_000);
        // Second round: elapse, agree (baseline: local), deliver.
        let t2 = slot.phys_at_virt(&p, wake, deadline);
        slot.timer_elapsed(&p, t2, fire_seq, VirtOffset::from_nanos(0))
            .expect("live fire");
        let wake2 = slot.next_wake(&p, t2).expect("due");
        slot.process(&p, &mut cache, wake2).expect("process");
        assert_eq!(vtimer_fires(&mut slot).len(), 2);
        // Boot arm plus one re-arm per injected fire.
        assert_eq!(slot.counters()[SlotCounter::TimerArms], 3);
    }

    #[test]
    fn cancelled_fire_is_consumed_silently() {
        struct CancelGuest;
        impl GuestProgram for CancelGuest {
            fn on_boot(&mut self, env: &mut GuestEnv) {
                env.set_timer(9, VirtNanos::from_millis(20));
                env.compute(1_000_000);
                env.cancel_timer(9);
            }
            fn on_vtimer(&mut self, _t: u64, _env: &mut GuestEnv) {
                panic!("cancelled timer must not fire");
            }
        }
        let p = profile();
        let mut cache = CacheModel::new(8, 2);
        let mut slot = slot_with(Box::new(CancelGuest), stopwatch_cfg().mode);
        let out = slot.boot(&p, &mut cache, SimTime::ZERO).expect("boot");
        let SlotOutput::TimerArm { fire_seq, .. } = out[0] else {
            panic!("{:?}", out[0]);
        };
        // The cancel runs once the compute finishes (1ms), well before the
        // 20ms deadline.
        let t = SimTime::from_millis(2);
        slot.process(&p, &mut cache, t).expect("process");
        // An early peer proposal for the cancelled fire must not leak
        // into the buffer (the pending entry is gone and the fire is
        // poisoned locally; every replica cancels at the same pc).
        let stray = VirtNanos::from_millis(30);
        assert!(slot.add_proposals(&p, t, [(ChannelKind::Timer, fire_seq, stray)]) == 0);
        assert_eq!(
            slot.early_buffered(),
            0,
            "stray must not re-enter the buffer"
        );
        // The hardware event still elapses; it is consumed silently.
        let elapsed = slot
            .timer_elapsed(
                &p,
                SimTime::from_millis(20),
                fire_seq,
                VirtOffset::from_nanos(0),
            )
            .expect("cancelled fire is not an error");
        assert_eq!(elapsed, None);
        assert_eq!(slot.next_wake(&p, SimTime::from_millis(20)), None);
        assert_eq!(slot.counters()[SlotCounter::VtimerIrq], 0);
    }

    #[test]
    fn zero_deadline_is_a_structured_error_not_a_panic() {
        struct BadGuest;
        impl GuestProgram for BadGuest {
            fn on_boot(&mut self, env: &mut GuestEnv) {
                env.set_timer(3, VirtNanos::ZERO);
            }
        }
        let p = profile();
        let mut cache = CacheModel::new(8, 2);
        let mut slot = slot_with(Box::new(BadGuest), stopwatch_cfg().mode);
        let err = slot
            .boot(&p, &mut cache, SimTime::ZERO)
            .expect_err("zero deadline");
        assert_eq!(
            err,
            SlotError::BadTimerDeadline {
                timer_id: 3,
                deadline: VirtNanos::ZERO
            }
        );
        assert!(err.to_string().contains("mis-programmed"), "{err}");
    }

    #[test]
    fn periodic_rearm_overflow_is_a_structured_error() {
        let p = profile();
        let mut cache = CacheModel::new(8, 2);
        // A period so large the first re-arm overflows u64 virtual time.
        let huge = u64::MAX - 1_000_000;
        struct OverflowGuest {
            period: u64,
        }
        impl GuestProgram for OverflowGuest {
            fn on_boot(&mut self, env: &mut GuestEnv) {
                env.set_periodic_timer(
                    4,
                    VirtNanos::from_millis(5),
                    VirtOffset::from_nanos(self.period),
                );
            }
        }
        let mut slot = slot_with(
            Box::new(OverflowGuest { period: huge }),
            DefenseMode::baseline(),
        );
        let out = slot.boot(&p, &mut cache, SimTime::ZERO).expect("boot");
        let SlotOutput::TimerArm { fire_seq, .. } = out[0] else {
            panic!("{:?}", out[0]);
        };
        let t = slot.phys_at_virt(&p, SimTime::ZERO, VirtNanos::from_millis(5));
        slot.timer_elapsed(&p, t, fire_seq, VirtOffset::from_nanos(0))
            .expect("live fire");
        let wake = slot.next_wake(&p, t).expect("due");
        // First fire injects fine; the catch-up re-arm (5ms + huge + huge)
        // overflows and must surface as an error, not a wrapping panic.
        let err = slot
            .process(&p, &mut cache, wake)
            .expect_err("re-arm overflows");
        assert_eq!(err, SlotError::TimerOverflow { timer_id: 4 });
    }

    #[test]
    fn rearming_a_live_timer_replaces_its_deadline() {
        struct RearmGuest;
        impl GuestProgram for RearmGuest {
            fn on_boot(&mut self, env: &mut GuestEnv) {
                env.set_timer(5, VirtNanos::from_millis(4));
                env.set_timer(5, VirtNanos::from_millis(6));
            }
        }
        let p = profile();
        let mut cache = CacheModel::new(8, 2);
        let mut slot = slot_with(Box::new(RearmGuest), DefenseMode::baseline());
        let out = slot.boot(&p, &mut cache, SimTime::ZERO).expect("boot");
        assert_eq!(out.len(), 2, "both arms emit hardware events");
        let SlotOutput::TimerArm { fire_seq: old, .. } = out[0] else {
            panic!()
        };
        let SlotOutput::TimerArm { fire_seq: new, .. } = out[1] else {
            panic!()
        };
        // The replaced fire's event is consumed silently; the live one
        // proposes/schedules normally.
        assert_eq!(
            slot.timer_elapsed(&p, SimTime::from_millis(4), old, VirtOffset::from_nanos(0))
                .expect("replaced fire"),
            None
        );
        assert_eq!(
            slot.timer_elapsed(&p, SimTime::from_millis(6), new, VirtOffset::from_nanos(0))
                .expect("live fire"),
            Some(ArrivalOutcome::Scheduled)
        );
    }

    #[test]
    fn unknown_timer_fire_is_a_structured_error() {
        let p = profile();
        let mut cache = CacheModel::new(8, 2);
        let mut slot = slot_with(Box::new(IdleGuest), stopwatch_cfg().mode);
        slot.boot(&p, &mut cache, SimTime::ZERO).expect("boot");
        let err = slot
            .timer_elapsed(&p, SimTime::from_millis(1), 42, VirtOffset::from_nanos(0))
            .expect_err("no such fire");
        assert_eq!(err, SlotError::UnknownTimerFire { fire_seq: 42 });
    }

    #[test]
    fn deterland_timer_hides_the_dispatch_delay() {
        // Same 2ms scheduler hold as `baseline_timer_delivers_scheduler_jitter`,
        // but the epoch-boundary release lands the on-time and the delayed
        // fire on the same boundary: the jitter never reaches the guest.
        let p = profile();
        let mut cache = CacheModel::new(8, 2);
        let deterland = DefenseMode::Local {
            release: ReleaseRule::EpochBoundary {
                epoch: VirtOffset::from_millis(5),
            },
        };
        let mut observe = |delay_ms: u64| {
            let guest = VtimerGuest {
                deadline_ms: 5,
                period_ms: None,
                fires: Vec::new(),
            };
            let mut slot = slot_with(Box::new(guest), deterland);
            let out = slot.boot(&p, &mut cache, SimTime::ZERO).expect("boot");
            let SlotOutput::TimerArm { fire_seq, .. } = out[0] else {
                panic!("{:?}", out[0]);
            };
            let t = slot.phys_at_virt(&p, SimTime::ZERO, VirtNanos::from_millis(5));
            slot.timer_elapsed(&p, t, fire_seq, VirtOffset::from_millis(delay_ms))
                .expect("live fire");
            let wake = slot.next_wake(&p, t).expect("due");
            slot.process(&p, &mut cache, wake).expect("process");
            vtimer_fires(&mut slot)[0].0
        };
        let on_time = observe(0);
        let delayed = observe(2);
        assert_eq!(on_time.as_nanos(), 10_000_000, "next 5ms boundary past 5ms");
        assert_eq!(on_time, delayed, "sub-epoch jitter is invisible");
    }

    #[test]
    fn bucketed_cache_probe_reads_one_quantized_level() {
        // Hit (~40ns) and miss (~400ns) both quantize up to the first
        // 1000ns level: the PRIME+PROBE readout collapses.
        let p = profile();
        let mut cache = CacheModel::new(8, 2);
        let bucketed = DefenseMode::Local {
            release: ReleaseRule::Quantize {
                bucket: VirtOffset::from_nanos(1_000),
                buckets: 4,
            },
        };
        let mut slot = slot_with(Box::<CacheProber>::default(), bucketed);
        slot.boot(&p, &mut cache, SimTime::ZERO).expect("boot");
        let wake = slot.next_wake(&p, SimTime::ZERO).expect("probe wake");
        slot.process(&p, &mut cache, wake).expect("process");
        assert_eq!(
            probe_readouts(&mut slot),
            vec![(3, 1_000), (4, 1_000)],
            "hit and miss read the same bucket"
        );
    }

    #[test]
    #[should_panic(expected = "odd replica count")]
    fn even_replicas_rejected() {
        let mut cfg = stopwatch_cfg();
        cfg.mode = DefenseMode::StopWatch {
            delta_n: VirtOffset::from_millis(1),
            delta_d: VirtOffset::from_millis(1),
            delta_t: VirtOffset::from_millis(1),
            replicas: 4,
        };
        GuestSlot::new(Box::new(IdleGuest), cfg, clock(), DiskImage::new(16));
    }

    /// A guest that opens an entry on every guest-initiated channel at
    /// boot: two cache probes (ids 0 and 1), a disk read (op 0), and a
    /// one-shot virtual timer (fire 0).
    struct MixedGuest;

    impl GuestProgram for MixedGuest {
        fn on_boot(&mut self, env: &mut GuestEnv) {
            env.cache_touch(3, 1);
            env.cache_probe(3, 1);
            env.cache_probe(4, 9);
            env.disk_read(BlockRange::new(0, 4));
            env.set_timer(1, VirtNanos::from_millis(5));
        }
    }

    /// Everything a proposal can change: the pending rows (fixed
    /// deliveries and cached injection branches included), the early
    /// buffer, the counters, and the next wake.
    #[allow(clippy::type_complexity)]
    fn agreement_state(
        slot: &GuestSlot,
        p: &SpeedProfile,
        now: SimTime,
    ) -> (
        Vec<(ChannelKind, u64, usize, usize, Option<(VirtNanos, u64)>)>,
        Vec<((u8, u64), Vec<VirtNanos>)>,
        SlotCounts,
        Option<SimTime>,
    ) {
        let mut early: Vec<_> = slot.early.iter().map(|(k, v)| (*k, v.clone())).collect();
        early.sort();
        (
            slot.pending.snapshot(),
            early,
            *slot.counters(),
            slot.next_wake(p, now),
        )
    }

    #[test]
    fn add_proposals_burst_matches_one_add_proposal_per_entry() {
        use ChannelKind::{Cache, Disk, Net, Timer};
        let p = profile();
        let v = VirtNanos::from_nanos;
        let (hit, miss) = (v(CacheModel::HIT_NS), v(CacheModel::MISS_NS));
        let boot = || {
            let mut cache = CacheModel::new(8, 2);
            let mut slot = slot_with(Box::new(MixedGuest), stopwatch_cfg().mode);
            let out = slot.boot(&p, &mut cache, SimTime::ZERO).expect("boot");
            assert_eq!(out.len(), 4, "two probes, a disk submit, a timer arm");
            for seq in 0..2 {
                let pkt = Packet::new(EndpointId(1), EndpointId(7), Body::Raw { tag: 0, len: 100 });
                slot.on_packet_arrival(&p, SimTime::from_millis(1), seq, pkt);
            }
            (slot, cache)
        };
        let (mut burst_slot, mut burst_cache) = boot();
        let (mut single_slot, mut single_cache) = boot();
        let first: &[(ChannelKind, u64, VirtNanos)] = &[
            (Net, 0, v(11_000_000)),
            (Cache, 0, hit),
            // Probe 5 is not issued yet: buffered for its local open.
            (Cache, 5, hit),
            (Net, 0, v(11_500_000)),
            // A packet this replica never received: dropped.
            (Net, 9, v(11_000_000)),
            // Two equal timer proposals of three determine the median.
            (Timer, 0, v(15_000_000)),
            (Disk, 0, v(10_000_000)),
            (Timer, 0, v(15_000_000)),
            (Net, 0, v(12_000_000)),
            (Cache, 0, miss),
            (Cache, 0, hit),
        ];
        // Net 0 and probe 0 are delivered by now, so late proposals for
        // them are strays (probe 0 sits below the allocation cursor). Net
        // 1's median lies in this replica's past: clamped and counted.
        let second: &[(ChannelKind, u64, VirtNanos)] = &[
            (Net, 0, v(11_000_000)),
            (Net, 1, v(2_000_000)),
            (Cache, 0, hit),
            (Timer, 0, v(16_000_000)),
            (Disk, 0, v(10_000_000)),
            (Cache, 1, miss),
            (Disk, 0, v(10_500_000)),
            (Cache, 1, miss),
            (Net, 1, v(2_000_000)),
            (Cache, 1, hit),
            (Net, 1, v(2_500_000)),
        ];
        let horizon = SimTime::from_millis(12);
        for (now, burst) in [(SimTime::from_millis(2), first), (horizon, second)] {
            let fixed = burst_slot.add_proposals(&p, now, burst.iter().copied());
            let fixed_single = burst
                .iter()
                .filter(|&&(kind, seq, prop)| {
                    single_slot.add_proposals(&p, now, [(kind, seq, prop)]) > 0
                })
                .count();
            assert_eq!(fixed, fixed_single, "fixed-entry count");
            let state = agreement_state(&burst_slot, &p, now);
            assert_eq!(state, agreement_state(&single_slot, &p, now));
            // Deliver everything due by the horizon on both replicas.
            let mut t = now;
            while let Some(wake) = burst_slot.next_wake(&p, t).filter(|&w| w <= horizon) {
                let out = burst_slot.process(&p, &mut burst_cache, wake);
                let out_single = single_slot.process(&p, &mut single_cache, wake);
                assert_eq!(format!("{out:?}"), format!("{out_single:?}"));
                t = wake;
            }
        }
        let (rows, ..) = agreement_state(&burst_slot, &p, horizon);
        let fixed: Vec<_> = rows.iter().map(|r| (r.0, r.1, r.4.is_some())).collect();
        assert_eq!(fixed, [(Disk, 0, true), (Timer, 0, true)], "{rows:?}");
        assert_eq!(burst_slot.early_buffered(), 1, "only probe 5 awaits");
        assert_eq!(burst_slot.counters()[SlotCounter::NetIrq], 2);
        assert_eq!(burst_slot.counters()[SlotCounter::CacheIrq], 2);
        assert_eq!(burst_slot.counters()[SlotCounter::SyncViolations], 1);
    }

    #[test]
    fn median_is_fixed_early_only_when_determined() {
        let v = |ns: u64| VirtNanos::from_nanos(ns);
        // 2-of-3 equal: the third proposal cannot move the median.
        assert_eq!(median_if_determined(&[v(50), v(50)], 3), Some(v(50)));
        // 2-of-3 unequal: the third could land between them.
        assert_eq!(median_if_determined(&[v(50), v(60)], 3), None);
        // 1-of-3 is never enough, even though it equals itself.
        assert_eq!(median_if_determined(&[v(50)], 3), None);
        // 5 replicas: three equal out of three received pin the median;
        // the two missing values can only flank it.
        assert_eq!(median_if_determined(&[v(9), v(9), v(9)], 5), Some(v(9)));
        assert_eq!(median_if_determined(&[v(9), v(9), v(8)], 5), None);
        // Four received with the two middle order statistics equal.
        assert_eq!(
            median_if_determined(&[v(7), v(9), v(9), v(12)], 5),
            Some(v(9))
        );
        assert_eq!(median_if_determined(&[v(7), v(8), v(9), v(12)], 5), None);
    }
}
