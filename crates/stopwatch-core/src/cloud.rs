//! The StopWatch cloud: hosts, ingress/egress nodes, replica coordination,
//! clients, and the event-loop driver.
//!
//! This is the composition the paper's Figs. 2 and 3 draw:
//!
//! * inbound packets hit the **ingress node**, which replicates them to the
//!   hosts of the destination guest's replicas (Sec. V);
//! * each host's network device model buffers the packet and multicasts a
//!   **proposed virtual delivery time** (`virt at last exit + Δn`) to its
//!   peers over **PGM**; every replica adopts the **median** (Sec. V-B);
//! * guest outputs are tunneled to the **egress node**, which votes on
//!   content (Sec. VI): it forwards an output once one content group holds
//!   two matching copies — the median output timing of the agreeing
//!   replicas;
//! * a pacing heartbeat slows the fastest replica so the virtual-time gap
//!   between the two fastest stays bounded (Sec. V-A);
//! * external **clients** (not replicated, real-time observers) drive
//!   workloads and measure what an outside attacker would measure.

use crate::config::{CloudConfig, DiskKind};
use netsim::background::BroadcastSource;
use netsim::infra::{EgressDecision, EgressNode};
use netsim::link::{Fabric, NetNode};
use netsim::packet::{EndpointId, Packet};
use netsim::pgm::{PgmPacket, PgmReceiver, PgmSender, RxOutput};
use simkit::engine::{Event, EventId, Sim};
use simkit::fxhash::FxHashMap;
use simkit::rng::SimRng;
use simkit::time::{SimDuration, SimTime, VirtNanos, VirtOffset};
use storage::block::DiskImage;
use storage::device::DiskDevice;
use storage::model::{AccessModel, RotatingDisk, Ssd};
use vmm::cache::CacheModel;
use vmm::channel::ChannelKind;
use vmm::clock::VirtualClock;
use vmm::counter::SlotCounts;
use vmm::guest::GuestProgram;
use vmm::slot::{ArrivalOutcome, DefenseMode, GuestSlot, SlotConfig, SlotError, SlotOutput};
use vmm::speed::SpeedProfile;

/// An external (unreplicated) client machine's application logic.
///
/// Clients see *real* time — they model the outside observer of Sec. VI.
pub trait ClientApp {
    /// Called once at client start; returns packets to send.
    fn on_start(&mut self, now: SimTime) -> Vec<Packet>;
    /// Called for each received packet; returns packets to send.
    fn on_packet(&mut self, packet: &Packet, now: SimTime) -> Vec<Packet>;
    /// Called periodically (protocol timers); returns packets to send.
    fn on_tick(&mut self, now: SimTime) -> Vec<Packet>;
    /// `true` when this client's workload is finished.
    fn is_done(&self) -> bool;
    /// Downcast support for extracting measurements after a run.
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any;
}

/// Handle to a guest VM in the cloud.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VmHandle {
    /// Index into the cloud's VM table.
    pub index: usize,
    /// The guest's network endpoint.
    pub endpoint: EndpointId,
}

/// Handle to an external client.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClientHandle {
    /// Index into the cloud's client table.
    pub index: usize,
    /// The client's network endpoint.
    pub endpoint: EndpointId,
}

/// A cloud counter, declared in name order. DESIGN.md "Counters" says
/// what increments each row; a report shows a row only when it is nonzero.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CloudCounter {
    Broadcasts,
    CacheProposalsSent,
    ClientPackets,
    DiskProposalsSent,
    EgressDivergences,
    EgressForwarded,
    IngressPackets,
    PgmNaks,
    ProposalsSent,
    TimerProposalsSent,
}

impl CloudCounter {
    /// Report names, indexed by `CloudCounter as usize`.
    pub const NAMES: [&'static str; 10] = [
        "broadcasts",
        "cache_proposals_sent",
        "client_packets",
        "disk_proposals_sent",
        "egress_divergences",
        "egress_forwarded",
        "ingress_packets",
        "pgm_naks",
        "proposals_sent",
        "timer_proposals_sent",
    ];

    /// The counter that tallies multicast proposals on `kind`.
    pub fn proposals(kind: ChannelKind) -> Self {
        match kind {
            ChannelKind::Net => CloudCounter::ProposalsSent,
            ChannelKind::Cache => CloudCounter::CacheProposalsSent,
            ChannelKind::Disk => CloudCounter::DiskProposalsSent,
            ChannelKind::Timer => CloudCounter::TimerProposalsSent,
        }
    }
}

#[derive(Debug, Clone)]
struct VmRecord {
    endpoint: EndpointId,
    replicas: Vec<(usize, usize)>, // (host index, slot index)
    /// `true` for VMs under a replicated (median-agreement) defense arm:
    /// their outputs tunnel to the egress for voting and they are paced.
    /// Single-host arms (baseline, deterland, bucketed) send directly.
    replicated: bool,
}

/// One physical machine `h` (network node `NetNode(h)`): the devices its
/// guest slots share — one execution-speed profile, one disk FIFO and one
/// last-level cache (the paper's testbed ran up to `c` one-vCPU guests
/// per multicore machine) — and the records of those slots. Every slot
/// call gets its host's profile (and LLC); cross-guest interference
/// enters through the shared contention factor, cache, disk queue and
/// run queue.
struct Host {
    /// Branch↔time mapping of every slot on this host, slowed by the
    /// contention factor [`Host::refresh_activity`] sets.
    profile: SpeedProfile,
    /// The disk every slot's requests queue on, first come first served.
    disk: DiskDevice<Box<dyn AccessModel>>,
    /// The LLC every slot touches, so coresident slots see each other's
    /// evictions.
    cache: CacheModel,
    /// Each guest slot on this host, which replica of which VM it runs,
    /// its pending wake and its pending timer events.
    slots: Vec<SlotRecord>,
    /// When this host's last tunneled output copy reaches the egress.
    tunnel_last: SimTime,
}

impl Host {
    /// How many of this host's slots are busy: the vCPU run queue.
    /// `is_busy` reads the action queue directly, which only changes
    /// inside `process()`, so no per-slot clock sync is needed.
    fn busy(&self) -> usize {
        self.slots.iter().filter(|r| r.slot.is_busy()).count()
    }

    /// Sets the host's contention factor from its count of `busy` slots —
    /// a quarter per busy guest, capped at 0.9 — slowing *all* guests;
    /// returns `true` when it changed (callers then recompute pending
    /// wakes). This is how one guest's load perturbs the timing of its
    /// coresident guests: the cross-VM interference access-driven attacks
    /// feed on, and the lever of the Sec. IX collaborating-attacker load
    /// attack.
    fn refresh_activity(&mut self, busy: usize) -> bool {
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

/// One guest slot and the cloud's bookkeeping for it, kept in its host's
/// record.
#[derive(Debug)]
struct SlotRecord {
    /// The replica's VMM slot; every call hands it its host's devices.
    slot: GuestSlot,
    /// The VM this slot runs a replica of.
    vm: usize,
    /// The replica's index in that VM's replica list.
    replica: usize,
    /// The pending wake and the time it fires at (kept so a reschedule
    /// to the same time can keep the pending event).
    wake: Option<(EventId, SimTime)>,
    /// The slot's pending virtual-timer hardware events, in `fire_seq`
    /// order. Kept so activity changes can re-target each physical fire
    /// time at its deadline's virtual instant, the way `reschedule_wake`
    /// re-targets the wake.
    timers: Vec<TimerRecord>,
}

/// One pending virtual-timer hardware event of a slot: the fire it
/// elapses, its queued [`CloudEvent::TimerFire`], when that fires, and the
/// programmed deadline the time was projected from.
#[derive(Debug, Clone, Copy)]
struct TimerRecord {
    fire_seq: u64,
    event: EventId,
    at: SimTime,
    deadline: VirtNanos,
}

struct ClientRecord {
    node: NetNode,
    app: Box<dyn ClientApp>,
}

/// One replica's delivery-time proposal for one timing-channel event —
/// network packet, cache probe, disk completion, or virtual-timer fire,
/// told apart by the [`ChannelKind`] wire id. Every kind rides the same
/// PGM streams and the same demux. The VM is not on the wire: each stream
/// belongs to one VM. 16 bytes, so a sender's 4,096-entry history is
/// 64 KiB.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ProposalMsg {
    /// `seq << 2 | kind.id()`.
    word: u64,
    proposal: VirtNanos,
}

impl ProposalMsg {
    /// Packs `kind` into the two low bits of the word that carries `seq`.
    ///
    /// # Panics
    ///
    /// Panics if `seq >= 2^62`: the shifted seq would overwrite the kind.
    fn new(kind: ChannelKind, seq: u64, proposal: VirtNanos) -> Self {
        assert!(
            seq < 1 << 62,
            "proposal seq {seq} does not fit the wire word"
        );
        ProposalMsg {
            word: seq << 2 | u64::from(kind.id()),
            proposal,
        }
    }

    /// `(kind, seq, proposal)`.
    fn parts(self) -> (ChannelKind, u64, VirtNanos) {
        let kind = ChannelKind::ALL[(self.word & 3) as usize];
        (kind, self.word >> 2, self.proposal)
    }
}

/// A packet parked in [`ParkedPackets`] while the event that carries it
/// is queued.
struct PacketRef(u32);

/// Packets of queued events, kept out of the events themselves: five
/// [`CloudEvent`] variants carry a packet, and inline it would size every
/// event (and every engine slab entry) by its 88 bytes. `CloudEvent::fire`
/// takes the packet out before its handler runs; no packet event is ever
/// cancelled, so none is left behind.
#[derive(Default)]
struct ParkedPackets {
    packets: Vec<Option<Packet>>,
    /// Places whose packet was taken, reused before `packets` grows.
    free: Vec<u32>,
}

impl ParkedPackets {
    fn park(&mut self, packet: Packet) -> PacketRef {
        match self.free.pop() {
            Some(i) => {
                self.packets[i as usize] = Some(packet);
                PacketRef(i)
            }
            None => {
                self.packets.push(Some(packet));
                let i = u32::try_from(self.packets.len() - 1).expect("fewer than 2^32 parked");
                PacketRef(i)
            }
        }
    }

    fn take(&mut self, at: PacketRef) -> Packet {
        self.free.push(at.0);
        self.packets[at.0 as usize]
            .take()
            .expect("a parked packet is taken once")
    }
}

/// Static sizes for control-plane messages on the wire.
const PROPOSAL_BYTES: u32 = 64;
const TUNNEL_OVERHEAD: u32 = 40;

/// Every event the cloud schedules. `fire` sends each variant to the
/// `Cloud` method that handles it; the engine keeps posted events in a
/// recycled slab, so none of them is a heap allocation. Packets wait in
/// [`ParkedPackets`], which keeps an event at 56 bytes.
enum CloudEvent {
    /// Boot replica slot `s` of host `h`.
    Boot { h: usize, s: usize },
    /// Client `ci` starts its workload, then starts ticking.
    ClientStart { ci: usize },
    /// Client `ci`'s periodic protocol tick.
    ClientTick { ci: usize },
    /// The pacing heartbeat (also refreshes host contention).
    Pace,
    /// The periodic PGM NAK retry.
    PgmRetry,
    /// Draw the first background broadcast.
    BroadcastStart,
    /// A background broadcast reaches the ingress.
    Broadcast { packet: PacketRef },
    /// Slot `(h, s)`'s scheduled wake.
    SlotWake { h: usize, s: usize },
    /// Host `h`'s disk finished slot `s`'s operation `op_id`.
    DiskDone { h: usize, s: usize, op_id: u64 },
    /// Host `h`'s timer hardware fired for slot `s`'s `fire_seq`.
    TimerFire { h: usize, s: usize, fire_seq: u64 },
    /// An ingress copy of inbound packet `seq` reaches slot `(h, s)`.
    HostPacket {
        h: usize,
        s: usize,
        seq: u64,
        packet: PacketRef,
    },
    /// A PGM data packet from replica `sender` reaches replica `receiver`
    /// of VM `vm`.
    PgmData {
        vm: usize,
        receiver: usize,
        sender: usize,
        packet: PgmPacket<ProposalMsg>,
    },
    /// A NAK from replica `receiver` reaches replica `sender` of VM `vm`.
    Nak {
        vm: usize,
        receiver: usize,
        sender: usize,
        missing: Vec<u64>,
    },
    /// One replica's tunneled output copy of VM `vm` reaches the egress
    /// node.
    EgressCopy {
        vm: usize,
        out_seq: u64,
        host_node: NetNode,
        packet: PacketRef,
    },
    /// A packet reaches client `ci`; `from_cloud` marks the ones counted
    /// in `client_packets` (client-to-client traffic is not).
    ClientPacket {
        ci: usize,
        packet: PacketRef,
        from_cloud: bool,
    },
    /// A packet bound for a guest reaches the ingress node.
    Ingress { packet: PacketRef },
}

/// The cloud's event loop.
type Engine = Sim<Cloud, CloudEvent>;

impl Event<Cloud> for CloudEvent {
    fn fire(self, sim: &mut Engine, cloud: &mut Cloud) {
        match self {
            CloudEvent::Boot { h, s } => cloud.boot(sim, h, s),
            CloudEvent::ClientStart { ci } => cloud.client_start(sim, ci),
            CloudEvent::ClientTick { ci } => cloud.client_tick(sim, ci),
            CloudEvent::Pace => cloud.pace(sim),
            CloudEvent::PgmRetry => cloud.pgm_retry(sim),
            CloudEvent::BroadcastStart => cloud.next_broadcast(sim),
            CloudEvent::Broadcast { packet } => {
                let packet = cloud.parked.take(packet);
                cloud.broadcast(sim, packet)
            }
            CloudEvent::SlotWake { h, s } => cloud.slot_wake(sim, h, s),
            CloudEvent::DiskDone { h, s, op_id } => cloud.disk_done(sim, h, s, op_id),
            CloudEvent::TimerFire { h, s, fire_seq } => cloud.timer_fire(sim, h, s, fire_seq),
            CloudEvent::HostPacket { h, s, seq, packet } => {
                let packet = cloud.parked.take(packet);
                cloud.host_packet_arrival(sim, h, s, seq, packet)
            }
            CloudEvent::PgmData {
                vm,
                receiver,
                sender,
                packet,
            } => cloud.pgm_receive(sim, vm, receiver, sender, packet),
            CloudEvent::Nak {
                vm,
                receiver,
                sender,
                missing,
            } => cloud.answer_nak(sim, vm, receiver, sender, &missing),
            CloudEvent::EgressCopy {
                vm,
                out_seq,
                host_node,
                packet,
            } => {
                let packet = cloud.parked.take(packet);
                cloud.egress_copy(sim, vm, out_seq, host_node, packet)
            }
            CloudEvent::ClientPacket {
                ci,
                packet,
                from_cloud,
            } => {
                let packet = cloud.parked.take(packet);
                cloud.client_packet(sim, ci, packet, from_cloud)
            }
            CloudEvent::Ingress { packet } => {
                let packet = cloud.parked.take(packet);
                cloud.ingress_replicate(sim, packet)
            }
        }
    }
}

/// The simulated cloud (the `Sim` world type).
pub struct Cloud {
    cfg: CloudConfig,
    /// Each host's shared devices and slot records, indexed by host.
    hosts: Vec<Host>,
    fabric: Fabric,
    ingress_node: NetNode,
    egress: EgressNode,
    egress_node: NetNode,
    vms: Vec<VmRecord>,
    by_endpoint: FxHashMap<EndpointId, usize>,
    clients: Vec<ClientRecord>,
    client_by_endpoint: FxHashMap<EndpointId, usize>,
    ingress_seq: u64,
    /// `[vm][sender]`: each replica's PGM proposal stream to its peers.
    /// Empty for a VM that is not replicated.
    pgm_tx: Vec<Vec<PgmSender<ProposalMsg>>>,
    /// `[vm][receiver * n + sender]`, for a VM of `n` replicas: what
    /// replica `receiver` has of replica `sender`'s stream. Empty for a VM
    /// that is not replicated.
    pgm_rx: Vec<Vec<PgmReceiver<ProposalMsg>>>,
    /// Scratch output every PGM receive reuses.
    pgm_out: RxOutput<ProposalMsg>,
    /// The packets of queued packet events.
    parked: ParkedPackets,
    /// Background broadcast chatter through the ingress, if configured.
    broadcast: Option<BroadcastSource>,
    /// First structured slot failure, if any: a malformed scenario fails
    /// its cell (surfaced via [`CloudSim::error`]) instead of panicking
    /// the whole sweep process.
    error: Option<String>,
    counts: [u64; CloudCounter::NAMES.len()],
}

impl Cloud {
    /// The current value of one cloud counter.
    pub fn count(&self, counter: CloudCounter) -> u64 {
        self.counts[counter as usize]
    }

    /// `(name, count)` of every nonzero cloud counter, in name order.
    pub fn counts(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        CloudCounter::NAMES
            .into_iter()
            .zip(self.counts.iter().copied())
            .filter(|&(_, n)| n > 0)
    }

    /// The egress node (Sec. VI), for inspecting what it still holds.
    pub fn egress(&self) -> &EgressNode {
        &self.egress
    }

    /// Slot `s` of host `h`.
    pub fn slot(&self, h: usize, s: usize) -> &GuestSlot {
        &self.hosts[h].slots[s].slot
    }

    /// The replica placements of a VM.
    pub fn vm_replicas(&self, vm: VmHandle) -> &[(usize, usize)] {
        &self.vms[vm.index].replicas
    }

    /// The slot counters summed over every replica of every VM.
    pub fn slot_totals(&self) -> SlotCounts {
        let mut total = SlotCounts::default();
        for record in self.hosts.iter().flat_map(|host| &host.slots) {
            total += record.slot.counters();
        }
        total
    }

    /// The `(ingress seq, virtual delivery)` log of one replica.
    pub fn delivered_log(&self, vm: VmHandle, replica: usize) -> Vec<(u64, VirtNanos)> {
        let (h, s) = self.vms[vm.index].replicas[replica];
        self.hosts[h].slots[s].slot.delivered_log().to_vec()
    }

    /// Downcasts a guest replica's program to its concrete type.
    pub fn guest_program<T: 'static>(&mut self, vm: VmHandle, replica: usize) -> Option<&mut T> {
        let (h, s) = self.vms[vm.index].replicas[replica];
        self.hosts[h].slots[s]
            .slot
            .program_mut()
            .as_any_mut()?
            .downcast_mut::<T>()
    }

    /// Downcasts a client app to its concrete type.
    pub fn client_app<T: 'static>(&mut self, client: ClientHandle) -> Option<&mut T> {
        self.clients[client.index]
            .app
            .as_any_mut()
            .downcast_mut::<T>()
    }

    /// `true` when every client reports done.
    pub fn clients_done(&self) -> bool {
        self.clients.iter().all(|c| c.app.is_done())
    }

    // ------------------------------------------------------------------
    // Event handlers: `CloudEvent::fire` calls one per variant.
    // ------------------------------------------------------------------

    /// Records the first structured failure. The driver observes it via
    /// [`CloudSim::error`] and fails this run (one sweep cell) only.
    fn fail(&mut self, context: &str, err: impl std::fmt::Display) {
        if self.error.is_none() {
            self.error = Some(format!("{context}: {err}"));
        }
    }

    fn boot(&mut self, sim: &mut Engine, h: usize, s: usize) {
        let host = &mut self.hosts[h];
        let slot = &mut host.slots[s].slot;
        match slot.boot(&host.profile, &mut host.cache, sim.now()) {
            Ok(outputs) => {
                self.handle_outputs(sim, h, s, outputs);
                self.reschedule_wake(sim, h, s);
            }
            Err(e) => self.fail(&format!("host {h} slot {s} boot"), e),
        }
    }

    fn reschedule_wake(&mut self, sim: &mut Engine, h: usize, s: usize) {
        let host = &mut self.hosts[h];
        let record = &mut host.slots[s];
        let target = record.slot.next_wake(&host.profile, sim.now());
        let wake = &mut record.wake;
        if let Some((old, at)) = *wake {
            // The pending wake already fires at the right time: keep it
            // instead of churning a cancelled event plus a fresh one
            // through the engine (the common case when new input does not
            // change what the slot is waiting for).
            if target == Some(at) {
                return;
            }
            sim.cancel(old);
        }
        *wake = target.map(|t| (sim.post(t, CloudEvent::SlotWake { h, s }), t));
    }

    fn slot_wake(&mut self, sim: &mut Engine, h: usize, s: usize) {
        let host = &mut self.hosts[h];
        host.slots[s].wake = None;
        let slot = &mut host.slots[s].slot;
        match slot.process(&host.profile, &mut host.cache, sim.now()) {
            Ok(outputs) => {
                self.handle_outputs(sim, h, s, outputs);
                self.reschedule_wake(sim, h, s);
            }
            Err(e) => self.fail(&format!("host {h} slot {s}"), e),
        }
    }

    fn handle_outputs(&mut self, sim: &mut Engine, h: usize, s: usize, outputs: Vec<SlotOutput>) {
        for output in outputs {
            match output {
                SlotOutput::DiskSubmit { op_id, request } => {
                    let done = self.hosts[h].disk.submit(request, sim.now());
                    sim.post(done, CloudEvent::DiskDone { h, s, op_id });
                }
                SlotOutput::TimerArm { fire_seq, deadline } => {
                    // A guest armed a virtual timer. The hardware event
                    // fires when the host's physical clock reaches the
                    // deadline's virtual instant; the *guest-visible*
                    // delivery time is then agreed exactly like a disk
                    // completion's (deadline + Δt, replica median).
                    self.schedule_timer_fire(sim, h, s, fire_seq, deadline);
                }
                SlotOutput::Packet {
                    out_seq, packet, ..
                } => {
                    self.route_guest_output(sim, h, s, out_seq, packet);
                }
                SlotOutput::Proposal {
                    kind,
                    seq,
                    proposal,
                } => {
                    // Only StopWatch slots emit proposals from processing
                    // (today: cache probes); deliver our own locally, then
                    // multicast to the peer replicas.
                    self.propose_and_multicast(sim, h, s, kind, seq, proposal);
                }
            }
        }
    }

    fn disk_done(&mut self, sim: &mut Engine, h: usize, s: usize, op_id: u64) {
        let host = &mut self.hosts[h];
        let slot = &mut host.slots[s].slot;
        let outcome = slot.disk_ready(&host.profile, sim.now(), op_id);
        self.settled(sim, h, s, ChannelKind::Disk, op_id, outcome.map(Some));
    }

    /// Acts on slot `(h, s)`'s settlement of `kind`'s event `seq`, the
    /// one flow every timing channel shares: a StopWatch proposal is
    /// applied locally and multicast to the peer replicas (Fig. 3,
    /// generalized), a local arm's fixed delivery re-targets the slot's
    /// wake, and a cancelled timer fire needs nothing.
    fn settled(
        &mut self,
        sim: &mut Engine,
        h: usize,
        s: usize,
        kind: ChannelKind,
        seq: u64,
        outcome: Result<Option<ArrivalOutcome>, SlotError>,
    ) {
        match outcome {
            Ok(Some(ArrivalOutcome::Proposal(proposal))) => {
                self.propose_and_multicast(sim, h, s, kind, seq, proposal);
            }
            Ok(Some(ArrivalOutcome::Scheduled)) => self.reschedule_wake(sim, h, s),
            Ok(None) => {}
            Err(e) => self.fail(&format!("host {h} slot {s}"), e),
        }
    }

    /// Schedules (or re-targets) the hardware event for an armed virtual
    /// timer at the host's current physical estimate of the deadline's
    /// virtual instant. Speed jitter is known to the profile, but host
    /// contention changes as coresident guests start and stop working —
    /// [`Cloud::pacing_tick`] re-calls this on every activity refresh so
    /// the fire lands at the deadline, not at a stale projection of it.
    fn schedule_timer_fire(
        &mut self,
        sim: &mut Engine,
        h: usize,
        s: usize,
        fire_seq: u64,
        deadline: VirtNanos,
    ) {
        let now = sim.now();
        let host = &mut self.hosts[h];
        let record = &mut host.slots[s];
        let at = record.slot.phys_at_virt(&host.profile, now, deadline);
        let at = at.max(now);
        let timers = &mut record.timers;
        let place = timers.binary_search_by_key(&fire_seq, |t| t.fire_seq);
        if let Ok(i) = place {
            if timers[i].at == at {
                return;
            }
            sim.cancel(timers[i].event);
        }
        let record = TimerRecord {
            fire_seq,
            event: sim.post(at, CloudEvent::TimerFire { h, s, fire_seq }),
            at,
            deadline,
        };
        match place {
            Ok(i) => timers[i] = record,
            Err(i) => timers.insert(i, record),
        }
    }

    /// Slot `(h, s)`'s hardware timer event for `fire_seq` elapsed. The
    /// host's one modelled core runs its busy slots round robin, so the
    /// woken vCPU joins the tail of the run queue and is dispatched only
    /// after every busy coresident has run one timeslice: the fire waits
    /// `timeslice × busy coresidents` (never behind the waker itself).
    /// That wait is the scheduler-beat timing channel the timer workload
    /// measures; `timer_elapsed` adds it to the locally observed fire.
    fn timer_fire(&mut self, sim: &mut Engine, h: usize, s: usize, fire_seq: u64) {
        let host = &mut self.hosts[h];
        let timers = &mut host.slots[s].timers;
        if let Ok(i) = timers.binary_search_by_key(&fire_seq, |t| t.fire_seq) {
            timers.remove(i);
        }
        let coresidents = host.busy() - usize::from(host.slots[s].slot.is_busy());
        let slice = self.cfg.timeslice.as_nanos();
        let delay = VirtOffset::from_nanos(slice.saturating_mul(coresidents as u64));
        let slot = &mut host.slots[s].slot;
        let outcome = slot.timer_elapsed(&host.profile, sim.now(), fire_seq, delay);
        self.settled(sim, h, s, ChannelKind::Timer, fire_seq, outcome);
    }

    /// Applies slot `(h, s)`'s own delivery-time proposal locally, then
    /// multicasts it to the peer replicas over PGM — the one flow every
    /// timing channel shares (Fig. 3, generalized).
    fn propose_and_multicast(
        &mut self,
        sim: &mut Engine,
        h: usize,
        s: usize,
        kind: ChannelKind,
        seq: u64,
        proposal: VirtNanos,
    ) {
        let host = &mut self.hosts[h];
        let SlotRecord {
            vm: vm_idx,
            replica: replica_idx,
            ..
        } = host.slots[s];
        let slot = &mut host.slots[s].slot;
        if slot.add_proposals(&host.profile, sim.now(), [(kind, seq, proposal)]) > 0 {
            self.reschedule_wake(sim, h, s);
        }
        self.multicast_proposal(sim, vm_idx, replica_idx, kind, seq, proposal);
    }

    fn route_guest_output(
        &mut self,
        sim: &mut Engine,
        h: usize,
        s: usize,
        out_seq: u64,
        packet: Packet,
    ) {
        let vm = self.hosts[h].slots[s].vm;
        let host_node = NetNode(h);
        if self.vms[vm].replicated {
            // Tunnel to the egress node over TCP (Sec. VI); it forwards on
            // the second copy.
            let bytes = packet.wire_bytes() + TUNNEL_OVERHEAD;
            if let Some(raw_arrive) =
                self.fabric
                    .transmit(sim.now(), host_node, self.egress_node, bytes)
            {
                // The tunnel runs over TCP (Sec. VI): per-replica copies
                // reach the egress in emission order.
                let last = &mut self.hosts[h].tunnel_last;
                let arrive = raw_arrive.max(*last + SimDuration::from_nanos(1));
                *last = arrive;
                let packet = self.parked.park(packet);
                sim.post(
                    arrive,
                    CloudEvent::EgressCopy {
                        vm,
                        out_seq,
                        host_node,
                        packet,
                    },
                );
            }
        } else {
            // Baseline: straight to the destination.
            self.send_packet(sim, host_node, packet, true);
        }
    }

    fn egress_copy(
        &mut self,
        sim: &mut Engine,
        vm: usize,
        out_seq: u64,
        host_node: NetNode,
        packet: Packet,
    ) {
        let VmRecord {
            endpoint, replicas, ..
        } = &self.vms[vm];
        let decision = self
            .egress
            .on_copy(*endpoint, out_seq, host_node, packet, replicas.len());
        match decision {
            EgressDecision::Forward(pkt) => {
                self.counts[CloudCounter::EgressForwarded as usize] += 1;
                let from = self.egress_node;
                self.send_packet(sim, from, pkt, true);
            }
            EgressDecision::Hold => {}
            EgressDecision::Divergence { .. } => {
                self.counts[CloudCounter::EgressDivergences as usize] += 1;
            }
        }
    }

    /// Sends a packet from `from_node` toward its destination endpoint: a
    /// guest-bound packet to the ingress node, a client-bound one to that
    /// client's node. `from_cloud` marks the client-bound packets counted
    /// in `client_packets` (client-to-client traffic is not). Unknown
    /// destinations (e.g. the broadcast pseudo-endpoint on baseline paths)
    /// are dropped silently.
    fn send_packet(
        &mut self,
        sim: &mut Engine,
        from_node: NetNode,
        packet: Packet,
        from_cloud: bool,
    ) {
        let dst = packet.dst();
        let (to_node, ci) = if self.by_endpoint.contains_key(&dst) {
            (self.ingress_node, None)
        } else if let Some(&ci) = self.client_by_endpoint.get(&dst) {
            (self.clients[ci].node, Some(ci))
        } else {
            return;
        };
        let Some(arrive) = self
            .fabric
            .transmit(sim.now(), from_node, to_node, packet.wire_bytes())
        else {
            return;
        };
        let packet = self.parked.park(packet);
        let event = match ci {
            None => CloudEvent::Ingress { packet },
            Some(ci) => CloudEvent::ClientPacket {
                ci,
                packet,
                from_cloud,
            },
        };
        sim.post(arrive, event);
    }

    fn client_packet(&mut self, sim: &mut Engine, ci: usize, packet: Packet, from_cloud: bool) {
        if from_cloud {
            self.counts[CloudCounter::ClientPackets as usize] += 1;
        }
        let now = sim.now();
        let out = self.clients[ci].app.on_packet(&packet, now);
        self.client_send(sim, ci, out);
    }

    fn client_send(&mut self, sim: &mut Engine, ci: usize, pkts: Vec<Packet>) {
        let node = self.clients[ci].node;
        for packet in pkts {
            self.send_packet(sim, node, packet, false);
        }
    }

    /// The ingress node replicates one inbound packet to every replica host
    /// of the destination guest (or of *all* guests, for broadcasts).
    fn ingress_replicate(&mut self, sim: &mut Engine, packet: Packet) {
        self.counts[CloudCounter::IngressPackets as usize] += 1;
        let is_broadcast = matches!(packet.body(), netsim::packet::Body::Broadcast { .. });
        let targets = if is_broadcast {
            0..self.vms.len()
        } else {
            match self.by_endpoint.get(&packet.dst()) {
                Some(&vm) => vm..vm + 1,
                None => return,
            }
        };
        for vm_idx in targets {
            let seq = self.ingress_seq;
            self.ingress_seq += 1;
            // Indexed iteration keeps `self` borrowable for the fabric
            // transmits without cloning the replica list per packet; the
            // packet itself is cloned once per scheduled copy only.
            for ri in 0..self.vms[vm_idx].replicas.len() {
                let (h, s) = self.vms[vm_idx].replicas[ri];
                let node = NetNode(h);
                if let Some(arrive) =
                    self.fabric
                        .transmit(sim.now(), self.ingress_node, node, packet.wire_bytes())
                {
                    let packet = self.parked.park(packet.clone());
                    sim.post(arrive, CloudEvent::HostPacket { h, s, seq, packet });
                }
            }
        }
    }

    fn host_packet_arrival(
        &mut self,
        sim: &mut Engine,
        h: usize,
        s: usize,
        seq: u64,
        packet: Packet,
    ) {
        let host = &mut self.hosts[h];
        let slot = &mut host.slots[s].slot;
        let outcome = slot.on_packet_arrival(&host.profile, sim.now(), seq, packet);
        self.settled(sim, h, s, ChannelKind::Net, seq, Ok(Some(outcome)));
    }

    fn multicast_proposal(
        &mut self,
        sim: &mut Engine,
        vm: usize,
        sender: usize,
        kind: ChannelKind,
        seq: u64,
        proposal: VirtNanos,
    ) {
        self.counts[CloudCounter::proposals(kind) as usize] += 1;
        let msg = ProposalMsg::new(kind, seq, proposal);
        let mut pgm_pkt = Some(self.pgm_tx[vm][sender].send(msg));
        let from_node = NetNode(self.vms[vm].replicas[sender].0);
        let mut peers = (0..self.vms[vm].replicas.len())
            .filter(|&peer| peer != sender)
            .peekable();
        while let Some(receiver) = peers.next() {
            let to_node = NetNode(self.vms[vm].replicas[receiver].0);
            if let Some(arrive) =
                self.fabric
                    .transmit(sim.now(), from_node, to_node, PROPOSAL_BYTES)
            {
                // The last peer takes the packet itself, earlier ones a copy.
                let packet = if peers.peek().is_some() {
                    pgm_pkt.clone()
                } else {
                    pgm_pkt.take()
                };
                let packet = packet.expect("only the last peer takes the packet");
                sim.post(
                    arrive,
                    CloudEvent::PgmData {
                        vm,
                        receiver,
                        sender,
                        packet,
                    },
                );
            }
        }
    }

    fn pgm_receive(
        &mut self,
        sim: &mut Engine,
        vm: usize,
        receiver: usize,
        sender: usize,
        packet: PgmPacket<ProposalMsg>,
    ) {
        let n = self.vms[vm].replicas.len();
        self.pgm_rx[vm][receiver * n + sender].on_packet(packet, &mut self.pgm_out);
        let now = sim.now();
        let (h, s) = self.vms[vm].replicas[receiver];
        if !self.pgm_out.delivered.is_empty() {
            // The whole delivered backlog (one message in the common
            // case, more after NAK recovery) runs through one
            // median-agreement pass — every channel kind together,
            // streamed, no per-message allocation — and the slot's wake
            // is recomputed once at the end if any delivery time got
            // fixed.
            let batch = self.pgm_out.delivered.iter().map(|msg| msg.parts());
            let host = &mut self.hosts[h];
            if host.slots[s].slot.add_proposals(&host.profile, now, batch) > 0 {
                self.reschedule_wake(sim, h, s);
            }
        }
        if !self.pgm_out.nak_missing.is_empty() {
            let missing = self.pgm_out.nak_missing.clone();
            self.send_nak(sim, vm, receiver, sender, missing);
        }
    }

    fn send_nak(
        &mut self,
        sim: &mut Engine,
        vm: usize,
        receiver: usize,
        sender: usize,
        missing: Vec<u64>,
    ) {
        self.counts[CloudCounter::PgmNaks as usize] += 1;
        let replicas = &self.vms[vm].replicas;
        let from_node = NetNode(replicas[receiver].0);
        let to_node = NetNode(replicas[sender].0);
        if let Some(arrive) = self
            .fabric
            .transmit(sim.now(), from_node, to_node, PROPOSAL_BYTES)
        {
            sim.post(
                arrive,
                CloudEvent::Nak {
                    vm,
                    receiver,
                    sender,
                    missing,
                },
            );
        }
    }

    /// Replica `sender` answers a NAK: one retransmission per missing seq
    /// still in its history, in the order the NAK lists them.
    fn answer_nak(
        &mut self,
        sim: &mut Engine,
        vm: usize,
        receiver: usize,
        sender: usize,
        missing: &[u64],
    ) {
        let tx = &self.pgm_tx[vm][sender];
        let replicas = &self.vms[vm].replicas;
        let from_node = NetNode(replicas[sender].0);
        let to_node = NetNode(replicas[receiver].0);
        for &seq in missing {
            let Some(packet) = tx.retransmit(seq) else {
                continue;
            };
            if let Some(arrive) =
                self.fabric
                    .transmit(sim.now(), from_node, to_node, PROPOSAL_BYTES)
            {
                sim.post(
                    arrive,
                    CloudEvent::PgmData {
                        vm,
                        receiver,
                        sender,
                        packet,
                    },
                );
            }
        }
    }

    /// Periodic PGM NAK retry (tail-loss recovery): every stream with a
    /// gap re-NAKs it, in `(vm, receiver, sender)` order.
    fn pgm_retry(&mut self, sim: &mut Engine) {
        for vm in 0..self.pgm_rx.len() {
            let n = self.vms[vm].replicas.len();
            for i in 0..self.pgm_rx[vm].len() {
                let naks = self.pgm_rx[vm][i].pending_naks();
                if !naks.is_empty() {
                    self.send_nak(sim, vm, i / n, i % n, naks);
                }
            }
        }
        sim.post_in(SimDuration::from_millis(50), CloudEvent::PgmRetry);
    }

    /// The pacing heartbeat event: one [`Cloud::pacing_tick`], then the
    /// next beat.
    fn pace(&mut self, sim: &mut Engine) {
        self.pacing_tick(sim);
        if let Some(pacing) = self.cfg.pacing {
            sim.post_in(pacing.heartbeat, CloudEvent::Pace);
        }
    }

    /// Pacing heartbeat: per StopWatch VM, if the fastest replica leads the
    /// second-fastest by more than the allowed gap, stall it. The same tick
    /// refreshes host contention from guest busy-ness, so coresident load
    /// perturbs timing exactly as on real shared hardware.
    fn pacing_tick(&mut self, sim: &mut Engine) {
        let now = sim.now();
        for h in 0..self.hosts.len() {
            let host = &mut self.hosts[h];
            if host.refresh_activity(host.busy()) {
                for s in 0..host.slots.len() {
                    self.reschedule_wake(sim, h, s);
                }
                // The phys↔virt mapping of this host just changed:
                // re-target its pending virtual-timer hardware events,
                // cancelled fires included, in `(slot, fire_seq)` order.
                for s in 0..self.hosts[h].slots.len() {
                    for i in 0..self.hosts[h].slots[s].timers.len() {
                        let TimerRecord {
                            fire_seq, deadline, ..
                        } = self.hosts[h].slots[s].timers[i];
                        self.schedule_timer_fire(sim, h, s, fire_seq, deadline);
                    }
                }
            }
        }
        let Some(pacing) = self.cfg.pacing else {
            return;
        };
        for vm_idx in 0..self.vms.len() {
            if !self.vms[vm_idx].replicated {
                continue;
            }
            // Fastest and second-fastest replica, without sorting (and
            // without cloning the replica list — this runs every
            // heartbeat for every VM).
            let mut fastest: Option<(u64, usize)> = None;
            let mut second: Option<u64> = None;
            for i in 0..self.vms[vm_idx].replicas.len() {
                let (h, s) = self.vms[vm_idx].replicas[i];
                let host = &self.hosts[h];
                let v = host.slots[s].slot.virt_at(&host.profile, now).as_nanos();
                match fastest {
                    Some((fv, _)) if v <= fv => second = Some(second.map_or(v, |s2| s2.max(v))),
                    Some((fv, _)) => {
                        second = Some(fv);
                        fastest = Some((v, i));
                    }
                    None => fastest = Some((v, i)),
                }
            }
            if let (Some((fv, fi)), Some(sv)) = (fastest, second) {
                if fv - sv > pacing.max_gap_ns {
                    let (h, s) = self.vms[vm_idx].replicas[fi];
                    let host = &mut self.hosts[h];
                    let slot = &mut host.slots[s].slot;
                    slot.stall_until(&host.profile, now, now + pacing.heartbeat);
                    self.reschedule_wake(sim, h, s);
                }
            }
        }
    }

    fn client_start(&mut self, sim: &mut Engine, ci: usize) {
        let now = sim.now();
        let out = self.clients[ci].app.on_start(now);
        self.client_send(sim, ci, out);
        self.client_tick(sim, ci);
    }

    fn client_tick(&mut self, sim: &mut Engine, ci: usize) {
        if self.clients[ci].app.is_done() {
            return;
        }
        let now = sim.now();
        let out = self.clients[ci].app.on_tick(now);
        self.client_send(sim, ci, out);
        sim.post_in(self.cfg.client_tick, CloudEvent::ClientTick { ci });
    }

    /// Draws the next background broadcast and posts its arrival at the
    /// ingress.
    fn next_broadcast(&mut self, sim: &mut Engine) {
        let src = self
            .broadcast
            .as_mut()
            .expect("broadcast events need a broadcast source");
        let (gap, packet) = src.next_broadcast();
        let packet = self.parked.park(packet);
        sim.post_in(gap, CloudEvent::Broadcast { packet });
    }

    fn broadcast(&mut self, sim: &mut Engine, packet: Packet) {
        self.counts[CloudCounter::Broadcasts as usize] += 1;
        self.ingress_replicate(sim, packet);
        self.next_broadcast(sim);
    }
}

/// A VM awaiting construction: (replica hosts, one program per replica,
/// the defense mode its slots run under).
type PendingVm = (Vec<usize>, Vec<Box<dyn GuestProgram>>, DefenseMode);

/// Builder for a [`CloudSim`].
pub struct CloudBuilder {
    cfg: CloudConfig,
    host_count: usize,
    vms: Vec<PendingVm>,
    clients: Vec<Box<dyn ClientApp>>,
    /// Every host's shared-LLC `(sets, ways)`.
    cache_geometry: (u64, usize),
}

impl CloudBuilder {
    /// Starts a builder for a cloud of `host_count` machines.
    ///
    /// # Panics
    ///
    /// Panics if `host_count == 0`.
    pub fn new(cfg: CloudConfig, host_count: usize) -> Self {
        assert!(host_count > 0, "need at least one host");
        CloudBuilder {
            cfg,
            host_count,
            vms: Vec::new(),
            clients: Vec::new(),
            cache_geometry: (64, 8),
        }
    }

    /// Sets the shared-LLC geometry of every host (sets × ways). Cache
    /// workloads call this from `install` so their probe space matches
    /// the platform; unset, every host's LLC has 64 sets of 8 ways.
    pub fn set_cache_geometry(&mut self, sets: u64, ways: usize) {
        self.cache_geometry = (sets, ways);
    }

    /// The configuration this builder was created with.
    pub fn config(&self) -> &CloudConfig {
        &self.cfg
    }

    /// The endpoint the *next* [`CloudBuilder::add_defended_vm`] /
    /// [`CloudBuilder::add_baseline_vm`] call will assign.
    ///
    /// Guest programs sometimes need a peer's endpoint at construction time
    /// (e.g. a monitor a workload reports completion to); scenario factories
    /// use these hooks to learn endpoints before the VM or client exists.
    pub fn next_vm_endpoint(&self) -> EndpointId {
        EndpointId(1000 + self.vms.len() as u64)
    }

    /// The endpoint the *next* [`CloudBuilder::add_client`] call will
    /// assign.
    pub fn next_client_endpoint(&self) -> EndpointId {
        EndpointId(2000 + self.clients.len() as u64)
    }

    /// Adds a VM guarded by the **configured** defense arm
    /// (`cfg.defense`, resolved through the `vmm::defense` registry):
    /// an arm lowered to [`DefenseMode::StopWatch`] consumes all of
    /// `hosts` as replica hosts and invokes `make()` once per replica
    /// (the replicas must be identical); a single-host arm runs one
    /// instance on `hosts[0]`.
    /// Scenario factories call this so one workload definition runs
    /// under every arm a sweep names.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.defense` names no registered arm, if `hosts` is
    /// empty or names an unknown host, or (StopWatch) if
    /// `hosts` does not match the configured replica count.
    pub fn add_defended_vm<F>(&mut self, hosts: &[usize], make: F) -> VmHandle
    where
        F: Fn() -> Box<dyn GuestProgram>,
    {
        let mode = self.cfg.defense_mode();
        let hosts = if matches!(mode, DefenseMode::StopWatch { .. }) {
            assert_eq!(hosts.len(), self.cfg.replicas, "replica count mismatch");
            hosts
        } else {
            assert!(!hosts.is_empty(), "need at least one host");
            &hosts[..1]
        };
        self.push_vm(hosts, mode, make)
    }

    /// Adds an unprotected (baseline / unmodified-Xen) VM on one host,
    /// regardless of `cfg.defense`.
    pub fn add_baseline_vm(&mut self, host: usize, program: Box<dyn GuestProgram>) -> VmHandle {
        let mut program = Some(program);
        self.push_vm(&[host], DefenseMode::baseline(), move || {
            program.take().expect("single-host arm makes one program")
        })
    }

    fn push_vm<F>(&mut self, hosts: &[usize], mode: DefenseMode, mut make: F) -> VmHandle
    where
        F: FnMut() -> Box<dyn GuestProgram>,
    {
        assert!(hosts.iter().all(|&h| h < self.host_count), "unknown host");
        let endpoint = self.next_vm_endpoint();
        let programs = (0..hosts.len()).map(|_| make()).collect();
        self.vms.push((hosts.to_vec(), programs, mode));
        VmHandle {
            index: self.vms.len() - 1,
            endpoint,
        }
    }

    /// Adds an external client machine.
    pub fn add_client(&mut self, app: Box<dyn ClientApp>) -> ClientHandle {
        let endpoint = self.next_client_endpoint();
        self.clients.push(app);
        ClientHandle {
            index: self.clients.len() - 1,
            endpoint,
        }
    }

    /// Builds the cloud and schedules boot events.
    pub fn build(self) -> CloudSim {
        let cfg = self.cfg;
        let root = SimRng::new(cfg.seed);
        let (sets, ways) = self.cache_geometry;
        let mut hosts: Vec<Host> = (0..self.host_count)
            .map(|h| {
                let model: Box<dyn AccessModel> = match cfg.disk {
                    DiskKind::Rotating => Box::new(RotatingDisk::testbed()),
                    DiskKind::Ssd => Box::new(Ssd::sata()),
                };
                Host {
                    profile: SpeedProfile::new(
                        cfg.base_ips,
                        cfg.ips_jitter,
                        cfg.speed_epoch,
                        root.stream_indexed("host-speed", h),
                    ),
                    disk: DiskDevice::new(model, root.stream_indexed("host-disk", h)),
                    cache: CacheModel::new(sets, ways),
                    slots: Vec::new(),
                    tunnel_last: SimTime::ZERO,
                }
            })
            .collect();
        let ingress_node = NetNode(self.host_count);
        let egress_node = NetNode(self.host_count + 1);
        let fabric = {
            let mut f = Fabric::new(cfg.lan, root.stream("fabric"));
            // Client machines sit behind the configured client link.
            for c in 0..self.clients.len() {
                let node = NetNode(self.host_count + 2 + c);
                f.set_link(node, ingress_node, cfg.client_link);
                f.set_link(egress_node, node, cfg.client_link);
                for h in 0..self.host_count {
                    f.set_link(NetNode(h), node, cfg.client_link);
                    f.set_link(node, NetNode(h), cfg.client_link);
                }
            }
            f
        };

        // Host RTC offsets: start virtual time at the median of the replica
        // hosts' clocks (Sec. IV-A).
        let mut rtc = root.stream("host-rtc");
        let host_rtc: Vec<u64> = (0..self.host_count)
            .map(|_| rtc.uniform_u64(0, 2_000_000))
            .collect();

        let mut vms = Vec::new();
        let mut by_endpoint = FxHashMap::default();
        for (vm_idx, (host_list, programs, mode)) in self.vms.into_iter().enumerate() {
            let endpoint = EndpointId(1000 + vm_idx as u64);
            let replicated = matches!(mode, DefenseMode::StopWatch { .. });
            let mut clocks: Vec<u64> = host_list.iter().map(|&h| host_rtc[h]).collect();
            clocks.sort_unstable();
            let start = VirtNanos::from_nanos(clocks[clocks.len() / 2]);
            let image = DiskImage::new(cfg.image_blocks);
            let mut replicas = Vec::new();
            for (&h, program) in host_list.iter().zip(programs) {
                let slot = GuestSlot::new(
                    program,
                    SlotConfig {
                        endpoint,
                        exit_every: cfg.exit_every,
                        mode,
                        clocks: cfg.platform_clocks,
                    },
                    VirtualClock::new(start, cfg.slope),
                    image.clone(), // the replicated disk image
                );
                let slots = &mut hosts[h].slots;
                slots.push(SlotRecord {
                    slot,
                    vm: vm_idx,
                    replica: replicas.len(),
                    wake: None,
                    timers: Vec::new(),
                });
                replicas.push((h, slots.len() - 1));
            }
            by_endpoint.insert(endpoint, vm_idx);
            vms.push(VmRecord {
                endpoint,
                replicas,
                replicated,
            });
        }

        let mut clients = Vec::new();
        let mut client_by_endpoint = FxHashMap::default();
        for (ci, app) in self.clients.into_iter().enumerate() {
            let endpoint = EndpointId(2000 + ci as u64);
            clients.push(ClientRecord {
                node: NetNode(self.host_count + 2 + ci),
                app,
            });
            client_by_endpoint.insert(endpoint, ci);
        }

        // One PGM stream per ordered pair of a replicated VM's replicas.
        let (pgm_tx, pgm_rx) = vms
            .iter()
            .map(|vm| {
                let n = if vm.replicated { vm.replicas.len() } else { 0 };
                let tx = (0..n).map(|_| PgmSender::new(4096)).collect();
                let rx = (0..n * n).map(|_| PgmReceiver::new()).collect();
                (tx, rx)
            })
            .unzip();

        // Background broadcast chatter through the ingress.
        let broadcast = cfg.broadcast_band.map(|(lo, hi)| {
            BroadcastSource::new(
                EndpointId(9999),
                lo,
                hi,
                SimRng::new(cfg.seed).stream("broadcast"),
            )
        });
        let cloud = Cloud {
            cfg,
            hosts,
            fabric,
            ingress_node,
            egress: EgressNode::new(),
            egress_node,
            vms,
            by_endpoint,
            clients,
            client_by_endpoint,
            ingress_seq: 0,
            pgm_tx,
            pgm_rx,
            pgm_out: RxOutput::default(),
            parked: ParkedPackets::default(),
            broadcast,
            error: None,
            counts: [0; CloudCounter::NAMES.len()],
        };

        let mut sim = Engine::new();
        // Boot every replica at t=0.
        for vm in &cloud.vms {
            for &(h, s) in &vm.replicas {
                sim.post(SimTime::ZERO, CloudEvent::Boot { h, s });
            }
        }
        // Clients start shortly after boot, then tick.
        for ci in 0..cloud.clients.len() {
            sim.post(SimTime::from_millis(1), CloudEvent::ClientStart { ci });
        }
        if cloud.cfg.pacing.is_some() {
            sim.post(SimTime::ZERO, CloudEvent::Pace);
        }
        sim.post(SimTime::ZERO, CloudEvent::PgmRetry);
        if cloud.broadcast.is_some() {
            sim.post(SimTime::ZERO, CloudEvent::BroadcastStart);
        }

        CloudSim { sim, cloud }
    }
}

/// A built cloud plus its event loop.
pub struct CloudSim {
    /// The discrete-event engine.
    sim: Engine,
    /// The world state.
    pub cloud: Cloud,
}

impl CloudSim {
    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }

    /// Number of engine events executed so far.
    pub fn events_executed(&self) -> u64 {
        self.sim.events_executed()
    }

    /// The first structured slot failure of this run, if any (a malformed
    /// scenario fails its sweep cell, not the sweep process). Checked by
    /// the harness after the run; [`CloudSim::run_until_clients_done`]
    /// also stops early on it.
    pub fn error(&self) -> Option<&str> {
        self.cloud.error.as_deref()
    }

    /// Runs until `deadline`.
    pub fn run_until(&mut self, deadline: SimTime) -> SimTime {
        self.sim.run_until(&mut self.cloud, deadline)
    }

    /// Runs until every client reports done (checking every 10 ms of
    /// simulated time), a slot fails structurally, or `deadline` passes;
    /// returns the finish time.
    pub fn run_until_clients_done(&mut self, deadline: SimTime) -> SimTime {
        let step = SimDuration::from_millis(10);
        while !self.cloud.clients_done() && self.cloud.error.is_none() && self.sim.now() < deadline
        {
            let next = (self.sim.now() + step).min(deadline);
            self.sim.run_until(&mut self.cloud, next);
        }
        self.sim.now()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::packet::Body;
    use simkit::time::VirtOffset;
    use vmm::counter::SlotCounter;
    use vmm::guest::{GuestEnv, IdleGuest};

    #[test]
    fn counter_names_are_sorted_and_follow_the_variants() {
        use CloudCounter::*;
        let all = [
            Broadcasts,
            CacheProposalsSent,
            ClientPackets,
            DiskProposalsSent,
            EgressDivergences,
            EgressForwarded,
            IngressPackets,
            PgmNaks,
            ProposalsSent,
            TimerProposalsSent,
        ];
        assert_eq!(all.len(), CloudCounter::NAMES.len());
        assert!(CloudCounter::NAMES.windows(2).all(|w| w[0] < w[1]));
        for (i, c) in all.into_iter().enumerate() {
            assert_eq!(c as usize, i);
            let name = CloudCounter::NAMES[i];
            assert_eq!(format!("{c:?}").to_lowercase(), name.replace('_', ""));
        }
    }

    #[test]
    fn proposal_messages_round_trip_every_kind() {
        let proposal = VirtNanos::from_nanos(123_456_789);
        for kind in ChannelKind::ALL {
            for seq in [0, (1 << 62) - 1] {
                let msg = ProposalMsg::new(kind, seq, proposal);
                assert_eq!(msg.parts(), (kind, seq, proposal));
            }
        }
    }

    #[test]
    #[should_panic(expected = "does not fit the wire word")]
    fn a_proposal_seq_past_62_bits_is_refused() {
        ProposalMsg::new(ChannelKind::Net, 1 << 62, VirtNanos::ZERO);
    }

    #[test]
    fn agreement_messages_and_queued_events_stay_small() {
        // A PGM history entry and an engine slab entry each cost this
        // much per in-flight proposal or event.
        assert_eq!(std::mem::size_of::<ProposalMsg>(), 16);
        assert!(std::mem::size_of::<CloudEvent>() <= 56);
    }

    /// Guest that echoes every Raw packet back to its source.
    struct Echo;
    impl GuestProgram for Echo {
        fn on_packet(&mut self, packet: &Packet, env: &mut GuestEnv) {
            if let Body::Raw { tag, len } = *packet.body() {
                env.send(packet.src(), Body::Raw { tag: tag + 1, len });
            }
        }
    }

    /// Client that sends `n` pings (one per tick) and counts replies.
    struct Pinger {
        server: EndpointId,
        to_send: u32,
        sent: u32,
        replies: Vec<(SimTime, u64)>,
        me: EndpointId,
    }
    impl ClientApp for Pinger {
        fn on_start(&mut self, _now: SimTime) -> Vec<Packet> {
            self.next_ping()
        }
        fn on_packet(&mut self, packet: &Packet, now: SimTime) -> Vec<Packet> {
            if let Body::Raw { tag, .. } = *packet.body() {
                self.replies.push((now, tag));
            }
            Vec::new()
        }
        fn on_tick(&mut self, _now: SimTime) -> Vec<Packet> {
            self.next_ping()
        }
        fn is_done(&self) -> bool {
            self.replies.len() as u32 >= self.to_send
        }
        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
    }
    impl Pinger {
        fn next_ping(&mut self) -> Vec<Packet> {
            if self.sent >= self.to_send {
                return Vec::new();
            }
            let tag = u64::from(self.sent) * 10;
            self.sent += 1;
            vec![Packet::new(
                self.me,
                self.server,
                Body::Raw { tag, len: 100 },
            )]
        }
    }

    fn ping_cloud(stopwatch: bool, pings: u32) -> (CloudSim, VmHandle, ClientHandle) {
        let mut b = CloudBuilder::new(CloudConfig::fast_test(), 3);
        let vm = if stopwatch {
            b.add_defended_vm(&[0, 1, 2], || Box::new(Echo))
        } else {
            b.add_baseline_vm(0, Box::new(Echo))
        };
        let client = b.add_client(Box::new(Pinger {
            server: vm.endpoint,
            to_send: pings,
            sent: 0,
            replies: Vec::new(),
            me: EndpointId(2000),
        }));
        (b.build(), vm, client)
    }

    #[test]
    fn stopwatch_ping_roundtrip() {
        let (mut sim, vm, client) = ping_cloud(true, 3);
        sim.run_until_clients_done(SimTime::from_secs(5));
        let pinger: &Pinger = sim.cloud.client_app::<Pinger>(client).expect("downcast");
        assert_eq!(pinger.replies.len(), 3, "all pings answered exactly once");
        let mut tags: Vec<u64> = pinger.replies.iter().map(|r| r.1).collect();
        tags.sort_unstable(); // the final client hop may reorder
        assert_eq!(tags, vec![1, 11, 21]);
        // All three replicas saw all three packets and delivered them at
        // identical virtual times.
        let logs: Vec<_> = (0..3).map(|r| sim.cloud.delivered_log(vm, r)).collect();
        assert_eq!(logs[0].len(), 3);
        assert_eq!(logs[0], logs[1]);
        assert_eq!(logs[1], logs[2]);
        // Egress forwarded each reply exactly once (on the second copy).
        assert_eq!(sim.cloud.count(CloudCounter::EgressForwarded), 3);
        assert_eq!(sim.cloud.count(CloudCounter::EgressDivergences), 0);
        assert_eq!(sim.cloud.slot_totals()[SlotCounter::SyncViolations], 0);
    }

    #[test]
    fn a_finished_stopwatch_run_leaves_no_parked_packet() {
        let (mut sim, _, client) = ping_cloud(true, 3);
        sim.run_until_clients_done(SimTime::from_secs(5));
        assert!(sim.cloud.client_app::<Pinger>(client).unwrap().is_done());
        // Every packet still in flight lands within a second; after that
        // the queue holds only periodic events, which carry no packet.
        let drained = sim.now() + SimDuration::from_secs(1);
        sim.run_until(drained);
        let parked = &sim.cloud.parked;
        assert!(!parked.packets.is_empty(), "the run parked packets");
        assert!(parked.packets.iter().all(Option::is_none));
        assert_eq!(parked.free.len(), parked.packets.len());
    }

    #[test]
    fn baseline_ping_roundtrip_is_faster() {
        let (mut sw, _, csw) = ping_cloud(true, 1);
        let t_sw = sw.run_until_clients_done(SimTime::from_secs(5));
        let (mut bl, _, cbl) = ping_cloud(false, 1);
        let t_bl = bl.run_until_clients_done(SimTime::from_secs(5));
        assert!(sw.cloud.client_app::<Pinger>(csw).unwrap().is_done());
        assert!(bl.cloud.client_app::<Pinger>(cbl).unwrap().is_done());
        assert!(t_bl < t_sw, "baseline {t_bl} should beat stopwatch {t_sw}");
    }

    #[test]
    fn defended_vm_follows_the_configured_arm() {
        // Default config: the stopwatch arm replicates across all hosts
        // and tunnels outputs through the egress.
        let mut b = CloudBuilder::new(CloudConfig::fast_test(), 3);
        let vm = b.add_defended_vm(&[0, 1, 2], || Box::new(Echo));
        let client = b.add_client(Box::new(Pinger {
            server: vm.endpoint,
            to_send: 1,
            sent: 0,
            replies: Vec::new(),
            me: EndpointId(2000),
        }));
        let mut sim = b.build();
        sim.run_until_clients_done(SimTime::from_secs(5));
        assert_eq!(sim.cloud.vm_replicas(vm).len(), 3);
        assert!(sim.cloud.client_app::<Pinger>(client).unwrap().is_done());
        assert_eq!(sim.cloud.count(CloudCounter::EgressForwarded), 1);

        // A single-host arm ignores the surplus hosts and sends directly
        // (no egress voting).
        let mut cfg = CloudConfig::fast_test();
        cfg.apply("defense", "deterland").unwrap();
        let mut b = CloudBuilder::new(cfg, 3);
        let vm = b.add_defended_vm(&[0, 1, 2], || Box::new(Echo));
        let client = b.add_client(Box::new(Pinger {
            server: vm.endpoint,
            to_send: 1,
            sent: 0,
            replies: Vec::new(),
            me: EndpointId(2000),
        }));
        let mut sim = b.build();
        sim.run_until_clients_done(SimTime::from_secs(5));
        assert_eq!(sim.cloud.vm_replicas(vm).len(), 1);
        assert!(sim.cloud.client_app::<Pinger>(client).unwrap().is_done());
        assert_eq!(sim.cloud.count(CloudCounter::EgressForwarded), 0);
    }

    #[test]
    fn idle_cloud_stays_quiet() {
        let mut b = CloudBuilder::new(CloudConfig::fast_test(), 3);
        b.add_defended_vm(&[0, 1, 2], || Box::new(IdleGuest));
        let mut sim = b.build();
        sim.run_until(SimTime::from_millis(300));
        assert_eq!(sim.cloud.slot_totals()[SlotCounter::NetIrq], 0);
        assert_eq!(sim.cloud.count(CloudCounter::EgressForwarded), 0);
    }

    #[test]
    fn broadcast_chatter_reaches_all_replicas() {
        let mut cfg = CloudConfig::fast_test();
        cfg.broadcast_band = Some((80.0, 80.0));
        let mut b = CloudBuilder::new(cfg, 3);
        let vm = b.add_defended_vm(&[0, 1, 2], || Box::new(IdleGuest));
        let mut sim = b.build();
        sim.run_until(SimTime::from_millis(500));
        let bc = sim.cloud.count(CloudCounter::Broadcasts);
        assert!(bc >= 20, "broadcasts {bc}");
        // Broadcasts are injected as network interrupts at all replicas,
        // at identical virtual times.
        let l0 = sim.cloud.delivered_log(vm, 0);
        let l1 = sim.cloud.delivered_log(vm, 1);
        assert!(!l0.is_empty());
        let n = l0.len().min(l1.len());
        assert!(l0.len().abs_diff(l1.len()) <= 2, "replicas out of step");
        assert_eq!(l0[..n], l1[..n]);
    }

    #[test]
    fn structured_slot_failure_surfaces_as_run_error_not_a_panic() {
        // A malformed event (here: a disk completion for an op no slot is
        // tracking) must mark the run failed via `CloudSim::error` — the
        // sweep layer fails this cell and keeps the process alive.
        let mut b = CloudBuilder::new(CloudConfig::fast_test(), 3);
        b.add_defended_vm(&[0, 1, 2], || Box::new(IdleGuest));
        let mut sim = b.build();
        let bogus = CloudEvent::DiskDone {
            h: 0,
            s: 0,
            op_id: 999,
        };
        sim.sim.post(SimTime::from_millis(5), bogus);
        sim.run_until(SimTime::from_millis(20));
        let err = sim.error().expect("run is marked failed");
        assert!(err.contains("unknown op 999"), "{err}");
        assert!(err.contains("host 0 slot 0"), "{err}");
        // Early-exit: the clients-done loop stops on the error.
        let t = sim.run_until_clients_done(SimTime::from_secs(30));
        assert!(t < SimTime::from_secs(30));
    }

    /// Guest that arms four one-shot timers 20 ms apart at boot, cancels
    /// the second, and then computes for 50 ms, so its host's contention
    /// changes while the fires are pending.
    struct TimerBurst;
    impl GuestProgram for TimerBurst {
        fn on_boot(&mut self, env: &mut GuestEnv) {
            for id in 0..4 {
                env.set_timer(id, env.now + VirtOffset::from_millis(20 * (id + 1)));
            }
            env.cancel_timer(1);
            env.compute(50_000_000);
        }
    }

    /// `(fire_seq, at, deadline)` of slot `(h, s)`'s timer records.
    fn timer_records(cloud: &Cloud, h: usize, s: usize) -> Vec<(u64, SimTime, VirtNanos)> {
        let timers = &cloud.hosts[h].slots[s].timers;
        timers
            .iter()
            .map(|t| (t.fire_seq, t.at, t.deadline))
            .collect()
    }

    #[test]
    fn timer_records_follow_contention_and_leave_with_their_fires() {
        // No heartbeat: the test makes the one contention change itself.
        let mut cfg = CloudConfig::fast_test();
        cfg.pacing = None;
        let mut b = CloudBuilder::new(cfg, 1);
        let vm = b.add_baseline_vm(0, Box::new(TimerBurst));
        let mut sim = b.build();
        sim.run_until(SimTime::from_millis(1));
        let (h, s) = sim.cloud.vm_replicas(vm)[0];
        let armed = timer_records(&sim.cloud, h, s);
        // The cancelled fire keeps its record: its hardware event still
        // elapses.
        assert_eq!(armed.len(), 4);
        assert!(armed.windows(2).all(|w| w[0].0 < w[1].0), "fire_seq order");

        // The busy guest raises the host's contention: every record moves
        // to the new projection of its deadline.
        sim.cloud.pacing_tick(&mut sim.sim);
        let now = sim.now();
        let retargeted = timer_records(&sim.cloud, h, s);
        assert_eq!(retargeted.len(), 4);
        for (&(fire_seq, at, deadline), &(_, before, _)) in retargeted.iter().zip(&armed) {
            let profile = &sim.cloud.hosts[h].profile;
            assert_eq!(
                at,
                sim.cloud.slot(h, s).phys_at_virt(profile, now, deadline)
            );
            assert!(at > before, "fire {fire_seq} slowed by contention");
        }

        sim.run_until(SimTime::from_millis(500));
        assert!(timer_records(&sim.cloud, h, s).is_empty());
        let counts = sim.cloud.slot(h, s).counters();
        assert_eq!(counts[SlotCounter::TimerArms], 4);
        assert_eq!(
            counts[SlotCounter::VtimerIrq],
            3,
            "the cancelled fire is not delivered"
        );
    }

    /// Guest that computes this many branches at boot (1 ms per million
    /// at the default speed), busy until they retire.
    struct Compute(u64);
    impl GuestProgram for Compute {
        fn on_boot(&mut self, env: &mut GuestEnv) {
            env.compute(self.0);
        }
    }

    #[test]
    fn a_busy_slot_raises_only_its_own_hosts_contention() {
        // No heartbeat: the test makes each pacing tick itself.
        let mut cfg = CloudConfig::fast_test();
        cfg.pacing = None;
        let mut b = CloudBuilder::new(cfg, 2);
        b.add_baseline_vm(0, Box::new(Compute(50_000_000)));
        b.add_baseline_vm(1, Box::new(IdleGuest));
        let mut sim = b.build();
        let contention = |sim: &CloudSim, h: usize| sim.cloud.hosts[h].profile.contention();
        sim.run_until(SimTime::from_millis(1));
        sim.cloud.pacing_tick(&mut sim.sim);
        assert_eq!(contention(&sim, 0), 0.25);
        assert_eq!(contention(&sim, 1), 0.0);
        sim.run_until(SimTime::from_millis(200));
        assert!(!sim.cloud.slot(0, 0).is_busy(), "the burst retired");
        sim.cloud.pacing_tick(&mut sim.sim);
        assert_eq!(contention(&sim, 0), 0.0);
        assert_eq!(contention(&sim, 1), 0.0);
    }

    #[test]
    fn activity_raises_contention() {
        let mut sim = CloudBuilder::new(CloudConfig::fast_test(), 1).build();
        let h = &mut sim.cloud.hosts[0];
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

    /// Guest that arms one timer 5 ms after boot, computes through its
    /// fire when `busy`, and records how late the fire's interrupt
    /// timestamp reads against the deadline.
    struct ArmOnce {
        busy: bool,
        deadline: VirtNanos,
        late: Option<u64>,
    }
    impl GuestProgram for ArmOnce {
        fn on_boot(&mut self, env: &mut GuestEnv) {
            self.deadline = env.now + VirtOffset::from_millis(5);
            env.set_timer(0, self.deadline);
            if self.busy {
                env.compute(1_000_000_000);
            }
        }
        fn on_vtimer(&mut self, _timer_id: u64, env: &mut GuestEnv) {
            self.late = Some((env.irq_timestamp - self.deadline).as_nanos());
        }
        fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
            Some(self)
        }
    }

    #[test]
    fn a_timer_fire_waits_one_slice_behind_a_busy_coresident() {
        let slice = CloudConfig::fast_test().timeslice.as_nanos();
        // (the waker computes through its fire, busy coresidents)
        for (busy, coresidents) in [(false, 0), (false, 1), (false, 2), (true, 0)] {
            let mut b = CloudBuilder::new(CloudConfig::fast_test(), 1);
            let waker = ArmOnce {
                busy,
                deadline: VirtNanos::ZERO,
                late: None,
            };
            let vm = b.add_baseline_vm(0, Box::new(waker));
            for _ in 0..coresidents {
                b.add_baseline_vm(0, Box::new(Compute(1_000_000_000)));
            }
            let mut sim = b.build();
            sim.run_until(SimTime::from_millis(100));
            let row = format!("busy waker: {busy}, coresidents: {coresidents}");
            let (h, s) = sim.cloud.vm_replicas(vm)[0];
            let counts = sim.cloud.slot(h, s).counters();
            assert_eq!(counts[SlotCounter::VtimerIrq], 1, "{row}");
            assert_eq!(
                counts[SlotCounter::SchedPreemptions],
                u64::from(coresidents > 0),
                "{row}"
            );
            let late = sim.cloud.guest_program::<ArmOnce>(vm, 0).unwrap().late;
            let late = late.expect("the fire was delivered");
            // One slice per busy coresident, plus the hardware event's
            // nanosecond-scale projection lag.
            assert_eq!(late / slice, coresidents, "{row}: {late} ns late");
            assert!(late % slice < 1_000, "{row}: {late} ns late");
        }
    }

    #[test]
    fn pacing_bounds_replica_gap() {
        let mut cfg = CloudConfig::fast_test();
        cfg.ips_jitter = 0.10; // exaggerate speed differences
        let mut b = CloudBuilder::new(cfg.clone(), 3);
        let vm = b.add_defended_vm(&[0, 1, 2], || Box::new(IdleGuest));
        let mut sim = b.build();
        sim.run_until(SimTime::from_secs(2));
        let now = sim.now();
        let mut virts: Vec<u64> = (0..3)
            .map(|r| {
                let (h, s) = sim.cloud.vm_replicas(vm)[r];
                let profile = &sim.cloud.hosts[h].profile;
                sim.cloud.slot(h, s).virt_at(profile, now).as_nanos()
            })
            .collect();
        virts.sort_unstable();
        let gap = virts[2] - virts[1];
        let max_gap = cfg.pacing.unwrap().max_gap_ns;
        // Allow one heartbeat of slack beyond the configured bound.
        assert!(
            gap <= max_gap + 8_000_000,
            "fastest-vs-second gap {gap} too large"
        );
        assert!(
            sim.cloud.slot_totals()[SlotCounter::Stalls] > 0,
            "pacing never engaged"
        );
    }
}
