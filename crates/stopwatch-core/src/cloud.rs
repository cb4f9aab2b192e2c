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
//! * guest outputs are tunneled to the **egress node**, which forwards the
//!   **second copy** of each packet — the median output timing — and votes
//!   on content (Sec. VI);
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
use simkit::metrics::Counters;
use simkit::rng::SimRng;
use simkit::time::{SimDuration, SimTime, VirtNanos};
use storage::block::DiskImage;
use storage::device::DiskDevice;
use storage::model::{AccessModel, RotatingDisk, Ssd};
use vmm::channel::ChannelKind;
use vmm::clock::VirtualClock;
use vmm::guest::GuestProgram;
use vmm::host::HostMachine;
use vmm::sched::VcpuScheduler;
use vmm::slot::{ArrivalOutcome, DefenseMode, GuestSlot, SlotConfig, SlotOutput};
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

#[derive(Debug, Clone)]
struct VmRecord {
    endpoint: EndpointId,
    replicas: Vec<(usize, usize)>, // (host index, slot index)
    /// `true` for VMs under a replicated (median-agreement) defense arm:
    /// their outputs tunnel to the egress for voting and they are paced.
    /// Single-host arms (baseline, deterland, bucketed) send directly.
    replicated: bool,
}

struct ClientRecord {
    node: NetNode,
    app: Box<dyn ClientApp>,
}

/// One replica's delivery-time proposal for one timing-channel event —
/// network packet, cache probe, disk completion, or virtual-timer fire,
/// told apart by the [`ChannelKind`] wire id. Every kind rides the same
/// PGM streams and the same demux.
#[derive(Debug, Clone, PartialEq, Eq)]
struct ProposalMsg {
    vm: usize,
    kind: ChannelKind,
    seq: u64,
    proposal: VirtNanos,
}

/// Static sizes for control-plane messages on the wire.
const PROPOSAL_BYTES: u32 = 64;
const TUNNEL_OVERHEAD: u32 = 40;

/// Every event the cloud schedules. `fire` sends each variant to the
/// `Cloud` method that handles it; the engine keeps posted events in a
/// recycled slab, so none of them is a heap allocation.
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
    Broadcast { packet: Packet },
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
        packet: Packet,
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
    /// One replica's tunneled output copy reaches the egress node.
    EgressCopy {
        guest: EndpointId,
        out_seq: u64,
        host_node: NetNode,
        packet: Packet,
    },
    /// A packet reaches client `ci`; `from_cloud` marks the ones counted
    /// in `client_packets` (client-to-client traffic is not).
    ClientPacket {
        ci: usize,
        packet: Packet,
        from_cloud: bool,
    },
    /// A packet bound for a guest reaches the ingress node.
    Ingress { packet: Packet },
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
            CloudEvent::Broadcast { packet } => cloud.broadcast(sim, packet),
            CloudEvent::SlotWake { h, s } => cloud.slot_wake(sim, h, s),
            CloudEvent::DiskDone { h, s, op_id } => cloud.disk_done(sim, h, s, op_id),
            CloudEvent::TimerFire { h, s, fire_seq } => cloud.timer_fire(sim, h, s, fire_seq),
            CloudEvent::HostPacket { h, s, seq, packet } => {
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
                guest,
                out_seq,
                host_node,
                packet,
            } => cloud.egress_copy(sim, guest, out_seq, host_node, packet),
            CloudEvent::ClientPacket {
                ci,
                packet,
                from_cloud,
            } => cloud.client_packet(sim, ci, packet, from_cloud),
            CloudEvent::Ingress { packet } => cloud.ingress_replicate(sim, packet),
        }
    }
}

/// The simulated cloud (the `Sim` world type).
pub struct Cloud {
    cfg: CloudConfig,
    hosts: Vec<HostMachine>,
    fabric: Fabric,
    ingress_node: NetNode,
    egress: EgressNode,
    egress_node: NetNode,
    vms: Vec<VmRecord>,
    by_endpoint: FxHashMap<EndpointId, usize>,
    clients: Vec<ClientRecord>,
    client_by_endpoint: FxHashMap<EndpointId, usize>,
    ingress_seq: u64,
    /// Pending wake per slot: the event and the time it fires at (kept so
    /// a reschedule to the same time can keep the pending event).
    wakes: FxHashMap<(usize, usize), (EventId, SimTime)>,
    /// Pending virtual-timer hardware events: `(host, slot, fire_seq)` →
    /// (event, scheduled time, programmed deadline). Tracked so activity
    /// changes can re-target the physical fire time at the deadline's
    /// virtual instant, the way `reschedule_wake` re-targets slot wakes.
    timer_fires: FxHashMap<(usize, usize, u64), (EventId, SimTime, VirtNanos)>,
    pgm_tx: FxHashMap<(usize, usize), PgmSender<ProposalMsg>>,
    pgm_rx: FxHashMap<(usize, usize, usize), PgmReceiver<ProposalMsg>>,
    /// Scratch output every PGM receive reuses.
    pgm_out: RxOutput<ProposalMsg>,
    tunnel_last: FxHashMap<usize, SimTime>,
    /// Background broadcast chatter through the ingress, if configured.
    broadcast: Option<BroadcastSource>,
    /// First structured slot failure, if any: a malformed scenario fails
    /// its cell (surfaced via [`CloudSim::error`]) instead of panicking
    /// the whole sweep process.
    error: Option<String>,
    stats: Counters,
}

impl Cloud {
    /// Cloud-level counters: `ingress_packets`, `egress_forwarded`,
    /// `proposals_sent`, `client_packets`, `broadcasts`, ...
    pub fn stats(&self) -> &Counters {
        &self.stats
    }

    /// The egress node (voting / forwarding statistics).
    pub fn egress(&self) -> &EgressNode {
        &self.egress
    }

    /// Immutable host access.
    pub fn host(&self, idx: usize) -> &HostMachine {
        &self.hosts[idx]
    }

    /// Mutable host access (activity levels, program extraction).
    pub fn host_mut(&mut self, idx: usize) -> &mut HostMachine {
        &mut self.hosts[idx]
    }

    /// The replica placements of a VM.
    pub fn vm_replicas(&self, vm: VmHandle) -> &[(usize, usize)] {
        &self.vms[vm.index].replicas
    }

    /// Sums a slot counter over every replica of every VM.
    pub fn total_counter(&self, name: &str) -> u64 {
        self.vms
            .iter()
            .flat_map(|vm| vm.replicas.iter())
            .map(|&(h, s)| self.hosts[h].slot(s).counters().get(name))
            .sum()
    }

    /// The `(ingress seq, virtual delivery)` log of one replica.
    pub fn delivered_log(&self, vm: VmHandle, replica: usize) -> Vec<(u64, VirtNanos)> {
        let (h, s) = self.vms[vm.index].replicas[replica];
        self.hosts[h].slot(s).delivered_log().to_vec()
    }

    /// Downcasts a guest replica's program to its concrete type.
    pub fn guest_program<T: 'static>(&mut self, vm: VmHandle, replica: usize) -> Option<&mut T> {
        let (h, s) = self.vms[vm.index].replicas[replica];
        self.hosts[h]
            .slot_mut(s)
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
        match self.hosts[h].boot_slot(s, sim.now()) {
            Ok(outputs) => {
                self.handle_outputs(sim, h, s, outputs);
                self.reschedule_wake(sim, h, s);
            }
            Err(e) => self.fail(&format!("host {h} slot {s} boot"), e),
        }
    }

    fn reschedule_wake(&mut self, sim: &mut Engine, h: usize, s: usize) {
        let now = sim.now();
        let target = self.hosts[h].next_wake(s, now);
        if let Some(&(_, at)) = self.wakes.get(&(h, s)) {
            // The pending wake already fires at the right time: keep it
            // instead of churning a cancel tombstone plus a fresh event
            // through the engine (the common case when new input does not
            // change what the slot is waiting for).
            if target == Some(at) {
                return;
            }
        }
        if let Some((old, _)) = self.wakes.remove(&(h, s)) {
            sim.cancel(old);
        }
        if let Some(t) = target {
            let id = sim.post(t, CloudEvent::SlotWake { h, s });
            self.wakes.insert((h, s), (id, t));
        }
    }

    fn slot_wake(&mut self, sim: &mut Engine, h: usize, s: usize) {
        self.wakes.remove(&(h, s));
        match self.hosts[h].process_slot(s, sim.now()) {
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
                    let done = self.hosts[h].submit_disk(request, sim.now());
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
        let now = sim.now();
        match self.hosts[h].disk_ready(s, now, op_id) {
            Ok(ArrivalOutcome::Proposal(proposal)) => {
                // The replicas agree on the completion timestamp exactly
                // like on a packet's Δn delivery time.
                self.propose_and_multicast(sim, h, s, ChannelKind::Disk, op_id, proposal);
            }
            Ok(ArrivalOutcome::Scheduled) => {
                self.reschedule_wake(sim, h, s);
            }
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
        let at = self.hosts[h].timer_event_time(s, now, deadline).max(now);
        if let Some(&(old_id, old_at, _)) = self.timer_fires.get(&(h, s, fire_seq)) {
            if old_at == at {
                return;
            }
            sim.cancel(old_id);
        }
        let id = sim.post(at, CloudEvent::TimerFire { h, s, fire_seq });
        self.timer_fires
            .insert((h, s, fire_seq), (id, at, deadline));
    }

    fn timer_fire(&mut self, sim: &mut Engine, h: usize, s: usize, fire_seq: u64) {
        self.timer_fires.remove(&(h, s, fire_seq));
        let now = sim.now();
        match self.hosts[h].timer_elapsed(s, now, fire_seq) {
            Ok(Some(ArrivalOutcome::Proposal(proposal))) => {
                // The replicas agree on the fire's delivery timestamp
                // exactly like on a packet's Δn delivery time.
                self.propose_and_multicast(sim, h, s, ChannelKind::Timer, fire_seq, proposal);
            }
            Ok(Some(ArrivalOutcome::Scheduled)) => {
                self.reschedule_wake(sim, h, s);
            }
            Ok(None) => {} // fire was cancelled in time
            Err(e) => self.fail(&format!("host {h} slot {s}"), e),
        }
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
        let vm_idx = self.vm_of_slot(h, s);
        let replica_idx = self.vms[vm_idx]
            .replicas
            .iter()
            .position(|&r| r == (h, s))
            .expect("slot is a replica of its vm");
        if self.hosts[h].add_proposals(s, sim.now(), [(kind, seq, proposal)]) > 0 {
            self.reschedule_wake(sim, h, s);
        }
        self.multicast_proposal(sim, vm_idx, replica_idx, kind, seq, proposal);
    }

    fn vm_of_slot(&self, h: usize, s: usize) -> usize {
        self.vms
            .iter()
            .position(|vm| vm.replicas.contains(&(h, s)))
            .expect("slot belongs to a vm")
    }

    fn route_guest_output(
        &mut self,
        sim: &mut Engine,
        h: usize,
        s: usize,
        out_seq: u64,
        packet: Packet,
    ) {
        let vm_idx = self.vm_of_slot(h, s);
        let guest = self.vms[vm_idx].endpoint;
        let host_node = self.hosts[h].id();
        if self.vms[vm_idx].replicated {
            // Tunnel to the egress node over TCP (Sec. VI); it forwards on
            // the second copy.
            let bytes = packet.wire_bytes() + TUNNEL_OVERHEAD;
            if let Some(raw_arrive) =
                self.fabric
                    .transmit(sim.now(), host_node, self.egress_node, bytes)
            {
                // The tunnel runs over TCP (Sec. VI): per-replica copies
                // reach the egress in emission order.
                let last = self.tunnel_last.get(&h).copied().unwrap_or(SimTime::ZERO);
                let arrive = raw_arrive.max(last + SimDuration::from_nanos(1));
                self.tunnel_last.insert(h, arrive);
                sim.post(
                    arrive,
                    CloudEvent::EgressCopy {
                        guest,
                        out_seq,
                        host_node,
                        packet,
                    },
                );
            }
        } else {
            // Baseline: straight to the destination.
            self.deliver_external(sim, host_node, packet);
        }
    }

    fn egress_copy(
        &mut self,
        sim: &mut Engine,
        guest: EndpointId,
        out_seq: u64,
        host_node: NetNode,
        packet: Packet,
    ) {
        match self.egress.on_copy(guest, out_seq, host_node, packet) {
            EgressDecision::Forward(pkt) => {
                self.stats.incr("egress_forwarded");
                let from = self.egress_node;
                self.deliver_external(sim, from, pkt);
            }
            EgressDecision::Hold => {}
            EgressDecision::Divergence { .. } => {
                self.stats.incr("egress_divergences");
            }
        }
    }

    /// Sends a packet from `from_node` toward its destination endpoint
    /// (client or guest).
    fn deliver_external(&mut self, sim: &mut Engine, from_node: NetNode, packet: Packet) {
        if let Some(&ci) = self.client_by_endpoint.get(&packet.dst()) {
            let node = self.clients[ci].node;
            if let Some(arrive) =
                self.fabric
                    .transmit(sim.now(), from_node, node, packet.wire_bytes())
            {
                sim.post(
                    arrive,
                    CloudEvent::ClientPacket {
                        ci,
                        packet,
                        from_cloud: true,
                    },
                );
            }
        } else if self.by_endpoint.contains_key(&packet.dst()) {
            // Guest-to-guest traffic flows back through the ingress.
            if let Some(arrive) =
                self.fabric
                    .transmit(sim.now(), from_node, self.ingress_node, packet.wire_bytes())
            {
                sim.post(arrive, CloudEvent::Ingress { packet });
            }
        }
        // Unknown destinations (e.g. the broadcast pseudo-endpoint on
        // baseline paths) are dropped silently.
    }

    fn client_packet(&mut self, sim: &mut Engine, ci: usize, packet: Packet, from_cloud: bool) {
        if from_cloud {
            self.stats.incr("client_packets");
        }
        let now = sim.now();
        let out = self.clients[ci].app.on_packet(&packet, now);
        self.client_send(sim, ci, out);
    }

    fn client_send(&mut self, sim: &mut Engine, ci: usize, pkts: Vec<Packet>) {
        for packet in pkts {
            let node = self.clients[ci].node;
            if self.by_endpoint.contains_key(&packet.dst()) {
                // To a guest: via the ingress node.
                if let Some(arrive) =
                    self.fabric
                        .transmit(sim.now(), node, self.ingress_node, packet.wire_bytes())
                {
                    sim.post(arrive, CloudEvent::Ingress { packet });
                }
            } else if let Some(&target) = self.client_by_endpoint.get(&packet.dst()) {
                let tnode = self.clients[target].node;
                if let Some(arrive) =
                    self.fabric
                        .transmit(sim.now(), node, tnode, packet.wire_bytes())
                {
                    sim.post(
                        arrive,
                        CloudEvent::ClientPacket {
                            ci: target,
                            packet,
                            from_cloud: false,
                        },
                    );
                }
            }
        }
    }

    /// The ingress node replicates one inbound packet to every replica host
    /// of the destination guest (or of *all* guests, for broadcasts).
    fn ingress_replicate(&mut self, sim: &mut Engine, packet: Packet) {
        self.stats.incr("ingress_packets");
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
                let node = self.hosts[h].id();
                if let Some(arrive) =
                    self.fabric
                        .transmit(sim.now(), self.ingress_node, node, packet.wire_bytes())
                {
                    let packet = packet.clone();
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
        let now = sim.now();
        match self.hosts[h].packet_arrival(s, now, seq, packet) {
            ArrivalOutcome::Proposal(proposal) => {
                self.propose_and_multicast(sim, h, s, ChannelKind::Net, seq, proposal);
            }
            ArrivalOutcome::Scheduled => {
                self.reschedule_wake(sim, h, s);
            }
        }
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
        self.stats.incr(kind.proposals_counter());
        let msg = ProposalMsg {
            vm,
            kind,
            seq,
            proposal,
        };
        let tx = self
            .pgm_tx
            .entry((vm, sender))
            .or_insert_with(|| PgmSender::new(4096));
        let mut pgm_pkt = Some(tx.send(msg));
        let from_node = self.hosts[self.vms[vm].replicas[sender].0].id();
        let mut peers = (0..self.vms[vm].replicas.len())
            .filter(|&peer| peer != sender)
            .peekable();
        while let Some(receiver) = peers.next() {
            let to_node = self.hosts[self.vms[vm].replicas[receiver].0].id();
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
        let rx = self
            .pgm_rx
            .entry((vm, receiver, sender))
            .or_insert_with(PgmReceiver::new);
        rx.on_packet(packet, &mut self.pgm_out);
        let now = sim.now();
        let (h, s) = self.vms[vm].replicas[receiver];
        if !self.pgm_out.delivered.is_empty() {
            // The whole delivered backlog (one message in the common
            // case, more after NAK recovery) runs through one
            // median-agreement pass — every channel kind together,
            // streamed, no per-message allocation — and the slot's wake
            // is recomputed once at the end if any delivery time got
            // fixed.
            let batch = self
                .pgm_out
                .delivered
                .iter()
                .map(|msg| (msg.kind, msg.seq, msg.proposal));
            if self.hosts[h].add_proposals(s, now, batch) > 0 {
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
        self.stats.incr("pgm_naks");
        let replicas = &self.vms[vm].replicas;
        let from_node = self.hosts[replicas[receiver].0].id();
        let to_node = self.hosts[replicas[sender].0].id();
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
        let Some(tx) = self.pgm_tx.get(&(vm, sender)) else {
            return;
        };
        let replicas = &self.vms[vm].replicas;
        let from_node = self.hosts[replicas[sender].0].id();
        let to_node = self.hosts[replicas[receiver].0].id();
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

    /// Periodic PGM NAK retry (tail-loss recovery).
    fn pgm_retry(&mut self, sim: &mut Engine) {
        let mut pending: Vec<(usize, usize, usize, Vec<u64>)> = Vec::new();
        for (&(vm, rx_rep, tx_rep), rx) in &self.pgm_rx {
            let naks = rx.pending_naks();
            if !naks.is_empty() {
                pending.push((vm, rx_rep, tx_rep, naks));
            }
        }
        for (vm, rx_rep, tx_rep, naks) in pending {
            self.send_nak(sim, vm, rx_rep, tx_rep, naks);
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
            // The host scheduling tick rides the same heartbeat: rotate
            // each host's vCPU run queue past its busy slots.
            self.hosts[h].sched_tick();
            if self.hosts[h].refresh_activity(now) {
                for s in 0..self.hosts[h].slot_count() {
                    self.reschedule_wake(sim, h, s);
                }
                // The phys↔virt mapping of this host just changed:
                // re-target its pending virtual-timer hardware events.
                let mut pending: Vec<(usize, u64, VirtNanos)> = self
                    .timer_fires
                    .iter()
                    .filter(|&(&(hh, _, _), _)| hh == h)
                    .map(|(&(_, s, f), &(_, _, d))| (s, f, d))
                    .collect();
                pending.sort_unstable();
                for (s, f, d) in pending {
                    self.schedule_timer_fire(sim, h, s, f, d);
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
                let v = self.hosts[h].virt_of(s, now).as_nanos();
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
                    self.hosts[h].stall_slot(s, now, now + pacing.heartbeat);
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
        sim.post_in(gap, CloudEvent::Broadcast { packet });
    }

    fn broadcast(&mut self, sim: &mut Engine, packet: Packet) {
        self.stats.incr("broadcasts");
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
    cache_geometry: Option<(u64, usize)>,
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
            cache_geometry: None,
        }
    }

    /// Sets the shared-LLC geometry of every host (sets × ways). Cache
    /// workloads call this from `install` so their probe space matches
    /// the platform; unset, hosts keep the default geometry.
    pub fn set_cache_geometry(&mut self, sets: u64, ways: usize) {
        self.cache_geometry = Some((sets, ways));
    }

    /// The configuration this builder was created with.
    pub fn config(&self) -> &CloudConfig {
        &self.cfg
    }

    /// Number of hosts in the cloud under construction.
    pub fn host_count(&self) -> usize {
        self.host_count
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
    /// a replicated arm consumes all of `hosts` as replica hosts and
    /// invokes `make()` once per replica (the replicas must be
    /// identical); a single-host arm runs one instance on `hosts[0]`.
    /// Scenario factories call this so one workload definition runs
    /// under every arm a sweep names.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.defense` names no registered arm, if `hosts` is
    /// empty or names an unknown host, or (replicated arms) if
    /// `hosts` does not match the configured replica count.
    pub fn add_defended_vm<F>(&mut self, hosts: &[usize], make: F) -> VmHandle
    where
        F: Fn() -> Box<dyn GuestProgram>,
    {
        let arm = self.cfg.defense_arm();
        let mode = arm.mode(&self.cfg.defense_knobs());
        let hosts = if arm.replicated() {
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
        let mut hosts = Vec::with_capacity(self.host_count);
        for h in 0..self.host_count {
            let profile = SpeedProfile::new(
                cfg.base_ips,
                cfg.ips_jitter,
                cfg.speed_epoch,
                root.stream_indexed("host-speed", h),
            );
            let model: Box<dyn AccessModel> = match cfg.disk {
                DiskKind::Rotating => Box::new(RotatingDisk::testbed()),
                DiskKind::Ssd => Box::new(Ssd::sata()),
            };
            let disk = DiskDevice::new(model, root.stream_indexed("host-disk", h));
            let mut host = HostMachine::new(NetNode(h), profile, disk);
            if let Some((sets, ways)) = self.cache_geometry {
                host.set_cache(vmm::cache::CacheModel::new(sets, ways));
            }
            host.set_scheduler(VcpuScheduler::new(cfg.timeslice));
            hosts.push(host);
        }
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
                let s = hosts[h].add_slot(slot);
                replicas.push((h, s));
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
            wakes: FxHashMap::default(),
            timer_fires: FxHashMap::default(),
            pgm_tx: FxHashMap::default(),
            pgm_rx: FxHashMap::default(),
            pgm_out: RxOutput::default(),
            tunnel_last: FxHashMap::default(),
            broadcast,
            error: None,
            stats: Counters::new(),
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
    use storage::block::BlockRange;
    use storage::device::DiskOp;
    use vmm::guest::{GuestEnv, IdleGuest};

    /// Guest that echoes every Raw packet back to its source.
    struct Echo;
    impl GuestProgram for Echo {
        fn on_boot(&mut self, _env: &mut GuestEnv) {}
        fn on_packet(&mut self, packet: &Packet, env: &mut GuestEnv) {
            if let Body::Raw { tag, len } = *packet.body() {
                env.send(packet.src(), Body::Raw { tag: tag + 1, len });
            }
        }
        fn on_disk_done(&mut self, _o: DiskOp, _r: BlockRange, _d: &[u64], _e: &mut GuestEnv) {}
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
        assert_eq!(sim.cloud.stats().get("egress_forwarded"), 3);
        assert_eq!(sim.cloud.stats().get("egress_divergences"), 0);
        assert_eq!(sim.cloud.total_counter("sync_violations"), 0);
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
        assert_eq!(sim.cloud.stats().get("egress_forwarded"), 1);

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
        assert_eq!(sim.cloud.stats().get("egress_forwarded"), 0);
    }

    #[test]
    fn idle_cloud_stays_quiet() {
        let mut b = CloudBuilder::new(CloudConfig::fast_test(), 3);
        b.add_defended_vm(&[0, 1, 2], || Box::new(IdleGuest));
        let mut sim = b.build();
        sim.run_until(SimTime::from_millis(300));
        assert_eq!(sim.cloud.total_counter("net_irq"), 0);
        assert_eq!(sim.cloud.stats().get("egress_forwarded"), 0);
    }

    #[test]
    fn broadcast_chatter_reaches_all_replicas() {
        let mut cfg = CloudConfig::fast_test();
        cfg.broadcast_band = Some((80.0, 80.0));
        let mut b = CloudBuilder::new(cfg, 3);
        let vm = b.add_defended_vm(&[0, 1, 2], || Box::new(IdleGuest));
        let mut sim = b.build();
        sim.run_until(SimTime::from_millis(500));
        let bc = sim.cloud.stats().get("broadcasts");
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
                sim.cloud.host(h).virt_of(s, now).as_nanos()
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
            sim.cloud.total_counter("stalls") > 0,
            "pacing never engaged"
        );
    }
}
