//! The Fig. 6 workload: an NFSv4-style RPC server driven by an
//! nhfsstone-like load generator with the paper's measured operation mix
//! (11.37% setattr, 24.07% lookup, 11.92% write, 7.93% getattr,
//! 32.34% read, 12.37% create) issued by five client processes at a
//! constant aggregate rate.

use crate::registry::{Installed, ParamSpec, Workload, WorkloadOutcome, WorkloadParams};
use netsim::packet::{AppData, Body, EndpointId, Packet};
use netsim::tcp::{TcpConfig, TcpEndpoint, TcpEvent};
use simkit::time::{SimDuration, SimTime};
use std::collections::{BTreeMap, VecDeque};
use stopwatch_core::cloud::{ClientApp, CloudBuilder};
use stopwatch_core::schema::ValueType;
use storage::block::BlockRange;
use storage::device::DiskOp;
use vmm::channel::ChannelKind;
use vmm::guest::{GuestEnv, GuestProgram};

/// NFS operation types with the paper's mix percentages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NfsOp {
    /// Set attributes (metadata write).
    Setattr,
    /// Name lookup (CPU only).
    Lookup,
    /// Write one block.
    Write,
    /// Get attributes (CPU only).
    Getattr,
    /// Read one block.
    Read,
    /// Create a file (metadata write).
    Create,
}

/// The paper's measured operation mix, as (op, weight) pairs.
pub const PAPER_MIX: [(NfsOp, f64); 6] = [
    (NfsOp::Setattr, 0.1137),
    (NfsOp::Lookup, 0.2407),
    (NfsOp::Write, 0.1192),
    (NfsOp::Getattr, 0.0793),
    (NfsOp::Read, 0.3234),
    (NfsOp::Create, 0.1237),
];

impl NfsOp {
    /// Wire encoding used in [`AppData::kind`].
    pub fn code(self) -> u32 {
        match self {
            NfsOp::Setattr => 10,
            NfsOp::Lookup => 11,
            NfsOp::Write => 12,
            NfsOp::Getattr => 13,
            NfsOp::Read => 14,
            NfsOp::Create => 15,
        }
    }

    /// Decodes a wire code.
    pub fn from_code(code: u32) -> Option<NfsOp> {
        Some(match code {
            10 => NfsOp::Setattr,
            11 => NfsOp::Lookup,
            12 => NfsOp::Write,
            13 => NfsOp::Getattr,
            14 => NfsOp::Read,
            15 => NfsOp::Create,
            _ => return None,
        })
    }

    /// Server CPU cost (branches) before any disk work.
    pub fn cpu_branches(self) -> u64 {
        match self {
            NfsOp::Lookup => 120_000,
            NfsOp::Getattr => 60_000,
            NfsOp::Setattr => 100_000,
            NfsOp::Read => 150_000,
            NfsOp::Write => 180_000,
            NfsOp::Create => 250_000,
        }
    }

    /// Whether (and how) the op touches the disk.
    pub fn disk(self) -> Option<DiskOp> {
        match self {
            NfsOp::Lookup | NfsOp::Getattr => None,
            NfsOp::Read => Some(DiskOp::Read),
            NfsOp::Setattr | NfsOp::Write | NfsOp::Create => Some(DiskOp::Write),
        }
    }

    /// Response payload bytes.
    pub fn response_bytes(self) -> u64 {
        match self {
            NfsOp::Read => 4096,
            _ => 128,
        }
    }

    /// Picks an op from the paper mix given a uniform draw in `[0,1)`.
    pub fn pick(mix_draw: f64) -> NfsOp {
        let mut acc = 0.0;
        for (op, w) in PAPER_MIX {
            acc += w;
            if mix_draw < acc {
                return op;
            }
        }
        NfsOp::Create
    }
}

#[derive(Debug, Clone, Copy)]
struct PendingOp {
    op: NfsOp,
    block: u64,
}

/// The NFS server guest. Ops on one connection are served in order
/// (pipelined ops queue behind each other, like RPCs on one stream).
pub struct NfsServerGuest {
    cfg: TcpConfig,
    conns: BTreeMap<u64, TcpEndpoint>,
    // Per-connection op FIFO; the head is in service.
    queues: BTreeMap<u64, VecDeque<PendingOp>>,
    in_service: BTreeMap<u64, bool>,
    awaiting_disk: VecDeque<u64>, // conn ids whose head op awaits disk
    ops_done: u64,
}

impl NfsServerGuest {
    /// Creates the server.
    pub fn new() -> Self {
        NfsServerGuest {
            cfg: TcpConfig::default(),
            conns: BTreeMap::new(),
            queues: BTreeMap::new(),
            in_service: BTreeMap::new(),
            awaiting_disk: VecDeque::new(),
            ops_done: 0,
        }
    }

    /// Operations completed.
    pub fn ops_done(&self) -> u64 {
        self.ops_done
    }

    fn vnow(env: &GuestEnv) -> SimTime {
        SimTime::from_nanos(env.now.as_nanos())
    }

    fn maybe_start(&mut self, conn: u64, env: &mut GuestEnv) {
        if *self.in_service.get(&conn).unwrap_or(&false) {
            return;
        }
        let Some(q) = self.queues.get(&conn) else {
            return;
        };
        let Some(&head) = q.front() else { return };
        self.in_service.insert(conn, true);
        env.compute(head.op.cpu_branches());
        match head.op.disk() {
            Some(DiskOp::Read) => {
                self.awaiting_disk.push_back(conn);
                env.disk_read(BlockRange::new(head.block, 1));
            }
            Some(DiskOp::Write) => {
                self.awaiting_disk.push_back(conn);
                env.disk_write(BlockRange::new(head.block, 1), head.block ^ 0xA5A5);
            }
            None => {
                // CPU-only op: respond after the compute completes.
                env.call_after(conn);
            }
        }
    }

    fn finish_head(&mut self, conn: u64, env: &mut GuestEnv) {
        let Some(q) = self.queues.get_mut(&conn) else {
            return;
        };
        let Some(head) = q.pop_front() else { return };
        self.in_service.insert(conn, false);
        self.ops_done += 1;
        let now = Self::vnow(env);
        let _ = now;
        if let Some(ep) = self.conns.get_mut(&conn) {
            for pkt in ep.send_stream(head.op.response_bytes(), None, false) {
                env.send(pkt.dst(), pkt.into_body());
            }
        }
        self.maybe_start(conn, env);
    }
}

impl Default for NfsServerGuest {
    fn default() -> Self {
        Self::new()
    }
}

impl GuestProgram for NfsServerGuest {
    fn on_packet(&mut self, packet: &Packet, env: &mut GuestEnv) {
        let Body::Tcp(seg) = packet.body() else {
            return;
        };
        let now = Self::vnow(env);
        let ep = self.conns.entry(seg.conn).or_insert_with(|| {
            TcpEndpoint::server(self.cfg, seg.conn, packet.dst(), packet.src(), now)
        });
        let out = ep.on_segment(seg, now);
        for pkt in out.packets {
            env.send(pkt.dst(), pkt.into_body());
        }
        for ev in out.events {
            if let TcpEvent::Request(app) = ev {
                if let Some(op) = NfsOp::from_code(app.kind) {
                    self.queues
                        .entry(seg.conn)
                        .or_default()
                        .push_back(PendingOp {
                            op,
                            block: app.a % 1_000_000,
                        });
                    self.maybe_start(seg.conn, env);
                }
            }
        }
    }

    fn on_disk_done(&mut self, _op: DiskOp, _range: BlockRange, _data: &[u64], env: &mut GuestEnv) {
        if let Some(conn) = self.awaiting_disk.pop_front() {
            self.finish_head(conn, env);
        }
    }

    fn on_call(&mut self, token: u64, env: &mut GuestEnv) {
        self.finish_head(token, env);
    }

    fn on_timer(&mut self, env: &mut GuestEnv) {
        let now = Self::vnow(env);
        let mut out = Vec::new();
        for ep in self.conns.values_mut() {
            out.extend(ep.on_tick(now));
        }
        for pkt in out {
            env.send(pkt.dst(), pkt.into_body());
        }
    }

    fn wants_timer(&self) -> bool {
        true
    }

    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        Some(self)
    }
}

#[derive(Debug, Clone, Copy)]
struct Outstanding {
    issued: SimTime,
    response_bytes: u64,
}

struct Proc {
    ep: Option<TcpEndpoint>,
    outstanding: VecDeque<Outstanding>,
    delivered: u64, // in-order bytes consumed toward the front outstanding
}

/// The nhfsstone-style load generator: five "processes" (one TCP
/// connection each) issuing the paper mix at a constant aggregate rate.
pub struct NhfsstoneClient {
    me: EndpointId,
    server: EndpointId,
    rate_per_sec: f64,
    target_ops: u64,
    cfg: TcpConfig,
    procs: Vec<Proc>,
    issued: u64,
    completed: u64,
    latencies: Vec<SimDuration>,
    mix_stream: simkit::rng::SimRng,
    started: Option<SimTime>,
    last_issue_check: Option<SimTime>,
    backlog: f64,
    next_rr: usize,
    /// TCP segments sent (client → server).
    pub sent_segments: u64,
    /// TCP segments received (server → client).
    pub received_segments: u64,
}

impl NhfsstoneClient {
    /// Creates a generator issuing `target_ops` operations at
    /// `rate_per_sec` (aggregate over 5 processes).
    pub fn new(
        me: EndpointId,
        server: EndpointId,
        rate_per_sec: f64,
        target_ops: u64,
        seed: u64,
    ) -> Self {
        NhfsstoneClient {
            me,
            server,
            rate_per_sec,
            target_ops,
            cfg: TcpConfig::default(),
            procs: Vec::new(),
            issued: 0,
            completed: 0,
            latencies: Vec::new(),
            mix_stream: simkit::rng::SimRng::new(seed).stream("nfs-mix"),
            started: None,
            last_issue_check: None,
            backlog: 0.0,
            next_rr: 0,
            sent_segments: 0,
            received_segments: 0,
        }
    }

    /// Completed-op latencies.
    pub fn latencies(&self) -> &[SimDuration] {
        &self.latencies
    }

    /// Mean latency per op in milliseconds (NaN if none completed).
    pub fn mean_latency_ms(&self) -> f64 {
        if self.latencies.is_empty() {
            return f64::NAN;
        }
        self.latencies
            .iter()
            .map(|l| l.as_millis_f64())
            .sum::<f64>()
            / self.latencies.len() as f64
    }

    /// Operations completed.
    pub fn completed(&self) -> u64 {
        self.completed
    }

    fn issue_due(&mut self, now: SimTime) -> Vec<Packet> {
        let Some(last) = self.last_issue_check else {
            self.last_issue_check = Some(now);
            return Vec::new();
        };
        let dt = now.saturating_duration_since(last).as_secs_f64();
        self.last_issue_check = Some(now);
        self.backlog += dt * self.rate_per_sec;
        let mut pkts = Vec::new();
        while self.backlog >= 1.0 && self.issued < self.target_ops {
            self.backlog -= 1.0;
            self.issued += 1;
            let op = NfsOp::pick(self.mix_stream.uniform01());
            let pi = self.next_rr % self.procs.len();
            self.next_rr += 1;
            let proc = &mut self.procs[pi];
            let Some(ep) = proc.ep.as_mut() else { continue };
            let app = AppData {
                kind: op.code(),
                a: self.mix_stream.uniform_u64(0, 1_000_000),
                b: 0,
            };
            let out = ep.send_stream(100, Some(app), false);
            self.sent_segments += out.len() as u64;
            pkts.extend(out);
            proc.outstanding.push_back(Outstanding {
                issued: now,
                response_bytes: op.response_bytes(),
            });
        }
        pkts
    }
}

impl ClientApp for NhfsstoneClient {
    fn on_start(&mut self, now: SimTime) -> Vec<Packet> {
        self.started = Some(now);
        let mut pkts = Vec::new();
        for i in 0..5 {
            let (ep, syn) = TcpEndpoint::client(self.cfg, 100 + i, self.me, self.server, now);
            self.procs.push(Proc {
                ep: Some(ep),
                outstanding: VecDeque::new(),
                delivered: 0,
            });
            self.sent_segments += 1;
            pkts.push(syn);
        }
        pkts
    }

    fn on_packet(&mut self, packet: &Packet, now: SimTime) -> Vec<Packet> {
        let Body::Tcp(seg) = packet.body() else {
            return Vec::new();
        };
        self.received_segments += 1;
        let Some(pi) = seg.conn.checked_sub(100).map(|i| i as usize) else {
            return Vec::new();
        };
        if pi >= self.procs.len() {
            return Vec::new();
        }
        let proc = &mut self.procs[pi];
        let Some(ep) = proc.ep.as_mut() else {
            return Vec::new();
        };
        let out = ep.on_segment(seg, now);
        self.sent_segments += out.packets.len() as u64;
        for ev in out.events {
            if let TcpEvent::Delivered { new_bytes, .. } = ev {
                proc.delivered += new_bytes;
                // Consume delivered bytes against outstanding responses
                // (the server answers in order per connection).
                while let Some(front) = proc.outstanding.front() {
                    if proc.delivered >= front.response_bytes {
                        proc.delivered -= front.response_bytes;
                        let lat = now.duration_since(front.issued);
                        self.latencies.push(lat);
                        self.completed += 1;
                        proc.outstanding.pop_front();
                    } else {
                        break;
                    }
                }
            }
        }
        out.packets
    }

    fn on_tick(&mut self, now: SimTime) -> Vec<Packet> {
        let mut pkts = self.issue_due(now);
        for proc in &mut self.procs {
            if let Some(ep) = proc.ep.as_mut() {
                let out = ep.on_tick(now);
                self.sent_segments += out.len() as u64;
                pkts.extend(out);
            }
        }
        pkts
    }

    fn is_done(&self) -> bool {
        self.completed >= self.target_ops
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// Parameter schema of the `"nfs"` workload.
const NFS_PARAMS: &[ParamSpec] = &[
    ParamSpec {
        key: "rate",
        ty: ValueType::Float,
        default: "100",
        doc: "offered load, operations per second (aggregate)",
    },
    ParamSpec {
        key: "ops",
        ty: ValueType::Int,
        default: "200",
        doc: "total operations issued per run",
    },
];

/// The `"nfs"` workload: an [`NfsServerGuest`] driven by an
/// [`NhfsstoneClient`] with the paper's op mix (Fig. 6).
pub const NFS: Workload = Workload {
    name: "nfs",
    about: "NFS server under an nhfsstone-style op mix at a constant rate (Fig. 6)",
    params: NFS_PARAMS,
    channels: &[ChannelKind::Net, ChannelKind::Disk],
    install,
};

fn install(
    b: &mut CloudBuilder,
    hosts: &[usize],
    params: &WorkloadParams,
) -> Result<Installed, String> {
    let rate = params.get(NFS_PARAMS, "rate")?;
    let ops = params.get(NFS_PARAMS, "ops")?;
    let vm = b.add_defended_vm(hosts, || Box::new(NfsServerGuest::new()));
    let me = b.next_client_endpoint();
    let seed = b.config().seed;
    let client = b.add_client(Box::new(NhfsstoneClient::new(
        me,
        vm.endpoint,
        rate,
        ops,
        seed,
    )));
    Ok(Installed {
        vm,
        collect: Box::new(move |sim| {
            let c = sim
                .cloud
                .client_app::<NhfsstoneClient>(client)
                .expect("client type");
            WorkloadOutcome {
                samples_ms: c.latencies().iter().map(|l| l.as_millis_f64()).collect(),
                completed: c.completed(),
                extra: vec![
                    ("sent_segments".to_string(), c.sent_segments as f64),
                    ("received_segments".to_string(), c.received_segments as f64),
                ],
            }
        }),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::install;
    use stopwatch_core::cloud::CloudBuilder;
    use stopwatch_core::config::CloudConfig;

    #[test]
    fn op_mix_sums_to_one() {
        let total: f64 = PAPER_MIX.iter().map(|(_, w)| w).sum();
        assert!((total - 1.0).abs() < 1e-9, "mix sums to {total}");
    }

    #[test]
    fn op_codes_roundtrip() {
        for (op, _) in PAPER_MIX {
            assert_eq!(NfsOp::from_code(op.code()), Some(op));
        }
        assert_eq!(NfsOp::from_code(99), None);
    }

    #[test]
    fn pick_respects_weights() {
        let mut rng = simkit::rng::SimRng::new(7);
        let n = 100_000;
        let mut reads = 0;
        for _ in 0..n {
            if NfsOp::pick(rng.uniform01()) == NfsOp::Read {
                reads += 1;
            }
        }
        let frac = reads as f64 / n as f64;
        assert!((frac - 0.3234).abs() < 0.01, "read fraction {frac}");
    }

    fn run_nfs(stopwatch: bool, rate: f64, ops: u64) -> (f64, u64, u64) {
        let mut b = CloudBuilder::new(CloudConfig::fast_test(), 3);
        let vm = if stopwatch {
            b.add_defended_vm(&[0, 1, 2], || Box::new(NfsServerGuest::new()))
        } else {
            b.add_baseline_vm(0, Box::new(NfsServerGuest::new()))
        };
        let client = b.add_client(Box::new(NhfsstoneClient::new(
            EndpointId(2000),
            vm.endpoint,
            rate,
            ops,
            1,
        )));
        let mut sim = b.build();
        sim.run_until_clients_done(SimTime::from_secs(120));
        let c = sim.cloud.client_app::<NhfsstoneClient>(client).unwrap();
        assert_eq!(c.completed(), ops, "all ops must complete");
        (c.mean_latency_ms(), c.sent_segments, c.received_segments)
    }

    #[test]
    fn nfs_completes_baseline() {
        let (lat, sent, recv) = run_nfs(false, 50.0, 25);
        assert!(lat.is_finite() && lat > 0.0);
        assert!(sent > 25 && recv > 25);
    }

    #[test]
    fn nfs_stopwatch_slower_than_baseline() {
        let (base, _, _) = run_nfs(false, 50.0, 25);
        let (sw, _, _) = run_nfs(true, 50.0, 25);
        assert!(sw > base, "StopWatch {sw}ms vs baseline {base}ms");
        assert!(
            sw < base * 20.0,
            "overhead should stay bounded: {sw} vs {base}"
        );
    }

    #[test]
    fn long_stopwatch_run_keeps_egress_state_bounded() {
        // Every output copy of a StopWatch run meets the egress; an
        // output's vote state must go once all three copies are in, not
        // pile up for the length of the run.
        let cfg = CloudConfig {
            seed: 1,
            ..CloudConfig::default()
        };
        let mut b = CloudBuilder::new(cfg, 3);
        let params = WorkloadParams::from_pairs([("ops", "2000"), ("rate", "200")]);
        let wl = install("nfs", &mut b, &[0, 1, 2], &params).expect("install");
        let mut sim = b.build();
        sim.run_until_clients_done(SimTime::from_secs(60));
        let completed = (wl.collect)(&mut sim).completed;
        assert!(completed >= 1_000, "a long run: {completed} ops completed");
        let held = sim.cloud.egress().held();
        assert!(held <= 64, "the egress still holds {held} outputs");
    }
}
