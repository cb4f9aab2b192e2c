//! Whole-system integration tests: the full defense pipeline from client
//! through ingress, median agreement, deterministic replicas, and egress
//! voting — including deliberate fault injection.

use std::any::Any;
use std::cell::Cell;
use stopwatch_repro::prelude::*;

/// Echo guest with a configurable "identity" used to inject divergence.
struct EchoGuest {
    salt: u64,
}

impl GuestProgram for EchoGuest {
    fn on_boot(&mut self, _env: &mut GuestEnv) {}
    fn on_packet(&mut self, packet: &Packet, env: &mut GuestEnv) {
        if let Body::Raw { tag, len } = *packet.body() {
            env.send(
                packet.src(),
                Body::Raw {
                    tag: tag + 1 + self.salt,
                    len,
                },
            );
        }
    }
    fn on_disk_done(
        &mut self,
        _op: storage::device::DiskOp,
        _r: BlockRange,
        _d: &[u64],
        _env: &mut GuestEnv,
    ) {
    }
}

struct PingClient {
    me: EndpointId,
    server: EndpointId,
    to_send: u32,
    sent: u32,
    replies: Vec<(SimTime, u64)>,
}

impl ClientApp for PingClient {
    fn on_start(&mut self, _now: SimTime) -> Vec<Packet> {
        self.next()
    }
    fn on_packet(&mut self, p: &Packet, now: SimTime) -> Vec<Packet> {
        if let Body::Raw { tag, .. } = *p.body() {
            self.replies.push((now, tag));
        }
        Vec::new()
    }
    fn on_tick(&mut self, _now: SimTime) -> Vec<Packet> {
        self.next()
    }
    fn is_done(&self) -> bool {
        self.replies.len() as u32 >= self.to_send
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

impl PingClient {
    fn next(&mut self) -> Vec<Packet> {
        if self.sent >= self.to_send {
            return Vec::new();
        }
        let tag = u64::from(self.sent) * 100;
        self.sent += 1;
        vec![Packet::new(
            self.me,
            self.server,
            Body::Raw { tag, len: 80 },
        )]
    }
}

fn build_ping_cloud(
    seed: u64,
    pings: u32,
    salt_per_replica: bool,
) -> (CloudSim, VmHandle, ClientHandle) {
    let mut cfg = CloudConfig::fast_test();
    cfg.seed = seed;
    let mut b = CloudBuilder::new(cfg, 3);
    let counter = Cell::new(0u64);
    let vm = b.add_defended_vm(&[0, 1, 2], move || {
        // When injecting a fault, exactly ONE replica (the third built)
        // behaves differently — breaking determinism on purpose.
        let c = counter.get();
        counter.set(c + 1);
        let salt = if salt_per_replica && c == 2 { 99 } else { 0 };
        Box::new(EchoGuest { salt })
    });
    let client = b.add_client(Box::new(PingClient {
        me: EndpointId(2000),
        server: vm.endpoint,
        to_send: pings,
        sent: 0,
        replies: Vec::new(),
    }));
    (b.build(), vm, client)
}

#[test]
fn full_pipeline_delivers_exactly_once() {
    let (mut sim, vm, client) = build_ping_cloud(3, 5, false);
    sim.run_until_clients_done(SimTime::from_secs(10));
    let replies = &sim.cloud.client_app::<PingClient>(client).unwrap().replies;
    assert_eq!(replies.len(), 5);
    let mut tags: Vec<u64> = replies.iter().map(|r| r.1).collect();
    tags.sort_unstable();
    assert_eq!(tags, vec![1, 101, 201, 301, 401]);
    // Exactly one egress forward per reply; no divergence; no replica left
    // behind on deliveries.
    assert_eq!(sim.cloud.stats().get("egress_forwarded"), 5);
    assert_eq!(sim.cloud.stats().get("egress_divergences"), 0);
    for r in 0..3 {
        assert_eq!(sim.cloud.delivered_log(vm, r).len(), 5, "replica {r}");
    }
}

#[test]
fn same_seed_reproduces_bit_identical_results() {
    let run = |seed| {
        let (mut sim, vm, client) = build_ping_cloud(seed, 4, false);
        let t = sim.run_until_clients_done(SimTime::from_secs(10));
        let replies = sim
            .cloud
            .client_app::<PingClient>(client)
            .unwrap()
            .replies
            .clone();
        (t, replies, sim.cloud.delivered_log(vm, 0))
    };
    let a = run(7);
    let b = run(7);
    assert_eq!(a, b, "identical seeds must give identical runs");
    let c = run(8);
    assert_ne!(a.1, c.1, "different seeds should differ in timing");
}

#[test]
fn replica_delivery_logs_identical_across_hosts() {
    let (mut sim, vm, _client) = build_ping_cloud(11, 8, false);
    sim.run_until_clients_done(SimTime::from_secs(10));
    let l0 = sim.cloud.delivered_log(vm, 0);
    let l1 = sim.cloud.delivered_log(vm, 1);
    let l2 = sim.cloud.delivered_log(vm, 2);
    assert_eq!(l0, l1);
    assert_eq!(l1, l2);
}

#[test]
fn egress_voting_detects_divergent_replica() {
    // One replica salted differently: its outputs disagree; the egress
    // flags divergence but the two honest replicas still serve the client.
    let (mut sim, _vm, client) = build_ping_cloud(5, 3, true);
    sim.run_until_clients_done(SimTime::from_secs(10));
    assert!(
        sim.cloud.stats().get("egress_divergences") > 0,
        "divergence must be detected"
    );
    let replies = &sim.cloud.client_app::<PingClient>(client).unwrap().replies;
    assert_eq!(replies.len(), 3, "service still completes by majority");
}

#[test]
fn five_replica_configuration_works() {
    // Sec. IX: hardening against collaborating attackers by using five
    // replicas.
    let mut cfg = CloudConfig::fast_test();
    cfg.replicas = 5;
    let mut b = CloudBuilder::new(cfg, 5);
    let vm = b.add_defended_vm(&[0, 1, 2, 3, 4], || Box::new(EchoGuest { salt: 0 }));
    let client = b.add_client(Box::new(PingClient {
        me: EndpointId(2000),
        server: vm.endpoint,
        to_send: 3,
        sent: 0,
        replies: Vec::new(),
    }));
    let mut sim = b.build();
    sim.run_until_clients_done(SimTime::from_secs(10));
    assert_eq!(
        sim.cloud
            .client_app::<PingClient>(client)
            .unwrap()
            .replies
            .len(),
        3
    );
    // All five replicas delivered identically.
    let logs: Vec<_> = (0..5).map(|r| sim.cloud.delivered_log(vm, r)).collect();
    for l in &logs[1..] {
        assert_eq!(&logs[0], l);
    }
    assert_eq!(sim.cloud.stats().get("egress_divergences"), 0);
}

#[test]
fn multiple_vms_share_the_cloud() {
    // Two protected VMs with edge-disjoint-ish placement on 5 hosts (they
    // share at most one host pair-wise), plus clients for each.
    let mut cfg = CloudConfig::fast_test();
    cfg.seed = 9;
    let mut b = CloudBuilder::new(cfg, 5);
    let vm_a = b.add_defended_vm(&[0, 1, 2], || Box::new(EchoGuest { salt: 0 }));
    let vm_b = b.add_defended_vm(&[0, 3, 4], || Box::new(EchoGuest { salt: 0 }));
    let ca = b.add_client(Box::new(PingClient {
        me: EndpointId(2000),
        server: vm_a.endpoint,
        to_send: 4,
        sent: 0,
        replies: Vec::new(),
    }));
    let cb = b.add_client(Box::new(PingClient {
        me: EndpointId(2001),
        server: vm_b.endpoint,
        to_send: 4,
        sent: 0,
        replies: Vec::new(),
    }));
    let mut sim = b.build();
    sim.run_until_clients_done(SimTime::from_secs(10));
    assert_eq!(
        sim.cloud
            .client_app::<PingClient>(ca)
            .unwrap()
            .replies
            .len(),
        4
    );
    assert_eq!(
        sim.cloud
            .client_app::<PingClient>(cb)
            .unwrap()
            .replies
            .len(),
        4
    );
    assert_eq!(sim.cloud.stats().get("egress_divergences"), 0);
}

#[test]
fn proposal_loss_recovered_by_pgm() {
    // Lossy LAN between hosts: PGM NAKs recover lost proposals and the
    // service still completes.
    let mut cfg = CloudConfig::fast_test();
    cfg.lan = LinkModel {
        loss_prob: 0.05,
        ..LinkModel::lan()
    };
    let mut b = CloudBuilder::new(cfg, 3);
    let vm = b.add_defended_vm(&[0, 1, 2], || Box::new(EchoGuest { salt: 0 }));
    let client = b.add_client(Box::new(PingClient {
        me: EndpointId(2000),
        server: vm.endpoint,
        to_send: 10,
        sent: 0,
        replies: Vec::new(),
    }));
    let mut sim = b.build();
    sim.run_until_clients_done(SimTime::from_secs(30));
    let replies = sim
        .cloud
        .client_app::<PingClient>(client)
        .unwrap()
        .replies
        .len();
    assert!(
        replies >= 8,
        "most pings must survive 5% proposal loss, got {replies}"
    );
}
