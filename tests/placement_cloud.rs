//! Integration of the Sec. VIII placement machinery with the running
//! cloud: VMs placed by the planner actually run, with the coresidency
//! constraints holding by construction.

use std::any::Any;
use stopwatch_repro::prelude::*;

struct Echo;
impl GuestProgram for Echo {
    fn on_packet(&mut self, packet: &Packet, env: &mut GuestEnv) {
        if let Body::Raw { tag, len } = *packet.body() {
            env.send(packet.src(), Body::Raw { tag: tag + 1, len });
        }
    }
}

struct OnePing {
    me: EndpointId,
    server: EndpointId,
    got: bool,
    sent: bool,
}
impl ClientApp for OnePing {
    fn on_start(&mut self, _now: SimTime) -> Vec<Packet> {
        self.sent = true;
        vec![Packet::new(
            self.me,
            self.server,
            Body::Raw { tag: 1, len: 40 },
        )]
    }
    fn on_packet(&mut self, _p: &Packet, _now: SimTime) -> Vec<Packet> {
        self.got = true;
        Vec::new()
    }
    fn on_tick(&mut self, _now: SimTime) -> Vec<Packet> {
        Vec::new()
    }
    fn is_done(&self) -> bool {
        self.got
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[test]
fn planner_placements_run_as_a_cloud() {
    // A 9-machine cloud with capacity 2: Theorem 2 places 4 VMs.
    let mut planner = PlacementPlanner::new(9, 2, Strategy::Bose).expect("planner");
    let placed = planner.place_all();
    assert_eq!(placed, 4);
    planner.validate().expect("valid placement");

    let mut cfg = CloudConfig::fast_test();
    cfg.seed = 21;
    let mut b = CloudBuilder::new(cfg, 9);
    let mut handles = Vec::new();
    for tri in planner.placed() {
        let hosts: Vec<usize> = tri.nodes().iter().map(|n| n.0).collect();
        handles.push(b.add_defended_vm(&hosts, || Box::new(Echo)));
    }
    let mut clients = Vec::new();
    for (i, vm) in handles.iter().enumerate() {
        clients.push(b.add_client(Box::new(OnePing {
            me: EndpointId(2000 + i as u64),
            server: vm.endpoint,
            got: false,
            sent: false,
        })));
    }
    let mut sim = b.build();
    sim.run_until_clients_done(SimTime::from_secs(10));
    for (i, c) in clients.into_iter().enumerate() {
        assert!(
            sim.cloud.client_app::<OnePing>(c).unwrap().got,
            "VM {i} never answered"
        );
    }
    assert_eq!(sim.cloud.count(CloudCounter::EgressDivergences), 0);
    // Every VM's replicas delivered identically.
    for vm in handles {
        let l0 = sim.cloud.delivered_log(vm, 0);
        for r in 1..3 {
            assert_eq!(l0, sim.cloud.delivered_log(vm, r), "vm {}", vm.index);
        }
    }
}

#[test]
fn coresidency_constraint_limits_shared_hosts() {
    // Any two placed VMs share at most one machine (edge-disjointness),
    // the property the whole security argument needs.
    let mut planner = PlacementPlanner::new(15, 7, Strategy::Bose).expect("planner");
    planner.place_all();
    let placed = planner.placed();
    for (i, a) in placed.iter().enumerate() {
        for b in placed.iter().skip(i + 1) {
            let shared = a.nodes().iter().filter(|n| b.nodes().contains(n)).count();
            assert!(shared <= 1, "{a} and {b} share {shared} machines");
        }
    }
}
