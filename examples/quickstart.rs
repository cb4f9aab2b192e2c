//! Quickstart: build a three-host StopWatch cloud, run a protected echo
//! service, ping it from an external client, and inspect the defense's
//! bookkeeping.
//!
//! Run with: `cargo run --release --example quickstart`

use std::any::Any;
use stopwatch_repro::prelude::*;

/// A guest that echoes every Raw packet back to its sender.
struct EchoGuest;

impl GuestProgram for EchoGuest {
    fn on_boot(&mut self, _env: &mut GuestEnv) {}
    fn on_packet(&mut self, packet: &Packet, env: &mut GuestEnv) {
        if let Body::Raw { tag, len } = *packet.body() {
            env.send(packet.src(), Body::Raw { tag: tag + 1, len });
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

/// A client that sends one ping and waits for the echo.
struct OnePing {
    server: EndpointId,
    me: EndpointId,
    sent: bool,
    reply_at: Option<SimTime>,
}

impl ClientApp for OnePing {
    fn on_start(&mut self, _now: SimTime) -> Vec<Packet> {
        self.sent = true;
        vec![Packet::new(
            self.me,
            self.server,
            Body::Raw { tag: 7, len: 64 },
        )]
    }
    fn on_packet(&mut self, _p: &Packet, now: SimTime) -> Vec<Packet> {
        self.reply_at = Some(now);
        Vec::new()
    }
    fn on_tick(&mut self, _now: SimTime) -> Vec<Packet> {
        Vec::new()
    }
    fn is_done(&self) -> bool {
        self.reply_at.is_some()
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

fn main() {
    let mut builder = CloudBuilder::new(CloudConfig::default(), 3);
    // Three replicas of the echo guest, one per host, under the default
    // defense arm (`cfg.defense = "stopwatch"`).
    let vm = builder.add_defended_vm(&[0, 1, 2], || Box::new(EchoGuest));
    let client = builder.add_client(Box::new(OnePing {
        server: vm.endpoint,
        me: EndpointId(2000),
        sent: false,
        reply_at: None,
    }));
    let mut sim = builder.build();
    sim.run_until_clients_done(SimTime::from_secs(5));

    let reply_at = sim
        .cloud
        .client_app::<OnePing>(client)
        .and_then(|c| c.reply_at)
        .expect("echo reply received");
    println!("echo round trip through the full defense: {reply_at}");
    println!("cloud stats: {}", sim.cloud.stats());
    for replica in 0..3 {
        let log = sim.cloud.delivered_log(vm, replica);
        println!(
            "replica {replica}: packet delivered at virtual time {}",
            log.first().map(|(_, v)| v.to_string()).unwrap_or_default()
        );
    }
    println!("note: all three virtual delivery times are identical — that is the point.");
}
