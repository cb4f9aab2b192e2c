//! Property tests for the transport substrates under adversarial loss and
//! for the detection machinery's monotonicity — the pieces the evaluation
//! figures silently rely on.

use netsim::packet::{AppData, Body, Packet};
use netsim::tcp::{TcpConfig, TcpEndpoint, TcpEvent};
use netsim::udp::{UdpFileClient, UdpFileServer};
use proptest::prelude::*;
use simkit::time::{SimDuration, SimTime};
use stopwatch_repro::prelude::*;

fn tcp_seg(p: &Packet) -> &netsim::packet::TcpSegment {
    match p.body() {
        Body::Tcp(s) => s,
        other => panic!("not tcp: {other:?}"),
    }
}

fn udp_seg(p: &Packet) -> &netsim::packet::UdpSegment {
    match p.body() {
        Body::Udp(s) => s,
        other => panic!("not udp: {other:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// TCP-lite delivers the whole stream in order under arbitrary packet
    /// loss, recovering via RTO go-back-N.
    #[test]
    fn tcp_survives_random_loss(
        total_kb in 1u64..40,
        loss_seed in 0u64..500,
        loss_prob in 0.0f64..0.3,
    ) {
        let total = total_kb * 1024;
        let cfg = TcpConfig::default();
        let mut now = SimTime::ZERO;
        let (mut client, syn) =
            TcpEndpoint::client(cfg, 1, EndpointId(1), EndpointId(2), now);
        let mut server = TcpEndpoint::server(cfg, 1, EndpointId(2), EndpointId(1), now);
        let mut rng = SimRng::new(loss_seed).stream("loss");
        let mut to_server = vec![syn];
        let mut to_client: Vec<Packet> = Vec::new();
        let mut started = false;
        let mut finished = false;
        // Drive rounds of exchange; each round advances time so RTOs fire.
        for _round in 0..400 {
            if finished {
                break;
            }
            for p in std::mem::take(&mut to_server) {
                if rng.chance(loss_prob) {
                    continue; // lost
                }
                let out = server.on_segment(tcp_seg(&p), now);
                to_client.extend(out.packets);
                for ev in out.events {
                    if matches!(ev, TcpEvent::Connected) && !started {
                        started = true;
                        to_client.extend(server.send_stream(total, None, true));
                    }
                }
            }
            for p in std::mem::take(&mut to_client) {
                if rng.chance(loss_prob) {
                    continue;
                }
                let out = client.on_segment(tcp_seg(&p), now);
                to_server.extend(out.packets);
                for ev in out.events {
                    if let TcpEvent::PeerFinished { total: t } = ev {
                        prop_assert_eq!(t, total);
                        finished = true;
                    }
                }
            }
            now += SimDuration::from_millis(60);
            to_server.extend(client.on_tick(now));
            to_client.extend(server.on_tick(now));
        }
        prop_assert!(finished, "stream of {total} bytes never completed");
    }

    /// UDP-NAK transfers complete under random loss of data chunks and the
    /// FIN, via NAKs and the client's re-request timer.
    #[test]
    fn udp_nak_survives_random_loss(
        chunks in 1u64..60,
        loss_seed in 0u64..500,
        loss_prob in 0.0f64..0.3,
    ) {
        let bytes = chunks * 1448;
        let mut now = SimTime::ZERO;
        let mut server = UdpFileServer::new(EndpointId(1));
        let req = AppData { kind: 1, a: 0, b: bytes };
        let (mut client, first) = UdpFileClient::start(
            EndpointId(2),
            EndpointId(1),
            9,
            req,
            now,
            SimDuration::from_millis(40),
        );
        let mut rng = SimRng::new(loss_seed).stream("loss");
        let mut to_server = vec![first];
        let mut to_client: Vec<Packet> = Vec::new();
        for _round in 0..400 {
            if client.is_complete() {
                break;
            }
            for p in std::mem::take(&mut to_server) {
                if rng.chance(loss_prob) {
                    continue;
                }
                to_client.extend(server.on_datagram(EndpointId(2), udp_seg(&p)));
            }
            for p in std::mem::take(&mut to_client) {
                if rng.chance(loss_prob) {
                    continue;
                }
                let (pk, _) = client.on_datagram(udp_seg(&p), now);
                to_server.extend(pk);
            }
            now += SimDuration::from_millis(50);
            to_server.extend(client.on_tick(now));
        }
        prop_assert!(client.is_complete(), "transfer of {chunks} chunks never completed");
    }

    /// Detection hardness is monotone in victim distinctiveness: the closer
    /// λ′ is to λ, the more observations the attacker needs — with and
    /// without StopWatch.
    #[test]
    fn detection_monotone_in_distinctiveness(step in 1usize..8) {
        let lps = [0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9];
        let lp_far = lps[step - 1];
        let lp_near = lps[step];
        let obs = |lp: f64| {
            let base = Exponential::new(1.0);
            let victim = Exponential::new(lp);
            let null = OrderStat::median_of_three(base, base, base);
            let alt = OrderStat::median_of_three(victim, base, base);
            Detector::from_cdfs(&null, &alt, 10).observations_needed(0.95)
        };
        prop_assert!(obs(lp_near) >= obs(lp_far));
    }

    /// The Δn sizing rule is monotone: a higher desync-probability target
    /// needs a larger Δ, and more-distinct victims need larger Δ.
    #[test]
    fn delta_sizing_monotone(l2 in 0.1f64..0.95, p_lo in 0.9f64..0.99) {
        use timestats::noise::delta_for_desync_prob;
        let p_hi = p_lo + 0.009;
        let d_lo = delta_for_desync_prob(1.0, l2, p_lo);
        let d_hi = delta_for_desync_prob(1.0, l2, p_hi);
        prop_assert!(d_hi >= d_lo);
    }
}

#[test]
fn platform_clocks_all_derive_from_one_instant() {
    // PIT / TSC / RTC must be mutually consistent views of the same time
    // source — the property that makes "intervene on virt" sufficient.
    use vmm::devices::PlatformClocks;
    let c = PlatformClocks::default();
    for ms in [0u64, 4, 999, 1000, 12_345] {
        let t = VirtNanos::from_millis(ms);
        assert_eq!(c.pit_ticks(t), ms / 4, "pit at {ms}ms");
        assert_eq!(c.rtc_secs(t), ms / 1000, "rtc at {ms}ms");
        let tsc_ms = c.rdtsc(t) as f64 / (3.0e6);
        assert!((tsc_ms - ms as f64).abs() < 1e-6, "tsc at {ms}ms");
    }
}

#[test]
fn attacker_cannot_read_real_time_under_stopwatch() {
    // A guest under contention runs slower in real time; its virtual clock
    // must not reveal that. We check that two replicas at different host
    // speeds report the same virtual clock at the same branch count.
    use storage::DiskImage;
    use vmm::clock::VirtualClock;
    use vmm::devices::PlatformClocks;
    use vmm::slot::{DefenseMode, GuestSlot, SlotConfig};

    let cfg = SlotConfig {
        endpoint: EndpointId(7),
        exit_every: 50_000,
        mode: DefenseMode::stop_watch(
            VirtOffset::from_millis(10),
            VirtOffset::from_millis(10),
            VirtOffset::from_millis(10),
            3,
        ),
        clocks: PlatformClocks::default(),
    };
    let clock = VirtualClock::new(VirtNanos::ZERO, 1.0);
    let fast = SpeedProfile::new(
        1.2e9,
        0.0,
        SimDuration::from_millis(10),
        SimRng::new(1).stream("f"),
    );
    let slow = SpeedProfile::new(
        0.8e9,
        0.0,
        SimDuration::from_millis(10),
        SimRng::new(1).stream("s"),
    );
    let mk = || {
        GuestSlot::new(
            Box::new(IdleGuest),
            cfg.clone(),
            clock.clone(),
            DiskImage::new(16),
        )
    };
    let a = mk();
    let b = mk();
    // Same branch count reached at very different real times...
    let t_fast = fast.time_for_branches(SimTime::ZERO, 100_000_000);
    let t_slow = slow.time_for_branches(SimTime::ZERO, 100_000_000);
    assert!(t_slow.as_secs_f64() / t_fast.as_secs_f64() > 1.4);
    // ...but (within float round-off of the branch/time inversion)
    // identical virtual time: the clock depends only on branches.
    let va = a.virt_at(&fast, t_fast).as_nanos() as i64;
    let vb = b.virt_at(&slow, t_slow).as_nanos() as i64;
    assert!((va - vb).abs() < 1000, "virt gap {} ns", (va - vb).abs());
}
