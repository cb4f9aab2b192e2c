//! Property-based tests (proptest) on the core invariants that the
//! paper's security argument rests on.

use proptest::prelude::*;
use stopwatch_repro::prelude::*;
use timestats::ks::median_attenuation;
use timestats::median3;
use timestats::order_stats::order_stat_cdf_at;

proptest! {
    /// Theorem 3: the median of three strictly attenuates the KS distance
    /// whenever the two baseline components overlap — for arbitrary
    /// exponential rate pairs.
    #[test]
    fn theorem3_attenuation(
        lambda in 0.2f64..4.0,
        ratio in 0.05f64..0.95,
        f2_rate in 0.2f64..4.0,
        f3_rate in 0.2f64..4.0,
    ) {
        let base = Exponential::new(lambda);
        let victim = Exponential::new(lambda * ratio);
        let f2 = Exponential::new(f2_rate);
        let f3 = Exponential::new(f3_rate);
        let (med, raw) = median_attenuation(&base, &victim, &f2, &f3);
        prop_assert!(med < raw + 1e-9, "median {med} vs raw {raw}");
    }

    /// Theorem 4: with identically distributed second and third components
    /// the attenuation factor is at most 1/2.
    #[test]
    fn theorem4_half_bound(lambda in 0.2f64..4.0, ratio in 0.05f64..0.95) {
        let base = Exponential::new(lambda);
        let victim = Exponential::new(lambda * ratio);
        let (med, raw) = median_attenuation(&base, &victim, &base, &base);
        prop_assert!(med <= 0.5 * raw + 1e-6, "median {med} vs half of {raw}");
    }

    /// The general order-statistic CDF is a valid CDF value and agrees with
    /// the min/max closed forms.
    #[test]
    fn order_stat_cdf_valid(vals in prop::collection::vec(0.0f64..=1.0, 1..7)) {
        let m = vals.len();
        let mut prev = 1.0f64;
        for r in 1..=m {
            let f = order_stat_cdf_at(&vals, r);
            prop_assert!((0.0..=1.0).contains(&f));
            // F_{r:m} is non-increasing in r at a fixed point.
            prop_assert!(f <= prev + 1e-12);
            prev = f;
        }
        let min_f = 1.0 - vals.iter().map(|v| 1.0 - v).product::<f64>();
        let max_f: f64 = vals.iter().product();
        prop_assert!((order_stat_cdf_at(&vals, 1) - min_f).abs() < 1e-9);
        prop_assert!((order_stat_cdf_at(&vals, m) - max_f).abs() < 1e-9);
    }

    /// median3 returns one of its inputs, bounded by min and max — the
    /// property that makes the runtime median agreement safe: the adopted
    /// delivery time is always some replica's proposal.
    #[test]
    fn median3_is_a_proposal(a in 0u64..1_000_000, b in 0u64..1_000_000, c in 0u64..1_000_000) {
        let m = median3(a, b, c);
        prop_assert!([a, b, c].contains(&m));
        prop_assert!(m >= a.min(b).min(c));
        prop_assert!(m <= a.max(b).max(c));
    }

    /// One outlier proposal cannot move the median outside the other two
    /// values' range (the defense against a victim-influenced replica).
    #[test]
    fn median3_outlier_resistance(honest1 in 0u64..1000, honest2 in 0u64..1000, outlier in 0u64..u64::MAX) {
        let m = median3(honest1, honest2, outlier);
        let lo = honest1.min(honest2);
        let hi = honest1.max(honest2);
        prop_assert!(m >= lo && m <= hi);
    }

    /// Speed profiles: branch/time conversion round-trips within a couple
    /// of branches for arbitrary jitter and offsets.
    #[test]
    fn speed_profile_roundtrip(
        jitter in 0.0f64..0.2,
        start_us in 0u64..100_000,
        branches in 1u64..200_000_000,
        seed in 0u64..1000,
    ) {
        let p = SpeedProfile::new(
            1.0e9,
            jitter,
            SimDuration::from_millis(10),
            SimRng::new(seed).stream("h"),
        );
        let t0 = SimTime::from_micros(start_us);
        let t1 = p.time_for_branches(t0, branches);
        let measured = p.branches_between(t0, t1);
        prop_assert!(measured.abs_diff(branches) <= 2, "{measured} vs {branches}");
    }

    /// Greedy placements are always valid for arbitrary cloud shapes.
    #[test]
    fn greedy_placement_always_valid(n in 3usize..24, cap in 1usize..8, seed in 0u64..50) {
        let placed = greedy_packing(n, cap, seed);
        prop_assert!(validate_placement(&placed, n, cap).is_ok());
    }

    /// Bose/Theorem-2 placements hit their promised count and validate,
    /// for every legal (n, c).
    #[test]
    fn bose_placement_promise(v in 1usize..6, c_raw in 1usize..16) {
        let n = 6 * v + 3;
        let c = (c_raw % ((n - 1) / 2)).max(1);
        let sys = BoseSystem::new(n).unwrap();
        let placement = sys.theorem2_placement(c).unwrap();
        prop_assert_eq!(placement.len(), sys.theorem2_count(c));
        prop_assert!(validate_placement(&placement, n, c).is_ok());
    }

    /// PGM delivers every payload in order under arbitrary loss patterns,
    /// once NAK retransmissions are drained.
    #[test]
    fn pgm_reliable_under_loss(loss_mask in prop::collection::vec(any::<bool>(), 1..40)) {
        let mut tx = PgmSender::new(256);
        let mut rx = PgmReceiver::new();
        let (mut out, mut retx_out) = (RxOutput::default(), RxOutput::default());
        let n = loss_mask.len();
        let mut delivered: Vec<usize> = Vec::new();
        for (i, lost) in loss_mask.iter().enumerate() {
            let pkt = tx.send(i);
            if !*lost {
                rx.on_packet(pkt, &mut out);
                delivered.extend_from_slice(&out.delivered);
                // NAKs answered immediately (the cloud does this over links).
                for retx in out.nak_missing.iter().filter_map(|&seq| tx.retransmit(seq)) {
                    rx.on_packet(retx, &mut retx_out);
                    delivered.extend_from_slice(&retx_out.delivered);
                }
            }
        }
        // Drain remaining gaps via the periodic NAK path.
        for _ in 0..n {
            let naks = rx.pending_naks();
            if naks.is_empty() {
                break;
            }
            for retx in naks.iter().filter_map(|&seq| tx.retransmit(seq)) {
                rx.on_packet(retx, &mut out);
                delivered.extend_from_slice(&out.delivered);
            }
        }
        // Everything except a possibly-lost tail (no later packet revealed
        // the gap) is delivered in order.
        let tail_delivered = delivered.len();
        prop_assert!(delivered.iter().copied().eq(0..tail_delivered));
        // If the last send was received, everything must have arrived.
        if !loss_mask[n - 1] {
            prop_assert_eq!(tail_delivered, n);
        }
    }
}

/// A guest that opens one pending entry on each guest-initiated channel
/// at boot: a primed cache probe, a disk read, and a one-shot virtual
/// timer.
struct OpenerGuest;

impl GuestProgram for OpenerGuest {
    fn on_boot(&mut self, env: &mut GuestEnv) {
        env.cache_touch(3, 1);
        env.cache_probe(3, 1);
        env.disk_read(BlockRange::new(0, 4));
        env.set_timer(1, VirtNanos::from_millis(5));
    }
}

proptest! {
    /// The early-proposal buffer contract of [`ChannelKind::buffers_early`],
    /// across every [`ChannelKind`]: a peer proposal arriving before this
    /// replica opens the matching entry is *buffered then consumed* on the
    /// guest-initiated channels (cache, disk, timer — their local open is
    /// guaranteed by replica determinism), *dropped* on the externally
    /// opened net channel, and dropped when the entry was already opened
    /// and retired — the buffer never leaks an entry past the agreement
    /// that should consume it.
    #[test]
    fn early_peer_proposals_buffer_or_drop_per_policy_and_never_leak(
        five_replicas in any::<bool>(),
        peers_raw in 1usize..5,
        cache_ms in 1u64..40,
        disk_ms in 1u64..40,
        timer_ms in 1u64..40,
    ) {
        let needed = if five_replicas { 5 } else { 3 };
        let peers = peers_raw.min(needed - 1);
        let p = SpeedProfile::new(
            1.0e9,
            0.0,
            SimDuration::from_millis(10),
            SimRng::new(1).stream("h"),
        );
        let mut cache = CacheModel::new(8, 2);
        let cfg = SlotConfig {
            endpoint: EndpointId(7),
            exit_every: 50_000,
            mode: DefenseMode::StopWatch {
                delta_n: VirtOffset::from_millis(10),
                delta_d: VirtOffset::from_millis(10),
                delta_t: VirtOffset::from_millis(10),
                replicas: needed,
            },
            clocks: PlatformClocks::default(),
        };
        let mut slot = GuestSlot::new(
            Box::new(OpenerGuest),
            cfg,
            VirtualClock::new(VirtNanos::ZERO, 1.0),
            DiskImage::new(1 << 20),
        );

        // Pre-open peer proposals for event 0 of every kind. The three
        // guest-initiated kinds buffer them; net drops its stray (the
        // opening packet may never arrive on a lossy fabric).
        let t0 = SimTime::ZERO;
        let early = [
            (ChannelKind::Cache, cache_ms),
            (ChannelKind::Disk, disk_ms),
            (ChannelKind::Timer, timer_ms),
        ];
        for &(kind, ms) in &early {
            for peer in 0..peers {
                let v = VirtNanos::from_millis(ms) + VirtOffset::from_nanos(peer as u64);
                prop_assert!(slot.add_proposals(&p, t0, [(kind, 0, v)]) == 0);
            }
        }
        prop_assert!(slot.add_proposals(&p, t0, [(ChannelKind::Net, 0, VirtNanos::from_millis(7))]) == 0);
        prop_assert_eq!(slot.early_buffered(), 3 * peers, "net stray dropped, rest held");

        // Boot: every entry opens, draining the buffer into the pending
        // table — nothing may remain buffered once the opens happened.
        let out = slot.boot(&p, &mut cache, t0).expect("boot");
        prop_assert_eq!(slot.early_buffered(), 0, "opens must drain the buffer");

        // Complete each agreement: our own proposal plus however many
        // straggler peers the replica count still requires.
        let mut own: Vec<(ChannelKind, u64, VirtNanos)> = out
            .iter()
            .filter_map(|o| match o {
                SlotOutput::Proposal { kind, seq, proposal } => Some((*kind, *seq, *proposal)),
                _ => None,
            })
            .collect();
        prop_assert_eq!(own.len(), 1, "boot proposes the cache probe: {:?}", own);
        let op_id = out
            .iter()
            .find_map(|o| match o {
                SlotOutput::DiskSubmit { op_id, .. } => Some(*op_id),
                _ => None,
            })
            .expect("disk submit");
        let t_disk = SimTime::from_millis(3);
        match slot.disk_ready(&p, t_disk, op_id).expect("known op") {
            ArrivalOutcome::Proposal(v) => own.push((ChannelKind::Disk, op_id, v)),
            other => prop_assert!(false, "stopwatch disk must propose: {other:?}"),
        }
        let t_fire = SimTime::from_millis(6);
        match slot
            .timer_elapsed(&p, t_fire, 0, VirtOffset::from_nanos(0))
            .expect("known fire")
        {
            Some(ArrivalOutcome::Proposal(v)) => own.push((ChannelKind::Timer, 0, v)),
            other => prop_assert!(false, "stopwatch timer must propose: {other:?}"),
        }
        let mut t = t_fire;
        for &(kind, seq, v) in &own {
            slot.add_proposals(&p, t, [(kind, seq, v)]);
            for straggler in 0..(needed - 1 - peers) {
                slot.add_proposals(&p, t, [(kind, seq, v + VirtOffset::from_nanos(straggler as u64))]);
            }
        }

        // Drain deliveries; every interrupt must reach the guest.
        while let Some(wake) = slot.next_wake(&p, t) {
            t = t.max(wake);
            slot.process(&p, &mut cache, t).expect("process");
        }
        prop_assert_eq!(slot.counters()[SlotCounter::CacheIrq], 1);
        prop_assert_eq!(slot.counters()[SlotCounter::DiskIrq], 1);
        prop_assert_eq!(slot.counters()[SlotCounter::VtimerIrq], 1);
        prop_assert_eq!(slot.early_buffered(), 0, "consumed, not leaked");

        // Strays for the already-retired event 0 of every kind (an id
        // below the allocation cursor) must be dropped, not re-buffered.
        for &(kind, ms) in &early {
            slot.add_proposals(&p, t, [(kind, 0, VirtNanos::from_millis(ms))]);
        }
        prop_assert_eq!(slot.early_buffered(), 0, "retired ids never re-buffer");
    }
}

#[test]
fn detector_needs_more_observations_under_median() {
    // Deterministic spot-check of the headline security property across a
    // grid of victim distinctiveness values.
    for lp in [0.3, 0.5, 0.7, 10.0 / 11.0] {
        let base = Exponential::new(1.0);
        let victim = Exponential::new(lp);
        let raw = Detector::from_cdfs(&base, &victim, 10);
        let m_null = OrderStat::median_of_three(base, base, base);
        let m_alt = OrderStat::median_of_three(victim, base, base);
        let med = Detector::from_cdfs(&m_null, &m_alt, 10);
        for c in [0.8, 0.95] {
            assert!(
                med.observations_needed(c) > raw.observations_needed(c),
                "lp={lp} c={c}"
            );
        }
    }
}
