//! The disk-channel experiment: a latency-measuring attacker sensing a
//! coresident victim through the shared host disk.
//!
//! This is the channel the paper's Δd release times exist to close
//! (Sec. V-A): on a rotating disk, one guest's secret-dependent seek
//! pattern parks the head (and occupies the FIFO service queue) in ways a
//! coresident guest can time. A [`DiskProbeGuest`] reads one block in
//! each of `arms` regions spread across the platter and records each
//! completion latency; a [`DiskSeekVictimGuest`] coresides with the
//! attacker's **first replica only** and keeps re-reading a block inside
//! its *secret* region — so the attacker's probe of that region pays
//! almost no seek while every other region pays a distance-proportional
//! one, and the per-arm latency minimum recovers the secret.
//!
//! Under Baseline (one replica) completions are delivered when the local
//! disk finishes, and the signal shows through round after round. Under
//! StopWatch each replica proposes `issue + Δd` (or later if its local
//! disk overran Δd) and delivery happens at the **replica-median**
//! timestamp — with only one of 3 (or 5) replicas' disks perturbed, the
//! median is the clean `issue + Δd` release point, every probe reads the
//! same flat latency, and the attacker's recovery accuracy collapses to
//! chance. The per-probe latency samples feed the sweep layer's leakage
//! verdicts exactly like network timings and cache readouts do.

use crate::parsec::CompletionWaiter;
use crate::registry::{
    recovery_outcome, InstallCtx, InstalledWorkload, ParamSpec, Workload, WorkloadOutcome,
    WorkloadParams,
};
use netsim::packet::{Body, EndpointId, Packet};
use simkit::time::VirtNanos;
use stopwatch_core::cloud::{CloudBuilder, CloudSim, VmHandle};
use stopwatch_core::schema::ValueType;
use storage::block::BlockRange;
use storage::device::DiskOp;
use vmm::channel::ChannelKind;
use vmm::guest::{GuestEnv, GuestProgram};

/// Completion-report tag understood by [`CompletionWaiter`].
const DONE_TAG: u64 = 0xD0E;

/// The disk-probing attacker guest.
///
/// Round structure (all decisions driven by injected events only, so the
/// replicas stay in lockstep):
///
/// 1. every `probe_gap_ticks` PIT ticks — and only once the previous
///    probe completed, so probes never queue behind each other — read one
///    block at the current arm's platter position and note the issue
///    instant;
/// 2. when the completion interrupt arrives, add `completion − issue` to
///    the arm's latency total; after `probes_per_arm` probes move to the
///    next arm;
/// 3. after the last arm, **guess**: the arm with the *smallest* total
///    latency is the round's recovered secret (the victim's parked head
///    makes its region the cheapest seek) — unless every arm reads the
///    same (no signal), in which case the attacker cycles through arms,
///    the deterministic stand-in for guessing at random.
///
/// After the final round it reports completion to the monitor client.
pub struct DiskProbeGuest {
    arms: u64,
    probes_per_arm: u64,
    probe_gap_ticks: u64,
    rounds: u32,
    arm_span: u64,
    monitor: EndpointId,
    round: u32,
    probe_idx: u64,
    outstanding: bool,
    next_probe_tick: u64,
    last_issue: VirtNanos,
    arm_latency: Vec<u64>,
    arm_min: Vec<u64>,
    samples_ns: Vec<u64>,
    guesses: Vec<u64>,
    done: bool,
}

impl DiskProbeGuest {
    /// An attacker probing `arms` regions spaced `arm_span` blocks apart,
    /// `probes_per_arm` probes each, one probe every `probe_gap_ticks`
    /// ticks, for `rounds` rounds; reports completion to `monitor`.
    pub fn new(
        arms: u64,
        probes_per_arm: u64,
        probe_gap_ticks: u64,
        rounds: u32,
        arm_span: u64,
        monitor: EndpointId,
    ) -> Self {
        DiskProbeGuest {
            arms: arms.max(2),
            probes_per_arm: probes_per_arm.max(1),
            probe_gap_ticks: probe_gap_ticks.max(1),
            rounds: rounds.max(1),
            arm_span: arm_span.max(1),
            monitor,
            round: 0,
            probe_idx: 0,
            outstanding: false,
            next_probe_tick: 0,
            last_issue: VirtNanos::ZERO,
            arm_latency: Vec::new(),
            arm_min: Vec::new(),
            guesses: Vec::new(),
            samples_ns: Vec::new(),
            done: false,
        }
    }

    /// Per-arm latency totals, one entry per `(round, arm)` pair in
    /// round-major order, virtual nanoseconds.
    pub fn samples_ns(&self) -> &[u64] {
        &self.samples_ns
    }

    /// The recovered arm per completed round.
    pub fn guesses(&self) -> &[u64] {
        &self.guesses
    }

    /// Completed rounds.
    pub fn rounds_done(&self) -> u32 {
        self.round
    }

    /// Platter position of one arm's probe block.
    fn arm_block(&self, arm: u64) -> u64 {
        arm * self.arm_span
    }

    fn finish_round(&mut self, env: &mut GuestEnv) {
        self.samples_ns.extend(self.arm_latency.iter().copied());
        let min = *self.arm_min.iter().min().expect("arms > 0");
        let max = *self.arm_min.iter().max().expect("arms > 0");
        let guess = if min == max {
            // Flat readout: no signal. Cycle deterministically — the
            // determinism-safe stand-in for a random guess.
            u64::from(self.round) % self.arms
        } else {
            // The victim's region is the cheapest seek from the parked
            // head. The per-arm *minimum* is the sharpest estimator: one
            // probe that caught the head parked reads almost pure seek
            // time, while totals smear rotational noise over the round.
            self.arm_min
                .iter()
                .position(|&l| l == min)
                .expect("min exists") as u64
        };
        self.guesses.push(guess);
        self.round += 1;
        self.probe_idx = 0;
        if self.round >= self.rounds {
            self.done = true;
            env.send(
                self.monitor,
                Body::Raw {
                    tag: DONE_TAG,
                    len: 64,
                },
            );
        }
    }
}

impl GuestProgram for DiskProbeGuest {
    fn on_boot(&mut self, _env: &mut GuestEnv) {}

    fn on_packet(&mut self, _packet: &Packet, _env: &mut GuestEnv) {}

    fn on_timer(&mut self, env: &mut GuestEnv) {
        if self.done || self.outstanding || env.pit_ticks < self.next_probe_tick {
            return;
        }
        if self.probe_idx == 0 {
            self.arm_latency = vec![0; self.arms as usize];
            self.arm_min = vec![u64::MAX; self.arms as usize];
        }
        let arm = self.probe_idx / self.probes_per_arm;
        self.outstanding = true;
        self.last_issue = env.now;
        self.next_probe_tick = env.pit_ticks + self.probe_gap_ticks;
        env.disk_read(BlockRange::new(self.arm_block(arm), 1));
    }

    fn on_disk_done(&mut self, _op: DiskOp, _r: BlockRange, _d: &[u64], env: &mut GuestEnv) {
        if !self.outstanding {
            return;
        }
        self.outstanding = false;
        let arm = (self.probe_idx / self.probes_per_arm) as usize;
        // The observable is the device's completion timestamp minus the
        // issue instant. Under StopWatch `irq_timestamp` is the agreed
        // median — a pure function of agreed values, identical on every
        // replica — so one perturbed disk moves nothing.
        let latency = (env.irq_timestamp - self.last_issue).as_nanos();
        self.arm_latency[arm] += latency;
        self.arm_min[arm] = self.arm_min[arm].min(latency);
        self.probe_idx += 1;
        if self.probe_idx >= self.arms * self.probes_per_arm {
            self.finish_round(env);
        }
    }

    fn wants_timer(&self) -> bool {
        true
    }

    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        Some(self)
    }
}

/// The victim: a guest whose disk access pattern depends on its secret.
/// Every `every_ticks` PIT ticks it re-reads a block inside its secret
/// region — parking the shared disk's head there and occupying the FIFO
/// queue, the two effects the attacker times.
pub struct DiskSeekVictimGuest {
    position: u64,
    every_ticks: u64,
}

impl DiskSeekVictimGuest {
    /// A victim re-reading block `position` every `every_ticks` ticks.
    pub fn new(position: u64, every_ticks: u64) -> Self {
        DiskSeekVictimGuest {
            position,
            every_ticks: every_ticks.max(1),
        }
    }
}

impl GuestProgram for DiskSeekVictimGuest {
    fn on_boot(&mut self, _env: &mut GuestEnv) {}

    fn on_packet(&mut self, _packet: &Packet, _env: &mut GuestEnv) {}

    fn on_disk_done(&mut self, _o: DiskOp, _r: BlockRange, _d: &[u64], _env: &mut GuestEnv) {}

    fn on_timer(&mut self, env: &mut GuestEnv) {
        if env.pit_ticks.is_multiple_of(self.every_ticks) {
            env.disk_read(BlockRange::new(self.position, 1));
        }
    }

    fn wants_timer(&self) -> bool {
        true
    }

    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        Some(self)
    }
}

/// Parameter schema of the `"disk-channel"` workload.
const DISK_PARAMS: &[ParamSpec] = &[
    ParamSpec {
        key: "arms",
        ty: ValueType::Int,
        default: "4",
        doc: "platter regions the attacker probes (the secret's alphabet)",
    },
    ParamSpec {
        key: "probes_per_arm",
        ty: ValueType::Int,
        default: "4",
        doc: "probes per arm per round (totals average out rotational noise)",
    },
    ParamSpec {
        key: "probe_gap_ticks",
        ty: ValueType::Int,
        default: "10",
        doc: "min PIT ticks between probes (sized so every probe, agreement included, finishes inside the gap)",
    },
    ParamSpec {
        key: "rounds",
        ty: ValueType::Int32,
        default: "20",
        doc: "probe rounds per run",
    },
    ParamSpec {
        key: "secret",
        ty: ValueType::Int,
        default: "2",
        doc: "the victim's secret arm: which platter region it keeps reading",
    },
    ParamSpec {
        key: "victim",
        ty: ValueType::Bool,
        default: "true",
        doc: "coreside the secret-dependent victim with the first replica",
    },
    ParamSpec {
        key: "victim_every",
        ty: ValueType::Int,
        default: "3",
        doc: "ticks between victim reads of its secret region",
    },
];

/// The `"disk-channel"` workload: a [`DiskProbeGuest`] attacker VM,
/// optionally coresident with a [`DiskSeekVictimGuest`] on its first
/// replica host, measured until the attacker finishes its rounds.
/// Samples are per-arm latency totals; `extra` carries the arm-recovery
/// score. Pair it with `disk=rotating` and a Δd above the disk's
/// worst-case access time (the preset does) — that is the configuration
/// the paper's Sec. V-A sizing rule prescribes.
pub struct DiskChannelWorkload;

struct DiskChannelInstalled {
    vm: VmHandle,
    secret: u64,
    arms: u64,
}

impl InstalledWorkload for DiskChannelInstalled {
    fn vm(&self) -> VmHandle {
        self.vm
    }

    fn collect(&self, sim: &mut CloudSim) -> WorkloadOutcome {
        let g = sim
            .cloud
            .guest_program::<DiskProbeGuest>(self.vm, 0)
            .expect("attacker program");
        recovery_outcome(
            g.samples_ns(),
            g.guesses(),
            g.rounds_done(),
            self.secret,
            self.arms,
        )
    }
}

impl Workload for DiskChannelWorkload {
    fn name(&self) -> &str {
        "disk-channel"
    }

    fn about(&self) -> &str {
        "seek-timing attacker vs coresident secret-dependent victim on the shared disk (Sec. V-A)"
    }

    fn params(&self) -> &[ParamSpec] {
        DISK_PARAMS
    }

    fn channels(&self) -> &'static [ChannelKind] {
        &[ChannelKind::Net, ChannelKind::Disk]
    }

    fn install(
        &self,
        b: &mut CloudBuilder,
        ctx: &InstallCtx<'_>,
        params: &WorkloadParams,
    ) -> Result<Box<dyn InstalledWorkload>, String> {
        let arms: u64 = params.get(DISK_PARAMS, "arms")?;
        let probes_per_arm = params.get(DISK_PARAMS, "probes_per_arm")?;
        let probe_gap_ticks = params.get(DISK_PARAMS, "probe_gap_ticks")?;
        let rounds = params.get(DISK_PARAMS, "rounds")?;
        let secret: u64 = params.get(DISK_PARAMS, "secret")?;
        let victim: bool = params.get(DISK_PARAMS, "victim")?;
        let victim_every = params.get(DISK_PARAMS, "victim_every")?;
        if arms < 2 {
            return Err("disk-channel needs arms >= 2".to_string());
        }
        if secret >= arms {
            return Err(format!(
                "disk-channel secret arm {secret} is out of range (arms = {arms})"
            ));
        }
        // Spread the arms across the guest image so seek distances (and
        // with them the head-position signal) are as large as the platter
        // allows.
        let image_blocks = b.config().image_blocks;
        let arm_span = image_blocks / arms;
        if arm_span == 0 {
            return Err(format!(
                "disk-channel needs an image of at least {arms} blocks (cfg.image_blocks = {image_blocks})"
            ));
        }
        let monitor = b.next_client_endpoint();
        let vm = ctx.add_vm(b, &move || {
            Box::new(DiskProbeGuest::new(
                arms,
                probes_per_arm,
                probe_gap_ticks,
                rounds,
                arm_span,
                monitor,
            ))
        });
        if victim {
            // The coresidency under attack: the victim shares exactly the
            // attacker's first replica host — and with it that host's
            // disk head and FIFO queue.
            b.add_baseline_vm(
                ctx.replica_hosts[0],
                Box::new(DiskSeekVictimGuest::new(
                    secret * arm_span + 1,
                    victim_every,
                )),
            );
        }
        b.add_client(Box::new(CompletionWaiter::new(1)));
        Ok(Box::new(DiskChannelInstalled { vm, secret, arms }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{install, WorkloadParams};
    use simkit::time::{SimDuration, SimTime};
    use stopwatch_core::config::CloudConfig;

    fn run(stopwatch: bool, victim: bool, seed: u64) -> WorkloadOutcome {
        let params = WorkloadParams::from_pairs([
            ("rounds", "6"),
            ("victim", if victim { "true" } else { "false" }),
        ]);
        let mut cfg = CloudConfig::fast_test();
        // The disk channel needs the rotating medium (the head-position
        // signal), a Δd above its worst-case access time, and a large
        // image so the arms sit far apart on the platter.
        cfg.apply_all([
            ("disk", "rotating"),
            ("delta_d_ms", "25"),
            ("image_blocks", "16000000"),
        ])
        .expect("overrides");
        cfg.seed = seed;
        cfg.defense = if stopwatch { "stopwatch" } else { "baseline" }.to_string();
        let mut b = CloudBuilder::new(cfg, 3);
        let wl = install("disk-channel", &mut b, &[0, 1, 2], &params, seed).expect("install");
        let mut sim = b.build();
        sim.run_until_clients_done(SimTime::from_secs(120));
        let drain = sim.now() + SimDuration::from_millis(500);
        sim.run_until(drain);
        wl.collect(&mut sim)
    }

    fn extra(out: &WorkloadOutcome, key: &str) -> f64 {
        out.extra
            .iter()
            .find(|(k, _)| k == key)
            .map(|&(_, v)| v)
            .expect(key)
    }

    #[test]
    fn baseline_with_victim_sees_a_perturbed_latency_distribution() {
        let out = run(false, true, 7);
        assert_eq!(out.completed, 6, "all rounds finished");
        assert_eq!(out.samples_ms.len(), 24, "6 rounds x 4 arms");
        // The victim's parked head + queueing shows in the raw latencies:
        // the samples are not all equal.
        let first = out.samples_ms[0];
        assert!(
            out.samples_ms.iter().any(|&s| (s - first).abs() > 1e-9),
            "baseline latencies must carry signal: {:?}",
            &out.samples_ms[..8]
        );
        assert!(
            extra(&out, "recovery_accuracy") >= 0.75,
            "attacker recovers the secret arm most rounds under baseline: {out:?}"
        );
    }

    #[test]
    fn stopwatch_median_reads_flat_delta_d_latencies() {
        let out = run(true, true, 7);
        assert_eq!(out.completed, 6);
        // Every replica proposed issue + Δd (the victim only perturbs one
        // of three disks, and the median ignores it): every probe reads
        // the identical flat latency.
        let first = out.samples_ms[0];
        assert!(
            out.samples_ms.iter().all(|&s| (s - first).abs() < 1e-12),
            "stopwatch latencies must be flat: {:?}",
            &out.samples_ms[..8]
        );
        // Per-arm totals = probes_per_arm x ~Δd each.
        assert!(
            first >= 4.0 * 25.0,
            "arm total at least probes x Δd: {first}"
        );
        let chance = extra(&out, "chance_accuracy");
        assert!(
            extra(&out, "recovery_accuracy") <= chance + 1e-9,
            "accuracy collapses to the deterministic cycle: {out:?}"
        );
    }

    #[test]
    fn stopwatch_victim_cell_is_indistinguishable_from_clean() {
        let with_victim = run(true, true, 9);
        let clean = run(true, false, 9);
        assert_eq!(
            with_victim.samples_ms, clean.samples_ms,
            "the agreed release times are identical with and without the victim"
        );
    }

    #[test]
    fn runs_are_deterministic_per_seed() {
        let a = run(false, true, 11);
        let b = run(false, true, 11);
        assert_eq!(a.samples_ms, b.samples_ms);
        assert_eq!(a.extra, b.extra);
    }

    #[test]
    fn bad_geometry_is_rejected() {
        let mut b = CloudBuilder::new(CloudConfig::fast_test(), 3);
        let bad = WorkloadParams::from_pairs([("secret", "99")]);
        let err = install("disk-channel", &mut b, &[0, 1, 2], &bad, 1)
            .err()
            .expect("out-of-range secret");
        assert!(err.contains("out of range"), "{err}");
        let one_arm = WorkloadParams::from_pairs([("arms", "1"), ("secret", "0")]);
        let err = install("disk-channel", &mut b, &[0, 1, 2], &one_arm, 1)
            .err()
            .expect("one arm");
        assert!(err.contains("arms >= 2"), "{err}");
    }
}
