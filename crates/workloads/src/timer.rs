//! The timer-channel experiment: an attacker inferring a coresident
//! victim's secret-dependent CPU bursts from its own virtual-timer
//! dispatch jitter (the scheduler-beat channel).
//!
//! A [`TimerProbeGuest`] divides each round into `arms` equal windows and
//! arms a one-shot virtual timer at every window's midpoint; the sample
//! it records is `irq_timestamp - deadline` — the guest-visible latency
//! of its own timer interrupt. A [`TimerVictimGuest`] coresides with the
//! attacker's **first replica only** and burns a secret-phased CPU burst
//! spanning exactly one window per round (driven by its own *periodic*
//! virtual timer): during that window the attacker's waking vCPU queues
//! behind the busy victim for a scheduler timeslice. Under Baseline (one
//! replica) the run-queue wait shows through and the window with the
//! largest latency names the secret, round after round. Under StopWatch
//! every replica proposes `deadline + Δt` (Δt is measured from the
//! *programmed* deadline, not the jittery dispatch instant) and the fire
//! is delivered at the replica median — a constant readout that carries
//! no trace of the victim's schedule.
//!
//! The per-window latency samples feed the sweep layer's leakage-verdict
//! pipeline exactly like network timings do.

use crate::parsec::CompletionWaiter;
use crate::registry::{
    recovery_outcome, InstallCtx, InstalledWorkload, ParamSpec, Workload, WorkloadOutcome,
    WorkloadParams,
};
use netsim::packet::{Body, EndpointId, Packet};
use simkit::time::{VirtNanos, VirtOffset};
use stopwatch_core::cloud::{CloudBuilder, CloudSim, VmHandle};
use stopwatch_core::schema::ValueType;
use storage::block::BlockRange;
use storage::device::DiskOp;
use vmm::channel::ChannelKind;
use vmm::guest::{GuestEnv, GuestProgram};

/// Completion-report tag understood by [`CompletionWaiter`].
const DONE_TAG: u64 = 0xD0E;

/// The attacker's one-shot probe timer id (re-armed each window).
const PROBE_TIMER: u64 = 1;

/// The victim's periodic burst timer id.
const BURST_TIMER: u64 = 7;

/// The scheduler-beat attacker guest.
///
/// Round structure (all decisions driven by injected timer fires only, so
/// the replicas stay in lockstep):
///
/// 1. **Arm** a one-shot virtual timer at the midpoint of the current
///    window (deadlines follow a fixed absolute schedule, so delivery
///    jitter never accumulates into the next probe);
/// 2. **Sample** `irq_timestamp - deadline` when the fire is injected —
///    the only scheduler-latency view the guest has;
/// 3. After `arms` windows, **guess**: the window with the strictly
///    largest latency is the round's recovered secret — unless every
///    window read the same (no signal), in which case the attacker
///    cycles through windows, the deterministic stand-in for guessing at
///    random.
///
/// After the final round it reports completion to the monitor client.
pub struct TimerProbeGuest {
    arms: u64,
    window: VirtOffset,
    start: VirtNanos,
    rounds: u32,
    monitor: EndpointId,
    round: u32,
    arm: u64,
    window_delay: Vec<u64>,
    samples_ns: Vec<u64>,
    guesses: Vec<u64>,
    done: bool,
}

impl TimerProbeGuest {
    /// An attacker probing `arms` windows of `window` length per round,
    /// for `rounds` rounds, with round 0 starting at absolute virtual
    /// time `start`; reports completion to `monitor`.
    pub fn new(
        arms: u64,
        window: VirtOffset,
        start: VirtNanos,
        rounds: u32,
        monitor: EndpointId,
    ) -> Self {
        TimerProbeGuest {
            arms: arms.max(1),
            window,
            start,
            rounds: rounds.max(1),
            monitor,
            round: 0,
            arm: 0,
            window_delay: Vec::new(),
            samples_ns: Vec::new(),
            guesses: Vec::new(),
            done: false,
        }
    }

    /// Per-window timer-latency samples, one entry per `(round, window)`
    /// pair in round-major order, virtual nanoseconds.
    pub fn samples_ns(&self) -> &[u64] {
        &self.samples_ns
    }

    /// The recovered window per completed round.
    pub fn guesses(&self) -> &[u64] {
        &self.guesses
    }

    /// Completed rounds.
    pub fn rounds_done(&self) -> u32 {
        self.round
    }

    /// The fixed probe schedule: window `arm` of round `round` is probed
    /// at its midpoint.
    fn deadline(&self, round: u32, arm: u64) -> VirtNanos {
        let w = self.window.as_nanos();
        let slots = u64::from(round) * self.arms + arm;
        VirtNanos::from_nanos(self.start.as_nanos() + slots * w + w / 2)
    }

    fn arm_probe(&mut self, env: &mut GuestEnv) {
        let deadline = self.deadline(self.round, self.arm);
        env.set_timer(PROBE_TIMER, deadline);
    }

    fn finish_round(&mut self, env: &mut GuestEnv) {
        self.samples_ns.extend(self.window_delay.iter().copied());
        let max = *self.window_delay.iter().max().expect("arms > 0");
        let min = *self.window_delay.iter().min().expect("arms > 0");
        let guess = if max == min {
            // Flat readout: no signal. Cycle deterministically — the
            // determinism-safe stand-in for a random guess.
            u64::from(self.round) % self.arms
        } else {
            self.window_delay
                .iter()
                .position(|&d| d == max)
                .expect("max exists") as u64
        };
        self.guesses.push(guess);
        self.window_delay.clear();
        self.round += 1;
        self.arm = 0;
        if self.round >= self.rounds {
            self.done = true;
            env.send(
                self.monitor,
                Body::Raw {
                    tag: DONE_TAG,
                    len: 64,
                },
            );
        } else {
            self.arm_probe(env);
        }
    }
}

impl GuestProgram for TimerProbeGuest {
    fn on_boot(&mut self, env: &mut GuestEnv) {
        self.arm_probe(env);
    }

    fn on_packet(&mut self, _packet: &Packet, _env: &mut GuestEnv) {}

    fn on_disk_done(&mut self, _op: DiskOp, _r: BlockRange, _d: &[u64], _env: &mut GuestEnv) {}

    fn on_vtimer(&mut self, timer_id: u64, env: &mut GuestEnv) {
        if timer_id != PROBE_TIMER || self.done {
            return;
        }
        let deadline = self.deadline(self.round, self.arm);
        let delay = env
            .irq_timestamp
            .as_nanos()
            .saturating_sub(deadline.as_nanos());
        self.window_delay.push(delay);
        self.arm += 1;
        if self.arm >= self.arms {
            self.finish_round(env);
        } else {
            self.arm_probe(env);
        }
    }

    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        Some(self)
    }
}

/// The victim: a guest whose CPU schedule depends on its secret. A
/// periodic virtual timer beats once per round, phased into window
/// `secret`; each fire queues one window-spanning compute burst, keeping
/// the victim's vCPU busy for exactly that window — which is what the
/// coresident attacker's run-queue wait betrays.
pub struct TimerVictimGuest {
    secret: u64,
    window: VirtOffset,
    start: VirtNanos,
    period: VirtOffset,
}

impl TimerVictimGuest {
    /// A victim bursting through window `secret` of every `arms`-window
    /// round (rounds start at `start`, windows are `window` long).
    pub fn new(secret: u64, arms: u64, window: VirtOffset, start: VirtNanos) -> Self {
        TimerVictimGuest {
            secret,
            window,
            start,
            period: VirtOffset::from_nanos(window.as_nanos() * arms.max(1)),
        }
    }
}

impl GuestProgram for TimerVictimGuest {
    fn on_boot(&mut self, env: &mut GuestEnv) {
        let first =
            VirtNanos::from_nanos(self.start.as_nanos() + self.secret * self.window.as_nanos());
        env.set_periodic_timer(BURST_TIMER, first, self.period);
    }

    fn on_packet(&mut self, _packet: &Packet, _env: &mut GuestEnv) {}

    fn on_disk_done(&mut self, _op: DiskOp, _r: BlockRange, _d: &[u64], _env: &mut GuestEnv) {}

    fn on_vtimer(&mut self, timer_id: u64, env: &mut GuestEnv) {
        if timer_id == BURST_TIMER {
            // ~1 branch per virtual nanosecond at the default slope: the
            // burst spans the window it starts.
            env.compute(self.window.as_nanos());
        }
    }

    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        Some(self)
    }
}

/// Parameter schema of the `"timer-channel"` workload.
const TIMER_PARAMS: &[ParamSpec] = &[
    ParamSpec {
        key: "arms",
        ty: ValueType::Int,
        default: "4",
        doc: "windows per round; the victim bursts in exactly one of them",
    },
    ParamSpec {
        key: "window_ms",
        ty: ValueType::Int,
        default: "20",
        doc: "window length, virtual ms (probe deadlines sit at midpoints)",
    },
    ParamSpec {
        key: "rounds",
        ty: ValueType::Int32,
        default: "12",
        doc: "probe rounds per run",
    },
    ParamSpec {
        key: "secret",
        ty: ValueType::Int,
        default: "2",
        doc: "the victim's secret arm: which window its CPU burst fills",
    },
    ParamSpec {
        key: "victim",
        ty: ValueType::Bool,
        default: "true",
        doc: "coreside the secret-phased victim with the first replica",
    },
    ParamSpec {
        key: "start_ms",
        ty: ValueType::Int,
        default: "50",
        doc: "virtual time of round 0's first window, ms (boot settle)",
    },
];

/// The `"timer-channel"` workload: a [`TimerProbeGuest`] attacker VM,
/// optionally coresident with a [`TimerVictimGuest`] on its first replica
/// host, measured until the attacker finishes its rounds. Samples are
/// per-window timer latencies; `extra` carries the window-recovery score.
pub struct TimerChannelWorkload;

struct TimerChannelInstalled {
    vm: VmHandle,
    secret: u64,
    arms: u64,
}

impl InstalledWorkload for TimerChannelInstalled {
    fn vm(&self) -> VmHandle {
        self.vm
    }

    fn collect(&self, sim: &mut CloudSim) -> WorkloadOutcome {
        let g = sim
            .cloud
            .guest_program::<TimerProbeGuest>(self.vm, 0)
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

impl Workload for TimerChannelWorkload {
    fn name(&self) -> &str {
        "timer-channel"
    }

    fn about(&self) -> &str {
        "virtual-timer attacker vs coresident secret-phased CPU victim on the vCPU scheduler beat"
    }

    fn params(&self) -> &[ParamSpec] {
        TIMER_PARAMS
    }

    fn channels(&self) -> &'static [ChannelKind] {
        &[ChannelKind::Net, ChannelKind::Timer]
    }

    fn install(
        &self,
        b: &mut CloudBuilder,
        ctx: &InstallCtx<'_>,
        params: &WorkloadParams,
    ) -> Result<Box<dyn InstalledWorkload>, String> {
        let arms: u64 = params.get(TIMER_PARAMS, "arms")?;
        let window_ms: u64 = params.get(TIMER_PARAMS, "window_ms")?;
        let rounds = params.get(TIMER_PARAMS, "rounds")?;
        let secret: u64 = params.get(TIMER_PARAMS, "secret")?;
        let victim: bool = params.get(TIMER_PARAMS, "victim")?;
        let start_ms: u64 = params.get(TIMER_PARAMS, "start_ms")?;
        if arms < 2 || window_ms == 0 {
            return Err("timer-channel needs arms >= 2 and window_ms >= 1".to_string());
        }
        if secret >= arms {
            return Err(format!(
                "timer-channel secret arm {secret} is out of range (arms = {arms})"
            ));
        }
        let window = VirtOffset::from_millis(window_ms);
        let start = VirtNanos::from_millis(start_ms);
        let monitor = b.next_client_endpoint();
        let vm = ctx.add_vm(b, &move || {
            Box::new(TimerProbeGuest::new(arms, window, start, rounds, monitor))
        });
        if victim {
            // The coresidency under attack: the victim shares exactly the
            // attacker's first replica host (Sec. III's threat model).
            b.add_baseline_vm(
                ctx.replica_hosts[0],
                Box::new(TimerVictimGuest::new(secret, arms, window, start)),
            );
        }
        b.add_client(Box::new(CompletionWaiter::new(1)));
        Ok(Box::new(TimerChannelInstalled { vm, secret, arms }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{install, WorkloadParams};
    use simkit::time::{SimDuration, SimTime};
    use stopwatch_core::config::CloudConfig;

    fn run(stopwatch: bool, victim: bool, seed: u64) -> WorkloadOutcome {
        let params =
            WorkloadParams::from_pairs([("victim", if victim { "true" } else { "false" })]);
        let mut cfg = CloudConfig::fast_test();
        cfg.defense = if stopwatch { "stopwatch" } else { "baseline" }.to_string();
        let mut b = CloudBuilder::new(cfg, 3);
        let wl = install("timer-channel", &mut b, &[0, 1, 2], &params, seed).expect("install");
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
    fn baseline_with_victim_recovers_the_secret_window() {
        let out = run(false, true, 7);
        assert_eq!(out.completed, 12, "all rounds finished");
        assert_eq!(out.samples_ms.len(), 48, "12 rounds x 4 windows");
        assert!(
            extra(&out, "recovery_accuracy") >= 0.75,
            "baseline attacker should read the victim's burst window: {out:?}"
        );
        // The leak is the scheduler timeslice: one window per round reads
        // ~2 ms late, the rest are on time.
        let slow = out.samples_ms.iter().filter(|&&s| s > 1.0).count();
        assert_eq!(slow, 12, "one queued-behind-victim window per round");
    }

    #[test]
    fn baseline_without_victim_reads_on_time_fires() {
        let out = run(false, false, 7);
        assert_eq!(out.completed, 12);
        assert!(
            out.samples_ms.iter().all(|&s| s < 0.1),
            "an idle host dispatches every fire at its deadline: {:?}",
            &out.samples_ms[..4]
        );
    }

    #[test]
    fn stopwatch_median_pins_fires_at_delta_t() {
        let out = run(true, true, 7);
        assert_eq!(out.completed, 12);
        // Every replica proposes deadline + Δt (10 ms default) and the
        // median is that constant: the victim's schedule is invisible.
        assert!(
            out.samples_ms.iter().all(|&s| (s - 10.0).abs() < 1e-12),
            "agreed fires read exactly deadline + Δt: {:?}",
            &out.samples_ms[..4]
        );
        let chance = extra(&out, "chance_accuracy");
        assert!(
            extra(&out, "recovery_accuracy") <= chance + 0.05,
            "accuracy should collapse to chance under StopWatch: {out:?}"
        );
    }

    #[test]
    fn runs_are_deterministic_per_seed() {
        let a = run(true, true, 11);
        let b = run(true, true, 11);
        assert_eq!(a.samples_ms, b.samples_ms);
        assert_eq!(a.extra, b.extra);
    }

    #[test]
    fn bad_arms_are_rejected() {
        let mut b = CloudBuilder::new(CloudConfig::fast_test(), 3);
        let bad = WorkloadParams::from_pairs([("secret", "9")]);
        let err = install("timer-channel", &mut b, &[0, 1, 2], &bad, 1)
            .err()
            .expect("out-of-range secret");
        assert!(err.contains("out of range"), "{err}");
        let one = WorkloadParams::from_pairs([("arms", "1"), ("secret", "0")]);
        let err = install("timer-channel", &mut b, &[0, 1, 2], &one, 1)
            .err()
            .expect("one arm");
        assert!(err.contains("arms >= 2"), "{err}");
    }
}
