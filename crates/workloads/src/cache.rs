//! The cache-channel experiment: a PRIME+PROBE attacker sensing a
//! coresident victim through the shared LLC (paper Sec. III).
//!
//! A [`PrimeProbeGuest`] primes every monitored cache set, waits a few
//! timer ticks, then probes each line and records per-set latency
//! totals. A [`CacheVictimGuest`] coresides with the attacker's **first
//! replica only** and touches one *secret* set each tick — its evictions
//! turn that set's probes into misses on that host. Under Baseline (one
//! replica) the asymmetry shows through and the attacker recovers the
//! secret set round after round; under StopWatch the probe readout is
//! the **median** of the replicas' proposals (the unified
//! `GuestSlot::add_proposals` agreement path), and with only one of 3 (or
//! 5) replicas perturbed the median reads "hit" — the attacker's recovery
//! accuracy collapses toward chance.
//!
//! The per-set probe-latency samples feed the sweep layer's
//! leakage-verdict pipeline exactly like network timings do: a victim
//! cell whose latency distribution an observer cannot tell apart from
//! the clean cell's leaks nothing through this channel.

use crate::parsec::CompletionWaiter;
use crate::registry::{
    recovery_outcome, InstallCtx, InstalledWorkload, ParamSpec, Workload, WorkloadOutcome,
    WorkloadParams,
};
use netsim::packet::{Body, EndpointId, Packet};
use stopwatch_core::cloud::{CloudBuilder, CloudSim, VmHandle};
use stopwatch_core::schema::ValueType;
use storage::block::BlockRange;
use storage::device::DiskOp;
use vmm::channel::ChannelKind;
use vmm::guest::{GuestEnv, GuestProgram};

/// Completion-report tag understood by [`CompletionWaiter`].
const DONE_TAG: u64 = 0xD0E;

/// The PRIME+PROBE attacker guest.
///
/// Round structure (all decisions driven by injected events only, so the
/// replicas stay in lockstep):
///
/// 1. **Prime** every way of every monitored set (at boot, and again
///    right after each round's last probe readout);
/// 2. **Wait** `probe_gap_ticks` PIT ticks, giving a coresident victim
///    time to evict;
/// 3. **Probe** every line; per-probe latencies arrive via
///    [`GuestProgram::on_cache_probe`] and accumulate into per-set
///    totals;
/// 4. **Guess**: the set with the largest total latency is the round's
///    recovered secret — unless every set reads the same (no signal), in
///    which case the attacker cycles through sets, the deterministic
///    stand-in for guessing at random.
///
/// After the final round it reports completion to the monitor client.
pub struct PrimeProbeGuest {
    sets: u64,
    ways: u64,
    probe_gap_ticks: u64,
    rounds: u32,
    monitor: EndpointId,
    round: u32,
    primed_at_tick: Option<u64>,
    outstanding: u64,
    set_latency: Vec<u64>,
    samples_ns: Vec<u64>,
    guesses: Vec<u64>,
    done: bool,
}

impl PrimeProbeGuest {
    /// An attacker monitoring `sets` sets of `ways` ways, probing
    /// `probe_gap_ticks` ticks after each prime, for `rounds` rounds;
    /// reports completion to `monitor`.
    pub fn new(
        sets: u64,
        ways: u64,
        probe_gap_ticks: u64,
        rounds: u32,
        monitor: EndpointId,
    ) -> Self {
        PrimeProbeGuest {
            sets: sets.max(1),
            ways: ways.max(1),
            probe_gap_ticks: probe_gap_ticks.max(1),
            rounds: rounds.max(1),
            monitor,
            round: 0,
            primed_at_tick: None,
            outstanding: 0,
            set_latency: Vec::new(),
            samples_ns: Vec::new(),
            guesses: Vec::new(),
            done: false,
        }
    }

    /// Per-set probe-latency totals, one entry per `(round, set)` pair in
    /// round-major order, virtual nanoseconds.
    pub fn samples_ns(&self) -> &[u64] {
        &self.samples_ns
    }

    /// The recovered set per completed round.
    pub fn guesses(&self) -> &[u64] {
        &self.guesses
    }

    /// Completed rounds.
    pub fn rounds_done(&self) -> u32 {
        self.round
    }

    fn prime(&mut self, at_tick: u64, env: &mut GuestEnv) {
        for set in 0..self.sets {
            for way in 0..self.ways {
                env.cache_touch(set, way);
            }
        }
        self.primed_at_tick = Some(at_tick);
    }

    fn finish_round(&mut self, env: &mut GuestEnv) {
        self.samples_ns.extend(self.set_latency.iter().copied());
        let max = *self.set_latency.iter().max().expect("sets > 0");
        let min = *self.set_latency.iter().min().expect("sets > 0");
        let guess = if max == min {
            // Flat readout: no signal. Cycle deterministically — the
            // determinism-safe stand-in for a random guess.
            u64::from(self.round) % self.sets
        } else {
            self.set_latency
                .iter()
                .position(|&l| l == max)
                .expect("max exists") as u64
        };
        self.guesses.push(guess);
        self.round += 1;
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
            self.prime(env.pit_ticks, env);
        }
    }
}

impl GuestProgram for PrimeProbeGuest {
    fn on_boot(&mut self, env: &mut GuestEnv) {
        self.prime(0, env);
    }

    fn on_packet(&mut self, _packet: &Packet, _env: &mut GuestEnv) {}

    fn on_disk_done(&mut self, _op: DiskOp, _r: BlockRange, _d: &[u64], _env: &mut GuestEnv) {}

    fn on_timer(&mut self, env: &mut GuestEnv) {
        if self.done || self.outstanding > 0 {
            return;
        }
        let Some(primed_at) = self.primed_at_tick else {
            return;
        };
        if env.pit_ticks < primed_at + self.probe_gap_ticks {
            return;
        }
        self.primed_at_tick = None;
        self.set_latency = vec![0; self.sets as usize];
        self.outstanding = self.sets * self.ways;
        for set in 0..self.sets {
            for way in 0..self.ways {
                env.cache_probe(set, way);
            }
        }
    }

    fn on_cache_probe(&mut self, set: u64, _tag: u64, latency_ns: u64, env: &mut GuestEnv) {
        self.set_latency[set as usize] += latency_ns;
        self.outstanding -= 1;
        if self.outstanding == 0 {
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

/// The victim: a guest whose cache footprint depends on its secret. Every
/// `every_ticks` PIT ticks it walks all ways of its secret set —
/// evicting whatever the attacker primed there on the host they share.
pub struct CacheVictimGuest {
    secret_set: u64,
    ways: u64,
    every_ticks: u64,
}

impl CacheVictimGuest {
    /// A victim touching all `ways` of `secret_set` every `every_ticks`
    /// ticks.
    pub fn new(secret_set: u64, ways: u64, every_ticks: u64) -> Self {
        CacheVictimGuest {
            secret_set,
            ways: ways.max(1),
            every_ticks: every_ticks.max(1),
        }
    }
}

impl GuestProgram for CacheVictimGuest {
    fn on_boot(&mut self, _env: &mut GuestEnv) {}

    fn on_packet(&mut self, _packet: &Packet, _env: &mut GuestEnv) {}

    fn on_disk_done(&mut self, _op: DiskOp, _r: BlockRange, _d: &[u64], _env: &mut GuestEnv) {}

    fn on_timer(&mut self, env: &mut GuestEnv) {
        if env.pit_ticks.is_multiple_of(self.every_ticks) {
            for way in 0..self.ways {
                // Victim tags live in their own space; distinct owners
                // never alias anyway, but the offset keeps intent clear.
                env.cache_touch(self.secret_set, 1_000 + way);
            }
        }
    }

    fn wants_timer(&self) -> bool {
        true
    }

    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        Some(self)
    }
}

/// Parameter schema of the `"cache-channel"` workload.
const CACHE_PARAMS: &[ParamSpec] = &[
    ParamSpec {
        key: "sets",
        ty: ValueType::Int,
        default: "8",
        doc: "shared-LLC sets the attacker monitors (host cache geometry)",
    },
    ParamSpec {
        key: "ways",
        ty: ValueType::Int,
        default: "2",
        doc: "ways per set; the attacker primes and probes all of them",
    },
    ParamSpec {
        key: "probe_gap_ticks",
        ty: ValueType::Int,
        default: "2",
        doc: "PIT ticks between prime and probe (the victim's window)",
    },
    ParamSpec {
        key: "rounds",
        ty: ValueType::Int32,
        default: "20",
        doc: "PRIME+PROBE rounds per run",
    },
    ParamSpec {
        key: "secret",
        ty: ValueType::Int,
        default: "3",
        doc: "the victim's secret arm: which cache set its accesses target",
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
        default: "1",
        doc: "ticks between victim accesses to its secret set",
    },
];

/// The `"cache-channel"` workload: a [`PrimeProbeGuest`] attacker VM,
/// optionally coresident with a [`CacheVictimGuest`] on its first replica
/// host, measured until the attacker finishes its rounds. Samples are
/// per-set probe-latency totals; `extra` carries the set-recovery score.
pub struct CacheChannelWorkload;

struct CacheChannelInstalled {
    vm: VmHandle,
    secret: u64,
    sets: u64,
}

impl InstalledWorkload for CacheChannelInstalled {
    fn vm(&self) -> VmHandle {
        self.vm
    }

    fn collect(&self, sim: &mut CloudSim) -> WorkloadOutcome {
        let g = sim
            .cloud
            .guest_program::<PrimeProbeGuest>(self.vm, 0)
            .expect("attacker program");
        recovery_outcome(
            g.samples_ns(),
            g.guesses(),
            g.rounds_done(),
            self.secret,
            self.sets,
        )
    }
}

impl Workload for CacheChannelWorkload {
    fn name(&self) -> &str {
        "cache-channel"
    }

    fn about(&self) -> &str {
        "PRIME+PROBE attacker vs coresident secret-dependent victim on the shared LLC (Sec. III)"
    }

    fn params(&self) -> &[ParamSpec] {
        CACHE_PARAMS
    }

    fn channels(&self) -> &'static [ChannelKind] {
        &[ChannelKind::Net, ChannelKind::Cache]
    }

    fn install(
        &self,
        b: &mut CloudBuilder,
        ctx: &InstallCtx<'_>,
        params: &WorkloadParams,
    ) -> Result<Box<dyn InstalledWorkload>, String> {
        let sets: u64 = params.get(CACHE_PARAMS, "sets")?;
        let ways: u64 = params.get(CACHE_PARAMS, "ways")?;
        let probe_gap_ticks = params.get(CACHE_PARAMS, "probe_gap_ticks")?;
        let rounds = params.get(CACHE_PARAMS, "rounds")?;
        let secret: u64 = params.get(CACHE_PARAMS, "secret")?;
        let victim: bool = params.get(CACHE_PARAMS, "victim")?;
        let victim_every = params.get(CACHE_PARAMS, "victim_every")?;
        if sets == 0 || ways == 0 {
            return Err("cache-channel needs sets >= 1 and ways >= 1".to_string());
        }
        if secret >= sets {
            return Err(format!(
                "cache-channel secret set {secret} is out of range (sets = {sets})"
            ));
        }
        b.set_cache_geometry(sets, ways as usize);
        let monitor = b.next_client_endpoint();
        let vm = ctx.add_vm(b, &move || {
            Box::new(PrimeProbeGuest::new(
                sets,
                ways,
                probe_gap_ticks,
                rounds,
                monitor,
            ))
        });
        if victim {
            // The coresidency under attack: the victim shares exactly the
            // attacker's first replica host (Sec. III's threat model).
            b.add_baseline_vm(
                ctx.replica_hosts[0],
                Box::new(CacheVictimGuest::new(secret, ways, victim_every)),
            );
        }
        b.add_client(Box::new(CompletionWaiter::new(1)));
        Ok(Box::new(CacheChannelInstalled { vm, secret, sets }))
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
            ("rounds", "10"),
            ("victim", if victim { "true" } else { "false" }),
        ]);
        let mut cfg = CloudConfig::fast_test();
        cfg.defense = if stopwatch { "stopwatch" } else { "baseline" }.to_string();
        let mut b = CloudBuilder::new(cfg, 3);
        let wl = install("cache-channel", &mut b, &[0, 1, 2], &params, seed).expect("install");
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
    fn baseline_with_victim_recovers_the_secret_set() {
        let out = run(false, true, 7);
        assert_eq!(out.completed, 10, "all rounds finished");
        assert_eq!(out.samples_ms.len(), 80, "10 rounds x 8 sets");
        assert!(
            extra(&out, "recovery_accuracy") >= 0.9,
            "baseline attacker should recover the secret nearly every round: {out:?}"
        );
    }

    #[test]
    fn baseline_without_victim_reads_flat_hits() {
        let out = run(false, false, 7);
        assert_eq!(out.completed, 10);
        // All probes hit: per-set total = ways x HIT_NS = 80 ns.
        let hit_total = 2.0 * vmm::cache::CacheModel::HIT_NS as f64 / 1.0e6;
        assert!(
            out.samples_ms
                .iter()
                .all(|&s| (s - hit_total).abs() < 1e-12),
            "clean runs read a flat hit latency: {:?}",
            &out.samples_ms[..8]
        );
        assert!(
            extra(&out, "recovery_accuracy") <= 0.2,
            "no signal to recover"
        );
    }

    #[test]
    fn stopwatch_median_hides_the_victim() {
        let out = run(true, true, 7);
        assert_eq!(out.completed, 10);
        let hit_total = 2.0 * vmm::cache::CacheModel::HIT_NS as f64 / 1.0e6;
        assert!(
            out.samples_ms
                .iter()
                .all(|&s| (s - hit_total).abs() < 1e-12),
            "median of (miss, hit, hit) reads hit: {:?}",
            &out.samples_ms[..8]
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
    fn bad_geometry_is_rejected() {
        let mut b = CloudBuilder::new(CloudConfig::fast_test(), 3);
        let bad = WorkloadParams::from_pairs([("secret", "99")]);
        let err = install("cache-channel", &mut b, &[0, 1, 2], &bad, 1)
            .err()
            .expect("out-of-range secret");
        assert!(err.contains("out of range"), "{err}");
        let zero = WorkloadParams::from_pairs([("sets", "0"), ("secret", "0")]);
        let err = install("cache-channel", &mut b, &[0, 1, 2], &zero, 1)
            .err()
            .expect("zero sets");
        assert!(err.contains("sets >= 1"), "{err}");
    }
}
