//! The Fig. 4 security experiment: an attacker VM measures the virtual
//! inter-packet delivery times of a probe stream, while a victim VM on one
//! of the attacker's replica hosts perturbs that host's timing through
//! shared-hardware contention. Under StopWatch the perturbation is
//! microaggregated away by the median; under Baseline it shows through.
//!
//! Also provides the Sec. IX collaborating-attacker load generator.

use crate::registry::{Installed, ParamSpec, Workload, WorkloadOutcome, WorkloadParams};
use netsim::packet::{Body, EndpointId, Packet};
use simkit::rng::SimRng;
use simkit::time::{SimDuration, SimTime, VirtNanos};
use stopwatch_core::cloud::{ClientApp, CloudBuilder};
use stopwatch_core::schema::ValueType;
use vmm::channel::ChannelKind;
use vmm::guest::{GuestEnv, GuestProgram};

/// The attacker guest: records the virtual time at which each probe packet
/// is delivered (its IO-clock observable).
#[derive(Debug, Default)]
pub struct AttackerGuest {
    arrivals: Vec<VirtNanos>,
}

impl AttackerGuest {
    /// Creates the attacker.
    pub fn new() -> Self {
        AttackerGuest::default()
    }

    /// Virtual arrival times recorded so far.
    pub fn arrivals(&self) -> &[VirtNanos] {
        &self.arrivals
    }

    /// Inter-packet deltas in virtual milliseconds — the Fig. 4 observable.
    pub fn deltas_ms(&self) -> Vec<f64> {
        self.arrivals
            .windows(2)
            .map(|w| (w[1].as_nanos() - w[0].as_nanos()) as f64 / 1.0e6)
            .collect()
    }
}

impl GuestProgram for AttackerGuest {
    fn on_packet(&mut self, packet: &Packet, env: &mut GuestEnv) {
        if matches!(packet.body(), Body::Raw { tag: 0xBEEF, .. }) {
            self.arrivals.push(env.now);
        }
    }

    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        Some(self)
    }
}

/// Sends probe packets to the attacker at exponential inter-arrival times
/// (the paper models packet inter-arrivals as exponential, after
/// Karagiannis et al.).
pub struct ProbeClient {
    me: EndpointId,
    attacker: EndpointId,
    remaining: u32,
    next_at: Option<SimTime>,
    mean_gap: SimDuration,
    rng: SimRng,
}

impl ProbeClient {
    /// Sends `count` probes with exponential gaps of the given mean.
    pub fn new(
        me: EndpointId,
        attacker: EndpointId,
        count: u32,
        mean_gap: SimDuration,
        seed: u64,
    ) -> Self {
        ProbeClient {
            me,
            attacker,
            remaining: count,
            next_at: None,
            mean_gap,
            rng: SimRng::new(seed).stream("probe"),
        }
    }

    fn due(&mut self, now: SimTime) -> Vec<Packet> {
        let mut out = Vec::new();
        loop {
            if self.remaining == 0 {
                break;
            }
            let next = match self.next_at {
                Some(t) => t,
                None => {
                    let t = now + self.rng.exp_duration(self.mean_gap);
                    self.next_at = Some(t);
                    t
                }
            };
            if next > now {
                break;
            }
            self.remaining -= 1;
            out.push(Packet::new(
                self.me,
                self.attacker,
                Body::Raw {
                    tag: 0xBEEF,
                    len: 100,
                },
            ));
            let gap = self.rng.exp_duration(self.mean_gap);
            self.next_at = Some(next + gap);
        }
        out
    }
}

impl ClientApp for ProbeClient {
    fn on_start(&mut self, now: SimTime) -> Vec<Packet> {
        self.due(now)
    }

    fn on_packet(&mut self, _packet: &Packet, _now: SimTime) -> Vec<Packet> {
        Vec::new()
    }

    fn on_tick(&mut self, now: SimTime) -> Vec<Packet> {
        self.due(now)
    }

    fn is_done(&self) -> bool {
        self.remaining == 0
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// The victim: a guest that works in bursts (serving a file continuously,
/// in the paper's run), perturbing its host's timing while busy.
pub struct VictimGuest {
    burst_branches: u64,
    period_ticks: u64,
    duty_on: bool,
}

impl VictimGuest {
    /// A victim computing `burst_branches` every `period_ticks` PIT ticks
    /// (4 ms each at 250 Hz).
    pub fn new(burst_branches: u64, period_ticks: u64) -> Self {
        VictimGuest {
            burst_branches,
            period_ticks: period_ticks.max(1),
            duty_on: true,
        }
    }
}

impl GuestProgram for VictimGuest {
    fn on_boot(&mut self, env: &mut GuestEnv) {
        env.compute(self.burst_branches);
    }

    fn on_timer(&mut self, env: &mut GuestEnv) {
        if env.pit_ticks.is_multiple_of(self.period_ticks) && self.duty_on {
            env.compute(self.burst_branches);
        }
    }

    fn wants_timer(&self) -> bool {
        true
    }

    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        Some(self)
    }
}

/// The Sec. IX collaborating attacker: a second attacker VM that induces
/// heavy sustained load on one machine, trying to marginalize the replica
/// of the first attacker that runs there.
pub struct LoadGuest {
    chunk: u64,
}

impl LoadGuest {
    /// A guest that computes continuously in chunks.
    pub fn new(chunk: u64) -> Self {
        LoadGuest {
            chunk: chunk.max(1),
        }
    }
}

impl GuestProgram for LoadGuest {
    fn on_boot(&mut self, env: &mut GuestEnv) {
        env.compute(self.chunk);
        env.call_after(0);
    }

    fn on_call(&mut self, _token: u64, env: &mut GuestEnv) {
        env.compute(self.chunk);
        env.call_after(0);
    }

    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        Some(self)
    }
}

/// Parameter schema of the `"attack"` workload.
const ATTACK_PARAMS: &[ParamSpec] = &[
    ParamSpec {
        key: "probes",
        ty: ValueType::Int32,
        default: "300",
        doc: "probe packets sent at the attacker VM",
    },
    ParamSpec {
        key: "gap_ms",
        ty: ValueType::DurationMs,
        default: "40",
        doc: "mean gap between probe packets, ms",
    },
    ParamSpec {
        key: "victim",
        ty: ValueType::Bool,
        default: "false",
        doc: "coreside a bursty victim with the attacker's first replica",
    },
    ParamSpec {
        key: "victim_burst",
        ty: ValueType::Int,
        default: "100000000",
        doc: "victim compute burst, branches",
    },
    ParamSpec {
        key: "victim_period",
        ty: ValueType::Int,
        default: "50",
        doc: "victim burst period, PIT ticks",
    },
    ParamSpec {
        key: "load",
        ty: ValueType::Bool,
        default: "false",
        doc: "coreside a collaborating load VM (Sec. IX marginalization)",
    },
    ParamSpec {
        key: "load_chunk",
        ty: ValueType::Int,
        default: "50000000",
        doc: "collaborator compute chunk, branches",
    },
];

/// The `"attack"` workload: an [`AttackerGuest`] probed by a
/// [`ProbeClient`], optionally coresident with a [`VictimGuest`] and/or a
/// collaborating [`LoadGuest`] (Fig. 4, Sec. IX). Samples are the
/// attacker-observed inter-packet deltas.
pub const ATTACK: Workload = Workload {
    name: "attack",
    about: "probe-timing attacker, optional coresident victim/collaborator (Fig. 4, Sec. IX)",
    params: ATTACK_PARAMS,
    channels: &[ChannelKind::Net],
    install,
};

fn install(
    b: &mut CloudBuilder,
    hosts: &[usize],
    params: &WorkloadParams,
) -> Result<Installed, String> {
    let probes = params.get(ATTACK_PARAMS, "probes")?;
    let gap_ms: u64 = params.get(ATTACK_PARAMS, "gap_ms")?;
    let victim: bool = params.get(ATTACK_PARAMS, "victim")?;
    let victim_burst = params.get(ATTACK_PARAMS, "victim_burst")?;
    let victim_period = params.get(ATTACK_PARAMS, "victim_period")?;
    let load: bool = params.get(ATTACK_PARAMS, "load")?;
    let load_chunk = params.get(ATTACK_PARAMS, "load_chunk")?;
    let vm = b.add_defended_vm(hosts, || Box::new(AttackerGuest::new()));
    if victim {
        // The victim coresides with the attacker's first replica —
        // the coresidency the attacker is trying to sense (Fig. 4).
        b.add_baseline_vm(
            hosts[0],
            Box::new(VictimGuest::new(victim_burst, victim_period)),
        );
    }
    if load {
        // Sec. IX: a collaborating attacker loads the same host,
        // trying to marginalize that replica from the median.
        b.add_baseline_vm(hosts[0], Box::new(LoadGuest::new(load_chunk)));
    }
    let me = b.next_client_endpoint();
    let seed = b.config().seed ^ 0xa77a_c4ed;
    b.add_client(Box::new(ProbeClient::new(
        me,
        vm.endpoint,
        probes,
        SimDuration::from_millis(gap_ms),
        seed,
    )));
    Ok(Installed {
        vm,
        collect: Box::new(move |sim| {
            let g = sim
                .cloud
                .guest_program::<AttackerGuest>(vm, 0)
                .expect("attacker program");
            WorkloadOutcome::per_sample(g.deltas_ms(), Vec::new())
        }),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::install;
    use stopwatch_core::config::CloudConfig;

    /// One `attack` cloud on three hosts: `fast_test` with 3% host jitter
    /// and a 2 ms client tick. Returns the attacker-observed deltas.
    fn run(stopwatch: bool, victim: bool, probes: u32, seed: u64) -> Vec<f64> {
        let probes = probes.to_string();
        let params = WorkloadParams::from_pairs([
            ("probes", probes.as_str()),
            ("victim", if victim { "true" } else { "false" }),
        ]);
        let mut cfg = CloudConfig::fast_test();
        cfg.seed = seed;
        cfg.defense = if stopwatch { "stopwatch" } else { "baseline" }.to_string();
        cfg.ips_jitter = 0.03;
        cfg.client_tick = SimDuration::from_millis(2);
        let mut b = CloudBuilder::new(cfg, 3);
        let wl = install("attack", &mut b, &[0, 1, 2], &params).expect("install");
        let mut sim = b.build();
        sim.run_until_clients_done(SimTime::from_secs(600));
        // Let the tail of in-flight deliveries drain.
        let drain = sim.now() + SimDuration::from_millis(500);
        sim.run_until(drain);
        (wl.collect)(&mut sim).samples_ms
    }

    fn mean(v: &[f64]) -> f64 {
        v.iter().sum::<f64>() / v.len() as f64
    }

    #[test]
    fn attacker_records_probes_baseline() {
        let deltas = run(false, false, 40, 7);
        assert!(deltas.len() >= 30, "got {}", deltas.len());
        let mean = mean(&deltas);
        // Mean probe gap is 40 ms.
        assert!((20.0..80.0).contains(&mean), "mean delta {mean}");
    }

    #[test]
    fn attacker_records_probes_stopwatch() {
        let deltas = run(true, false, 40, 7);
        assert!(deltas.len() >= 30);
        assert!(deltas.iter().all(|&d| d >= 0.0));
    }

    #[test]
    fn victim_shifts_baseline_distribution() {
        // Without StopWatch the victim's bursts visibly shift the
        // attacker's observed inter-packet deltas.
        let (mc, md) = (
            mean(&run(false, false, 120, 11)),
            mean(&run(false, true, 120, 11)),
        );
        let shift = (mc - md).abs() / mc;
        assert!(shift > 0.01, "victim shifted baseline mean by only {shift}");
    }

    #[test]
    fn stopwatch_dampens_victim_shift() {
        let shift = |stopwatch: bool| {
            let clean = mean(&run(stopwatch, false, 120, 11));
            let dirty = mean(&run(stopwatch, true, 120, 11));
            (clean - dirty).abs() / clean
        };
        let (shift_sw, shift_bl) = (shift(true), shift(false));
        assert!(
            shift_sw < shift_bl,
            "StopWatch shift {shift_sw} should be below baseline shift {shift_bl}"
        );
    }
}
