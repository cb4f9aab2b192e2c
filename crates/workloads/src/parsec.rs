//! The Fig. 7 workload: five PARSEC 2.1 applications modeled as
//! compute/disk-I/O profiles calibrated to the paper's testbed — each app
//! alternates compute chunks with (synchronous) disk reads plus a final
//! result write, then reports completion to a monitor endpoint.
//!
//! The paper's observation: StopWatch's compute overhead is dominated by Δd
//! delaying every disk-completion interrupt, so the absolute penalty is
//! proportional to the number of disk interrupts (Fig. 7b).

use crate::registry::{
    InstallCtx, InstalledWorkload, ParamSpec, Workload, WorkloadOutcome, WorkloadParams,
};
use netsim::packet::{Body, EndpointId, Packet};
use simkit::time::SimTime;
use stopwatch_core::cloud::{ClientApp, ClientHandle, CloudBuilder, CloudSim, VmHandle};
use storage::block::BlockRange;
use storage::device::DiskOp;
use vmm::channel::ChannelKind;
use vmm::guest::{GuestEnv, GuestProgram};

/// One PARSEC application's profile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParsecProfile {
    /// Application name.
    pub name: &'static str,
    /// Baseline (unmodified Xen) runtime the paper measured, ms.
    pub paper_baseline_ms: u64,
    /// StopWatch runtime the paper measured, ms.
    pub paper_stopwatch_ms: u64,
    /// Disk interrupts during the run (paper Fig. 7b).
    pub disk_interrupts: u64,
    /// Pure-compute branches (calibrated: baseline runtime minus expected
    /// disk service time at 1e9 branches/s).
    pub compute_branches: u64,
}

/// The five applications of Fig. 7. `compute_branches` is calibrated so
/// that `compute + disk_interrupts × (sequential rotating-disk access)`
/// lands near the paper's baseline runtime on the default platform.
pub const PARSEC: [ParsecProfile; 5] = [
    ParsecProfile {
        name: "ferret",
        paper_baseline_ms: 171,
        paper_stopwatch_ms: 350,
        disk_interrupts: 31,
        compute_branches: 25_000_000,
    },
    ParsecProfile {
        name: "blackscholes",
        paper_baseline_ms: 177,
        paper_stopwatch_ms: 401,
        disk_interrupts: 38,
        compute_branches: 20_000_000,
    },
    ParsecProfile {
        name: "canneal",
        paper_baseline_ms: 1530,
        paper_stopwatch_ms: 3230,
        disk_interrupts: 183,
        compute_branches: 650_000_000,
    },
    ParsecProfile {
        name: "dedup",
        paper_baseline_ms: 3730,
        paper_stopwatch_ms: 5754,
        disk_interrupts: 293,
        compute_branches: 2_300_000_000,
    },
    ParsecProfile {
        name: "streamcluster",
        paper_baseline_ms: 290,
        paper_stopwatch_ms: 382,
        disk_interrupts: 27,
        compute_branches: 160_000_000,
    },
];

/// Looks up a profile by name.
pub fn profile(name: &str) -> Option<ParsecProfile> {
    PARSEC.iter().copied().find(|p| p.name == name)
}

const DONE_TOKEN: u64 = u64::MAX;

/// A PARSEC application guest: configuration, input unpacking (disk reads
/// interleaved with compute), computation, result write, completion report.
pub struct ParsecGuest {
    profile: ParsecProfile,
    monitor: EndpointId,
    ops_issued: u64,
    chunk: u64,
    finished_at: Option<simkit::time::VirtNanos>,
}

impl ParsecGuest {
    /// Creates the guest; it reports completion to `monitor`.
    pub fn new(profile: ParsecProfile, monitor: EndpointId) -> Self {
        // One compute chunk between consecutive disk ops.
        let chunk = profile.compute_branches / (profile.disk_interrupts + 1).max(1);
        ParsecGuest {
            profile,
            monitor,
            ops_issued: 0,
            chunk,
            finished_at: None,
        }
    }

    /// Virtual completion time, once finished.
    pub fn finished_at(&self) -> Option<simkit::time::VirtNanos> {
        self.finished_at
    }

    fn issue_next(&mut self, env: &mut GuestEnv) {
        if self.ops_issued < self.profile.disk_interrupts {
            let i = self.ops_issued;
            self.ops_issued += 1;
            env.compute(self.chunk);
            if i + 1 == self.profile.disk_interrupts {
                // The last op is the result write.
                env.disk_write(BlockRange::new(500_000 + i * 8, 8), i);
            } else {
                // Sequential input reads (unpacking inputs).
                env.disk_read(BlockRange::new(1_000 + i * 8, 8));
            }
        } else {
            // Tail computation, then report completion.
            env.compute(self.chunk);
            env.call_after(DONE_TOKEN);
        }
    }
}

impl GuestProgram for ParsecGuest {
    fn on_boot(&mut self, env: &mut GuestEnv) {
        self.issue_next(env);
    }

    fn on_packet(&mut self, _packet: &Packet, _env: &mut GuestEnv) {}

    fn on_disk_done(&mut self, _op: DiskOp, _range: BlockRange, _data: &[u64], env: &mut GuestEnv) {
        self.issue_next(env);
    }

    fn on_call(&mut self, token: u64, env: &mut GuestEnv) {
        if token == DONE_TOKEN && self.finished_at.is_none() {
            self.finished_at = Some(env.now);
            env.send(
                self.monitor,
                Body::Raw {
                    tag: 0xD0E,
                    len: 32,
                },
            );
        }
    }

    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        Some(self)
    }
}

/// A monitor client that waits for `expected` completion reports and
/// records their (real-time) arrival.
pub struct CompletionWaiter {
    expected: u32,
    arrivals: Vec<SimTime>,
}

impl CompletionWaiter {
    /// Waits for `expected` completion packets.
    pub fn new(expected: u32) -> Self {
        CompletionWaiter {
            expected,
            arrivals: Vec::new(),
        }
    }

    /// Real arrival times of the completion reports.
    pub fn arrivals(&self) -> &[SimTime] {
        &self.arrivals
    }
}

impl ClientApp for CompletionWaiter {
    fn on_start(&mut self, _now: SimTime) -> Vec<Packet> {
        Vec::new()
    }

    fn on_packet(&mut self, packet: &Packet, now: SimTime) -> Vec<Packet> {
        if matches!(packet.body(), Body::Raw { tag: 0xD0E, .. }) {
            self.arrivals.push(now);
        }
        Vec::new()
    }

    fn on_tick(&mut self, _now: SimTime) -> Vec<Packet> {
        Vec::new()
    }

    fn is_done(&self) -> bool {
        self.arrivals.len() as u32 >= self.expected
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// One `"parsec:<app>"` workload: a [`ParsecGuest`] built from its
/// profile, measured by a [`CompletionWaiter`] (Fig. 7). Each of the five
/// [`PARSEC`] profiles is its own named workload, one of
/// [`PARSEC_WORKLOADS`].
pub struct ParsecWorkload {
    name: &'static str,
    profile: ParsecProfile,
}

/// The five Fig. 7 workloads, in [`PARSEC`] order.
pub static PARSEC_WORKLOADS: [ParsecWorkload; 5] = [
    ParsecWorkload {
        name: "parsec:ferret",
        profile: PARSEC[0],
    },
    ParsecWorkload {
        name: "parsec:blackscholes",
        profile: PARSEC[1],
    },
    ParsecWorkload {
        name: "parsec:canneal",
        profile: PARSEC[2],
    },
    ParsecWorkload {
        name: "parsec:dedup",
        profile: PARSEC[3],
    },
    ParsecWorkload {
        name: "parsec:streamcluster",
        profile: PARSEC[4],
    },
];

struct ParsecInstalled {
    vm: VmHandle,
    client: ClientHandle,
}

impl InstalledWorkload for ParsecInstalled {
    fn vm(&self) -> VmHandle {
        self.vm
    }

    fn collect(&self, sim: &mut CloudSim) -> WorkloadOutcome {
        let c = sim
            .cloud
            .client_app::<CompletionWaiter>(self.client)
            .expect("client type");
        let samples: Vec<f64> = c.arrivals().iter().map(|t| t.as_millis_f64()).collect();
        WorkloadOutcome {
            completed: samples.len() as u64,
            samples_ms: samples,
            extra: Vec::new(),
        }
    }
}

impl Workload for ParsecWorkload {
    fn name(&self) -> &str {
        self.name
    }

    fn about(&self) -> &str {
        "PARSEC app completion time, calibrated to the paper's testbed (Fig. 7)"
    }

    fn params(&self) -> &[ParamSpec] {
        &[]
    }

    fn channels(&self) -> &'static [ChannelKind] {
        &[ChannelKind::Net, ChannelKind::Disk]
    }

    fn install(
        &self,
        b: &mut CloudBuilder,
        ctx: &InstallCtx<'_>,
        _params: &WorkloadParams,
    ) -> Result<Box<dyn InstalledWorkload>, String> {
        let profile = self.profile;
        let monitor = b.next_client_endpoint();
        let vm = ctx.add_vm(b, &move || Box::new(ParsecGuest::new(profile, monitor)));
        let client = b.add_client(Box::new(CompletionWaiter::new(1)));
        Ok(Box::new(ParsecInstalled { vm, client }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stopwatch_core::cloud::CloudBuilder;
    use stopwatch_core::config::{CloudConfig, DiskKind};

    /// Runs one PARSEC app; returns (runtime ms, disk interrupts at one
    /// replica).
    pub fn run_app(name: &str, stopwatch: bool) -> (f64, u64) {
        let prof = profile(name).expect("known app");
        let cfg = CloudConfig {
            broadcast_band: None, // keep unit tests fast
            disk: DiskKind::Rotating,
            ..CloudConfig::default()
        };
        let mut b = CloudBuilder::new(cfg, 3);
        let monitor_ep = EndpointId(2000);
        let vm = if stopwatch {
            b.add_defended_vm(&[0, 1, 2], move || {
                Box::new(ParsecGuest::new(prof, monitor_ep))
            })
        } else {
            b.add_baseline_vm(0, Box::new(ParsecGuest::new(prof, monitor_ep)))
        };
        let client = b.add_client(Box::new(CompletionWaiter::new(1)));
        let mut sim = b.build();
        sim.run_until_clients_done(SimTime::from_secs(60));
        let w = sim.cloud.client_app::<CompletionWaiter>(client).unwrap();
        assert_eq!(w.arrivals().len(), 1, "{name} must complete");
        let runtime_ms = w.arrivals()[0].as_millis_f64();
        let (h, s) = sim.cloud.vm_replicas(vm)[0];
        let disk_irqs = sim.cloud.host(h).slot(s).counters().get("disk_irq");
        (runtime_ms, disk_irqs)
    }

    #[test]
    fn ferret_baseline_near_paper() {
        let (ms, irqs) = run_app("ferret", false);
        let paper = 171.0;
        assert_eq!(irqs, 31, "Fig 7b count");
        assert!(
            ms > paper * 0.4 && ms < paper * 2.5,
            "ferret baseline {ms}ms vs paper {paper}ms"
        );
    }

    #[test]
    fn ferret_stopwatch_overhead_shape() {
        let (base, _) = run_app("ferret", false);
        let (sw, irqs) = run_app("ferret", true);
        assert_eq!(irqs, 31);
        // Paper: 171 -> 350 (~2x). Require a clear slowdown bounded by 4x.
        assert!(sw > base * 1.3, "stopwatch {sw} vs baseline {base}");
        assert!(sw < base * 4.0, "stopwatch {sw} vs baseline {base}");
    }

    #[test]
    fn profiles_are_complete() {
        assert_eq!(PARSEC.len(), 5);
        assert!(profile("dedup").is_some());
        assert!(profile("nonesuch").is_none());
        for p in PARSEC {
            assert!(p.compute_branches > 0);
            assert!(p.disk_interrupts > 0);
            assert!(p.paper_stopwatch_ms > p.paper_baseline_ms);
        }
    }
}
