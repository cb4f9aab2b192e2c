//! # stopwatch-repro — a full reproduction of StopWatch (DSN 2013)
//!
//! *Mitigating Access-Driven Timing Channels in Clouds using StopWatch*
//! (Peng Li, Debin Gao, Michael K. Reiter) defends infrastructure-as-a-service
//! clouds against timing side channels by running **three replicas** of every
//! guest VM on hosts with nonoverlapping coresidency and exposing only
//! **median timings**: median virtual delivery times for inbound I/O events,
//! virtual (instruction-derived) clocks internally, and second-copy (median)
//! release of outputs externally.
//!
//! The original is a Xen 4.0.2 modification; this workspace rebuilds the
//! entire platform as a deterministic discrete-event simulation and
//! implements StopWatch inside it, at the same architectural joints. See
//! `DESIGN.md` for the system inventory and the sweep architecture. The
//! paper's simulated figures are [`harness`] presets, run with the
//! `swbench` binary (`swbench run fig5`); its closed-form tables print
//! from this package's examples (`analytic_figures`, `placement_planner`).
//! DESIGN.md's "Experiment results" maps every figure to its command.
//!
//! ## Crate map
//!
//! | crate | role |
//! |---|---|
//! | [`simkit`] | discrete-event kernel: time, events, seeded RNG, metrics |
//! | [`netsim`] | links, PGM multicast, TCP/UDP-lite, ingress/egress nodes |
//! | [`storage`] | disk images, rotating/SSD access models, disk devices |
//! | [`vmm`] | the simulated hypervisor: virtual time, VM exits, devices |
//! | [`stopwatch_core`] | the defense: replica coordination, median agreement |
//! | [`placement`] | Theorems 1–2: triangle packings, Bose construction |
//! | [`timestats`] | order statistics, χ² detection, KS distance, Figs. 1 and 8 |
//! | [`workloads`] | web/NFS/PARSEC/attacker guests, clients, registry |
//! | [`harness`] | parallel scenario sweeps and the `swbench` driver |
//!
//! ## Quickstart
//!
//! ```
//! use stopwatch_repro::prelude::*;
//!
//! // A three-host cloud running one idle guest under the default
//! // defense arm, StopWatch.
//! let mut builder = CloudBuilder::new(CloudConfig::fast_test(), 3);
//! builder.add_defended_vm(&[0, 1, 2], || Box::new(IdleGuest));
//! let mut sim = builder.build();
//! sim.run_until(SimTime::from_millis(200));
//! assert_eq!(sim.cloud.stats().get("egress_divergences"), 0);
//! ```

pub use harness;
pub use netsim;
pub use placement;
pub use simkit;
pub use stopwatch_core;
pub use storage;
pub use timestats;
pub use vmm;
pub use workloads;

/// The most common imports, re-exported in one place.
pub mod prelude {
    pub use netsim::prelude::*;
    pub use placement::prelude::*;
    pub use simkit::prelude::*;
    pub use stopwatch_core::prelude::*;
    pub use storage::{BlockRange, DiskImage};
    pub use timestats::{Cdf, Detector, Exponential, OrderStat};
    pub use vmm::prelude::*;
    pub use workloads::prelude::*;
}
