//! # stopwatch-core — the StopWatch system itself
//!
//! Li, Gao & Reiter's StopWatch (DSN 2013) defends IaaS clouds against
//! access-driven timing side channels by running **three replicas** of every
//! guest VM on hosts with nonoverlapping coresidency, and exposing only
//! **median timings**:
//!
//! * every inbound packet is replicated by an ingress node; the three VMMs
//!   exchange proposed virtual delivery times (`virt + Δn`) and inject at
//!   the **median**;
//! * disk/DMA completions are injected at `V + Δd` of the (deterministic)
//!   issue time `V`;
//! * all guest-readable clocks are virtual (a function of the guest's own
//!   branch count);
//! * outputs are released by an egress node once one content group holds
//!   two matching copies — the median output timing of the agreeing
//!   replicas.
//!
//! This crate wires the [`vmm`], [`netsim`] and [`storage`] substrates into
//! a runnable [`cloud::CloudSim`], configured by [`config::CloudConfig`].
//! The workspace's `DESIGN.md` describes how the pieces fit; sweep
//! harnesses construct clouds declaratively through
//! [`config::CloudConfig::apply`] and the builder's endpoint hooks.
//!
//! # Examples
//!
//! See the workspace examples (`examples/quickstart.rs` and friends); the
//! minimal shape is:
//!
//! ```
//! use stopwatch_core::prelude::*;
//! use vmm::prelude::IdleGuest;
//!
//! let mut builder = CloudBuilder::new(CloudConfig::fast_test(), 3);
//! builder.add_defended_vm(&[0, 1, 2], || Box::new(IdleGuest));
//! let mut sim = builder.build();
//! sim.run_until(simkit::time::SimTime::from_millis(100));
//! assert_eq!(sim.cloud.count(CloudCounter::EgressDivergences), 0);
//! ```

pub mod cloud;
pub mod config;
pub mod schema;

/// One-line import for the common types.
pub mod prelude {
    pub use crate::cloud::{
        ClientApp, ClientHandle, Cloud, CloudBuilder, CloudCounter, CloudSim, VmHandle,
    };
    pub use crate::config::{CloudConfig, DiskKind, KnobSpec, PacingConfig};
    pub use crate::schema::ValueType;
}
