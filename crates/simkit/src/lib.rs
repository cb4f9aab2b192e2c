//! # simkit — deterministic discrete-event simulation kernel
//!
//! The substrate under the StopWatch reproduction. The original StopWatch
//! (Li, Gao, Reiter — DSN 2013) is a Xen modification running on physical
//! hosts; this workspace re-creates the whole platform as a deterministic
//! discrete-event simulation, and `simkit` provides the primitives the rest
//! of the stack builds on:
//!
//! * [`time`] — nanosecond [`time::SimTime`] (simulated real time) and
//!   [`time::VirtNanos`] (guest virtual time), kept apart by the type system;
//! * [`engine`] — the event loop ([`engine::Sim`]): typed events in a
//!   recycled slab, one binary-heap queue, deterministic tie-breaking;
//! * [`rng`] — seeded, label-splittable random streams ([`rng::SimRng`]);
//! * [`metrics`] — summaries, exact-percentile sample sets and counters.
//!
//! # Examples
//!
//! ```
//! use simkit::prelude::*;
//!
//! #[derive(Default)]
//! struct World { arrivals: u32 }
//!
//! let mut sim: Sim<World> = Sim::new();
//! let mut world = World::default();
//! // A Poisson-ish arrival process, deterministic under the seed.
//! let mut rng = SimRng::new(42).stream("arrivals");
//! let mut t = SimTime::ZERO;
//! for _ in 0..10 {
//!     t = t + rng.exp_duration(SimDuration::from_millis(3));
//!     sim.schedule(t, |_, w: &mut World| w.arrivals += 1);
//! }
//! sim.run(&mut world);
//! assert_eq!(world.arrivals, 10);
//! ```

pub mod engine;
pub mod fxhash;
pub mod metrics;
pub mod rng;
pub mod time;

/// One-line import for the common types.
pub mod prelude {
    pub use crate::engine::{EventId, Sim};
    pub use crate::metrics::{Counters, Samples, Summary};
    pub use crate::rng::SimRng;
    pub use crate::time::{SimDuration, SimTime, VirtNanos, VirtOffset};
}
