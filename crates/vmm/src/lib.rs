//! # vmm — the simulated hypervisor under StopWatch
//!
//! The StopWatch prototype is ~1.5 kSLOC of changes inside Xen 4.0.2 plus
//! ~2 kSLOC in QEMU device models. This crate rebuilds the architectural
//! joints those changes live at, as a deterministic simulation:
//!
//! * [`clock`] — virtual time `virt(instr) = slope·instr + start` with the
//!   epoch-resynchronization protocol (paper Sec. IV-A);
//! * [`speed`] — deterministic host speed profiles (branch↔time), with
//!   jitter and coresident-load contention;
//! * [`devices`] — emulated PIT / TSC / RTC, all fed from one instant;
//! * [`cache`] — the per-host shared LLC (set/way, deterministic LRU)
//!   behind the coresidency channel (Sec. III);
//! * [`channel`] — the unified timing-channel descriptors: every
//!   interrupt class an attacker could time (net, cache, disk, timer)
//!   named by a [`channel::ChannelKind`], whose methods carry the
//!   per-channel constants (synchrony clamp, early buffering, majority
//!   fix, overrun counter);
//! * [`counter`] — the slot counter table: one [`counter::SlotCounter`]
//!   row per count a slot keeps, held in a fixed array;
//! * [`defense`] — the pluggable defense arms, one [`defense::ARMS`] row
//!   each: StopWatch's replica median (with its Δn/Δd/Δt offsets),
//!   Deterland epoch-boundary release, Tizpaz-Niari bucketed
//!   quantization, and the unprotected baseline, all lowered to a
//!   [`defense::DefenseMode`] over the same channel core;
//! * [`guest`] — the deterministic guest-program abstraction;
//! * [`slot`] — the per-guest VMM machinery: guest-caused VM exits,
//!   interrupt injection at VM entry, hidden device buffers,
//!   guest-programmable virtual timers, and **one** `open` and one
//!   `settle` per channel event, feeding one replica-median agreement
//!   path shared by every timing channel.
//!
//! Each host's shared devices and slots, its vCPU run queue (a timer fire
//! waits one timeslice per busy coresident) and cross-host coordination
//! (proposal exchange, pacing, ingress/egress wiring) live one level up,
//! in `stopwatch-core`.

pub mod actions;
pub mod cache;
pub mod channel;
pub mod clock;
pub mod counter;
pub mod defense;
pub mod devices;
pub mod guest;
mod pending;
pub mod slot;
pub mod speed;

/// One-line import for the common types.
pub mod prelude {
    pub use crate::actions::ActionQueue;
    pub use crate::cache::CacheModel;
    pub use crate::channel::ChannelKind;
    pub use crate::clock::VirtualClock;
    pub use crate::counter::SlotCounter;
    pub use crate::defense::{DefenseArm, DefenseKnobs, ReleaseRule};
    pub use crate::devices::PlatformClocks;
    pub use crate::guest::{GuestAction, GuestEnv, GuestProgram, IdleGuest};
    pub use crate::slot::{
        ArrivalOutcome, DefenseMode, GuestSlot, SlotConfig, SlotError, SlotOutput,
    };
    pub use crate::speed::SpeedProfile;
}
