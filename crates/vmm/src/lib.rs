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
//!   named by a [`channel::ChannelKind`] with a per-channel
//!   [`channel::ChannelPolicy`] (Δn/Δd/Δt offsets, synchrony clamping);
//! * [`defense`] — the pluggable defense arms: StopWatch's replica
//!   median, Deterland epoch-boundary release, Tizpaz-Niari bucketed
//!   quantization, and the unprotected baseline, all as release
//!   policies over the same channel core;
//! * [`guest`] — the deterministic guest-program abstraction;
//! * [`sched`] — the deterministic per-host vCPU scheduler (round-robin
//!   timeslices, hypercraft-style `switch_vm_timer`/`htimedelta`
//!   accounting) whose dispatch jitter is the timer channel's leak;
//! * [`slot`] — the per-guest VMM machinery: guest-caused VM exits,
//!   interrupt injection at VM entry, hidden device buffers,
//!   guest-programmable virtual timers, and **one** replica-median
//!   agreement path shared by every timing channel;
//! * [`host`] — a physical machine aggregating slots, a disk, a vCPU
//!   scheduler, and a speed profile.
//!
//! Cross-host coordination (proposal exchange, pacing, ingress/egress
//! wiring) lives one level up, in `stopwatch-core`.

pub mod actions;
pub mod cache;
pub mod channel;
pub mod clock;
pub mod defense;
pub mod devices;
pub mod guest;
pub mod host;
mod pending;
pub mod sched;
pub mod slot;
pub mod speed;

/// One-line import for the common types.
pub mod prelude {
    pub use crate::actions::ActionQueue;
    pub use crate::cache::CacheModel;
    pub use crate::channel::{ChannelKind, ChannelPolicies, ChannelPolicy};
    pub use crate::clock::VirtualClock;
    pub use crate::defense::{DefenseKnobs, DefensePolicy, ReleaseRule};
    pub use crate::devices::{PlatformClocks, TimePolicy};
    pub use crate::guest::{GuestAction, GuestEnv, GuestProgram, IdleGuest};
    pub use crate::host::HostMachine;
    pub use crate::sched::VcpuScheduler;
    pub use crate::slot::{
        ArrivalOutcome, DefenseMode, GuestSlot, SlotConfig, SlotError, SlotOutput,
    };
    pub use crate::speed::SpeedProfile;
}
