//! # workloads — the guest programs and clients of the paper's evaluation
//!
//! * [`web`] — file retrieval over HTTP/TCP and UDP-NAK (Fig. 5);
//! * [`nfs`] — NFS server + nhfsstone generator with the paper's op mix
//!   (Fig. 6);
//! * [`parsec`] — the five PARSEC profiles (ferret, blackscholes, canneal,
//!   dedup, streamcluster) calibrated to the paper's runtimes and disk
//!   interrupt counts (Fig. 7);
//! * [`attack`] — attacker/victim/collaborator guests and the probe client
//!   (Fig. 4, Sec. IX);
//! * [`cache`] — the PRIME+PROBE guest pair exercising the shared-LLC
//!   coresidency channel directly (Sec. III);
//! * [`disk`] — the seek-timing guest pair exercising the shared-disk
//!   channel the Δd release times close (Sec. V-A);
//! * [`timer`] — the virtual-timer guest pair exercising the vCPU
//!   scheduler-beat channel the Δt release times close;
//! * [`registry`] — the typed workload API: one [`registry::Workload`]
//!   row per workload in the static table sweep harnesses build scenarios
//!   from, each with a self-describing [`registry::ParamSpec`] schema and
//!   the timing channels it exercises.
//!
//! Adding a workload is one const [`registry::Workload`] row plus its
//! install fn (in its own module, like the ones above) and one entry in
//! the table in `registry.rs` — no central dispatch to edit.

pub mod attack;
pub mod cache;
pub mod disk;
pub mod nfs;
pub mod parsec;
pub mod registry;
mod rounds;
pub mod timer;
pub mod web;

/// One-line import for the common types.
pub mod prelude {
    pub use crate::attack::{AttackerGuest, LoadGuest, ProbeClient, VictimGuest};
    pub use crate::cache::{CacheVictimGuest, PrimeProbeGuest};
    pub use crate::disk::{DiskProbeGuest, DiskSeekVictimGuest};
    pub use crate::nfs::{NfsOp, NfsServerGuest, NhfsstoneClient, PAPER_MIX};
    pub use crate::parsec::{profile, CompletionWaiter, ParsecGuest, ParsecProfile, PARSEC};
    pub use crate::registry::{
        install as install_workload, require as require_workload, workloads, Installed, ParamSpec,
        Workload, WorkloadOutcome, WorkloadParams,
    };
    pub use crate::timer::{TimerProbeGuest, TimerVictimGuest};
    pub use crate::web::{
        DownloadResult, FileServerGuest, HttpDownloadClient, UdpDownloadClient, UdpFileGuest,
    };
}
