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
//! * [`registry`] — the typed workload API: the [`registry::Workload`]
//!   trait + the static table sweep harnesses build scenarios from, with
//!   a self-describing [`registry::ParamSpec`] schema per workload (each
//!   workload also names the timing channels it exercises).
//!
//! Adding a workload is implementing [`registry::Workload`] (in its own
//! module, like the ones above) and adding one row to the table in
//! `registry.rs` — no central dispatch to edit.

pub mod attack;
pub mod cache;
pub mod disk;
pub mod nfs;
pub mod parsec;
pub mod registry;
pub mod timer;
pub mod web;

/// One-line import for the common types.
pub mod prelude {
    pub use crate::attack::{AttackWorkload, AttackerGuest, LoadGuest, ProbeClient, VictimGuest};
    pub use crate::cache::{CacheChannelWorkload, CacheVictimGuest, PrimeProbeGuest};
    pub use crate::disk::{DiskChannelWorkload, DiskProbeGuest, DiskSeekVictimGuest};
    pub use crate::nfs::{NfsOp, NfsServerGuest, NfsWorkload, NhfsstoneClient, PAPER_MIX};
    pub use crate::parsec::{
        profile, CompletionWaiter, ParsecGuest, ParsecProfile, ParsecWorkload, PARSEC,
        PARSEC_WORKLOADS,
    };
    pub use crate::registry::{
        install as install_workload, require as require_workload, workloads, InstallCtx,
        InstalledWorkload, ParamSpec, Workload, WorkloadOutcome, WorkloadParams,
    };
    pub use crate::timer::{TimerChannelWorkload, TimerProbeGuest, TimerVictimGuest};
    pub use crate::web::{
        DownloadResult, FileServerGuest, HttpDownloadClient, UdpDownloadClient, UdpFileGuest,
        WebHttpWorkload, WebUdpWorkload,
    };
}
