//! # benchmark — end-to-end and per-layer measurement of sweeps
//!
//! Runs four user-visible sweeps (see [`workloads`]) in interleaved,
//! closed-loop passes, checks that every report is correct
//! ([`check`]), and reports host-time and heap metrics ([`metrics`]).
//! A traced run adds spans around each call into the harness
//! ([`trace`]) and layer microbenches ([`micro`]); [`compare`] judges a
//! change against its parent from alternating runs. See `README.md`.

pub mod alloc;
pub mod bench;
pub mod check;
pub mod compare;
pub mod json;
pub mod metrics;
pub mod micro;
pub mod pass;
pub mod trace;
pub mod workloads;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;
