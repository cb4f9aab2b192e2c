//! Batched-versus-scalar parity for the four quick reports the deleted
//! scalar-reference arm (binary-heap engine loop, per-message agreement,
//! no Compute coalescing) used to be diffed against.
//!
//! That arm is gone; its output survives as the digests in
//! `golden_reports.txt`, which were generated while both arms still
//! existed and gave the same bytes for every entry. Matching them is the
//! same byte-for-byte claim these tests always made: the batched engine
//! renders exactly the report the scalar reference rendered.

mod golden;

use golden::{bench_entry, check, preset_entry};

#[test]
fn delta_n_quick_sweep_is_byte_identical_batched_vs_scalar() {
    check(vec![preset_entry("delta-n")]);
}

#[test]
fn packet_storm_quick_bench_is_byte_identical_batched_vs_scalar() {
    // The packet-dense hot path: cached packet identity, coalesced guest
    // computes, and the batched egress vote all run here. Any elided or
    // reordered event would shift `events_executed` and move the digests.
    check(vec![bench_entry("packet-storm")]);
}

#[test]
fn cache_storm_quick_bench_is_byte_identical_batched_vs_scalar() {
    // PRIME+PROBE rounds queue long compute runs between cache probes —
    // the densest Compute-coalescing traffic of any preset.
    check(vec![bench_entry("cache-storm")]);
}

#[test]
fn timer_channel_quick_sweep_is_byte_identical_batched_vs_scalar() {
    // The timer channel adds the vCPU-scheduler and virtual-timer paths
    // (cancellations, re-targeted hardware events) on top of delta-n's
    // packet flow — the cases where a cancelled event's queue entry,
    // still advancing time after its event is gone, could diverge.
    check(vec![preset_entry("timer-channel")]);
}
