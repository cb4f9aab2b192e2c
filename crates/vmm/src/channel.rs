//! The unified timing-channel core.
//!
//! StopWatch's central claim (paper Secs. V–VI) is that *every* timing
//! channel an attacker can observe — network interrupts, cache-probe
//! readouts, disk/DMA completions, timer fires — must be delivered at
//! replica-agreed times; a channel mitigated ad hoc (or forgotten) leaks
//! on its own. This module is the joint that makes that a structural
//! property rather than a per-channel copy of the agreement machinery:
//!
//! * [`ChannelKind`] names each timing channel the VMM mediates. Every
//!   kind flows through **one** pending table, **one** early-proposal
//!   buffer, and **one** replica-median agreement path in
//!   [`crate::slot::GuestSlot`], and **one** PGM demux in the cloud
//!   layer. Adding a fifth channel (trace replay, a collaborating
//!   attacker's probe stream, ...) is a new kind plus a delivery hook —
//!   not another fork of `slot.rs`.
//! * What differs per channel and is the same in every configuration is
//!   a [`ChannelKind`] method: the **synchrony clamp**
//!   ([`ChannelKind::clamp_counter`]), whether early peer proposals are
//!   buffered ([`ChannelKind::buffers_early`]), whether delivery is fixed
//!   on a median-determining majority
//!   ([`ChannelKind::fixes_on_majority`]), and which counter records a
//!   local overrun of the release bound
//!   ([`ChannelKind::overrun_counter`]). The one configured part, the
//!   proposal offset (Δn, Δd, Δt; zero for cache), lives in
//!   [`crate::defense::DefenseMode::StopWatch`] and is read through
//!   [`crate::defense::DefenseMode::offset`].
//!
//! # Why the clamp differs per channel
//!
//! Network packets arrive from *outside* the replica set; the agreed
//! median lying in the past means the synchrony assumption broke (paper
//! footnote 4) — the packet is delivered "now", diverging this replica,
//! and `sync_violations` records it. Cache probes, disk completions and
//! timer fires are *guest-initiated*: the guest blocks on them, so an
//! agreed timestamp behind the physical clock projection is routine (the
//! interrupt simply fires at the next exit) and the guest-visible value
//! stays a pure function of agreed values on every replica. Clamping
//! those to per-replica "now" would be the divergence, not the cure.

use crate::counter::SlotCounter;

/// A timing channel mediated by the VMM: the kinds of interrupt whose
/// delivery times replicas agree on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ChannelKind {
    /// Inbound network packets (Sec. V-B: Δn proposals, median delivery).
    Net,
    /// Shared-LLC probe readouts (the Sec. III coresidency channel).
    Cache,
    /// Disk/DMA completions (Sec. V-A: Δd release times, now agreed).
    Disk,
    /// Guest-programmed virtual-timer fires and preemption-slice
    /// boundaries (Sec. V-C: Δt release times proposed by the vCPU
    /// scheduler, median-delivered like every other interrupt).
    Timer,
}

impl ChannelKind {
    /// Every channel kind, in wire-id order.
    pub const ALL: [ChannelKind; 4] = [
        ChannelKind::Net,
        ChannelKind::Cache,
        ChannelKind::Disk,
        ChannelKind::Timer,
    ];

    /// Stable wire identifier (PGM proposal messages carry it).
    pub fn id(self) -> u8 {
        match self {
            ChannelKind::Net => 0,
            ChannelKind::Cache => 1,
            ChannelKind::Disk => 2,
            ChannelKind::Timer => 3,
        }
    }

    /// Human-readable name (used by `swbench describe`).
    pub fn name(self) -> &'static str {
        match self {
            ChannelKind::Net => "net",
            ChannelKind::Cache => "cache",
            ChannelKind::Disk => "disk",
            ChannelKind::Timer => "timer",
        }
    }

    /// Injection tiebreak rank. Interrupts due at the same exit are
    /// injected ordered by `(delivery virt, rank, id)`; the ranks keep the
    /// pre-unification order (timer 0, disk 1, net 2, cache 3) so event
    /// traces stay byte-identical with the per-kind implementation this
    /// replaced. Rank 0 — held in reserve for the legacy PIT class since
    /// the unification — now belongs to the real timer channel; the PIT
    /// tick itself sorts *before* same-instant channel interrupts because
    /// its candidate key carries no kind (`None < Some(_)`), so the legacy
    /// traces are unchanged.
    pub(crate) fn injection_rank(self) -> u8 {
        match self {
            ChannelKind::Timer => 0,
            ChannelKind::Disk => 1,
            ChannelKind::Net => 2,
            ChannelKind::Cache => 3,
        }
    }

    /// When the agreed median already passed in this replica's virtual
    /// time: `Some(counter)` clamps delivery to "now" and bumps that
    /// slot counter (network packets — synchrony violation, footnote 4);
    /// `None` keeps the agreed time so delivery fires at the next exit and
    /// the readout stays replica-identical (see the module docs).
    pub fn clamp_counter(self) -> Option<SlotCounter> {
        match self {
            ChannelKind::Net => Some(SlotCounter::SyncViolations),
            ChannelKind::Cache | ChannelKind::Disk | ChannelKind::Timer => None,
        }
    }

    /// Whether a peer proposal arriving before this replica opened the
    /// matching pending entry is buffered until the local open. `true`
    /// for guest-initiated channels (cache, disk, timer): the local open
    /// is guaranteed by replica determinism, so dropping the proposal
    /// would deadlock the agreement. `false` for externally created
    /// entries (net): the packet copy that opens the entry can be lost on
    /// a lossy fabric, and buffering for an open that never comes would
    /// leak the buffer entry forever.
    pub fn buffers_early(self) -> bool {
        self != ChannelKind::Net
    }

    /// Whether delivery is fixed as soon as the proposals received so far
    /// *determine* the median (no assignment of the missing proposals can
    /// change it — e.g. two equal proposals out of three). `true` for the
    /// timer channel: its proposals are virtual-time-gated, so a replica
    /// lagging in physical time (a contended host) sends its proposal
    /// late in *wall-clock* terms; waiting for it would gate the fast
    /// replicas' next hardware fires on the slowest host and compound the
    /// lag into ever-later medians. `false` for the physically-gated
    /// channels (net/disk arrivals, cache exits), whose proposals reach
    /// every replica promptly regardless of virtual-time skew.
    pub fn fixes_on_majority(self) -> bool {
        self == ChannelKind::Timer
    }

    /// The slot counter that records a StopWatch proposal past its
    /// release bound `anchor + Δ`: the local device overran an offset
    /// sized too small (paper Sec. V-A). Disk and timer only: a cache
    /// probe's offset is zero by design, and a packet has no anchor.
    pub fn overrun_counter(self) -> Option<SlotCounter> {
        match self {
            ChannelKind::Disk => Some(SlotCounter::DdViolations),
            ChannelKind::Timer => Some(SlotCounter::DtViolations),
            ChannelKind::Net | ChannelKind::Cache => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::time::VirtOffset;

    #[test]
    fn wire_ids_are_stable_and_distinct() {
        let ids: Vec<u8> = ChannelKind::ALL.iter().map(|k| k.id()).collect();
        assert_eq!(ids, vec![0, 1, 2, 3]);
        let names: Vec<&str> = ChannelKind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(names, vec!["net", "cache", "disk", "timer"]);
    }

    #[test]
    fn stopwatch_policies_route_offsets_per_channel() {
        use crate::defense::DefenseMode;
        let mode = DefenseMode::StopWatch {
            delta_n: VirtOffset::from_millis(10),
            delta_d: VirtOffset::from_millis(12),
            delta_t: VirtOffset::from_millis(8),
            replicas: 3,
        };
        let offset = |kind| mode.offset(kind).expect("StopWatch offset");
        assert_eq!(offset(ChannelKind::Net).as_millis_f64(), 10.0);
        assert_eq!(offset(ChannelKind::Disk).as_millis_f64(), 12.0);
        assert_eq!(offset(ChannelKind::Timer).as_millis_f64(), 8.0);
        assert_eq!(offset(ChannelKind::Cache).as_nanos(), 0);
        // A local arm proposes nothing, so it has no offset.
        for kind in ChannelKind::ALL {
            assert_eq!(DefenseMode::baseline().offset(kind), None);
        }
        assert_eq!(
            ChannelKind::Net.clamp_counter(),
            Some(SlotCounter::SyncViolations)
        );
        assert_eq!(ChannelKind::Cache.clamp_counter(), None);
        assert_eq!(ChannelKind::Disk.clamp_counter(), None);
        assert_eq!(ChannelKind::Timer.clamp_counter(), None);
        // Guest-initiated channels buffer early peers (the local open is
        // guaranteed); externally opened net entries do not.
        assert!(!ChannelKind::Net.buffers_early());
        assert!(ChannelKind::Cache.buffers_early());
        assert!(ChannelKind::Disk.buffers_early());
        assert!(ChannelKind::Timer.buffers_early());
        // Only the virtual-time-gated timer channel fixes delivery on a
        // median-determining majority; the physically-gated channels wait
        // for the full proposal set so their traces are unchanged.
        assert!(!ChannelKind::Net.fixes_on_majority());
        assert!(!ChannelKind::Cache.fixes_on_majority());
        assert!(!ChannelKind::Disk.fixes_on_majority());
        assert!(ChannelKind::Timer.fixes_on_majority());
        // Only the anchored channels with a configured offset count an
        // overrun of their release bound.
        assert_eq!(ChannelKind::Net.overrun_counter(), None);
        assert_eq!(ChannelKind::Cache.overrun_counter(), None);
        assert_eq!(
            ChannelKind::Disk.overrun_counter(),
            Some(SlotCounter::DdViolations)
        );
        assert_eq!(
            ChannelKind::Timer.overrun_counter(),
            Some(SlotCounter::DtViolations)
        );
    }

    #[test]
    fn injection_ranks_preserve_the_legacy_order() {
        assert!(ChannelKind::Timer.injection_rank() < ChannelKind::Disk.injection_rank());
        assert!(ChannelKind::Disk.injection_rank() < ChannelKind::Net.injection_rank());
        assert!(ChannelKind::Net.injection_rank() < ChannelKind::Cache.injection_rank());
    }

    #[test]
    fn timer_owns_the_legacy_rank_zero() {
        // Satellite: the rank the unification reserved for the PIT class
        // now belongs to the real timer channel. The PIT tick still sorts
        // first among same-instant candidates because its key carries
        // `None` where channel interrupts carry `Some(kind)`.
        assert_eq!(ChannelKind::Timer.injection_rank(), 0);
        assert!(None::<ChannelKind> < Some(ChannelKind::Timer));
    }
}
