//! What a guest slot counts: one [`SlotCounter`] row per counter, each
//! report name written once, in [`SlotCounter::NAMES`]. DESIGN.md
//! "Counters" says what increments each row and when a report shows it.

use crate::channel::ChannelKind;
use std::ops::{AddAssign, Index, IndexMut};

/// A slot counter, declared in name order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotCounter {
    CacheHits,
    CacheIrq,
    CacheMisses,
    CacheProbes,
    DdViolations,
    DiskIrq,
    DtViolations,
    NetIrq,
    SchedPreemptions,
    Stalls,
    SyncViolations,
    TimerArms,
    VtimerIrq,
}

impl SlotCounter {
    /// Report names, indexed by `SlotCounter as usize`.
    pub const NAMES: [&'static str; 13] = [
        "cache_hits",
        "cache_irq",
        "cache_misses",
        "cache_probes",
        "dd_violations",
        "disk_irq",
        "dt_violations",
        "net_irq",
        "sched_preemptions",
        "stalls",
        "sync_violations",
        "timer_arms",
        "vtimer_irq",
    ];

    /// The counter of interrupts injected on `kind`.
    pub fn irq(kind: ChannelKind) -> Self {
        match kind {
            ChannelKind::Net => SlotCounter::NetIrq,
            ChannelKind::Cache => SlotCounter::CacheIrq,
            ChannelKind::Disk => SlotCounter::DiskIrq,
            ChannelKind::Timer => SlotCounter::VtimerIrq,
        }
    }
}

/// One count per [`SlotCounter`], indexed by it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SlotCounts([u64; SlotCounter::NAMES.len()]);

impl SlotCounts {
    /// `(name, count)` for every row, zero or not, in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        SlotCounter::NAMES.into_iter().zip(self.0.iter().copied())
    }
}

impl Index<SlotCounter> for SlotCounts {
    type Output = u64;
    fn index(&self, counter: SlotCounter) -> &u64 {
        &self.0[counter as usize]
    }
}

impl IndexMut<SlotCounter> for SlotCounts {
    fn index_mut(&mut self, counter: SlotCounter) -> &mut u64 {
        &mut self.0[counter as usize]
    }
}

impl AddAssign<&SlotCounts> for SlotCounts {
    fn add_assign(&mut self, other: &SlotCounts) {
        for (t, c) in self.0.iter_mut().zip(other.0) {
            *t += c;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_sorted_and_follow_the_variants() {
        use SlotCounter::*;
        let all = [
            CacheHits,
            CacheIrq,
            CacheMisses,
            CacheProbes,
            DdViolations,
            DiskIrq,
            DtViolations,
            NetIrq,
            SchedPreemptions,
            Stalls,
            SyncViolations,
            TimerArms,
            VtimerIrq,
        ];
        assert_eq!(all.len(), SlotCounter::NAMES.len());
        assert!(SlotCounter::NAMES.windows(2).all(|w| w[0] < w[1]));
        for (i, c) in all.into_iter().enumerate() {
            assert_eq!(c as usize, i);
            let name = SlotCounter::NAMES[i];
            assert_eq!(format!("{c:?}").to_lowercase(), name.replace('_', ""));
        }
    }
}
