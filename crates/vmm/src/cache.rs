//! A shared last-level cache model — the substrate of the coresidency
//! channel (paper Sec. III).
//!
//! Each host record of the cloud (`stopwatch_core::cloud`) holds one
//! [`CacheModel`], which the cloud hands every guest slot on that host
//! when the slot boots or runs. Its lines are allocated at the first
//! touch, so a host whose guests never touch the LLC holds none. It is a
//! set/way-indexed line array with
//! **deterministic LRU eviction** (ties broken by way index), per-owner
//! occupancy accounting, and a probe-latency readout (hit vs. miss). The
//! model is driven purely by the access sequence, so a scenario replays
//! byte-identically; cross-replica divergence enters only through *which
//! guests* share each host — exactly the physical asymmetry a PRIME+PROBE
//! attacker senses and StopWatch's replica-median readout hides.
//!
//! The latencies are cycle-scale constants rendered in virtual
//! nanoseconds: a probe that hits costs [`CacheModel::HIT_NS`], a miss
//! costs [`CacheModel::MISS_NS`] (an LLC hit vs. a DRAM fill on the
//! testbed's 3 GHz parts). What a guest *observes* is not this local
//! number but the delivery timestamp of its probe completion — under
//! StopWatch, the median over the replicas' proposals (the unified
//! `GuestSlot::add_proposals` timing-channel core), the same machinery
//! that medians network and disk timestamps.

/// One cache line: who installed it, which tag, and when it was last
/// touched (logical LRU tick, not wall time).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct CacheLine {
    owner: u64,
    tag: u64,
    last_used: u64,
    valid: bool,
}

const EMPTY: CacheLine = CacheLine {
    owner: 0,
    tag: 0,
    last_used: 0,
    valid: false,
};

/// A set/way-indexed shared cache with deterministic LRU eviction.
#[derive(Debug, Clone)]
pub struct CacheModel {
    sets: u64,
    ways: usize,
    /// `sets × ways` lines once anything touched the cache, empty before.
    lines: Vec<CacheLine>,
    tick: u64,
}

impl CacheModel {
    /// Probe latency of a resident line, virtual nanoseconds (LLC hit).
    pub const HIT_NS: u64 = 40;
    /// Probe latency of an evicted line, virtual nanoseconds (DRAM fill).
    pub const MISS_NS: u64 = 400;

    /// A cache of `sets` sets with `ways` ways each.
    ///
    /// # Panics
    ///
    /// Panics on a zero set or way count.
    pub fn new(sets: u64, ways: usize) -> Self {
        assert!(sets > 0, "cache needs at least one set");
        assert!(ways > 0, "cache needs at least one way");
        CacheModel {
            sets,
            ways,
            lines: Vec::new(),
            tick: 0,
        }
    }

    /// Touches line `(owner, tag)` in `set` (indices wrap modulo the set
    /// count): a hit refreshes the line's LRU position and returns `true`;
    /// a miss evicts the least-recently-used line of the set (ties broken
    /// by lowest way index — deterministic) and installs the new one.
    pub fn touch(&mut self, owner: u64, set: u64, tag: u64) -> bool {
        if self.lines.is_empty() {
            self.lines = vec![EMPTY; self.sets as usize * self.ways];
        }
        self.tick += 1;
        let base = (set % self.sets) as usize * self.ways;
        let ways = &mut self.lines[base..base + self.ways];
        if let Some(line) = ways
            .iter_mut()
            .find(|l| l.valid && l.owner == owner && l.tag == tag)
        {
            line.last_used = self.tick;
            return true;
        }
        // Miss: fill an invalid way first, else evict the LRU way. The
        // scan order makes the victim choice a pure function of the
        // access history.
        let victim = ways
            .iter()
            .enumerate()
            .min_by_key(|(i, l)| (l.valid, l.last_used, *i))
            .map(|(i, _)| i)
            .expect("ways > 0");
        ways[victim] = CacheLine {
            owner,
            tag,
            last_used: self.tick,
            valid: true,
        };
        false
    }

    /// Probes line `(owner, tag)` in `set`: the readout latency in
    /// virtual nanoseconds ([`CacheModel::HIT_NS`] if the line was
    /// resident, [`CacheModel::MISS_NS`] otherwise). Probing reloads the
    /// line, as a real PRIME+PROBE access does.
    pub fn probe(&mut self, owner: u64, set: u64, tag: u64) -> u64 {
        if self.touch(owner, set, tag) {
            CacheModel::HIT_NS
        } else {
            CacheModel::MISS_NS
        }
    }

    /// Lines currently held by `owner` across the whole cache.
    pub fn occupancy(&self, owner: u64) -> usize {
        self.lines
            .iter()
            .filter(|l| l.valid && l.owner == owner)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fills_invalid_ways_before_evicting() {
        let mut c = CacheModel::new(4, 2);
        assert!(c.lines.is_empty(), "no line before the first touch");
        assert!(!c.touch(1, 0, 10), "cold cache misses");
        assert!(!c.touch(1, 0, 11));
        assert!(c.touch(1, 0, 10), "both lines resident");
        assert!(c.touch(1, 0, 11));
        assert_eq!(c.occupancy(1), 2);
    }

    #[test]
    fn lru_eviction_is_deterministic() {
        let mut c = CacheModel::new(1, 2);
        c.touch(1, 0, 10); // way 0
        c.touch(1, 0, 11); // way 1
        c.touch(1, 0, 10); // refresh 10; 11 is now LRU
        assert!(!c.touch(2, 0, 99), "install evicts LRU");
        assert!(c.touch(1, 0, 10), "MRU line survives");
        assert!(!c.touch(1, 0, 11), "LRU line was the victim");
    }

    #[test]
    fn distinct_owners_with_equal_tags_do_not_alias() {
        let mut c = CacheModel::new(2, 2);
        assert!(!c.touch(1, 0, 7));
        assert!(!c.touch(2, 0, 7), "other owner's line is not a hit");
        assert!(c.touch(1, 0, 7));
        assert_eq!(c.occupancy(1), 1);
        assert_eq!(c.occupancy(2), 1);
    }

    #[test]
    fn probe_latency_reads_hit_vs_miss() {
        let mut c = CacheModel::new(2, 1);
        assert_eq!(c.probe(1, 0, 5), CacheModel::MISS_NS, "cold");
        assert_eq!(c.probe(1, 0, 5), CacheModel::HIT_NS, "resident");
        c.touch(2, 0, 6); // one-way set: evicts owner 1
        assert_eq!(c.probe(1, 0, 5), CacheModel::MISS_NS, "evicted");
    }

    #[test]
    fn set_indices_wrap() {
        let mut c = CacheModel::new(4, 1);
        c.touch(1, 9, 3); // lands in set 1
        assert!(c.touch(1, 1, 3));
        assert_eq!(c.occupancy(1), 1);
    }

    #[test]
    fn identical_access_sequences_reach_identical_state() {
        let run = || {
            let mut c = CacheModel::new(8, 2);
            let mut hits = Vec::new();
            for i in 0..200u64 {
                hits.push(c.touch(i % 3, i * 7, i % 5));
            }
            (hits, c.occupancy(0), c.occupancy(1), c.occupancy(2))
        };
        assert_eq!(run(), run(), "replay is byte-identical");
    }

    #[test]
    #[should_panic(expected = "at least one set")]
    fn zero_sets_rejected() {
        CacheModel::new(0, 1);
    }
}
