//! Hierarchical time-wheel backing the batched event queue.
//!
//! The batched run loop's access pattern is "pop every event at the next
//! timestamp, then jump there": a classic hierarchical timing wheel serves
//! it with O(1) inserts and per-*batch* (not per-event) advancement, where
//! a binary heap pays a log-depth sift per event. Layout:
//!
//! * [`LEVELS`] levels of 64 slots each; level 0 slots are 2^12 ns
//!   (~4.1 µs) wide and each level's slots are 64× the previous, so the
//!   wheel spans 2^36 ns (~68.7 s) ahead of the cursor. Events beyond the
//!   span wait in an unsorted overflow list (far-future deadlines are rare
//!   and re-home when the cursor crosses a top-level window).
//! * Slots are indexed by the *absolute* time bits of the level, and an
//!   event is filed at the lowest level whose next-coarser slot it shares
//!   with the cursor. That alignment makes every occupancy scan a simple
//!   mask-and-`trailing_zeros` with no ring wraparound.
//! * Bucket vectors are pooled: level-0 buckets trade vectors with the
//!   sorted *active* bucket via `swap`, and a cascade empties an upper
//!   bucket through one scratch buffer that keeps its own capacity, so
//!   a steady-state run performs no queue allocations at all.
//!
//! Exactness: the wheel reproduces a binary heap's `(at, seq)` total order
//! bit-for-bit. A drained bucket is sorted by `(at, seq)` before delivery,
//! and [`Wheel::next_at`] is read-only so probing the queue (e.g. against
//! a `run_until` deadline) commits nothing. Cursor movement — and thus
//! cascading — happens only in [`Wheel::drain_at`], once the engine has
//! committed to executing that timestamp. The `engine_wheel` proptests
//! pin the engine's order against a model binary heap.

const SLOT_BITS: u32 = 6;
const SLOTS: usize = 1 << SLOT_BITS; // 64 slots per level
const LEVELS: usize = 4;
/// Level-0 slot width exponent: 2^12 ns ≈ 4.1 µs.
const L0_SHIFT: u32 = 12;
/// Everything at or beyond 2^36 ns (~68.7 s) past the cursor overflows.
const TOP_SHIFT: u32 = L0_SHIFT + (LEVELS as u32) * SLOT_BITS;

#[inline]
fn level_shift(level: usize) -> u32 {
    L0_SHIFT + (level as u32) * SLOT_BITS
}

#[inline]
fn slot_index(at: u64, level: usize) -> usize {
    ((at >> level_shift(level)) & (SLOTS as u64 - 1)) as usize
}

/// One queued event: absolute nanosecond deadline, scheduling sequence
/// number (the FIFO tiebreak), and the caller's payload.
pub(crate) struct Entry<T> {
    pub at: u64,
    pub seq: u64,
    pub item: T,
}

pub(crate) struct Wheel<T> {
    /// Cursor: the last committed timestamp. Invariant: `cur` never
    /// exceeds the engine's `now`, and every stored entry has `at >= cur`.
    cur: u64,
    len: usize,
    /// Per-level slot-occupancy bitmaps.
    occ: [u64; LEVELS],
    /// `LEVELS * SLOTS` bucket vectors (level-major).
    buckets: Vec<Vec<Entry<T>>>,
    /// The opened earliest bucket, sorted *descending* by `(at, seq)` so
    /// pops from the back deliver ascending order.
    active: Vec<Entry<T>>,
    /// `at >> L0_SHIFT` of the open bucket; `None` iff `active` is empty.
    active_slot: Option<u64>,
    /// Entries beyond the wheel span, unsorted.
    overflow: Vec<Entry<T>>,
    /// Cascade scratch: upper-level entries pass through it on the way
    /// down.
    scratch: Vec<Entry<T>>,
}

impl<T> Wheel<T> {
    pub fn new() -> Self {
        Wheel {
            cur: 0,
            len: 0,
            occ: [0; LEVELS],
            buckets: (0..LEVELS * SLOTS).map(|_| Vec::new()).collect(),
            active: Vec::new(),
            active_slot: None,
            overflow: Vec::new(),
            scratch: Vec::new(),
        }
    }

    /// Entries stored (cancellation tombstones included).
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn insert(&mut self, at: u64, seq: u64, item: T) {
        debug_assert!(at >= self.cur, "insert behind the wheel cursor");
        self.len += 1;
        if let Some(key) = self.active_slot {
            debug_assert!(at >> L0_SHIFT >= key, "insert before the open bucket");
            if at >> L0_SHIFT == key {
                // The open bucket's slot: merge in sorted (descending)
                // position so the drain order stays exact.
                let pos = self.active.partition_point(|e| (e.at, e.seq) > (at, seq));
                self.active.insert(pos, Entry { at, seq, item });
                return;
            }
        }
        self.insert_raw(Entry { at, seq, item });
    }

    /// Files an entry relative to the current cursor without touching the
    /// active bucket or the length counter.
    fn insert_raw(&mut self, e: Entry<T>) {
        let x = e.at ^ self.cur;
        if x >> TOP_SHIFT != 0 {
            self.overflow.push(e);
            return;
        }
        // The lowest level whose parent slot the entry shares with the
        // cursor — derived from the highest differing time bit.
        let msb = 63u32.saturating_sub(x.leading_zeros());
        let level = (msb.saturating_sub(L0_SHIFT) / SLOT_BITS) as usize;
        let idx = slot_index(e.at, level);
        self.occ[level] |= 1u64 << idx;
        self.buckets[level * SLOTS + idx].push(e);
    }

    /// The earliest stored deadline. Read-only: no cursor movement, no
    /// cascading — safe to call for deadline probes that never commit.
    pub fn next_at(&self) -> Option<u64> {
        if let Some(e) = self.active.last() {
            return Some(e.at);
        }
        let c0 = slot_index(self.cur, 0);
        let m = self.occ[0] & (!0u64 << c0);
        if m != 0 {
            let i = m.trailing_zeros() as usize;
            return bucket_min(&self.buckets[i]);
        }
        for level in 1..LEVELS {
            // The cursor's own slot at level >= 1 is always empty (its
            // contents live at lower levels), so scan strictly after it.
            let cl = slot_index(self.cur, level);
            let m = self.occ[level] & ((!0u64 << cl) << 1);
            if m != 0 {
                let i = m.trailing_zeros() as usize;
                return bucket_min(&self.buckets[level * SLOTS + i]);
            }
        }
        self.overflow.iter().map(|e| e.at).min()
    }

    /// Pops every entry with deadline exactly `t` — which must be the
    /// value [`Wheel::next_at`] returned — into `sink` in `seq` order,
    /// advancing the cursor (and cascading higher levels) as needed.
    pub fn drain_at(&mut self, t: u64, sink: &mut impl FnMut(u64, T)) {
        debug_assert!(t >= self.cur, "drain behind the wheel cursor");
        if (t >> TOP_SHIFT) != (self.cur >> TOP_SHIFT) {
            // Crossing a top-level window: every in-window bucket is empty
            // (t is the global minimum), so jump the cursor and re-home
            // the overflow list against it.
            debug_assert!(self.active.is_empty());
            self.cur = t;
            let mut ovf = std::mem::take(&mut self.overflow);
            for e in ovf.drain(..) {
                self.insert_raw(e);
            }
            // Hand the drained vector's capacity back.
            if self.overflow.capacity() == 0 {
                self.overflow = ovf;
            }
        }
        if self.active_slot == Some(t >> L0_SHIFT) {
            self.cur = t;
            self.pop_active_matching(t, sink);
            return;
        }
        self.close_active();
        loop {
            let c0 = slot_index(self.cur, 0);
            let m = self.occ[0] & (!0u64 << c0);
            if m != 0 {
                let i = m.trailing_zeros() as usize;
                self.occ[0] &= !(1u64 << i);
                debug_assert!(self.active.is_empty());
                std::mem::swap(&mut self.buckets[i], &mut self.active);
                self.active
                    .sort_unstable_by_key(|e| std::cmp::Reverse((e.at, e.seq)));
                let min = self.active.last().expect("occupied bucket is non-empty");
                debug_assert_eq!(min.at, t, "drain_at must be given the minimum");
                self.active_slot = Some(min.at >> L0_SHIFT);
                self.cur = t;
                self.pop_active_matching(t, sink);
                return;
            }
            let mut cascaded = false;
            for level in 1..LEVELS {
                let cl = slot_index(self.cur, level);
                let m = self.occ[level] & ((!0u64 << cl) << 1);
                if m != 0 {
                    let j = m.trailing_zeros() as usize;
                    self.occ[level] &= !(1u64 << j);
                    let shift = level_shift(level);
                    let parent_mask = !((1u64 << (shift + SLOT_BITS)) - 1);
                    let slot_start = (self.cur & parent_mask) | ((j as u64) << shift);
                    debug_assert!(slot_start > self.cur && slot_start <= t);
                    self.cur = slot_start;
                    // Move the entries out but leave the bucket its
                    // capacity: a swap would hand it the scratch vector
                    // instead, and capacities would keep migrating
                    // between rarely visited upper-level slots.
                    let mut scratch = std::mem::take(&mut self.scratch);
                    scratch.append(&mut self.buckets[level * SLOTS + j]);
                    for e in scratch.drain(..) {
                        self.insert_raw(e);
                    }
                    self.scratch = scratch;
                    cascaded = true;
                    break;
                }
            }
            if !cascaded {
                // Only the overflow can still hold t (defensive: the
                // top-window branch above normally re-homed it already).
                debug_assert!(!self.overflow.is_empty());
                self.cur = t;
                let mut ovf = std::mem::take(&mut self.overflow);
                for e in ovf.drain(..) {
                    self.insert_raw(e);
                }
                if self.overflow.capacity() == 0 {
                    self.overflow = ovf;
                }
            }
        }
    }

    fn pop_active_matching(&mut self, t: u64, sink: &mut impl FnMut(u64, T)) {
        while self.active.last().is_some_and(|e| e.at == t) {
            let e = self.active.pop().expect("just observed an entry");
            self.len -= 1;
            sink(e.seq, e.item);
        }
        if self.active.is_empty() {
            self.active_slot = None;
        }
    }

    /// Returns the open bucket's remaining entries to their slot.
    fn close_active(&mut self) {
        let Some(key) = self.active_slot.take() else {
            return;
        };
        if self.active.is_empty() {
            return;
        }
        let i = (key & (SLOTS as u64 - 1)) as usize;
        self.occ[0] |= 1u64 << i;
        if self.buckets[i].is_empty() {
            std::mem::swap(&mut self.buckets[i], &mut self.active);
        } else {
            self.buckets[i].append(&mut self.active);
        }
    }
}

fn bucket_min<T>(bucket: &[Entry<T>]) -> Option<u64> {
    bucket.iter().map(|e| e.at).min()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain_next<T>(w: &mut Wheel<T>) -> Option<(u64, Vec<(u64, T)>)> {
        let t = w.next_at()?;
        let mut out = Vec::new();
        w.drain_at(t, &mut |seq, item| out.push((seq, item)));
        Some((t, out))
    }

    #[test]
    fn delivers_in_time_then_seq_order() {
        let mut w: Wheel<u32> = Wheel::new();
        w.insert(50, 2, 2);
        w.insert(10, 0, 0);
        w.insert(50, 1, 1);
        assert_eq!(w.len(), 3);
        assert_eq!(drain_next(&mut w), Some((10, vec![(0, 0)])));
        assert_eq!(drain_next(&mut w), Some((50, vec![(1, 1), (2, 2)])));
        assert_eq!(drain_next(&mut w), None);
        assert_eq!(w.len(), 0);
    }

    #[test]
    fn same_slot_burst_stays_fifo() {
        let mut w: Wheel<u32> = Wheel::new();
        // All inside one level-0 slot (4.1 µs), several distinct times.
        for seq in 0..100u64 {
            w.insert(1000 + (seq % 3) * 7, seq, seq as u32);
        }
        let mut got = Vec::new();
        while let Some((t, batch)) = drain_next(&mut w) {
            for (seq, _) in batch {
                got.push((t, seq));
            }
        }
        let mut want = got.clone();
        want.sort_unstable();
        assert_eq!(got, want, "ascending (at, seq) order");
        assert_eq!(got.len(), 100);
    }

    #[test]
    fn far_future_deadlines_cross_every_level_and_overflow() {
        let mut w: Wheel<u64> = Wheel::new();
        // One event per level span plus one beyond the wheel (overflow).
        let ats = [
            1u64 << 10,
            1 << 20,
            1 << 26,
            1 << 32,
            1 << 40, // overflow: >= 2^36
            (1 << 40) + 5,
        ];
        for (seq, &at) in ats.iter().enumerate() {
            w.insert(at, seq as u64, at);
        }
        let mut got = Vec::new();
        while let Some((t, batch)) = drain_next(&mut w) {
            for (_, item) in batch {
                assert_eq!(item, t);
                got.push(t);
            }
        }
        let mut want = ats.to_vec();
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn inserts_between_drains_keep_order() {
        let mut w: Wheel<u32> = Wheel::new();
        w.insert(100, 0, 0);
        w.insert(5_000_000, 1, 1);
        assert_eq!(drain_next(&mut w).unwrap().0, 100);
        // New work lands between the cursor and the far event — including
        // inside the (now empty) active slot and in higher levels.
        w.insert(101, 2, 2);
        w.insert(70_000, 3, 3);
        assert_eq!(drain_next(&mut w), Some((101, vec![(2, 2)])));
        assert_eq!(drain_next(&mut w), Some((70_000, vec![(3, 3)])));
        assert_eq!(drain_next(&mut w), Some((5_000_000, vec![(1, 1)])));
    }

    #[test]
    fn next_at_is_read_only() {
        let mut w: Wheel<u32> = Wheel::new();
        w.insert(1 << 30, 0, 0);
        for _ in 0..3 {
            assert_eq!(w.next_at(), Some(1 << 30));
        }
        // A later insert at an earlier time must still surface first.
        w.insert(1 << 14, 1, 1);
        assert_eq!(w.next_at(), Some(1 << 14));
        assert_eq!(drain_next(&mut w), Some((1 << 14, vec![(1, 1)])));
        assert_eq!(drain_next(&mut w), Some((1 << 30, vec![(0, 0)])));
    }

    #[test]
    fn overflow_rehomes_on_window_crossings() {
        let mut w: Wheel<u64> = Wheel::new();
        let far = (1u64 << 36) + 123; // just past the first top window
        let farther = (1u64 << 37) + 7;
        w.insert(far, 0, far);
        w.insert(farther, 1, farther);
        w.insert(50, 2, 50);
        assert_eq!(drain_next(&mut w).unwrap().0, 50);
        assert_eq!(drain_next(&mut w).unwrap().0, far);
        // After crossing, nearer work still beats the remaining overflow.
        w.insert(far + 10, 3, far + 10);
        assert_eq!(drain_next(&mut w).unwrap().0, far + 10);
        assert_eq!(drain_next(&mut w).unwrap().0, farther);
        assert_eq!(w.len(), 0);
    }
}
