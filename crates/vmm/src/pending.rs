//! Struct-of-arrays storage for the unified channel core's pending table.
//!
//! Every timing channel's in-flight events share one table (see
//! [`crate::channel`]). The agreement hot path touches it in two very
//! different ways:
//!
//! * **Due queries** — the slot's one step query (which both `process`
//!   and `next_wake` go through) asks for the earliest injectable entry
//!   after nearly every guest action. An ordered **due-index** answers
//!   it: a `BTreeSet` of
//!   `(injection branch, delivery virt, class rank, id, kind)` holding
//!   exactly the rows whose delivery is fixed and whose data is ready,
//!   so the query reads the set's first element instead of scanning
//!   every live row. The three mutators that can make a row injectable or
//!   retire it — `set_deliver`, `set_ready`, `remove` — keep the index in
//!   step with the columns.
//! * **Point updates** — opening an entry, pushing a proposal, fixing a
//!   delivery, injecting. An `FxHashMap` keyed by `(kind, seq)` resolves
//!   to a row index; freed rows are recycled through a free list, so a
//!   steady-state run reuses its rows instead of growing the columns.
//!
//! Proposal buffers are **interned**: all rows share one arena, each row
//! owning a fixed-stride segment sized to the replica count, so a
//! proposal push is a bounds-checked store — no per-entry `Vec`. The
//! median is selected in place over the row's segment when the set
//! completes.
//!
//! The injection branch of a fixed delivery — `exit_ceil(instr_for(d))`,
//! two float operations — is computed **once**, when the delivery is
//! fixed, and cached in the `inj_branch` column (and in the row's
//! due-index key). The slot's clock and exit quantum never change after
//! construction, so the cache cannot go stale.

use std::collections::BTreeSet;

use crate::channel::ChannelKind;
use netsim::packet::Packet;
use simkit::fxhash::FxHashMap;
use simkit::time::{VirtNanos, VirtOffset};
use storage::block::BlockRange;
use storage::device::DiskOp;

/// What a pending channel event delivers when it is injected. The
/// agreement machinery is payload-agnostic; only injection dispatches on
/// the concrete content.
#[derive(Debug, Clone)]
pub(crate) enum ChannelPayload {
    /// A hidden inbound packet.
    Net {
        /// The packet, hidden from the guest until injection.
        packet: Packet,
    },
    /// A shared-LLC probe awaiting its agreed readout.
    Cache {
        set: u64,
        tag: u64,
        issue_virt: VirtNanos,
    },
    /// A disk operation; `data` fills when the host transfer finishes.
    Disk {
        op: DiskOp,
        range: BlockRange,
        issue_virt: VirtNanos,
        data: Option<Vec<u64>>,
    },
    /// A guest-programmed virtual timer awaiting its agreed fire time.
    Timer {
        timer_id: u64,
        deadline: VirtNanos,
        period: Option<VirtOffset>,
    },
}

impl ChannelPayload {
    /// `true` when the payload's data is in the hidden buffer and the
    /// interrupt may be injected (always, except disk ops still in
    /// flight).
    pub(crate) fn ready(&self) -> bool {
        match self {
            ChannelPayload::Disk { data, .. } => data.is_some(),
            _ => true,
        }
    }
}

/// Dense row handle into the table (stable until the row is removed).
pub(crate) type Row = u32;

/// A due-index key: `(injection branch, delivery virt, class rank, id,
/// kind)`. The tuple order is the injection order (see
/// [`ChannelKind::injection_rank`]); `(kind, id)` makes keys unique.
pub(crate) type DueKey = (u64, VirtNanos, u8, u64, ChannelKind);

/// An injection candidate: a row's [`DueKey`], or the periodic tick's,
/// whose kind is `None` so it sorts before a channel row that ties it on
/// everything else.
pub(crate) type Due = (u64, VirtNanos, u8, u64, Option<ChannelKind>);

/// The struct-of-arrays pending table of one guest slot.
#[derive(Debug, Default)]
pub(crate) struct PendingTable {
    /// `(kind id, seq)` → row.
    index: FxHashMap<(u8, u64), Row>,
    /// Recycled rows.
    free: Vec<Row>,
    live: usize,
    // ---- hot columns (a row's due-index key is built from these) ----
    keys: Vec<(ChannelKind, u64)>,
    deliver: Vec<Option<VirtNanos>>,
    /// Cached injection branch; meaningful iff `deliver` is `Some`.
    inj_branch: Vec<u64>,
    ready: Vec<bool>,
    // ---- agreement columns ----
    needed: Vec<u16>,
    prop_len: Vec<u16>,
    /// Interned proposal buffers: row `r` owns
    /// `props[r * stride .. r * stride + prop_len[r]]`.
    props: Vec<VirtNanos>,
    /// Fixed proposal capacity per row (the slot's replica count; 1 for
    /// local arms). Set on first insert.
    stride: usize,
    // ---- cold column (touched at injection / data arrival) ----
    payload: Vec<Option<ChannelPayload>>,
    /// The due-index: one key per row with a fixed delivery and ready
    /// data.
    due: BTreeSet<DueKey>,
}

impl PendingTable {
    pub fn len(&self) -> usize {
        self.live
    }

    /// Live rows as `(kind, seq, needed, proposals so far, fixed delivery
    /// and its cached injection branch)`, sorted — test/debug aid.
    #[cfg(test)]
    #[allow(clippy::type_complexity)]
    pub fn snapshot(&self) -> Vec<(ChannelKind, u64, usize, usize, Option<(VirtNanos, u64)>)> {
        let mut rows: Vec<_> = self
            .index
            .values()
            .map(|&r| {
                let r = r as usize;
                let (kind, seq) = self.keys[r];
                let fixed = self.deliver[r].map(|d| (d, self.inj_branch[r]));
                (
                    kind,
                    seq,
                    self.needed[r] as usize,
                    self.prop_len[r] as usize,
                    fixed,
                )
            })
            .collect();
        rows.sort_unstable_by_key(|&(kind, seq, ..)| (kind, seq));
        rows
    }

    fn acquire(&mut self, kind: ChannelKind, seq: u64, needed: usize) -> Row {
        debug_assert!(needed >= 1);
        if self.stride == 0 {
            self.stride = needed;
        }
        debug_assert!(
            needed <= self.stride,
            "a slot's agreement width is fixed at its replica count"
        );
        let row = match self.free.pop() {
            Some(r) => r,
            None => {
                let r = self.keys.len() as Row;
                self.keys.push((kind, seq));
                self.deliver.push(None);
                self.inj_branch.push(0);
                self.ready.push(false);
                self.needed.push(0);
                self.prop_len.push(0);
                self.props
                    .resize(self.props.len() + self.stride, VirtNanos::ZERO);
                self.payload.push(None);
                r
            }
        };
        let r = row as usize;
        self.keys[r] = (kind, seq);
        self.deliver[r] = None;
        self.ready[r] = false;
        self.needed[r] = needed as u16;
        self.prop_len[r] = 0;
        let prior = self.index.insert((kind.id(), seq), row);
        debug_assert!(prior.is_none(), "duplicate pending entry");
        self.live += 1;
        row
    }

    /// Opens an entry awaiting `needed` replica proposals (1 under a local
    /// arm, whose entry awaits only its own settlement).
    pub fn insert_agreeing(
        &mut self,
        kind: ChannelKind,
        seq: u64,
        payload: ChannelPayload,
        needed: usize,
    ) -> Row {
        let row = self.acquire(kind, seq, needed);
        self.ready[row as usize] = payload.ready();
        self.payload[row as usize] = Some(payload);
        row
    }

    pub fn row(&self, kind: ChannelKind, seq: u64) -> Option<Row> {
        self.index.get(&(kind.id(), seq)).copied()
    }

    /// Removes an entry, returning its payload and fixed delivery time.
    pub fn remove(
        &mut self,
        kind: ChannelKind,
        seq: u64,
    ) -> Option<(ChannelPayload, Option<VirtNanos>)> {
        let row = self.index.remove(&(kind.id(), seq))?;
        let r = row as usize;
        // Unindex while the columns still describe the row.
        if let Some(key) = self.due_key(r) {
            self.due.remove(&key);
        }
        let payload = self.payload[r].take().expect("live row has a payload");
        let deliver = self.deliver[r].take();
        self.ready[r] = false;
        self.prop_len[r] = 0;
        self.free.push(row);
        self.live -= 1;
        Some((payload, deliver))
    }

    pub fn deliver_of(&self, row: Row) -> Option<VirtNanos> {
        self.deliver[row as usize]
    }

    /// Fixes the delivery time and caches its injection branch.
    pub fn set_deliver(&mut self, row: Row, deliver: VirtNanos, inj_branch: u64) {
        let r = row as usize;
        debug_assert!(self.deliver[r].is_none(), "delivery fixed twice");
        self.deliver[r] = Some(deliver);
        self.inj_branch[r] = inj_branch;
        self.index_if_due(r);
    }

    /// Marks the payload's data as present (disk transfer finished).
    pub fn set_ready(&mut self, row: Row) {
        let r = row as usize;
        if !self.ready[r] {
            self.ready[r] = true;
            self.index_if_due(r);
        }
    }

    /// Row `r`'s due-index key, if it is injectable: fixed delivery,
    /// data ready.
    fn due_key(&self, r: usize) -> Option<DueKey> {
        let deliver = self.deliver[r].filter(|_| self.ready[r])?;
        let (kind, id) = self.keys[r];
        Some((self.inj_branch[r], deliver, kind.injection_rank(), id, kind))
    }

    fn index_if_due(&mut self, r: usize) {
        if let Some(key) = self.due_key(r) {
            let fresh = self.due.insert(key);
            debug_assert!(fresh, "row indexed twice");
        }
    }

    pub fn payload_mut(&mut self, row: Row) -> &mut ChannelPayload {
        self.payload[row as usize]
            .as_mut()
            .expect("live row has a payload")
    }

    /// Appends a proposal to the row's interned buffer; returns the
    /// proposals received so far and the row's full-set size.
    pub fn push_proposal(&mut self, row: Row, proposal: VirtNanos) -> (&[VirtNanos], usize) {
        let r = row as usize;
        let len = self.prop_len[r] as usize;
        debug_assert!(len < self.stride, "proposal buffer overrun");
        self.props[r * self.stride + len] = proposal;
        self.prop_len[r] = (len + 1) as u16;
        (
            &self.props[r * self.stride..r * self.stride + len + 1],
            self.needed[r] as usize,
        )
    }

    /// Selects the median of the row's complete proposal set in place.
    pub fn median_full(&mut self, row: Row) -> VirtNanos {
        let r = row as usize;
        let len = self.prop_len[r] as usize;
        debug_assert_eq!(len, self.needed[r] as usize);
        timestats::order_stats::median_odd_in_place(
            &mut self.props[r * self.stride..r * self.stride + len],
        )
    }

    /// The earliest injection: the first indexed row or `pit`, the
    /// periodic tick's `(virtual time, injection branch)`, compared on the
    /// full [`Due`] key.
    pub fn next_due(&self, pit: Option<(VirtNanos, u64)>) -> Option<Due> {
        let row = self
            .due
            .first()
            .map(|&(branch, deliver, rank, id, kind)| (branch, deliver, rank, id, Some(kind)));
        let pit = pit.map(|(tick, branch)| (branch, tick, 0, 0, None));
        match (row, pit) {
            (Some(row), Some(pit)) => Some(row.min(pit)),
            (row, pit) => row.or(pit),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn payload() -> ChannelPayload {
        ChannelPayload::Cache {
            set: 1,
            tag: 2,
            issue_virt: VirtNanos::from_nanos(5),
        }
    }

    fn disk_in_flight() -> ChannelPayload {
        ChannelPayload::Disk {
            op: DiskOp::Read,
            range: BlockRange::new(0, 1),
            issue_virt: VirtNanos::ZERO,
            data: None,
        }
    }

    /// The due query without the index: the full-table scan the index
    /// replaced, visiting every row with a fixed delivery and ready data.
    fn scan_due(t: &PendingTable) -> Vec<DueKey> {
        let mut due = Vec::new();
        for r in 0..t.keys.len() {
            if let Some(d) = t.deliver[r] {
                if t.ready[r] {
                    let (kind, id) = t.keys[r];
                    due.push((t.inj_branch[r], d, kind.injection_rank(), id, kind));
                }
            }
        }
        due.sort_unstable();
        due
    }

    /// The scan plus a min, exactly as the slot's injection query took it
    /// before the index: the periodic tick first, then every due row,
    /// each kept only if due by `phys` and strictly smaller.
    fn scan_next_due(t: &PendingTable, pit: Option<(VirtNanos, u64)>, phys: u64) -> Option<Due> {
        let mut best: Option<Due> = None;
        let mut consider = |cand: Due| {
            if cand.0 <= phys && best.as_ref().is_none_or(|b| cand < *b) {
                best = Some(cand);
            }
        };
        if let Some((tick, branch)) = pit {
            consider((branch, tick, 0, 0, None));
        }
        for (branch, deliver, rank, id, kind) in scan_due(t) {
            consider((branch, deliver, rank, id, Some(kind)));
        }
        best
    }

    fn indexed(t: &PendingTable) -> Vec<DueKey> {
        t.due.iter().copied().collect()
    }

    #[test]
    fn rows_recycle_without_growing() {
        let mut t = PendingTable::default();
        for round in 0..4 {
            for seq in 0..3 {
                t.insert_agreeing(ChannelKind::Cache, round * 3 + seq, payload(), 3);
            }
            assert_eq!(t.len(), 3);
            for seq in 0..3 {
                assert!(t.remove(ChannelKind::Cache, round * 3 + seq).is_some());
            }
            assert_eq!(t.len(), 0);
        }
        assert_eq!(t.keys.len(), 3, "rows are reused, not appended");
        assert_eq!(t.props.len(), 9, "arena stays at rows * stride");
    }

    #[test]
    fn proposals_intern_and_median_in_place() {
        let mut t = PendingTable::default();
        let row = t.insert_agreeing(ChannelKind::Net, 7, payload(), 3);
        for (i, p) in [30u64, 10, 20].into_iter().enumerate() {
            let (got, needed) = t.push_proposal(row, VirtNanos::from_nanos(p));
            assert_eq!(got.len(), i + 1);
            assert_eq!(needed, 3);
        }
        assert_eq!(t.median_full(row).as_nanos(), 20);
        assert!(indexed(&t).is_empty(), "no delivery fixed yet");
        t.set_deliver(row, VirtNanos::from_nanos(20), 1234);
        let key = (1234, VirtNanos::from_nanos(20), 2, 7, ChannelKind::Net);
        assert_eq!(indexed(&t), vec![key]);
        t.remove(ChannelKind::Net, 7);
        assert!(indexed(&t).is_empty(), "removal unindexes the row");
    }

    #[test]
    fn unready_rows_are_skipped_by_the_due_scan() {
        let mut t = PendingTable::default();
        let row = t.insert_agreeing(ChannelKind::Disk, 0, disk_in_flight(), 3);
        t.set_deliver(row, VirtNanos::from_nanos(9), 99);
        assert!(indexed(&t).is_empty(), "no data yet");
        assert_eq!(t.next_due(None), None);
        t.set_ready(row);
        assert_eq!(indexed(&t), scan_due(&t));
        assert_eq!(indexed(&t).len(), 1);
        t.set_ready(row);
        assert_eq!(indexed(&t).len(), 1, "a repeated set_ready is a no-op");
    }

    #[test]
    fn next_due_injection_puts_the_pit_tick_before_a_tied_timer_row() {
        // A timer row at rank 0, id 0 ties the periodic tick on branch,
        // delivery, rank and id; the full key still orders them, and the
        // tick (kind `None`) goes first. (The name is from the slot's
        // former injection query; `next_due` now answers it.)
        let mut t = PendingTable::default();
        let timer = ChannelPayload::Timer {
            timer_id: 4,
            deadline: VirtNanos::from_nanos(500),
            period: None,
        };
        let tick = VirtNanos::from_nanos(500);
        let timer_row = t.insert_agreeing(ChannelKind::Timer, 0, timer, 1);
        t.set_deliver(timer_row, tick, 10);
        let pit = Some((tick, 10));
        assert_eq!(t.next_due(pit), Some((10, tick, 0, 0, None)));
        assert_eq!(t.next_due(pit), scan_next_due(&t, pit, 10));
        assert_eq!(
            t.next_due(pit).map(|d| d.0),
            Some(10),
            "nothing is due before branch 10"
        );
        // With the tick delivered, the timer row is next.
        let row = Some((10, tick, 0, 0, Some(ChannelKind::Timer)));
        assert_eq!(t.next_due(None), row);
        // A later tick loses to the row; an earlier delivery beats it.
        let later = Some((VirtNanos::from_nanos(501), 10));
        assert_eq!(t.next_due(later), row);
        assert_eq!(t.next_due(later), scan_next_due(&t, later, 10));
        let earlier = Some((VirtNanos::from_nanos(499), 10));
        assert_eq!(
            t.next_due(earlier),
            Some((10, VirtNanos::from_nanos(499), 0, 0, None))
        );
    }

    const KINDS: [ChannelKind; 4] = ChannelKind::ALL;

    /// Live rows as `(kind, seq, row)`, in key order.
    fn live(t: &PendingTable) -> Vec<(ChannelKind, u64, Row)> {
        t.snapshot()
            .into_iter()
            .map(|(kind, seq, ..)| (kind, seq, t.row(kind, seq).expect("live")))
            .collect()
    }

    /// Applies one random operation. Small seq, branch and delivery
    /// ranges make key collisions (skipped) and ties (kept) common.
    fn apply(t: &mut PendingTable, op: u64, a: u64, b: u64, c: u64) {
        let kind = KINDS[(a % 4) as usize];
        let seq = (a >> 2) % 16;
        let deliver = VirtNanos::from_nanos(b);
        let rows = live(t);
        let pick = |filter: &dyn Fn(Row) -> bool| {
            let cands: Vec<_> = rows.iter().filter(|&&(.., r)| filter(r)).collect();
            (!cands.is_empty()).then(|| *cands[(a as usize >> 6) % cands.len()])
        };
        let payload_for = |kind: ChannelKind, in_flight: bool| match kind {
            ChannelKind::Disk if in_flight => disk_in_flight(),
            ChannelKind::Timer => ChannelPayload::Timer {
                timer_id: seq,
                deadline: deliver,
                period: None,
            },
            _ => payload(),
        };
        match op % 6 {
            // An agreeing open (disk rows start without data).
            0 if t.row(kind, seq).is_none() => {
                t.insert_agreeing(kind, seq, payload_for(kind, true), 3);
            }
            // A local arm's open, already fixed.
            1 if t.row(kind, seq).is_none() => {
                let in_flight = (a >> 6) & 1 == 1;
                let row = t.insert_agreeing(kind, seq, payload_for(kind, in_flight), 1);
                t.set_deliver(row, deliver, c);
            }
            // Fix an open row's delivery (before or after its data).
            2 => {
                if let Some((.., r)) = pick(&|r| t.deliver_of(r).is_none()) {
                    t.set_deliver(r, deliver, c);
                }
            }
            // Data arrives (fixed or not yet).
            3 => {
                if let Some((.., r)) = pick(&|r| !t.ready[r as usize]) {
                    t.set_ready(r);
                }
            }
            // Injection or retirement of any live row.
            4 => {
                if let Some((kind, seq, _)) = pick(&|_| true) {
                    assert!(t.remove(kind, seq).is_some());
                }
            }
            // A timer cancel, live or not.
            5 => {
                let was_live = t.row(ChannelKind::Timer, seq).is_some();
                assert_eq!(t.remove(ChannelKind::Timer, seq).is_some(), was_live);
            }
            _ => {}
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn due_index_agrees_with_the_full_scan(
            ops in prop::collection::vec((0u64..6, 0u64..=u64::MAX, 0u64..6, 0u64..6), 1..160),
        ) {
            let mut t = PendingTable::default();
            // Fix the proposal stride at three replicas first, so local
            // (width 1) and agreeing (width 3) opens can mix.
            t.insert_agreeing(ChannelKind::Cache, u64::MAX, payload(), 3);
            t.remove(ChannelKind::Cache, u64::MAX);
            for &(op, a, b, c) in &ops {
                apply(&mut t, op, a, b, c);
                let scan = scan_due(&t);
                prop_assert_eq!(indexed(&t), scan);
                // The periodic tick absent, or on a grid of the
                // branches and deliveries the rows draw from (ties
                // included), probed at several cut-off branches.
                let ticks = [0, 2, 4].into_iter().flat_map(|br| {
                    [0, 2, 4].map(|d| Some((VirtNanos::from_nanos(d), br)))
                });
                for pit in std::iter::once(None).chain(ticks) {
                    for phys in [0, 3, u64::MAX] {
                        let due = t.next_due(pit).filter(|d| d.0 <= phys);
                        prop_assert_eq!(due, scan_next_due(&t, pit, phys));
                    }
                }
            }
        }
    }
}
