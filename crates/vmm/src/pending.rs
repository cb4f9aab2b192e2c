//! Struct-of-arrays storage for the unified channel core's pending table.
//!
//! Every timing channel's in-flight events share one table (see
//! [`crate::channel`]). The agreement hot path touches it in two very
//! different ways:
//!
//! * **Scans** — `next_wake` / `next_due_injection` walk every live entry
//!   after nearly every event, reading only `(injection branch, delivery
//!   virt, kind, id)`. Those four live in dense parallel arrays here, so
//!   the walk is a branch-light pass over a few cache lines instead of a
//!   pointer chase through a `BTreeMap` of payload-sized nodes.
//! * **Point updates** — opening an entry, pushing a proposal, fixing a
//!   delivery, injecting. An `FxHashMap` keyed by `(kind, seq)` resolves
//!   to a row index; freed rows are recycled through a free list, so a
//!   steady-state run allocates nothing per event.
//!
//! Proposal buffers are **interned**: all rows share one arena, each row
//! owning a fixed-stride segment sized to the replica count, so a
//! proposal push is a bounds-checked store — no per-entry `Vec`. The
//! median is selected in place over the row's segment when the set
//! completes.
//!
//! The injection branch of a fixed delivery — `exit_ceil(instr_for(d))`,
//! two float operations — is computed **once**, when the delivery is
//! fixed, and cached in the `inj_branch` column. The slot's clock and
//! exit quantum never change after construction, so the cache cannot go
//! stale; the scans that used to recompute it per entry per call now
//! compare cached integers.

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

/// The struct-of-arrays pending table of one guest slot.
#[derive(Debug, Default)]
pub(crate) struct PendingTable {
    /// `(kind id, seq)` → row.
    index: FxHashMap<(u8, u64), Row>,
    /// Recycled rows.
    free: Vec<Row>,
    live: usize,
    // ---- hot columns (scanned) ----
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

    /// Opens an entry awaiting `needed` replica proposals.
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

    /// Opens an entry already fixed at a locally decided delivery time
    /// (baseline arms). `inj_branch` is the caller-computed injection
    /// branch of `deliver`.
    pub fn insert_local(
        &mut self,
        kind: ChannelKind,
        seq: u64,
        payload: ChannelPayload,
        deliver: VirtNanos,
        inj_branch: u64,
    ) -> Row {
        let row = self.acquire(kind, seq, 1);
        let r = row as usize;
        self.ready[r] = payload.ready();
        self.payload[r] = Some(payload);
        self.deliver[r] = Some(deliver);
        self.inj_branch[r] = inj_branch;
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
    }

    /// Marks the payload's data as present (disk transfer finished).
    pub fn set_ready(&mut self, row: Row) {
        self.ready[row as usize] = true;
    }

    pub fn payload_mut(&mut self, row: Row) -> &mut ChannelPayload {
        self.payload[row as usize]
            .as_mut()
            .expect("live row has a payload")
    }

    pub fn payload_of(&self, row: Row) -> &ChannelPayload {
        self.payload[row as usize]
            .as_ref()
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

    /// Visits every injectable row: fixed delivery, data ready. Passes
    /// `(cached injection branch, delivery virt, kind, id)`.
    #[inline]
    pub fn for_each_due(&self, mut f: impl FnMut(u64, VirtNanos, ChannelKind, u64)) {
        for r in 0..self.keys.len() {
            if let Some(d) = self.deliver[r] {
                if self.ready[r] {
                    let (kind, id) = self.keys[r];
                    f(self.inj_branch[r], d, kind, id);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn payload() -> ChannelPayload {
        ChannelPayload::Cache {
            set: 1,
            tag: 2,
            issue_virt: VirtNanos::from_nanos(5),
        }
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
        t.set_deliver(row, VirtNanos::from_nanos(20), 1234);
        let mut seen = Vec::new();
        t.for_each_due(|b, d, kind, id| seen.push((b, d.as_nanos(), kind, id)));
        assert_eq!(seen, vec![(1234, 20, ChannelKind::Net, 7)]);
    }

    #[test]
    fn unready_rows_are_skipped_by_the_due_scan() {
        let mut t = PendingTable::default();
        let row = t.insert_agreeing(
            ChannelKind::Disk,
            0,
            ChannelPayload::Disk {
                op: DiskOp::Read,
                range: BlockRange::new(0, 1),
                issue_virt: VirtNanos::ZERO,
                data: None,
            },
            3,
        );
        t.set_deliver(row, VirtNanos::from_nanos(9), 99);
        let mut n = 0;
        t.for_each_due(|_, _, _, _| n += 1);
        assert_eq!(n, 0, "no data yet");
        t.set_ready(row);
        t.for_each_due(|_, _, _, _| n += 1);
        assert_eq!(n, 1);
    }
}
