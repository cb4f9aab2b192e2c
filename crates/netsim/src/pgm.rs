//! A PGM-style reliable multicast (RFC 3208, as implemented by OpenPGM,
//! which the StopWatch prototype embeds in its Dom0 network device model).
//!
//! Reliability is *receiver-driven*: receivers detect sequence gaps and send
//! NAKs; the sender retransmits from its history window. StopWatch uses
//! this channel for (a) replicating inbound guest packets to the three
//! replica hosts and (b) exchanging proposed virtual delivery times among
//! the three VMMs.
//!
//! The machines here are sans-I/O: they consume events and return packets
//! to send / payloads to deliver, so any event loop can drive them.

use std::collections::VecDeque;

/// A PGM protocol message carrying payload `T`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PgmPacket<T> {
    /// Original or retransmitted data.
    Data {
        /// Sequence number within the sender's stream.
        seq: u64,
        /// The payload.
        payload: T,
        /// `true` when this is a NAK-triggered retransmission.
        retransmit: bool,
    },
    /// Negative acknowledgment listing missing sequence numbers.
    Nak {
        /// The missing sequence numbers.
        missing: Vec<u64>,
    },
}

/// Sender half: assigns sequence numbers, keeps a bounded retransmission
/// history, answers NAKs.
///
/// # Examples
///
/// ```
/// use netsim::pgm::{PgmReceiver, PgmSender, RxOutput};
/// let mut tx = PgmSender::new(64);
/// let mut rx = PgmReceiver::new();
/// let mut out = RxOutput::default();
/// let p0 = tx.send("a");
/// let p1 = tx.send("b");
/// // p0 is lost; rx sees p1 first and NAKs seq 0.
/// rx.on_packet(p1, &mut out);
/// assert!(out.delivered.is_empty());
/// assert_eq!(out.nak_missing, vec![0]);
/// let retx = tx.retransmit(out.nak_missing[0]).expect("seq 0 is in the history");
/// rx.on_packet(retx, &mut out);
/// assert_eq!(out.delivered, vec!["a", "b"]);
/// ```
#[derive(Debug, Clone)]
pub struct PgmSender<T> {
    next_seq: u64,
    /// The last (at most `window`) payloads sent, oldest first:
    /// `history[i]` is seq `next_seq - history.len() + i`.
    history: VecDeque<T>,
    window: usize,
}

impl<T: Clone> PgmSender<T> {
    /// Creates a sender with a retransmission history of `window` packets.
    ///
    /// # Panics
    ///
    /// Panics if `window == 0`.
    pub fn new(window: usize) -> Self {
        assert!(window > 0, "history window must be positive");
        PgmSender {
            next_seq: 0,
            history: VecDeque::new(),
            window,
        }
    }

    /// Wraps `payload` in the next data packet.
    pub fn send(&mut self, payload: T) -> PgmPacket<T> {
        let seq = self.next_seq;
        self.next_seq += 1;
        if self.history.len() == self.window {
            self.history.pop_front();
        }
        self.history.push_back(payload.clone());
        PgmPacket::Data {
            seq,
            payload,
            retransmit: false,
        }
    }

    /// The retransmission of `seq`, for one sequence number of a NAK. A
    /// sequence that has aged out of the history yields `None` (matching
    /// PGM's bounded-window semantics), as does one never sent.
    pub fn retransmit(&self, seq: u64) -> Option<PgmPacket<T>> {
        let first = self.next_seq - self.history.len() as u64;
        let offset = usize::try_from(seq.checked_sub(first)?).ok()?;
        self.history.get(offset).map(|payload| PgmPacket::Data {
            seq,
            payload: payload.clone(),
            retransmit: true,
        })
    }

    /// Next sequence number to be assigned.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }
}

/// What a receiver wants done after consuming a packet. The caller owns
/// it and hands it to every [`PgmReceiver::on_packet`], which refills it,
/// so a steady stream of packets reuses its two buffers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RxOutput<T> {
    /// Payloads now deliverable in order.
    pub delivered: Vec<T>,
    /// Gap sequences to NAK (empty if none detected by this packet).
    pub nak_missing: Vec<u64>,
}

impl<T> Default for RxOutput<T> {
    fn default() -> Self {
        RxOutput {
            delivered: Vec::new(),
            nak_missing: Vec::new(),
        }
    }
}

/// Receiver half: reorders, detects gaps, requests retransmission.
///
/// Memory is the deepest reorder gap: the window spans `expected` up to
/// the highest buffered seq.
#[derive(Debug, Clone, Default)]
pub struct PgmReceiver<T> {
    expected: u64,
    /// `window[i]` holds seq `expected + i` once it has arrived. The window
    /// is empty or ends with the highest buffered seq, and its front is
    /// never filled (that seq would have been delivered).
    window: VecDeque<Option<T>>,
    /// NAK-once watermark: every seq below it has been delivered, buffered,
    /// or NAKed once; no seq at or above it has been.
    nak_high: u64,
}

impl<T> PgmReceiver<T> {
    /// Creates a receiver expecting sequence 0 first.
    pub fn new() -> Self {
        PgmReceiver {
            expected: 0,
            window: VecDeque::new(),
            nak_high: 0,
        }
    }

    /// Consumes one packet, replacing `out`'s contents with the in-order
    /// deliveries and fresh NAKs it causes. `Nak` packets addressed to
    /// senders are ignored by receivers.
    pub fn on_packet(&mut self, pkt: PgmPacket<T>, out: &mut RxOutput<T>) {
        out.delivered.clear();
        out.nak_missing.clear();
        let PgmPacket::Data { seq, payload, .. } = pkt else {
            return;
        };
        let Some(offset) = seq.checked_sub(self.expected) else {
            return; // duplicate of a delivered seq
        };
        let offset = usize::try_from(offset).expect("reorder gap fits in memory");
        match self.window.get_mut(offset) {
            Some(Some(_)) => return, // duplicate of a buffered seq
            Some(slot) => *slot = Some(payload),
            None => {
                self.window.resize_with(offset, || None);
                self.window.push_back(Some(payload));
            }
        }
        // NAK the gap this packet opens, once each: the seqs it skips over
        // that no earlier packet already skipped over. Every delivered seq
        // was accepted here first, so `expected <= nak_high` always.
        if seq >= self.nak_high {
            out.nak_missing.extend(self.nak_high..seq);
            self.nak_high = seq + 1;
        }
        // Deliver the in-order prefix.
        while let Some(payload) = self.window.front_mut().and_then(Option::take) {
            self.window.pop_front();
            out.delivered.push(payload);
            self.expected += 1;
        }
    }

    /// Re-raises NAKs for still-missing gaps (call on a timer; PGM NAKs are
    /// retried until satisfied).
    pub fn pending_naks(&self) -> Vec<u64> {
        (self.expected..)
            .zip(&self.window)
            .filter(|(_, slot)| slot.is_none())
            .map(|(seq, _)| seq)
            .collect()
    }

    /// Next sequence the application will see.
    pub fn expected(&self) -> u64 {
        self.expected
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One packet through `rx`, into a fresh output.
    fn recv<T>(rx: &mut PgmReceiver<T>, pkt: PgmPacket<T>) -> RxOutput<T> {
        let mut out = RxOutput::default();
        rx.on_packet(pkt, &mut out);
        out
    }

    /// The sender's answer to a NAK listing `missing`.
    fn answer<T: Clone>(tx: &PgmSender<T>, missing: &[u64]) -> Vec<PgmPacket<T>> {
        missing
            .iter()
            .filter_map(|&seq| tx.retransmit(seq))
            .collect()
    }

    #[test]
    fn in_order_delivery() {
        let mut tx = PgmSender::new(16);
        let mut rx = PgmReceiver::new();
        let mut out = RxOutput::default();
        for i in 0..5 {
            rx.on_packet(tx.send(i), &mut out);
            assert_eq!(out.delivered, vec![i]);
            assert!(out.nak_missing.is_empty());
        }
        assert_eq!(rx.expected(), 5);
    }

    #[test]
    fn reorder_without_loss_delivers_in_order() {
        let mut tx = PgmSender::new(16);
        let mut rx = PgmReceiver::new();
        let p0 = tx.send("a");
        let p1 = tx.send("b");
        let out1 = recv(&mut rx, p1);
        assert!(out1.delivered.is_empty());
        assert_eq!(out1.nak_missing, vec![0]); // it can't tell reorder from loss
        let out0 = recv(&mut rx, p0);
        assert_eq!(out0.delivered, vec!["a", "b"]);
    }

    #[test]
    fn loss_recovery_via_nak() {
        let mut tx = PgmSender::new(16);
        let mut rx = PgmReceiver::new();
        let _lost = tx.send(10);
        let p1 = tx.send(11);
        let p2 = tx.send(12);
        let o1 = recv(&mut rx, p1);
        assert_eq!(o1.nak_missing, vec![0]);
        let o2 = recv(&mut rx, p2);
        assert!(o2.nak_missing.is_empty(), "NAK only raised once per gap");
        let retx = answer(&tx, &[0]);
        assert_eq!(retx.len(), 1);
        let o3 = recv(&mut rx, retx.into_iter().next().unwrap());
        assert_eq!(o3.delivered, vec![10, 11, 12]);
    }

    #[test]
    fn duplicates_ignored() {
        let mut tx = PgmSender::new(16);
        let mut rx = PgmReceiver::new();
        let p0 = tx.send(1);
        assert_eq!(recv(&mut rx, p0.clone()).delivered, vec![1]);
        assert!(recv(&mut rx, p0).delivered.is_empty());
    }

    #[test]
    fn history_window_ages_out() {
        let mut tx = PgmSender::new(2);
        tx.send(0);
        tx.send(1);
        tx.send(2); // seq 0 aged out
        assert!(answer(&tx, &[0]).is_empty());
        assert_eq!(answer(&tx, &[1, 2]).len(), 2);
    }

    #[test]
    fn pending_naks_report_all_open_gaps() {
        let mut tx = PgmSender::new(16);
        let mut rx = PgmReceiver::new();
        let mut pkts: Vec<_> = (0..6).map(|i| tx.send(i)).collect();
        // Deliver only seqs 2 and 5.
        let p5 = pkts.remove(5);
        let p2 = pkts.remove(2);
        recv(&mut rx, p2);
        recv(&mut rx, p5);
        assert_eq!(rx.pending_naks(), vec![0, 1, 3, 4]);
    }

    #[test]
    fn nak_packet_to_receiver_is_noop() {
        let mut rx: PgmReceiver<u32> = PgmReceiver::new();
        let out = recv(&mut rx, PgmPacket::Nak { missing: vec![1] });
        assert!(out.delivered.is_empty() && out.nak_missing.is_empty());
    }

    #[test]
    fn each_packet_replaces_the_previous_output() {
        // The caller's buffer is cleared first: a duplicate after a
        // delivery, or a NAK-free packet after a NAKing one, reports
        // nothing stale.
        let mut tx = PgmSender::new(16);
        let mut rx = PgmReceiver::new();
        let mut out = RxOutput::default();
        let (p0, p1, p2) = (tx.send(0), tx.send(1), tx.send(2));
        rx.on_packet(p1, &mut out);
        assert_eq!(out.nak_missing, vec![0]);
        rx.on_packet(p2, &mut out);
        assert_eq!(out, RxOutput::default());
        rx.on_packet(p0.clone(), &mut out);
        assert_eq!(out.delivered, vec![0, 1, 2]);
        rx.on_packet(p0, &mut out);
        assert_eq!(out, RxOutput::default());
    }
}
