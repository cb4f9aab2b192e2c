//! Differential tests: the sequence-indexed PGM rings behave exactly like a
//! model built on ordered maps.
//!
//! The model below is the straightforward implementation: the receiver
//! keeps a `BTreeMap` reorder buffer plus the list of seqs it has NAKed,
//! and on every packet rescans each seq from `expected` up to the highest
//! buffered one; the sender keeps a `BTreeMap` history and drops its oldest
//! entry whenever it grows past the window. Random schedules drive both
//! through one lossy, reordering, duplicating network:
//!
//! * sends land in an in-flight pool, and deliveries pick any packet from
//!   it, so arrival order is a random shuffle;
//! * a packet can be dropped, or delivered and left in the pool to arrive
//!   again later;
//! * NAKs queue up and are answered later from the sender's history,
//!   which may have aged the requested seqs out;
//! * `pending_naks` retries re-raise every still-open gap.
//!
//! After every step both sides must agree on `delivered`, `nak_missing`
//! (order included), `pending_naks`, `expected` and the retransmissions.

use std::collections::BTreeMap;

use netsim::pgm::{PgmPacket, PgmReceiver, PgmSender, RxOutput};
use proptest::prelude::*;

/// The model sender: a `BTreeMap` history trimmed from the oldest end.
struct ModelSender {
    next_seq: u64,
    history: BTreeMap<u64, u64>,
    window: usize,
}

impl ModelSender {
    fn new(window: usize) -> Self {
        ModelSender {
            next_seq: 0,
            history: BTreeMap::new(),
            window,
        }
    }

    fn send(&mut self, payload: u64) -> PgmPacket<u64> {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.history.insert(seq, payload);
        while self.history.len() > self.window {
            let oldest = *self.history.keys().next().expect("non-empty");
            self.history.remove(&oldest);
        }
        PgmPacket::Data {
            seq,
            payload,
            retransmit: false,
        }
    }

    fn on_nak(&self, missing: &[u64]) -> Vec<PgmPacket<u64>> {
        missing
            .iter()
            .filter_map(|seq| {
                self.history.get(seq).map(|&payload| PgmPacket::Data {
                    seq: *seq,
                    payload,
                    retransmit: true,
                })
            })
            .collect()
    }
}

/// The model receiver: a `BTreeMap` buffer, a NAKed list, and a full
/// rescan of `expected..highest` on every packet.
#[derive(Default)]
struct ModelReceiver {
    expected: u64,
    buffer: BTreeMap<u64, u64>,
    nakked: Vec<u64>,
}

impl ModelReceiver {
    fn on_packet(&mut self, pkt: PgmPacket<u64>) -> RxOutput<u64> {
        let mut out = RxOutput {
            delivered: Vec::new(),
            nak_missing: Vec::new(),
        };
        let PgmPacket::Data { seq, payload, .. } = pkt else {
            return out;
        };
        if seq < self.expected || self.buffer.contains_key(&seq) {
            return out;
        }
        self.buffer.insert(seq, payload);
        while let Some(payload) = self.buffer.remove(&self.expected) {
            out.delivered.push(payload);
            self.expected += 1;
        }
        if let Some(&hi) = self.buffer.keys().next_back() {
            for missing in self.expected..hi {
                if !self.buffer.contains_key(&missing) && !self.nakked.contains(&missing) {
                    self.nakked.push(missing);
                    out.nak_missing.push(missing);
                }
            }
        }
        self.nakked.retain(|s| *s >= self.expected);
        out
    }

    fn pending_naks(&self) -> Vec<u64> {
        match self.buffer.keys().next_back() {
            Some(&hi) => (self.expected..hi)
                .filter(|s| !self.buffer.contains_key(s))
                .collect(),
            None => Vec::new(),
        }
    }
}

/// The ring sender's answer to a NAK: one `retransmit` per listed seq.
fn answer(tx: &PgmSender<u64>, missing: &[u64]) -> Vec<PgmPacket<u64>> {
    missing
        .iter()
        .filter_map(|&seq| tx.retransmit(seq))
        .collect()
}

/// One sender/receiver stream run twice, once on the rings and once on the
/// model, over the same simulated network.
struct Pair {
    tx: PgmSender<u64>,
    rx: PgmReceiver<u64>,
    /// The receiver's output buffer, reused for every packet.
    out: RxOutput<u64>,
    model_tx: ModelSender,
    model_rx: ModelReceiver,
    /// Packets on the wire, in any order.
    in_flight: Vec<PgmPacket<u64>>,
    /// NAK lists on their way back to the sender.
    naks: Vec<Vec<u64>>,
    delivered: Vec<u64>,
}

impl Pair {
    fn new(window: usize) -> Self {
        Pair {
            tx: PgmSender::new(window),
            rx: PgmReceiver::new(),
            out: RxOutput::default(),
            model_tx: ModelSender::new(window),
            model_rx: ModelReceiver::default(),
            in_flight: Vec::new(),
            naks: Vec::new(),
            delivered: Vec::new(),
        }
    }

    fn send(&mut self) {
        let payload = 1_000 + self.tx.next_seq();
        let pkt = self.tx.send(payload);
        assert_eq!(pkt, self.model_tx.send(payload), "send");
        assert_eq!(self.tx.next_seq(), self.model_tx.next_seq, "next_seq");
        self.in_flight.push(pkt);
    }

    /// Hands `pkt` to both receivers and queues any NAK it raised.
    fn deliver(&mut self, pkt: PgmPacket<u64>) {
        self.rx.on_packet(pkt.clone(), &mut self.out);
        assert_eq!(self.out, self.model_rx.on_packet(pkt), "on_packet output");
        if !self.out.nak_missing.is_empty() {
            self.naks.push(self.out.nak_missing.clone());
        }
        self.delivered.extend_from_slice(&self.out.delivered);
    }

    /// Answers one queued NAK from both senders' histories.
    fn answer_nak(&mut self, pick: usize) {
        let missing = self.naks.swap_remove(pick);
        let retx = answer(&self.tx, &missing);
        assert_eq!(retx, self.model_tx.on_nak(&missing), "NAK {missing:?}");
        self.in_flight.extend(retx);
    }

    /// Re-raises every open gap (`check` compares `pending_naks` itself).
    fn retry_naks(&mut self) {
        let pending = self.rx.pending_naks();
        if !pending.is_empty() {
            self.naks.push(pending);
        }
    }

    /// Applies one random step.
    fn apply(&mut self, kind: u64, sel: u64) {
        let pick = |len: usize| (sel as usize) % len;
        match kind % 10 {
            0..=2 => self.send(),
            3 | 4 if !self.in_flight.is_empty() => {
                let pkt = self.in_flight.swap_remove(pick(self.in_flight.len()));
                self.deliver(pkt);
            }
            5 if !self.in_flight.is_empty() => {
                // Duplicate: arrives now and stays on the wire.
                let pkt = self.in_flight[pick(self.in_flight.len())].clone();
                self.deliver(pkt);
            }
            6 if !self.in_flight.is_empty() => {
                self.in_flight.swap_remove(pick(self.in_flight.len()));
            }
            7 if !self.naks.is_empty() => self.answer_nak(pick(self.naks.len())),
            8 => self.retry_naks(),
            9 => self.deliver(PgmPacket::Nak {
                missing: vec![sel % 8],
            }),
            _ => self.send(),
        }
        self.check();
    }

    fn check(&self) {
        assert_eq!(self.rx.expected(), self.model_rx.expected, "expected");
        assert_eq!(
            self.rx.pending_naks(),
            self.model_rx.pending_naks(),
            "pending_naks"
        );
    }

    /// Repairs every loss until the receiver has everything the sender's
    /// history still holds; returns what it delivered, in order.
    fn drain(mut self) -> Vec<u64> {
        while !self.in_flight.is_empty() || !self.naks.is_empty() {
            if let Some(pkt) = self.in_flight.pop() {
                self.deliver(pkt);
            } else {
                self.answer_nak(0);
            }
            self.check();
        }
        self.delivered
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn rings_match_the_map_model_under_loss_reorder_and_duplicates(
        window in 1usize..24,
        ops in prop::collection::vec((0u64..=u64::MAX, 0u64..=u64::MAX), 1..300),
    ) {
        let mut pair = Pair::new(window);
        for &(kind, sel) in &ops {
            pair.apply(kind, sel);
        }
        let delivered = pair.drain();
        // Whatever was delivered is an in-order prefix of the stream.
        let prefix: Vec<u64> = (0..delivered.len() as u64).map(|s| 1_000 + s).collect();
        prop_assert_eq!(delivered, prefix);
    }
}

/// A deep gap: every packet arrives in reverse order, so each new
/// highest seq NAKs everything below it exactly once.
#[test]
fn reversed_burst_matches_the_model() {
    let mut pair = Pair::new(4096);
    for _ in 0..500 {
        pair.send();
    }
    while let Some(pkt) = pair.in_flight.pop() {
        pair.deliver(pkt);
        pair.check();
    }
    assert_eq!(pair.naks.len(), 1, "one NAK, raised by seq 499");
    assert_eq!(pair.naks[0], (0..499).collect::<Vec<u64>>());
    assert_eq!(pair.delivered, (1_000..1_500).collect::<Vec<u64>>());
    assert!(pair.rx.pending_naks().is_empty());
}

/// Answering a NAK across the window boundary: aged-out, live and
/// never-sent seqs, in request order, repeats included.
#[test]
fn on_nak_skips_aged_out_and_unsent_seqs() {
    for window in [1, 2, 4, 7] {
        let mut tx = PgmSender::new(window);
        let mut model = ModelSender::new(window);
        assert!(answer(&tx, &[0, 1]).is_empty(), "nothing sent yet");
        for sent in 0..10u64 {
            tx.send(sent);
            model.send(sent);
            let next = tx.next_seq();
            let probes = [
                0,
                next.saturating_sub(window as u64 + 1),
                next.saturating_sub(window as u64),
                next.saturating_sub(window as u64 - 1),
                next - 1,
                next,
                next + 1,
                next - 1,
                u64::MAX,
            ];
            assert_eq!(
                answer(&tx, &probes),
                model.on_nak(&probes),
                "window {window}, next_seq {next}"
            );
        }
    }
    let mut tx = PgmSender::new(4);
    for payload in 0..10u64 {
        tx.send(payload);
    }
    // History holds seqs 6..=9: 5 aged out, 10 and beyond never sent.
    let seqs: Vec<u64> = answer(&tx, &[5, 9, 6, 10, 3, 7, 100, u64::MAX])
        .into_iter()
        .map(|pkt| match pkt {
            PgmPacket::Data {
                seq,
                payload,
                retransmit,
            } => {
                assert!(retransmit);
                assert_eq!(payload, seq);
                seq
            }
            PgmPacket::Nak { .. } => panic!("a NAK is answered with data"),
        })
        .collect();
    assert_eq!(seqs, vec![9, 6, 7]);
}
