//! The cloud's egress node (paper Sec. VI).
//!
//! The egress receives each guest output packet from every replica
//! (tunneled over TCP by the replica's network device model) and forwards
//! it to its real destination when the *second* copy arrives — the median
//! output timing of three replicas. Because deterministic replicas emit
//! identical packet streams, the egress can also *vote*: a copy whose
//! content hash disagrees flags a divergent replica. An output's state is
//! dropped when its last replica's copy arrives. The ingress side,
//! replicating each inbound packet to the hosts of its guest's replicas,
//! is the cloud's own routing (`stopwatch_core::cloud`).

use crate::link::NetNode;
use crate::packet::{EndpointId, Packet};
use simkit::fxhash::FxHashMap;

/// Decision the egress node takes for one arriving copy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EgressDecision {
    /// This is the second copy: forward the packet now (median timing).
    Forward(Packet),
    /// First copy, or a copy after forwarding: hold.
    Hold,
    /// The copy's content hash disagrees with earlier copies of the same
    /// output index — a replica has diverged.
    Divergence {
        /// The replica host whose copy disagreed.
        from: NetNode,
    },
}

#[derive(Debug, Clone)]
struct CopyState {
    /// Distinct content hashes seen and their copy counts.
    groups: Vec<(u64, u8)>,
    forwarded: bool,
}

/// Forwards each replicated output packet at its median (second-copy)
/// timing and votes on content.
#[derive(Debug, Clone, Default)]
pub struct EgressNode {
    seen: FxHashMap<(EndpointId, u64), CopyState>,
}

impl EgressNode {
    /// Creates an empty egress node.
    pub fn new() -> Self {
        EgressNode::default()
    }

    /// Outputs some of whose copies have not arrived yet.
    pub fn held(&self) -> usize {
        self.seen.len()
    }

    /// Consumes one tunneled copy of output packet number `out_seq` from
    /// guest `guest`, which runs `replicas` replicas, received from
    /// replica host `from`.
    ///
    /// Copies are grouped by content hash (majority voting): the packet is
    /// forwarded the moment any hash group reaches two copies — the median
    /// output timing of the agreeing replicas — so a single divergent
    /// replica can neither corrupt nor block the output, regardless of
    /// arrival order. The output's state is dropped when its `replicas`-th
    /// copy arrives, after that copy has been voted on.
    pub fn on_copy(
        &mut self,
        guest: EndpointId,
        out_seq: u64,
        from: NetNode,
        packet: Packet,
        replicas: usize,
    ) -> EgressDecision {
        let hash = packet.content_hash();
        let key = (guest, out_seq);
        let entry = self.seen.entry(key).or_insert(CopyState {
            groups: Vec::new(),
            forwarded: false,
        });
        let this_group = match entry.groups.iter_mut().find(|(h, _)| *h == hash) {
            Some((_, count)) => {
                *count += 1;
                *count
            }
            None => {
                entry.groups.push((hash, 1));
                1
            }
        };
        let decision = if this_group == 2 && !entry.forwarded {
            entry.forwarded = true;
            EgressDecision::Forward(packet)
        } else if entry.groups.len() > 1 && this_group == 1 {
            EgressDecision::Divergence { from }
        } else {
            EgressDecision::Hold
        };
        let copies: usize = entry.groups.iter().map(|&(_, n)| usize::from(n)).sum();
        if copies >= replicas {
            self.seen.remove(&key);
        }
        decision
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::Body;

    fn pkt(tag: u64) -> Packet {
        Packet::new(EndpointId(1), EndpointId(99), Body::Raw { tag, len: 100 })
    }

    #[test]
    fn egress_forwards_second_copy() {
        let mut eg = EgressNode::new();
        let g = EndpointId(1);
        assert_eq!(
            eg.on_copy(g, 0, NetNode(0), pkt(7), 3),
            EgressDecision::Hold
        );
        assert!(matches!(
            eg.on_copy(g, 0, NetNode(1), pkt(7), 3),
            EgressDecision::Forward(_)
        ));
        // Third copy is held (already forwarded), and the output's state
        // goes with it.
        assert_eq!(
            eg.on_copy(g, 0, NetNode(2), pkt(7), 3),
            EgressDecision::Hold
        );
        assert_eq!(eg.held(), 0, "three copies leave nothing held");
    }

    #[test]
    fn egress_keeps_streams_separate() {
        let mut eg = EgressNode::new();
        let g = EndpointId(1);
        assert_eq!(
            eg.on_copy(g, 0, NetNode(0), pkt(7), 3),
            EgressDecision::Hold
        );
        // A different out_seq does not complete seq 0.
        assert_eq!(
            eg.on_copy(g, 1, NetNode(1), pkt(8), 3),
            EgressDecision::Hold
        );
        // Nor does another guest's copy of the same out_seq.
        assert_eq!(
            eg.on_copy(EndpointId(2), 0, NetNode(1), pkt(7), 3),
            EgressDecision::Hold
        );
    }

    #[test]
    fn egress_detects_divergence() {
        let mut eg = EgressNode::new();
        let g = EndpointId(1);
        eg.on_copy(g, 0, NetNode(0), pkt(7), 3);
        let d = eg.on_copy(g, 0, NetNode(1), pkt(8), 3);
        assert_eq!(d, EgressDecision::Divergence { from: NetNode(1) });
        // The two matching replicas still get the packet out.
        assert!(matches!(
            eg.on_copy(g, 0, NetNode(2), pkt(7), 3),
            EgressDecision::Forward(_)
        ));
    }

    #[test]
    fn egress_survives_divergent_first_copy() {
        // The faulty replica's copy lands first; the two honest copies
        // still form a majority and the packet goes out.
        let mut eg = EgressNode::new();
        let g = EndpointId(1);
        assert_eq!(
            eg.on_copy(g, 0, NetNode(2), pkt(666), 3),
            EgressDecision::Hold
        );
        assert!(matches!(
            eg.on_copy(g, 0, NetNode(0), pkt(7), 3),
            EgressDecision::Divergence { .. }
        ));
        assert!(matches!(
            eg.on_copy(g, 0, NetNode(1), pkt(7), 3),
            EgressDecision::Forward(_)
        ));
    }

    #[test]
    fn egress_flags_a_divergent_last_copy_before_dropping_its_output() {
        let mut eg = EgressNode::new();
        let g = EndpointId(1);
        assert_eq!(
            eg.on_copy(g, 0, NetNode(0), pkt(7), 3),
            EgressDecision::Hold
        );
        assert!(matches!(
            eg.on_copy(g, 0, NetNode(1), pkt(7), 3),
            EgressDecision::Forward(_)
        ));
        assert_eq!(
            eg.on_copy(g, 0, NetNode(2), pkt(8), 3),
            EgressDecision::Divergence { from: NetNode(2) }
        );
        assert_eq!(eg.held(), 0);
    }
}
