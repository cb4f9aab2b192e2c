//! Link latency/loss models and the cloud's network fabric.
//!
//! Machines (hosts, the ingress and egress nodes, external client machines)
//! are [`NetNode`]s; a [`Fabric`] keeps one record per directed pair: its
//! [`LinkModel`], its deterministic RNG stream, and its FIFO transmitter
//! state, so packet timing differences between replica hosts — the thing
//! StopWatch's median machinery absorbs — are reproducible.

use simkit::fxhash::FxHashMap;
use simkit::rng::SimRng;
use simkit::time::{SimDuration, SimTime};

/// A machine on the physical network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NetNode(pub usize);

/// Latency, bandwidth and loss model of one directed link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkModel {
    /// Fixed propagation + switching delay.
    pub base_latency: SimDuration,
    /// Uniform jitter added on top (0 to `jitter`).
    pub jitter: SimDuration,
    /// Serialization rate in bits per second.
    pub bandwidth_bps: u64,
    /// Independent drop probability per packet.
    pub loss_prob: f64,
}

impl LinkModel {
    /// A campus-LAN-ish link: 0.3 ms base, 0.2 ms jitter, 1 Gb/s, lossless.
    /// Matches the paper's testbed (/24 subnet on a campus network).
    pub fn lan() -> Self {
        LinkModel {
            base_latency: SimDuration::from_micros(300),
            jitter: SimDuration::from_micros(200),
            bandwidth_bps: 1_000_000_000,
            loss_prob: 0.0,
        }
    }

    /// A campus-wireless client path: 2 ms base, 1.5 ms jitter, 50 Mb/s
    /// (the paper's client was a laptop on campus 802.11, a few wireless
    /// hops from the testbed subnet).
    pub fn wireless_client() -> Self {
        LinkModel {
            base_latency: SimDuration::from_millis(2),
            jitter: SimDuration::from_micros(1500),
            bandwidth_bps: 50_000_000,
            loss_prob: 0.0,
        }
    }

    /// Transfer time for `bytes` on this link, excluding queueing.
    pub fn serialization(&self, bytes: u32) -> SimDuration {
        let bits = u64::from(bytes) * 8;
        SimDuration::from_secs_f64(bits as f64 / self.bandwidth_bps as f64)
    }

    /// One-way delay draw for a packet of `bytes`.
    pub fn delay(&self, bytes: u32, rng: &mut SimRng) -> SimDuration {
        let jitter = if self.jitter.is_zero() {
            SimDuration::ZERO
        } else {
            rng.uniform_duration(SimDuration::ZERO, self.jitter)
        };
        self.base_latency + jitter + self.serialization(bytes)
    }

    /// Whether this packet is dropped.
    pub fn drops(&self, rng: &mut SimRng) -> bool {
        self.loss_prob > 0.0 && rng.chance(self.loss_prob)
    }
}

/// The network fabric: per-pair link models with a default, per-pair RNG
/// streams, and per-pair FIFO transmit queues.
///
/// # Examples
///
/// ```
/// use netsim::link::{Fabric, LinkModel, NetNode};
/// use simkit::rng::SimRng;
/// let mut fabric = Fabric::new(LinkModel::lan(), SimRng::new(1));
/// let d = fabric.delay(NetNode(0), NetNode(1), 1500);
/// assert!(d.as_millis_f64() > 0.2);
/// ```
#[derive(Debug, Clone)]
pub struct Fabric {
    default: LinkModel,
    rng_root: SimRng,
    /// Every pair that has been configured or used so far.
    links: FxHashMap<(NetNode, NetNode), Link>,
}

/// One directed link's state.
#[derive(Debug, Clone)]
struct Link {
    model: LinkModel,
    /// The link's own stream: a pure function of the fabric's root stream
    /// and the pair, so creating it early or late draws the same numbers.
    rng: SimRng,
    /// When the link's transmitter is next free. Cumulative serialization
    /// makes bulk sends pace out at wire rate instead of departing in
    /// parallel.
    free_at: SimTime,
}

impl Fabric {
    /// Creates a fabric where every pair uses `default`.
    pub fn new(default: LinkModel, rng: SimRng) -> Self {
        Fabric {
            default,
            rng_root: rng,
            links: FxHashMap::default(),
        }
    }

    /// Overrides the link model for the directed pair `(from, to)`.
    pub fn set_link(&mut self, from: NetNode, to: NetNode, model: LinkModel) {
        self.link_mut(from, to).model = model;
    }

    /// The model applied to `(from, to)`.
    pub fn link(&self, from: NetNode, to: NetNode) -> LinkModel {
        self.links
            .get(&(from, to))
            .map_or(self.default, |link| link.model)
    }

    /// The record of `(from, to)`, created with the default model on
    /// first use.
    fn link_mut(&mut self, from: NetNode, to: NetNode) -> &mut Link {
        let (root, default) = (&self.rng_root, self.default);
        self.links.entry((from, to)).or_insert_with(|| Link {
            model: default,
            rng: root.stream(&format!("link:{}->{}", from.0, to.0)),
            free_at: SimTime::ZERO,
        })
    }

    /// Draws the one-way delay for a packet of `bytes` from `from` to `to`,
    /// ignoring queueing (stateless draw).
    pub fn delay(&mut self, from: NetNode, to: NetNode, bytes: u32) -> SimDuration {
        let link = self.link_mut(from, to);
        link.model.delay(bytes, &mut link.rng)
    }

    /// Enqueues a packet of `bytes` on `(from, to)` at time `now` and
    /// returns its arrival time, accounting for FIFO serialization behind
    /// previously enqueued packets. `None` means the packet was dropped.
    pub fn transmit(
        &mut self,
        now: SimTime,
        from: NetNode,
        to: NetNode,
        bytes: u32,
    ) -> Option<SimTime> {
        let Link {
            model,
            rng,
            free_at,
        } = self.link_mut(from, to);
        if model.drops(rng) {
            return None;
        }
        let jitter = if model.jitter.is_zero() {
            SimDuration::ZERO
        } else {
            rng.uniform_duration(SimDuration::ZERO, model.jitter)
        };
        *free_at = now.max(*free_at) + model.serialization(bytes);
        Some(*free_at + model.base_latency + jitter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serialization_math() {
        let m = LinkModel {
            base_latency: SimDuration::ZERO,
            jitter: SimDuration::ZERO,
            bandwidth_bps: 8_000_000, // 1 MB/s
            loss_prob: 0.0,
        };
        assert_eq!(m.serialization(1_000_000), SimDuration::from_secs(1));
    }

    #[test]
    fn delay_within_bounds() {
        let m = LinkModel::lan();
        let mut rng = SimRng::new(3).stream("t");
        for _ in 0..200 {
            let d = m.delay(1500, &mut rng);
            assert!(d >= m.base_latency);
            assert!(d <= m.base_latency + m.jitter + m.serialization(1500));
        }
    }

    #[test]
    fn lossless_never_drops() {
        let m = LinkModel::lan();
        let mut rng = SimRng::new(4).stream("t");
        assert!((0..100).all(|_| !m.drops(&mut rng)));
    }

    #[test]
    fn lossy_drops_sometimes() {
        let m = LinkModel {
            loss_prob: 0.5,
            ..LinkModel::lan()
        };
        let mut rng = SimRng::new(5).stream("t");
        let drops = (0..1000).filter(|_| m.drops(&mut rng)).count();
        assert!((300..700).contains(&drops), "drops {drops}");
    }

    #[test]
    fn fabric_overrides_apply() {
        let mut f = Fabric::new(LinkModel::lan(), SimRng::new(1));
        f.set_link(NetNode(0), NetNode(1), LinkModel::wireless_client());
        assert_eq!(f.link(NetNode(0), NetNode(1)), LinkModel::wireless_client());
        assert_eq!(f.link(NetNode(1), NetNode(0)), LinkModel::lan());
    }

    #[test]
    fn fabric_streams_deterministic_and_independent() {
        let mk = || Fabric::new(LinkModel::lan(), SimRng::new(9));
        let (mut a, mut b) = (mk(), mk());
        let d1 = a.delay(NetNode(0), NetNode(1), 100);
        let d2 = b.delay(NetNode(0), NetNode(1), 100);
        assert_eq!(d1, d2, "same seed, same draw");
        // Different pairs use different streams: drawing on (0,2) first must
        // not change what (0,1) yields.
        let mut c = mk();
        c.delay(NetNode(0), NetNode(2), 100);
        let d3 = c.delay(NetNode(0), NetNode(1), 100);
        assert_eq!(d1, d3, "pairs have independent streams");
    }

    #[test]
    fn transmit_lossless_is_some() {
        let mut f = Fabric::new(LinkModel::lan(), SimRng::new(2));
        assert!(f
            .transmit(SimTime::ZERO, NetNode(0), NetNode(1), 64)
            .is_some());
    }

    #[test]
    fn transmit_fifo_paces_bulk_sends() {
        // 1 MB/s link, zero latency/jitter: ten 1000-byte packets enqueued
        // together must arrive 1 ms apart, not simultaneously.
        let model = LinkModel {
            base_latency: SimDuration::ZERO,
            jitter: SimDuration::ZERO,
            bandwidth_bps: 8_000_000,
            loss_prob: 0.0,
        };
        let mut f = Fabric::new(model, SimRng::new(3));
        let arrivals: Vec<SimTime> = (0..10)
            .map(|_| {
                f.transmit(SimTime::ZERO, NetNode(0), NetNode(1), 1000)
                    .unwrap()
            })
            .collect();
        for (i, t) in arrivals.iter().enumerate() {
            assert_eq!(t.as_nanos(), (i as u64 + 1) * 1_000_000, "packet {i}");
        }
        // After the queue drains, a later packet starts fresh.
        let late = f
            .transmit(SimTime::from_millis(100), NetNode(0), NetNode(1), 1000)
            .unwrap();
        assert_eq!(late, SimTime::from_millis(101));
    }

    #[test]
    fn transmit_queues_are_per_link() {
        let model = LinkModel {
            base_latency: SimDuration::ZERO,
            jitter: SimDuration::ZERO,
            bandwidth_bps: 8_000_000,
            loss_prob: 0.0,
        };
        let mut f = Fabric::new(model, SimRng::new(4));
        f.transmit(SimTime::ZERO, NetNode(0), NetNode(1), 1000)
            .unwrap();
        // A different pair is unaffected by (0,1)'s queue.
        let other = f
            .transmit(SimTime::ZERO, NetNode(0), NetNode(2), 1000)
            .unwrap();
        assert_eq!(other, SimTime::from_millis(1));
    }
}
