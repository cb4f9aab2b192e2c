//! # netsim — the network substrate of the StopWatch reproduction
//!
//! The paper's prototype runs on a real /24 campus subnet with OpenPGM for
//! packet replication and proposal exchange, plus ordinary TCP/UDP service
//! traffic. This crate rebuilds those pieces as deterministic, sans-I/O
//! models:
//!
//! * [`packet`] — packet/endpoint types with content hashing (for egress
//!   output voting);
//! * [`link`] — latency/jitter/loss link models and a FIFO-queued
//!   [`link::Fabric`];
//! * [`pgm`] — PGM-style NAK-based reliable multicast (RFC 3208 / OpenPGM),
//!   used for inbound-packet replication and VMM proposal exchange;
//! * [`tcp`] — TCP-lite (handshake, ACK-per-segment, fixed window, RTO),
//!   whose inbound ACK stream is what makes naive HTTP slow under StopWatch
//!   (Fig. 5);
//! * [`udp`] — UDP with NAK-based reliability, the paper's suggested
//!   StopWatch-friendly file transfer (Fig. 5);
//! * [`infra`] — the egress node (second-copy forwarding + output
//!   voting);
//! * [`background`] — the 50–100 pkt/s broadcast chatter of the testbed.

pub mod background;
pub mod infra;
pub mod link;
pub mod packet;
pub mod pgm;
pub mod tcp;
pub mod udp;

/// One-line import for the common types.
pub mod prelude {
    pub use crate::background::BroadcastSource;
    pub use crate::infra::{EgressDecision, EgressNode};
    pub use crate::link::{Fabric, LinkModel, NetNode};
    pub use crate::packet::{AppData, Body, EndpointId, Packet, TcpSegment, UdpKind, UdpSegment};
    pub use crate::pgm::{PgmPacket, PgmReceiver, PgmSender, RxOutput};
    pub use crate::tcp::{TcpConfig, TcpEndpoint, TcpEvent, TcpOutput, TcpState};
    pub use crate::udp::{UdpClientEvent, UdpFileClient, UdpFileServer, UDP_CHUNK};
}
