//! The Fig. 5 workload: file retrieval from a cloud web server, over HTTP
//! (TCP-lite, ACK-per-segment — slow under StopWatch because every inbound
//! ACK crosses the Δn/median machinery) and over UDP with NAK reliability
//! (fast under StopWatch: almost nothing flows inbound).

use crate::registry::{Installed, ParamSpec, Workload, WorkloadOutcome, WorkloadParams};
use netsim::packet::{AppData, Body, EndpointId, Packet};
use netsim::tcp::{TcpConfig, TcpEndpoint, TcpEvent, TcpState};
use netsim::udp::{UdpClientEvent, UdpFileClient, UdpFileServer};
use simkit::time::{SimDuration, SimTime};
use std::collections::{BTreeMap, VecDeque};
use stopwatch_core::cloud::{ClientApp, CloudBuilder};
use stopwatch_core::schema::ValueType;
use storage::block::BlockRange;
use storage::device::DiskOp;
use vmm::channel::ChannelKind;
use vmm::guest::{GuestEnv, GuestProgram};

/// Request kind: fetch file `a` of `b` bytes.
pub const APP_GET: u32 = 1;

fn file_range(file_id: u64, bytes: u64) -> BlockRange {
    let blocks = bytes
        .div_ceil(u64::from(storage::block::BLOCK_BYTES))
        .max(1) as u32;
    // Files laid out contiguously, 4 MiB apart.
    BlockRange::new(file_id * 1024, blocks.min(4096))
}

fn vnow(env: &GuestEnv) -> SimTime {
    // Guest-side protocol timers run on virtual time (determinism).
    SimTime::from_nanos(env.now.as_nanos())
}

/// A web server guest serving files over TCP (Apache in the paper).
pub struct FileServerGuest {
    cfg: TcpConfig,
    conns: BTreeMap<u64, TcpEndpoint>,
    awaiting_disk: VecDeque<(u64, u64)>, // (conn, bytes) FIFO
    ready_to_send: VecDeque<(u64, u64)>, // disk done, waiting for handshake
    served: u64,
}

impl FileServerGuest {
    /// Creates the server.
    pub fn new() -> Self {
        FileServerGuest {
            cfg: TcpConfig::default(),
            conns: BTreeMap::new(),
            awaiting_disk: VecDeque::new(),
            ready_to_send: VecDeque::new(),
            served: 0,
        }
    }

    /// Files fully handed to TCP so far.
    pub fn served(&self) -> u64 {
        self.served
    }

    fn pump(out: netsim::tcp::TcpOutput, env: &mut GuestEnv) -> Vec<TcpEvent> {
        for pkt in out.packets {
            env.send(pkt.dst(), pkt.into_body());
        }
        out.events
    }

    /// Sends every disk-completed response whose connection has finished its
    /// handshake. A request can overtake the handshake ACK on the fabric, so
    /// a response may become ready while the connection is still in
    /// `SynReceived`; it is held here until the ACK lands.
    fn flush_ready(&mut self, env: &mut GuestEnv) {
        let mut held = VecDeque::new();
        while let Some((conn, bytes)) = self.ready_to_send.pop_front() {
            match self.conns.get_mut(&conn) {
                Some(ep) if ep.state() == TcpState::Established => {
                    self.served += 1;
                    for pkt in ep.send_stream(bytes, None, true) {
                        env.send(pkt.dst(), pkt.into_body());
                    }
                }
                Some(_) => held.push_back((conn, bytes)),
                None => {}
            }
        }
        self.ready_to_send = held;
    }
}

impl Default for FileServerGuest {
    fn default() -> Self {
        Self::new()
    }
}

impl GuestProgram for FileServerGuest {
    fn on_packet(&mut self, packet: &Packet, env: &mut GuestEnv) {
        let Body::Tcp(seg) = packet.body() else {
            return;
        };
        let now = vnow(env);
        let ep = self.conns.entry(seg.conn).or_insert_with(|| {
            TcpEndpoint::server(self.cfg, seg.conn, packet.dst(), packet.src(), now)
        });
        let events = Self::pump(ep.on_segment(seg, now), env);
        for ev in events {
            if let TcpEvent::Request(app) = ev {
                if app.kind == APP_GET {
                    // Cold start: read the file from disk, then respond
                    // (the response is sent from on_disk_done).
                    self.awaiting_disk.push_back((seg.conn, app.b));
                    env.disk_read(file_range(app.a, app.b));
                }
            }
        }
        self.flush_ready(env);
    }

    fn on_disk_done(&mut self, op: DiskOp, _range: BlockRange, _data: &[u64], env: &mut GuestEnv) {
        if op != DiskOp::Read {
            return;
        }
        let Some((conn, bytes)) = self.awaiting_disk.pop_front() else {
            return;
        };
        self.ready_to_send.push_back((conn, bytes));
        self.flush_ready(env);
    }

    fn on_timer(&mut self, env: &mut GuestEnv) {
        // Drive retransmission timers in virtual time.
        let now = vnow(env);
        let mut out = Vec::new();
        for ep in self.conns.values_mut() {
            out.extend(ep.on_tick(now));
        }
        for pkt in out {
            env.send(pkt.dst(), pkt.into_body());
        }
        self.flush_ready(env);
    }

    fn wants_timer(&self) -> bool {
        true
    }

    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        Some(self)
    }
}

/// One completed download's measurements.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DownloadResult {
    /// Wall-clock latency as the client saw it.
    pub latency: SimDuration,
    /// Bytes retrieved.
    pub bytes: u64,
}

/// An HTTP (TCP) download client — the paper's laptop on campus wireless.
pub struct HttpDownloadClient {
    me: EndpointId,
    server: EndpointId,
    file_id: u64,
    bytes: u64,
    remaining: u32,
    cfg: TcpConfig,
    next_conn: u64,
    current: Option<(TcpEndpoint, SimTime)>,
    results: Vec<DownloadResult>,
    /// Total TCP segments the client sent / received (Fig. 6b-style
    /// accounting).
    pub sent_segments: u64,
    /// Total TCP segments received.
    pub received_segments: u64,
}

impl HttpDownloadClient {
    /// A client that downloads file `file_id` (`bytes` long) `count` times
    /// sequentially, a fresh connection each time.
    pub fn new(me: EndpointId, server: EndpointId, file_id: u64, bytes: u64, count: u32) -> Self {
        HttpDownloadClient {
            me,
            server,
            file_id,
            bytes,
            remaining: count,
            cfg: TcpConfig::default(),
            next_conn: 1,
            current: None,
            results: Vec::new(),
            sent_segments: 0,
            received_segments: 0,
        }
    }

    /// Completed downloads.
    pub fn results(&self) -> &[DownloadResult] {
        &self.results
    }

    fn start_download(&mut self, now: SimTime) -> Vec<Packet> {
        if self.remaining == 0 || self.current.is_some() {
            return Vec::new();
        }
        self.remaining -= 1;
        let conn = self.next_conn;
        self.next_conn += 1;
        let (ep, syn) = TcpEndpoint::client(self.cfg, conn, self.me, self.server, now);
        self.current = Some((ep, now));
        self.sent_segments += 1;
        vec![syn]
    }
}

impl ClientApp for HttpDownloadClient {
    fn on_start(&mut self, now: SimTime) -> Vec<Packet> {
        self.start_download(now)
    }

    fn on_packet(&mut self, packet: &Packet, now: SimTime) -> Vec<Packet> {
        let Body::Tcp(seg) = packet.body() else {
            return Vec::new();
        };
        self.received_segments += 1;
        let Some((ep, started)) = self.current.as_mut() else {
            return Vec::new();
        };
        let out = ep.on_segment(seg, now);
        self.sent_segments += out.packets.len() as u64;
        let mut pkts = out.packets;
        for ev in out.events {
            match ev {
                TcpEvent::Connected => {
                    // Request the file.
                    let app = AppData {
                        kind: APP_GET,
                        a: self.file_id,
                        b: self.bytes,
                    };
                    let reqs = ep.send_stream(200, Some(app), false);
                    self.sent_segments += reqs.len() as u64;
                    pkts.extend(reqs);
                }
                TcpEvent::PeerFinished { total } => {
                    let latency = now.duration_since(*started);
                    self.results.push(DownloadResult {
                        latency,
                        bytes: total,
                    });
                    self.current = None;
                    pkts.extend(self.start_download(now));
                    break;
                }
                _ => {}
            }
        }
        pkts
    }

    fn on_tick(&mut self, now: SimTime) -> Vec<Packet> {
        if let Some((ep, _)) = self.current.as_mut() {
            let pkts = ep.on_tick(now);
            self.sent_segments += pkts.len() as u64;
            pkts
        } else {
            self.start_download(now)
        }
    }

    fn is_done(&self) -> bool {
        self.remaining == 0 && self.current.is_none()
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// A web server guest serving files over UDP with NAK reliability.
pub struct UdpFileGuest {
    inner: UdpFileServer,
    awaiting_disk: VecDeque<(EndpointId, netsim::packet::UdpSegment)>,
}

impl UdpFileGuest {
    /// Creates the server (its endpoint is patched from the first packet).
    pub fn new() -> Self {
        UdpFileGuest {
            inner: UdpFileServer::new(EndpointId(0)),
            awaiting_disk: VecDeque::new(),
        }
    }
}

impl Default for UdpFileGuest {
    fn default() -> Self {
        Self::new()
    }
}

impl GuestProgram for UdpFileGuest {
    fn on_packet(&mut self, packet: &Packet, env: &mut GuestEnv) {
        let Body::Udp(seg) = packet.body() else {
            return;
        };
        self.inner = UdpFileServer::new(packet.dst()); // keep local id fresh
        match &seg.kind {
            netsim::packet::UdpKind::Request(app) => {
                // Cold start: disk first, stream from on_disk_done.
                self.awaiting_disk.push_back((packet.src(), seg.clone()));
                env.disk_read(file_range(app.a, app.b));
            }
            netsim::packet::UdpKind::Nak(_) => {
                // Retransmissions come from the page cache: no disk.
                for pkt in self.inner.on_datagram(packet.src(), seg) {
                    env.send(pkt.dst(), pkt.into_body());
                }
            }
            _ => {}
        }
    }

    fn on_disk_done(&mut self, op: DiskOp, _range: BlockRange, _data: &[u64], env: &mut GuestEnv) {
        if op != DiskOp::Read {
            return;
        }
        let Some((from, seg)) = self.awaiting_disk.pop_front() else {
            return;
        };
        for pkt in self.inner.on_datagram(from, &seg) {
            env.send(pkt.dst(), pkt.into_body());
        }
    }

    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        Some(self)
    }
}

/// A UDP-NAK download client.
pub struct UdpDownloadClient {
    me: EndpointId,
    server: EndpointId,
    file_id: u64,
    bytes: u64,
    remaining: u32,
    next_stream: u64,
    current: Option<(UdpFileClient, SimTime)>,
    results: Vec<DownloadResult>,
    /// Datagrams this client sent toward the server.
    pub sent_datagrams: u64,
}

impl UdpDownloadClient {
    /// A client that fetches file `file_id` (`bytes` long) `count` times.
    pub fn new(me: EndpointId, server: EndpointId, file_id: u64, bytes: u64, count: u32) -> Self {
        UdpDownloadClient {
            me,
            server,
            file_id,
            bytes,
            remaining: count,
            next_stream: 1,
            current: None,
            results: Vec::new(),
            sent_datagrams: 0,
        }
    }

    /// Completed downloads.
    pub fn results(&self) -> &[DownloadResult] {
        &self.results
    }

    fn start(&mut self, now: SimTime) -> Vec<Packet> {
        if self.remaining == 0 || self.current.is_some() {
            return Vec::new();
        }
        self.remaining -= 1;
        let stream = self.next_stream;
        self.next_stream += 1;
        let app = AppData {
            kind: APP_GET,
            a: self.file_id,
            b: self.bytes,
        };
        let (client, req) = UdpFileClient::start(
            self.me,
            self.server,
            stream,
            app,
            now,
            SimDuration::from_millis(100),
        );
        self.current = Some((client, now));
        self.sent_datagrams += 1;
        vec![req]
    }
}

impl ClientApp for UdpDownloadClient {
    fn on_start(&mut self, now: SimTime) -> Vec<Packet> {
        self.start(now)
    }

    fn on_packet(&mut self, packet: &Packet, now: SimTime) -> Vec<Packet> {
        let Body::Udp(seg) = packet.body() else {
            return Vec::new();
        };
        let Some((client, started)) = self.current.as_mut() else {
            return Vec::new();
        };
        let (pkts, events) = client.on_datagram(seg, now);
        self.sent_datagrams += pkts.len() as u64;
        if let Some(UdpClientEvent::Complete { .. }) = events.into_iter().next() {
            let latency = now.duration_since(*started);
            self.results.push(DownloadResult {
                latency,
                bytes: self.bytes,
            });
            self.current = None;
            let mut out = pkts;
            out.extend(self.start(now));
            return out;
        }
        pkts
    }

    fn on_tick(&mut self, now: SimTime) -> Vec<Packet> {
        if let Some((client, _)) = self.current.as_mut() {
            let pkts = client.on_tick(now);
            self.sent_datagrams += pkts.len() as u64;
            pkts
        } else {
            self.start(now)
        }
    }

    fn is_done(&self) -> bool {
        self.remaining == 0 && self.current.is_none()
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// Shared parameter schema of the two file-retrieval workloads.
const WEB_PARAMS: &[ParamSpec] = &[
    ParamSpec {
        key: "bytes",
        ty: ValueType::Int,
        default: "100000",
        doc: "file size retrieved per download, bytes",
    },
    ParamSpec {
        key: "downloads",
        ty: ValueType::Int32,
        default: "3",
        doc: "sequential downloads per run",
    },
    ParamSpec {
        key: "file_id",
        ty: ValueType::Int,
        default: "1",
        doc: "file identifier requested from the server",
    },
];

/// The `"web-http"` workload: a [`FileServerGuest`] measured by an
/// [`HttpDownloadClient`] (Fig. 5's TCP arm).
pub const WEB_HTTP: Workload = Workload {
    name: "web-http",
    about: "file retrieval over HTTP/TCP, ACK-per-segment (Fig. 5)",
    params: WEB_PARAMS,
    channels: &[ChannelKind::Net, ChannelKind::Disk],
    install: install_http,
};

/// The `"web-udp"` workload: a [`UdpFileGuest`] measured by a
/// [`UdpDownloadClient`] (Fig. 5's UDP-NAK arm).
pub const WEB_UDP: Workload = Workload {
    name: "web-udp",
    about: "file retrieval over UDP with NAK reliability (Fig. 5)",
    params: WEB_PARAMS,
    channels: &[ChannelKind::Net, ChannelKind::Disk],
    install: install_udp,
};

/// The [`WEB_PARAMS`] values: `(bytes, downloads, file_id)`.
fn download_params(params: &WorkloadParams) -> Result<(u64, u32, u64), String> {
    Ok((
        params.get(WEB_PARAMS, "bytes")?,
        params.get(WEB_PARAMS, "downloads")?,
        params.get(WEB_PARAMS, "file_id")?,
    ))
}

/// One sample per finished download: its latency.
fn download_outcome(results: &[DownloadResult], extra: Vec<(String, f64)>) -> WorkloadOutcome {
    let samples = results.iter().map(|r| r.latency.as_millis_f64()).collect();
    WorkloadOutcome::per_sample(samples, extra)
}

fn install_http(
    b: &mut CloudBuilder,
    hosts: &[usize],
    params: &WorkloadParams,
) -> Result<Installed, String> {
    let (bytes, downloads, file_id) = download_params(params)?;
    let vm = b.add_defended_vm(hosts, || Box::new(FileServerGuest::new()));
    let me = b.next_client_endpoint();
    let client = b.add_client(Box::new(HttpDownloadClient::new(
        me,
        vm.endpoint,
        file_id,
        bytes,
        downloads,
    )));
    Ok(Installed {
        vm,
        collect: Box::new(move |sim| {
            let c = sim
                .cloud
                .client_app::<HttpDownloadClient>(client)
                .expect("client type");
            download_outcome(
                c.results(),
                vec![
                    ("sent_segments".to_string(), c.sent_segments as f64),
                    ("received_segments".to_string(), c.received_segments as f64),
                ],
            )
        }),
    })
}

fn install_udp(
    b: &mut CloudBuilder,
    hosts: &[usize],
    params: &WorkloadParams,
) -> Result<Installed, String> {
    let (bytes, downloads, file_id) = download_params(params)?;
    let vm = b.add_defended_vm(hosts, || Box::new(UdpFileGuest::new()));
    let me = b.next_client_endpoint();
    let client = b.add_client(Box::new(UdpDownloadClient::new(
        me,
        vm.endpoint,
        file_id,
        bytes,
        downloads,
    )));
    Ok(Installed {
        vm,
        collect: Box::new(move |sim| {
            let c = sim
                .cloud
                .client_app::<UdpDownloadClient>(client)
                .expect("client type");
            download_outcome(
                c.results(),
                vec![("sent_datagrams".to_string(), c.sent_datagrams as f64)],
            )
        }),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::time::SimTime;
    use stopwatch_core::cloud::CloudBuilder;
    use stopwatch_core::config::CloudConfig;

    fn download_once(stopwatch: bool, udp: bool, bytes: u64) -> (SimDuration, u64) {
        let mut b = CloudBuilder::new(CloudConfig::fast_test(), 3);
        let vm = if udp {
            if stopwatch {
                b.add_defended_vm(&[0, 1, 2], || Box::new(UdpFileGuest::new()))
            } else {
                b.add_baseline_vm(0, Box::new(UdpFileGuest::new()))
            }
        } else if stopwatch {
            b.add_defended_vm(&[0, 1, 2], || Box::new(FileServerGuest::new()))
        } else {
            b.add_baseline_vm(0, Box::new(FileServerGuest::new()))
        };
        let client_ep = EndpointId(2000);
        let client = if udp {
            b.add_client(Box::new(UdpDownloadClient::new(
                client_ep,
                vm.endpoint,
                1,
                bytes,
                1,
            )))
        } else {
            b.add_client(Box::new(HttpDownloadClient::new(
                client_ep,
                vm.endpoint,
                1,
                bytes,
                1,
            )))
        };
        let mut sim = b.build();
        sim.run_until_clients_done(SimTime::from_secs(60));
        let (latency, inbound) = if udp {
            let c = sim.cloud.client_app::<UdpDownloadClient>(client).unwrap();
            assert_eq!(c.results().len(), 1, "download must complete");
            (c.results()[0].latency, c.sent_datagrams)
        } else {
            let c = sim.cloud.client_app::<HttpDownloadClient>(client).unwrap();
            assert_eq!(c.results().len(), 1, "download must complete");
            (c.results()[0].latency, c.sent_segments)
        };
        (latency, inbound)
    }

    #[test]
    fn http_download_completes_baseline() {
        let (lat, _) = download_once(false, false, 100_000);
        assert!(lat.as_millis_f64() > 1.0);
        assert!(lat.as_millis_f64() < 2_000.0, "latency {lat}");
    }

    #[test]
    fn http_download_completes_stopwatch_and_is_slower() {
        let (base, _) = download_once(false, false, 100_000);
        let (sw, _) = download_once(true, false, 100_000);
        assert!(
            sw.as_millis_f64() > base.as_millis_f64() * 1.5,
            "StopWatch {sw} should cost much more than baseline {base}"
        );
    }

    #[test]
    fn udp_download_needs_few_inbound_packets() {
        let (_, inbound_udp) = download_once(true, true, 100_000);
        let (_, inbound_tcp) = download_once(true, false, 100_000);
        assert!(
            inbound_udp * 10 <= inbound_tcp,
            "UDP sent {inbound_udp} inbound packets vs TCP {inbound_tcp}"
        );
    }

    #[test]
    fn udp_stopwatch_competitive_with_udp_baseline() {
        let (base, _) = download_once(false, true, 200_000);
        let (sw, _) = download_once(true, true, 200_000);
        // The paper's headline: UDP-NAK over StopWatch is competitive with
        // baseline for files >= 100 KB (one Δn crossing amortized).
        assert!(
            sw.as_millis_f64() < base.as_millis_f64() * 2.5,
            "UDP StopWatch {sw} vs baseline {base}"
        );
    }
}
