//! The transport seam: how combined wire packets leave a node.
//!
//! [`crate::net::EgressPump`] performs tier-2 combining — joining the
//! packet bodies flushed tier-1 buffers encoded once
//! ([`crate::wire::encode_packet`]) — and hands each per-destination body
//! to a [`Transport`]. No backend encodes or decodes: every one carries the
//! body unchanged, and every receiver hands it to
//! `Fabric::deliver_packet`, the one decode point. Three backends
//! implement the seam:
//!
//! - **channel** ([`crate::net::ChannelTransport`]): the in-process fabric.
//!   Charges the modeled send cost for the body, stamps the propagation
//!   delay, and forwards the bytes to the destination node's ingress
//!   channel. This is both the threaded engine's backend and the DST target
//!   (the simulator pumps the same code cooperatively under the virtual
//!   clock).
//! - **tcp** / **unix** ([`TcpTransport`]): a real socket backend. Bodies
//!   are length-prefix framed and written to per-peer streams; per-peer
//!   reader threads reassemble frames from arbitrary byte boundaries and
//!   deliver straight into the local fabric.
//!
//! ## Framing
//!
//! Every socket frame is `u32 len (LE) | u8 kind | body`, where `len`
//! counts the kind byte plus the body. Kinds:
//!
//! | kind | name    | body                                         |
//! |------|---------|----------------------------------------------|
//! | 1    | HELLO   | `u32 node` — sender's node id, first frame   |
//! | 2    | PACKET  | `u32 count`, then `count` wire msgs (`wire`) |
//! | 3    | GOODBYE | empty — sender will never write again        |
//!
//! Streams are directed: a node *connects* one stream to every peer and
//! uses it only for sending (HELLO first, GOODBYE last); every *accepted*
//! stream is receive-only. The mesh is therefore `n·(n-1)` directed
//! streams, and per-lane FIFO ordering reduces to TCP's in-order byte
//! stream.
//!
//! ## Drain-before-close
//!
//! The contract has a sender half and an acceptor half.
//!
//! *Sender.* [`Transport::end_of_stream`] runs on the egress thread after
//! the pump has consumed its `Shutdown` event. Because the egress channel is
//! FIFO, every packet the outboxes flushed before
//! [`crate::net::Fabric::shutdown`] has already been written to its socket
//! by then; `end_of_stream` then appends GOODBYE and closes the write half.
//!
//! *Acceptor.* A peer's `connect()` succeeds as soon as the kernel queues it
//! on our listen backlog, and the peer may write HELLO, its whole stream and
//! GOODBYE before our acceptor thread is next scheduled. Those bytes are
//! only ever read if the connection is `accept()`ed, so `end_of_stream`
//! raising `closing` must not stop the acceptor while the backlog is
//! non-empty: [`accept_peers`] reads the flag *before* each `accept()` and
//! leaves on it only when that `accept()` found nothing queued.
//!
//! Together: a receiver sees every frame of every flushed outbox of every
//! peer that finished connecting before the local `end_of_stream` — messages
//! are never truncated by shutdown.

use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use graphdance_common::time::now;
use graphdance_common::{GdError, GdResult, NodeId};
use parking_lot::Mutex;

use crate::net::{Fabric, Fate};

/// How combined wire packets leave a node (and, for socket backends, how
/// inbound bytes come back in). One transport instance serves one node.
pub trait Transport: Send + Sync {
    /// Backend name for diagnostics ("channel", "tcp", "unix").
    fn name(&self) -> &'static str;

    /// Attach the local fabric and start any background receive machinery.
    /// Called exactly once, before the egress pump runs.
    fn start(&self, fabric: Arc<Fabric>);

    /// Ship one combined packet body ([`crate::wire::encode_packet`]'s
    /// bytes, messages in lane-FIFO order) toward its destination node.
    fn ship(&self, dest_node: NodeId, body: Vec<u8>);

    /// The egress stream has ended (all flushed packets are shipped):
    /// propagate shutdown downstream. Socket backends append GOODBYE and
    /// close write halves; the channel backend forwards `Shutdown` to the
    /// ingress threads.
    fn end_of_stream(&self);
}

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

/// Frame kind: sender's node id, first frame on every stream.
pub const FRAME_HELLO: u8 = 1;
/// Frame kind: a combined wire packet.
pub const FRAME_PACKET: u8 = 2;
/// Frame kind: orderly end of stream.
pub const FRAME_GOODBYE: u8 = 3;

/// Upper bound on a single frame body. A corrupt length prefix surfaces as
/// a decode error instead of a multi-gigabyte allocation.
pub const MAX_FRAME_BYTES: usize = 64 << 20;

/// A parsed socket frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// Peer introduction (sender's node id).
    Hello {
        /// The sending peer's node id.
        node: NodeId,
    },
    /// A combined wire packet body ([`crate::wire::decode_packet`]).
    Packet(Vec<u8>),
    /// Orderly end of stream.
    Goodbye,
}

/// Encode one frame: `u32 len | u8 kind | body`.
pub fn encode_frame(buf: &mut Vec<u8>, kind: u8, body: &[u8]) {
    buf.extend_from_slice(&(body.len() as u32 + 1).to_le_bytes());
    buf.push(kind);
    buf.extend_from_slice(body);
}

/// Incremental frame reassembly for one inbound stream. Bytes arrive in
/// arbitrary chunks (1-byte reads, frames coalesced into one read, frames
/// split across reads); [`Reassembler::push`] buffers them and
/// [`Reassembler::pop`] yields complete frames. Corrupt prefixes and
/// unknown kinds surface as [`GdError`] — never a panic.
#[derive(Debug, Default)]
pub struct Reassembler {
    buf: Vec<u8>,
    /// Consumed prefix of `buf`; compacted opportunistically so the buffer
    /// doesn't grow without bound across frames.
    start: usize,
}

impl Reassembler {
    /// Empty reassembler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feed bytes read off the stream.
    pub fn push(&mut self, bytes: &[u8]) {
        if self.start > 0 && self.start == self.buf.len() {
            self.buf.clear();
            self.start = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet parsed.
    pub fn pending(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Pop the next complete frame, `Ok(None)` if more bytes are needed.
    pub fn pop(&mut self) -> GdResult<Option<Frame>> {
        let avail = &self.buf[self.start..];
        if avail.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes([avail[0], avail[1], avail[2], avail[3]]) as usize;
        if len == 0 || len > MAX_FRAME_BYTES {
            return Err(GdError::Internal(format!(
                "transport: corrupt frame length {len}"
            )));
        }
        if avail.len() < 4 + len {
            return Ok(None);
        }
        let kind = avail[4];
        let body = &avail[5..4 + len];
        let frame = match kind {
            FRAME_HELLO => {
                if body.len() != 4 {
                    return Err(GdError::Internal("transport: malformed HELLO frame".into()));
                }
                Frame::Hello {
                    node: NodeId(u32::from_le_bytes([body[0], body[1], body[2], body[3]])),
                }
            }
            FRAME_PACKET => Frame::Packet(body.to_vec()),
            FRAME_GOODBYE => {
                if !body.is_empty() {
                    return Err(GdError::Internal(
                        "transport: malformed GOODBYE frame".into(),
                    ));
                }
                Frame::Goodbye
            }
            k => {
                return Err(GdError::Internal(format!(
                    "transport: unknown frame kind {k}"
                )))
            }
        };
        self.start += 4 + len;
        // Compact once the consumed prefix dominates, amortizing the copy.
        if self.start > 4096 && self.start * 2 > self.buf.len() {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        Ok(Some(frame))
    }
}

// ---------------------------------------------------------------------------
// Addresses and streams
// ---------------------------------------------------------------------------

/// A peer's listen address: TCP (`host:port`) or Unix-domain
/// (`unix:/path/to.sock`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PeerAddr {
    /// TCP `host:port`.
    Tcp(String),
    /// Unix-domain socket path.
    Unix(PathBuf),
}

impl PeerAddr {
    /// Parse `host:port` or `unix:/path`.
    pub fn parse(s: &str) -> GdResult<PeerAddr> {
        if let Some(path) = s.strip_prefix("unix:") {
            if path.is_empty() {
                return Err(GdError::InvalidProgram(format!("bad peer address {s:?}")));
            }
            return Ok(PeerAddr::Unix(PathBuf::from(path)));
        }
        if !s.contains(':') {
            return Err(GdError::InvalidProgram(format!(
                "bad peer address {s:?} (expected host:port or unix:/path)"
            )));
        }
        Ok(PeerAddr::Tcp(s.to_string()))
    }
}

impl std::fmt::Display for PeerAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PeerAddr::Tcp(a) => write!(f, "{a}"),
            PeerAddr::Unix(p) => write!(f, "unix:{}", p.display()),
        }
    }
}

/// Which loopback socket family a mesh uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SocketFamily {
    /// TCP over `127.0.0.1` (ephemeral ports).
    Tcp,
    /// Unix-domain sockets under the system temp directory.
    Unix,
}

/// Distinguishes socket paths across repeated meshes inside one process
/// (the pid alone is not unique then).
// lint: allow(adhoc-counter) path uniquifier, not a metric
static SOCK_SEQ: AtomicU64 = AtomicU64::new(0);

impl SocketFamily {
    /// A loopback listen address nothing else is bound to: TCP port 0
    /// (resolved at bind), or a socket path no other call was given.
    pub fn fresh_addr(self) -> PeerAddr {
        match self {
            SocketFamily::Tcp => PeerAddr::Tcp("127.0.0.1:0".into()),
            SocketFamily::Unix => {
                // sync: uniquifier only; any distinct values do
                let seq = SOCK_SEQ.fetch_add(1, Ordering::Relaxed);
                let name = format!("gd-{}-{seq}.sock", std::process::id());
                PeerAddr::Unix(std::env::temp_dir().join(name))
            }
        }
    }
}

/// A connected stream of either family.
#[derive(Debug)]
enum Conn {
    Tcp(TcpStream),
    Unix(UnixStream),
}

impl Conn {
    fn connect(addr: &PeerAddr) -> std::io::Result<Conn> {
        match addr {
            PeerAddr::Tcp(a) => {
                let s = TcpStream::connect(a)?;
                // One combined packet per write: Nagle only adds latency.
                s.set_nodelay(true)?;
                Ok(Conn::Tcp(s))
            }
            PeerAddr::Unix(p) => Ok(Conn::Unix(UnixStream::connect(p)?)),
        }
    }

    fn shutdown_write(&self) {
        match self {
            Conn::Tcp(s) => {
                let _ = s.shutdown(Shutdown::Write);
            }
            Conn::Unix(s) => {
                let _ = s.shutdown(Shutdown::Write);
            }
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.write(buf),
            Conn::Unix(s) => s.write(buf),
        }
    }
    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Conn::Tcp(s) => s.flush(),
            Conn::Unix(s) => s.flush(),
        }
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.read(buf),
            Conn::Unix(s) => s.read(buf),
        }
    }
}

/// A bound, non-blocking listener of either family.
enum Listener {
    Tcp(TcpListener),
    Unix(UnixListener),
}

impl Listener {
    fn bind(addr: &PeerAddr) -> std::io::Result<Listener> {
        match addr {
            PeerAddr::Tcp(a) => {
                let l = TcpListener::bind(a)?;
                l.set_nonblocking(true)?;
                Ok(Listener::Tcp(l))
            }
            PeerAddr::Unix(p) => {
                // A stale socket file from a crashed predecessor would make
                // bind fail; remove it first.
                let _ = std::fs::remove_file(p);
                let l = UnixListener::bind(p)?;
                l.set_nonblocking(true)?;
                Ok(Listener::Unix(l))
            }
        }
    }

    /// The actual bound TCP address (for `port 0` auto-assignment).
    fn local_addr(&self) -> Option<std::net::SocketAddr> {
        match self {
            Listener::Tcp(l) => l.local_addr().ok(),
            Listener::Unix(_) => None,
        }
    }

    fn accept(&self) -> std::io::Result<Conn> {
        match self {
            Listener::Tcp(l) => {
                let (s, _) = l.accept()?;
                s.set_nonblocking(false)?;
                s.set_nodelay(true)?;
                Ok(Conn::Tcp(s))
            }
            Listener::Unix(l) => {
                let (s, _) = l.accept()?;
                s.set_nonblocking(false)?;
                Ok(Conn::Unix(s))
            }
        }
    }
}

// ---------------------------------------------------------------------------
// TcpTransport
// ---------------------------------------------------------------------------

/// Socket-backend counters (`net.tcp.*`). Plain atomics: the transport is
/// shared across the egress thread and per-peer reader threads, and these
/// counts feed the `transport_ab` bench and shutdown diagnostics.
#[derive(Debug, Default)]
pub struct TcpStats {
    frames_sent: AtomicU64, // lint: allow(adhoc-counter) net.tcp.* socket-backend counter
    frames_recv: AtomicU64, // lint: allow(adhoc-counter) net.tcp.* socket-backend counter
    bytes_sent: AtomicU64,  // lint: allow(adhoc-counter) net.tcp.* socket-backend counter
    bytes_recv: AtomicU64,  // lint: allow(adhoc-counter) net.tcp.* socket-backend counter
    write_syscalls: AtomicU64, // lint: allow(adhoc-counter) net.tcp.* socket-backend counter
    read_syscalls: AtomicU64, // lint: allow(adhoc-counter) net.tcp.* socket-backend counter
    connect_retries: AtomicU64, // lint: allow(adhoc-counter) net.tcp.* socket-backend counter
    send_errors: AtomicU64, // lint: allow(adhoc-counter) net.tcp.* socket-backend counter
}

/// Point-in-time copy of [`TcpStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TcpStatsSnapshot {
    /// PACKET frames written.
    pub frames_sent: u64,
    /// PACKET frames received and decoded.
    pub frames_recv: u64,
    /// Frame bytes written (all kinds, headers included).
    pub bytes_sent: u64,
    /// Bytes read off sockets.
    pub bytes_recv: u64,
    /// `write(2)` calls issued.
    pub write_syscalls: u64,
    /// `read(2)` calls issued.
    pub read_syscalls: u64,
    /// Connect attempts that had to back off and retry.
    pub connect_retries: u64,
    /// Packets dropped because the peer stream was gone.
    pub send_errors: u64,
}

impl TcpStats {
    fn snapshot(&self) -> TcpStatsSnapshot {
        // sync: monotonic diagnostic counters — torn cross-counter views
        // are acceptable in a snapshot
        let ld = |c: &AtomicU64| c.load(Ordering::Relaxed); // lint: allow(adhoc-counter) snapshot helper, no new counter
        TcpStatsSnapshot {
            frames_sent: ld(&self.frames_sent),
            frames_recv: ld(&self.frames_recv),
            bytes_sent: ld(&self.bytes_sent),
            bytes_recv: ld(&self.bytes_recv),
            write_syscalls: ld(&self.write_syscalls),
            read_syscalls: ld(&self.read_syscalls),
            connect_retries: ld(&self.connect_retries),
            send_errors: ld(&self.send_errors),
        }
    }
}

/// Configuration for [`TcpTransport`].
#[derive(Debug, Clone)]
pub struct TcpTransportConfig {
    /// This node's id (indexes `peers`).
    pub local: NodeId,
    /// Listen address of every node, indexed by node id. `peers[local]` is
    /// the local listen address.
    pub peers: Vec<PeerAddr>,
    /// Total budget for establishing each outbound stream.
    pub connect_timeout: Duration,
    /// Initial connect-retry backoff; doubles per retry up to 100 ms.
    pub retry_backoff: Duration,
}

impl TcpTransportConfig {
    /// Defaults: 10 s connect budget, 1 ms initial backoff.
    pub fn new(local: NodeId, peers: Vec<PeerAddr>) -> Self {
        TcpTransportConfig {
            local,
            peers,
            connect_timeout: Duration::from_secs(10),
            retry_backoff: Duration::from_millis(1),
        }
    }
}

/// The real-socket backend (TCP or Unix-domain). See the module docs for
/// the framing, mesh topology, and drain-before-close contract.
pub struct TcpTransport {
    cfg: TcpTransportConfig,
    /// The live peer table. Starts as `cfg.peers`; a launcher that binds
    /// every node on an ephemeral port first may replace it (with the
    /// resolved addresses) via [`TcpTransport::set_peers`] before `start`.
    peers: Mutex<Vec<PeerAddr>>,
    /// Outbound send streams, indexed by node id (`None` at the local
    /// index and for peers that disconnected).
    senders: Mutex<Vec<Option<Conn>>>,
    /// Bound at construction — before any peer tries to connect — and
    /// consumed by the acceptor thread in `start`.
    listener: Mutex<Option<Listener>>,
    /// The resolved local listen address (after `port 0` assignment).
    local_addr: PeerAddr,
    /// Acceptor + reader threads, joined at `end_of_stream`.
    threads: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>,
    /// Set once `end_of_stream` ran (stops the acceptor poll loop once the
    /// listen backlog is empty).
    closing: Arc<AtomicBool>,
    /// Reusable frame-encode scratch buffer (egress thread only).
    scratch: Mutex<Vec<u8>>,
    stats: Arc<TcpStats>,
}

impl TcpTransport {
    /// Bind the local listen address and prepare the transport. Binding
    /// happens here — before any peer process tries to connect — so
    /// `start` only has to dial outward.
    pub fn bind(cfg: TcpTransportConfig) -> GdResult<Arc<TcpTransport>> {
        let local = cfg.local.as_usize();
        if local >= cfg.peers.len() {
            return Err(GdError::InvalidProgram(format!(
                "local node {local} outside peer list of {}",
                cfg.peers.len()
            )));
        }
        let listener = Listener::bind(&cfg.peers[local])
            .map_err(|e| GdError::Internal(format!("bind {}: {e}", cfg.peers[local])))?;
        // Resolve `port 0` so tests can learn the assigned port.
        let local_addr = match listener.local_addr() {
            Some(a) => PeerAddr::Tcp(a.to_string()),
            None => cfg.peers[local].clone(),
        };
        let n = cfg.peers.len();
        let peers = Mutex::new(cfg.peers.clone());
        Ok(Arc::new(TcpTransport {
            cfg,
            peers,
            senders: Mutex::new((0..n).map(|_| None).collect()),
            listener: Mutex::new(Some(listener)),
            local_addr,
            threads: Arc::new(Mutex::new(Vec::new())),
            closing: Arc::new(AtomicBool::new(false)),
            scratch: Mutex::new(Vec::new()),
            stats: Arc::new(TcpStats::default()),
        }))
    }

    /// Bind `n` transports on fresh loopback addresses of `family` and
    /// install the resolved peer table on each: a whole mesh in one
    /// process, node `i` at index `i`, ready for [`Transport::start`].
    pub fn loopback_mesh(n: u32, family: SocketFamily) -> GdResult<Vec<Arc<TcpTransport>>> {
        let addrs: Vec<PeerAddr> = (0..n).map(|_| family.fresh_addr()).collect();
        let mesh = (0..n)
            .map(|i| TcpTransport::bind(TcpTransportConfig::new(NodeId(i), addrs.clone())))
            .collect::<GdResult<Vec<_>>>()?;
        // Port 0 resolved at bind: exchange what each listener really got.
        let resolved: Vec<PeerAddr> = mesh.iter().map(|t| t.local_addr().clone()).collect();
        mesh.iter().for_each(|t| t.set_peers(resolved.clone()));
        Ok(mesh)
    }

    /// The resolved local listen address (`port 0` replaced by the real
    /// port for TCP).
    pub fn local_addr(&self) -> &PeerAddr {
        &self.local_addr
    }

    /// Socket-level counters.
    pub fn stats(&self) -> TcpStatsSnapshot {
        self.stats.snapshot()
    }

    /// Replace the peer table before [`Transport::start`]. Launchers bind
    /// every node on an ephemeral port first, then exchange the resolved
    /// addresses and install them here; the cluster size is fixed at bind.
    ///
    /// # Panics
    /// Panics if the new list's length differs from the bind-time list.
    pub fn set_peers(&self, peers: Vec<PeerAddr>) {
        let mut cur = self.peers.lock();
        assert_eq!(
            cur.len(),
            peers.len(),
            "peer-list length is fixed at bind time"
        );
        *cur = peers;
    }

    /// Dial one peer with bounded retry + exponential backoff. Deadlines
    /// run on `common::time::now()` so the budget is uniform with the rest
    /// of the engine's timekeeping.
    fn dial(&self, addr: &PeerAddr) -> GdResult<Conn> {
        let deadline = now() + self.cfg.connect_timeout;
        let mut backoff = self.cfg.retry_backoff;
        loop {
            match Conn::connect(addr) {
                Ok(c) => return Ok(c),
                Err(e) => {
                    if now() + backoff >= deadline {
                        return Err(GdError::Internal(format!("connect {addr}: {e}")));
                    }
                    // sync: monotonic diagnostic counter
                    self.stats.connect_retries.fetch_add(1, Ordering::Relaxed);
                    // lint: allow(hot-path-blocking) startup-only connect retry
                    std::thread::sleep(backoff); // lint: allow(sim-determinism) real-socket backend, never sim-reachable
                    backoff = (backoff * 2).min(Duration::from_millis(100));
                }
            }
        }
    }
}

/// The acceptor: hand every inbound stream to `on_conn` until `expect`
/// peers have arrived, or shutdown has begun **and the listen backlog is
/// empty** — `closing` is read before each non-blocking `accept()` and ends
/// the loop only when that `accept()` found nothing queued (the acceptor
/// half of drain-before-close, see the module docs).
fn accept_peers(
    listener: &Listener,
    expect: usize,
    closing: &AtomicBool,
    mut on_conn: impl FnMut(Conn),
) {
    let mut accepted = 0usize;
    while accepted < expect {
        // sync: Acquire pairs with the Release store in `end_of_stream` —
        // whatever connected before shutdown began is on the backlog the
        // `accept()` below inspects
        let shutting_down = closing.load(Ordering::Acquire);
        match listener.accept() {
            Ok(conn) => {
                accepted += 1;
                on_conn(conn);
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                if shutting_down {
                    return;
                }
                // lint: allow(hot-path-blocking) startup-only accept poll
                std::thread::sleep(Duration::from_micros(200)); // lint: allow(sim-determinism) real-socket backend, never sim-reachable
            }
            Err(_) => return,
        }
    }
}

/// Read one inbound stream to completion: HELLO, then PACKET frames
/// delivered into the fabric, until GOODBYE or EOF. Framing and packet
/// decode errors are counted (`net.decode_errors`) and end the stream —
/// after a framing error the byte offsets are unrecoverable.
fn reader_loop(mut conn: Conn, fabric: Arc<Fabric>, stats: Arc<TcpStats>) {
    let mut asm = Reassembler::new();
    let mut chunk = vec![0u8; 64 << 10];
    let mut saw_hello = false;
    loop {
        let n = match conn.read(&mut chunk) {
            Ok(0) => return, // EOF without GOODBYE: peer died; quiesce
            Ok(n) => n,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => return,
        };
        // sync: monotonic diagnostic counter
        stats.read_syscalls.fetch_add(1, Ordering::Relaxed);
        // sync: monotonic diagnostic counter
        stats.bytes_recv.fetch_add(n as u64, Ordering::Relaxed);
        asm.push(&chunk[..n]);
        loop {
            match asm.pop() {
                Ok(None) => break,
                Ok(Some(Frame::Hello { .. })) => {
                    if saw_hello {
                        fabric.note_decode_error(GdError::Internal(
                            "transport: duplicate HELLO".into(),
                        ));
                        return;
                    }
                    saw_hello = true;
                }
                Ok(Some(Frame::Goodbye)) => return,
                Ok(Some(Frame::Packet(body))) => {
                    if fabric.deliver_packet(&body, |_| Fate::Deliver) {
                        // sync: monotonic diagnostic counter
                        stats.frames_recv.fetch_add(1, Ordering::Relaxed);
                    }
                    fabric.drive_coordinator();
                }
                Err(e) => {
                    fabric.note_decode_error(e);
                    return;
                }
            }
        }
    }
}

impl Transport for TcpTransport {
    fn name(&self) -> &'static str {
        match self.local_addr {
            PeerAddr::Tcp(_) => "tcp",
            PeerAddr::Unix(_) => "unix",
        }
    }

    /// Establish the full mesh: spawn the acceptor for inbound (receive)
    /// streams, dial every peer for outbound (send) streams, introduce
    /// ourselves with HELLO. Returns once all outbound streams are up;
    /// inbound streams finish handshaking on their reader threads.
    fn start(&self, fabric: Arc<Fabric>) {
        let n = self.cfg.peers.len();
        let local = self.cfg.local.as_usize();
        if n <= 1 {
            return;
        }
        // Acceptor: see `accept_peers`. Each accepted stream gets its own
        // reader thread immediately, so a slow peer can't head-of-line-block
        // the others' handshakes.
        if let Some(listener) = self.listener.lock().take() {
            let closing = Arc::clone(&self.closing);
            let fabric2 = Arc::clone(&fabric);
            let stats = Arc::clone(&self.stats);
            let readers = Arc::clone(&self.threads);
            let expect = n - 1;
            let acceptor = std::thread::Builder::new()
                .name(format!("gd-tcp-accept-{local}"))
                .spawn(move || {
                    accept_peers(&listener, expect, &closing, |conn| {
                        let fabric3 = Arc::clone(&fabric2);
                        let stats3 = Arc::clone(&stats);
                        let h = std::thread::Builder::new()
                            .name(format!("gd-tcp-read-{local}"))
                            .spawn(move || reader_loop(conn, fabric3, stats3))
                            // Mesh construction precedes queries.
                            .expect("spawn transport reader"); // lint: allow(hot-path-panics)
                        readers.lock().push(h);
                    });
                })
                // Mesh construction precedes all queries.
                .expect("spawn transport acceptor"); // lint: allow(hot-path-panics)
            self.threads.lock().push(acceptor);
        }
        // Outbound: dial every peer, introduce ourselves with HELLO.
        let mut hello = Vec::with_capacity(16);
        encode_frame(&mut hello, FRAME_HELLO, &self.cfg.local.0.to_le_bytes());
        let peers = self.peers.lock().clone();
        let mut senders = self.senders.lock();
        for node in 0..n {
            if node == local {
                continue;
            }
            match self.dial(&peers[node]) {
                Ok(mut conn) => {
                    if conn.write_all(&hello).is_ok() {
                        let nbytes = hello.len() as u64;
                        // sync: monotonic diagnostic counter
                        self.stats.write_syscalls.fetch_add(1, Ordering::Relaxed);
                        // sync: monotonic diagnostic counter
                        self.stats.bytes_sent.fetch_add(nbytes, Ordering::Relaxed);
                        senders[node] = Some(conn);
                    }
                }
                Err(e) => {
                    // A peer that never comes up is surfaced through the
                    // decode-error diagnostic and the ledger watchdog; the
                    // lane behaves like a dead link.
                    fabric.note_decode_error(e);
                }
            }
        }
    }

    fn ship(&self, dest_node: NodeId, body: Vec<u8>) {
        // The frame header and the body go out in one buffer, one
        // write_all per combined packet. That 1:1 packet-to-syscall shape
        // is what `transport_ab` measures against the modeled per-packet
        // cost.
        // lint: allow(hot-path-blocking) socket backend only — the DST
        // never constructs a TcpTransport, so no scheduler quantum can
        // reach this; the scratch mutex is per-transport and uncontended
        // (one egress pump ships at a time per node)
        let mut frame = self.scratch.lock();
        frame.clear();
        encode_frame(&mut frame, FRAME_PACKET, &body);
        // lint: allow(hot-path-blocking) socket backend only — unreachable
        // from the DST (see scratch lock above); held for one write_all
        let mut senders = self.senders.lock();
        let slot = &mut senders[dest_node.as_usize()];
        let Some(conn) = slot.as_mut() else {
            // sync: monotonic diagnostic counter
            self.stats.send_errors.fetch_add(1, Ordering::Relaxed);
            return;
        };
        match conn.write_all(&frame) {
            Ok(()) => {
                // sync: monotonic diagnostic counter
                self.stats.write_syscalls.fetch_add(1, Ordering::Relaxed);
                // sync: monotonic diagnostic counter
                self.stats.frames_sent.fetch_add(1, Ordering::Relaxed);
                let nbytes = frame.len() as u64;
                // sync: monotonic diagnostic counter
                self.stats.bytes_sent.fetch_add(nbytes, Ordering::Relaxed);
            }
            Err(_) => {
                // sync: monotonic diagnostic counter
                self.stats.send_errors.fetch_add(1, Ordering::Relaxed);
                *slot = None;
            }
        }
    }

    /// Drain-before-close. Sender half: every packet flushed before
    /// shutdown has been `write_all`'d by the FIFO egress pump, so appending
    /// GOODBYE and closing the write half lets receivers see the full
    /// stream. Acceptor half: raising `closing` does not stop the acceptor
    /// until the listen backlog is empty ([`accept_peers`]), so every peer
    /// already connected gets the reader that the join below waits on.
    fn end_of_stream(&self) {
        // sync: Release pairs with the Acquire load in `accept_peers`
        self.closing.store(true, Ordering::Release);
        let mut goodbye = Vec::with_capacity(8);
        encode_frame(&mut goodbye, FRAME_GOODBYE, &[]);
        {
            let mut senders = self.senders.lock();
            for slot in senders.iter_mut() {
                if let Some(conn) = slot.as_mut() {
                    let _ = conn.write_all(&goodbye);
                    let _ = conn.flush();
                    // sync: monotonic diagnostic counter
                    self.stats.write_syscalls.fetch_add(1, Ordering::Relaxed);
                    conn.shutdown_write();
                }
                *slot = None;
            }
        }
        // Wait for peers' GOODBYEs: each reader exits when its peer closes.
        // Every node sends its own GOODBYE before joining, so the mesh
        // cannot deadlock here.
        loop {
            let Some(h) = self.threads.lock().pop() else {
                break;
            };
            let _ = h.join();
        }
        // Remove the Unix socket file we bound.
        if let PeerAddr::Unix(p) = &self.local_addr {
            let _ = std::fs::remove_file(p);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_roundtrip_through_arbitrary_chops() {
        let mut stream = Vec::new();
        encode_frame(&mut stream, FRAME_HELLO, &7u32.to_le_bytes());
        encode_frame(&mut stream, FRAME_PACKET, b"abcdef");
        encode_frame(&mut stream, FRAME_PACKET, b"");
        encode_frame(&mut stream, FRAME_GOODBYE, &[]);
        for chop in [1usize, 2, 3, 5, 7, stream.len()] {
            let mut asm = Reassembler::new();
            let mut got = Vec::new();
            for chunk in stream.chunks(chop) {
                asm.push(chunk);
                while let Some(f) = asm.pop().unwrap() {
                    got.push(f);
                }
            }
            assert_eq!(
                got,
                vec![
                    Frame::Hello { node: NodeId(7) },
                    Frame::Packet(b"abcdef".to_vec()),
                    Frame::Packet(Vec::new()),
                    Frame::Goodbye,
                ],
                "chop={chop}"
            );
            assert_eq!(asm.pending(), 0);
        }
    }

    #[test]
    fn corrupt_length_prefix_is_an_error_not_a_panic() {
        let mut asm = Reassembler::new();
        asm.push(&[0, 0, 0, 0, 9]); // len = 0
        assert!(asm.pop().is_err());
        let mut asm = Reassembler::new();
        asm.push(&u32::MAX.to_le_bytes());
        asm.push(&[FRAME_PACKET]);
        assert!(asm.pop().is_err(), "oversized length rejected before alloc");
    }

    #[test]
    fn unknown_kind_and_malformed_bodies_are_errors() {
        let mut asm = Reassembler::new();
        let mut buf = Vec::new();
        encode_frame(&mut buf, 42, b"??");
        asm.push(&buf);
        assert!(asm.pop().is_err());

        let mut asm = Reassembler::new();
        let mut buf = Vec::new();
        encode_frame(&mut buf, FRAME_HELLO, b"xx"); // HELLO body must be 4 bytes
        asm.push(&buf);
        assert!(asm.pop().is_err());

        let mut asm = Reassembler::new();
        let mut buf = Vec::new();
        encode_frame(&mut buf, FRAME_GOODBYE, b"trailing");
        asm.push(&buf);
        assert!(asm.pop().is_err());
    }

    #[test]
    fn reassembler_compacts_consumed_prefix() {
        let mut asm = Reassembler::new();
        let mut frame = Vec::new();
        encode_frame(&mut frame, FRAME_PACKET, &vec![0xAA; 2000]);
        for _ in 0..10 {
            asm.push(&frame);
            assert!(matches!(asm.pop().unwrap(), Some(Frame::Packet(_))));
        }
        assert_eq!(asm.pending(), 0);
        assert!(
            asm.buf.len() < 3 * frame.len(),
            "buffer stays bounded across frames (len {})",
            asm.buf.len()
        );
    }

    /// Run `check` against a bound listener of each family, on addresses no
    /// other test uses.
    fn on_each_family(tag: &str, check: impl Fn(&Listener, &PeerAddr)) {
        let tcp = Listener::bind(&PeerAddr::Tcp("127.0.0.1:0".into())).unwrap();
        let tcp_addr = PeerAddr::Tcp(tcp.local_addr().unwrap().to_string());
        check(&tcp, &tcp_addr);
        let path =
            std::env::temp_dir().join(format!("gd-accept-{}-{tag}.sock", std::process::id()));
        let unix_addr = PeerAddr::Unix(path.clone());
        check(&Listener::bind(&unix_addr).unwrap(), &unix_addr);
        let _ = std::fs::remove_file(path);
    }

    /// The drain-before-close race, pinned: peers whose `connect()` returned
    /// before shutdown began sit on the listen backlog, and an acceptor that
    /// first runs after `closing` was raised must still accept every one.
    #[test]
    fn acceptor_drains_the_backlog_after_closing_is_raised() {
        on_each_family("drain", |listener, addr| {
            let peers: Vec<Conn> = (0..3).map(|_| Conn::connect(addr).unwrap()).collect();
            let closing = AtomicBool::new(true);
            let mut accepted = Vec::new();
            accept_peers(listener, peers.len(), &closing, |c| accepted.push(c));
            assert_eq!(accepted.len(), 3, "{addr}: connected peers dropped");
        });
    }

    /// …and with the backlog empty, `closing` ends the wait for a peer that
    /// never connected.
    #[test]
    fn acceptor_stops_on_closing_once_the_backlog_is_empty() {
        on_each_family("stop", |listener, addr| {
            let _peer = Conn::connect(addr).unwrap();
            let closing = AtomicBool::new(true);
            let mut accepted = 0;
            accept_peers(listener, 2, &closing, |_| accepted += 1);
            assert_eq!(accepted, 1, "{addr}");
        });
    }

    #[test]
    fn peer_addr_parses_both_families() {
        assert_eq!(
            PeerAddr::parse("127.0.0.1:9000").unwrap(),
            PeerAddr::Tcp("127.0.0.1:9000".into())
        );
        assert_eq!(
            PeerAddr::parse("unix:/tmp/x.sock").unwrap(),
            PeerAddr::Unix(PathBuf::from("/tmp/x.sock"))
        );
        assert!(PeerAddr::parse("nonsense").is_err());
        assert!(PeerAddr::parse("unix:").is_err());
    }
}
