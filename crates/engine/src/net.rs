//! The simulated cluster network and the two-tier I/O scheduler (§IV-B).
//!
//! Topology: every *worker* has an inbox; the *coordinator* (on node 0) has
//! an inbox and no thread — the threads that put messages in it run it
//! ([`Fabric::drive_coordinator`]); every *node* has an egress thread (tier
//! 2 sender) and an ingress thread (delivery). A message from worker A on
//! node X to worker B on node Y travels:
//!
//! ```text
//! A --(tier-1 buffer, flush at 8 KB or idle, encode)--> X.egress
//!   --(join with other local packets to Y, charge cost model)--> Y.ingress
//!   --(propagation delay, decode)--> B.inbox
//! ```
//!
//! Same-node messages take the **shared-memory shortcut**: the tier-1 flush
//! delivers them straight into the destination inbox without serialization
//! or cost. A same-node traverser travels as an arena record in a
//! [`WorkerMsg::HandOff`] run ([`Outbox::send_handle`]), never flattened to
//! its wire form, yet sized as that form would be, so the flush schedule is
//! the wire lanes' (DESIGN.md §10). A remote message — traverser batch,
//! progress report, rows, or control plane alike — stays a Rust value in
//! its tier-1 buffer and is serialized exactly once, when its buffer is
//! flushed ([`wire::encode_packet`], on the sending thread); tier-2
//! combining joins those bytes (`wire::append_packet`), and every receiver
//! decodes the packet once, in `Fabric::deliver_packet`. The channel
//! backend charges `per_message_overhead + bytes/bandwidth` of (spun)
//! sender time per wire packet plus a propagation delay — reproducing the
//! NIC message-rate bottleneck that makes tier-1 combining matter
//! (Fig. 12). `bytes` is exact: the encoded body's length plus
//! [`PACKET_HEADER_BYTES`].

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use graphdance_common::time::now;

use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;
use rand::rngs::SmallRng;
use rand::RngCore;

use graphdance_common::{GdError, NodeId, Partitioner, QueryId, WorkerId};
use graphdance_pstm::{
    HandOff, LocalsTable, Row, Traverser, TraverserArena, TraverserHandle, Weight,
};

use crate::config::{EngineConfig, FaultInjection, IoMode, NetConfig};
use crate::coordinator::CoordSlot;
use crate::invariants::MsgLedger;
use crate::messages::{CoordMsg, WorkerMsg};
use crate::wire;

/// Classes of messages, for the Fig. 11 accounting.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MsgClass {
    /// Traverser batches.
    Traverser = 0,
    /// Progress-tracking reports.
    Progress = 1,
    /// Result rows and aggregation partials.
    Rows = 2,
    /// Control plane (query begin/end, stage advances, source starts).
    Control = 3,
}

/// The per-packet L2–L4 header the cost model charges and `net.wire_bytes`
/// counts on top of a packet's encoded body — the only modeled byte on the
/// wire.
pub const PACKET_HEADER_BYTES: usize = 64;

/// Shared network counters: eight monotonic atomics, the same on every
/// build. Message counts are added once per flushed tier-1 buffer — one
/// RMW per class present, not one per message: these are cache lines
/// every worker shares — and the wire figures once per packet, by the
/// egress pump. `NodeRuntime::metrics()` exports them under `net.*`.
#[derive(Debug, Default)]
pub struct NetStats {
    msgs: [AtomicU64; 4], // lint: allow(adhoc-counter) NetStats: per-flush totals, read by obs-off benches
    wire_packets: AtomicU64, // lint: allow(adhoc-counter) NetStats: per-packet total
    wire_bytes: AtomicU64, // lint: allow(adhoc-counter) NetStats: per-packet total
    same_node_msgs: AtomicU64, // lint: allow(adhoc-counter) NetStats: per-flush total
    decode_errors: AtomicU64, // lint: allow(adhoc-counter) NetStats: cold fault path
}

impl NetStats {
    /// Take a snapshot of the counters.
    pub fn snapshot(&self) -> NetStatsSnapshot {
        // sync: monotonic diagnostic counters — a torn cross-counter view
        // is acceptable in a stats snapshot
        let ld = |c: &AtomicU64| c.load(Ordering::Relaxed); // lint: allow(adhoc-counter) snapshot helper, no new counter
        NetStatsSnapshot {
            traverser_msgs: ld(&self.msgs[0]),
            progress_msgs: ld(&self.msgs[1]),
            rows_msgs: ld(&self.msgs[2]),
            control_msgs: ld(&self.msgs[3]),
            wire_packets: ld(&self.wire_packets),
            wire_bytes: ld(&self.wire_bytes),
            same_node_msgs: ld(&self.same_node_msgs),
            decode_errors: ld(&self.decode_errors),
        }
    }
}

/// Add `n` to one [`NetStats`] counter (nothing for `n == 0`: most flushes
/// carry one or two of the four classes).
// lint: allow(adhoc-counter) NetStats write helper, no new counter
fn bump(c: &AtomicU64, n: usize) {
    if n > 0 {
        // sync: monotonic diagnostic counter, no data published through it
        c.fetch_add(n as u64, Ordering::Relaxed);
    }
}

/// A point-in-time copy of [`NetStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStatsSnapshot {
    pub traverser_msgs: u64,
    pub progress_msgs: u64,
    pub rows_msgs: u64,
    pub control_msgs: u64,
    pub wire_packets: u64,
    pub wire_bytes: u64,
    pub same_node_msgs: u64,
    /// Undecodable packets and socket frames seen at ingress.
    pub decode_errors: u64,
}

impl NetStatsSnapshot {
    /// Counter delta since `earlier`.
    pub fn since(&self, earlier: &NetStatsSnapshot) -> NetStatsSnapshot {
        NetStatsSnapshot {
            traverser_msgs: self.traverser_msgs - earlier.traverser_msgs,
            progress_msgs: self.progress_msgs - earlier.progress_msgs,
            rows_msgs: self.rows_msgs - earlier.rows_msgs,
            control_msgs: self.control_msgs - earlier.control_msgs,
            wire_packets: self.wire_packets - earlier.wire_packets,
            wire_bytes: self.wire_bytes - earlier.wire_bytes,
            same_node_msgs: self.same_node_msgs - earlier.same_node_msgs,
            decode_errors: self.decode_errors - earlier.decode_errors,
        }
    }

    /// Messages that are not progress reports (Fig. 11's "other messages").
    pub fn other_msgs(&self) -> u64 {
        self.traverser_msgs + self.rows_msgs + self.control_msgs
    }
}

/// An addressed message: what a tier-1 buffer holds and a wire packet
/// carries ([`crate::wire`] is its one byte layout).
#[derive(Debug)]
pub enum WireMsg {
    /// A message for worker `dest` — a traverser batch
    /// ([`WorkerMsg::Batch`]), a same-node hand-off
    /// ([`WorkerMsg::HandOff`]) or the control plane.
    Worker {
        /// Destination worker.
        dest: WorkerId,
        /// The message.
        msg: WorkerMsg,
    },
    /// A message for the coordinator (on node 0).
    Coord(CoordMsg),
}

impl WireMsg {
    /// The Fig. 11 class this message is counted under.
    pub(crate) fn class(&self) -> MsgClass {
        match self {
            WireMsg::Worker {
                msg: WorkerMsg::Batch(_) | WorkerMsg::HandOff(_),
                ..
            } => MsgClass::Traverser,
            WireMsg::Coord(CoordMsg::Progress { .. }) => MsgClass::Progress,
            WireMsg::Coord(CoordMsg::Rows { .. } | CoordMsg::AggPartial { .. }) => MsgClass::Rows,
            _ => MsgClass::Control,
        }
    }

    /// Does this message flush its lane at once? The control plane does —
    /// except `QueryEnd`, which only releases state and rides the lane's
    /// next flush instead of forcing one.
    fn flushes_lane(&self) -> bool {
        self.class() == MsgClass::Control
            && !matches!(
                self,
                WireMsg::Worker {
                    msg: WorkerMsg::QueryEnd { .. },
                    ..
                }
            )
    }
}

pub(crate) enum EgressEvent {
    Packet {
        dest_node: NodeId,
        /// A flushed tier-1 buffer's messages ([`wire::encode_packet`]).
        body: Vec<u8>,
    },
    Shutdown,
}

pub(crate) enum IngressEvent {
    Packet {
        /// The sending node: packets of one `(src, dest)` path are
        /// delivered in the order they were shipped.
        src: NodeId,
        deliver_at: Instant,
        /// An encoded packet body ([`wire::encode_packet`]).
        body: Vec<u8>,
    },
    Shutdown,
}

/// What becomes of one decoded message in [`Fabric::deliver_packet`]: the
/// simulator's per-message drop / duplicate fault roll; every other
/// receiver delivers everything.
pub(crate) enum Fate {
    Deliver,
    Drop,
    /// Deliver the message's bytes decoded a second time, then the message.
    Duplicate,
}

/// Why a tier-1 buffer was flushed (flush tracing).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FlushTrigger {
    /// Buffered bytes crossed the flush threshold; also every per-message
    /// flush under `IoMode::Sync`.
    Threshold,
    /// A control-plane message forced the flush.
    Control,
    /// An explicit flush call (worker idle, query lifecycle, shutdown,
    /// tests).
    Explicit,
}

/// One tier-1 flush decision, recorded while flush tracing is on
/// ([`Fabric::record_flushes`]). The DST replay suite compares whole
/// traces across same-seed runs: the flush schedule must be
/// bit-identical.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FlushEvent {
    /// Clock offset from fabric creation (virtual time under the sim).
    pub at: Duration,
    /// Node the flushing outbox belongs to.
    pub src: NodeId,
    /// Destination node of the flushed lane.
    pub dest: NodeId,
    /// Bytes buffered toward the threshold at flush time. A control
    /// message is never sized, so a `Control` flush that carries nothing
    /// else reads 0.
    pub bytes: usize,
    /// What tripped the flush.
    pub trigger: FlushTrigger,
}

/// Sequencing state for [`FaultInjection::drop_batch_nth`]: a plain
/// counter guarded by the same mutex as an RNG derived from the engine
/// seed on the simulator's fault-schedule stream. Each candidate batch
/// consumes one draw, so the stream position stays in lockstep with the
/// arrival index and probabilistic ingress faults added to this path
/// later cannot shift an existing recorded schedule.
struct FaultState {
    rng: SmallRng,
    seen: u64,
}

/// The raw channel endpoints behind the per-node network threads. The
/// threaded engine consumes them inside [`Fabric::new`]'s spawned loops;
/// the deterministic simulator ([`crate::sim`]) takes them from
/// [`Fabric::new_sim`] and pumps them cooperatively instead.
pub(crate) struct NetChannels {
    pub egress_rx: Vec<Receiver<EgressEvent>>,
    pub ingress_tx: Vec<Sender<IngressEvent>>,
    pub ingress_rx: Vec<Receiver<IngressEvent>>,
}

/// The cluster fabric: inbox senders plus the tier-2 network threads.
pub struct Fabric {
    partitioner: Partitioner,
    io_mode: IoMode,
    flush_threshold: usize,
    net_cfg: NetConfig,
    worker_tx: Vec<Sender<WorkerMsg>>,
    coord_tx: Sender<CoordMsg>,
    /// The coordinator, when this process hosts it on threads
    /// ([`crate::coordinator::Coordinator::host`]).
    pub(crate) coordinator: CoordSlot,
    egress_tx: Vec<Sender<EgressEvent>>,
    stats: Arc<NetStats>,
    invariants: Arc<MsgLedger>,
    fault: FaultInjection,
    /// Deterministic `drop_batch_nth` sequencing (see [`FaultState`]).
    fault_state: Mutex<FaultState>,
    /// Whether this process sees the whole cluster's ledger (see
    /// [`Fabric::ledger_is_global`]). Cleared by
    /// [`Fabric::new_with_transport`].
    ledger_global: AtomicBool,
    /// Fabric creation time; flush-trace timestamps are offsets from this.
    epoch: Instant,
    /// Flush tracing toggle; off by default (zero steady-state cost).
    trace_flushes: AtomicBool,
    /// Recorded flush decisions while tracing is on.
    flush_trace: Mutex<Vec<FlushEvent>>,
    /// Packet bodies received while tracing is on.
    packet_trace: Mutex<Vec<Vec<u8>>>,
    /// Most recent undecodable-packet error, surfaced to diagnostics
    /// instead of stderr.
    last_decode_error: Mutex<Option<GdError>>,
    /// Cluster-wide observability state (registry + trace sink).
    #[cfg(feature = "obs")]
    obs: Arc<crate::obs::EngineObs>,
}

impl Fabric {
    /// Build the fabric and its network-channel endpoints without spawning
    /// any threads (shared by the threaded and simulated constructors).
    fn build(
        config: &EngineConfig,
        worker_tx: Vec<Sender<WorkerMsg>>,
        coord_tx: Sender<CoordMsg>,
    ) -> (Arc<Fabric>, NetChannels) {
        let partitioner = Partitioner::new(config.nodes, config.workers_per_node);
        #[cfg(feature = "obs")]
        let obs = Arc::new(crate::obs::EngineObs::new());
        let mut egress_tx = Vec::new();
        let mut egress_rx = Vec::new();
        let mut ingress_tx = Vec::new();
        let mut ingress_rx = Vec::new();
        for _ in 0..config.nodes {
            let (tx, rx) = unbounded();
            egress_tx.push(tx);
            egress_rx.push(rx);
            let (tx, rx) = unbounded();
            ingress_tx.push(tx);
            ingress_rx.push(rx);
        }
        let fabric = Arc::new(Fabric {
            partitioner,
            io_mode: config.io_mode,
            flush_threshold: config.flush_threshold,
            net_cfg: config.net,
            worker_tx,
            coordinator: CoordSlot::new(coord_tx.clone()),
            coord_tx,
            egress_tx,
            stats: Arc::new(NetStats::default()),
            invariants: Arc::new(MsgLedger::new()),
            fault: config.fault,
            fault_state: Mutex::new(FaultState {
                rng: graphdance_common::rng::derive(config.seed, crate::sim::FAULT_STREAM),
                seen: 0,
            }),
            ledger_global: AtomicBool::new(true),
            epoch: now(),
            trace_flushes: AtomicBool::new(false),
            flush_trace: Mutex::new(Vec::new()),
            packet_trace: Mutex::new(Vec::new()),
            last_decode_error: Mutex::new(None),
            #[cfg(feature = "obs")]
            obs,
        });
        let channels = NetChannels {
            egress_rx,
            ingress_tx,
            ingress_rx,
        };
        (fabric, channels)
    }

    /// Build the fabric and spawn the per-node network threads. Returns the
    /// fabric and the thread handles (joined at shutdown).
    pub fn new(
        config: &EngineConfig,
        worker_tx: Vec<Sender<WorkerMsg>>,
        coord_tx: Sender<CoordMsg>,
    ) -> (Arc<Fabric>, Vec<std::thread::JoinHandle<()>>) {
        let (fabric, channels) = Fabric::build(config, worker_tx, coord_tx);
        let NetChannels {
            egress_rx,
            ingress_tx,
            ingress_rx,
        } = channels;
        let mut handles = Vec::new();
        for (node, rx) in egress_rx.into_iter().enumerate() {
            let src = NodeId(node as u32);
            let pump = EgressPump::new(Arc::clone(&fabric), src, rx, ingress_tx.clone());
            handles.push(
                std::thread::Builder::new()
                    .name(format!("gd-egress-{node}"))
                    .spawn(move || pump.run())
                    // Fabric construction precedes all queries.
                    .expect("spawn egress"), // lint: allow(hot-path-panics)
            );
        }
        for (node, rx) in ingress_rx.into_iter().enumerate() {
            let fabric2 = Arc::clone(&fabric);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("gd-ingress-{node}"))
                    .spawn(move || ingress_loop(fabric2, rx))
                    // Fabric construction precedes all queries.
                    .expect("spawn ingress"), // lint: allow(hot-path-panics)
            );
        }
        (fabric, handles)
    }

    /// Build the fabric for one node of a **multi-process** cluster: the
    /// given transport backend carries packets between processes. Only the
    /// local node's egress pump is spawned (remote nodes run their own
    /// processes), and no ingress threads exist — the transport's reader
    /// threads deliver straight into `Fabric::deliver_packet`. The message
    /// ledger stays per-process (sends to remote nodes are recorded here,
    /// their deliveries in the receiving process), so
    /// [`Fabric::ledger_is_global`] reports `false` and cross-node
    /// conservation checks must be summed across processes.
    pub fn new_with_transport(
        config: &EngineConfig,
        local_node: NodeId,
        worker_tx: Vec<Sender<WorkerMsg>>,
        coord_tx: Sender<CoordMsg>,
        transport: Arc<dyn crate::transport::Transport>,
    ) -> (Arc<Fabric>, Vec<std::thread::JoinHandle<()>>) {
        let (fabric, channels) = Fabric::build(config, worker_tx, coord_tx);
        // sync: single-writer flag set before any reader thread exists
        fabric.ledger_global.store(false, Ordering::Relaxed);
        // Deliveries for queries whose sends happened in a peer process
        // must still be counted here (cross-process conservation is checked
        // by summing the per-process ledgers).
        fabric.invariants.set_local(true);
        transport.start(Arc::clone(&fabric));
        let mut egress_rx = channels.egress_rx;
        let rx = egress_rx.remove(local_node.as_usize());
        // The other nodes' egress/ingress endpoints die here: their outbox
        // lanes exist in *their* processes, and `Fabric::shutdown`'s sends
        // to the dead channels are ignored.
        let pump = EgressPump::with_transport(Arc::clone(&fabric), rx, transport);
        let handle = std::thread::Builder::new()
            .name(format!("gd-egress-{}", local_node.as_usize()))
            .spawn(move || pump.run())
            // Fabric construction precedes all queries.
            .expect("spawn egress"); // lint: allow(hot-path-panics)
        (fabric, vec![handle])
    }

    /// Build the fabric for the deterministic simulator: no threads are
    /// spawned; the caller receives the raw channel endpoints and pumps
    /// them itself (egress via [`EgressPump::pump`], ingress by draining
    /// `ingress_rx` under the virtual clock).
    pub(crate) fn new_sim(
        config: &EngineConfig,
        worker_tx: Vec<Sender<WorkerMsg>>,
        coord_tx: Sender<CoordMsg>,
    ) -> (Arc<Fabric>, NetChannels) {
        Fabric::build(config, worker_tx, coord_tx)
    }

    /// Topology.
    pub fn partitioner(&self) -> Partitioner {
        self.partitioner
    }

    /// Shared counters.
    pub fn stats(&self) -> &Arc<NetStats> {
        &self.stats
    }

    /// The message-conservation ledger (debug-build invariant checker).
    pub fn invariants(&self) -> &Arc<MsgLedger> {
        &self.invariants
    }

    /// Does this process see the whole cluster's ledger? `true` for the
    /// in-process fabrics; `false` under [`Fabric::new_with_transport`],
    /// where a cross-process send is recorded in the sender's ledger and
    /// its delivery in the receiver's — per-process sent==delivered checks
    /// would misfire, so the coordinator watchdog skips them.
    pub fn ledger_is_global(&self) -> bool {
        // sync: single-writer flag set at construction, read-only after
        self.ledger_global.load(Ordering::Relaxed)
    }

    /// The cluster's observability state (metrics registry + trace sink).
    #[cfg(feature = "obs")]
    pub fn obs(&self) -> &Arc<crate::obs::EngineObs> {
        &self.obs
    }

    /// Toggle tracing: the tier-1 flush decisions this fabric's outboxes
    /// make (see [`FlushEvent`]) and the packet bodies it receives.
    pub fn record_flushes(&self, on: bool) {
        // sync: tracing toggle — eventual visibility suffices, missed
        // events around the flip are acceptable
        self.trace_flushes.store(on, Ordering::Relaxed);
    }

    fn tracing(&self) -> bool {
        // sync: tracing toggle read, pairs with the Relaxed store in
        // record_flushes — no data guarded by the flag itself
        self.trace_flushes.load(Ordering::Relaxed)
    }

    /// Drain the recorded flush trace.
    pub fn take_flush_trace(&self) -> Vec<FlushEvent> {
        std::mem::take(&mut *self.flush_trace.lock())
    }

    /// Drain the packet bodies received while tracing, in arrival order —
    /// the bytes a backend carried, as `Fabric::deliver_packet` saw them.
    pub fn take_packet_trace(&self) -> Vec<Vec<u8>> {
        std::mem::take(&mut *self.packet_trace.lock())
    }

    /// Take the most recent undecodable-packet error, if any arrived.
    pub fn take_decode_error(&self) -> Option<GdError> {
        self.last_decode_error.lock().take()
    }

    fn note_flush(&self, src: NodeId, dest: NodeId, bytes: usize, trigger: FlushTrigger) {
        if !self.tracing() {
            return;
        }
        // lint: allow(hot-path-blocking) diagnostic trace, gated off by
        // default: bounded Vec push while held
        self.flush_trace.lock().push(FlushEvent {
            at: now() - self.epoch,
            src,
            dest,
            bytes,
            trigger,
        });
    }

    /// Create an outbox for a thread running on `src_node`.
    pub fn outbox(self: &Arc<Self>, src_node: NodeId) -> Outbox {
        let n = self.partitioner.nodes() as usize;
        Outbox {
            #[cfg(feature = "obs")]
            obs: self.obs.net_shard(),
            fabric: Arc::clone(self),
            src_node,
            bufs: (0..n).map(|_| OutBuf::default()).collect(),
            coord_mail: false,
        }
    }

    /// Run the coordinator hosted in this process, on this thread, if its
    /// inbox holds a message (see [`CoordSlot::drive`]): a no-op on a
    /// follower, in the simulator, or when another thread holds it. Call
    /// it after putting a message in the inbox, at a point where this
    /// thread holds no lock: a query's [`crate::ReplySink`] may run here.
    pub fn drive_coordinator(&self) {
        if self.coordinator.has_mail() {
            self.coordinator.drive();
        }
    }

    /// Stop the network threads (send after all workers have stopped).
    pub fn shutdown(&self) {
        for tx in &self.egress_tx {
            let _ = tx.send(EgressEvent::Shutdown);
        }
    }

    /// Should the next remote batch at ingress be dropped
    /// (`drop_batch_nth`)? Consumes one fault-stream draw per candidate.
    fn batch_drop_fault(&self) -> bool {
        let Some(nth) = self.fault.drop_batch_nth else {
            return false;
        };
        // lint: allow(hot-path-blocking) fault-injection state (tests/sim
        // only): two integer updates while held
        let mut st = self.fault_state.lock();
        st.seen += 1;
        let _ = st.rng.next_u64();
        st.seen == nth
    }

    /// Record an undecodable packet or socket frame: typed error for
    /// diagnostics plus the `net.decode_errors` counter — never stderr.
    /// Shared with the socket transport's reassembly path.
    pub(crate) fn note_decode_error(&self, e: GdError) {
        bump(&self.stats.decode_errors, 1);
        // lint: allow(hot-path-blocking) rare fault path: replaces one
        // Option while held
        *self.last_decode_error.lock() = Some(e);
    }

    /// The one decode point: decode a received packet body and deliver its
    /// messages, each as `fate` says. The channel ingress (threaded and
    /// simulated) and the socket readers all land here. A body that does
    /// not decode delivers nothing: it names no query we could fail, so the
    /// message-conservation watchdog surfaces the stalled query (debug
    /// builds) or its deadline fires (release); the error and a counter are
    /// kept for diagnostics. A message for, or introducing a query from, a
    /// worker outside the topology fails its packet the same way. Returns
    /// whether the body decoded.
    pub(crate) fn deliver_packet(
        &self,
        body: &[u8],
        mut fate: impl FnMut(&WireMsg) -> Fate,
    ) -> bool {
        if self.tracing() {
            // lint: allow(hot-path-blocking) diagnostic trace, gated off
            // by default: bounded Vec push while held
            self.packet_trace.lock().push(body.to_vec());
        }
        let msgs = match wire::decode_packet(body) {
            Ok(msgs) => msgs,
            Err(e) => {
                self.note_decode_error(e);
                return false;
            }
        };
        let stray = |w: &WorkerId| w.as_usize() >= self.worker_tx.len();
        if let Some(w) = msgs.iter().find_map(|(m, _)| match m {
            WireMsg::Worker { dest, .. } if stray(dest) => Some(*dest),
            WireMsg::Worker {
                msg: WorkerMsg::QueryBegin { from: Some(w), .. },
                ..
            } if stray(w) => Some(*w),
            _ => None,
        }) {
            self.note_decode_error(GdError::Internal(format!("wire: no worker {}", w.0)));
            return false;
        }
        for (msg, bytes) in msgs {
            match fate(&msg) {
                Fate::Deliver => self.deliver_remote(msg),
                Fate::Drop => {}
                Fate::Duplicate => {
                    // The same bytes decoded again: `delivered` overshoots
                    // `sent`, as a duplicating network would make it.
                    if let Ok(copy) = wire::decode_msg(bytes) {
                        self.deliver_remote(copy);
                    }
                    self.deliver_remote(msg);
                }
            }
        }
        true
    }

    /// Deliver one message that came off a wire: the only place
    /// `drop_batch_nth` can sink a traverser batch (one fault-stream draw
    /// per batch, in arrival order). A sunk batch leaves the ledger's
    /// `delivered` count short, which the watchdog turns into a diagnostic.
    fn deliver_remote(&self, msg: WireMsg) {
        if msg.class() == MsgClass::Traverser && self.batch_drop_fault() {
            return;
        }
        self.deliver(msg);
    }

    /// Hand a message to its inbox — the shared-memory shortcut, or after
    /// decode — recording ledger deliveries (traversers per query; no-op in
    /// release builds).
    fn deliver(&self, msg: WireMsg) {
        match msg {
            WireMsg::Worker { dest, msg } => {
                if MsgLedger::ENABLED {
                    let delivered = |q| self.invariants.record_delivered(q, 1);
                    match &msg {
                        WorkerMsg::Batch(ts) => ts.iter().for_each(|t| delivered(t.query)),
                        WorkerMsg::HandOff(run) => {
                            run.traversers.iter().for_each(|t| delivered(t.query))
                        }
                        _ => {}
                    }
                }
                let _ = self.worker_tx[dest.as_usize()].send(msg);
            }
            WireMsg::Coord(msg) => {
                let _ = self.coord_tx.send(msg);
            }
        }
    }
}

/// The in-process transport backend: charge the configured send cost for
/// the packet's encoded body, stamp the propagation delay, and forward the
/// bytes to the destination node's ingress channel. Used by both the
/// threaded engine (ingress threads drain the channels) and the
/// deterministic simulator (the sim drains them under the virtual clock).
pub(crate) struct ChannelTransport {
    fabric: Arc<Fabric>,
    /// The node whose egress pump ships through this transport.
    src: NodeId,
    ingress: Vec<Sender<IngressEvent>>,
}

impl crate::transport::Transport for ChannelTransport {
    fn name(&self) -> &'static str {
        "channel"
    }

    fn start(&self, _fabric: Arc<Fabric>) {}

    fn ship(&self, dest_node: NodeId, body: Vec<u8>) {
        let net = &self.fabric.net_cfg;
        charge(net.send_cost(body.len() + PACKET_HEADER_BYTES));
        let deliver_at = now() + net.propagation_delay;
        let _ = self.ingress[dest_node.as_usize()].send(IngressEvent::Packet {
            src: self.src,
            deliver_at,
            body,
        });
    }

    fn end_of_stream(&self) {
        // Propagate shutdown to every ingress thread once (node 0's egress
        // is guaranteed to exist; have each egress notify its own node's
        // ingress).
        for tx in &self.ingress {
            let _ = tx.send(IngressEvent::Shutdown);
        }
    }
}

/// One node's tier-2 sender (node-level combining). The threaded engine
/// runs [`EgressPump::run`] on a dedicated `gd-egress-N` thread; the
/// deterministic simulator holds the pump directly and calls
/// [`EgressPump::pump`] as a cooperatively-scheduled actor. Combined
/// packets leave through the [`crate::transport::Transport`] seam.
pub(crate) struct EgressPump {
    fabric: Arc<Fabric>,
    rx: Receiver<EgressEvent>,
    transport: Arc<dyn crate::transport::Transport>,
    /// This pump's single-writer metrics shard (packet-size histogram).
    #[cfg(feature = "obs")]
    obs: crate::obs::NetShard,
}

impl EgressPump {
    /// Node `src`'s in-process pump (threaded and simulated engines):
    /// packets ship over the [`ChannelTransport`].
    pub(crate) fn new(
        fabric: Arc<Fabric>,
        src: NodeId,
        rx: Receiver<EgressEvent>,
        ingress: Vec<Sender<IngressEvent>>,
    ) -> Self {
        let transport = Arc::new(ChannelTransport {
            fabric: Arc::clone(&fabric),
            src,
            ingress,
        });
        EgressPump::with_transport(fabric, rx, transport)
    }

    /// Pump shipping over an arbitrary transport backend (the real-socket
    /// multi-process engine).
    pub(crate) fn with_transport(
        fabric: Arc<Fabric>,
        rx: Receiver<EgressEvent>,
        transport: Arc<dyn crate::transport::Transport>,
    ) -> Self {
        EgressPump {
            #[cfg(feature = "obs")]
            obs: fabric.obs.net_shard(),
            fabric,
            rx,
            transport,
        }
    }

    /// Is an egress event queued?
    pub(crate) fn has_pending(&self) -> bool {
        !self.rx.is_empty()
    }

    /// Non-blocking quantum: process one queued event (plus tier-2
    /// combining) if there is one. Returns `false` once `Shutdown` has been
    /// consumed.
    pub(crate) fn pump(&self) -> bool {
        match self.rx.try_recv() {
            Ok(ev) => self.round(ev),
            Err(_) => true,
        }
    }

    /// Blocking loop for the threaded engine.
    pub(crate) fn run(self) {
        while let Ok(ev) = self.rx.recv() {
            if !self.round(ev) {
                break;
            }
        }
        // All flushed packets are shipped (FIFO): let the transport drain
        // and propagate shutdown downstream.
        self.transport.end_of_stream();
    }

    /// Combine `first` with whatever else is queued right now (tier 2)
    /// and ship the per-destination packets through the transport seam.
    /// Returns `false` if a `Shutdown` was consumed.
    fn round(&self, first: EgressEvent) -> bool {
        let fabric = &self.fabric;
        let first = match first {
            EgressEvent::Packet { dest_node, body } => (dest_node, body),
            EgressEvent::Shutdown => return false,
        };
        // Node-level combining (tier 2): merge whatever is queued right now
        // into per-destination wire packets.
        let mut alive = true;
        let mut groups: Vec<(NodeId, Vec<u8>)> = vec![first];
        if fabric.io_mode == IoMode::TwoTier {
            for _ in 0..64 {
                match self.rx.try_recv() {
                    Ok(EgressEvent::Packet { dest_node, body }) => {
                        if let Some(g) = groups.iter_mut().find(|g| g.0 == dest_node) {
                            wire::append_packet(&mut g.1, &body);
                        } else {
                            groups.push((dest_node, body));
                        }
                    }
                    Ok(EgressEvent::Shutdown) => {
                        // Transmit what we have, then exit.
                        alive = false;
                        break;
                    }
                    Err(_) => break,
                }
            }
        }
        for (dest_node, body) in groups {
            // Counted here, not in a backend's `ship`, so a socket mesh
            // reports its wire traffic like the in-process one.
            let wire = body.len() + PACKET_HEADER_BYTES;
            bump(&fabric.stats.wire_packets, 1);
            bump(&fabric.stats.wire_bytes, wire);
            #[cfg(feature = "obs")]
            self.obs.wire_packet(wire);
            self.transport.ship(dest_node, body);
        }
        alive
    }
}

fn ingress_loop(fabric: Arc<Fabric>, rx: Receiver<IngressEvent>) {
    // Drain-before-close: every egress pump broadcasts one `Shutdown` after
    // its last packet, and this channel is per-sender FIFO — so after one
    // `Shutdown` per pump has arrived, no pump can still have packets
    // queued here. Exiting on the *first* `Shutdown` instead would race a
    // quick-to-stop pump against another node's still-draining egress and
    // truncate its tail.
    let pumps = fabric.partitioner().nodes() as usize;
    let mut shutdowns = 0usize;
    while shutdowns < pumps {
        match rx.recv() {
            Ok(IngressEvent::Packet {
                deliver_at, body, ..
            }) => {
                // The remainder is at most `propagation_delay` (µs): `charge`
                // spins it out, where a sleep would round it up to the
                // host's timer slack (~70 µs here).
                charge(deliver_at.saturating_duration_since(now()));
                fabric.deliver_packet(&body, |_| Fate::Deliver);
                fabric.drive_coordinator();
            }
            Ok(IngressEvent::Shutdown) => shutdowns += 1,
            Err(_) => break, // all senders gone: nothing more can arrive
        }
    }
}

/// Burn (or sleep) a simulated cost: spins for sub-50 µs durations (sleep
/// granularity is too coarse), sleeps otherwise. Under a frozen clock the
/// cost advances virtual time instead — spinning on a clock that only the
/// simulator can move would hang forever.
pub(crate) fn charge(d: Duration) {
    if d.is_zero() {
        return;
    }
    if graphdance_common::time::sim::is_frozen() {
        graphdance_common::time::sim::advance(d);
        return;
    }
    if d > Duration::from_micros(50) {
        // lint: allow(hot-path-blocking) deliberate: charge() IS the cost
        // model — the sleep models wire latency in threaded mode
        std::thread::sleep(d); // lint: allow(sim-determinism) unreachable under a frozen clock (see above)
    } else {
        let end = now() + d;
        while now() < end {
            std::hint::spin_loop();
        }
    }
}

/// Tier-1 buffer for one destination node.
#[derive(Default)]
struct OutBuf {
    /// Unserialized traversers, grouped at flush time.
    traversers: Vec<(WorkerId, Traverser)>,
    /// Same-node lane only: one hand-off run per destination worker, in
    /// first-send order.
    handoffs: Vec<HandOffBuf>,
    /// Other pending wire messages (rows/progress/control), in send order.
    msgs: Vec<WireMsg>,
    /// Encoded bytes buffered toward the flush threshold:
    /// [`wire::encoded_len`] of each buffered traverser and message — a
    /// handed-off traverser's wire form included. Messages that flush
    /// their lane at once add nothing.
    bytes: usize,
}

impl OutBuf {
    fn is_empty(&self) -> bool {
        self.traversers.is_empty() && self.handoffs.is_empty() && self.msgs.is_empty()
    }
}

/// One destination worker's hand-off run, with the wire size of each of
/// its records ([`wire::locals_len`]), computed when the record joins.
struct HandOffBuf {
    dest: WorkerId,
    run: HandOff,
    record_bytes: Vec<usize>,
}

/// A sending endpoint: per-destination-node buffers (tier 1).
pub struct Outbox {
    fabric: Arc<Fabric>,
    src_node: NodeId,
    bufs: Vec<OutBuf>,
    /// A flush since the last [`Outbox::drive_coordinator`] put a message
    /// straight into this process's coordinator inbox.
    coord_mail: bool,
    /// This sender's single-writer metrics shard.
    #[cfg(feature = "obs")]
    obs: crate::obs::NetShard,
}

impl Outbox {
    /// The topology (convenience).
    pub fn partitioner(&self) -> Partitioner {
        self.fabric.partitioner()
    }

    fn maybe_flush(&mut self, node: usize) {
        match self.fabric.io_mode {
            IoMode::Sync => self.flush_node_as(NodeId(node as u32), FlushTrigger::Threshold),
            IoMode::ThreadCombining | IoMode::TwoTier => {
                if self.bufs[node].bytes >= self.fabric.flush_threshold {
                    #[cfg(feature = "obs")]
                    self.obs.flush_threshold();
                    self.flush_node_as(NodeId(node as u32), FlushTrigger::Threshold);
                }
            }
        }
    }

    /// Queue a traverser for `dest` (tier-1 buffering; flushes at the
    /// threshold, immediately under `Sync`). Returns the bytes it added
    /// toward the threshold: its encoded size.
    pub fn send_traverser(&mut self, dest: WorkerId, t: Traverser) -> usize {
        let node = self.fabric.partitioner.node_of_worker(dest).as_usize();
        self.fabric.invariants.record_sent(t.query, 1);
        let bytes = wire::encoded_len(&t);
        let buf = &mut self.bufs[node];
        buf.bytes += bytes;
        buf.traversers.push((dest, t));
        self.maybe_flush(node);
        bytes
    }

    /// Send arena traverser `h` to `dest`: handed off as an arena record
    /// when `dest` shares this node (`send_handoff`), flattened to its wire
    /// form otherwise. Returns the bytes it added toward the
    /// flush threshold — its wire form's either way.
    pub fn send_handle(
        &mut self,
        dest: WorkerId,
        h: TraverserHandle,
        arena: &mut TraverserArena,
        locals: &mut LocalsTable,
    ) -> usize {
        if self.fabric.partitioner.node_of_worker(dest) == self.src_node {
            self.send_handoff(dest, h, arena, locals)
        } else {
            let t = arena.extract(h, locals);
            self.send_traverser(dest, t)
        }
    }

    /// Hand arena traverser `h` to `dest`, a worker on this node: it joins
    /// `dest`'s hand-off run on the same-node lane, sharing the record of
    /// a sibling of the current outcome (see [`Outbox::seal_handoffs`]).
    /// It is sized, and counted, as the traverser [`TraverserArena::extract`]
    /// would have built; returns those bytes.
    fn send_handoff(
        &mut self,
        dest: WorkerId,
        h: TraverserHandle,
        arena: &mut TraverserArena,
        locals: &mut LocalsTable,
    ) -> usize {
        let node = self.src_node.as_usize();
        let buf = &mut self.bufs[node];
        let i = match buf.handoffs.iter().position(|b| b.dest == dest) {
            Some(i) => i,
            None => {
                buf.handoffs.push(HandOffBuf {
                    dest,
                    run: HandOff::default(),
                    record_bytes: Vec::new(),
                });
                buf.handoffs.len() - 1
            }
        };
        let lane = &mut buf.handoffs[i];
        arena.export(h, locals, &mut lane.run);
        let run = &lane.run;
        if let Some(record) = run.records.get(lane.record_bytes.len()) {
            lane.record_bytes.push(wire::locals_len(record));
        }
        let at = &run.traversers[run.len() - 1];
        self.fabric.invariants.record_sent(at.query, 1);
        let bytes = wire::head_len(at) + lane.record_bytes[at.locals.index()];
        buf.bytes += bytes;
        self.maybe_flush(node);
        bytes
    }

    /// End one interpreter outcome's hand-offs: records are shared among
    /// the traversers of one outcome only, because the sender may free and
    /// reuse a locals id before its next.
    pub fn seal_handoffs(&mut self) {
        for lane in &mut self.bufs[self.src_node.as_usize()].handoffs {
            // Qualified: `cargo xtask check --deep` resolves a bare
            // `.seal()` by name, to the trace sink's too.
            HandOff::seal(&mut lane.run);
        }
    }

    /// Queue any message but a traverser: rows, partials, progress and
    /// `QueryEnd` are buffered toward the threshold; the rest of the
    /// control plane is not batched, so such a message flushes its lane at
    /// once and is never sized here. Returns the bytes it added toward the
    /// threshold: its encoded size, or 0 for a lane-flushing message.
    pub(crate) fn send(&mut self, msg: WireMsg) -> usize {
        let node = match &msg {
            WireMsg::Worker { dest, .. } => {
                self.fabric.partitioner.node_of_worker(*dest).as_usize()
            }
            // The coordinator lives on node 0.
            WireMsg::Coord(_) => 0,
        };
        if msg.flushes_lane() {
            self.bufs[node].msgs.push(msg);
            self.flush_node_as(NodeId(node as u32), FlushTrigger::Control);
            0
        } else {
            let bytes = wire::encoded_len(&msg);
            let buf = &mut self.bufs[node];
            buf.bytes += bytes;
            buf.msgs.push(msg);
            self.maybe_flush(node);
            bytes
        }
    }

    /// Queue a progress report for the coordinator (node 0). Returns its
    /// encoded size.
    pub fn send_progress(&mut self, query: QueryId, weight: Weight, steps: u64) -> usize {
        self.send(WireMsg::Coord(CoordMsg::Progress {
            query,
            weight,
            steps,
        }))
    }

    /// **Fault injection only** (`SimFaults::progress_side_channel`): send
    /// a progress report straight to the coordinator inbox, bypassing the
    /// tier-1 buffer and the wire. This reproduces the pre-fix
    /// `shared_state_khop` drain order, where a coalesced progress report
    /// could overtake result rows still buffered in the sender's outbox and
    /// complete the stage before the rows arrived.
    pub fn send_progress_sidechannel(&mut self, query: QueryId, weight: Weight, steps: u64) {
        bump(&self.fabric.stats.msgs[MsgClass::Progress as usize], 1);
        let _ = self.fabric.coord_tx.send(CoordMsg::Progress {
            query,
            weight,
            steps,
        });
    }

    /// Queue result rows for the coordinator (node 0). Returns their
    /// encoded size.
    pub fn send_rows(&mut self, query: QueryId, rows: Vec<Row>) -> usize {
        self.send(WireMsg::Coord(CoordMsg::Rows { query, rows }))
    }

    /// Send a control message to a worker (flushes that node immediately).
    pub fn send_ctrl_worker(&mut self, dest: WorkerId, msg: WorkerMsg) {
        self.send(WireMsg::Worker { dest, msg });
    }

    /// Send a control message to the coordinator (immediate).
    pub fn send_ctrl_coord(&mut self, msg: CoordMsg) {
        self.send(WireMsg::Coord(msg));
    }

    /// Flush one destination node's buffer.
    pub fn flush_node(&mut self, node: NodeId) {
        self.flush_node_as(node, FlushTrigger::Explicit);
    }

    fn flush_node_as(&mut self, node: NodeId, trigger: FlushTrigger) {
        let buf = std::mem::take(&mut self.bufs[node.as_usize()]);
        if buf.is_empty() {
            return;
        }
        let stats = &self.fabric.stats;
        let mut sent = [0usize; 4];
        sent[MsgClass::Traverser as usize] =
            buf.traversers.len() + buf.handoffs.iter().map(|b| b.run.len()).sum::<usize>();
        for m in &buf.msgs {
            sent[m.class() as usize] += 1;
        }
        for (counter, n) in stats.msgs.iter().zip(sent) {
            bump(counter, n);
        }
        self.fabric
            .note_flush(self.src_node, node, buf.bytes, trigger);
        #[cfg(feature = "obs")]
        self.obs.flush_buf_bytes(buf.bytes);
        // One batch or hand-off run per destination worker, in first-send
        // order, ahead of the lane's other messages.
        let mut groups: Vec<(WorkerId, Vec<Traverser>)> = Vec::new();
        for (dest, t) in buf.traversers {
            if let Some(g) = groups.iter_mut().find(|g| g.0 == dest) {
                g.1.push(t);
            } else {
                groups.push((dest, vec![t]));
            }
        }
        let batches = groups.into_iter().map(|(dest, batch)| WireMsg::Worker {
            dest,
            msg: WorkerMsg::Batch(batch),
        });
        let handoffs = buf.handoffs.into_iter().map(|b| WireMsg::Worker {
            dest: b.dest,
            msg: WorkerMsg::HandOff(b.run),
        });
        let msgs: Vec<WireMsg> = batches.chain(handoffs).chain(buf.msgs).collect();
        if node == self.src_node {
            // Shared-memory shortcut: no serialization, no network thread.
            bump(&stats.same_node_msgs, msgs.len());
            for m in msgs {
                self.coord_mail |= matches!(m, WireMsg::Coord(_));
                self.fabric.deliver(m);
            }
            return;
        }
        // Remote: the messages' one encode, on the thread that built the
        // values and so frees them; tier 2 only joins bytes. (Encoding in
        // the egress pump put that work and those frees on every hop's
        // critical path — DESIGN.md §10.)
        let mut body = Vec::with_capacity(4 + buf.bytes);
        if let Err(e) = wire::encode_packet(&mut body, &msgs) {
            // Only `CoordMsg::Submit` and `WorkerMsg::HandOff` refuse, and
            // neither is ever buffered on a remote lane.
            self.fabric.note_decode_error(e);
            return;
        }
        let _ = self.fabric.egress_tx[self.src_node.as_usize()].send(EgressEvent::Packet {
            dest_node: node,
            body,
        });
    }

    /// Flush every buffer (called before a worker sleeps, §IV-B). Node
    /// 0's lane — the one progress reports take to the coordinator — goes
    /// last: once the coordinator sees a report, everything its sender
    /// flushed with it is already on its path (DESIGN.md §IV-A).
    pub fn flush_all(&mut self) {
        for n in (1..self.bufs.len()).chain([0]) {
            self.flush_node_as(NodeId(n as u32), FlushTrigger::Explicit);
        }
    }

    /// Flush only the same-node buffer (cheap; called after each execution
    /// batch to keep local latency low).
    pub fn flush_local(&mut self) {
        let n = self.src_node;
        self.flush_node(n);
    }

    /// If a flush since the last call put a message straight into the
    /// coordinator's inbox, run the coordinator on this thread
    /// ([`Fabric::drive_coordinator`]; the same rule on where to call it).
    pub fn drive_coordinator(&mut self) {
        if std::mem::take(&mut self.coord_mail) {
            self.fabric.drive_coordinator();
        }
    }

    /// Total buffered bytes (diagnostics).
    pub fn pending_bytes(&self) -> usize {
        self.bufs.iter().map(|b| b.bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphdance_common::{Value, VertexId};
    use graphdance_pstm::ArenaTraverser;
    use proptest::prelude::*;

    type FabricUnderTest = (
        Arc<Fabric>,
        Vec<Receiver<WorkerMsg>>,
        Receiver<CoordMsg>,
        Vec<std::thread::JoinHandle<()>>,
    );

    fn setup(io_mode: IoMode) -> FabricUnderTest {
        let mut cfg = EngineConfig::new(2, 2).with_io_mode(io_mode);
        cfg.net.propagation_delay = Duration::from_micros(1);
        cfg.net.per_message_overhead = Duration::from_nanos(100);
        let mut wtx = Vec::new();
        let mut wrx = Vec::new();
        for _ in 0..4 {
            let (tx, rx) = unbounded();
            wtx.push(tx);
            wrx.push(rx);
        }
        let (ctx, crx) = unbounded();
        let (fabric, handles) = Fabric::new(&cfg, wtx, ctx);
        (fabric, wrx, crx, handles)
    }

    fn t(v: u64) -> Traverser {
        Traverser::root(QueryId(1), 0, VertexId(v), 2, Weight(v))
    }

    #[test]
    fn same_node_shortcut_skips_wire() {
        let (fabric, wrx, _crx, handles) = setup(IoMode::TwoTier);
        let mut ob = fabric.outbox(NodeId(0));
        // worker 1 is on node 0 (2 workers per node)
        ob.send_traverser(WorkerId(1), t(5));
        ob.flush_all();
        match wrx[1].recv_timeout(Duration::from_secs(1)).unwrap() {
            WorkerMsg::Batch(b) => assert_eq!(b.len(), 1),
            other => panic!("unexpected {other:?}"),
        }
        let s = fabric.stats().snapshot();
        assert_eq!(s.wire_packets, 0, "no wire traffic for same-node");
        assert_eq!(s.same_node_msgs, 1);
        fabric.shutdown();
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn cross_node_delivery_serializes() {
        let (fabric, wrx, _crx, handles) = setup(IoMode::TwoTier);
        let mut ob = fabric.outbox(NodeId(0));
        // worker 3 is on node 1
        for i in 0..5 {
            ob.send_traverser(WorkerId(3), t(i));
        }
        ob.flush_all();
        match wrx[3].recv_timeout(Duration::from_secs(1)).unwrap() {
            WorkerMsg::Batch(b) => {
                assert_eq!(b.len(), 5);
                assert_eq!(b[0].vertex, VertexId(0));
            }
            other => panic!("unexpected {other:?}"),
        }
        let s = fabric.stats().snapshot();
        assert_eq!(s.wire_packets, 1, "one combined packet");
        assert!(s.wire_bytes > 0);
        assert_eq!(s.traverser_msgs, 5, "logical messages counted individually");
        fabric.shutdown();
        for h in handles {
            h.join().unwrap();
        }
    }

    /// Sends are counted per flushed buffer, not per message; once every
    /// buffer is flushed the totals are what per-message counting gives,
    /// on the same-node lane and the wire.
    #[test]
    fn flushed_outbox_counts_every_traverser_sent() {
        let (fabric, _wrx, _crx, handles) = setup(IoMode::TwoTier);
        let mut ob = fabric.outbox(NodeId(0));
        for i in 0..40 {
            let mut tr = t(i);
            tr.locals = vec![Value::Int(7); (i % 5) as usize];
            // Workers 1 (this node) and 3 (the other), interleaved.
            ob.send_traverser(WorkerId(1 + 2 * (i as u32 % 2)), tr);
            if i == 25 {
                ob.flush_node(NodeId(1));
            }
        }
        ob.flush_all();
        assert_eq!(fabric.stats().snapshot().traverser_msgs, 40);
        fabric.shutdown();
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn sync_mode_sends_one_packet_per_message() {
        let (fabric, wrx, _crx, handles) = setup(IoMode::Sync);
        let mut ob = fabric.outbox(NodeId(0));
        for i in 0..5 {
            ob.send_traverser(WorkerId(3), t(i));
        }
        // Sync mode flushed each send already.
        let mut got = 0;
        while got < 5 {
            match wrx[3].recv_timeout(Duration::from_secs(1)).unwrap() {
                WorkerMsg::Batch(b) => got += b.len(),
                other => panic!("unexpected {other:?}"),
            }
        }
        let s = fabric.stats().snapshot();
        assert_eq!(s.wire_packets, 5, "no batching in Sync mode");
        fabric.shutdown();
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn threshold_triggers_flush() {
        let (fabric, wrx, _crx, handles) = setup(IoMode::ThreadCombining);
        let mut ob = fabric.outbox(NodeId(0));
        // Each traverser is ~50 bytes; the 8 KB threshold flushes somewhere
        // within 300 sends — without any explicit flush call.
        for i in 0..300u64 {
            ob.send_traverser(WorkerId(2), t(i));
        }
        let mut got = 0;
        while got < 160 {
            match wrx[2].recv_timeout(Duration::from_secs(2)).unwrap() {
                WorkerMsg::Batch(b) => got += b.len(),
                other => panic!("unexpected {other:?}"),
            }
        }
        assert!(got <= 300);
        assert!(
            fabric.stats().snapshot().wire_packets >= 1,
            "threshold flush produced a wire packet"
        );
        assert!(
            ob.pending_bytes() > 0,
            "a partial buffer remains below threshold"
        );
        fabric.shutdown();
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn progress_and_rows_route_to_coordinator() {
        let (fabric, _wrx, crx, handles) = setup(IoMode::TwoTier);
        // From node 1 (remote to the coordinator's node 0).
        let mut ob = fabric.outbox(NodeId(1));
        ob.send_rows(QueryId(4), vec![vec![Value::Int(1)]]);
        ob.send_progress(QueryId(4), Weight(9), 3);
        ob.flush_all();
        // FIFO: rows before the progress report from the same worker.
        match crx.recv_timeout(Duration::from_secs(1)).unwrap() {
            CoordMsg::Rows { query, rows } => {
                assert_eq!(query, QueryId(4));
                assert_eq!(rows.len(), 1);
            }
            other => panic!("unexpected {other:?}"),
        }
        match crx.recv_timeout(Duration::from_secs(1)).unwrap() {
            CoordMsg::Progress {
                query,
                weight,
                steps,
            } => {
                assert_eq!(query, QueryId(4));
                assert_eq!(weight, Weight(9));
                assert_eq!(steps, 3);
            }
            other => panic!("unexpected {other:?}"),
        }
        let s = fabric.stats().snapshot();
        assert_eq!(s.progress_msgs, 1);
        assert_eq!(s.rows_msgs, 1);
        fabric.shutdown();
        for h in handles {
            h.join().unwrap();
        }
    }

    /// The control plane flushes its lane at once — except `QueryEnd`,
    /// which waits in the buffer for the lane's next flush and then
    /// arrives ahead of what flushed it.
    #[test]
    fn control_messages_flush_immediately() {
        let (fabric, wrx, _crx, handles) = setup(IoMode::TwoTier);
        let mut ob = fabric.outbox(NodeId(0));
        ob.send_ctrl_worker(WorkerId(3), WorkerMsg::QueryEnd { query: QueryId(1) });
        assert!(ob.pending_bytes() > 0, "QueryEnd is buffered, not flushed");
        ob.send_ctrl_worker(WorkerId(3), WorkerMsg::CancelQuery { query: QueryId(2) });
        assert_eq!(ob.pending_bytes(), 0, "a cancel flushes the lane");
        for want in [1, 2] {
            match wrx[3].recv_timeout(Duration::from_secs(1)).unwrap() {
                WorkerMsg::QueryEnd { query } | WorkerMsg::CancelQuery { query } => {
                    assert_eq!(query, QueryId(want))
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        fabric.shutdown();
        for h in handles {
            h.join().unwrap();
        }
    }

    /// Progress reports ship as messages of their own: a remote lane
    /// holding traversers and progress reports flushes to the batch followed
    /// by both reports, in send order.
    #[test]
    fn progress_ships_standalone_behind_the_batch() {
        let cfg = EngineConfig::new(2, 2);
        let (wtx, _wrx): (Vec<_>, Vec<_>) = (0..4).map(|_| unbounded()).unzip();
        let (ctx, _crx) = unbounded();
        let (fabric, channels) = Fabric::new_sim(&cfg, wtx, ctx);
        // From node 1: worker 0 and the coordinator share the lane to node 0.
        let mut ob = fabric.outbox(NodeId(1));
        ob.send_progress(QueryId(3), Weight(11), 2);
        ob.send_traverser(WorkerId(0), t(7));
        ob.send_progress(QueryId(4), Weight(5), 1);
        ob.flush_all();
        let Ok(EgressEvent::Packet { body, .. }) = channels.egress_rx[1].try_recv() else {
            panic!("the flush queued one egress packet");
        };
        let msgs: Vec<WireMsg> = wire::decode_packet(&body)
            .unwrap()
            .into_iter()
            .map(|(m, _)| m)
            .collect();
        let [WireMsg::Worker {
            dest,
            msg: WorkerMsg::Batch(batch),
        }, WireMsg::Coord(CoordMsg::Progress { query: first, .. }), WireMsg::Coord(CoordMsg::Progress { query: second, .. })] =
            &msgs[..]
        else {
            panic!("batch, then both progress reports standalone: {msgs:?}");
        };
        assert_eq!((*dest, batch.len()), (WorkerId(0), 1));
        assert_eq!((*first, *second), (QueryId(3), QueryId(4)));
    }

    /// A corrupt body on the channel backend is counted and kept, delivers
    /// nothing, and does not stop the lane: the next packet arrives. A
    /// well-formed body naming a worker the topology lacks — as destination
    /// or as a query's introducer — fails the same way instead of indexing
    /// past the inboxes.
    #[test]
    fn corrupt_packet_is_counted_and_the_lane_carries_on() {
        let cfg = EngineConfig::new(2, 2);
        let (wtx, wrx): (Vec<_>, Vec<_>) = (0..4).map(|_| unbounded()).unzip();
        let (ctx, crx) = unbounded();
        let (fabric, mut channels) = Fabric::new_sim(&cfg, wtx, ctx);
        let ingress = channels.ingress_tx.clone();
        let channel = ChannelTransport {
            fabric: Arc::clone(&fabric),
            src: NodeId(0),
            ingress: ingress.clone(),
        };
        use crate::transport::Transport;
        channel.ship(NodeId(1), vec![0x01, 0, 0, 0, 0xFF]);
        // Well-formed, but for a worker the 2 × 2 topology does not have.
        let mut stray = Vec::new();
        let msgs = [WireMsg::Worker {
            dest: WorkerId(99),
            msg: WorkerMsg::QueryEnd { query: QueryId(1) },
        }];
        wire::encode_packet(&mut stray, &msgs).unwrap();
        channel.ship(NodeId(1), stray);
        // A well-formed introduction naming an introducer it does not have.
        let mut ctx_stray = Vec::new();
        let begin = [WireMsg::Worker {
            dest: WorkerId(3),
            msg: WorkerMsg::QueryBegin {
                ctx: Arc::new(crate::messages::QueryCtx {
                    query: QueryId(1),
                    plan: graphdance_query::plan::Plan {
                        stages: vec![],
                        num_params: 0,
                    },
                    params: vec![],
                    read_ts: 1,
                }),
                stage: 0,
                from: Some(WorkerId(77)),
            },
        }];
        wire::encode_packet(&mut ctx_stray, &begin).unwrap();
        channel.ship(NodeId(1), ctx_stray);
        let mut ob = fabric.outbox(NodeId(0));
        ob.send_traverser(WorkerId(3), t(9));
        ob.flush_all();
        let pump = EgressPump::new(
            Arc::clone(&fabric),
            NodeId(0),
            channels.egress_rx.remove(0),
            ingress,
        );
        assert!(
            pump.pump(),
            "the flushed packet ships behind the corrupt one"
        );
        // Node 1's ingress drains until it has seen one end-of-stream per
        // node.
        channel.end_of_stream();
        channel.end_of_stream();
        ingress_loop(Arc::clone(&fabric), channels.ingress_rx.remove(1));
        assert_eq!(fabric.stats().snapshot().decode_errors, 3);
        let err = fabric.take_decode_error().expect("error retained");
        assert!(err.to_string().contains("no worker 77"), "got: {err}");
        assert!(fabric.take_decode_error().is_none(), "error was taken");
        match wrx[3].try_recv() {
            Ok(WorkerMsg::Batch(b)) => assert_eq!(b, vec![t(9)]),
            other => panic!("the lane's next packet arrives: {other:?}"),
        }
        assert!(wrx.iter().all(|rx| rx.is_empty()), "nothing else delivered");
        assert!(crx.is_empty());
    }

    fn arb_value() -> impl Strategy<Value = Value> {
        let leaf = prop_oneof![
            Just(Value::Null),
            any::<i64>().prop_map(Value::Int),
            "[a-z]{0,8}".prop_map(|s| Value::str(&s)),
            any::<u64>().prop_map(|v| Value::Vertex(VertexId(v))),
        ];
        leaf.prop_recursive(2, 8, 3, |inner| {
            prop::collection::vec(inner, 0..3).prop_map(Value::list)
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// A handed-off traverser adds to its lane exactly the bytes of the
        /// wire traverser `extract` would have built — a shared record's
        /// bytes counted for every sibling — and the peer imports the
        /// traversers that were sent.
        #[test]
        fn hand_off_is_sized_as_its_wire_form(
            outcomes in prop::collection::vec(
                (
                    prop::collection::vec(arb_value(), 0..5),
                    prop::option::of(arb_value()),
                    1usize..4,
                ),
                1..8,
            )
        ) {
            let mut cfg = EngineConfig::new(1, 2);
            cfg.flush_threshold = usize::MAX;
            let (wtx, wrx): (Vec<_>, Vec<_>) = (0..2).map(|_| unbounded()).unzip();
            let (ctx, _crx) = unbounded();
            let (fabric, _channels) = Fabric::new_sim(&cfg, wtx, ctx);
            let mut ob = fabric.outbox(NodeId(0));
            let (mut arena, mut locals) = (TraverserArena::new(), LocalsTable::new());
            let mut sent = Vec::new();
            for (i, (vals, aux_key, siblings)) in outcomes.into_iter().enumerate() {
                let mut tr = t(i as u64);
                tr.locals = vals;
                tr.aux_key = aux_key;
                let want = wire::encoded_len(&tr);
                let first = arena.admit(tr.clone(), &mut locals);
                let mut hs = vec![first];
                for _ in 1..siblings {
                    let at = arena.get(first);
                    let sibling = ArenaTraverser {
                        aux_key: at.aux_key.clone(),
                        ..*at
                    };
                    locals.retain(sibling.locals);
                    hs.push(arena.insert(sibling));
                }
                for h in hs {
                    let before = ob.pending_bytes();
                    let added = ob.send_handoff(WorkerId(1), h, &mut arena, &mut locals);
                    prop_assert_eq!(added, want);
                    prop_assert_eq!(ob.pending_bytes() - before, want);
                    sent.push(tr.clone());
                }
                ob.seal_handoffs();
            }
            prop_assert_eq!((arena.live(), locals.live()), (0, 0));
            ob.flush_all();
            let Ok(WorkerMsg::HandOff(run)) = wrx[1].try_recv() else {
                panic!("one hand-off run for worker 1");
            };
            let (ts, mut from) = run.into_parts();
            let hs: Vec<_> = ts
                .into_iter()
                .map(|at| arena.import(at, &mut from, &mut locals))
                .collect();
            let got: Vec<_> = hs.into_iter().map(|h| arena.extract(h, &mut locals)).collect();
            prop_assert_eq!(got, sent);
            prop_assert_eq!((arena.live(), locals.live()), (0, 0));
        }
    }

    #[test]
    fn flush_trace_labels_triggers_and_lanes() {
        let (fabric, wrx, _crx, handles) = setup(IoMode::TwoTier);
        fabric.record_flushes(true);
        let mut ob = fabric.outbox(NodeId(0));
        ob.send_traverser(WorkerId(2), t(1));
        ob.flush_all();
        ob.send_ctrl_worker(WorkerId(3), WorkerMsg::CancelQuery { query: QueryId(2) });
        for rx in [&wrx[2], &wrx[3]] {
            rx.recv_timeout(Duration::from_secs(2)).unwrap();
        }
        let trace = fabric.take_flush_trace();
        assert_eq!(trace.len(), 2);
        assert_eq!(trace[0].trigger, FlushTrigger::Explicit);
        assert_eq!(trace[1].trigger, FlushTrigger::Control);
        assert!(trace
            .iter()
            .all(|e| e.src == NodeId(0) && e.dest == NodeId(1)));
        assert!(fabric.take_flush_trace().is_empty(), "trace was drained");
        fabric.shutdown();
        for h in handles {
            h.join().unwrap();
        }
    }
}
