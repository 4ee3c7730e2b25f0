//! Transport conformance battery: every `Transport` backend must provide
//! the same delivery contract to the engine above the seam.
//!
//! The battery runs each check against three backends:
//!
//! * **channel** — one in-process `Fabric::new` (the threaded engine's
//!   backend; the DST simulator pumps the identical code cooperatively);
//! * **tcp** — two `Fabric::new_with_transport` instances in one process,
//!   each with its own `TcpTransport`, meshed over loopback TCP;
//! * **unix** — the same two-fabric harness over Unix-domain sockets.
//!
//! The harness holds every worker/coordinator inbox receiver itself (no
//! worker or coordinator threads run), so each check observes raw
//! `WorkerMsg`/`CoordMsg` arrivals. The contract checked:
//!
//! 1. **per-lane FIFO, no loss** — traversers sent from one node to one
//!    destination worker arrive exactly once, in send order, in both
//!    directions of the mesh; on the socket backends each flushed batch
//!    costs the sender at most one frame and two write calls;
//! 2. **control legs** — cancel and migration control messages survive the
//!    wire with field-exact round-trips, in both directions, and every
//!    backend counts the same payload bytes for them;
//! 3. **flush observability** — threshold flushes are recorded in the
//!    flush trace with the correct trigger;
//! 4. **ledger quiesce** — after traffic drains, `MsgLedger` sent equals
//!    delivered **summed across all fabrics** (per-process ledgers only
//!    balance in aggregate; debug builds);
//! 5. **drain-before-close** — packets flushed before shutdown are all
//!    delivered even when shutdown begins immediately after the flush;
//! 6. no backend ever reports a decode error on clean traffic;
//! 7. **one wire** — for the same flush, the packet body the receiving
//!    fabric decodes is byte-identical on every backend: the flush encodes
//!    it once and no backend re-encodes.
//!
//! The sim backend is additionally pinned end-to-end: the differential
//! checker must report `Match` for a representative repro under every I/O
//! mode (the same channel code under the virtual clock).

use std::sync::Arc;
use std::time::Duration;

use crossbeam::channel::{unbounded, Receiver};
use graphdance::common::{NodeId, QueryId, VertexId, WorkerId};
use graphdance::engine::messages::{CoordMsg, WorkerMsg};
use graphdance::engine::net::{Outbox, PACKET_HEADER_BYTES};
use graphdance::engine::{
    EngineConfig, Fabric, FlushTrigger, IoMode, MigPhase, MsgLedger, SocketFamily, TcpTransport,
};
use graphdance::pstm::{Traverser, Weight};

const RECV_TIMEOUT: Duration = Duration::from_secs(5);

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Backend {
    Channel,
    Tcp,
    Unix,
}

const BACKENDS: [Backend; 3] = [Backend::Channel, Backend::Tcp, Backend::Unix];

/// A 2-node × 2-worker cluster under test: one fabric (channel) or two
/// (sockets), with every inbox receiver held by the test.
struct Cluster {
    backend: Backend,
    fabrics: Vec<Arc<Fabric>>,
    /// `wrx[f][slot]`: worker inbox receivers of fabric `f`.
    wrx: Vec<Vec<Receiver<WorkerMsg>>>,
    /// Coordinator inbox receivers, indexed like `fabrics`.
    crx: Vec<Receiver<CoordMsg>>,
    /// The socket transports, indexed like `fabrics` (none on channel).
    transports: Vec<Arc<TcpTransport>>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl Cluster {
    fn start(backend: Backend, config: &EngineConfig) -> Cluster {
        match backend {
            Backend::Channel => {
                let (wtx, wrx) = channels(4);
                let (ctx, crx) = unbounded();
                let (fabric, threads) = Fabric::new(config, wtx, ctx);
                Cluster {
                    backend,
                    fabrics: vec![fabric],
                    wrx: vec![wrx],
                    crx: vec![crx],
                    transports: Vec::new(),
                    threads,
                }
            }
            Backend::Tcp | Backend::Unix => {
                let family = match backend {
                    Backend::Unix => SocketFamily::Unix,
                    _ => SocketFamily::Tcp,
                };
                let transports =
                    TcpTransport::loopback_mesh(2, family).expect("bind conformance mesh");
                let mut fabrics = Vec::new();
                let mut wrx_all = Vec::new();
                let mut crx_all = Vec::new();
                let mut threads = Vec::new();
                for (i, t) in transports.iter().enumerate() {
                    let (wtx, wrx) = channels(4);
                    let (ctx, crx) = unbounded();
                    let (fabric, mut handles) =
                        Fabric::new_with_transport(config, NodeId(i as u32), wtx, ctx, t.clone());
                    fabrics.push(fabric);
                    wrx_all.push(wrx);
                    crx_all.push(crx);
                    threads.append(&mut handles);
                }
                Cluster {
                    backend,
                    fabrics,
                    wrx: wrx_all,
                    crx: crx_all,
                    transports,
                    threads,
                }
            }
        }
    }

    /// The fabric a thread on `node` would use.
    fn fabric(&self, node: NodeId) -> &Arc<Fabric> {
        match self.backend {
            Backend::Channel => &self.fabrics[0],
            _ => &self.fabrics[node.as_usize()],
        }
    }

    fn outbox(&self, node: NodeId) -> Outbox {
        self.fabric(node).outbox(node)
    }

    /// The receiver where deliveries for `slot` actually land (on socket
    /// backends that is the owning node's fabric).
    fn worker_rx(&self, slot: usize) -> &Receiver<WorkerMsg> {
        match self.backend {
            Backend::Channel => &self.wrx[0][slot],
            _ => &self.wrx[slot / 2][slot],
        }
    }

    /// The coordinator inbox (node 0 hosts the coordinator).
    fn coord_rx(&self) -> &Receiver<CoordMsg> {
        &self.crx[0]
    }

    /// Receive traverser batches on `slot` until `n` traversers arrived;
    /// returns their vertex ids in arrival order.
    fn recv_traversers(&self, slot: usize, n: usize) -> Vec<u64> {
        let mut got = Vec::with_capacity(n);
        while got.len() < n {
            match self.worker_rx(slot).recv_timeout(RECV_TIMEOUT) {
                Ok(WorkerMsg::Batch(b)) => got.extend(b.iter().map(|t| t.vertex.0)),
                Ok(other) => panic!("[{:?}] slot {slot}: unexpected {other:?}", self.backend),
                Err(e) => panic!(
                    "[{:?}] slot {slot}: got {}/{n} then {e:?}",
                    self.backend,
                    got.len()
                ),
            }
        }
        got
    }

    /// Message bytes the cluster's fabrics counted onto wires: `wire_bytes`
    /// less what every packet adds — the modeled header and the body's
    /// `u32` message count (combining may change the packet count between
    /// backends, never the messages).
    fn wire_payload(&self) -> u64 {
        self.fabrics
            .iter()
            .map(|f| {
                let s = f.stats().snapshot();
                s.wire_bytes - (PACKET_HEADER_BYTES as u64 + 4) * s.wire_packets
            })
            .sum()
    }

    /// Assert no fabric saw a decode error.
    fn assert_clean(&self) {
        for (i, f) in self.fabrics.iter().enumerate() {
            assert_eq!(
                f.stats().snapshot().decode_errors,
                0,
                "[{:?}] fabric {i}: decode errors on clean traffic",
                self.backend
            );
            assert!(
                f.take_decode_error().is_none(),
                "[{:?}] fabric {i}: stored decode error",
                self.backend
            );
        }
    }

    /// Initiate shutdown on every fabric, then join all transport/pump
    /// threads. Socket backends unwind their mesh concurrently — shutting
    /// one side down at a time would deadlock on the goodbye handshake.
    fn shutdown(self) -> Vec<Arc<Fabric>> {
        for f in &self.fabrics {
            f.shutdown();
        }
        for h in self.threads {
            h.join().expect("transport thread exits cleanly");
        }
        self.fabrics
    }
}

fn channels(
    n: usize,
) -> (
    Vec<crossbeam::channel::Sender<WorkerMsg>>,
    Vec<Receiver<WorkerMsg>>,
) {
    (0..n).map(|_| unbounded()).unzip()
}

fn config(io: IoMode) -> EngineConfig {
    EngineConfig::new(2, 2).with_io_mode(io)
}

fn t(query: u64, seq: u64) -> Traverser {
    Traverser::root(QueryId(query), 0, VertexId(seq), 2, Weight(seq + 1))
}

// ---------------------------------------------------------------------------
// 1. Per-lane FIFO + no loss, both directions
// ---------------------------------------------------------------------------

#[test]
fn per_lane_fifo_without_loss_on_every_backend() {
    for backend in BACKENDS {
        let cluster = Cluster::start(backend, &config(IoMode::TwoTier));

        // node 0 → node 1: interleave two destination workers (slots 2,
        // 3). Each slot's sub-sequence must arrive complete and in order.
        let node0 = cluster.transports.first().cloned();
        let before = node0.as_ref().map(|t| t.stats());
        let mut ob0 = cluster.outbox(NodeId(0));
        let mut flushes = 0u64;
        for seq in 0..300u64 {
            let slot = if seq % 2 == 0 {
                WorkerId(2)
            } else {
                WorkerId(3)
            };
            ob0.send_traverser(slot, t(1, seq));
            if seq % 7 == 6 {
                ob0.flush_all(); // many small packets, not one big one
                flushes += 1;
            }
        }
        ob0.flush_all();
        flushes += 1;
        let even = cluster.recv_traversers(2, 150);
        let odd = cluster.recv_traversers(3, 150);
        let want_even: Vec<u64> = (0..300).filter(|s| s % 2 == 0).collect();
        let want_odd: Vec<u64> = (0..300).filter(|s| s % 2 == 1).collect();
        assert_eq!(even, want_even, "[{backend:?}] slot 2 lane order");
        assert_eq!(odd, want_odd, "[{backend:?}] slot 3 lane order");

        // node 1 → node 0: the reverse direction uses a different socket
        // stream on the socket backends.
        let mut ob1 = cluster.outbox(NodeId(1));
        for seq in 0..100u64 {
            ob1.send_traverser(WorkerId(0), t(2, seq));
        }
        ob1.flush_all();
        let back = cluster.recv_traversers(0, 100);
        assert_eq!(
            back,
            (0..100).collect::<Vec<u64>>(),
            "[{backend:?}] reverse lane"
        );

        cluster.assert_clean();
        cluster.shutdown();

        // Node 0 sent only the batches above (and, at shutdown, its
        // goodbye). A flushed batch — here two workers' traversers — ships
        // as at most one frame in at most two write calls, never one per
        // message; tier 2 may join batches, so fewer is fine. Read after
        // the shutdown joined node 0's egress pump: a frame can reach the
        // receiver before its sender counts it.
        if let (Some(t), Some(b)) = (node0, before) {
            let a = t.stats();
            let frames = a.frames_sent - b.frames_sent;
            let writes = a.write_syscalls - b.write_syscalls;
            assert!(frames > 0, "[{backend:?}] no frame counted");
            assert!(
                frames <= flushes,
                "[{backend:?}] {frames} frames for {flushes} flushed batches"
            );
            assert!(
                writes <= 2 * flushes,
                "[{backend:?}] {writes} write calls for {flushes} flushed batches"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// 2. Control legs: cancel + migration phases, both directions
// ---------------------------------------------------------------------------

#[test]
fn control_legs_round_trip_on_every_backend() {
    let mut payloads = Vec::new();
    for backend in BACKENDS {
        let cluster = Cluster::start(backend, &config(IoMode::TwoTier));

        // Coordinator-side legs (node 0 → a node-1 worker).
        let mut ob0 = cluster.outbox(NodeId(0));
        ob0.send_ctrl_worker(WorkerId(3), WorkerMsg::CancelQuery { query: QueryId(9) });
        ob0.send_ctrl_worker(
            WorkerId(3),
            WorkerMsg::MigrateFreeze {
                seq: 41,
                v: VertexId(17),
                to: graphdance::common::PartId(1),
            },
        );
        ob0.send_ctrl_worker(
            WorkerId(3),
            WorkerMsg::MigrateCommit {
                seq: 41,
                v: VertexId(17),
                to: graphdance::common::PartId(1),
                version: 7,
            },
        );
        ob0.flush_all();
        match cluster.worker_rx(3).recv_timeout(RECV_TIMEOUT).unwrap() {
            WorkerMsg::CancelQuery { query } => assert_eq!(query, QueryId(9)),
            other => panic!("[{backend:?}] expected CancelQuery, got {other:?}"),
        }
        match cluster.worker_rx(3).recv_timeout(RECV_TIMEOUT).unwrap() {
            WorkerMsg::MigrateFreeze { seq, v, to } => {
                assert_eq!(
                    (seq, v, to),
                    (41, VertexId(17), graphdance::common::PartId(1))
                );
            }
            other => panic!("[{backend:?}] expected MigrateFreeze, got {other:?}"),
        }
        match cluster.worker_rx(3).recv_timeout(RECV_TIMEOUT).unwrap() {
            WorkerMsg::MigrateCommit {
                seq,
                v,
                to,
                version,
            } => {
                assert_eq!(
                    (seq, v, to, version),
                    (41, VertexId(17), graphdance::common::PartId(1), 7)
                );
            }
            other => panic!("[{backend:?}] expected MigrateCommit, got {other:?}"),
        }

        // Worker-side legs (node 1 → the coordinator on node 0).
        let mut ob1 = cluster.outbox(NodeId(1));
        ob1.send_ctrl_coord(CoordMsg::MigrateAck {
            seq: 41,
            v: VertexId(17),
            phase: MigPhase::Committed,
        });
        ob1.send_rows(QueryId(9), vec![vec![graphdance::common::Value::Int(5)]]);
        ob1.flush_all();
        match cluster.coord_rx().recv_timeout(RECV_TIMEOUT).unwrap() {
            CoordMsg::MigrateAck { seq, v, phase } => {
                assert_eq!((seq, v, phase), (41, VertexId(17), MigPhase::Committed));
            }
            other => panic!("[{backend:?}] expected MigrateAck, got {other:?}"),
        }
        match cluster.coord_rx().recv_timeout(RECV_TIMEOUT).unwrap() {
            CoordMsg::Rows { query, rows } => {
                assert_eq!(query, QueryId(9));
                assert_eq!(rows, vec![vec![graphdance::common::Value::Int(5)]]);
            }
            other => panic!("[{backend:?}] expected Rows, got {other:?}"),
        }

        // Everything sent has arrived, so its packets are counted.
        payloads.push(cluster.wire_payload());
        cluster.assert_clean();
        cluster.shutdown();
    }
    assert!(payloads[0] > 0, "cross-node traffic was counted");
    assert!(
        payloads.iter().all(|p| *p == payloads[0]),
        "same traffic, same exact payload on channel, tcp and unix: {payloads:?}"
    );
}

// ---------------------------------------------------------------------------
// 3. Threshold flushes are observable
// ---------------------------------------------------------------------------

#[test]
fn threshold_flush_observable_on_every_backend() {
    for backend in BACKENDS {
        let cfg = config(IoMode::ThreadCombining);
        let cluster = Cluster::start(backend, &cfg);
        cluster.fabric(NodeId(0)).record_flushes(true);

        let mut ob0 = cluster.outbox(NodeId(0));
        // ~50 wire bytes per traverser: the 8 KB threshold trips well
        // within 400 sends, with no explicit flush call.
        for seq in 0..400u64 {
            ob0.send_traverser(WorkerId(2), t(1, seq));
        }
        // At least one threshold batch is already in flight; it carries a
        // prefix of the sequence, in order.
        let first = cluster.recv_traversers(2, 1);
        let want: Vec<u64> = (0..first.len() as u64).collect();
        assert_eq!(first, want, "[{backend:?}] first flushed batch");

        let trace = cluster.fabric(NodeId(0)).take_flush_trace();
        let threshold = trace
            .iter()
            .find(|e| e.trigger == FlushTrigger::Threshold)
            .unwrap_or_else(|| panic!("[{backend:?}] no threshold flush in {trace:?}"));
        assert_eq!(threshold.src, NodeId(0));
        assert_eq!(threshold.dest, NodeId(1));
        assert!(
            threshold.bytes >= cfg.flush_threshold,
            "[{backend:?}] flushed below threshold: {threshold:?}"
        );

        ob0.flush_all();
        cluster.assert_clean();
        cluster.shutdown();
    }
}

// ---------------------------------------------------------------------------
// 4. Ledger quiesce summed across fabrics (debug builds)
// ---------------------------------------------------------------------------

#[test]
fn ledger_quiesce_sums_across_fabrics_on_every_backend() {
    if !MsgLedger::ENABLED {
        return; // release build: the ledger compiles to nothing
    }
    let query = QueryId(5);
    for backend in BACKENDS {
        let cluster = Cluster::start(backend, &config(IoMode::TwoTier));

        let mut ob0 = cluster.outbox(NodeId(0));
        for seq in 0..40u64 {
            ob0.send_traverser(WorkerId(3), t(5, seq)); // cross-node
        }
        ob0.send_traverser(WorkerId(1), t(5, 1000)); // same-node shortcut
        ob0.flush_all();
        cluster.recv_traversers(3, 40);
        cluster.recv_traversers(1, 1);

        let fabrics = cluster.shutdown();
        let (mut sent, mut delivered) = (0u64, 0u64);
        for f in &fabrics {
            let c = f.invariants().counts(query);
            sent += c.sent;
            delivered += c.delivered;
        }
        assert_eq!(sent, 41, "[{backend:?}] summed sent");
        assert_eq!(
            sent, delivered,
            "[{backend:?}] summed ledger must quiesce: sent {sent} delivered {delivered}"
        );
    }
}

// ---------------------------------------------------------------------------
// 5. Drain-before-close: flushed packets survive an immediate shutdown
// ---------------------------------------------------------------------------

#[test]
fn drain_before_close_delivers_flushed_packets_on_every_backend() {
    for backend in BACKENDS {
        let cluster = Cluster::start(backend, &config(IoMode::TwoTier));
        let mut ob0 = cluster.outbox(NodeId(0));
        for seq in 0..500u64 {
            ob0.send_traverser(WorkerId(2), t(1, seq));
        }
        ob0.flush_all();
        // Keep the receivers; tear the cluster down with the packets still
        // in flight. end_of_stream must ship every flushed packet first.
        let rx = cluster.worker_rx(2).clone();
        cluster.shutdown();
        let mut got = 0usize;
        while let Ok(WorkerMsg::Batch(b)) = rx.try_recv() {
            got += b.len();
        }
        assert_eq!(got, 500, "[{backend:?}] shutdown truncated the stream");
    }
}

// ---------------------------------------------------------------------------
// 7. One wire: every backend carries the same bytes
// ---------------------------------------------------------------------------

#[test]
fn every_backend_carries_the_same_packet_bytes() {
    let mut bodies = Vec::new();
    for backend in BACKENDS {
        let cluster = Cluster::start(backend, &config(IoMode::TwoTier));
        let receiver = Arc::clone(cluster.fabric(NodeId(1)));
        receiver.record_flushes(true);
        // Traversers for both node-1 workers, then a control message that
        // flushes the lane: one packet, batches ahead of the control leg.
        let mut ob0 = cluster.outbox(NodeId(0));
        for seq in 0..5u64 {
            ob0.send_traverser(WorkerId(2 + (seq % 2) as u32), t(1, seq));
        }
        ob0.send_ctrl_worker(WorkerId(3), WorkerMsg::CancelQuery { query: QueryId(1) });
        assert_eq!(cluster.recv_traversers(2, 3), vec![0, 2, 4]);
        assert_eq!(cluster.recv_traversers(3, 2), vec![1, 3]);
        match cluster.worker_rx(3).recv_timeout(RECV_TIMEOUT) {
            Ok(WorkerMsg::CancelQuery { query }) => assert_eq!(query, QueryId(1)),
            other => panic!("[{backend:?}] expected CancelQuery, got {other:?}"),
        }
        let trace = receiver.take_packet_trace();
        assert_eq!(trace.len(), 1, "[{backend:?}] one combined packet");
        assert_eq!(trace[0][..4], 3u32.to_le_bytes(), "two batches + cancel");
        bodies.push(trace);
        cluster.assert_clean();
        cluster.shutdown();
    }
    assert!(
        bodies.iter().all(|b| *b == bodies[0]),
        "channel, tcp and unix carried different bytes for the same flush"
    );
}

// ---------------------------------------------------------------------------
// 6. The sim backend end-to-end (same channel code, virtual clock)
// ---------------------------------------------------------------------------

#[test]
fn sim_backend_matches_oracle_under_every_io_mode() {
    use graphdance::sim::{check, Repro, Verdict};
    for io in ["sync", "threadcombining", "twotier"] {
        let line = format!("graph=ring:24 query=khop:3:2 nodes=2 workers=2 io={io} seed=0x51");
        let repro = Repro::parse(&line).expect("valid repro line");
        assert_eq!(check(&repro), Verdict::Match, "sim conformance under {io}");
    }
}
