//! Transport A/B — the in-process channel fabric against the real socket
//! backends (`TcpTransport` over loopback TCP and Unix-domain sockets) on
//! the same 2-node × 2-worker mesh.
//!
//! Two phases per arm:
//!
//! * **latency** — ping-pong rounds: build a batch of traversers on node 0,
//!   `flush_all`, and wait until the whole batch lands in node 1's worker
//!   inbox; p50/p99 over the rounds. The channel arm's figure is two
//!   thread hops (outbox → egress thread → ingress thread) plus what
//!   `NetConfig` configures — 1.5 µs per packet, the exact bytes at
//!   200 Gbps, and 5 µs of propagation delay, spun out rather than slept —
//!   and is not an estimate of TCP; the socket arms pay real syscalls,
//!   framing, and kernel loopback.
//! * **batching** — back-to-back batches with one explicit flush each, then
//!   drain. The socket-side `TcpStats` deltas give frames/batch and
//!   write-syscalls/batch: the whole point of threshold batching is that a
//!   batch of N traversers ships as ~1 frame and ~1 `write(2)`, not N.
//!
//! Prints a table. The frames and write calls per flushed batch are
//! asserted live by `per_lane_fifo_without_loss_on_every_backend` in
//! `tests/transport_conformance.rs`; write syscalls per query on a real
//! workload are the benchmark's `transport.write_syscalls_per_query`.

use std::sync::Arc;
use std::time::Duration;

use crossbeam::channel::{unbounded, Receiver};
use graphdance_bench::{header, ms, quick_mode};
use graphdance_common::{NodeId, QueryId, VertexId, WorkerId};
use graphdance_engine::messages::WorkerMsg;
use graphdance_engine::{EngineConfig, Fabric, SocketFamily, TcpTransport, Transport};
use graphdance_pstm::{Traverser, Weight};

/// Traversers per batch: comfortably under the 8 KB flush threshold, so
/// each round ships exactly one explicitly-flushed packet.
const BATCH: usize = 32;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Arm {
    Channel,
    Tcp,
    Unix,
}

impl Arm {
    fn name(self) -> &'static str {
        match self {
            Arm::Channel => "channel",
            Arm::Tcp => "tcp",
            Arm::Unix => "unix",
        }
    }
}

/// A 2-node × 2-worker mesh with the bench holding node 1's worker-2
/// inbox receiver (no worker threads run — this measures the wire alone).
struct Mesh {
    fabrics: Vec<Arc<Fabric>>,
    transports: Vec<Arc<TcpTransport>>,
    /// Node 1 / worker slot 2 inbox, where all bench traffic lands.
    rx: Receiver<WorkerMsg>,
    /// Receivers the bench never reads but must keep alive (dropping them
    /// would make deliveries error), plus the coordinator inboxes.
    _other: Vec<Box<dyn std::any::Any>>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

fn channels(
    n: usize,
) -> (
    Vec<crossbeam::channel::Sender<WorkerMsg>>,
    Vec<Receiver<WorkerMsg>>,
) {
    (0..n).map(|_| unbounded()).unzip()
}

impl Mesh {
    fn start(arm: Arm, config: &EngineConfig) -> Mesh {
        match arm {
            Arm::Channel => {
                let (wtx, mut wrx) = channels(4);
                let (ctx, crx) = unbounded();
                let (fabric, threads) = Fabric::new(config, wtx, ctx);
                let rx = wrx.remove(2);
                Mesh {
                    fabrics: vec![fabric],
                    transports: Vec::new(),
                    rx,
                    _other: vec![Box::new(wrx), Box::new(crx)],
                    threads,
                }
            }
            Arm::Tcp | Arm::Unix => {
                let family = match arm {
                    Arm::Unix => SocketFamily::Unix,
                    _ => SocketFamily::Tcp,
                };
                let transports =
                    TcpTransport::loopback_mesh(2, family).expect("bind bench transports");
                let mut fabrics = Vec::new();
                let mut other: Vec<Box<dyn std::any::Any>> = Vec::new();
                let mut rx1 = None;
                let mut threads = Vec::new();
                for (i, t) in transports.iter().enumerate() {
                    let (wtx, mut wrx) = channels(4);
                    let (ctx, crx) = unbounded();
                    let (fabric, mut handles) = Fabric::new_with_transport(
                        config,
                        NodeId(i as u32),
                        wtx,
                        ctx,
                        Arc::clone(t) as Arc<dyn Transport>,
                    );
                    if i == 1 {
                        rx1 = Some(wrx.remove(2));
                    }
                    other.push(Box::new(wrx));
                    other.push(Box::new(crx));
                    fabrics.push(fabric);
                    threads.append(&mut handles);
                }
                Mesh {
                    fabrics,
                    transports,
                    rx: rx1.expect("node 1 built"),
                    _other: other,
                    threads,
                }
            }
        }
    }

    /// The fabric node 0's outbox lives on.
    fn fabric0(&self) -> &Arc<Fabric> {
        &self.fabrics[0]
    }

    /// Socket-side sender stats (node 0's transport), if this is a socket arm.
    fn sender_stats(&self) -> Option<graphdance_engine::TcpStatsSnapshot> {
        self.transports.first().map(|t| t.stats())
    }

    fn recv_exact(&self, n: usize) {
        let mut got = 0;
        while got < n {
            match self.rx.recv_timeout(Duration::from_secs(10)) {
                Ok(WorkerMsg::Batch(b)) => got += b.len(),
                Ok(other) => panic!("unexpected inbox message: {other:?}"),
                Err(e) => panic!("received {got}/{n} traversers, then: {e:?}"),
            }
        }
        assert_eq!(got, n, "over-delivery: {got} > {n}");
    }

    fn shutdown(self) {
        for f in &self.fabrics {
            f.shutdown();
        }
        for h in self.threads {
            h.join().expect("transport thread exits");
        }
        for (i, f) in self.fabrics.iter().enumerate() {
            assert_eq!(
                f.stats().snapshot().decode_errors,
                0,
                "fabric {i}: decode errors on clean bench traffic"
            );
        }
    }
}

struct Measured {
    p50: Duration,
    p99: Duration,
    frames_per_batch: f64,
    syscalls_per_batch: f64,
    bytes_per_batch: f64,
}

fn pct(sorted: &[Duration], p: f64) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p / 100.0).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

fn run_arm(arm: Arm, rounds: usize, batches: usize) -> Measured {
    let config = EngineConfig::new(2, 2);
    let mesh = Mesh::start(arm, &config);
    let mut outbox = mesh.fabric0().outbox(NodeId(0));
    let mut seq = 0u64;
    let mut send_batch = |outbox: &mut graphdance_engine::net::Outbox| {
        for _ in 0..BATCH {
            seq += 1;
            outbox.send_traverser(
                WorkerId(2),
                Traverser::root(QueryId(1), 0, VertexId(seq), 2, Weight(seq)),
            );
        }
        outbox.flush_all();
    };

    // Phase 1: ping-pong latency. One batch in flight at a time; the
    // elapsed time covers encode, flush, (configured cost | socket), delivery.
    let mut lat = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        let start = graphdance_common::time::now();
        send_batch(&mut outbox);
        mesh.recv_exact(BATCH);
        lat.push(start.elapsed());
    }
    lat.sort_unstable();

    // Phase 2: batching. Back-to-back batches, one explicit flush each;
    // socket counter deltas give frames and write syscalls per batch.
    let before = mesh.sender_stats();
    for _ in 0..batches {
        send_batch(&mut outbox);
    }
    mesh.recv_exact(BATCH * batches);
    let (frames, syscalls, bytes) = match (before, mesh.sender_stats()) {
        (Some(b), Some(a)) => (
            (a.frames_sent - b.frames_sent) as f64 / batches as f64,
            (a.write_syscalls - b.write_syscalls) as f64 / batches as f64,
            (a.bytes_sent - b.bytes_sent) as f64 / batches as f64,
        ),
        _ => (0.0, 0.0, 0.0), // channel arm: no syscalls to count
    };
    mesh.shutdown();
    Measured {
        p50: pct(&lat, 50.0),
        p99: pct(&lat, 99.0),
        frames_per_batch: frames,
        syscalls_per_batch: syscalls,
        bytes_per_batch: bytes,
    }
}

fn main() {
    let quick = quick_mode();
    let rounds = if quick { 200 } else { 2000 };
    let batches = if quick { 500 } else { 5000 };

    println!(
        "=== Transport A/B: {BATCH}-traverser batches, 2 nodes x 2 workers, \
         {rounds} latency rounds, {batches} batching rounds ==="
    );
    header(&[
        "arm    ",
        "p50     ",
        "p99     ",
        "frames/batch",
        "writes/batch",
        "bytes/batch",
    ]);
    let arms: Vec<(Arm, Measured)> = [Arm::Channel, Arm::Tcp, Arm::Unix]
        .into_iter()
        .map(|a| (a, run_arm(a, rounds, batches)))
        .collect();
    for (arm, m) in &arms {
        println!(
            "{:7} | {} | {} | {:12.2} | {:12.2} | {:11.0}",
            arm.name(),
            ms(m.p50),
            ms(m.p99),
            m.frames_per_batch,
            m.syscalls_per_batch,
            m.bytes_per_batch,
        );
    }
    let get = |a: Arm| &arms.iter().find(|(x, _)| *x == a).expect("arm ran").1;
    let (ch, tcp, unix) = (get(Arm::Channel), get(Arm::Tcp), get(Arm::Unix));
    println!(
        "\nchannel (two thread hops + the configured 6.5 us) {} / loopback TCP {} / unix {} per batch",
        ms(ch.p50).trim(),
        ms(tcp.p50).trim(),
        ms(unix.p50).trim(),
    );
}
