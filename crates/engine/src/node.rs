//! One OS process of a **multi-process** GraphDance cluster.
//!
//! [`crate::engine::GraphDance`] runs the whole cluster in one process. A
//! [`NodeRuntime`] runs exactly one node of it: the local node's workers,
//! the local egress pump, and — on the **head** node (node 0) — the
//! coordinator. Remote traffic leaves through a real [`crate::transport`]
//! backend instead of in-process channels; the transport's reader threads
//! deliver inbound packets straight into the local [`Fabric`].
//!
//! Every process builds the full graph deterministically from the same
//! spec (same seed ⇒ bit-identical data on every node), then hosts only
//! the partitions owned by its node. Worker and coordinator channels are
//! created for *all* slots so the fabric's delivery tables stay
//! fully indexed, but the receivers of remote slots are dropped at
//! startup — a misrouted frame is therefore silently ignored rather than
//! executed on the wrong node's copy.
//!
//! Queries are submitted on the head process only; follower processes just
//! serve traversals. The runtime is read-only (no transaction system):
//! snapshot timestamps are passed explicitly or default to the live bulk
//! snapshot.
//!
//! ## Shutdown
//!
//! [`NodeRuntime::shutdown`] follows the drain-before-close contract of
//! the transport seam: worker/coordinator stop messages first, then
//! [`Fabric::shutdown`] enqueues the egress `Shutdown` *behind* every
//! already-flushed packet (the egress channel is FIFO), and the pump's
//! `end_of_stream` appends GOODBYE and joins the transport's reader
//! threads. Peers therefore see every flushed frame before EOF. For the
//! mesh to unwind, every process must be shut down — each writes its
//! GOODBYEs before waiting on its peers', so concurrent shutdowns cannot
//! deadlock.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crossbeam::channel::{bounded, unbounded, Sender};

use graphdance_common::time::now;
use graphdance_common::{GdError, GdResult, NodeId, QueryId, Value, WorkerId};
use graphdance_pstm::Row;
use graphdance_query::plan::Plan;
use graphdance_storage::{Graph, Timestamp};

use crate::config::EngineConfig;
use crate::coordinator::Coordinator;
use crate::engine::{QueryHandle, QueryResult};
use crate::messages::{CoordMsg, WorkerMsg};
use crate::net::Fabric;
use crate::transport::Transport;
use crate::worker::Worker;

/// One node's worth of a multi-process cluster (see the module docs).
pub struct NodeRuntime {
    graph: Graph,
    fabric: Arc<Fabric>,
    config: EngineConfig,
    local_node: NodeId,
    coord_tx: Sender<CoordMsg>,
    worker_tx: Vec<Sender<WorkerMsg>>,
    threads: Vec<std::thread::JoinHandle<()>>,
    /// Client-side query-id allocator (head process only; mirrors
    /// [`crate::engine::GraphDance`]'s).
    // lint: allow(adhoc-counter) query-id allocator, not a metric
    next_qid: AtomicU64,
}

impl NodeRuntime {
    /// Start this process's slice of the cluster: the local node's worker
    /// threads, the local egress pump over `transport`, and (if
    /// `local_node` is node 0) the coordinator.
    ///
    /// `graph` must be the **full** graph — identical in every process —
    /// built for the topology `config` describes. The transport must have
    /// been bound already; its mesh is established inside this call (it
    /// blocks until every outbound peer stream is up or times out).
    ///
    /// # Panics
    /// Panics if the graph topology does not match `config`, or if
    /// `local_node` is outside the topology.
    pub fn start(
        graph: Graph,
        config: EngineConfig,
        local_node: NodeId,
        transport: Arc<dyn Transport>,
    ) -> NodeRuntime {
        assert_eq!(
            graph.partitioner().num_parts(),
            config.num_parts(),
            "graph partition count must match the engine topology"
        );
        assert!(
            local_node.0 < config.nodes,
            "node {} outside a {}-node topology",
            local_node.0,
            config.nodes
        );
        let p = config.num_parts() as usize;
        let mut worker_tx = Vec::with_capacity(p);
        let mut worker_rx = Vec::with_capacity(p);
        for _ in 0..p {
            let (tx, rx) = unbounded();
            worker_tx.push(tx);
            worker_rx.push(rx);
        }
        let (coord_tx, coord_rx) = unbounded();
        let (fabric, mut threads) = Fabric::new_with_transport(
            &config,
            local_node,
            worker_tx.clone(),
            coord_tx.clone(),
            transport,
        );
        // Only the local node's workers run here; the other slots' inbox
        // receivers die on this floor, so a frame misdelivered to a remote
        // slot is dropped instead of executed against the wrong replica.
        for (i, inbox) in worker_rx.into_iter().enumerate() {
            let id = WorkerId(i as u32);
            if fabric.partitioner().node_of_worker(id) != local_node {
                continue;
            }
            let worker = Worker::new(id, graph.clone(), &fabric, inbox, &config);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("gd-worker-{i}"))
                    .spawn(move || worker.run())
                    // Process startup, before any query is accepted.
                    .expect("spawn worker"), // lint: allow(hot-path-panics)
            );
        }
        if local_node == NodeId(0) {
            let coordinator = Coordinator::new(graph.clone(), &fabric, coord_rx, &config);
            threads.push(
                std::thread::Builder::new()
                    .name("gd-coordinator".into())
                    .spawn(move || coordinator.run())
                    // Process startup, before any query is accepted.
                    .expect("spawn coordinator"), // lint: allow(hot-path-panics)
            );
        }
        // (coord_rx of a follower process drops here: worker→coordinator
        // traffic always targets node 0, so nothing sends into it.)
        NodeRuntime {
            graph,
            fabric,
            config,
            local_node,
            coord_tx,
            worker_tx,
            threads,
            // lint: allow(adhoc-counter) query-id allocator, not a metric
            next_qid: AtomicU64::new(1),
        }
    }

    /// The underlying (full, process-local) graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// This process's node id.
    pub fn node(&self) -> NodeId {
        self.local_node
    }

    /// Does this process host the coordinator (node 0)?
    pub fn is_head(&self) -> bool {
        self.local_node == NodeId(0)
    }

    /// The local network fabric (counters, per-process ledger).
    pub fn fabric(&self) -> &Arc<Fabric> {
        &self.fabric
    }

    /// Submit a query at the live bulk snapshot. Head process only.
    pub fn submit(&self, plan: &Plan, params: Vec<Value>) -> QueryHandle {
        self.submit_at(plan, params, graphdance_storage::TS_LIVE - 1)
    }

    /// Submit at an explicit snapshot timestamp. Head process only: on a
    /// follower the handle resolves immediately to an error (followers
    /// have no coordinator to drive the query).
    pub fn submit_at(&self, plan: &Plan, params: Vec<Value>, read_ts: Timestamp) -> QueryHandle {
        let id = QueryId(
            self.next_qid
                // sync: uniqueness only; see field docs
                .fetch_add(1, Ordering::Relaxed),
        );
        let (reply, rx) = bounded(1);
        if !self.is_head() {
            let _ = reply.send(Err(GdError::InvalidProgram(
                "queries must be submitted on the head node (node 0)".into(),
            )));
            return QueryHandle::internal_new(id, rx);
        }
        let msg = CoordMsg::Submit {
            query: id,
            plan: plan.clone(),
            params,
            read_ts: Some(read_ts),
            reply: reply.into(),
            submitted_at: now(),
            deadline: None,
        };
        if self.coord_tx.send(msg).is_err() {
            // Coordinator gone: synthesize the failure.
            let (tx, rx2) = bounded(1);
            let _ = tx.send(Err(GdError::EngineClosed));
            return QueryHandle::internal_new(id, rx2);
        }
        QueryHandle::internal_new(id, rx)
    }

    /// Submit and wait; returns just the rows. Head process only.
    pub fn query(&self, plan: &Plan, params: Vec<Value>) -> GdResult<Vec<Row>> {
        Ok(self.submit(plan, params).wait()?.rows)
    }

    /// Submit and wait; returns the full result. Head process only.
    pub fn query_timed(&self, plan: &Plan, params: Vec<Value>) -> GdResult<QueryResult> {
        self.submit(plan, params).wait()
    }

    /// Stop this process's slice of the cluster (see the module docs for
    /// the drain-before-close ordering). In-flight queries fail with
    /// `EngineClosed`. Blocks until the transport mesh has unwound, so
    /// every process of the cluster must be shut down for any to return.
    pub fn shutdown(mut self) {
        let _ = self.coord_tx.send(CoordMsg::Shutdown);
        for (i, tx) in self.worker_tx.iter().enumerate() {
            if self.fabric.partitioner().node_of_worker(WorkerId(i as u32)) == self.local_node {
                let _ = tx.send(WorkerMsg::Shutdown);
            }
        }
        self.fabric.shutdown();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::{PeerAddr, TcpTransport, TcpTransportConfig};
    use graphdance_common::{Partitioner, VertexId};
    use graphdance_query::QueryBuilder;
    use graphdance_storage::GraphBuilder;

    fn ring(n: u64, parts: Partitioner) -> Graph {
        let mut b = GraphBuilder::new(parts);
        let person = b.schema_mut().register_vertex_label("Person");
        let knows = b.schema_mut().register_edge_label("knows");
        for i in 0..n {
            b.add_vertex(VertexId(i), person, vec![]).unwrap();
        }
        for i in 0..n {
            b.add_edge(VertexId(i), knows, VertexId((i + 1) % n), vec![])
                .unwrap();
        }
        b.finish()
    }

    fn khop_plan(graph: &Graph, k: i64) -> Plan {
        let mut b = QueryBuilder::new(graph.schema());
        b.v_param(0);
        let c = b.alloc_slot();
        b.repeat(1, k, c, |r| {
            r.out("knows");
        });
        b.dedup();
        b.compile().unwrap()
    }

    /// Two `NodeRuntime`s in one test process, meshed over loopback TCP:
    /// the cheapest end-to-end check that the multi-process wiring routes
    /// remote traversals through real sockets and still answers correctly.
    #[test]
    fn two_nodes_over_loopback_tcp_answer_khop() {
        let g = ring(16, Partitioner::new(2, 2));
        let cfg = EngineConfig::new(2, 2);
        // Bind both listeners on ephemeral ports first, then exchange the
        // resolved addresses — same handshake the process launcher uses.
        let t0 = TcpTransport::bind(TcpTransportConfig::new(
            NodeId(0),
            vec![
                PeerAddr::parse("127.0.0.1:0").unwrap(),
                PeerAddr::parse("127.0.0.1:0").unwrap(),
            ],
        ))
        .unwrap();
        let t1 = TcpTransport::bind(TcpTransportConfig::new(
            NodeId(1),
            vec![
                PeerAddr::parse("127.0.0.1:0").unwrap(),
                PeerAddr::parse("127.0.0.1:0").unwrap(),
            ],
        ))
        .unwrap();
        let peers = vec![t0.local_addr().clone(), t1.local_addr().clone()];
        t0.set_peers(peers.clone());
        t1.set_peers(peers);

        // The head's transport dials node 1 inside start(); bring node 1 up
        // on its own thread so both sides of the mesh can come up at once.
        let head_transport = Arc::clone(&t0);
        let g1 = g.clone();
        let cfg1 = cfg.clone();
        let follower = std::thread::spawn(move || NodeRuntime::start(g1, cfg1, NodeId(1), t1));
        let head = NodeRuntime::start(g.clone(), cfg, NodeId(0), t0);
        let follower = follower.join().unwrap();
        assert!(head.is_head());
        assert!(!follower.is_head());

        let plan = khop_plan(&g, 4);
        let mut rows = head.query(&plan, vec![Value::Vertex(VertexId(0))]).unwrap();
        rows.sort_by(|a, b| a[0].cmp_total(&b[0]));
        let got: Vec<u64> = rows.iter().map(|r| r[0].as_vertex().unwrap().0).collect();
        assert_eq!(got, vec![1, 2, 3, 4]);

        // Remote traffic really crossed the sockets (a ring hashed over 4
        // partitions cannot stay node-local for 4 hops).
        let sock = head_transport.stats();
        assert!(sock.frames_sent > 0, "head wrote real PACKET frames");
        assert!(sock.frames_recv > 0, "head read real PACKET frames");
        assert!(
            sock.write_syscalls >= sock.frames_sent,
            "one write_all per combined packet"
        );

        // Both sides must shut down for the mesh to unwind.
        let f = std::thread::spawn(move || follower.shutdown());
        head.shutdown();
        f.join().unwrap();
    }

    /// Follower processes refuse submissions instead of wedging.
    #[test]
    fn follower_submission_fails_fast() {
        let g = ring(8, Partitioner::new(2, 1));
        let cfg = EngineConfig::new(2, 1);
        let t0 = TcpTransport::bind(TcpTransportConfig::new(
            NodeId(0),
            vec![
                PeerAddr::parse("127.0.0.1:0").unwrap(),
                PeerAddr::parse("127.0.0.1:0").unwrap(),
            ],
        ))
        .unwrap();
        let t1 = TcpTransport::bind(TcpTransportConfig::new(
            NodeId(1),
            vec![
                PeerAddr::parse("127.0.0.1:0").unwrap(),
                PeerAddr::parse("127.0.0.1:0").unwrap(),
            ],
        ))
        .unwrap();
        let peers = vec![t0.local_addr().clone(), t1.local_addr().clone()];
        t0.set_peers(peers.clone());
        t1.set_peers(peers);
        let g1 = g.clone();
        let follower = std::thread::spawn(move || {
            NodeRuntime::start(g1, EngineConfig::new(2, 1), NodeId(1), t1)
        });
        let head = NodeRuntime::start(g.clone(), cfg, NodeId(0), t0);
        let follower = follower.join().unwrap();

        let plan = khop_plan(&g, 1);
        let err = follower
            .submit(&plan, vec![Value::Vertex(VertexId(0))])
            .wait()
            .unwrap_err();
        assert!(matches!(err, GdError::InvalidProgram(_)), "{err:?}");

        let f = std::thread::spawn(move || follower.shutdown());
        head.shutdown();
        f.join().unwrap();
    }
}
