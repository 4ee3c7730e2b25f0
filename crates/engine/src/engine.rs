//! The threaded runtime and the public GraphDance engine API.
//!
//! The engine is one thing — a worker per partition plus a coordinator,
//! talking through the message [`Fabric`] (§IV) — and whether the
//! partitions share a process is a deployment fact. [`NodeRuntime`] is
//! that one thing on threads: it hosts a *set* of the topology's nodes,
//! either every node over the in-process channel backend, or exactly one
//! node of a **multi-process** cluster over a real [`Transport`].
//! [`GraphDance`] is a `NodeRuntime` hosting every node plus what needs the
//! whole cluster in one address space (transactions, merged traces), and
//! reaches everything else through `Deref`.
//!
//! In a multi-process cluster every process builds the same full graph
//! (same seed ⇒ bit-identical data) and hosts only its node's workers, its
//! egress pump and — on the **head** (node 0) — the coordinator; the
//! transport's reader threads deliver inbound packets straight into the
//! local [`Fabric`]. Queries are submitted on the head only.
//!
//! The coordinator has no thread of its own: it runs on whichever thread
//! just sent it a message — the submitting client, a worker whose flush
//! carried progress, an ingress or socket reader thread — and on the
//! head's `gd-coord-timer`, which drives it every
//! [`TICK`](crate::coordinator::TICK) for deadlines and the watchdog
//! ([`Fabric::drive_coordinator`]).
//!
//! ## Shutdown
//!
//! [`NodeRuntime::shutdown`] follows the transport seam's drain-before-close
//! contract: worker/coordinator stop messages first (the caller runs the
//! coordinator's), then
//! [`Fabric::shutdown`] enqueues the egress `Shutdown` *behind* every
//! already-flushed packet, and the pump's `end_of_stream` appends GOODBYE
//! and joins the transport's reader threads — peers see every flushed
//! frame before EOF. For a socket mesh to unwind every process must stop;
//! each writes its GOODBYEs before waiting on its peers', so concurrent
//! shutdowns cannot deadlock, and a runtime that is merely dropped sends
//! the same stop signals without joining, so it never holds a peer up.

use std::ops::{Deref, Range};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{bounded, unbounded, Receiver, RecvTimeoutError, SendError, Sender};

use graphdance_common::time::now;
use graphdance_common::{GdError, GdResult, NodeId, QueryId, Value, WorkerId};
use graphdance_pstm::Row;
use graphdance_query::plan::Plan;
use graphdance_storage::{Graph, Timestamp};
use graphdance_txn::{LctCache, TxnManager, TxnSystem};

use crate::config::EngineConfig;
use crate::coordinator::Coordinator;
use crate::messages::{CoordMsg, ReplySink, WorkerMsg};
use crate::net::{Fabric, NetStatsSnapshot};
use crate::transport::Transport;
use crate::worker::Worker;

/// The result of one query.
#[derive(Debug, Clone)]
pub struct QueryResult {
    /// The engine-assigned query id.
    pub query: QueryId,
    /// Result rows (aggregation output, or raw emissions for plain stages).
    pub rows: Vec<Row>,
    /// End-to-end latency from submission to completion.
    pub latency: Duration,
    /// Total plan steps executed across all workers (the Table I
    /// accessed-data measure). Zero when the engine does not report it.
    pub steps_executed: u64,
}

/// A pending query; `wait()` blocks for the result.
pub struct QueryHandle {
    id: QueryId,
    rx: Receiver<GdResult<QueryResult>>,
}

impl QueryHandle {
    /// The pre-assigned query id (pass to [`NodeRuntime::cancel`]).
    pub fn id(&self) -> QueryId {
        self.id
    }

    /// Block until the query completes.
    pub fn wait(self) -> GdResult<QueryResult> {
        self.rx.recv().unwrap_or(Err(GdError::EngineClosed))
    }

    /// Block up to `timeout`: `QueryTimeout(id)` if the query is still
    /// running when it elapses, `EngineClosed` if the engine went away.
    pub fn wait_timeout(self, timeout: Duration) -> GdResult<QueryResult> {
        match self.rx.recv_timeout(timeout) {
            Ok(r) => r,
            Err(RecvTimeoutError::Timeout) => Err(GdError::QueryTimeout(self.id)),
            Err(RecvTimeoutError::Disconnected) => Err(GdError::EngineClosed),
        }
    }

    /// Non-blocking poll: `Some(result)` once the query completed.
    pub fn try_result(&self) -> Option<GdResult<QueryResult>> {
        self.rx.try_recv().ok()
    }
}

/// A cluster's parts, wired and not yet running: what [`assemble`] hands
/// the threaded runtime to spawn and the simulator to pump.
pub(crate) struct Assembly<N> {
    pub fabric: Arc<Fabric>,
    /// What the fabric constructor returned beside the fabric: the network
    /// threads' handles, or the simulator's raw channel endpoints.
    pub net: N,
    pub coord_tx: Sender<CoordMsg>,
    pub worker_tx: Vec<Sender<WorkerMsg>>,
    /// The workers of the hosted nodes, in worker-id order.
    pub workers: Vec<Worker>,
    /// Present iff node 0 is hosted.
    pub coordinator: Option<Coordinator>,
}

/// The one cluster assembly: allocate a channel per worker slot and one for
/// the coordinator, let `net` build the fabric over them, and construct —
/// without starting — the workers of the `hosted` nodes and, if node 0 is
/// among them, the coordinator.
///
/// Channels exist for *all* slots so the fabric's delivery tables stay
/// fully indexed; the receivers of slots not hosted here die on this floor,
/// so a frame misdelivered to one is dropped instead of executed against
/// the wrong replica (a follower's coordinator receiver too: nothing sends
/// into it, worker→coordinator traffic always targets node 0).
///
/// # Panics
/// Panics if the graph was built for a different topology than `config`
/// describes.
pub(crate) fn assemble<N>(
    graph: &Graph,
    config: &EngineConfig,
    hosted: Range<u32>,
    net: impl FnOnce(&EngineConfig, Vec<Sender<WorkerMsg>>, Sender<CoordMsg>) -> (Arc<Fabric>, N),
) -> Assembly<N> {
    assert_eq!(
        graph.partitioner().num_parts(),
        config.num_parts(),
        "graph partition count must match the engine topology"
    );
    let (worker_tx, worker_rx): (Vec<_>, Vec<_>) =
        (0..config.num_parts()).map(|_| unbounded()).unzip();
    let (coord_tx, coord_rx) = unbounded();
    let (fabric, net) = net(config, worker_tx.clone(), coord_tx.clone());
    let workers = (0..)
        .map(WorkerId)
        .zip(worker_rx)
        .filter(|(id, _)| hosted.contains(&fabric.partitioner().node_of_worker(*id).0))
        .map(|(id, inbox)| Worker::new(id, graph.clone(), &fabric, inbox, config))
        .collect();
    let coordinator = hosted
        .contains(&0)
        .then(|| Coordinator::new(graph.clone(), &fabric, coord_rx, config));
    Assembly {
        fabric,
        net,
        coord_tx,
        worker_tx,
        workers,
        coordinator,
    }
}

/// The one place a `Submit` is built: stamp it and send it to the
/// coordinator. The sink comes back when the coordinator is gone.
pub(crate) fn send_submit(
    coord_tx: &Sender<CoordMsg>,
    query: QueryId,
    plan: Plan,
    params: Vec<Value>,
    read_ts: Timestamp,
    deadline: Option<Instant>,
    reply: ReplySink,
) -> Option<ReplySink> {
    let msg = CoordMsg::Submit {
        query,
        plan,
        params,
        read_ts: Some(read_ts),
        reply,
        submitted_at: now(),
        deadline,
    };
    match coord_tx.send(msg) {
        Ok(()) => None,
        Err(SendError(CoordMsg::Submit { reply, .. })) => Some(reply),
        Err(_) => unreachable!("a failed send returns the message it was given"), // lint: allow(hot-path-panics)
    }
}

/// Spawn one named engine thread.
fn spawn<T: Send + 'static>(
    name: String,
    body: impl FnOnce() -> T + Send + 'static,
) -> JoinHandle<T> {
    std::thread::Builder::new()
        .name(name)
        .spawn(body)
        // Startup, before any query: an unusable process, not a wedged query.
        .expect("spawn engine thread") // lint: allow(hot-path-panics)
}

/// The threaded runtime: the workers of the nodes it hosts, their network
/// threads and — when it hosts node 0 — the coordinator (see the module
/// docs). Read-only: snapshot timestamps are passed in; [`GraphDance`]
/// adds the transaction system that mints them.
pub struct NodeRuntime {
    graph: Graph,
    fabric: Arc<Fabric>,
    config: EngineConfig,
    /// The nodes whose workers run here.
    hosted: Range<u32>,
    coord_tx: Sender<CoordMsg>,
    worker_tx: Vec<Sender<WorkerMsg>>,
    /// Each returns its worker as it stopped; joined (and emptied) by
    /// [`NodeRuntime::retire_workers`].
    workers: parking_lot::Mutex<Vec<JoinHandle<Worker>>>,
    /// Network threads and the coordinator's timer;
    /// [`NodeRuntime::shutdown`]'s.
    threads: parking_lot::Mutex<Vec<JoinHandle<()>>>,
    /// Stops the coordinator's timer (present iff this runtime is the
    /// head).
    timer_stop: Option<Sender<()>>,
    /// Client-side query-id allocator. Ids are assigned *before* the
    /// `Submit` message is sent so a caller can cancel a query it has not
    /// yet seen complete (the service front-end depends on this).
    // sync: monotonic id counter shared by submitting threads; fetch_add
    // uniqueness is the only property used, no other data rides on it
    // lint: allow(adhoc-counter) query-id allocator, not a metric
    next_qid: AtomicU64,
}

impl NodeRuntime {
    /// Start one node of a multi-process cluster: `local_node`'s worker
    /// threads, its egress pump over `transport`, and (on node 0) the
    /// coordinator. `graph` must be the **full** graph — identical in every
    /// process — built for the topology `config` describes. The transport
    /// must be bound already; its mesh is established inside this call (it
    /// blocks until every outbound peer stream is up or times out).
    ///
    /// # Panics
    /// Panics if the graph's or `local_node`'s topology is not `config`'s.
    pub fn start(
        graph: Graph,
        config: EngineConfig,
        local_node: NodeId,
        transport: Arc<dyn Transport>,
    ) -> NodeRuntime {
        assert!(
            local_node.0 < config.nodes,
            "node {} outside a {}-node topology",
            local_node.0,
            config.nodes
        );
        Self::launch(graph, config, Some((local_node, transport)))
    }

    /// [`assemble`] one node over its transport, or (`None`) every node over
    /// the channel backend, and put every worker on its own thread; the
    /// coordinator goes into the fabric, to be run by whoever sends to it.
    fn launch(
        graph: Graph,
        config: EngineConfig,
        wire: Option<(NodeId, Arc<dyn Transport>)>,
    ) -> NodeRuntime {
        let hosted = wire
            .as_ref()
            .map_or(0..config.nodes, |(node, _)| node.0..node.0 + 1);
        let a = assemble(&graph, &config, hosted.clone(), |c, w, ctx| match wire {
            Some((node, transport)) => Fabric::new_with_transport(c, node, w, ctx, transport),
            None => Fabric::new(c, w, ctx),
        });
        let spawn_worker = |w: Worker| spawn(format!("gd-worker-{}", w.id().0), move || w.run());
        let workers = a.workers.into_iter().map(spawn_worker).collect();
        let mut threads = a.net;
        let timer_stop = a.coordinator.map(|coordinator| {
            let (stop, timer) = coordinator.host();
            threads.push(timer);
            stop
        });
        NodeRuntime {
            graph,
            fabric: a.fabric,
            config,
            hosted,
            coord_tx: a.coord_tx,
            worker_tx: a.worker_tx,
            workers: parking_lot::Mutex::new(workers),
            threads: parking_lot::Mutex::new(threads),
            timer_stop,
            // lint: allow(adhoc-counter) query-id allocator, not a metric
            next_qid: AtomicU64::new(1),
        }
    }

    /// The underlying graph (the full graph, whichever nodes run here).
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Does this runtime host the coordinator (node 0)? Queries go in there.
    pub fn is_head(&self) -> bool {
        self.hosted.contains(&0)
    }

    /// Submit at an explicit snapshot timestamp.
    pub fn submit_at(&self, plan: &Plan, params: Vec<Value>, read_ts: Timestamp) -> QueryHandle {
        self.submit_with_deadline(plan, params, read_ts, None)
    }

    /// Submit at an explicit snapshot timestamp with a per-query deadline
    /// override (`None` = the engine-wide `query_timeout` default).
    pub fn submit_with_deadline(
        &self,
        plan: &Plan,
        params: Vec<Value>,
        read_ts: Timestamp,
        deadline: Option<Instant>,
    ) -> QueryHandle {
        let (reply, rx) = bounded(1);
        let (id, undelivered) =
            self.next_submit(plan.clone(), params, read_ts, deadline, reply.into());
        match undelivered {
            // Coordinator gone: synthesize the failure.
            Some(sink) => sink.complete(Err(GdError::EngineClosed)),
            None => self.fabric.drive_coordinator(),
        }
        QueryHandle { id, rx }
    }

    /// Submit by value with a completion sink instead of a handle: the
    /// plan is moved into the engine, and `sink` runs, on whichever thread
    /// is running the coordinator, when the query resolves (see
    /// [`ReplySink`] for what it may do there). Returns the pre-assigned
    /// query id (pass to [`NodeRuntime::cancel`]), or hands the sink back
    /// unrun when the engine is closed. On a follower the sink is run
    /// before this returns, on the caller's thread, with the
    /// `InvalidProgram` a handle gets there.
    ///
    /// Unlike the other submit paths this one only enqueues, so a caller
    /// may hold a lock its sinks take: call
    /// [`Fabric::drive_coordinator`] once it holds none, or the head's
    /// timer picks the submission up within
    /// [`TICK`](crate::coordinator::TICK).
    pub fn submit_sink(
        &self,
        plan: Plan,
        params: Vec<Value>,
        read_ts: Timestamp,
        deadline: Option<Instant>,
        sink: ReplySink,
    ) -> Result<QueryId, ReplySink> {
        match self.next_submit(plan, params, read_ts, deadline, sink) {
            (id, None) => Ok(id),
            (_, Some(sink)) => Err(sink),
        }
    }

    /// Assign the next query id and [`send_submit`]. A follower has no
    /// coordinator to drive a query: there the sink is completed at once.
    fn next_submit(
        &self,
        plan: Plan,
        params: Vec<Value>,
        read_ts: Timestamp,
        deadline: Option<Instant>,
        reply: ReplySink,
    ) -> (QueryId, Option<ReplySink>) {
        // sync: uniqueness only; see field docs
        let id = QueryId(self.next_qid.fetch_add(1, Ordering::Relaxed));
        if !self.is_head() {
            reply.complete(Err(GdError::InvalidProgram(
                "queries must be submitted on the head node (node 0)".into(),
            )));
            return (id, None);
        }
        let undelivered = send_submit(&self.coord_tx, id, plan, params, read_ts, deadline, reply);
        (id, undelivered)
    }

    /// Request prompt cancellation of an in-flight query. Asynchronous and
    /// idempotent: the query's handle resolves to `QueryCancelled` once
    /// the drain protocol completes (or to its actual result if the query
    /// finished first).
    pub fn cancel(&self, query: QueryId) {
        if self.coord_tx.send(CoordMsg::Cancel { query }).is_ok() {
            self.fabric.drive_coordinator();
        }
    }

    /// Snapshot the network counters.
    pub fn net_stats(&self) -> NetStatsSnapshot {
        self.fabric.stats().snapshot()
    }

    /// The network fabric (counters, conservation ledger, hot-vertex
    /// sketch). Process-local: a socket mesh's ledgers balance only summed
    /// across its runtimes.
    pub fn fabric(&self) -> &Arc<Fabric> {
        &self.fabric
    }

    /// Merged point-in-time snapshot of every engine metric this process
    /// recorded, including the network counters
    /// ([`NodeRuntime::net_stats`], under `net.*`) and the storage layer's
    /// TEL scan-length distribution. Export with
    /// [`graphdance_obs::MetricsSnapshot::to_json`] or
    /// [`graphdance_obs::MetricsSnapshot::to_prometheus`].
    #[cfg(feature = "obs")]
    pub fn metrics(&self) -> graphdance_obs::MetricsSnapshot {
        use graphdance_obs::{Metric, MetricKind, MetricValue};
        let mut snap = self.fabric.obs().registry().snapshot();
        let net = self.net_stats();
        for (name, value) in [
            ("net.traverser_msgs", net.traverser_msgs),
            ("net.progress_msgs", net.progress_msgs),
            ("net.rows_msgs", net.rows_msgs),
            ("net.control_msgs", net.control_msgs),
            ("net.wire_packets", net.wire_packets),
            ("net.wire_bytes", net.wire_bytes),
            ("net.same_node_msgs", net.same_node_msgs),
            ("net.decode_errors", net.decode_errors),
        ] {
            snap.metrics.push(Metric {
                name: name.into(),
                kind: MetricKind::Counter,
                value: MetricValue::Scalar(value),
            });
        }
        snap.metrics.push(Metric {
            name: "storage.tel_scan_len".into(),
            kind: MetricKind::Histogram,
            value: MetricValue::Hist(self.graph.tel_scan_hist()),
        });
        snap
    }

    /// Stop every thread and wait for it (module docs: drain-before-close);
    /// in-flight queries fail with `EngineClosed`, their sinks run on the
    /// caller's thread. Idempotent, and through `&self` for an owner that
    /// cannot give the runtime up by value (the service's sinks borrow the
    /// engine until every thread that may run one has stopped). Joins the
    /// workers, which run sinks, so never call it from a [`ReplySink`]; on
    /// a socket mesh it returns once every peer stops too.
    pub fn shutdown(&self) {
        drop(self.retire_workers());
        // sync: held across the joins only against a concurrent
        // shutdown(); engine threads never take this lock
        for t in self.threads.lock().drain(..) {
            let _ = t.join();
        }
    }

    /// Send every stop signal and take the hosted workers back as they
    /// stopped — once — so a test can ask each what it [holds](Worker::holds).
    pub fn retire_workers(&self) -> Vec<Worker> {
        self.signal_stop();
        let mut workers = self.workers.lock();
        workers.drain(..).filter_map(|t| t.join().ok()).collect()
    }

    fn signal_stop(&self) {
        if self.coord_tx.send(CoordMsg::Shutdown).is_ok() {
            self.fabric.drive_coordinator();
        }
        if let Some(stop) = &self.timer_stop {
            let _ = stop.send(());
        }
        for tx in &self.worker_tx {
            let _ = tx.send(WorkerMsg::Shutdown);
        }
        self.fabric.shutdown();
    }
}

impl Drop for NodeRuntime {
    fn drop(&mut self) {
        // Best-effort: detach threads if `shutdown` was not called.
        self.signal_stop();
    }
}

/// A running GraphDance cluster in one process: a [`NodeRuntime`] hosting
/// every node, plus what needs the whole cluster in one address space.
/// Everything else — `submit_at`, `submit_sink`, `cancel`, `net_stats`,
/// `metrics`, `shutdown`, … — is the runtime's, reached through `Deref`.
///
/// ```
/// # use graphdance_engine::{EngineConfig, GraphDance};
/// # use graphdance_common::{Partitioner, Value, VertexId};
/// # use graphdance_storage::GraphBuilder;
/// # use graphdance_query::QueryBuilder;
/// let mut b = GraphBuilder::new(Partitioner::new(2, 2));
/// let person = b.schema_mut().register_vertex_label("Person");
/// let knows = b.schema_mut().register_edge_label("knows");
/// for i in 0..4 {
///     b.add_vertex(VertexId(i), person, vec![]).unwrap();
/// }
/// b.add_edge(VertexId(0), knows, VertexId(1), vec![]).unwrap();
/// let graph = b.finish();
///
/// let engine = GraphDance::start(graph.clone(), EngineConfig::new(2, 2));
/// let mut q = QueryBuilder::new(graph.schema());
/// q.v_param(0).out("knows");
/// let plan = q.compile().unwrap();
/// let rows = engine.query(&plan, vec![Value::Vertex(VertexId(0))]).unwrap();
/// assert_eq!(rows, vec![vec![Value::Vertex(VertexId(1))]]);
/// engine.shutdown();
/// ```
pub struct GraphDance {
    runtime: NodeRuntime,
    txn: Arc<TxnSystem>,
    /// Per-node broadcast LCT caches (§IV-C): a read-only query may take
    /// its snapshot here; the manager pushes every LCT advance to them.
    lct_caches: Arc<[LctCache]>,
}

impl Deref for GraphDance {
    type Target = NodeRuntime;

    fn deref(&self) -> &NodeRuntime {
        &self.runtime
    }
}

impl GraphDance {
    /// Start the cluster: spawns `nodes × workers_per_node` worker threads,
    /// per-node network threads, and the coordinator's timer.
    ///
    /// # Panics
    /// Panics if the graph was built for a topology other than `config`'s.
    pub fn start(graph: Graph, config: EngineConfig) -> GraphDance {
        let lct_caches: Arc<[LctCache]> = (0..config.nodes).map(|_| LctCache::new()).collect();
        let manager = TxnManager::with_caches(0, Arc::clone(&lct_caches));
        let txn = Arc::new(TxnSystem::with_manager(graph.clone(), manager));
        GraphDance {
            runtime: NodeRuntime::launch(graph, config, None),
            txn,
            lct_caches,
        }
    }

    /// Transactional update interface (MV2PL, §IV-C). Here because the
    /// lock table and the timestamp manager are one process's memory.
    pub fn txn(&self) -> &Arc<TxnSystem> {
        &self.txn
    }

    /// Submit a query asynchronously at the current LCT snapshot (read
    /// authoritatively from the transaction manager; guarantees
    /// read-your-writes for a client that just committed). Here, with the
    /// `query*` conveniences built on it, because it picks a snapshot.
    pub fn submit(&self, plan: &Plan, params: Vec<Value>) -> QueryHandle {
        self.submit_at(plan, params, self.txn.read_ts().max(1))
    }

    /// Submit using node `node`'s broadcast LCT cache instead of the
    /// central manager (§IV-C's load-shedding path). A snapshot taken
    /// while a commit is finishing may be the one before it, but is always
    /// a consistent committed state.
    pub fn submit_cached(&self, node: u32, plan: &Plan, params: Vec<Value>) -> QueryHandle {
        let ts = self.lct_caches[node as usize % self.lct_caches.len()]
            .read_ts()
            .max(1);
        self.submit_at(plan, params, ts)
    }

    /// Submit and wait; returns just the rows.
    pub fn query(&self, plan: &Plan, params: Vec<Value>) -> GdResult<Vec<Row>> {
        Ok(self.query_timed(plan, params)?.rows)
    }

    /// Submit and wait; returns the full result (rows + latency).
    pub fn query_timed(&self, plan: &Plan, params: Vec<Value>) -> GdResult<QueryResult> {
        self.submit(plan, params).wait()
    }

    /// Submit, wait, and return the result together with the reassembled
    /// per-stage [`graphdance_obs::QueryTrace`]. The trace is `None` only
    /// if reassembly does not complete within a short grace period (all
    /// participants seal right at query end, so in practice it is ready
    /// when the reply arrives, or microseconds after). Here because the
    /// `TraceSink` expects one seal per worker of the whole topology; a
    /// socket mesh's followers seal into their own.
    #[cfg(feature = "obs")]
    pub fn query_traced(
        &self,
        plan: &Plan,
        params: Vec<Value>,
    ) -> GdResult<(QueryResult, Option<graphdance_obs::QueryTrace>)> {
        let result = self.query_timed(plan, params)?;
        let sink = self.runtime.fabric.obs().sink();
        let deadline = now() + Duration::from_secs(2);
        loop {
            if let Some(trace) = sink.take(result.query.0) {
                return Ok((result, Some(trace)));
            }
            if now() >= deadline {
                return Ok((result, None));
            }
            // lint: allow(sim-determinism) trace-sink wait on the threaded engine; SimCluster has its own query path
            std::thread::sleep(Duration::from_micros(200));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{khop_plan, ring};
    use graphdance_common::{Partitioner, VertexId};
    use graphdance_query::expr::Expr;
    use graphdance_query::plan::{AggFunc, Order};
    use graphdance_query::QueryBuilder;
    use graphdance_storage::GraphBuilder;

    #[test]
    fn one_hop_on_cluster() {
        let g = ring(16, Partitioner::new(2, 2));
        let engine = GraphDance::start(g.clone(), EngineConfig::new(2, 2));
        let plan = khop_plan(&g, 1);
        let rows = engine
            .query(&plan, vec![Value::Vertex(VertexId(3))])
            .unwrap();
        assert_eq!(rows, vec![vec![Value::Vertex(VertexId(4))]]);
        engine.shutdown();
    }

    #[test]
    fn multi_hop_reaches_ring_neighbourhood() {
        let g = ring(32, Partitioner::new(2, 4));
        let engine = GraphDance::start(g.clone(), EngineConfig::new(2, 4));
        let plan = khop_plan(&g, 4);
        let mut rows = engine
            .query(&plan, vec![Value::Vertex(VertexId(0))])
            .unwrap();
        rows.sort_by(|a, b| a[0].cmp_total(&b[0]));
        let got: Vec<u64> = rows.iter().map(|r| r[0].as_vertex().unwrap().0).collect();
        assert_eq!(got, vec![1, 2, 3, 4]);
        engine.shutdown();
    }

    #[test]
    fn topk_aggregation_distributed() {
        let g = ring(64, Partitioner::new(2, 2));
        let engine = GraphDance::start(g.clone(), EngineConfig::new(2, 2));
        let w = g.schema().prop("weight").unwrap();
        let mut b = QueryBuilder::new(g.schema());
        b.v_param(0);
        let c = b.alloc_slot();
        b.repeat(1, 5, c, |r| {
            r.out("knows");
        });
        b.dedup();
        b.top_k(
            3,
            vec![(Expr::Prop(w), Order::Desc)],
            vec![Expr::VertexId, Expr::Prop(w)],
        );
        let plan = b.compile().unwrap();
        let rows = engine
            .query(&plan, vec![Value::Vertex(VertexId(10))])
            .unwrap();
        // 5-hop from 10 reaches 11..=15; top-3 by weight: 15, 14, 13.
        assert_eq!(
            rows,
            vec![
                vec![Value::Vertex(VertexId(15)), Value::Int(15)],
                vec![Value::Vertex(VertexId(14)), Value::Int(14)],
                vec![Value::Vertex(VertexId(13)), Value::Int(13)],
            ]
        );
        engine.shutdown();
    }

    #[test]
    fn count_aggregation_and_concurrent_queries() {
        let g = ring(40, Partitioner::new(2, 2));
        let engine = GraphDance::start(g.clone(), EngineConfig::new(2, 2));
        let mut b = QueryBuilder::new(g.schema());
        b.v_param(0);
        let c = b.alloc_slot();
        b.repeat(1, 3, c, |r| {
            r.out("knows");
        });
        b.count();
        let plan = b.compile().unwrap();
        let handles: Vec<QueryHandle> = (0..8)
            .map(|i| engine.submit(&plan, vec![Value::Vertex(VertexId(i * 4))]))
            .collect();
        for h in handles {
            let r = h.wait().unwrap();
            assert_eq!(r.rows, vec![vec![Value::Int(3)]]);
            assert!(r.latency > Duration::ZERO);
        }
        engine.shutdown();
    }

    #[test]
    fn scan_label_source_runs_on_all_partitions() {
        let g = ring(24, Partitioner::new(2, 2));
        let engine = GraphDance::start(g.clone(), EngineConfig::new(2, 2));
        let mut b = QueryBuilder::new(g.schema());
        b.v().has_label("Person").count();
        let plan = b.compile().unwrap();
        let rows = engine.query(&plan, vec![]).unwrap();
        assert_eq!(rows, vec![vec![Value::Int(24)]]);
        engine.shutdown();
    }

    #[test]
    fn index_lookup_query() {
        let g = ring(24, Partitioner::new(2, 2));
        let person = g.schema().vertex_label("Person").unwrap();
        let w = g.schema().prop("weight").unwrap();
        g.build_prop_index(person, w);
        let engine = GraphDance::start(g.clone(), EngineConfig::new(2, 2));
        let mut b = QueryBuilder::new(g.schema());
        b.v()
            .has_label("Person")
            .has("weight", graphdance_query::CmpOp::Eq, Expr::Param(0))
            .out("knows");
        let plan = b.compile().unwrap();
        let rows = engine.query(&plan, vec![Value::Int(7)]).unwrap();
        assert_eq!(rows, vec![vec![Value::Vertex(VertexId(8))]]);
        engine.shutdown();
    }

    #[test]
    fn multi_stage_query() {
        use graphdance_query::plan::{AggSpec, Pipeline, PlanStep, SourceSpec, Stage};
        use graphdance_storage::Direction;
        let g = ring(16, Partitioner::new(2, 2));
        let knows = g.schema().edge_label("knows").unwrap();
        let w = g.schema().prop("weight").unwrap();
        // Stage 1: top-2 out-neighbours of $0 by weight (ring: just the
        // successor). Stage 2: expand again from those and count.
        let plan = Plan {
            stages: vec![
                Stage {
                    pipelines: vec![Pipeline {
                        source: SourceSpec::Param { param: 0 },
                        steps: vec![PlanStep::Expand {
                            dir: Direction::Out,
                            label: knows,
                            edge_loads: vec![],
                        }],
                    }],
                    joins: vec![],
                    output: vec![],
                    agg: Some(AggSpec {
                        func: AggFunc::TopK {
                            k: 2,
                            sort: vec![(Expr::Prop(w), Order::Desc)],
                            output: vec![Expr::VertexId],
                            distinct: vec![],
                        },
                    }),
                    num_slots: 1,
                },
                Stage {
                    pipelines: vec![Pipeline {
                        source: SourceSpec::PrevRows {
                            vertex_col: 0,
                            seed: vec![],
                        },
                        steps: vec![PlanStep::Expand {
                            dir: Direction::Out,
                            label: knows,
                            edge_loads: vec![],
                        }],
                    }],
                    joins: vec![],
                    output: vec![Expr::VertexId],
                    agg: None,
                    num_slots: 1,
                },
            ],
            num_params: 1,
        };
        let engine = GraphDance::start(g.clone(), EngineConfig::new(2, 2));
        let rows = engine
            .query(&plan, vec![Value::Vertex(VertexId(5))])
            .unwrap();
        // Stage 1 yields {6}; stage 2 expands 6 -> {7}.
        assert_eq!(rows, vec![vec![Value::Vertex(VertexId(7))]]);
        engine.shutdown();
    }

    #[test]
    fn invalid_params_fail_fast() {
        let g = ring(8, Partitioner::new(1, 2));
        let engine = GraphDance::start(g.clone(), EngineConfig::new(1, 2));
        let plan = khop_plan(&g, 1);
        let err = engine.query(&plan, vec![]).unwrap_err();
        assert!(matches!(err, GdError::InvalidProgram(_)));
        let err = engine.query(&plan, vec![Value::Int(3)]).unwrap_err();
        assert!(matches!(err, GdError::InvalidProgram(_)));
        engine.shutdown();
    }

    #[test]
    fn missing_vertex_yields_empty() {
        let g = ring(8, Partitioner::new(1, 2));
        let engine = GraphDance::start(g.clone(), EngineConfig::new(1, 2));
        let plan = khop_plan(&g, 2);
        let rows = engine
            .query(&plan, vec![Value::Vertex(VertexId(999))])
            .unwrap();
        assert!(rows.is_empty());
        engine.shutdown();
    }

    #[test]
    fn snapshot_reads_with_updates() {
        let g = ring(8, Partitioner::new(1, 2));
        let engine = GraphDance::start(g.clone(), EngineConfig::new(1, 2));
        let knows = g.schema().edge_label("knows").unwrap();
        let plan = khop_plan(&g, 1);
        // Commit a new edge 0 -> 5.
        let mut tx = engine.txn().begin();
        tx.insert_edge(VertexId(0), knows, VertexId(5), vec![])
            .unwrap();
        let ts = tx.commit().unwrap();
        // At the new LCT, both neighbours are visible.
        let mut rows = engine
            .query(&plan, vec![Value::Vertex(VertexId(0))])
            .unwrap();
        rows.sort_by(|a, b| a[0].cmp_total(&b[0]));
        assert_eq!(rows.len(), 2);
        // A historical snapshot still sees only the ring edge.
        let rows = engine
            .submit_at(&plan, vec![Value::Vertex(VertexId(0))], ts - 1)
            .wait()
            .unwrap()
            .rows;
        assert_eq!(rows, vec![vec![Value::Vertex(VertexId(1))]]);
        engine.shutdown();
    }

    /// Acceptance: `--trace`-style tracing on a k-hop query emits a
    /// `QueryTrace` whose traverser-lane totals reconcile with the
    /// `MsgLedger` conservation counters, and the metrics snapshot covers
    /// worker + storage instrumentation.
    #[cfg(feature = "obs")]
    #[test]
    fn trace_and_metrics_cover_khop() {
        use crate::invariants::MsgLedger;
        let g = ring(32, Partitioner::new(2, 2));
        let engine = GraphDance::start(g.clone(), EngineConfig::new(2, 2));
        let plan = khop_plan(&g, 3);
        let (r, trace) = engine
            .query_traced(&plan, vec![Value::Vertex(VertexId(0))])
            .unwrap();
        assert_eq!(r.rows.len(), 3, "3-hop from 0 reaches 1..=3");
        let t = trace.expect("trace reassembled");
        assert_eq!(t.query, r.query.0);
        assert!(!t.stages.is_empty(), "at least one stage traced");
        assert!(
            t.stages.iter().map(|s| s.executed()).sum::<u64>() > 0,
            "traverser executions recorded"
        );
        if MsgLedger::ENABLED {
            assert_eq!(
                t.traverser_msgs(),
                t.ledger_sent,
                "trace traverser-lane totals reconcile with the ledger:\n{}",
                t.pretty()
            );
            assert_eq!(t.ledger_sent, t.ledger_delivered, "conservation");
        }
        let m = engine.metrics();
        assert!(m.scalar("worker.executed") > 0, "worker metrics flowed");
        assert!(m.scalar("net.control_msgs") > 0, "net metrics flowed");
        let scan = m.hist("storage.tel_scan_len").expect("tel histogram");
        assert!(scan.count() > 0, "TEL scans recorded");
        let prom = m.to_prometheus();
        assert!(prom.contains("worker_executed"), "{prom}");
        assert!(prom.contains("storage_tel_scan_len"), "{prom}");
        engine.shutdown();
    }

    #[test]
    fn net_stats_accumulate() {
        let g = ring(64, Partitioner::new(2, 2));
        let engine = GraphDance::start(g.clone(), EngineConfig::new(2, 2));
        let before = engine.net_stats();
        let plan = khop_plan(&g, 4);
        engine
            .query(&plan, vec![Value::Vertex(VertexId(0))])
            .unwrap();
        let after = engine.net_stats().since(&before);
        assert!(after.control_msgs > 0, "query begin/end control traffic");
        assert!(after.progress_msgs > 0, "progress reports flowed");
        engine.shutdown();
    }

    /// §IV-C's broadcast is a push: a commit that has returned is in every
    /// node's cache, so a cached snapshot needs no waiting out.
    #[test]
    fn cached_snapshots_see_a_returned_commit() {
        let mut b = GraphBuilder::new(Partitioner::new(2, 2));
        let n = b.schema_mut().register_vertex_label("N");
        let e = b.schema_mut().register_edge_label("e");
        for i in 0..4u64 {
            b.add_vertex(VertexId(i), n, vec![]).unwrap();
        }
        let g = b.finish();
        let engine = GraphDance::start(g.clone(), EngineConfig::new(2, 2));
        let mut qb = QueryBuilder::new(g.schema());
        qb.v_param(0).out("e").count();
        let plan = qb.compile().unwrap();

        let mut tx = engine.txn().begin();
        tx.insert_edge(VertexId(0), e, VertexId(1), vec![]).unwrap();
        tx.commit().unwrap();

        for node in 0..2 {
            let rows = engine
                .submit_cached(node, &plan, vec![Value::Vertex(VertexId(0))])
                .wait()
                .unwrap()
                .rows;
            assert_eq!(rows, vec![vec![Value::Int(1)]], "node {node}'s cache");
        }
        // The authoritative path agrees (read-your-writes).
        let rows = engine
            .query(&plan, vec![Value::Vertex(VertexId(0))])
            .unwrap();
        assert_eq!(rows, vec![vec![Value::Int(1)]]);
        engine.shutdown();
    }
}
