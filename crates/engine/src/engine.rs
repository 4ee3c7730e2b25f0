//! The public GraphDance engine API.

use std::time::Duration;

use graphdance_common::time::now;

use crossbeam::channel::{bounded, unbounded, Receiver, RecvTimeoutError, Sender};

use graphdance_common::{GdError, GdResult, QueryId, Value};
use graphdance_pstm::Row;
use graphdance_query::plan::Plan;
use graphdance_storage::{Graph, Timestamp};
use graphdance_txn::manager::LctCache;
use graphdance_txn::TxnSystem;

use crate::config::EngineConfig;
use crate::coordinator::Coordinator;
use crate::messages::{CoordMsg, ReplySink, WorkerMsg};
use crate::net::{Fabric, NetStatsSnapshot};
use crate::worker::spawn_workers;

use std::sync::Arc;

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
    /// Build a handle around a reply channel (the multi-process
    /// [`crate::node::NodeRuntime`] mints its own handles).
    pub(crate) fn internal_new(id: QueryId, rx: Receiver<GdResult<QueryResult>>) -> QueryHandle {
        QueryHandle { id, rx }
    }

    /// The pre-assigned query id (pass to [`GraphDance::cancel`]).
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

/// A running GraphDance cluster (simulated in-process; see DESIGN.md).
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
    graph: Graph,
    txn: Arc<TxnSystem>,
    fabric: Arc<Fabric>,
    coord_tx: Sender<CoordMsg>,
    worker_tx: Vec<Sender<WorkerMsg>>,
    /// Joined (and emptied) by [`GraphDance::close`].
    threads: parking_lot::Mutex<Vec<std::thread::JoinHandle<()>>>,
    config: EngineConfig,
    /// Per-node broadcast LCT caches (§IV-C): read-only queries may take
    /// their snapshot from any node without consulting the central
    /// transaction manager. Refreshed by the broadcaster thread.
    lct_caches: Arc<Vec<LctCache>>,
    lct_stop: Arc<std::sync::atomic::AtomicBool>,
    /// Client-side query-id allocator. Ids are assigned *before* the
    /// `Submit` message is sent so a caller can cancel a query it has not
    /// yet seen complete (the service front-end depends on this).
    // sync: monotonic id counter shared by submitting threads; fetch_add
    // uniqueness is the only property used, no other data rides on it
    // lint: allow(adhoc-counter) query-id allocator, not a metric
    next_qid: std::sync::atomic::AtomicU64,
}

impl GraphDance {
    /// Start the cluster: spawns `nodes × workers_per_node` worker threads,
    /// per-node network threads, and the coordinator.
    ///
    /// # Panics
    /// Panics if the graph was built for a different topology than
    /// `config` describes.
    pub fn start(graph: Graph, config: EngineConfig) -> GraphDance {
        assert_eq!(
            graph.partitioner().num_parts(),
            config.num_parts(),
            "graph partition count must match the engine topology"
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
        let (fabric, mut threads) = Fabric::new(&config, worker_tx.clone(), coord_tx.clone());
        threads.extend(spawn_workers(&graph, &fabric, worker_rx, &config));
        let coordinator = Coordinator::new(graph.clone(), &fabric, coord_rx, &config);
        threads.push(
            std::thread::Builder::new()
                .name("gd-coordinator".into())
                .spawn(move || coordinator.run())
                // Engine startup, before any query: a failed spawn here is
                // an unusable process, not a wedged query.
                .expect("spawn coordinator"), // lint: allow(hot-path-panics)
        );
        let txn = Arc::new(TxnSystem::new(graph.clone()));
        // LCT broadcast (§IV-C): a background broadcaster periodically
        // publishes the manager's LCT to every node's cache.
        let lct_caches: Arc<Vec<LctCache>> =
            Arc::new((0..config.nodes).map(|_| LctCache::new()).collect());
        let lct_stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        {
            let caches = Arc::clone(&lct_caches);
            let stop = Arc::clone(&lct_stop);
            let mgr = Arc::clone(txn.manager());
            threads.push(
                std::thread::Builder::new()
                    .name("gd-lct-broadcast".into())
                    .spawn(move || {
                        // sync: stop flag — eventual visibility suffices,
                        // no data is published through it
                        while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                            for c in caches.iter() {
                                c.refresh(&mgr);
                            }
                            // lint: allow(sim-determinism) broadcaster thread exists in threaded mode only
                            std::thread::sleep(Duration::from_micros(500));
                        }
                    })
                    // Startup-time, same as the coordinator spawn above.
                    .expect("spawn lct broadcaster"), // lint: allow(hot-path-panics)
            );
        }
        GraphDance {
            graph,
            txn,
            fabric,
            coord_tx,
            worker_tx,
            threads: parking_lot::Mutex::new(threads),
            config,
            lct_caches,
            lct_stop,
            // lint: allow(adhoc-counter) query-id allocator, not a metric
            next_qid: std::sync::atomic::AtomicU64::new(1),
        }
    }

    /// The underlying graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Transactional update interface (MV2PL, §IV-C).
    pub fn txn(&self) -> &Arc<TxnSystem> {
        &self.txn
    }

    /// The engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Submit a query asynchronously at the current LCT snapshot (read
    /// authoritatively from the transaction manager; guarantees
    /// read-your-writes for a client that just committed).
    pub fn submit(&self, plan: &Plan, params: Vec<Value>) -> QueryHandle {
        self.submit_at(plan, params, self.txn.read_ts().max(1))
    }

    /// Submit using node `node`'s broadcast LCT cache instead of the
    /// central manager (§IV-C's load-shedding path). The snapshot may lag
    /// the manager by up to one broadcast interval but is always a
    /// consistent committed state.
    pub fn submit_cached(&self, node: u32, plan: &Plan, params: Vec<Value>) -> QueryHandle {
        let ts = self.lct_caches[node as usize % self.lct_caches.len()]
            .read_ts()
            .max(1);
        self.submit_at(plan, params, ts)
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
        deadline: Option<std::time::Instant>,
    ) -> QueryHandle {
        let (reply, rx) = bounded(1);
        let (id, undelivered) =
            self.send_submit(plan.clone(), params, read_ts, deadline, reply.into());
        if let Some(sink) = undelivered {
            // Coordinator gone: synthesize the failure.
            sink.complete(Err(GdError::EngineClosed));
        }
        QueryHandle { id, rx }
    }

    /// Submit by value with a completion sink instead of a handle: the
    /// plan is moved into the engine, and `sink` runs on the coordinator
    /// thread when the query resolves (see [`ReplySink`] for what it may
    /// do there). Returns the pre-assigned query id (pass to
    /// [`GraphDance::cancel`]), or hands the sink back unrun when the
    /// engine is closed.
    pub fn submit_sink(
        &self,
        plan: Plan,
        params: Vec<Value>,
        read_ts: Timestamp,
        deadline: Option<std::time::Instant>,
        sink: ReplySink,
    ) -> Result<QueryId, ReplySink> {
        match self.send_submit(plan, params, read_ts, deadline, sink) {
            (id, None) => Ok(id),
            (_, Some(sink)) => Err(sink),
        }
    }

    /// Assign the next query id and send the `Submit`; the sink comes back
    /// when the coordinator is gone.
    fn send_submit(
        &self,
        plan: Plan,
        params: Vec<Value>,
        read_ts: Timestamp,
        deadline: Option<std::time::Instant>,
        reply: ReplySink,
    ) -> (QueryId, Option<ReplySink>) {
        let id = QueryId(
            self.next_qid
                // sync: uniqueness only; see field docs
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed),
        );
        let msg = CoordMsg::Submit {
            query: id,
            plan,
            params,
            read_ts: Some(read_ts),
            reply,
            submitted_at: now(),
            deadline,
        };
        match self.coord_tx.send(msg) {
            Ok(()) => (id, None),
            Err(crossbeam::channel::SendError(CoordMsg::Submit { reply, .. })) => (id, Some(reply)),
            Err(_) => unreachable!("a failed send returns the message it was given"), // lint: allow(hot-path-panics)
        }
    }

    /// Request prompt cancellation of an in-flight query. Asynchronous and
    /// idempotent: the query's handle resolves to `QueryCancelled` once
    /// the drain protocol completes (or to its actual result if the query
    /// finished first).
    pub fn cancel(&self, query: QueryId) {
        let _ = self.coord_tx.send(CoordMsg::Cancel { query });
    }

    /// Ask the coordinator to migrate the given vertices to new home
    /// partitions while queries keep running (an empty list requests a
    /// plan from the fabric's hot-vertex sketch — enable it first with
    /// `fabric().hot_tracker().set_enabled(true)`). Asynchronous: each
    /// migration runs the freeze → install → commit → retire protocol of
    /// DESIGN.md §14; in-flight queries keep their pinned routing.
    pub fn rebalance(&self, moves: Vec<(graphdance_common::VertexId, graphdance_common::PartId)>) {
        let _ = self.coord_tx.send(CoordMsg::Rebalance { moves });
    }

    /// Submit and wait; returns just the rows.
    pub fn query(&self, plan: &Plan, params: Vec<Value>) -> GdResult<Vec<Row>> {
        Ok(self.submit(plan, params).wait()?.rows)
    }

    /// Submit and wait; returns the full result (rows + latency).
    pub fn query_timed(&self, plan: &Plan, params: Vec<Value>) -> GdResult<QueryResult> {
        self.submit(plan, params).wait()
    }

    /// Snapshot the network counters.
    pub fn net_stats(&self) -> NetStatsSnapshot {
        self.fabric.stats().snapshot()
    }

    /// The network fabric (counters, conservation ledger, hot-vertex
    /// sketch).
    pub fn fabric(&self) -> &Arc<Fabric> {
        &self.fabric
    }

    /// Merged point-in-time snapshot of every engine metric, including the
    /// network counters ([`GraphDance::net_stats`], under `net.*`) and the
    /// storage layer's TEL scan-length distribution. Export with
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

    /// Submit, wait, and return the result together with the reassembled
    /// per-stage [`graphdance_obs::QueryTrace`]. The trace is `None` only
    /// if reassembly does not complete within a short grace period (all
    /// participants seal right at query end, so in practice it is ready by
    /// the time the result reply arrives, or within microseconds after).
    #[cfg(feature = "obs")]
    pub fn query_traced(
        &self,
        plan: &Plan,
        params: Vec<Value>,
    ) -> GdResult<(QueryResult, Option<graphdance_obs::QueryTrace>)> {
        let result = self.submit(plan, params).wait()?;
        let sink = self.fabric.obs().sink();
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

    /// Stop all threads. In-flight queries fail with `EngineClosed`.
    pub fn shutdown(self) {
        self.close();
    }

    /// [`GraphDance::shutdown`] through a shared reference, for an owner
    /// that cannot give the engine up by value (the service's completion
    /// sinks borrow it until the coordinator has stopped). Idempotent.
    /// Joins the coordinator, so it must not be called from a
    /// [`ReplySink`].
    pub fn close(&self) {
        self.signal_stop();
        // sync: held across the joins only against a concurrent close();
        // engine threads never take this lock
        for t in self.threads.lock().drain(..) {
            let _ = t.join();
        }
    }

    fn signal_stop(&self) {
        self.lct_stop
            // sync: stop flag — the joins in close() are the ordering edge;
            // eventual visibility suffices on the detaching Drop path
            .store(true, std::sync::atomic::Ordering::Relaxed);
        let _ = self.coord_tx.send(CoordMsg::Shutdown);
        for tx in &self.worker_tx {
            let _ = tx.send(WorkerMsg::Shutdown);
        }
        self.fabric.shutdown();
    }
}

impl Drop for GraphDance {
    fn drop(&mut self) {
        // Best-effort: detach threads if `shutdown` was not called.
        self.signal_stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphdance_common::{Partitioner, VertexId};
    use graphdance_query::expr::Expr;
    use graphdance_query::plan::{AggFunc, Order};
    use graphdance_query::QueryBuilder;
    use graphdance_storage::GraphBuilder;

    /// A ring of `n` vertices: i -> (i + 1) % n, weights = i.
    fn ring(n: u64, parts: Partitioner) -> Graph {
        let mut b = GraphBuilder::new(parts);
        let person = b.schema_mut().register_vertex_label("Person");
        let knows = b.schema_mut().register_edge_label("knows");
        let weight = b.schema_mut().register_prop("weight");
        for i in 0..n {
            b.add_vertex(VertexId(i), person, vec![(weight, Value::Int(i as i64))])
                .unwrap();
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
}

#[cfg(test)]
mod lct_cache_tests {
    use super::*;
    use graphdance_common::{Partitioner, VertexId};
    use graphdance_query::QueryBuilder;
    use graphdance_storage::GraphBuilder;

    #[test]
    fn cached_snapshots_converge_to_committed_state() {
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

        // The broadcast cache lags by at most the broadcast interval; poll
        // until the cached snapshot observes the commit (bounded wait).
        let deadline = now() + Duration::from_secs(5);
        loop {
            let rows = engine
                .submit_cached(1, &plan, vec![Value::Vertex(VertexId(0))])
                .wait()
                .unwrap()
                .rows;
            if rows == vec![vec![Value::Int(1)]] {
                break;
            }
            assert!(
                now() < deadline,
                "broadcast cache never caught up: {rows:?}"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        // The authoritative path sees it immediately (read-your-writes).
        let rows = engine
            .query(&plan, vec![Value::Vertex(VertexId(0))])
            .unwrap();
        assert_eq!(rows, vec![vec![Value::Int(1)]]);
        engine.shutdown();
    }
}
