//! The non-partitioned graph model baseline (§V-A2).
//!
//! "In this scenario, the graph data and query states are not partitioned
//! and are shared by all worker threads" (within a node). Threads of a node
//! pull traversers from one **shared work queue** and mutate one **latched
//! memo**, so every stateful step (Dedup, MinDist, Join, aggregation
//! insert) serializes on a node-wide mutex and every scheduling operation
//! contends on the queue lock — the synchronization overhead the
//! partitioned PSTM design eliminates. Cross-node routing, progress
//! tracking, and the coordinator are identical to GraphDance.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use graphdance_common::time::now;

use crossbeam::channel::{bounded, unbounded, Receiver, Sender};
use parking_lot::{Mutex, RwLock};
use rand::rngs::SmallRng;

use graphdance_common::{FxHashMap, FxHashSet, GdError, GdResult, QueryId, Value, WorkerId};
use graphdance_engine::config::EngineConfig;
use graphdance_engine::coordinator::Coordinator;
use graphdance_engine::messages::{CoordMsg, QueryCtx, WorkerMsg};
use graphdance_engine::net::{Fabric, NetStatsSnapshot, Outbox};
use graphdance_engine::QueryResult;
use graphdance_pstm::{Interpreter, Memo, Outcome, Traverser, Weight};
use graphdance_query::plan::Plan;
use graphdance_storage::Graph;

use crate::traits::QueryEngine;

/// Build an interpreter over disjoint borrows (keeps `&mut self.rng` and
/// `&mut self.memo` usable alongside it).
fn make_interp<'a>(graph: &'a Graph, ctx: &'a QueryCtx, stage: u16) -> Interpreter<'a> {
    Interpreter {
        graph,
        plan: &ctx.plan,
        stage_idx: stage as usize,
        query: ctx.query,
        params: &ctx.params,
        read_ts: ctx.read_ts,
        routing_version: ctx.routing_version,
    }
}

/// Execution state shared by all worker threads of one node.
struct NodeShared {
    queue: Mutex<VecDeque<Traverser>>,
    memo: Mutex<Memo>,
    queries: RwLock<FxHashMap<QueryId, (Arc<QueryCtx>, u16)>>,
    dead: Mutex<FxHashSet<QueryId>>,
}

impl NodeShared {
    fn new() -> Self {
        NodeShared {
            queue: Mutex::new(VecDeque::new()),
            memo: Mutex::new(Memo::new()),
            queries: RwLock::new(FxHashMap::default()),
            dead: Mutex::new(FxHashSet::default()),
        }
    }
}

struct SharedWorker {
    id: WorkerId,
    graph: Graph,
    inbox: Receiver<WorkerMsg>,
    outbox: Outbox,
    shared: Arc<NodeShared>,
    /// The node's designated worker handles once-per-node duties
    /// (aggregation gathers, stage resets).
    designated: bool,
    rng: SmallRng,
    weight_coalescing: bool,
    /// Finished weight this worker has consumed but not yet reported,
    /// per query. Kept per-worker (NOT in the node-shared memo) so the
    /// progress report travels through the *same* outbox FIFO as the rows
    /// this worker emitted: a node-shared accumulator drained by another
    /// thread lets progress overtake rows still buffered in this worker's
    /// outbox, and the coordinator then completes the query before the
    /// rows arrive.
    finished: FxHashMap<QueryId, Weight>,
    batch: usize,
}

impl SharedWorker {
    fn run(mut self) {
        loop {
            // Drain control/batch messages.
            loop {
                match self.inbox.try_recv() {
                    Ok(WorkerMsg::Shutdown) => return,
                    Ok(msg) => self.handle(msg),
                    Err(_) => break,
                }
            }
            // Pull from the shared (contended) queue.
            let mut executed = 0;
            while executed < self.batch {
                let Some(t) = self.shared.queue.lock().pop_front() else {
                    break;
                };
                self.execute(t);
                executed += 1;
            }
            self.outbox.flush_local();
            if executed == 0 {
                self.flush_progress();
                self.outbox.flush_all();
                match self.inbox.recv_timeout(Duration::from_micros(200)) {
                    Ok(WorkerMsg::Shutdown) => return,
                    Ok(msg) => self.handle(msg),
                    Err(crossbeam::channel::RecvTimeoutError::Timeout) => {}
                    Err(_) => return,
                }
            }
        }
    }

    fn handle(&mut self, msg: WorkerMsg) {
        match msg {
            WorkerMsg::Batch(ts) => {
                let dead = self.shared.dead.lock();
                let mut q = self.shared.queue.lock();
                for t in ts {
                    if !dead.contains(&t.query) {
                        q.push_back(t);
                    }
                }
            }
            WorkerMsg::QueryBegin { ctx, stage } => {
                let qid = ctx.query;
                self.shared.dead.lock().remove(&qid);
                self.shared.queries.write().insert(qid, (ctx, stage));
            }
            WorkerMsg::StageBegin { query, stage } => {
                let mut qs = self.shared.queries.write();
                if let Some((_, s)) = qs.get_mut(&query) {
                    if *s != stage {
                        *s = stage;
                        let _ = self.shared.memo.lock().query_mut(query).take_stage_state();
                    }
                }
            }
            WorkerMsg::StartSource {
                query,
                pipeline,
                weight,
            } => {
                let ctx = match self.shared.queries.read().get(&query) {
                    Some((c, s)) => (Arc::clone(c), *s),
                    None => return,
                };
                let interp = make_interp(&self.graph, &ctx.0, ctx.1);
                let out = {
                    let part = self.graph.read(self.id.part());
                    interp.run_source(pipeline, weight, &part, &mut self.rng)
                };
                match out {
                    Ok(out) => self.route(query, out),
                    Err(e) => {
                        self.outbox
                            .send_ctrl_coord(CoordMsg::WorkerError { query, error: e });
                    }
                }
            }
            WorkerMsg::GatherAgg { query } => {
                // Only the designated worker holds the node's (single)
                // partial; the others answer with an empty share so the
                // coordinator still receives one reply per worker.
                let state = if self.designated {
                    self.shared.memo.lock().query_mut(query).take_stage_state()
                } else {
                    None
                };
                self.outbox.send_ctrl_coord(CoordMsg::AggPartial {
                    query,
                    part: self.id.part(),
                    state: state.map(Box::new),
                });
            }
            WorkerMsg::QueryEnd { query } => {
                self.shared.dead.lock().insert(query);
                self.shared.queries.write().remove(&query);
                self.finished.remove(&query);
                if self.designated {
                    self.shared.memo.lock().clear_query(query);
                    self.shared.queue.lock().retain(|t| t.query != query);
                }
            }
            WorkerMsg::CancelQuery { .. } => {
                // The shared-state baseline never issues cancels; the async
                // engine's drain protocol does not apply here.
            }
            WorkerMsg::MigrateFreeze { .. }
            | WorkerMsg::MigrateInstall { .. }
            | WorkerMsg::MigrateCommit { .. }
            | WorkerMsg::MigrateRetire { .. } => {
                // The shared-state baseline has no partitions to migrate
                // between; live migration is an async-engine feature.
            }
            WorkerMsg::Bsp(_) => {}
            WorkerMsg::Shutdown => unreachable!("handled by run()"),
        }
    }

    fn execute(&mut self, t: Traverser) {
        let query = t.query;
        // lint: allow(hot-path-blocking) shared-state baseline: this
        // cross-worker registry read IS the contention the baseline measures
        let ctx = match self.shared.queries.read().get(&query) {
            Some((c, s)) => (Arc::clone(c), *s),
            None => return,
        };
        let interp = make_interp(&self.graph, &ctx.0, ctx.1);
        // The traverser may sit on any partition of this node; read that
        // partition (shared RwLock) and latch the node-wide memo for the
        // whole execution — the contention this baseline measures.
        let part_id = self.graph.part_of(t.vertex);
        let out = {
            let part = self.graph.read(part_id);
            // lint: allow(hot-path-blocking) shared-state baseline: the
            // node-wide memo latch is the bottleneck under test (§VI fig 9)
            let mut memo = self.shared.memo.lock();
            interp.run_traverser(t, &part, memo.query_mut(query), &mut self.rng)
        };
        match out {
            Ok(out) => self.route(query, out),
            Err(e) => {
                self.outbox
                    .send_ctrl_coord(CoordMsg::WorkerError { query, error: e });
            }
        }
    }

    fn route(&mut self, query: QueryId, out: Outcome) {
        let my_node = self.graph.partitioner().node_of_worker(self.id);
        for (dest, t) in out.spawned {
            let dest_worker = self.graph.partitioner().worker_of_part(dest);
            if self.graph.partitioner().node_of_worker(dest_worker) == my_node {
                // lint: allow(hot-path-blocking) shared-state baseline:
                // single global work queue by design, push is O(1)
                self.shared.queue.lock().push_back(t);
            } else {
                self.outbox.send_traverser(dest_worker, t);
            }
        }
        if !out.emitted.is_empty() {
            self.outbox.send_rows(query, out.emitted);
        }
        if out.finished != Weight::ZERO {
            if self.weight_coalescing {
                self.finished
                    .entry(query)
                    .or_insert(Weight::ZERO)
                    .absorb(out.finished);
            } else {
                self.outbox
                    .send_progress(query, out.finished, out.steps_executed as u64);
            }
        }
    }

    fn flush_progress(&mut self) {
        if !self.weight_coalescing {
            return;
        }
        for (q, w) in self.finished.drain() {
            self.outbox.send_progress(q, w, 0);
        }
    }
}

/// GraphDance with node-shared execution state (the §V-A2 ablation).
pub struct NonPartitionedEngine {
    fabric: Arc<Fabric>,
    coord_tx: Sender<CoordMsg>,
    worker_tx: Vec<Sender<WorkerMsg>>,
    threads: Mutex<Vec<std::thread::JoinHandle<()>>>,
    txn: Arc<graphdance_txn::TxnSystem>,
    /// Client-side query-id allocator (ids are pre-assigned on submit).
    // sync: monotonic id counter; fetch_add uniqueness is all that matters
    qid: AtomicU64,
}

impl NonPartitionedEngine {
    /// Start the cluster.
    pub fn start(graph: Graph, config: EngineConfig) -> Self {
        assert_eq!(graph.partitioner().num_parts(), config.num_parts());
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
        let shared: Vec<Arc<NodeShared>> = (0..config.nodes)
            .map(|_| Arc::new(NodeShared::new()))
            .collect();
        for (i, inbox) in worker_rx.into_iter().enumerate() {
            let id = WorkerId(i as u32);
            let node = fabric.partitioner().node_of_worker(id);
            let worker = SharedWorker {
                id,
                graph: graph.clone(),
                inbox,
                outbox: fabric.outbox(node),
                shared: Arc::clone(&shared[node.as_usize()]),
                designated: id.0.is_multiple_of(config.workers_per_node),
                rng: graphdance_common::rng::derive(config.seed, 0x2000 + i as u64),
                weight_coalescing: config.weight_coalescing,
                finished: FxHashMap::default(),
                batch: config.worker_batch,
            };
            threads.push(
                std::thread::Builder::new()
                    .name(format!("np-worker-{i}"))
                    .spawn(move || worker.run())
                    .expect("spawn worker"),
            );
        }
        let coordinator = Coordinator::new(graph.clone(), &fabric, coord_rx, &config);
        threads.push(
            std::thread::Builder::new()
                .name("np-coordinator".into())
                .spawn(move || coordinator.run())
                .expect("spawn coordinator"),
        );
        let txn = Arc::new(graphdance_txn::TxnSystem::new(graph));
        NonPartitionedEngine {
            fabric,
            coord_tx,
            worker_tx,
            threads: Mutex::new(threads),
            txn,
            qid: AtomicU64::new(1),
        }
    }

    /// Stop all threads.
    pub fn shutdown(&self) {
        let _ = self.coord_tx.send(CoordMsg::Shutdown);
        for tx in &self.worker_tx {
            let _ = tx.send(WorkerMsg::Shutdown);
        }
        self.fabric.shutdown();
        for t in self.threads.lock().drain(..) {
            let _ = t.join();
        }
    }
}

impl QueryEngine for NonPartitionedEngine {
    fn name(&self) -> &str {
        "Non-Partitioned"
    }

    fn query_timed(&self, plan: &Plan, params: Vec<Value>) -> GdResult<QueryResult> {
        let (reply, rx) = bounded(1);
        let msg = CoordMsg::Submit {
            // sync: uniqueness only; see field docs
            query: QueryId(self.qid.fetch_add(1, Ordering::Relaxed)),
            plan: plan.clone(),
            params,
            read_ts: Some(self.txn.read_ts().max(1)),
            reply: reply.into(),
            submitted_at: now(),
            deadline: None,
        };
        self.coord_tx.send(msg).map_err(|_| GdError::EngineClosed)?;
        rx.recv().unwrap_or(Err(GdError::EngineClosed))
    }

    fn net_stats(&self) -> NetStatsSnapshot {
        self.fabric.stats().snapshot()
    }

    fn stop(self: Box<Self>) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphdance_common::{Partitioner, VertexId};
    use graphdance_query::QueryBuilder;
    use graphdance_storage::GraphBuilder;

    fn ring(n: u64) -> Graph {
        let mut b = GraphBuilder::new(Partitioner::new(2, 2));
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

    #[test]
    fn shared_state_khop() {
        let g = ring(32);
        let engine = NonPartitionedEngine::start(g.clone(), EngineConfig::new(2, 2));
        let mut b = QueryBuilder::new(g.schema());
        b.v_param(0);
        let c = b.alloc_slot();
        b.repeat(1, 3, c, |r| {
            r.out("knows");
        });
        b.dedup();
        let plan = b.compile().unwrap();
        let mut rows = engine
            .query_timed(&plan, vec![Value::Vertex(VertexId(4))])
            .unwrap()
            .rows;
        rows.sort_by(|a, b| a[0].cmp_total(&b[0]));
        let got: Vec<u64> = rows.iter().map(|r| r[0].as_vertex().unwrap().0).collect();
        assert_eq!(got, vec![5, 6, 7]);
        engine.shutdown();
    }

    #[test]
    fn shared_state_count() {
        let g = ring(20);
        let engine = NonPartitionedEngine::start(g.clone(), EngineConfig::new(2, 2));
        let mut b = QueryBuilder::new(g.schema());
        b.v().has_label("Person").count();
        let plan = b.compile().unwrap();
        let rows = engine.query_timed(&plan, vec![]).unwrap().rows;
        assert_eq!(rows, vec![vec![Value::Int(20)]]);
        engine.shutdown();
    }
}
