//! The non-partitioned graph model baseline (§V-A2).
//!
//! "In this scenario, the graph data and query states are not partitioned
//! and are shared by all worker threads" (within a node). Threads of a node
//! pull traversers from one **shared work queue** and mutate one **latched
//! memo**, so every stateful step (Dedup, MinDist, Join, aggregation
//! insert) serializes on a node-wide mutex and every scheduling operation
//! contends on the queue lock — the synchronization overhead the
//! partitioned PSTM design eliminates. The step itself is GraphDance's
//! arena step, run per popped traverser. Cross-node routing, progress
//! tracking, and the coordinator are identical to GraphDance, and so is
//! the control plane (DESIGN.md §IV-A) at node granularity: a query's
//! context, stage and teardown are registered node-wide, and any worker of
//! the node introduces the query to a remote worker before the node's
//! first work for it.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crossbeam::channel::{bounded, Receiver, Sender};
use parking_lot::{Mutex, RwLock};
use rand::rngs::SmallRng;

use graphdance_common::{FxHashMap, FxHashSet, GdError, GdResult, QueryId, Value, WorkerId};
use graphdance_engine::config::{EngineConfig, WORKER_BATCH};
use graphdance_engine::coordinator::Coordinator;
use graphdance_engine::engine::{assemble, send_submit, spawn};
use graphdance_engine::messages::{CoordMsg, QueryCtx, QueryScope, WorkerMsg};
use graphdance_engine::net::{Fabric, NetStatsSnapshot, Outbox};
use graphdance_engine::QueryResult;
use graphdance_pstm::{
    AggState, HandleOutcome, LocalsTable, Memo, Traverser, TraverserArena, Weight,
};
use graphdance_query::plan::Plan;
use graphdance_storage::Graph;

use crate::traits::QueryEngine;

/// A query as one node holds it.
struct NodeQuery {
    ctx: Arc<QueryCtx>,
    stage: u16,
    /// The node's control-plane reach, per remote worker (each inbox must
    /// see the query's context and stage ahead of its work). Introductions
    /// are made under the registry's write lock, so once one is recorded
    /// its `QueryBegin` is already on the node's FIFO egress path.
    scope: QueryScope,
    cancelled: bool,
}

/// Move a node's copy of `query` to a later `stage` — resetting the node's
/// per-stage memo state — and pass the advance, through `outbox`, to every
/// remote worker the node knows holds the context. Called under the
/// registry write lock, so no worker of the node sends work of the new
/// stage before the advance is on its way.
fn advance_node_stage(
    memo: &Mutex<Memo>,
    outbox: &mut Outbox,
    query: QueryId,
    nq: &mut NodeQuery,
    stage: u16,
) {
    if stage <= nq.stage {
        return;
    }
    nq.stage = stage;
    let _ = memo.lock().query_mut(query).take_stage_state();
    for dest in nq.scope.known.iter() {
        outbox.send_ctrl_worker(dest, WorkerMsg::StageBegin { query, stage });
    }
}

/// Execution state shared by all worker threads of one node. Locks are
/// taken in field order.
struct NodeShared {
    dead: Mutex<FxHashSet<QueryId>>,
    queries: RwLock<FxHashMap<QueryId, NodeQuery>>,
    memo: Mutex<Memo>,
    queue: Mutex<VecDeque<Traverser>>,
}

impl NodeShared {
    fn new() -> Self {
        NodeShared {
            dead: Mutex::new(FxHashSet::default()),
            queries: RwLock::new(FxHashMap::default()),
            memo: Mutex::new(Memo::new()),
            queue: Mutex::new(VecDeque::new()),
        }
    }
}

struct SharedWorker {
    id: WorkerId,
    graph: Graph,
    inbox: Receiver<WorkerMsg>,
    outbox: Outbox,
    shared: Arc<NodeShared>,
    rng: SmallRng,
    /// This thread's arena step: a traverser popped from the node-shared
    /// queue is interned here, runs, and its children are flattened back
    /// to wire traversers as they are pushed, so between executions the
    /// arena and the locals table are empty.
    arena: TraverserArena,
    locals: LocalsTable,
    /// Reused outcome buffers.
    scratch: HandleOutcome,
    weight_coalescing: bool,
    /// Finished weight and plan steps this worker has consumed but not yet
    /// reported, per query. Kept per-worker (NOT in the node-shared memo)
    /// so the progress report travels through the *same* outbox FIFO as
    /// the rows this worker emitted: a node-shared accumulator drained by
    /// another thread lets progress overtake rows still buffered in this
    /// worker's outbox, and the coordinator then completes the query
    /// before the rows arrive.
    finished: FxHashMap<QueryId, (Weight, u64)>,
    /// Aggregation this worker's executions built and it has not reported
    /// yet, per query — moved out of the node-shared memo under the memo
    /// lock after each execution, for the same reason: a partial must
    /// travel ahead of the progress report of the weight that built it.
    partials: FxHashMap<QueryId, AggState>,
}

impl SharedWorker {
    fn new(
        id: WorkerId,
        graph: Graph,
        fabric: &Arc<Fabric>,
        inbox: Receiver<WorkerMsg>,
        shared: Arc<NodeShared>,
        config: &EngineConfig,
    ) -> Self {
        SharedWorker {
            id,
            graph,
            inbox,
            outbox: fabric.outbox(fabric.partitioner().node_of_worker(id)),
            shared,
            rng: graphdance_common::rng::derive(config.seed, 0x2000 + id.0 as u64),
            arena: TraverserArena::new(),
            locals: LocalsTable::new(),
            scratch: HandleOutcome::new(),
            weight_coalescing: config.weight_coalescing,
            finished: FxHashMap::default(),
            partials: FxHashMap::default(),
        }
    }

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
            while executed < WORKER_BATCH {
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
            }
            // What the flushes put in the coordinator's inbox runs here,
            // with no node-shared lock held.
            self.outbox.drive_coordinator();
            if executed == 0 {
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
            WorkerMsg::HandOff(run) => {
                // The node-shared queue is flat, by design.
                let ts = run.into_traversers();
                let mut unintroduced = None;
                {
                    let dead = self.shared.dead.lock();
                    let queries = self.shared.queries.read();
                    let mut q = self.shared.queue.lock();
                    for t in ts {
                        if dead.contains(&t.query) {
                        } else if queries.contains_key(&t.query) {
                            q.push_back(t);
                        } else {
                            unintroduced = Some(t.query);
                        }
                    }
                }
                if let Some(query) = unintroduced {
                    self.unintroduced(query);
                }
            }
            WorkerMsg::QueryBegin { ctx, stage, from } => {
                let query = ctx.query;
                self.shared.dead.lock().remove(&query);
                let mut qs = self.shared.queries.write();
                let nq = match qs.get_mut(&query) {
                    Some(nq) => {
                        advance_node_stage(&self.shared.memo, &mut self.outbox, query, nq, stage);
                        nq
                    }
                    None => qs.entry(query).or_insert(NodeQuery {
                        ctx,
                        stage,
                        scope: QueryScope::default(),
                        cancelled: false,
                    }),
                };
                if let Some(w) = from {
                    nq.scope.known.insert(w);
                }
            }
            WorkerMsg::StageBegin { query, stage } => {
                if let Some(nq) = self.shared.queries.write().get_mut(&query) {
                    advance_node_stage(&self.shared.memo, &mut self.outbox, query, nq, stage);
                }
            }
            WorkerMsg::StartSource {
                query,
                pipeline,
                weight,
            } => {
                let held = (self.shared.queries.read().get(&query))
                    .map(|nq| (Arc::clone(&nq.ctx), nq.stage));
                let Some(ctx) = held else {
                    if !self.shared.dead.lock().contains(&query) {
                        self.unintroduced(query);
                    }
                    return;
                };
                let interp = ctx.0.interpreter(&self.graph, ctx.1);
                let source = {
                    let part = self.graph.read(self.id.part());
                    interp.run_source(pipeline, weight, &part, &mut self.rng)
                };
                let source = match source {
                    Ok(source) => source,
                    Err(error) => {
                        self.outbox
                            .send_ctrl_coord(CoordMsg::WorkerError { query, error });
                        return;
                    }
                };
                let mut out = std::mem::take(&mut self.scratch);
                out.admit(source, &mut self.arena, &mut self.locals);
                self.route(query, &mut out);
                self.scratch = out;
            }
            WorkerMsg::QueryEnd { query } => {
                self.shared.dead.lock().insert(query);
                let ended = self.shared.queries.write().remove(&query);
                self.finished.remove(&query);
                self.partials.remove(&query);
                // The first worker of the node to see the end tears the
                // node's state down and passes the end on.
                if let Some(nq) = ended {
                    for dest in nq.scope.introduced.iter() {
                        self.outbox
                            .send_ctrl_worker(dest, WorkerMsg::QueryEnd { query });
                    }
                    self.shared.memo.lock().clear_query(query);
                    self.shared.queue.lock().retain(|t| t.query != query);
                }
            }
            WorkerMsg::CancelQuery { query } => {
                // The shared-state baseline runs no drain (its engine never
                // cancels); it passes the cancel on, once, like the end.
                if let Some(nq) = self.shared.queries.write().get_mut(&query) {
                    if !std::mem::replace(&mut nq.cancelled, true) {
                        for dest in nq.scope.introduced.iter() {
                            self.outbox
                                .send_ctrl_worker(dest, WorkerMsg::CancelQuery { query });
                        }
                    }
                }
            }
            WorkerMsg::Bsp(_) => {}
            WorkerMsg::Shutdown => unreachable!("handled by run()"),
        }
    }

    /// Work for `query` is about to go to the remote worker `dest`:
    /// introduce the query there first unless the node already did.
    fn introduce_remote(&mut self, query: QueryId, dest: WorkerId) {
        let known = |qs: &FxHashMap<QueryId, NodeQuery>| {
            qs.get(&query)
                .is_none_or(|nq| nq.scope.known.contains(dest))
        };
        // lint: allow(hot-path-blocking) shared-state baseline: the
        // node-wide registry is the design under test; one map probe
        if known(&self.shared.queries.read()) {
            return;
        }
        // lint: allow(hot-path-blocking) shared-state baseline: once per
        // (query, remote worker) per node, held for one introduction
        let mut qs = self.shared.queries.write();
        let Some(nq) = qs.get_mut(&query) else {
            return;
        };
        if nq.scope.introduce(dest) {
            let begin = WorkerMsg::QueryBegin {
                ctx: Arc::clone(&nq.ctx),
                stage: nq.stage,
                from: Some(self.id),
            };
            self.outbox.send_ctrl_worker(dest, begin);
        }
    }

    /// Work arrived for a query this node was never introduced to: a broken
    /// protocol, reported as the query's failure.
    fn unintroduced(&mut self, query: QueryId) {
        let error = GdError::InvariantViolation(format!(
            "worker {} got work for query {} it was never introduced to",
            self.id.0, query.0
        ));
        self.outbox
            .send_ctrl_coord(CoordMsg::WorkerError { query, error });
    }

    /// Report `query`'s unreported aggregation, ahead of any progress
    /// report that follows on this outbox.
    fn send_partial(&mut self, query: QueryId) {
        if let Some(state) = self.partials.remove(&query) {
            self.outbox.send_ctrl_coord(CoordMsg::AggPartial {
                query,
                state: Some(Box::new(state)),
            });
        }
    }

    fn execute(&mut self, t: Traverser) {
        let query = t.query;
        // lint: allow(hot-path-blocking) shared-state baseline: this
        // cross-worker registry read IS the contention the baseline measures
        let ctx = match self.shared.queries.read().get(&query) {
            Some(nq) => (Arc::clone(&nq.ctx), nq.stage),
            None => return,
        };
        let interp = ctx.0.interpreter(&self.graph, ctx.1);
        // The traverser may sit on any partition of this node; read that
        // partition (shared RwLock) and latch the node-wide memo for the
        // whole execution — the contention this baseline measures.
        let part_id = self.graph.part_of(t.vertex);
        let h = self.arena.admit(t, &mut self.locals);
        let mut out = std::mem::take(&mut self.scratch);
        let (result, built) = {
            let part = self.graph.read(part_id);
            // lint: allow(hot-path-blocking) shared-state baseline: the
            // node-wide memo latch is the bottleneck under test (§VI fig 9)
            let mut memo = self.shared.memo.lock();
            let m = memo.query_mut(query);
            let result = interp.run_handle(
                h,
                &mut self.arena,
                &mut self.locals,
                &part,
                m,
                &mut self.rng,
                &mut out,
            );
            (result, m.take_agg())
        };
        let agg = &ctx.0.plan.stages[ctx.1 as usize].agg;
        let merged = match (built, self.partials.get_mut(&query), agg) {
            (None, ..) => Ok(()),
            (Some(built), Some(p), Some(agg)) => p.merge(&agg.func, built),
            (Some(built), ..) => {
                self.partials.insert(query, built);
                Ok(())
            }
        };
        match merged.and(result) {
            Ok(()) => self.route(query, &mut out),
            Err(error) => {
                for (_, h) in out.spawned.drain(..) {
                    self.arena.discard(h, &mut self.locals);
                }
                self.outbox
                    .send_ctrl_coord(CoordMsg::WorkerError { query, error });
            }
        }
        self.scratch = out;
    }

    /// Route one outcome of `query`: each child is flattened back to a
    /// wire traverser as it leaves the arena, onto the node-shared queue
    /// or to its remote owner; rows to the coordinator; finished weight and
    /// steps coalesced or, without coalescing, reported at once behind the
    /// aggregation they built.
    fn route(&mut self, query: QueryId, out: &mut HandleOutcome) {
        let my_node = self.graph.partitioner().node_of_worker(self.id);
        for (dest, h) in out.spawned.drain(..) {
            let t = self.arena.extract(h, &mut self.locals);
            let dest_worker = self.graph.partitioner().worker_of_part(dest);
            if self.graph.partitioner().node_of_worker(dest_worker) == my_node {
                // lint: allow(hot-path-blocking) shared-state baseline:
                // single global work queue by design, push is O(1)
                self.shared.queue.lock().push_back(t);
            } else {
                self.introduce_remote(query, dest_worker);
                self.outbox.send_traverser(dest_worker, t);
            }
        }
        if !out.emitted.is_empty() {
            self.outbox
                .send_rows(query, std::mem::take(&mut out.emitted));
        }
        let pending = self.finished.entry(query).or_default();
        pending.0.absorb(out.finished);
        pending.1 += u64::from(out.steps_executed);
        if !self.weight_coalescing && out.finished != Weight::ZERO {
            let (weight, steps) = std::mem::take(pending);
            self.send_partial(query);
            self.outbox.send_progress(query, weight, steps);
        }
    }

    fn flush_progress(&mut self) {
        if !self.weight_coalescing {
            return;
        }
        let queries: Vec<QueryId> = self.partials.keys().copied().collect();
        for q in queries {
            self.send_partial(q);
        }
        for (q, (w, steps)) in self.finished.drain() {
            if w != Weight::ZERO || steps > 0 {
                self.outbox.send_progress(q, w, steps);
            }
        }
    }
}

/// GraphDance with node-shared execution state (the §V-A2 ablation).
pub struct NonPartitionedEngine {
    fabric: Arc<Fabric>,
    coord_tx: Sender<CoordMsg>,
    worker_tx: Vec<Sender<WorkerMsg>>,
    threads: Mutex<Vec<std::thread::JoinHandle<()>>>,
    /// Stops the coordinator's timer.
    timer_stop: Sender<()>,
    txn: Arc<graphdance_txn::TxnSystem>,
    /// Client-side query-id allocator (ids are pre-assigned on submit).
    // sync: monotonic id counter; fetch_add uniqueness is all that matters
    qid: AtomicU64,
}

impl NonPartitionedEngine {
    /// Start the cluster over [`graphdance_engine::engine::assemble`]: one
    /// node-shared state per node, and GraphDance's coordinator.
    pub fn start(graph: Graph, config: EngineConfig) -> Self {
        let shared: Vec<Arc<NodeShared>> = (0..config.nodes)
            .map(|_| Arc::new(NodeShared::new()))
            .collect();
        let a = assemble(
            &graph,
            &config,
            0..config.nodes,
            Fabric::new,
            |id, inbox, fabric| {
                let node = fabric.partitioner().node_of_worker(id);
                let shared = Arc::clone(&shared[node.as_usize()]);
                SharedWorker::new(id, graph.clone(), fabric, inbox, shared, &config)
            },
        );
        let mut threads = a.net;
        let spawn_worker =
            |w: SharedWorker| spawn(format!("np-worker-{}", w.id.0), move || w.run());
        threads.extend(a.workers.into_iter().map(spawn_worker));
        let inbox = a.coord_rx.expect("the non-partitioned engine hosts node 0");
        let coordinator = Coordinator::new(graph.clone(), &a.fabric, inbox, &config);
        let (timer_stop, timer) = coordinator.host();
        threads.push(timer);
        let txn = Arc::new(graphdance_txn::TxnSystem::new(graph));
        NonPartitionedEngine {
            fabric: a.fabric,
            coord_tx: a.coord_tx,
            worker_tx: a.worker_tx,
            threads: Mutex::new(threads),
            timer_stop,
            txn,
            qid: AtomicU64::new(1),
        }
    }

    /// Stop all threads.
    pub fn shutdown(&self) {
        if self.coord_tx.send(CoordMsg::Shutdown).is_ok() {
            self.fabric.drive_coordinator();
        }
        let _ = self.timer_stop.send(());
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
        // sync: uniqueness only; see field docs
        let query = QueryId(self.qid.fetch_add(1, Ordering::Relaxed));
        let (plan, ts) = (plan.clone(), self.txn.read_ts().max(1));
        if send_submit(&self.coord_tx, query, plan, params, ts, None, reply.into()).is_some() {
            return Err(GdError::EngineClosed);
        }
        self.fabric.drive_coordinator();
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
    use crossbeam::channel::unbounded;
    use graphdance_common::{Partitioner, VertexId};
    use graphdance_query::expr::Expr;
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

    #[test]
    fn shared_state_khop() {
        let g = ring(32, Partitioner::new(2, 2));
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

    /// The fused `Expand` -> `MinDist` on the node-wide memo: a child bound
    /// for another partition of the node is checked against the same memo
    /// that logged its send, and must not be pruned by that log.
    #[test]
    fn shared_memo_khop_min_reaches_every_hop() {
        let g = ring(32, Partitioner::new(1, 4));
        let engine = NonPartitionedEngine::start(g.clone(), EngineConfig::new(1, 4));
        let mut b = QueryBuilder::new(g.schema());
        b.v_param(0);
        let c = b.alloc_slot();
        let d = b.alloc_slot();
        b.repeat(1, 3, c, |r| {
            r.compute(
                d,
                Expr::Add(Box::new(Expr::Slot(d)), Box::new(Expr::int(1))),
            );
            r.out("knows");
            r.min_dist(d);
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
        let g = ring(20, Partitioner::new(2, 2));
        let engine = NonPartitionedEngine::start(g.clone(), EngineConfig::new(2, 2));
        let mut b = QueryBuilder::new(g.schema());
        b.v().has_label("Person").count();
        let plan = b.compile().unwrap();
        let rows = engine.query_timed(&plan, vec![]).unwrap().rows;
        assert_eq!(rows, vec![vec![Value::Int(20)]]);
        engine.shutdown();
    }

    /// A thread interns a popped traverser, runs it, and flattens every
    /// child back onto the node-shared queue: nothing stays in its arena.
    #[test]
    fn execute_leaves_the_arena_empty() {
        let g = ring(8, Partitioner::new(1, 2));
        let config = EngineConfig::new(1, 2);
        let (wtx, _wrx): (Vec<_>, Vec<_>) = (0..2).map(|_| unbounded()).unzip();
        let (ctx_tx, _crx) = unbounded();
        let (fabric, _threads) = Fabric::new(&config, wtx, ctx_tx);
        let shared = Arc::new(NodeShared::new());
        let (_, inbox) = unbounded();
        let mut w = SharedWorker::new(WorkerId(0), g.clone(), &fabric, inbox, shared, &config);
        let mut b = QueryBuilder::new(g.schema());
        b.v_param(0);
        let c = b.alloc_slot();
        b.repeat(1, 3, c, |r| {
            r.out("knows");
        });
        let query = QueryId(1);
        w.handle(WorkerMsg::QueryBegin {
            ctx: Arc::new(QueryCtx {
                query,
                plan: b.compile().unwrap(),
                params: vec![Value::Vertex(VertexId(0))],
                read_ts: graphdance_storage::TS_LIVE - 1,
            }),
            stage: 0,
            from: None,
        });
        w.execute(Traverser::root(query, 0, VertexId(0), 1, Weight::ROOT));
        assert_eq!((w.arena.live(), w.locals.live()), (0, 0));
        let queued = w.shared.queue.lock().len();
        assert_eq!(queued, 1, "the hop's child waits on the node-shared queue");
    }
}
