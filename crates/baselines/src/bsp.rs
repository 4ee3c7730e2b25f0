//! The BSP baseline engine (§II-C1, Fig. 2b) — the execution model of
//! TigerGraph-class systems.
//!
//! Queries execute in supersteps: every worker processes its whole frontier
//! for the current depth, exchanges traversers, and waits at one **global
//! barrier** before the next depth starts. The submitting thread drives it:
//! each worker's `BspStepDone` says how many traversers it sent to each
//! worker (its own parks included), the driver sums those into the number
//! every worker must have received by the next step, and sends each worker
//! its `RunStep` with that count. A worker still short of it holds the
//! signal and starts the step from the arrival that meets it, so one
//! control round trip per superstep is the whole barrier. The count cannot
//! tell which step sent a traverser: a fast peer's output for the next step
//! counts too, so on three or more nodes a worker can start while a
//! straggler of the previous step is still on its way. The straggler runs
//! one superstep later, and the stage stays open until it has — the driver
//! ends a stage only when Σ`sent` = Σ`consumed_count`. One query runs at
//! a time — concurrent submissions serialize on the driver lock, which is
//! precisely the concurrency weakness the paper attributes to BSP systems.
//!
//! The engine shares the storage, the arena step
//! ([`graphdance_pstm::Interpreter::run_handle`]) and its memory layout,
//! memo semantics, and the simulated network fabric with GraphDance, so
//! latency differences isolate BSP-vs-asynchronous scheduling.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use graphdance_common::time::now;

use crossbeam::channel::Receiver;
use parking_lot::Mutex;
use rand::rngs::SmallRng;

use graphdance_common::{FxHashMap, GdError, GdResult, NodeId, QueryId, Value, WorkerId};
use graphdance_engine::config::EngineConfig;
use graphdance_engine::engine::{assemble, spawn};
use graphdance_engine::messages::{BspSignal, CoordMsg, QueryCtx, WorkerMsg};
use graphdance_engine::net::{Fabric, NetStatsSnapshot, Outbox};
use graphdance_engine::QueryResult;
use graphdance_pstm::{
    AggState, HandleOutcome, LocalsTable, Memo, Row, SourceStart, TraverserArena, TraverserHandle,
    Weight, WeightLedger,
};
use graphdance_query::plan::Plan;
use graphdance_storage::Graph;

use crate::traits::QueryEngine;

/// One query's traversers waiting on a worker for a superstep.
#[derive(Default)]
struct Parked {
    /// The parked frontier, as arena handles.
    frontier: Vec<TraverserHandle>,
    /// Traversers parked here over the whole query: what a `RunStep`'s
    /// `expect` is compared with.
    arrived: u64,
    /// A `RunStep` (`depth`, `expect`) that came before its `expect` was
    /// met.
    held: Option<(u32, u64)>,
}

impl Parked {
    /// Park an arena traverser for a later superstep, counting it toward
    /// the barrier.
    fn push(&mut self, h: TraverserHandle) {
        self.frontier.push(h);
        self.arrived += 1;
    }
}

struct BspWorker {
    id: WorkerId,
    graph: Graph,
    inbox: Receiver<WorkerMsg>,
    outbox: Outbox,
    memo: Memo,
    queries: FxHashMap<QueryId, (Arc<QueryCtx>, u16)>,
    /// Each query's parked frontier and barrier count.
    parked: FxHashMap<QueryId, Parked>,
    /// Slab of the traversers parked or running here; one leaves it at the
    /// outbox — handed off to a co-located worker, flattened for the wire
    /// otherwise — as on the asynchronous worker.
    arena: TraverserArena,
    /// The arena traversers' interned register files.
    locals: LocalsTable,
    /// Reused outcome buffers.
    scratch: HandleOutcome,
    rng: SmallRng,
    /// Debug-build weight-conservation checker (no-op in release).
    ledger: WeightLedger,
}

impl BspWorker {
    fn new(
        id: WorkerId,
        graph: Graph,
        fabric: &Arc<Fabric>,
        inbox: Receiver<WorkerMsg>,
        seed: u64,
    ) -> Self {
        BspWorker {
            id,
            graph,
            inbox,
            outbox: fabric.outbox(fabric.partitioner().node_of_worker(id)),
            memo: Memo::new(),
            queries: FxHashMap::default(),
            parked: FxHashMap::default(),
            arena: TraverserArena::new(),
            locals: LocalsTable::new(),
            scratch: HandleOutcome::new(),
            rng: graphdance_common::rng::derive(seed, 0x1000 + id.0 as u64),
            ledger: WeightLedger::new(),
        }
    }

    fn run(mut self) {
        while let Ok(msg) = self.inbox.recv() {
            match msg {
                WorkerMsg::Shutdown => return,
                other => self.handle(other),
            }
        }
    }

    fn handle(&mut self, msg: WorkerMsg) {
        match msg {
            WorkerMsg::QueryBegin { ctx, stage, .. } => {
                self.queries.insert(ctx.query, (ctx, stage));
            }
            WorkerMsg::StageBegin { query, stage } => {
                // The driver advances a stage only once every traverser it
                // counted was consumed, so nothing of the old stage is
                // parked; one of the new stage may already be, sent by a
                // peer that got its `RunStep` first.
                if let Some((_, s)) = self.queries.get_mut(&query) {
                    *s = stage;
                }
                let _ = self.memo.query_mut(query).take_stage_state();
            }
            WorkerMsg::HandOff(run) => {
                let (ts, mut from) = run.into_parts();
                for at in ts {
                    let query = at.query;
                    let h = self.arena.import(at, &mut from, &mut self.locals);
                    self.parked.entry(query).or_default().push(h);
                }
                self.run_met();
            }
            WorkerMsg::StartSource {
                query,
                pipeline,
                weight,
            } => {
                self.start_source(query, pipeline, weight);
            }
            WorkerMsg::Bsp(BspSignal::RunStep {
                query,
                depth,
                expect,
            }) => {
                self.parked.entry(query).or_default().held = Some((depth, expect));
                self.run_met();
            }
            WorkerMsg::Bsp(BspSignal::Gather { query }) => {
                // Partials are data (buffered like rows): flush the reply.
                let state = self.memo.query_mut(query).take_agg();
                self.outbox.send_ctrl_coord(CoordMsg::AggPartial {
                    query,
                    state: state.map(Box::new),
                });
                self.outbox.flush_all();
            }
            WorkerMsg::QueryEnd { query } => {
                self.memo.clear_query(query);
                self.queries.remove(&query);
                self.release(query);
            }
            WorkerMsg::CancelQuery { .. } => {
                // The BSP driver never issues cancels; the async engine's
                // drain protocol does not apply to the superstep barrier.
            }
            WorkerMsg::Shutdown => unreachable!("handled in run()"),
        }
    }

    /// Run every held `RunStep` whose `expect` has been met.
    fn run_met(&mut self) {
        while let Some((query, depth)) = self.parked.iter_mut().find_map(|(q, p)| match p.held {
            Some((depth, expect)) if p.arrived >= expect => {
                p.held = None;
                Some((*q, depth))
            }
            _ => None,
        }) {
            self.run_step(query, depth);
        }
    }

    /// Drop `query`'s parked frontier, freeing its arena slots and locals.
    fn release(&mut self, query: QueryId) {
        for h in (self.parked.remove(&query).into_iter()).flat_map(|p| p.frontier) {
            self.arena.discard(h, &mut self.locals);
        }
    }

    fn start_source(&mut self, query: QueryId, pipeline: u16, weight: Weight) {
        let Some((ctx, stage)) = self.queries.get(&query) else {
            return;
        };
        let (ctx, stage) = (Arc::clone(ctx), *stage);
        let interp = ctx.interpreter(&self.graph, stage);
        let out = {
            let part = self.graph.read(self.id.part());
            interp.run_source(pipeline, weight, &part, &mut self.rng)
        };
        match out {
            Ok(out) => {
                if let Err(diag) = self.ledger.check_step(query, weight, &out) {
                    self.outbox.send_ctrl_coord(CoordMsg::WorkerError {
                        query,
                        error: GdError::InvariantViolation(diag),
                    });
                    return;
                }
                let mut sent = vec![0; self.graph.partitioner().num_parts() as usize];
                sent[self.id.as_usize()] = out.spawned.len() as u64;
                let parked = self.parked.entry(query).or_default();
                for (_, t) in out.spawned {
                    parked.push(self.arena.admit(t, &mut self.locals));
                }
                self.outbox.send_ctrl_coord(CoordMsg::BspStepDone {
                    query,
                    finished: out.finished,
                    sent,
                    consumed_count: 0,
                    steps: 0,
                });
            }
            Err(e) => {
                self.outbox
                    .send_ctrl_coord(CoordMsg::WorkerError { query, error: e });
            }
        }
    }

    /// Execute every parked traverser *of the current depth* for one
    /// superstep (compute phase), then flush (communication phase) and
    /// report (barrier).
    ///
    /// Traversers deeper than `depth` stay parked: a fast peer's superstep
    /// output (data path) can overtake this worker's own `RunStep` signal
    /// (control path), and those belong to the next frontier. Same-depth
    /// arrivals that overtook the signal (LoopEnd forks, MoveTo jumps) DO
    /// run now — `consumed_count` tells the driver they left the parked
    /// pool this step, so its Σ`sent` − Σ`consumed_count` stays exact no
    /// matter which side of the `RunStep` the data path landed on.
    fn run_step(&mut self, query: QueryId, depth: u32) {
        let Some((ctx, stage)) = self.queries.get(&query) else {
            return;
        };
        let (ctx, stage) = (Arc::clone(ctx), *stage);
        let (arena, parked) = (&self.arena, self.parked.entry(query).or_default());
        let (mut queue, keep): (Vec<_>, Vec<_>) = std::mem::take(&mut parked.frontier)
            .into_iter()
            .partition(|h| arena.get(*h).depth <= depth);
        parked.frontier = keep;
        let consumed_count = queue.len() as u64;
        let mut sent = vec![0; self.graph.partitioner().num_parts() as usize];
        let (mut finished, mut steps) = (Weight::ZERO, 0);
        let interp = ctx.interpreter(&self.graph, stage);
        let own = self.id.part();
        let out = &mut self.scratch;
        while let Some(h) = queue.pop() {
            let input = self.arena.get(h).weight;
            let result = {
                let part = self.graph.read(own);
                interp.run_handle(
                    h,
                    &mut self.arena,
                    &mut self.locals,
                    &part,
                    self.memo.query_mut(query),
                    &mut self.rng,
                    out,
                )
            };
            let checked = result.and_then(|()| {
                (self.ledger.check_step_arena(query, input, out, &self.arena))
                    .map_err(GdError::InvariantViolation)
            });
            if let Err(error) = checked {
                // Free the step's children and the rest of the frontier;
                // what is parked goes at `QueryEnd`.
                for h in out.spawned.drain(..).map(|(_, h)| h).chain(queue) {
                    self.arena.discard(h, &mut self.locals);
                }
                self.outbox
                    .send_ctrl_coord(CoordMsg::WorkerError { query, error });
                return;
            }
            steps += u64::from(out.steps_executed);
            for (dest, h) in out.spawned.drain(..) {
                let child = self.arena.get(h);
                if dest == own && child.depth <= depth {
                    // Same superstep (e.g. a LoopEnd fork continuing the
                    // current frontier's expansion).
                    queue.push(h);
                    continue;
                }
                let w = self.graph.partitioner().worker_of_part(dest);
                sent[w.as_usize()] += 1;
                if dest == own {
                    self.parked.entry(query).or_default().push(h);
                } else {
                    self.outbox
                        .send_handle(w, h, &mut self.arena, &mut self.locals);
                }
            }
            self.outbox.seal_handoffs();
            if !out.emitted.is_empty() {
                self.outbox
                    .send_rows(query, std::mem::take(&mut out.emitted));
            }
            finished.absorb(out.finished);
        }
        // Communication phase: push everything out, then the barrier report.
        self.outbox.flush_all();
        self.outbox.send_ctrl_coord(CoordMsg::BspStepDone {
            query,
            finished,
            sent,
            consumed_count,
            steps,
        });
    }
}

/// What the driver has learned from one query's step reports.
#[derive(Default)]
struct Tally {
    /// Per worker: the traversers sent to it so far in the query — the
    /// `expect` of its next `RunStep`.
    expect: Vec<u64>,
    /// Traversers consumed so far in the query; a stage is done when this
    /// reaches Σ`expect`.
    consumed: u64,
    /// Weight finished in the current stage.
    finished: Weight,
    /// Plan steps run so far in the query.
    steps: u64,
}

/// Driver-side mutable state (one query at a time).
struct Driver {
    coord_rx: Receiver<CoordMsg>,
    outbox: Outbox,
    rng: SmallRng,
}

/// The BSP baseline engine.
pub struct BspEngine {
    graph: Graph,
    fabric: Arc<Fabric>,
    worker_tx: Vec<crossbeam::channel::Sender<WorkerMsg>>,
    driver: Mutex<Driver>,
    threads: Mutex<Vec<std::thread::JoinHandle<()>>>,
    next_qid: AtomicU64,
    timeout: Duration,
}

impl BspEngine {
    /// Start the BSP cluster over [`graphdance_engine::engine::assemble`]
    /// (same topology semantics as [`graphdance_engine::GraphDance::start`]);
    /// its superstep `Driver` reads the coordinator inbox.
    pub fn start(graph: Graph, config: EngineConfig) -> BspEngine {
        let a = assemble(
            &graph,
            &config,
            0..config.nodes,
            Fabric::new,
            |id, inbox, fabric| BspWorker::new(id, graph.clone(), fabric, inbox, config.seed),
        );
        let mut threads = a.net;
        let spawn_worker = |w: BspWorker| spawn(format!("bsp-worker-{}", w.id.0), move || w.run());
        threads.extend(a.workers.into_iter().map(spawn_worker));
        let driver = Driver {
            coord_rx: a.coord_rx.expect("BSP hosts node 0"),
            outbox: a.fabric.outbox(NodeId(0)),
            rng: graphdance_common::rng::derive(config.seed, 0xD21),
        };
        BspEngine {
            graph,
            fabric: a.fabric,
            worker_tx: a.worker_tx,
            driver: Mutex::new(driver),
            threads: Mutex::new(threads),
            next_qid: AtomicU64::new(1),
            timeout: config.query_timeout,
        }
    }

    /// The underlying graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Stop all threads.
    pub fn shutdown(&self) {
        for tx in &self.worker_tx {
            let _ = tx.send(WorkerMsg::Shutdown);
        }
        self.fabric.shutdown();
        for t in self.threads.lock().drain(..) {
            let _ = t.join();
        }
    }

    fn num_parts(&self) -> u32 {
        self.fabric.partitioner().num_parts()
    }

    fn broadcast(&self, d: &mut Driver, f: impl Fn() -> WorkerMsg) {
        for w in 0..self.num_parts() {
            d.outbox.send_ctrl_worker(WorkerId(w), f());
        }
    }

    fn run_query(&self, plan: &Plan, params: Vec<Value>) -> GdResult<QueryResult> {
        plan.check_call(&params)?;
        let started = now();
        let deadline = started + self.timeout;
        // sync: unique-id allocator — atomicity alone guarantees
        // distinctness, no other data is published through it
        let query = QueryId(self.next_qid.fetch_add(1, Ordering::Relaxed) | (1 << 62));
        let ctx = Arc::new(QueryCtx {
            query,
            plan: plan.clone(),
            params,
            read_ts: graphdance_storage::TS_LIVE - 1,
        });
        let mut d = self.driver.lock();
        // Drain any stale messages from a previously aborted query.
        while d.coord_rx.try_recv().is_ok() {}
        // The superstep barrier addresses every worker every step, so the
        // driver introduces the query everywhere up front.
        self.broadcast(&mut d, || WorkerMsg::QueryBegin {
            ctx: Arc::clone(&ctx),
            stage: 0,
            from: None,
        });
        let mut tally = Tally {
            expect: vec![0; self.num_parts() as usize],
            ..Tally::default()
        };
        let result = (|| -> GdResult<Vec<Row>> {
            let mut stage_rows: Vec<Row> = Vec::new();
            for stage_idx in 0..ctx.plan.stages.len() {
                if stage_idx > 0 {
                    self.broadcast(&mut d, || WorkerMsg::StageBegin {
                        query,
                        stage: stage_idx as u16,
                    });
                }
                stage_rows =
                    self.run_stage(&mut d, &ctx, stage_idx, stage_rows, deadline, &mut tally)?;
            }
            Ok(stage_rows)
        })();
        self.broadcast(&mut d, || WorkerMsg::QueryEnd { query });
        // `QueryEnd` waits in the buffer for a flush; the driver has none
        // coming, so it flushes.
        d.outbox.flush_all();
        self.fabric.invariants().forget(query);
        result.map(|rows| QueryResult {
            query,
            rows,
            latency: started.elapsed(),
            steps_executed: tally.steps,
        })
    }

    /// Execute one stage as a sequence of supersteps, folding its step
    /// reports into `tally`.
    fn run_stage(
        &self,
        d: &mut Driver,
        ctx: &Arc<QueryCtx>,
        stage_idx: usize,
        prev_rows: Vec<Row>,
        deadline: Instant,
        tally: &mut Tally,
    ) -> GdResult<Vec<Row>> {
        let query = ctx.query;
        let stage = &ctx.plan.stages[stage_idx];
        let interp = ctx.interpreter(&self.graph, stage_idx as u16);
        let mut source_reports_expected = 0usize;
        let finished = interp.start_sources(&prev_rows, &mut d.rng, |dest, start| match start {
            SourceStart::Source { pipeline, weight } => {
                let source = WorkerMsg::StartSource {
                    query,
                    pipeline,
                    weight,
                };
                d.outbox.send_ctrl_worker(dest, source);
                source_reports_expected += 1;
            }
            SourceStart::Seed(t) => {
                tally.expect[dest.as_usize()] += 1;
                d.outbox.send_traverser(dest, t);
            }
        })?;
        tally.finished.absorb(finished);
        d.outbox.flush_all();

        let mut rows: Vec<Row> = Vec::new();
        self.await_reports(
            d,
            query,
            source_reports_expected,
            deadline,
            &mut rows,
            tally,
        )?;

        // Superstep loop: each worker runs once it holds every traverser
        // the reports so far sent it.
        let num_parts = self.num_parts() as usize;
        let mut depth = 0u32;
        while tally.expect.iter().sum::<u64>() > tally.consumed {
            for (w, &expect) in tally.expect.iter().enumerate() {
                d.outbox.send_ctrl_worker(
                    WorkerId(w as u32),
                    WorkerMsg::Bsp(BspSignal::RunStep {
                        query,
                        depth,
                        expect,
                    }),
                );
            }
            self.await_reports(d, query, num_parts, deadline, &mut rows, tally)?;
            depth += 1;
        }
        // The traverser counts decided completion independently of the
        // weight sum — cross-check the two mechanisms against each other.
        let finished = std::mem::take(&mut tally.finished);
        WeightLedger::check_stage_total(query, finished).map_err(GdError::InvariantViolation)?;

        // Drain straggling row messages: a worker flushes its rows before
        // its `BspStepDone`, so they are here.
        while let Ok(msg) = d.coord_rx.try_recv() {
            self.absorb_rows(query, msg, &mut rows)?;
        }

        if let Some(agg) = &stage.agg {
            self.broadcast(d, || WorkerMsg::Bsp(BspSignal::Gather { query }));
            let mut partials: Vec<Option<Box<AggState>>> = Vec::new();
            while partials.len() < num_parts {
                if let CoordMsg::AggPartial {
                    query: q, state, ..
                } = self.next_msg(d, query, deadline, &mut rows)?
                {
                    if q == query {
                        partials.push(state);
                    }
                }
            }
            let mut merged: Option<AggState> = None;
            for p in partials.into_iter().flatten() {
                match &mut merged {
                    None => merged = Some(*p),
                    Some(m) => m.merge(&agg.func, *p)?,
                }
            }
            return Ok(merged
                .unwrap_or_else(|| AggState::new(&agg.func))
                .finalize(&agg.func));
        }
        Ok(rows)
    }

    /// Wait for `n` step reports of `query`, folding them into `tally`.
    fn await_reports(
        &self,
        d: &mut Driver,
        query: QueryId,
        n: usize,
        deadline: Instant,
        rows: &mut Vec<Row>,
        tally: &mut Tally,
    ) -> GdResult<()> {
        let mut got = 0;
        while got < n {
            if let CoordMsg::BspStepDone {
                query: q,
                finished,
                sent,
                consumed_count,
                steps,
                ..
            } = self.next_msg(d, query, deadline, rows)?
            {
                if q == query {
                    for (e, s) in tally.expect.iter_mut().zip(&sent) {
                        *e += s;
                    }
                    tally.consumed += consumed_count;
                    tally.finished.absorb(finished);
                    tally.steps += steps;
                    got += 1;
                }
            }
        }
        Ok(())
    }

    /// Receive the next message, folding row deliveries and surfacing
    /// worker errors / deadline violations.
    fn next_msg(
        &self,
        d: &mut Driver,
        query: QueryId,
        deadline: Instant,
        rows: &mut Vec<Row>,
    ) -> GdResult<CoordMsg> {
        loop {
            if now() >= deadline {
                return Err(GdError::QueryTimeout(query));
            }
            match d.coord_rx.recv_timeout(Duration::from_millis(20)) {
                Ok(CoordMsg::WorkerError { query: q, error }) => {
                    if q == query {
                        return Err(error);
                    }
                }
                Ok(CoordMsg::Rows { query: q, rows: r }) => {
                    if q == query {
                        rows.extend(r);
                    }
                }
                Ok(msg) => return Ok(msg),
                Err(crossbeam::channel::RecvTimeoutError::Timeout) => {}
                Err(crossbeam::channel::RecvTimeoutError::Disconnected) => {
                    return Err(GdError::EngineClosed)
                }
            }
        }
    }

    fn absorb_rows(&self, query: QueryId, msg: CoordMsg, rows: &mut Vec<Row>) -> GdResult<()> {
        match msg {
            CoordMsg::Rows { query: q, rows: r } if q == query => rows.extend(r),
            CoordMsg::WorkerError { error, .. } => return Err(error),
            _ => {}
        }
        Ok(())
    }
}

impl QueryEngine for BspEngine {
    fn name(&self) -> &str {
        "BSP (TigerGraph-sim)"
    }

    fn query_timed(&self, plan: &Plan, params: Vec<Value>) -> GdResult<QueryResult> {
        self.run_query(plan, params)
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
    use graphdance_common::{PartId, Partitioner, VertexId};
    use graphdance_pstm::Traverser;
    use graphdance_query::QueryBuilder;
    use graphdance_storage::GraphBuilder;

    fn ring(n: u64, parts: Partitioner) -> Graph {
        ring_placed(n, parts, FxHashMap::default())
    }

    /// A directed ring whose vertices sit where `placed` says, by hash
    /// otherwise.
    fn ring_placed(n: u64, parts: Partitioner, placed: FxHashMap<VertexId, PartId>) -> Graph {
        let mut b = GraphBuilder::with_assignments(parts, placed);
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

    /// The vertices 1 to 3 hops out from vertex 0, sorted, as BSP runs it
    /// on a 2 × 2 cluster over `g`.
    fn khop3_from_0(g: &Graph) -> Vec<u64> {
        let engine = BspEngine::start(g.clone(), EngineConfig::new(2, 2));
        let mut b = QueryBuilder::new(g.schema());
        b.v_param(0);
        let c = b.alloc_slot();
        b.repeat(1, 3, c, |r| {
            r.out("knows");
        });
        b.dedup();
        let plan = b.compile().unwrap();
        let rows = engine
            .query_timed(&plan, vec![Value::Vertex(VertexId(0))])
            .unwrap()
            .rows;
        engine.shutdown();
        let mut got: Vec<u64> = rows.iter().map(|r| r[0].as_vertex().unwrap().0).collect();
        got.sort_unstable();
        got
    }

    #[test]
    fn bsp_khop_matches_expectation() {
        assert_eq!(khop3_from_0(&ring(32, Partitioner::new(2, 2))), [1, 2, 3]);
    }

    /// A parameter source starts on the worker the graph placed its vertex
    /// on, not on its hash home, which does not hold it.
    #[test]
    fn bsp_starts_a_placed_source_where_it_lives() {
        let parts = Partitioner::new(2, 2);
        let home = parts.part_of(VertexId(0));
        let away = PartId((home.0 + 1) % parts.num_parts());
        let g = ring_placed(32, parts, [(VertexId(0), away)].into_iter().collect());
        assert_eq!(g.part_of(VertexId(0)), away);
        assert_eq!(khop3_from_0(&g), [1, 2, 3]);
    }

    #[test]
    fn bsp_count_aggregation() {
        let g = ring(16, Partitioner::new(2, 2));
        let engine = BspEngine::start(g.clone(), EngineConfig::new(2, 2));
        let mut b = QueryBuilder::new(g.schema());
        b.v().has_label("Person").count();
        let plan = b.compile().unwrap();
        let rows = engine.query_timed(&plan, vec![]).unwrap().rows;
        assert_eq!(rows, vec![vec![Value::Int(16)]]);
        engine.shutdown();
    }

    #[test]
    fn bsp_sequential_queries_reuse_cluster() {
        let g = ring(16, Partitioner::new(2, 2));
        let engine = BspEngine::start(g.clone(), EngineConfig::new(2, 2));
        let mut b = QueryBuilder::new(g.schema());
        b.v_param(0).out("knows");
        let plan = b.compile().unwrap();
        for i in 0..6u64 {
            let rows = engine
                .query_timed(&plan, vec![Value::Vertex(VertexId(i))])
                .unwrap()
                .rows;
            assert_eq!(rows, vec![vec![Value::Vertex(VertexId((i + 1) % 16))]]);
        }
        engine.shutdown();
    }

    /// The one worker of a 1 × 1 cluster over a 16-vertex ring, holding
    /// query 1 of the plan `build` writes (`$0` = vertex 0), with the
    /// receivers of its reports and of its own inbox lane.
    fn lone_worker(
        build: impl FnOnce(&mut QueryBuilder<'_>),
    ) -> (BspWorker, Receiver<CoordMsg>, Receiver<WorkerMsg>) {
        let g = ring(16, Partitioner::new(1, 1));
        let (wtx, wrx) = unbounded();
        let (ctx_tx, crx) = unbounded();
        let (fabric, _threads) = Fabric::new(&EngineConfig::new(1, 1), vec![wtx], ctx_tx);
        let (_, inbox) = unbounded();
        let mut w = BspWorker::new(WorkerId(0), g.clone(), &fabric, inbox, 7);
        let mut b = QueryBuilder::new(g.schema());
        build(&mut b);
        w.handle(WorkerMsg::QueryBegin {
            ctx: Arc::new(QueryCtx {
                query: QueryId(1),
                plan: b.compile().unwrap(),
                params: vec![Value::Vertex(VertexId(0))],
                read_ts: graphdance_storage::TS_LIVE - 1,
            }),
            stage: 0,
            from: None,
        });
        (w, crx, wrx)
    }

    /// A query's parked frontier lives in the worker's arena until the
    /// query ends: `QueryEnd` frees every slot and interned register file.
    #[test]
    fn query_end_frees_the_parked_frontier() {
        let (mut w, crx, _wrx) = lone_worker(|b| {
            b.v_param(0);
            let c = b.alloc_slot();
            b.repeat(1, 4, c, |r| {
                r.out("knows");
            });
        });
        let query = QueryId(1);
        w.handle(WorkerMsg::StartSource {
            query,
            pipeline: 0,
            weight: Weight::ROOT,
        });
        for depth in 0..2 {
            w.handle(WorkerMsg::Bsp(BspSignal::RunStep {
                query,
                depth,
                expect: 0,
            }));
        }
        assert!(
            w.arena.live() > 0 && w.locals.live() > 0,
            "deeper hops parked"
        );
        let steps: u64 = std::iter::from_fn(|| crx.try_recv().ok())
            .filter_map(|m| match m {
                CoordMsg::BspStepDone { steps, .. } => Some(steps),
                _ => None,
            })
            .sum();
        assert!(steps > 0, "supersteps report the plan steps they ran");
        w.handle(WorkerMsg::QueryEnd { query });
        assert_eq!((w.arena.live(), w.locals.live()), (0, 0));
    }

    /// A `RunStep` short of its `expect` waits; the arrival that meets it
    /// runs the step.
    #[test]
    fn run_step_waits_for_its_expected_arrivals() {
        let (mut w, crx, _wrx) = lone_worker(|b| {
            b.v_param(0).out("knows");
        });
        let query = QueryId(1);
        w.handle(WorkerMsg::Bsp(BspSignal::RunStep {
            query,
            depth: 0,
            expect: 2,
        }));
        let arrival = || {
            let mut run = graphdance_pstm::HandOff::default();
            run.push(Traverser::root(query, 0, VertexId(0), 0, Weight::ROOT));
            WorkerMsg::HandOff(run)
        };
        let reports = || {
            std::iter::from_fn(|| crx.try_recv().ok())
                .filter_map(|m| match m {
                    CoordMsg::BspStepDone { consumed_count, .. } => Some(consumed_count),
                    _ => None,
                })
                .collect::<Vec<_>>()
        };
        w.handle(arrival());
        assert_eq!(reports(), [], "one of two arrived: the step is held");
        w.handle(arrival());
        assert_eq!(reports(), [2], "the second arrival runs the step");
        w.handle(arrival());
        assert_eq!(reports(), [], "a later arrival waits for its own step");
    }
}
