//! The shared-nothing worker thread (§IV).
//!
//! Each worker owns one graph partition and one record per query — its
//! context, stage, control-plane scope, memo, locals and unreported steps —
//! which the query's end frees whole. It executes traversers from
//! per-query, depth-ordered local queues (shorter trajectories first within
//! a query, §III-B; queries round-robin a quantum at a time), routes every
//! interpreter outcome — a source's or a queued traverser's — down one path
//! to its tier-1 outbox, coalesces finished weights, reports a query's
//! progress when that *query* has nothing left to run here, and — before
//! going to sleep — flushes every buffer (§IV-A/B). A query's control plane
//! follows its work (DESIGN.md §IV-A): the worker introduces a query on a
//! lane before the first work it sends there, and passes stage advances,
//! cancels and ends on along the introductions.

use std::collections::VecDeque;
use std::sync::Arc;

use crossbeam::channel::Receiver;
use rand::rngs::SmallRng;

use graphdance_common::{FxHashMap, FxHashSet, GdError, GdResult, NodeId, QueryId, WorkerId};
use graphdance_pstm::{
    HandleOutcome, LocalsTable, QueryMemo, TraverserArena, TraverserHandle, Weight, WeightLedger,
};
use graphdance_storage::Graph;

use crate::config::{EngineConfig, FaultInjection, WORKER_BATCH};
use crate::messages::{CoordMsg, QueryCtx, QueryScope, WorkerMsg, WorkerSet};
#[cfg(feature = "obs")]
use crate::net::MsgClass;
use crate::net::{Fabric, Outbox, WireMsg};
use crate::run_queue::{QueryRing, RunQueue};

/// Everything a worker holds for one query but its run queue (which the
/// [`QueryRing`] keeps, to schedule it): `QueryEnd` frees it with one
/// `remove`, as §III-B reclaims a memo "when the creating query
/// terminates".
struct ActiveQuery {
    ctx: Arc<QueryCtx>,
    stage: u16,
    /// Who else holds the context, as far as this worker knows.
    scope: QueryScope,
    /// The query's memo records on this partition.
    memo: QueryMemo,
    /// The query's interned locals tables.
    locals: LocalsTable,
    /// Plan steps executed here since the last progress report.
    steps: u64,
    /// In the cancellation drain (DESIGN.md §13): queued work was purged
    /// and its weight refunded, and work arriving late is refunded too —
    /// never silently dropped, the coordinator's tracker is owed it.
    cancelled: bool,
}

/// How many ended queries a worker remembers. A traverser can only trail
/// its query's `QueryEnd` by the time the fabric takes to deliver it, so
/// the window has to outlast that many *other* queries ending on this
/// worker, not the worker's lifetime.
const DEAD_WINDOW: usize = 1024;

/// The most recently ended queries, oldest evicted first: membership is
/// what lets a late traverser or source for an ended query be dropped
/// instead of failing the query as never introduced, in O(`DEAD_WINDOW`)
/// memory however many queries the worker has served.
#[derive(Default)]
struct DeadWindow {
    set: FxHashSet<QueryId>,
    order: VecDeque<QueryId>,
}

impl DeadWindow {
    fn contains(&self, q: QueryId) -> bool {
        self.set.contains(&q)
    }

    fn insert(&mut self, q: QueryId) {
        if !self.set.insert(q) {
            return;
        }
        self.order.push_back(q);
        if self.order.len() > DEAD_WINDOW {
            if let Some(oldest) = self.order.pop_front() {
                self.set.remove(&oldest);
            }
        }
    }

    /// A `QueryBegin` re-used the id (a query that failed here was still
    /// being introduced elsewhere): forget that it ended.
    fn remove(&mut self, q: QueryId) {
        if self.set.remove(&q) {
            self.order.retain(|d| *d != q);
        }
    }
}

/// What one non-blocking scheduling quantum accomplished. Shared by the
/// worker and coordinator pumps so the deterministic simulator can drive
/// both through one interface.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PumpStatus {
    /// The actor processed messages or executed traversers.
    Worked,
    /// Nothing to do; all buffers flushed. The threaded loop blocks on the
    /// inbox here; the simulator moves on to another actor.
    Idle,
    /// `Shutdown` was consumed: the actor is done for good.
    Stopped,
}

/// The part of a worker an interpreter outcome goes through on its way
/// out: the arena its traversers live in, the conservation check, the
/// outbox. Split from [`Worker`] so a quantum can route while it holds a
/// query's record, its run queue and the partition guard.
struct Router {
    id: WorkerId,
    outbox: Outbox,
    /// Slab of live local traversers: every queued traverser is admitted
    /// here at the door and leaves it when it runs, is sent or is purged.
    arena: TraverserArena,
    weight_coalescing: bool,
    /// Debug-build weight-conservation checker (no-op in release).
    ledger: WeightLedger,
    /// Interpreter outcomes seen (drives `leak_weight_nth` fault injection).
    outcomes: u64,
    fault: FaultInjection,
    /// Instrumentation (metrics shard, span accumulator, and the tally of
    /// the turn being routed).
    #[cfg(feature = "obs")]
    obs: crate::obs::WorkerObs,
}

impl Router {
    /// Route one interpreter outcome of `aq`'s query — a source's or a
    /// queued traverser's; `result` is the interpreter's — after verifying
    /// weight conservation (`input == Σ spawned + finished`, debug builds):
    /// local children onto the query's `queue`, remote ones to their
    /// owners, rows to the coordinator, and finished weight coalesced or,
    /// without coalescing, reported behind the aggregation it built. An
    /// interpreter error or a violation fails the query with its
    /// diagnostic instead of letting the tracker hang or fire early.
    /// Returns whether the outcome was routed.
    fn route(
        &mut self,
        aq: &mut ActiveQuery,
        queue: &mut RunQueue,
        input: Weight,
        out: &mut HandleOutcome,
        result: GdResult<()>,
    ) -> bool {
        let query = aq.ctx.query;
        let checked = result.and_then(|()| {
            self.outcomes += 1;
            if WeightLedger::ENABLED && self.fault.leak_weight_nth == Some(self.outcomes) {
                // Injected fault: leak one unit of weight.
                out.finished = out.finished.sub(Weight(1));
            }
            self.ledger
                .check_step_arena(query, input, out, &self.arena)
                .map_err(GdError::InvariantViolation)
        });
        if let Err(error) = checked {
            // Free what a conservation failure left spawned (an
            // interpreter error already unwound its own).
            for (_, h) in out.spawned.drain(..) {
                self.arena.discard(h, &mut aq.locals);
            }
            self.fail_query(query, error);
            return false;
        }
        let own = self.id.part();
        for (dest, h) in out.spawned.drain(..) {
            if dest == own {
                self.enqueue(queue, h);
                #[cfg(feature = "obs")]
                self.obs.spawned_local();
            } else {
                let w = self.outbox.partitioner().worker_of_part(dest);
                let _bytes = self.send_work(aq, w, h);
                #[cfg(feature = "obs")]
                self.obs.sent_remote(w, _bytes);
            }
        }
        self.outbox.seal_handoffs();
        if !out.emitted.is_empty() {
            let _bytes = self
                .outbox
                .send_rows(query, std::mem::take(&mut out.emitted));
            #[cfg(feature = "obs")]
            self.obs.sent(MsgClass::Rows, _bytes);
        }
        aq.steps += out.steps_executed as u64;
        if out.finished != Weight::ZERO {
            if self.weight_coalescing {
                aq.memo.finished.add(out.finished);
            } else {
                // Naive progress tracking: one report per termination,
                // behind the aggregation it built.
                if let Some(state) = aq.memo.take_agg() {
                    let _bytes = self.outbox.send(agg_partial(query, state));
                    #[cfg(feature = "obs")]
                    self.obs.sent(MsgClass::Rows, _bytes);
                }
                let steps = std::mem::take(&mut aq.steps);
                let _bytes = self.outbox.send_progress(query, out.finished, steps);
                #[cfg(feature = "obs")]
                self.obs.sent(MsgClass::Progress, _bytes);
            }
        }
        true
    }

    /// Queue the arena traverser `handle` on its query's `queue`, at its
    /// depth.
    fn enqueue(&self, queue: &mut RunQueue, handle: TraverserHandle) {
        queue.push(self.arena.get(handle).depth, handle);
    }

    /// Rule 1 of the control plane (DESIGN.md §IV-A): send arena traverser
    /// `h` of `aq`'s query to `dest` — handed off on this node, flattened
    /// for another — introducing the query on the same lane first unless
    /// `dest` is known to hold the context. Returns the bytes it added.
    fn send_work(&mut self, aq: &mut ActiveQuery, dest: WorkerId, h: TraverserHandle) -> usize {
        if aq.scope.introduce(dest) {
            let msg = WorkerMsg::QueryBegin {
                ctx: Arc::clone(&aq.ctx),
                stage: aq.stage,
                from: Some(self.id),
            };
            let begin = WireMsg::Worker { dest, msg };
            #[cfg(feature = "obs")]
            self.obs.note_msg(aq.ctx.query, aq.stage, &begin);
            self.outbox.send(begin);
        }
        self.outbox
            .send_handle(dest, h, &mut self.arena, &mut aq.locals)
    }

    /// Rules 2 and 3: pass a stage advance, cancel or end of `query` (at
    /// `stage`, for tracing) on to each worker of `dests`.
    #[cfg_attr(not(feature = "obs"), allow(unused_variables))]
    fn pass_on(
        &mut self,
        dests: &WorkerSet,
        query: QueryId,
        stage: u16,
        msg: impl Fn() -> WorkerMsg,
    ) {
        for dest in dests.iter() {
            let msg = WireMsg::Worker { dest, msg: msg() };
            #[cfg(feature = "obs")]
            self.obs.note_msg(query, stage, &msg);
            self.outbox.send(msg);
        }
    }

    /// Fail `query` at the coordinator.
    fn fail_query(&mut self, query: QueryId, error: GdError) {
        self.outbox
            .send_ctrl_coord(CoordMsg::WorkerError { query, error });
    }
}

/// One worker's mutable state and main loop.
pub struct Worker {
    graph: Graph,
    inbox: Receiver<WorkerMsg>,
    /// The queries introduced here and not yet ended.
    queries: FxHashMap<QueryId, ActiveQuery>,
    /// Queries that ended recently; late traversers for them are dropped.
    dead: DeadWindow,
    /// Runnable traversers: one queue per query (shallowest first, FIFO
    /// within a depth), queries served round-robin.
    ring: QueryRing,
    /// Queries whose queue here emptied since the last progress flush.
    idle: Vec<QueryId>,
    rng: SmallRng,
    /// Reused staging buffer for the run being executed: the handles of
    /// one query's same-depth queue entries, in pop order.
    run: Vec<TraverserHandle>,
    /// Reused outcome buffers (no per-traverser spawned/emitted Vec churn).
    scratch: HandleOutcome,
    /// Where every interpreter outcome goes out.
    router: Router,
}

impl Worker {
    /// Build a worker. `inbox` must be the receiver paired with the sender
    /// registered in the fabric.
    pub fn new(
        id: WorkerId,
        graph: Graph,
        fabric: &Arc<Fabric>,
        inbox: Receiver<WorkerMsg>,
        config: &EngineConfig,
    ) -> Self {
        let node = fabric.partitioner().node_of_worker(id);
        Worker {
            graph,
            inbox,
            queries: FxHashMap::default(),
            dead: DeadWindow::default(),
            ring: QueryRing::default(),
            idle: Vec::new(),
            rng: graphdance_common::rng::derive(config.seed, id.0 as u64),
            run: Vec::new(),
            scratch: HandleOutcome::new(),
            router: Router {
                id,
                outbox: fabric.outbox(node),
                arena: TraverserArena::new(),
                weight_coalescing: config.weight_coalescing,
                ledger: WeightLedger::new(),
                outcomes: 0,
                fault: config.fault,
                #[cfg(feature = "obs")]
                obs: crate::obs::WorkerObs::new(fabric, id),
            },
        }
    }

    /// The worker main loop; returns the worker, as it stopped, on
    /// `Shutdown`.
    pub fn run(mut self) -> Self {
        loop {
            let status = self.pump();
            // Progress and rows this quantum flushed into the coordinator's
            // inbox on this node are run here, before the worker sleeps,
            // with no partition guard held.
            self.router.outbox.drive_coordinator();
            match status {
                PumpStatus::Stopped => return self,
                PumpStatus::Worked => {}
                PumpStatus::Idle => {
                    // §IV-B: every buffer is flushed before the thread
                    // sleeps — `pump` did that before reporting `Idle`.
                    match self.inbox.recv() {
                        Ok(WorkerMsg::Shutdown) | Err(_) => return self,
                        Ok(msg) => self.handle(msg),
                    }
                }
            }
        }
    }

    /// One non-blocking scheduling quantum: drain the inbox, execute up to
    /// one batch of local traversers, report the queries that went idle
    /// here, and flush buffers when every queue is empty. The threaded
    /// [`Worker::run`] loop calls this and blocks on [`PumpStatus::Idle`];
    /// the deterministic simulator calls it directly.
    pub fn pump(&mut self) -> PumpStatus {
        self.pump_counted().0
    }

    /// [`Worker::pump`], also returning how many traversers the quantum
    /// executed: the simulator totals them.
    pub(crate) fn pump_counted(&mut self) -> (PumpStatus, usize) {
        let mut worked = false;
        // Drain the inbox without blocking.
        loop {
            match self.inbox.try_recv() {
                Ok(WorkerMsg::Shutdown) => return (PumpStatus::Stopped, 0),
                Ok(msg) => {
                    self.handle(msg);
                    worked = true;
                }
                Err(_) => break,
            }
        }
        // Execute a batch of local traversers: the ring's front query,
        // shallow first.
        let executed = self.run_quantum();
        worked |= executed > 0;
        // Keep same-node latency low.
        self.router.outbox.flush_local();
        // §IV-A/B "no more traversers ready for execution", per *query*: a
        // query with nothing left to run here reports now, however much
        // work the queries beside it still have queued.
        let went_idle = self.flush_progress();
        if self.ring.is_empty() {
            // Every query is idle and so is the worker: flush everything
            // (§IV-B "we flush all the buffers before the current thread
            // sleeps").
            self.router.outbox.flush_all();
            if !worked {
                return (PumpStatus::Idle, 0);
            }
        } else if went_idle {
            // The worker stays busy with other queries: the idle query's
            // rows and report still leave tier 1 now, not when some other
            // query fills the coordinator lane.
            self.router.outbox.flush_node(NodeId(0));
        }
        (PumpStatus::Worked, executed)
    }

    /// Is a quantum worth scheduling — queued input or runnable
    /// traversers? (An all-flushed worker with an empty inbox would just
    /// report `Idle`.)
    pub fn has_work(&self) -> bool {
        !self.inbox.is_empty() || !self.ring.is_empty()
    }

    fn handle(&mut self, msg: WorkerMsg) {
        match msg {
            WorkerMsg::Batch(ts) => self.admit(
                ts,
                |t| (t.query, t.weight),
                |t, arena, locals| arena.admit(t, locals),
            ),
            WorkerMsg::HandOff(run) => {
                let (ts, mut from) = run.into_parts();
                self.admit(
                    ts,
                    |t| (t.query, t.weight),
                    |t, arena, locals| arena.import(t, &mut from, locals),
                );
            }
            WorkerMsg::QueryBegin { ctx, stage, from } => self.begin_query(ctx, stage, from),
            WorkerMsg::StageBegin { query, stage } => self.advance_stage(query, stage),
            WorkerMsg::StartSource {
                query,
                pipeline,
                weight,
            } => {
                self.start_source(query, pipeline, weight);
            }
            WorkerMsg::CancelQuery { query } => {
                self.cancel_query(query);
            }
            WorkerMsg::QueryEnd { query } => self.end_query(query),
            WorkerMsg::Bsp(_) => {
                // BSP signals are for the BSP baseline's workers only.
            }
            // Both worker loops return on Shutdown before dispatching here.
            WorkerMsg::Shutdown => unreachable!("handled by the loops"), // lint: allow(hot-path-panics)
        }
    }

    /// A `QueryBegin` (rule 1, DESIGN.md §IV-A). The first one registers
    /// the query's record, knowing its sender holds the context too. A
    /// later one — another sender that did not know this worker held the
    /// query — never resets anything: it advances the stage if it carries
    /// a later one, and adds its sender to the scope.
    fn begin_query(&mut self, ctx: Arc<QueryCtx>, stage: u16, from: Option<WorkerId>) {
        let query = ctx.query;
        if self.queries.contains_key(&query) {
            self.advance_stage(query, stage);
        } else {
            self.dead.remove(query);
            let aq = ActiveQuery {
                ctx,
                stage,
                scope: QueryScope::default(),
                memo: QueryMemo::default(),
                locals: LocalsTable::new(),
                steps: 0,
                cancelled: false,
            };
            self.queries.insert(query, aq);
            #[cfg(feature = "obs")]
            self.router.obs.begin_query(query);
        }
        if let (Some(w), Some(aq)) = (from, self.queries.get_mut(&query)) {
            aq.scope.known.insert(w);
        }
    }

    /// Rule 2: move `query` to `stage` if that is later than its stage
    /// here — dropping the per-stage memo state (dedup sets, min-distance
    /// records, join tables) — and pass the advance to every worker known
    /// to hold the context before this worker sends any work of the new
    /// stage. A stage at or below the current one changes nothing.
    fn advance_stage(&mut self, query: QueryId, stage: u16) {
        let Some(aq) = self.queries.get_mut(&query) else {
            return;
        };
        if stage <= aq.stage {
            return;
        }
        #[cfg(feature = "obs")]
        self.router.obs.flush_stage(query, aq.stage);
        aq.stage = stage;
        let _ = aq.memo.take_stage_state();
        self.router
            .pass_on(&aq.scope.known, query, stage, || WorkerMsg::StageBegin {
                query,
                stage,
            });
    }

    /// Rule 3: the query finished or failed. Pass the end on to the
    /// workers this one introduced (buffered: it leaves with the lane's
    /// next flush), then release the query here: its record — memo, locals
    /// and all — and its queue, whose handles free their slab slots.
    fn end_query(&mut self, query: QueryId) {
        if let Some(aq) = self.queries.remove(&query) {
            self.router
                .pass_on(&aq.scope.introduced, query, aq.stage, || {
                    WorkerMsg::QueryEnd { query }
                });
            #[cfg(feature = "obs")]
            self.router.obs.end_query(query);
        }
        self.dead.insert(query);
        let arena = &mut self.router.arena;
        self.ring.retire(query, |h| drop(arena.remove(h)));
    }

    /// A batch or source for a query this worker holds no record of. An
    /// ended query's stragglers are dropped. Otherwise (rule 5) the worker
    /// was never introduced to the query: every sender introduces a query
    /// on a lane before its first work there, and every path is FIFO, so
    /// this is a broken protocol — fail the query rather than run work
    /// without its context.
    fn stray(&mut self, query: QueryId) {
        if self.dead.contains(query) {
            return;
        }
        let error = GdError::InvariantViolation(format!(
            "worker {} got work for query {} it was never introduced to",
            self.id().0,
            query.0
        ));
        self.router.fail_query(query, error);
    }

    /// The cancellation drain (DESIGN.md §13): pass the cancel on to the
    /// workers this one introduced, purge every queued traverser of
    /// `query`, absorb this worker's coalesced finished weight, and refund
    /// the total to the coordinator as one ordinary `Progress` report. The
    /// record stays, marked cancelled, so weight still in flight when the
    /// purge ran is refunded on arrival; once every share has reported, the
    /// coordinator's tracker completes and its `QueryEnd` finishes the
    /// teardown. Only a query held here is drained, once.
    fn cancel_query(&mut self, query: QueryId) {
        let Some(aq) = self.queries.get_mut(&query) else {
            return;
        };
        if std::mem::replace(&mut aq.cancelled, true) {
            return;
        }
        self.router
            .pass_on(&aq.scope.introduced, query, aq.stage, || {
                WorkerMsg::CancelQuery { query }
            });
        let mut refund = Weight::ZERO;
        // Queued traversers: their handles free their slab slots and
        // release their interned locals — the table itself lives until
        // `QueryEnd` drops the record.
        let (arena, locals) = (&mut self.router.arena, &mut aq.locals);
        self.ring.retire(query, |h| {
            let at = arena.remove(h);
            locals.unref(at.locals);
            refund.absorb(at.weight);
        });
        // Finished weight coalesced but not yet reported; the aggregation
        // built so far is discarded with the rows.
        let _ = aq.memo.take_agg();
        if let Some(w) = aq.memo.finished.drain() {
            refund.absorb(w);
        }
        let steps = std::mem::take(&mut aq.steps);
        if refund != Weight::ZERO || steps > 0 {
            self.router.outbox.send_progress(query, refund, steps);
            self.idle.push(query);
            #[cfg(feature = "obs")]
            self.router.obs.note_progress(query, aq.stage);
        }
    }

    /// The partition this worker serves.
    pub fn id(&self) -> WorkerId {
        self.router.id
    }

    /// Does this worker hold anything for `query` — its record (context,
    /// memo, locals, unreported steps), a run queue, a report still to
    /// flush? Not once the query's `QueryEnd` was handled and a pump ran
    /// (leak tests).
    pub fn holds(&self, query: QueryId) -> bool {
        self.queries.contains_key(&query) || self.ring.holds(query) || self.idle.contains(&query)
    }

    /// Admit an inbox batch or hand-off run: `head` reads a traverser's
    /// query and weight, `intern` puts it into the arena and the query's
    /// locals table. Everything that depends on the query alone — held,
    /// draining, locals table, queue — is resolved once per run of
    /// same-query traversers, not per traverser.
    fn admit<T>(
        &mut self,
        ts: Vec<T>,
        head: fn(&T) -> (QueryId, Weight),
        mut intern: impl FnMut(T, &mut TraverserArena, &mut LocalsTable) -> TraverserHandle,
    ) {
        let mut ts = ts.into_iter().peekable();
        while let Some((q, _)) = ts.peek().map(head) {
            let run = std::iter::from_fn(|| ts.next_if(|t| head(t).0 == q));
            let Some(aq) = self.queries.get_mut(&q) else {
                run.for_each(drop);
                self.stray(q);
                continue;
            };
            if aq.cancelled {
                // Late delivery during the drain: refund instead of running
                // (or silently dropping — the tracker is owed this weight).
                for t in run {
                    self.router.outbox.send_progress(q, head(&t).1, 0);
                }
                self.idle.push(q);
                continue;
            }
            self.ring.admit(q, |queue| {
                for t in run {
                    let h = intern(t, &mut self.router.arena, &mut aq.locals);
                    self.router.enqueue(queue, h);
                }
            });
        }
    }

    /// Run a pipeline source on this partition. Its children join the
    /// arena like an admitted batch, and its outcome is routed like a
    /// run's.
    fn start_source(&mut self, query: QueryId, pipeline: u16, weight: Weight) {
        let Some(aq) = self.queries.get_mut(&query) else {
            self.stray(query);
            return;
        };
        if aq.cancelled {
            // The drain already ran on this worker: refund the source's
            // whole share instead of expanding it.
            self.router.outbox.send_progress(query, weight, 0);
            self.idle.push(query);
            return;
        }
        let result = {
            let part = self.graph.read(self.router.id.part());
            let interp = aq.ctx.interpreter(&self.graph, aq.stage);
            interp.run_source(pipeline, weight, &part, &mut self.rng)
        };
        let source = match result {
            Ok(source) => source,
            Err(error) => {
                self.router.fail_query(query, error);
                return;
            }
        };
        let (router, out) = (&mut self.router, &mut self.scratch);
        out.admit(source, &mut router.arena, &mut aq.locals);
        let went_idle = self.ring.admit(query, |queue| {
            router.route(aq, queue, weight, out, Ok(())) && queue.is_empty()
        });
        #[cfg(feature = "obs")]
        router.obs.fold(query, aq.stage);
        if went_idle {
            // Nothing of the query is runnable here (the source spawned no
            // local child): what it finished is reported by this pump.
            self.idle.push(query);
        }
    }

    /// Execute up to one batch of queued traversers: the ring's front
    /// query, a *run* (consecutive same-depth entries) at a time, moving on
    /// to the next query only if this one drains with budget left; a query
    /// that still has work goes to the back of the ring. Everything that is
    /// per-query rather than per-traverser — queue, record, interpreter
    /// and, in obs builds, the turn's stamps and span — is resolved once
    /// per query served (a *turn*), and each traverser's outcome is routed
    /// as it completes (local children straight back into the query's
    /// queue, remote ones flattened at the outbox). The partition read
    /// guard spans the quantum. Returns the number of traversers executed.
    fn run_quantum(&mut self) -> usize {
        if self.ring.is_empty() {
            return 0;
        }
        // sync: the partition read guard is held for this quantum only —
        // at most `WORKER_BATCH` traversers — and is released before the
        // worker polls or blocks on its inbox, so a `txn` writer queued on
        // the partition waits out one quantum at most.
        // lint: allow(hot-path-blocking) the guard spans `outbox.send_*`:
        // those push into unbounded channels and tier-1 buffers and take
        // no partition lock, so holding it adds no wait of its own.
        let part = self.graph.read(self.router.id.part());
        let mut executed = 0;
        while executed < WORKER_BATCH {
            let Some((query, queue)) = self.ring.pop() else {
                break;
            };
            let Some(aq) = self.queries.get_mut(&query) else {
                // `QueryEnd` retires the queue, so none outlives its query;
                // were one to, free its slots rather than run them.
                let arena = &mut self.router.arena;
                self.ring.retire(query, |h| drop(arena.remove(h)));
                continue;
            };
            // The interpreter holds its own reference to the context, so
            // the record stays free to lend to the router.
            let ctx = Arc::clone(&aq.ctx);
            let interp = ctx.interpreter(&self.graph, aq.stage);
            #[cfg(feature = "obs")]
            let turn = self.router.obs.turn_begin(queue.ringed_at, executed);
            while queue.stage_run(WORKER_BATCH - executed, &mut self.run) {
                executed += self.run.len();
                for &h in &self.run {
                    let input = self.router.arena.get(h).weight;
                    let result = interp.run_handle(
                        h,
                        &mut self.router.arena,
                        &mut aq.locals,
                        &part,
                        &mut aq.memo,
                        &mut self.rng,
                        &mut self.scratch,
                    );
                    self.router
                        .route(aq, queue, input, &mut self.scratch, result);
                }
            }
            #[cfg(feature = "obs")]
            {
                let (obs, memo) = (&mut self.router.obs, aq.memo.stats.take());
                queue.ringed_at = Some(obs.turn_end(turn, query, aq.stage, executed, memo));
            }
            if queue.is_empty() {
                self.idle.push(query);
            } else {
                self.ring.requeue(query);
            }
        }
        executed
    }

    /// Report the coalesced finished weight and step count of every query
    /// that went idle here since the last call (§IV-A): its queue emptied
    /// after a run, a source or a cancel. Rule 4: the aggregation built
    /// since the last report goes first, on the same lane, so it reaches
    /// the coordinator before the weight that accounts for it. Returns
    /// whether any query went idle.
    fn flush_progress(&mut self) -> bool {
        let went_idle = !self.idle.is_empty();
        for q in self.idle.drain(..) {
            // Without coalescing the weight was sent eagerly; a query that
            // ended since it went idle has nothing left to report.
            let aq = match self.queries.get_mut(&q) {
                Some(aq) if self.router.weight_coalescing => aq,
                _ => continue,
            };
            if let Some(state) = aq.memo.take_agg() {
                let partial = agg_partial(q, state);
                #[cfg(feature = "obs")]
                self.router.obs.note_msg(q, aq.stage, &partial);
                self.router.outbox.send(partial);
            }
            if let Some(w) = aq.memo.finished.drain() {
                let steps = std::mem::take(&mut aq.steps);
                if self.router.fault.sim.progress_side_channel {
                    // Injected regression: pre-fix drain order where the
                    // coalesced progress report bypasses the row FIFO.
                    self.router.outbox.send_progress_sidechannel(q, w, steps);
                } else {
                    self.router.outbox.send_progress(q, w, steps);
                }
                #[cfg(feature = "obs")]
                self.router.obs.note_progress(q, aq.stage);
            }
        }
        went_idle
    }
}

/// An aggregation partial for the coordinator (rule 4).
fn agg_partial(query: QueryId, state: graphdance_pstm::AggState) -> WireMsg {
    WireMsg::Coord(CoordMsg::AggPartial {
        query,
        state: Some(Box::new(state)),
    })
}

#[cfg(test)]
mod handler_tests {
    use super::*;
    use crate::run_queue::{BUCKET_KEEP, FREE_KEEP};
    use crossbeam::channel::unbounded;
    use graphdance_common::{Partitioner, Value, VertexId};
    use graphdance_pstm::{Traverser, Weight};
    use graphdance_query::QueryBuilder;
    use graphdance_storage::GraphBuilder;

    /// Build a worker without spawning its thread, so `handle` can be
    /// driven directly.
    fn test_worker() -> (Worker, Arc<Fabric>, Vec<Receiver<WorkerMsg>>) {
        let (worker, fabric, wrx, _crx) = test_worker_with_coord();
        (worker, fabric, wrx)
    }

    type WorkerWithCoord = (
        Worker,
        Arc<Fabric>,
        Vec<Receiver<WorkerMsg>>,
        Receiver<CoordMsg>,
    );

    /// [`test_worker`], keeping the coordinator's inbox: the worker sits on
    /// node 0, so what it flushes toward the coordinator arrives here.
    fn test_worker_with_coord() -> WorkerWithCoord {
        let mut b = GraphBuilder::new(Partitioner::new(1, 2));
        let n = b.schema_mut().register_vertex_label("N");
        let e = b.schema_mut().register_edge_label("e");
        let far = b.schema_mut().register_edge_label("far");
        b.add_vertex(VertexId(0), n, vec![]).unwrap();
        b.add_vertex(VertexId(1), n, vec![]).unwrap();
        b.add_edge(VertexId(0), e, VertexId(1), vec![]).unwrap();
        // `0 -far-> v`, `v` owned by the other worker: a real cross-worker hop.
        let p = b.partitioner();
        let v = (2..)
            .map(VertexId)
            .find(|v| p.worker_of(*v) != p.worker_of(VertexId(0)))
            .unwrap();
        b.add_vertex(v, n, vec![]).unwrap();
        b.add_edge(VertexId(0), far, v, vec![]).unwrap();
        let graph = b.finish();
        let config = EngineConfig::new(1, 2);
        let mut wtx = Vec::new();
        let mut wrx = Vec::new();
        for _ in 0..2 {
            let (tx, rx) = unbounded();
            wtx.push(tx);
            wrx.push(rx);
        }
        let (ctx, crx) = unbounded();
        let (fabric, _handles) = Fabric::new(&config, wtx, ctx);
        // Find which worker owns vertex 0 so StartSource lands correctly.
        let owner = graph.partitioner().worker_of(VertexId(0));
        let (_, inbox) = unbounded::<WorkerMsg>();
        let worker = Worker::new(owner, graph, &fabric, inbox, &config);
        (worker, fabric, wrx, crx)
    }

    /// Take the ring's front query out and stage its next run, as a
    /// quantum would.
    fn stage_next(w: &mut Worker) -> Option<QueryId> {
        let (query, queue) = w.ring.pop()?;
        queue.stage_run(8, &mut w.run);
        Some(query)
    }

    /// The `(query, weight)` of every progress report the coordinator has
    /// received so far.
    fn progress_at(crx: &Receiver<CoordMsg>) -> Vec<(u64, u64)> {
        std::iter::from_fn(|| crx.try_recv().ok())
            .filter_map(|m| match m {
                CoordMsg::Progress { query, weight, .. } => Some((query.0, weight.0)),
                _ => None,
            })
            .collect()
    }

    /// `v(param 0).out("e")` as query `query`.
    fn ctx_with(worker: &Worker, query: u64) -> Arc<QueryCtx> {
        ctx_over(worker, query, "e")
    }

    /// `v(param 0).out(label)` as query `query`.
    fn ctx_over(worker: &Worker, query: u64, label: &str) -> Arc<QueryCtx> {
        let mut qb = QueryBuilder::new(worker.graph.schema());
        qb.v_param(0).out(label);
        Arc::new(QueryCtx {
            query: QueryId(query),
            plan: qb.compile().unwrap(),
            params: vec![Value::Vertex(VertexId(0))],
            read_ts: 1,
        })
    }

    fn ctx_for(worker: &Worker) -> Arc<QueryCtx> {
        ctx_with(worker, 5)
    }

    /// Introduce `ctx`'s query as the coordinator would, at stage 0.
    fn begin(w: &mut Worker, ctx: Arc<QueryCtx>) {
        w.handle(WorkerMsg::QueryBegin {
            ctx,
            stage: 0,
            from: None,
        });
    }

    /// A traverser of `query` sitting on vertex 0 at the plan's first step.
    fn at_v0(query: u64, weight: u64) -> Traverser {
        Traverser::root(QueryId(query), 0, VertexId(0), 0, Weight(weight))
    }

    /// Rule 5: every sender introduces a query on its lane ahead of its
    /// work, so a batch or source for a query this worker was never
    /// introduced to (and that has not ended here) is a broken protocol. It
    /// fails that query with a typed error — no stash, no panic, no hang —
    /// and leaves the worker holding nothing of it.
    #[test]
    fn work_for_an_unintroduced_query_fails_it() {
        let (mut w, _fabric, _wrx, crx) = test_worker_with_coord();
        w.handle(WorkerMsg::Batch(vec![at_v0(5, 1), at_v0(5, 2)]));
        w.handle(WorkerMsg::StartSource {
            query: QueryId(6),
            pipeline: 0,
            weight: Weight::ROOT,
        });
        assert!(w.ring.is_empty());
        assert_eq!(w.pump(), PumpStatus::Idle);
        let failed: Vec<u64> = std::iter::from_fn(|| crx.try_recv().ok())
            .map(|m| match m {
                CoordMsg::WorkerError {
                    query,
                    error: GdError::InvariantViolation(why),
                } => {
                    assert!(why.contains("never introduced"), "{why}");
                    query.0
                }
                other => panic!("expected a WorkerError, got {other:?}"),
            })
            .collect();
        assert_eq!(failed, vec![5, 6]);
        assert!(!w.holds(QueryId(5)) && !w.holds(QueryId(6)));
        // An ended query's stragglers are dropped quietly, as before.
        let ctx = ctx_with(&w, 7);
        begin(&mut w, ctx);
        w.handle(WorkerMsg::QueryEnd { query: QueryId(7) });
        w.handle(WorkerMsg::Batch(vec![at_v0(7, 1)]));
        assert_eq!(w.pump(), PumpStatus::Idle);
        assert!(crx.try_recv().is_err());
    }

    /// `ts` as a co-located worker hands them over: a run of arena
    /// records.
    fn hand_off(ts: Vec<Traverser>) -> WorkerMsg {
        let (mut arena, mut locals) = (TraverserArena::new(), LocalsTable::new());
        let mut run = graphdance_pstm::HandOff::default();
        for t in ts {
            let h = arena.admit(t, &mut locals);
            arena.export(h, &mut locals, &mut run);
        }
        WorkerMsg::HandOff(run)
    }

    /// A hand-off run goes through the batch's admission: for a query never
    /// introduced it fails the query, for an ended one it is dropped, for a
    /// draining one each traverser is refunded, and a live query's
    /// traversers are queued and run.
    #[test]
    fn hand_offs_are_admitted_like_batches() {
        let (mut w, _fabric, _wrx, crx) = test_worker_with_coord();
        w.handle(hand_off(vec![at_v0(5, 1), at_v0(5, 2)]));
        assert_eq!(w.pump(), PumpStatus::Idle);
        match crx.try_recv() {
            Ok(CoordMsg::WorkerError {
                query: QueryId(5),
                error: GdError::InvariantViolation(why),
            }) => assert!(why.contains("never introduced"), "{why}"),
            other => panic!("expected query 5 to fail, got {other:?}"),
        }
        assert!(!w.holds(QueryId(5)));
        for q in 6..=8 {
            let ctx = ctx_with(&w, q);
            begin(&mut w, ctx);
        }
        w.handle(WorkerMsg::QueryEnd { query: QueryId(7) });
        w.handle(WorkerMsg::CancelQuery { query: QueryId(8) });
        w.handle(hand_off(vec![
            at_v0(7, 1),
            at_v0(8, 2),
            at_v0(8, 3),
            at_v0(6, 4),
            at_v0(6, 5),
        ]));
        assert_eq!((w.ring.len(), w.router.arena.live()), (2, 2));
        while w.pump() == PumpStatus::Worked {}
        assert_eq!(progress_at(&crx), vec![(8, 2), (8, 3), (6, 9)]);
        assert_eq!(w.router.arena.live(), 0);
    }

    /// Rule 2: a stage advance happens once. A repeated `StageBegin` (or one
    /// for an older stage) after stage-2 dedup records exist leaves them in
    /// place — it used to clear the stage's memo state again.
    #[test]
    fn repeated_stage_begin_keeps_the_stage_state() {
        let (mut w, _fabric, _wrx) = test_worker();
        let ctx = ctx_for(&w);
        begin(&mut w, ctx);
        let q = QueryId(5);
        for stage in [1, 2] {
            w.handle(WorkerMsg::StageBegin { query: q, stage });
        }
        fn memo(w: &mut Worker, q: QueryId) -> &mut QueryMemo {
            &mut w.queries.get_mut(&q).unwrap().memo
        }
        assert!(memo(&mut w, q).dedup_insert(0, 0, VertexId(0), vec![]));
        for stage in [2, 1, 2] {
            w.handle(WorkerMsg::StageBegin { query: q, stage });
        }
        assert_eq!(w.queries[&q].stage, 2);
        assert!(
            !memo(&mut w, q).dedup_insert(0, 0, VertexId(0), vec![]),
            "the stage-2 dedup record survived"
        );
    }

    /// Rules 1–3 at one worker: it introduces the query to a peer ahead of
    /// the first traverser it sends there (the children of its runs along
    /// `far`, whose vertex the peer owns), passes a stage advance to
    /// every worker it knows holds the context, and passes the end to the
    /// ones it introduced. A second `QueryBegin` — from a sender that did
    /// not know this worker held the query, carrying an older stage — keeps
    /// the stage, the scope and the queue.
    #[test]
    fn introductions_carry_stage_and_end_along_the_work() {
        let (mut w, _fabric, wrx) = test_worker();
        let other = WorkerId(1 - w.id().0);
        let q = QueryId(6);
        let ctx = ctx_over(&w, 6, "far");
        begin(&mut w, ctx);
        for wave in [vec![at_v0(6, 2), at_v0(6, 3)], vec![at_v0(6, 4)]] {
            w.handle(WorkerMsg::Batch(wave));
            while w.pump() == PumpStatus::Worked {}
        }
        w.handle(WorkerMsg::StageBegin { query: q, stage: 1 });
        w.router.outbox.flush_all();
        let at_other = || -> Vec<String> {
            std::iter::from_fn(|| wrx[other.as_usize()].try_recv().ok())
                .map(|m| match m {
                    WorkerMsg::QueryBegin { stage, from, .. } => format!("begin {stage} {from:?}"),
                    WorkerMsg::Batch(ts) => format!("batch {}", ts.len()),
                    WorkerMsg::HandOff(run) => format!("batch {}", run.len()),
                    WorkerMsg::StageBegin { stage, .. } => format!("stage {stage}"),
                    WorkerMsg::QueryEnd { .. } => "end".into(),
                    other => format!("{other:?}"),
                })
                .collect()
        };
        let me = format!("{:?}", Some(w.id()));
        assert_eq!(
            at_other(),
            [
                format!("begin 0 {me}"),
                "batch 2".into(),
                "batch 1".into(),
                "stage 1".into()
            ]
        );
        let scope_before = w.queries[&q].scope.clone();
        w.handle(WorkerMsg::QueryBegin {
            ctx: ctx_over(&w, 6, "far"),
            stage: 0,
            from: Some(other),
        });
        let aq = &w.queries[&q];
        assert_eq!(aq.stage, 1, "an older stage is not taken back");
        assert_eq!(aq.scope.known, scope_before.known);
        assert_eq!(aq.scope.introduced, scope_before.introduced);
        w.handle(WorkerMsg::QueryEnd { query: q });
        assert!(at_other().is_empty(), "the end waits for the lane's flush");
        w.router.outbox.flush_all();
        assert_eq!(at_other(), ["end".to_string()]);
        assert!(!w.holds(q));
    }

    /// Rule 4: an aggregating query's partial is data sent ahead of the
    /// progress report that accounts for the traversers which built it —
    /// no gather round trip follows the stage.
    #[test]
    fn aggregation_partial_travels_ahead_of_its_progress() {
        let (mut w, _fabric, _wrx, crx) = test_worker_with_coord();
        let mut qb = QueryBuilder::new(w.graph.schema());
        qb.v_param(0).out("e").count();
        let ctx = Arc::new(QueryCtx {
            query: QueryId(5),
            plan: qb.compile().unwrap(),
            params: vec![Value::Vertex(VertexId(0))],
            read_ts: 1,
        });
        begin(&mut w, ctx);
        w.handle(WorkerMsg::StartSource {
            query: QueryId(5),
            pipeline: 0,
            weight: Weight::ROOT,
        });
        while w.pump() == PumpStatus::Worked {}
        let kinds: Vec<&str> = std::iter::from_fn(|| crx.try_recv().ok())
            .map(|m| match m {
                CoordMsg::AggPartial { state: Some(_), .. } => "partial",
                CoordMsg::Progress { .. } => "progress",
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(kinds, ["partial", "progress"]);
    }

    #[test]
    fn dead_query_traversers_are_dropped() {
        let (mut w, fabric, _wrx) = test_worker();
        let ctx = ctx_for(&w);
        w.handle(WorkerMsg::QueryBegin {
            ctx,
            stage: 0,
            from: None,
        });
        w.handle(WorkerMsg::QueryEnd { query: QueryId(5) });
        w.handle(WorkerMsg::Batch(vec![at_v0(5, 1)]));
        assert!(
            w.ring.is_empty(),
            "late traversers for an ended query are dropped"
        );
        // Mixed with a live query and a draining one: the dead query's runs
        // are dropped, the live query's traverser is queued, and each of
        // the draining query's is refunded as its own progress report.
        w.handle(WorkerMsg::QueryBegin {
            ctx: ctx_with(&w, 6),
            stage: 0,
            from: None,
        });
        w.handle(WorkerMsg::QueryBegin {
            ctx: ctx_with(&w, 7),
            stage: 0,
            from: None,
        });
        w.handle(WorkerMsg::CancelQuery { query: QueryId(7) });
        let before = fabric.stats().snapshot().progress_msgs;
        w.handle(WorkerMsg::Batch(vec![
            at_v0(5, 1),
            at_v0(7, 2),
            at_v0(7, 3),
            at_v0(6, 4),
            at_v0(5, 5),
        ]));
        assert_eq!(w.ring.len(), 1);
        assert_eq!(stage_next(&mut w), Some(QueryId(6)));
        // Sends are counted when their buffer is flushed.
        w.router.outbox.flush_all();
        assert_eq!(fabric.stats().snapshot().progress_msgs - before, 2);
    }

    /// A long-lived worker's per-query state is O(active + `DEAD_WINDOW`),
    /// not O(queries ever served): 100 k begin/run/end cycles — every third
    /// one cancelled with its source's child still queued, and a late batch
    /// refunded in the drain — leave no query record, queue or arena slot
    /// behind, the free list of recycled queues bounded, and the most
    /// recent ends remembered.
    #[test]
    fn per_query_state_stays_bounded_over_100k_cycles() {
        let (mut w, _fabric, _wrx) = test_worker();
        let base = ctx_for(&w);
        let begin = |query| WorkerMsg::QueryBegin {
            ctx: Arc::new(QueryCtx {
                query,
                plan: base.plan.clone(),
                params: base.params.clone(),
                read_ts: 1,
            }),
            stage: 0,
            from: None,
        };
        const CYCLES: u64 = 100_000;
        for i in 1..=CYCLES {
            let q = QueryId(i);
            w.handle(begin(q));
            assert_eq!(w.pump(), PumpStatus::Idle);
            if i == 1 {
                // One burst, to grow a bucket well past what is kept.
                w.handle(WorkerMsg::Batch(vec![at_v0(1, 1); 8 * BUCKET_KEEP]));
                assert!(w.ring.capacity() >= 8 * BUCKET_KEEP);
            }
            w.handle(WorkerMsg::StartSource {
                query: q,
                pipeline: 0,
                weight: Weight::ROOT,
            });
            if i % 3 == 0 {
                w.handle(WorkerMsg::CancelQuery { query: q });
                w.handle(WorkerMsg::Batch(vec![at_v0(i, 1)]));
                w.handle(WorkerMsg::QueryEnd { query: q });
                while w.pump() == PumpStatus::Worked {}
                assert!(!w.holds(q), "cycle {i}: the cancelled query is held");
                assert_eq!(w.router.arena.live(), 0, "cycle {i}");
            } else {
                while w.pump() == PumpStatus::Worked {}
                w.handle(WorkerMsg::QueryEnd { query: q });
            }
        }
        assert!(w.queries.is_empty());
        assert!(w.ring.is_empty());
        assert!(w.idle.is_empty());
        assert!((1..=FREE_KEEP).contains(&w.ring.free_queues()));
        assert!(
            w.ring.capacity() <= 2 * BUCKET_KEEP,
            "bucket storage a burst grew is given back: {} entries held",
            w.ring.capacity()
        );
        assert_eq!(w.router.arena.live(), 0);
        assert_eq!(w.dead.set.len(), DEAD_WINDOW);
        assert_eq!(w.dead.order.len(), DEAD_WINDOW);
        assert!(w.dead.contains(QueryId(CYCLES)));
        assert!(w.dead.contains(QueryId(CYCLES - DEAD_WINDOW as u64 + 1)));
        assert!(!w.dead.contains(QueryId(CYCLES - DEAD_WINDOW as u64)));
        // Re-beginning a remembered id forgets it without leaving a stale
        // eviction entry behind.
        w.handle(begin(QueryId(CYCLES)));
        assert!(!w.dead.contains(QueryId(CYCLES)));
        assert_eq!(w.dead.order.len(), DEAD_WINDOW - 1);
    }

    #[test]
    fn query_end_purges_queued_traversers_of_that_query_only() {
        let (mut w, _fabric, _wrx) = test_worker();
        let ctx5 = ctx_for(&w);
        let ctx6 = ctx_with(&w, 6);
        w.handle(WorkerMsg::QueryBegin {
            ctx: ctx5,
            stage: 0,
            from: None,
        });
        w.handle(WorkerMsg::QueryBegin {
            ctx: ctx6,
            stage: 0,
            from: None,
        });
        w.handle(WorkerMsg::Batch(vec![at_v0(5, 1), at_v0(6, 2)]));
        assert_eq!(w.ring.len(), 2);
        w.handle(WorkerMsg::QueryEnd { query: QueryId(5) });
        assert_eq!(w.ring.len(), 1);
        // The purged query's arena slot and record are gone too.
        assert_eq!(w.router.arena.live(), 1);
        assert!(!w.holds(QueryId(5)));
        assert_eq!(stage_next(&mut w), Some(QueryId(6)));
    }

    /// The query is the scheduling scope: a three-traverser query admitted
    /// behind 10 000 queued traversers of another is served within two
    /// quanta, and its progress report reaches the coordinator at the end
    /// of that pump — while the long query still has work queued and has
    /// reported nothing.
    #[test]
    fn short_query_is_served_and_reported_beside_a_long_one() {
        let (mut w, _fabric, _wrx, crx) = test_worker_with_coord();
        for q in [5, 6] {
            w.handle(WorkerMsg::QueryBegin {
                ctx: ctx_with(&w, q),
                stage: 0,
                from: None,
            });
        }
        w.handle(WorkerMsg::Batch(vec![at_v0(5, 1); 10_000]));
        assert_eq!(w.pump(), PumpStatus::Worked);
        w.handle(WorkerMsg::Batch(vec![at_v0(6, 7); 3]));
        // One quantum of the long query (it was first in the ring), then
        // the short one's.
        assert_eq!(w.pump(), PumpStatus::Worked);
        assert!(progress_at(&crx).is_empty());
        assert_eq!(w.pump(), PumpStatus::Worked);
        assert_eq!(progress_at(&crx), vec![(6, 21)]);
        assert!(w.ring.len() > 9_000, "{} still queued", w.ring.len());
        // The long query reports once, when it too has drained.
        while w.pump() == PumpStatus::Worked {}
        assert_eq!(progress_at(&crx), vec![(5, 10_000)]);
        assert_eq!(w.router.arena.live(), 0);
    }

    /// With one query in flight "the query is idle here" and "the worker
    /// is idle" are the same event: one report per drain of the queue,
    /// none while work remains, none from a pump that found nothing to do.
    #[test]
    fn single_query_reports_once_per_worker_idle() {
        let (mut w, _fabric, _wrx, crx) = test_worker_with_coord();
        w.handle(WorkerMsg::QueryBegin {
            ctx: ctx_for(&w),
            stage: 0,
            from: None,
        });
        for wave in [300, 5] {
            w.handle(WorkerMsg::Batch(vec![at_v0(5, 2); wave]));
            while !w.ring.is_empty() {
                assert!(progress_at(&crx).is_empty(), "reported with work queued");
                assert_eq!(w.pump(), PumpStatus::Worked);
            }
            assert_eq!(progress_at(&crx), vec![(5, 2 * wave as u64)]);
            assert_eq!(w.pump(), PumpStatus::Idle);
            assert!(progress_at(&crx).is_empty());
        }
    }

    /// Duplicated control traffic (dup faults, replays) re-delivers
    /// `QueryBegin` mid-query: the query keeps the queue it has.
    #[test]
    fn duplicate_query_begin_keeps_queued_traversers() {
        let (mut w, _fabric, _wrx, crx) = test_worker_with_coord();
        let begin = |w: &mut Worker| {
            w.handle(WorkerMsg::QueryBegin {
                ctx: ctx_for(w),
                stage: 0,
                from: None,
            })
        };
        begin(&mut w);
        w.handle(WorkerMsg::Batch(vec![at_v0(5, 1); 100]));
        assert_eq!(w.pump(), PumpStatus::Worked);
        let queued = w.ring.len();
        assert!(queued > 0);
        begin(&mut w);
        assert_eq!((w.ring.len(), w.router.arena.live()), (queued, queued));
        while w.pump() == PumpStatus::Worked {}
        assert_eq!(progress_at(&crx), vec![(5, 100)]);
        assert_eq!(w.router.arena.live(), 0);
    }

    /// `QueryEnd` and `CancelQuery` retire one query's queue: its arena
    /// slots are freed and its weight refunded, and every other query keeps
    /// its entries, its slots and its turn in the ring.
    #[test]
    fn ending_or_cancelling_a_query_leaves_the_others_untouched() {
        let (mut w, _fabric, _wrx, crx) = test_worker_with_coord();
        for q in 5..=8 {
            w.handle(WorkerMsg::QueryBegin {
                ctx: ctx_with(&w, q),
                stage: 0,
                from: None,
            });
            w.handle(WorkerMsg::Batch(vec![at_v0(q, q); q as usize]));
        }
        assert_eq!((w.ring.len(), w.router.arena.live()), (26, 26));
        w.handle(WorkerMsg::QueryEnd { query: QueryId(6) });
        assert_eq!((w.ring.len(), w.router.arena.live()), (20, 20));
        w.handle(WorkerMsg::CancelQuery { query: QueryId(7) });
        assert_eq!((w.ring.len(), w.router.arena.live()), (13, 13));
        // The ended query's traversers are dropped, the cancelled query's
        // refunded in one report; the two survivors fit one quantum and run
        // whole, 5 still ahead of 8.
        assert_eq!(w.pump(), PumpStatus::Worked);
        assert_eq!(progress_at(&crx), vec![(7, 49), (5, 25), (8, 64)]);
        assert_eq!(w.router.arena.live(), 0);
        assert_eq!(w.ring.free_queues(), 2);
    }

    /// A decoded traverser can carry any `u32` depth. The queue must take
    /// it without sizing anything by the depth (the pop order at such
    /// depths is `run_queue`'s own test).
    #[test]
    fn hostile_depths_are_queued_without_resizing() {
        let (mut w, _fabric, _wrx) = test_worker();
        w.handle(WorkerMsg::QueryBegin {
            ctx: ctx_for(&w),
            stage: 0,
            from: None,
        });
        let deep = |depth, weight| Traverser {
            depth,
            ..at_v0(5, weight)
        };
        w.handle(WorkerMsg::Batch(vec![
            deep(u32::MAX, 1),
            deep(crate::run_queue::DENSE_DEPTHS as u32 + 1, 2),
            deep(1, 3),
        ]));
        assert_eq!(w.ring.len(), 3);
        assert!(w.ring.capacity() < 64, "{} entries", w.ring.capacity());
        // They run like any others; a child one hop past `u32::MAX`
        // saturates instead of wrapping to the front of the queue.
        while w.pump() == PumpStatus::Worked {}
        assert!(w.ring.is_empty());
        assert_eq!(w.router.arena.live(), 0);
    }
}
