//! The query coordinator.
//!
//! Runs on node 0. Handles submissions, starts stage sources, tracks scope
//! completion via the weight mechanism, merges aggregation partials as
//! they arrive (Fig. 6), seeds inter-stage `PrevRows` sources, and
//! responds to clients. The coordinator is also the central progress
//! tracker of §IV-A — workers talk to it through the same network fabric
//! as all other traffic, so tracker load is measured realistically. It
//! never broadcasts: a query's context, stage advances, cancel and end go
//! only to the workers it sent the query's work to (DESIGN.md §IV-A).
//!
//! Progress (§IV-A): each worker sums the weights of the traversers that
//! finish on it and reports the coalesced sum per flush (**weight
//! coalescing**; without it every finished weight is its own report — the
//! cost Fig. 10/11 quantify). The coordinator adds the reports into the
//! query's [`WeightAccumulator`], reset at every stage; the stage's scope
//! is complete exactly when the wrapping sum lands on
//! [`Weight::ROOT`](graphdance_pstm::Weight::ROOT) (false-positive
//! probability ≤ (n−1)/2⁶⁴, Theorem 1).
//!
//! The coordinator has no thread. The threaded runtime keeps it in its
//! fabric's [`CoordSlot`], and whichever thread just put a message in its
//! inbox — a client submitting or cancelling, a worker whose flush carried
//! progress, an ingress or socket reader thread — runs it there
//! ([`CoordSlot::drive`]); a timer drives it every [`TICK`] for deadlines
//! and the watchdog. The simulator pumps it directly as one of its actors.

use std::sync::OnceLock;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use graphdance_common::time::now;

use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use parking_lot::Mutex;
use rand::rngs::SmallRng;

use graphdance_common::{FxHashMap, GdError, GdResult, NodeId, QueryId, Value, WorkerId};
use graphdance_pstm::{AggState, Row, SourceStart, WeightAccumulator};
use graphdance_query::plan::Plan;
use graphdance_storage::{Graph, Timestamp};

use crate::config::EngineConfig;
use crate::engine::QueryResult;
use crate::invariants::MsgLedger;
use crate::messages::{CoordMsg, QueryCtx, QueryScope, ReplySink, WorkerMsg};
use crate::net::{Fabric, Outbox, WireMsg};
use crate::worker::PumpStatus;

use std::sync::Arc;

/// How often the head's timer drives the coordinator: the granularity of
/// query deadlines and of the liveness watchdog when no message arrives.
pub const TICK: Duration = Duration::from_millis(20);

struct QueryState {
    ctx: Arc<QueryCtx>,
    stage: u16,
    /// The running stage's progress reports, summed.
    progress: WeightAccumulator,
    steps_executed: u64,
    rows: Vec<Row>,
    /// The running stage's aggregation partials, merged as they arrive.
    agg: Option<AggState>,
    prev_rows: Vec<Row>,
    /// The workers this coordinator introduced the query to.
    scope: QueryScope,
    reply: ReplySink,
    submitted_at: Instant,
    deadline: Instant,
    /// Last time any worker message arrived for this query (drives the
    /// liveness watchdog).
    last_activity: Instant,
    /// Set by `CoordMsg::Cancel`: the drain protocol is running. Workers
    /// are purging and refunding this query's weight; when `progress`
    /// lands on `Weight::ROOT` the query finishes with `QueryCancelled`
    /// instead of advancing stages (DESIGN.md §13).
    cancelled: bool,
}

/// A destructured `CoordMsg::Submit` (bundled so `submit` keeps a short
/// signature).
struct Submission {
    query: QueryId,
    plan: Plan,
    params: Vec<Value>,
    read_ts: Option<Timestamp>,
    reply: ReplySink,
    submitted_at: Instant,
    deadline: Option<Instant>,
}

/// The coordinator's state: run by whichever thread drives it
/// ([`CoordSlot::drive`]), or pumped by the simulator.
pub struct Coordinator {
    graph: Graph,
    fabric: Arc<Fabric>,
    inbox: Receiver<CoordMsg>,
    outbox: Outbox,
    queries: FxHashMap<QueryId, QueryState>,
    rng: SmallRng,
    timeout: Duration,
    watchdog_stall: Duration,
    /// Stage-transition instrumentation (span sink + seeding spans).
    #[cfg(feature = "obs")]
    obs: crate::obs::CoordObs,
}

impl Coordinator {
    /// Build the coordinator (call from the engine).
    pub fn new(
        graph: Graph,
        fabric: &Arc<Fabric>,
        inbox: Receiver<CoordMsg>,
        config: &EngineConfig,
    ) -> Self {
        Coordinator {
            graph,
            fabric: Arc::clone(fabric),
            inbox,
            outbox: fabric.outbox(NodeId(0)),
            queries: FxHashMap::default(),
            rng: graphdance_common::rng::derive(config.seed, u64::MAX),
            timeout: config.query_timeout,
            watchdog_stall: config.watchdog_stall,
            #[cfg(feature = "obs")]
            obs: crate::obs::CoordObs::new(fabric),
        }
    }

    /// Hand this coordinator to the threads of its fabric: from now on a
    /// thread that sends it a message runs it ([`Fabric::drive_coordinator`]),
    /// and a timer thread drives it every [`TICK`]. Send on (or drop) the
    /// returned sender to stop the timer, then join the handle.
    pub fn host(self) -> (Sender<()>, JoinHandle<()>) {
        let fabric = Arc::clone(&self.fabric);
        fabric.coordinator.host(self);
        let (wake, wake_rx) = unbounded::<()>();
        let timer = std::thread::Builder::new()
            .name("gd-coord-timer".into())
            .spawn(move || {
                while let Err(RecvTimeoutError::Timeout) = wake_rx.recv_timeout(TICK) {
                    fabric.coordinator.drive();
                }
            })
            // Startup, before any query: an unusable process, not a wedged query.
            .expect("spawn coordinator timer"); // lint: allow(hot-path-panics)
        (wake, timer)
    }

    /// One non-blocking scheduling quantum: drain every queued message and
    /// enforce timers. Used directly by the deterministic simulator and by
    /// [`CoordSlot::drive`].
    pub fn pump(&mut self) -> PumpStatus {
        let mut worked = false;
        loop {
            match self.inbox.try_recv() {
                Ok(CoordMsg::Shutdown) => {
                    self.fail_all(GdError::EngineClosed);
                    return PumpStatus::Stopped;
                }
                Ok(msg) => {
                    self.handle(msg);
                    worked = true;
                }
                Err(_) => break,
            }
        }
        worked |= self.enforce_deadlines() > 0;
        // What the quantum buffered — `QueryEnd`s above all — leaves now.
        self.outbox.flush_all();
        if worked {
            PumpStatus::Worked
        } else {
            PumpStatus::Idle
        }
    }

    /// Is a quantum worth scheduling — queued messages, or a timer that has
    /// already expired under the current clock?
    pub fn has_work(&self) -> bool {
        !self.inbox.is_empty() || self.next_timer().is_some_and(|t| t <= now())
    }

    /// The earliest instant at which a timer fires: a query deadline, or —
    /// when the conservation ledger shows an imbalance — the liveness
    /// watchdog for a stalled query. The simulator advances its virtual
    /// clock here when the cluster is otherwise blocked.
    pub fn next_timer(&self) -> Option<Instant> {
        let mut next: Option<Instant> = None;
        let mut fold = |t: Instant| match next {
            Some(cur) if cur <= t => {}
            _ => next = Some(t),
        };
        for (q, s) in &self.queries {
            fold(s.deadline);
            if MsgLedger::ENABLED
                && !self.fabric.invariants().is_local()
                && self.fabric.invariants().has_imbalance(*q)
            {
                fold(s.last_activity + self.watchdog_stall);
            }
        }
        next
    }

    fn handle(&mut self, msg: CoordMsg) {
        match msg {
            CoordMsg::Submit {
                query,
                plan,
                params,
                read_ts,
                reply,
                submitted_at,
                deadline,
            } => {
                self.submit(Submission {
                    query,
                    plan,
                    params,
                    read_ts,
                    reply,
                    submitted_at,
                    deadline,
                });
            }
            CoordMsg::Cancel { query } => {
                self.cancel(query);
            }
            CoordMsg::Progress {
                query,
                weight,
                steps,
            } => {
                // Reports for a query no longer here (finished, failed or
                // never seen) are stragglers and change nothing.
                if let Some(s) = self.queries.get_mut(&query) {
                    s.steps_executed += steps;
                    s.last_activity = now();
                    s.progress.add(weight);
                    if s.progress.is_complete() {
                        self.stage_complete(query);
                    }
                }
            }
            CoordMsg::Rows { query, rows } => {
                if let Some(s) = self.queries.get_mut(&query) {
                    s.last_activity = now();
                    // A cancelled query's rows are discarded — its client
                    // already stopped caring — but the report still counts
                    // as activity for the watchdog.
                    if !s.cancelled {
                        s.rows.extend(rows);
                    }
                }
            }
            CoordMsg::AggPartial { query, state } => {
                self.agg_partial(query, state);
            }
            CoordMsg::WorkerError { query, error } => {
                self.finish(query, Err(error));
            }
            CoordMsg::BspStepDone { .. } => {
                // BSP control traffic is only meaningful to the BSP driver.
            }
            // `pump` stops on Shutdown before dispatching here.
            CoordMsg::Shutdown => unreachable!("handled in pump()"), // lint: allow(hot-path-panics)
        }
    }

    fn submit(&mut self, sub: Submission) {
        let Submission {
            query,
            plan,
            params,
            read_ts,
            reply,
            submitted_at,
            deadline,
        } = sub;
        if let Err(e) = plan.check_call(&params) {
            reply.complete(Err(e));
            return;
        }
        if self.queries.contains_key(&query) {
            reply.complete(Err(GdError::Internal(format!(
                "duplicate query id {query:?} submitted"
            ))));
            return;
        }
        let ctx = Arc::new(QueryCtx {
            query,
            plan,
            params,
            read_ts: read_ts.unwrap_or(graphdance_storage::TS_LIVE - 1),
        });
        let deadline = deadline.unwrap_or(submitted_at + self.timeout);
        self.queries.insert(
            query,
            QueryState {
                ctx,
                stage: 0,
                progress: WeightAccumulator::new(),
                steps_executed: 0,
                rows: Vec::new(),
                agg: None,
                prev_rows: Vec::new(),
                scope: QueryScope::default(),
                reply,
                submitted_at,
                deadline,
                last_activity: now(),
                cancelled: false,
            },
        );
        // No worker hears of the query before its first work: each is
        // introduced on the lane that carries it (`introduce`).
        self.start_stage(query);
    }

    /// Send a per-query control message to worker `dest`, noting it in the
    /// `(query, stage)` trace span when `obs` is on.
    #[cfg_attr(not(feature = "obs"), allow(unused_variables))]
    fn send_ctrl(&mut self, query: QueryId, stage: u16, dest: WorkerId, msg: WorkerMsg) {
        let msg = WireMsg::Worker { dest, msg };
        #[cfg(feature = "obs")]
        self.obs.ctrl_sent(query, stage, &msg);
        self.outbox.send(msg);
    }

    /// Send `msg(query)` to every worker this coordinator introduced the
    /// query to (rules 2 and 3: they pass it on to the ones they did).
    fn send_to_introduced(&mut self, query: QueryId, msg: impl Fn() -> WorkerMsg) {
        let Some(state) = self.queries.get(&query) else {
            return;
        };
        let (stage, dests): (u16, Vec<WorkerId>) =
            (state.stage, state.scope.introduced.iter().collect());
        for dest in dests {
            self.send_ctrl(query, stage, dest, msg());
        }
    }

    /// Begin the cancellation drain protocol for `query` (no-op if the
    /// query already finished or was never seen). Workers purge the
    /// query's queued traversers and refund their weight as ordinary
    /// `Progress`; when the tracker's wrapping sum lands on `Weight::ROOT`
    /// the query finishes with `QueryCancelled` — through the same quiesce
    /// check as a successful result, so a leaky teardown is an
    /// `InvariantViolation`, never silence.
    fn cancel(&mut self, query: QueryId) {
        let Some(state) = self.queries.get_mut(&query) else {
            return;
        };
        if state.cancelled {
            return;
        }
        state.cancelled = true;
        state.last_activity = now();
        self.send_to_introduced(query, || WorkerMsg::CancelQuery { query });
    }

    /// Launch the current stage's sources for `query`
    /// ([`Interpreter::start_sources`](graphdance_pstm::Interpreter::start_sources)).
    fn start_stage(&mut self, query: QueryId) {
        let Some(state) = self.queries.get_mut(&query) else {
            return;
        };
        let (ctx, stage) = (Arc::clone(&state.ctx), state.stage);
        let prev_rows = std::mem::take(&mut state.prev_rows);
        state.progress = WeightAccumulator::new();
        #[cfg(feature = "obs")]
        self.obs.stage_begin(query, stage);
        let scope = &mut state.scope;
        let interp = ctx.interpreter(&self.graph, stage);
        let started = interp.start_sources(&prev_rows, &mut self.rng, |dest, start| {
            // Rule 1 (DESIGN.md §IV-A): unless this coordinator already
            // introduced the query to `dest`, the `QueryBegin` — context
            // and current stage — goes first on the same lane.
            let begin = scope.introduce(dest).then(|| WorkerMsg::QueryBegin {
                ctx: Arc::clone(&ctx),
                stage,
                from: None,
            });
            let (source, seed) = match start {
                SourceStart::Source { pipeline, weight } => {
                    let source = WorkerMsg::StartSource {
                        query,
                        pipeline,
                        weight,
                    };
                    (Some(source), None)
                }
                SourceStart::Seed(t) => (None, Some(t)),
            };
            for msg in begin.into_iter().chain(source) {
                let msg = WireMsg::Worker { dest, msg };
                #[cfg(feature = "obs")]
                self.obs.ctrl_sent(query, stage, &msg);
                self.outbox.send(msg);
            }
            if let Some(t) = seed {
                let _bytes = self.outbox.send_traverser(dest, t);
                #[cfg(feature = "obs")]
                self.obs.seed_sent(query, stage, dest.0, _bytes as u64);
            }
        });
        match started {
            // Weight the sources finished on the spot reports like any other.
            Ok(finished) => {
                state.progress.add(finished);
                if state.progress.is_complete() {
                    self.stage_complete(query);
                }
            }
            Err(e) => self.finish(query, Err(e)),
        }
    }

    /// The running stage's scope just terminated: every partial and row of
    /// the stage is in (each travelled ahead of the weight that accounts
    /// for it), so finalize the aggregate or wrap up the rows.
    fn stage_complete(&mut self, query: QueryId) {
        let Some(state) = self.queries.get_mut(&query) else {
            return;
        };
        if state.cancelled {
            // The drain finished: every outstanding weight share (executed
            // or refunded) has reported back. Tear down instead of
            // advancing.
            self.finish(query, Err(GdError::QueryCancelled(query)));
            return;
        }
        let rows = match &state.ctx.plan.stages[state.stage as usize].agg {
            Some(agg) => (state.agg.take())
                .unwrap_or_else(|| AggState::new(&agg.func))
                .finalize(&agg.func),
            None => std::mem::take(&mut state.rows),
        };
        self.advance_stage(query, rows);
    }

    /// Merge one worker's partial into the running stage's aggregate (rule
    /// 4). A cancelled query's partials are discarded like its rows.
    fn agg_partial(&mut self, query: QueryId, partial: Option<Box<AggState>>) {
        let Some(qs) = self.queries.get_mut(&query) else {
            return;
        };
        qs.last_activity = now();
        let (Some(p), false) = (partial, qs.cancelled) else {
            return;
        };
        let merged = match (&mut qs.agg, &qs.ctx.plan.stages[qs.stage as usize].agg) {
            (_, None) => Err(GdError::Internal(format!(
                "aggregation partial for non-aggregating stage {}",
                qs.stage
            ))),
            (None, Some(_)) => {
                qs.agg = Some(*p);
                Ok(())
            }
            (Some(m), Some(agg)) => m.merge(&agg.func, *p),
        };
        if let Err(e) = merged {
            self.finish(query, Err(e));
        }
    }

    /// The stage produced `rows`; either respond or start the next stage.
    fn advance_stage(&mut self, query: QueryId, rows: Vec<Row>) {
        let Some(state) = self.queries.get_mut(&query) else {
            return;
        };
        let last = state.stage as usize + 1 >= state.ctx.plan.stages.len();
        #[cfg(feature = "obs")]
        self.obs.stage_end(query, state.stage);
        if last {
            // Via `now()`, not `Instant::elapsed`, so simulated runs report
            // virtual latency.
            let latency = now().saturating_duration_since(state.submitted_at);
            let steps_executed = state.steps_executed;
            self.finish(
                query,
                Ok(QueryResult {
                    query,
                    rows,
                    latency,
                    steps_executed,
                }),
            );
        } else {
            state.stage += 1;
            state.prev_rows = rows;
            state.rows.clear();
            let next = state.stage;
            // Rule 2: the advance precedes the stage's first work on every
            // lane this coordinator introduced the query on.
            self.send_to_introduced(query, || WorkerMsg::StageBegin { query, stage: next });
            self.start_stage(query);
        }
    }

    /// Respond to the client and release all query state. Successful
    /// results first pass the message-conservation quiesce check (debug
    /// builds): at completion every sent traverser must have been
    /// delivered, else the result is replaced by the ledger's diagnostic.
    fn finish(&mut self, query: QueryId, result: GdResult<QueryResult>) {
        let result = match result {
            // A cancelled teardown must quiesce as cleanly as a successful
            // completion: the drain refunded every in-flight weight share,
            // so every sent traverser message must also have been
            // delivered. A leak here is an engine bug, not a cancellation.
            // Only meaningful when this process's ledger sees both sides
            // of every send (see [`MsgLedger::is_local`]).
            Ok(_) | Err(GdError::QueryCancelled(_)) if !self.fabric.invariants().is_local() => {
                match self.fabric.invariants().check_quiesced(query) {
                    Ok(()) => result,
                    Err(diag) => Err(GdError::InvariantViolation(diag)),
                }
            }
            other => other,
        };
        // Capture ledger counts before `forget` wipes them; workers seal the
        // trace when their QueryEnd (sent below) arrives.
        #[cfg(feature = "obs")]
        {
            if let Some(state) = self.queries.get(&query) {
                let counts = self.fabric.invariants().counts(query);
                let total_ns = now()
                    .saturating_duration_since(state.submitted_at)
                    .as_nanos() as u64;
                self.obs
                    .query_done(query, total_ns, counts.sent, counts.delivered);
            } else {
                self.obs.forget(query);
            }
        }
        // Rule 3: the end goes to the workers this coordinator introduced,
        // buffered — it leaves with this pump's closing flush — and they
        // pass it on. A query finished before is not ended twice.
        if let Some(state) = self.queries.remove(&query) {
            for dest in state.scope.introduced.iter() {
                self.outbox
                    .send_ctrl_worker(dest, WorkerMsg::QueryEnd { query });
            }
            state.reply.complete(result);
        }
        // A per-process ledger is one half of a sum whose other halves sit
        // in the peer processes, which never learn when to forget: keep it,
        // so the halves still add up after the query (debug builds only).
        if !self.fabric.invariants().is_local() {
            self.fabric.invariants().forget(query);
        }
    }

    /// Deadline enforcement plus the liveness watchdog: a query that made
    /// no progress for `watchdog_stall` *and* shows undelivered traverser
    /// messages in the conservation ledger will never complete — fail it
    /// immediately with the ledger dump instead of hanging until the
    /// deadline. Returns how many queries were failed.
    fn enforce_deadlines(&mut self) -> usize {
        let now = now();
        let mut timed_out = Vec::new();
        let mut stalled = Vec::new();
        for (q, s) in &self.queries {
            if now >= s.deadline {
                timed_out.push(*q);
            } else if MsgLedger::ENABLED
                && !self.fabric.invariants().is_local()
                && now.duration_since(s.last_activity) >= self.watchdog_stall
                && self.fabric.invariants().has_imbalance(*q)
            {
                stalled.push(*q);
            }
        }
        let fired = timed_out.len() + stalled.len();
        for q in timed_out {
            self.finish(q, Err(GdError::QueryTimeout(q)));
        }
        for q in stalled {
            let diag = self.fabric.invariants().dump(
                q,
                "liveness watchdog fired: query stalled with undelivered traverser message(s)",
            );
            self.finish(q, Err(GdError::InvariantViolation(diag)));
        }
        fired
    }

    fn fail_all(&mut self, err: GdError) {
        let qids: Vec<QueryId> = self.queries.keys().copied().collect();
        for q in qids {
            if let Some(state) = self.queries.remove(&q) {
                state.reply.complete(Err(err.clone()));
            }
            self.fabric.invariants().forget(q);
            #[cfg(feature = "obs")]
            self.obs.forget(q);
        }
        // Submissions that raced the stop (queued behind `Shutdown`, or
        // dispatched by a sink run just above) fail the same way rather
        // than sit unrun in a dead inbox.
        while let Ok(msg) = self.inbox.try_recv() {
            if let CoordMsg::Submit { reply, .. } = msg {
                reply.complete(Err(err.clone()));
            }
        }
    }
}

/// Where a threaded runtime keeps its coordinator: behind a lock that no
/// thread ever waits on. A thread that has just put a message in the
/// coordinator's inbox takes the lock if it is free and runs the
/// coordinator itself; if it is held, the holder runs the message. The
/// slot stays empty in the simulator (which pumps its coordinator as an
/// actor), in a follower process and under the BSP baseline (which reads
/// the inbox itself).
pub struct CoordSlot {
    // sync: only ever try-locked (`drive`). A driver that finds it held
    // leaves its message to the holder, which re-checks the inbox after
    // unlocking; the inbox is a mutex-guarded queue, so a message enqueued
    // before a failed try-lock is visible to that re-check.
    coord: OnceLock<Mutex<Option<Coordinator>>>,
    /// The inbox's sending half, kept to ask whether it is empty.
    inbox: Sender<CoordMsg>,
}

impl CoordSlot {
    /// An empty slot over the coordinator inbox `inbox` feeds.
    pub(crate) fn new(inbox: Sender<CoordMsg>) -> Self {
        CoordSlot {
            coord: OnceLock::new(),
            inbox,
        }
    }

    /// Put `coordinator` in the slot (once per fabric: a second one is
    /// dropped).
    fn host(&self, coordinator: Coordinator) {
        let _ = self.coord.set(Mutex::new(Some(coordinator)));
    }

    /// Does the inbox hold a message no one has taken yet?
    pub(crate) fn has_mail(&self) -> bool {
        !self.inbox.is_empty()
    }

    /// Run the coordinator on this thread: try-lock, pump, unlock, and go
    /// again while the inbox is not empty. A message is never left
    /// waiting: its sender drives, and either runs it or failed the
    /// try-lock while another thread held the slot, which sees it in its
    /// re-check after unlocking. Returns at once if the slot is held, empty
    /// or its coordinator stopped. Sinks run here, with the slot held, so
    /// call this only where the thread holds no lock a sink might take.
    pub(crate) fn drive(&self) {
        let Some(slot) = self.coord.get() else {
            return;
        };
        loop {
            let Some(mut held) = slot.try_lock() else {
                return;
            };
            let Some(coord) = held.as_mut() else {
                return;
            };
            if coord.pump() == PumpStatus::Stopped {
                // Dropping the coordinator drops its inbox's receiver, so a
                // later `Submit` is handed back to its sender instead of
                // queuing where no one reads.
                *held = None;
                return;
            }
            drop(held);
            if self.inbox.is_empty() {
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::ring;
    use crossbeam::channel::{bounded, unbounded};
    use graphdance_common::rng::seeded;
    use graphdance_common::{Partitioner, VertexId};
    use graphdance_pstm::Weight;
    use graphdance_query::expr::Expr;
    use graphdance_query::plan::{Pipeline, SourceSpec, Stage};

    fn pipeline(source: SourceSpec) -> Pipeline {
        Pipeline {
            source,
            steps: vec![],
        }
    }

    /// Stage 0 reads `$0`; stage 1 reads the previous rows *and* `$0`
    /// again, so it finishes part of its weight on the spot (no rows
    /// came in) and sends the rest to the worker.
    fn two_stage_plan() -> Plan {
        let stage = |pipelines| Stage {
            pipelines,
            joins: vec![],
            output: vec![Expr::VertexId],
            agg: None,
            num_slots: 0,
        };
        Plan {
            stages: vec![
                stage(vec![pipeline(SourceSpec::Param { param: 0 })]),
                stage(vec![
                    pipeline(SourceSpec::PrevRows {
                        vertex_col: 0,
                        seed: vec![],
                    }),
                    pipeline(SourceSpec::Param { param: 0 }),
                ]),
            ],
            num_params: 1,
        }
    }

    /// A bare coordinator on 1 × 1 with the worker's inbox in the test's
    /// hands: progress is injected by hand and each `StartSource` is read
    /// off the inbox. Each stage sums only its own reports, and a report
    /// that arrives after the query finished changes nothing.
    #[test]
    fn each_stage_sums_its_own_reports_and_stragglers_are_ignored() {
        let config = EngineConfig::new(1, 1);
        let (wtx, wrx) = unbounded();
        let (ctx, crx) = unbounded();
        let (fabric, _net) = Fabric::new_sim(&config, vec![wtx], ctx.clone());
        let graph = ring(4, Partitioner::new(1, 1));
        let mut coord = Coordinator::new(graph, &fabric, crx, &config);
        let q = QueryId(1);
        let (reply, rx) = bounded(1);
        let params = vec![Value::Vertex(VertexId(0))];
        crate::engine::send_submit(&ctx, q, two_stage_plan(), params, 1, None, reply.into());
        let report = |coord: &mut Coordinator, weight| {
            let progress = CoordMsg::Progress {
                query: q,
                weight,
                steps: 0,
            };
            ctx.send(progress).unwrap();
            coord.pump();
        };
        let start_weight = || {
            std::iter::from_fn(|| wrx.try_recv().ok())
                .find_map(|m| match m {
                    WorkerMsg::StartSource { weight, .. } => Some(weight),
                    _ => None,
                })
                .expect("a StartSource reached the worker")
        };
        coord.pump();

        // Stage 0: the source holds the whole root weight; its pieces add
        // up to completion only together.
        assert_eq!(start_weight(), Weight::ROOT);
        let pieces = Weight::ROOT.split(3, &mut seeded(7));
        report(&mut coord, pieces[0]);
        report(&mut coord, pieces[1]);
        assert_eq!(coord.queries[&q].stage, 0, "two of three pieces in");
        report(&mut coord, pieces[2]);

        // Stage 1 starts from zero: all it holds is what its `PrevRows`
        // source finished at once — the root minus what the worker got.
        let state = &coord.queries[&q];
        assert_eq!(state.stage, 1);
        let sent = start_weight();
        assert_eq!(
            state.progress.sum(),
            Weight::ROOT.sub(sent),
            "stage 0's sum leaked into stage 1"
        );
        assert!(rx.try_recv().is_err(), "not done before the worker reports");
        report(&mut coord, sent);
        let rows = rx.try_recv().expect("replied").expect("answered").rows;
        assert!(rows.is_empty());
        assert!(coord.queries.is_empty());

        // A straggler: reports and rows for the finished query neither
        // bring its state back nor reply twice.
        report(&mut coord, Weight::ROOT);
        ctx.send(CoordMsg::Rows {
            query: q,
            rows: vec![vec![Value::Vertex(VertexId(0))]],
        })
        .unwrap();
        coord.pump();
        assert!(coord.queries.is_empty(), "a straggler re-created the query");
        assert!(rx.try_recv().is_err(), "replied twice");
    }

    /// The drive protocol strands nothing: four threads each send 10 000
    /// messages and drive after every one, with no timer to pick up what
    /// a driver left behind. They go in rounds of ten, and between rounds,
    /// once every drive has returned, the inbox must be empty — a message
    /// left there would wait for the next sender, or forever. Each
    /// `Submit` lacks its parameter, so the coordinator resolves it the
    /// moment it reads it; the `Cancel` beside it comes too late and
    /// changes nothing. Two thousand queries opened first, whose worker
    /// never runs, stay open throughout — every pump checks their
    /// deadlines, which holds the slot past its inbox drain long enough
    /// for a sender to fail its try-lock there — until a `Shutdown` fails
    /// them. Every sink runs exactly once.
    #[test]
    fn drive_strands_no_message() {
        use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
        use std::sync::Barrier;
        const THREADS: u64 = 4;
        const PER_THREAD: u64 = 10_000;
        const ROUND: u64 = 10;
        const OPEN: u64 = 2_000;
        let config = EngineConfig::new(1, 1);
        let (wtx, _wrx) = unbounded();
        let (ctx, crx) = unbounded();
        let (fabric, _net) = Fabric::new_sim(&config, vec![wtx], ctx.clone());
        let graph = ring(4, Partitioner::new(1, 1));
        fabric
            .coordinator
            .host(Coordinator::new(graph, &fabric, crx, &config));
        let runs: Arc<Vec<AtomicU32>> = Arc::new(
            (0..THREADS * PER_THREAD + OPEN)
                .map(|_| AtomicU32::new(0))
                .collect(),
        );
        let tally =
            |runs: &Arc<Vec<AtomicU32>>, id: u64, want: fn(&GdResult<QueryResult>) -> bool| {
                let runs = Arc::clone(runs);
                ReplySink::new(move |result| {
                    if want(&result) {
                        // sync: test tally, read after the joins
                        runs[id as usize].fetch_add(1, Ordering::Relaxed);
                    }
                })
            };
        let params = vec![Value::Vertex(VertexId(0))];
        for id in THREADS * PER_THREAD..THREADS * PER_THREAD + OPEN {
            let closed = |r: &GdResult<QueryResult>| matches!(r, Err(GdError::EngineClosed));
            let sink = tally(&runs, id, closed);
            let plan = two_stage_plan();
            let query = QueryId(id + 1);
            crate::engine::send_submit(&ctx, query, plan, params.clone(), 1, None, sink);
        }
        fabric.drive_coordinator();
        let barrier = Arc::new(Barrier::new(THREADS as usize));
        // Not a panic inside the round: the other threads would wait at
        // the barrier forever.
        let stranded = Arc::new(AtomicBool::new(false));
        let senders: Vec<_> = (0..THREADS)
            .map(|t| {
                let (fabric, ctx) = (Arc::clone(&fabric), ctx.clone());
                let (runs, barrier, stranded) = (
                    Arc::clone(&runs),
                    Arc::clone(&barrier),
                    Arc::clone(&stranded),
                );
                std::thread::spawn(move || {
                    for i in 0..PER_THREAD {
                        let id = t * PER_THREAD + i;
                        let refused = |r: &GdResult<QueryResult>| {
                            matches!(r, Err(GdError::InvalidProgram(_)))
                        };
                        let sink = tally(&runs, id, refused);
                        let query = QueryId(id + 1);
                        let plan = two_stage_plan();
                        let undelivered =
                            crate::engine::send_submit(&ctx, query, plan, vec![], 1, None, sink);
                        assert!(undelivered.is_none(), "the coordinator is running");
                        fabric.drive_coordinator();
                        if i % 2 == 0 {
                            ctx.send(CoordMsg::Cancel { query }).unwrap();
                            fabric.drive_coordinator();
                        }
                        if (i + 1) % ROUND == 0 {
                            barrier.wait();
                            if t == 0 && fabric.coordinator.has_mail() {
                                // sync: test flag, read after the joins
                                stranded.store(true, Ordering::Relaxed);
                            }
                            barrier.wait();
                        }
                    }
                })
            })
            .collect();
        for s in senders {
            s.join().unwrap();
        }
        ctx.send(CoordMsg::Shutdown).unwrap();
        fabric.drive_coordinator();
        // sync: read after the joins
        assert!(
            !stranded.load(Ordering::Relaxed),
            "a round ended with a message stranded"
        );
        assert!(!fabric.coordinator.has_mail(), "a message was stranded");
        for (id, n) in runs.iter().enumerate() {
            // sync: read after the joins
            assert_eq!(n.load(Ordering::Relaxed), 1, "query {id}'s sink");
        }
    }
}
