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

use std::time::{Duration, Instant};

use graphdance_common::time::now;

use crossbeam::channel::Receiver;
use rand::rngs::SmallRng;

use graphdance_common::{
    FxHashMap, GdError, GdResult, NodeId, PartId, QueryId, Value, VertexId, WorkerId,
};
use graphdance_pstm::{AggState, Row, Weight};
use graphdance_query::plan::{Plan, SourceSpec};
use graphdance_storage::{Graph, Timestamp};

use crate::config::EngineConfig;
use crate::engine::QueryResult;
use crate::invariants::MsgLedger;
use crate::messages::{
    migration_qid, CoordMsg, MigPhase, QueryCtx, QueryScope, ReplySink, WorkerMsg,
};
use crate::net::{Fabric, Outbox, WireMsg};
use crate::progress::ProgressTracker;
use crate::rebalance::{plan_moves, RebalanceConfig};

use std::sync::Arc;

/// Simulated bookkeeping cost of one progress report at the centralized
/// tracker (queue handling + map update on a contended path).
const TRACKER_COST_PER_REPORT: Duration = Duration::from_nanos(900);

struct QueryState {
    ctx: Arc<QueryCtx>,
    stage: u16,
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
    /// are purging and refunding this query's weight; when the tracker
    /// lands on `Weight::ROOT` the query finishes with `QueryCancelled`
    /// instead of advancing stages (DESIGN.md §13).
    cancelled: bool,
}

/// Where one in-flight vertex migration stands (DESIGN.md §14). Every
/// transition is driven by a worker `MigrateAck`; dropped or duplicated
/// control messages therefore stall or re-fire a single migration — they
/// can never corrupt routing, because the routing table only changes at
/// the single `commit_move` call in `Installed`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum MigState {
    /// `MigrateFreeze` sent to the source; waiting for the destination's
    /// `Installed` ack (the source ships the segment directly).
    Freezing,
    /// Routing committed; `MigrateCommit` sent to arm the source's
    /// forwarding stub, waiting for `Committed`.
    Committing,
    /// Stub armed. Retire is gated: every active query must be pinned at
    /// or above `commit_version` before the frozen source copy may go.
    AwaitRetire,
    /// `MigrateRetire` sent; waiting for `Retired`.
    Retiring,
}

/// One in-flight vertex migration, keyed by its `seq`.
struct Migration {
    v: VertexId,
    from: PartId,
    to: PartId,
    state: MigState,
    /// Routing version this move committed at (0 until `Committing`).
    commit_version: u64,
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

/// The coordinator thread state.
pub struct Coordinator {
    graph: Graph,
    fabric: Arc<Fabric>,
    inbox: Receiver<CoordMsg>,
    outbox: Outbox,
    tracker: ProgressTracker,
    queries: FxHashMap<QueryId, QueryState>,
    rng: SmallRng,
    timeout: Duration,
    watchdog_stall: Duration,
    /// Whether this process's [`MsgLedger`] sees the whole cluster (see
    /// [`Fabric::ledger_is_global`]). In a multi-process cluster a send is
    /// recorded in the sender's ledger and its delivery in the receiver's,
    /// so per-process `sent == delivered` never holds mid-query — the
    /// watchdog and the quiesce check must stand down, and cross-node
    /// conservation is instead asserted by summing ledgers across
    /// processes (the transport conformance suite does exactly that).
    ledger_global: bool,
    /// In-flight vertex migrations keyed by sequence number.
    migrations: FxHashMap<u64, Migration>,
    next_mig_seq: u64,
    migs_done: u64,
    /// Dedicated stream for planner tie-breaking (never map iteration
    /// order), so rebalance plans replay bit-identically per seed.
    planner_rng: SmallRng,
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
            tracker: ProgressTracker::new(),
            queries: FxHashMap::default(),
            rng: graphdance_common::rng::derive(config.seed, u64::MAX),
            timeout: config.query_timeout,
            watchdog_stall: config.watchdog_stall,
            ledger_global: fabric.ledger_is_global(),
            migrations: FxHashMap::default(),
            next_mig_seq: 0,
            migs_done: 0,
            planner_rng: graphdance_common::rng::derive(
                config.seed,
                crate::rebalance::REBALANCE_STREAM,
            ),
            #[cfg(feature = "obs")]
            obs: crate::obs::CoordObs::new(fabric),
        }
    }

    /// Main loop; returns on `Shutdown`.
    pub fn run(mut self) {
        loop {
            match self.pump() {
                crate::worker::PumpStatus::Stopped => return,
                crate::worker::PumpStatus::Worked | crate::worker::PumpStatus::Idle => {}
            }
            // Block (bounded by the timer tick) for the next message; the
            // next pump drains it along with anything else queued.
            match self.inbox.recv_timeout(Duration::from_millis(20)) {
                Ok(CoordMsg::Shutdown) => {
                    self.fail_all(GdError::EngineClosed);
                    return;
                }
                Ok(msg) => self.handle(msg),
                Err(crossbeam::channel::RecvTimeoutError::Timeout) => {}
                Err(crossbeam::channel::RecvTimeoutError::Disconnected) => return,
            }
        }
    }

    /// One non-blocking scheduling quantum: drain every queued message and
    /// enforce timers. Used directly by the deterministic simulator and by
    /// [`Coordinator::run`].
    pub fn pump(&mut self) -> crate::worker::PumpStatus {
        let mut worked = false;
        loop {
            match self.inbox.try_recv() {
                Ok(CoordMsg::Shutdown) => {
                    self.fail_all(GdError::EngineClosed);
                    return crate::worker::PumpStatus::Stopped;
                }
                Ok(msg) => {
                    self.handle(msg);
                    worked = true;
                }
                Err(_) => break,
            }
        }
        worked |= self.enforce_deadlines() > 0;
        worked |= self.advance_migrations() > 0;
        // What the quantum buffered — `QueryEnd`s above all — leaves now.
        self.outbox.flush_all();
        if worked {
            crate::worker::PumpStatus::Worked
        } else {
            crate::worker::PumpStatus::Idle
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
                && self.ledger_global
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
                // The central tracker pays a per-report handling cost; with
                // weight coalescing the report count is tiny, without it
                // this serialized work is the bottleneck the paper measures
                // (§IV-A, Fig. 10/11).
                crate::net::charge(TRACKER_COST_PER_REPORT);
                if let Some(s) = self.queries.get_mut(&query) {
                    s.steps_executed += steps;
                    s.last_activity = now();
                }
                if self.tracker.report(query, weight) {
                    self.stage_complete(query);
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
            CoordMsg::Rebalance { moves } => {
                self.rebalance(moves);
            }
            CoordMsg::MigrateAck { seq, v, phase } => {
                self.migrate_ack(seq, v, phase);
            }
            CoordMsg::BspStepDone { .. } | CoordMsg::BspParked { .. } => {
                // BSP control traffic is only meaningful to the BSP driver.
            }
            CoordMsg::Tick => {}
            // The run() loop exits on Shutdown before dispatching here.
            CoordMsg::Shutdown => unreachable!("handled in run()"), // lint: allow(hot-path-panics)
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
        if let Err(e) = plan.validate() {
            reply.complete(Err(GdError::InvalidProgram(e)));
            return;
        }
        if params.len() < plan.num_params {
            reply.complete(Err(GdError::InvalidProgram(format!(
                "plan needs {} params, got {}",
                plan.num_params,
                params.len()
            ))));
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
            routing_version: self.graph.routing_version(),
        });
        let deadline = deadline.unwrap_or(submitted_at + self.timeout);
        self.queries.insert(
            query,
            QueryState {
                ctx,
                stage: 0,
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

    /// Rule 1 (DESIGN.md §IV-A): the query's work is about to go to
    /// `dest`. Unless this coordinator already introduced it there, send
    /// the `QueryBegin` — context and current stage — on the same lane
    /// first.
    fn introduce(&mut self, query: QueryId, dest: WorkerId) {
        let Some(state) = self.queries.get_mut(&query) else {
            return;
        };
        if !state.scope.introduce(dest) {
            return;
        }
        let (ctx, stage) = (Arc::clone(&state.ctx), state.stage);
        let begin = WorkerMsg::QueryBegin {
            ctx,
            stage,
            from: None,
        };
        self.send_ctrl(query, stage, dest, begin);
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

    /// Launch the current stage's sources for `query`.
    fn start_stage(&mut self, query: QueryId) {
        let Some(state) = self.queries.get_mut(&query) else {
            return;
        };
        let stage_idx = state.stage as usize;
        let ctx = Arc::clone(&state.ctx);
        let prev_rows = std::mem::take(&mut state.prev_rows);
        self.tracker.begin_stage(query);
        #[cfg(feature = "obs")]
        self.obs.stage_begin(query, stage_idx as u16);

        let stage = &ctx.plan.stages[stage_idx];
        let parts: Vec<PartId> = self.fabric.partitioner().parts().collect();
        let pipe_weights = Weight::ROOT.split(stage.pipelines.len(), &mut self.rng);
        let mut immediate = Weight::ZERO;
        for (pi, pw) in pipe_weights.into_iter().enumerate() {
            match &stage.pipelines[pi].source {
                SourceSpec::Param { param } => {
                    match ctx.params.get(*param).and_then(Value::as_vertex) {
                        Some(v) => {
                            // Route by the query's pinned routing version,
                            // not the raw hash — `v` may have migrated.
                            let owner = self.graph.worker_of_at(v, ctx.routing_version);
                            self.introduce(query, owner);
                            let start = WorkerMsg::StartSource {
                                query,
                                pipeline: pi as u16,
                                weight: pw,
                            };
                            self.send_ctrl(query, stage_idx as u16, owner, start);
                        }
                        None => {
                            self.finish(
                                query,
                                Err(GdError::InvalidProgram(format!(
                                    "param {param} is not a vertex id"
                                ))),
                            );
                            return;
                        }
                    }
                }
                SourceSpec::IndexLookup { .. } | SourceSpec::ScanLabel { .. } => {
                    let shares = pw.split(parts.len(), &mut self.rng);
                    for (p, w) in parts.iter().zip(shares) {
                        let dest = self.fabric.partitioner().worker_of_part(*p);
                        self.introduce(query, dest);
                        let start = WorkerMsg::StartSource {
                            query,
                            pipeline: pi as u16,
                            weight: w,
                        };
                        self.send_ctrl(query, stage_idx as u16, dest, start);
                    }
                }
                SourceSpec::PrevRows { .. } => {
                    let interp = ctx.interpreter(&self.graph, stage_idx as u16);
                    match interp.seed_prev_rows(pi as u16, &prev_rows, pw, &mut self.rng) {
                        Ok(out) => {
                            for (dest, t) in out.spawned {
                                let w = self.fabric.partitioner().worker_of_part(dest);
                                self.introduce(query, w);
                                #[cfg(feature = "obs")]
                                self.obs.seed_sent(
                                    query,
                                    stage_idx as u16,
                                    w.0,
                                    t.wire_bytes() as u64,
                                );
                                self.outbox.send_traverser(w, t);
                            }
                            immediate.absorb(out.finished);
                        }
                        Err(e) => {
                            self.finish(query, Err(e));
                            return;
                        }
                    }
                }
            }
        }
        if immediate != Weight::ZERO && self.tracker.report(query, immediate) {
            self.stage_complete(query);
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
            // of every send (see the `ledger_global` field docs).
            Ok(_) | Err(GdError::QueryCancelled(_)) if self.ledger_global => {
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
        self.tracker.finish_query(query);
        // A per-process ledger is one half of a sum whose other halves sit
        // in the peer processes, which never learn when to forget: keep it,
        // so the halves still add up after the query (debug builds only).
        if self.ledger_global {
            self.fabric.invariants().forget(query);
        }
        // Query completion raises the minimum pinned routing version, which
        // can unblock retire-gated migrations.
        self.advance_migrations();
    }

    /// Start the requested vertex migrations. An empty `moves` list asks
    /// the coordinator to plan from the fabric's hot-vertex sketch (the
    /// query-driven refinement path); an explicit list is the sim/test
    /// path. Vertices already home or already mid-migration are skipped.
    fn rebalance(&mut self, moves: Vec<(VertexId, PartId)>) {
        let moves = if moves.is_empty() {
            let hot = self.fabric.hot_tracker().drain();
            plan_moves(
                hot,
                &self.graph,
                &RebalanceConfig::default(),
                &mut self.planner_rng,
            )
        } else {
            moves
        };
        for (v, to) in moves {
            let from = self.graph.part_of(v);
            if from == to || self.migrations.values().any(|m| m.v == v) {
                continue;
            }
            let seq = self.next_mig_seq;
            self.next_mig_seq += 1;
            self.migrations.insert(
                seq,
                Migration {
                    v,
                    from,
                    to,
                    state: MigState::Freezing,
                    commit_version: 0,
                },
            );
            let src = self.fabric.partitioner().worker_of_part(from);
            self.outbox
                .send_ctrl_worker(src, WorkerMsg::MigrateFreeze { seq, v, to });
        }
    }

    /// Drive one migration's state machine from a worker ack. Duplicated
    /// acks (fault-injected control-lane dup) are absorbed by the phase
    /// guards; acks for unknown `seq` (already completed) are ignored.
    fn migrate_ack(&mut self, seq: u64, v: VertexId, phase: MigPhase) {
        let Some(m) = self.migrations.get_mut(&seq) else {
            return;
        };
        debug_assert_eq!(m.v, v, "migration {seq} acked with foreign vertex");
        match (phase, m.state) {
            (MigPhase::Installed, MigState::Freezing) => {
                // The copy is physically at the destination; flip routing.
                // New queries pin the bumped version and route to `to`;
                // already-pinned queries keep resolving the source, whose
                // frozen copy survives until retire.
                let version = self.graph.commit_move(m.v, m.to);
                m.commit_version = version;
                m.state = MigState::Committing;
                let src = self.fabric.partitioner().worker_of_part(m.from);
                let (v, to) = (m.v, m.to);
                self.outbox.send_ctrl_worker(
                    src,
                    WorkerMsg::MigrateCommit {
                        seq,
                        v,
                        to,
                        version,
                    },
                );
            }
            (MigPhase::Committed, MigState::Committing) => {
                m.state = MigState::AwaitRetire;
                self.advance_migrations();
            }
            (MigPhase::Retired, MigState::Retiring) => {
                self.migrations.remove(&seq);
                self.migs_done += 1;
                self.fabric.invariants().forget(migration_qid(seq));
                #[cfg(feature = "obs")]
                {
                    self.obs.migration_done();
                    if self.migrations.is_empty() {
                        // Rebalance round drained: publish the new cut.
                        self.obs.set_cut_edges(self.graph.edge_cut().0);
                    }
                }
            }
            (MigPhase::Failed, MigState::Freezing) => {
                // Freeze or install failed before any routing change: the
                // migration simply never happened.
                self.migrations.remove(&seq);
                self.fabric.invariants().forget(migration_qid(seq));
            }
            // Everything else is a duplicate or stale ack.
            _ => {}
        }
    }

    /// Send `MigrateRetire` for every committed migration whose old
    /// routing can no longer be observed: every active query must be
    /// pinned at or above the move's commit version (queries submitted
    /// before the commit may still route traversers to the frozen source
    /// copy). Returns how many retires were sent.
    fn advance_migrations(&mut self) -> usize {
        if self.migrations.is_empty() {
            return 0;
        }
        let min_pinned = self.queries.values().map(|s| s.ctx.routing_version).min();
        let mut ready: Vec<u64> = self
            .migrations
            .iter()
            .filter(|(_, m)| {
                m.state == MigState::AwaitRetire && min_pinned.is_none_or(|p| p >= m.commit_version)
            })
            .map(|(seq, _)| *seq)
            .collect();
        ready.sort_unstable();
        let fired = ready.len();
        for seq in ready {
            let Some(m) = self.migrations.get_mut(&seq) else {
                continue;
            };
            m.state = MigState::Retiring;
            let src = self.fabric.partitioner().worker_of_part(m.from);
            let v = m.v;
            self.outbox
                .send_ctrl_worker(src, WorkerMsg::MigrateRetire { seq, v });
        }
        fired
    }

    /// Number of migrations still in flight (sim quiesce checks).
    pub fn pending_migrations(&self) -> usize {
        self.migrations.len()
    }

    /// Number of migrations fully retired since startup.
    pub fn migrations_done(&self) -> u64 {
        self.migs_done
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
                && self.ledger_global
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
            self.tracker.finish_query(q);
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
