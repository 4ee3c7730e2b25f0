//! Message types exchanged between workers, network threads, and the
//! coordinator.

use std::sync::Arc;
use std::time::Instant;

use crossbeam::channel::Sender;

use crate::engine::QueryResult;

use graphdance_common::{GdError, GdResult, PartId, QueryId, Value, VertexId};
use graphdance_pstm::{AggState, Row, Traverser, Weight};
use graphdance_query::plan::Plan;
use graphdance_storage::{Timestamp, VertexSegment};

/// Immutable per-query context, shipped once per query to every worker.
/// (Same-node workers share it by `Arc`; a remote node gets the plan,
/// params and snapshot encoded in its `QueryBegin`.)
#[derive(Debug)]
pub struct QueryCtx {
    /// The query id.
    pub query: QueryId,
    /// The compiled plan.
    pub plan: Plan,
    /// Parameter values.
    pub params: Vec<Value>,
    /// Snapshot timestamp.
    pub read_ts: Timestamp,
    /// Routing version captured at submit: every ownership decision the
    /// query makes (spawn routing, scan filters, memo placement) resolves
    /// against this pinned version, so a migration committing mid-query
    /// cannot split one vertex's deduplication across two partitions.
    pub routing_version: u64,
}

/// Messages delivered to a worker's inbox.
#[derive(Debug)]
pub enum WorkerMsg {
    /// A batch of traversers routed to this worker's partition.
    Batch(Vec<Traverser>),
    /// Register a query's context (precedes all other traffic for it,
    /// except possibly traverser batches from fast remote workers, which
    /// the worker stashes until this arrives).
    QueryBegin { ctx: Arc<QueryCtx>, stage: u16 },
    /// Advance to a new stage: clear per-stage memo state.
    StageBegin { query: QueryId, stage: u16 },
    /// Execute a pipeline source on this worker's partition with the given
    /// share of the root weight.
    StartSource {
        query: QueryId,
        pipeline: u16,
        weight: Weight,
    },
    /// Reply with this partition's aggregation partial for the current
    /// stage (scope completed; Fig. 6 gather phase).
    GatherAgg { query: QueryId },
    /// The query finished or failed: release its memoranda.
    QueryEnd { query: QueryId },
    /// Cancel a query mid-flight: purge its queued traversers and refund
    /// their weight to the coordinator as ordinary progress so the weight
    /// tracker still lands exactly on `Weight::ROOT` (the drain protocol,
    /// DESIGN.md §13). The worker keeps the query in a `cancelled` set so
    /// late-delivered traversers are refunded too; `QueryEnd` follows once
    /// the coordinator observes completion and finishes the teardown.
    CancelQuery { query: QueryId },
    /// Migration phase 1 (coordinator → source worker): freeze `v`'s
    /// segment (writes abort) and ship its clone to `to`'s owner. `seq`
    /// threads the coordinator's migration state machine through every
    /// phase; acks echo it.
    MigrateFreeze { seq: u64, v: VertexId, to: PartId },
    /// Migration phase 2 (source worker → destination worker): install
    /// the cloned segment. Idempotent at the destination, so fault
    /// duplication is safe.
    MigrateInstall {
        seq: u64,
        v: VertexId,
        from: PartId,
        segment: Box<VertexSegment>,
    },
    /// Migration phase 3 (coordinator → source worker): routing has
    /// committed at `version`; arm the forwarding stub so traversers of
    /// queries pinned at `>= version` that still arrive here are
    /// forwarded to `to`.
    MigrateCommit {
        seq: u64,
        v: VertexId,
        to: PartId,
        version: u64,
    },
    /// Migration phase 4 (coordinator → source worker): no live query can
    /// route `v` here any more — purge the retained frozen copy. The stub
    /// stays as a backstop for stragglers.
    MigrateRetire { seq: u64, v: VertexId },
    /// BSP control signal (used only by the BSP baseline engine, which
    /// reuses this fabric; the asynchronous worker ignores these).
    Bsp(BspSignal),
    /// Stop the worker thread.
    Shutdown,
}

/// Superstep control for the BSP baseline (§II-C1, Fig. 2b).
#[derive(Debug, Clone, Copy)]
pub enum BspSignal {
    /// Execute every parked traverser at `depth`, then report `BspStepDone`.
    RunStep { query: QueryId, depth: u32 },
    /// Report the currently parked weight (delivery barrier probe).
    /// `round` disambiguates replies of successive probe rounds — a
    /// straggler from an earlier round must not be counted against a later
    /// one.
    Probe { query: QueryId, round: u64 },
}

/// Where a query's result goes: a one-shot completion callback the
/// coordinator runs exactly once, on its own thread, when the query
/// finishes, fails, or is rejected. It must not block on anything the
/// coordinator feeds (sending into the coordinator's unbounded inbox is
/// fine). A sink dropped unrun — a `Submit` still queued when the
/// coordinator stops — means `EngineClosed`; a channel-backed sink (any
/// `Sender` converts) reports that as a disconnect.
pub struct ReplySink(Box<dyn FnOnce(GdResult<QueryResult>) + Send>);

impl ReplySink {
    /// Wrap a completion callback.
    pub fn new(f: impl FnOnce(GdResult<QueryResult>) + Send + 'static) -> Self {
        ReplySink(Box::new(f))
    }

    /// Deliver the result, consuming the sink.
    pub fn complete(self, result: GdResult<QueryResult>) {
        (self.0)(result)
    }
}

impl From<Sender<GdResult<QueryResult>>> for ReplySink {
    fn from(tx: Sender<GdResult<QueryResult>>) -> Self {
        ReplySink::new(move |result| {
            // A dropped handle no longer cares about the result.
            let _ = tx.send(result);
        })
    }
}

impl std::fmt::Debug for ReplySink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("ReplySink")
    }
}

/// Messages delivered to the coordinator.
#[derive(Debug)]
pub enum CoordMsg {
    /// Client submission.
    Submit {
        /// Query id, pre-assigned by the submitter so the client can
        /// cancel the query before the coordinator has even seen it.
        query: QueryId,
        /// Compiled plan.
        plan: Plan,
        /// Parameters.
        params: Vec<Value>,
        /// Snapshot timestamp override (None = current LCT).
        read_ts: Option<Timestamp>,
        /// Where to deliver the result.
        reply: ReplySink,
        /// Submission instant (latency measurement starts here).
        submitted_at: Instant,
        /// Per-query deadline override (None = coordinator default,
        /// `submitted_at + EngineConfig::query_timeout`).
        deadline: Option<Instant>,
    },
    /// Client cancellation: abort `query` promptly, tearing down its
    /// traversers, memos, and in-flight weight via the worker drain
    /// protocol. The query's reply channel receives `QueryCancelled`.
    Cancel { query: QueryId },
    /// A (possibly coalesced) finished-weight report. `steps` carries the
    /// number of plan steps executed since the last report (drives the
    /// Table I accessed-data accounting).
    Progress {
        query: QueryId,
        weight: Weight,
        steps: u64,
    },
    /// Result rows from a non-aggregating stage.
    Rows { query: QueryId, rows: Vec<Row> },
    /// A partition's aggregation partial (reply to `GatherAgg`).
    AggPartial {
        query: QueryId,
        part: PartId,
        state: Option<Box<AggState>>,
    },
    /// A worker hit an error executing this query.
    WorkerError { query: QueryId, error: GdError },
    /// BSP baseline: one worker finished its superstep. `finished` is the
    /// weight released during the step; `issued`/`count` describe the
    /// traversers this worker parked or sent for a later superstep, and
    /// `consumed`/`consumed_count` the previously parked traversers it
    /// executed. The driver's in-flight ledger (Σissued − Σconsumed) makes
    /// the delivery barrier immune to data-path messages overtaking the
    /// `RunStep` control signal.
    BspStepDone {
        query: QueryId,
        part: PartId,
        finished: Weight,
        issued: Weight,
        count: u64,
        consumed: Weight,
        consumed_count: u64,
    },
    /// BSP baseline: reply to a delivery-barrier probe.
    BspParked {
        query: QueryId,
        part: PartId,
        parked: Weight,
        round: u64,
    },
    /// Ask the coordinator to migrate each `(vertex, dest)` pair through
    /// the live-migration state machine (freeze → install → commit →
    /// retire). Sent by the rebalance planner or injected by the DST
    /// harness; moves whose vertex already routes to `dest` are skipped.
    Rebalance { moves: Vec<(VertexId, PartId)> },
    /// A worker's acknowledgement of a migration phase for `seq`.
    MigrateAck {
        seq: u64,
        v: VertexId,
        phase: MigPhase,
    },
    /// Periodic tick for deadline enforcement.
    Tick,
    /// Stop the coordinator thread.
    Shutdown,
}

/// Migration phases acknowledged by workers (DESIGN.md §14). Ordered by
/// protocol progress; `Failed` aborts the migration (e.g. freezing a
/// vertex that is absent or already frozen).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum MigPhase {
    /// Destination installed the segment.
    Installed,
    /// Source armed the forwarding stub after routing commit.
    Committed,
    /// Source purged the retained frozen copy.
    Retired,
    /// The migration cannot proceed; the coordinator drops its state.
    Failed,
}

/// Migration control messages are tracked in the [`crate::invariants::MsgLedger`]
/// under pseudo query ids in a namespace disjoint from real queries
/// (engine qids count up from 1, the sim oracle uses `u64::MAX`).
pub const MIG_QID_BASE: u64 = 1 << 63;

/// The ledger pseudo-qid for migration `seq`.
#[inline]
pub fn migration_qid(seq: u64) -> QueryId {
    QueryId(MIG_QID_BASE | seq)
}

/// If `msg` is a migration control message, its ledger pseudo-qid.
pub fn worker_migration_qid(msg: &WorkerMsg) -> Option<QueryId> {
    match msg {
        WorkerMsg::MigrateFreeze { seq, .. }
        | WorkerMsg::MigrateInstall { seq, .. }
        | WorkerMsg::MigrateCommit { seq, .. }
        | WorkerMsg::MigrateRetire { seq, .. } => Some(migration_qid(*seq)),
        _ => None,
    }
}

/// If `msg` is a migration ack, its ledger pseudo-qid.
pub fn coord_migration_qid(msg: &CoordMsg) -> Option<QueryId> {
    match msg {
        CoordMsg::MigrateAck { seq, .. } => Some(migration_qid(*seq)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worker_msg_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<WorkerMsg>();
        assert_send::<CoordMsg>();
    }
}
