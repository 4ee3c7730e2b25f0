//! Message types exchanged between workers, network threads, and the
//! coordinator.

use std::sync::Arc;
use std::time::Instant;

use crossbeam::channel::Sender;

use crate::engine::QueryResult;

use graphdance_common::{GdError, GdResult, QueryId, Value, WorkerId};
use graphdance_pstm::{AggState, HandOff, Interpreter, Row, Weight};
use graphdance_query::plan::Plan;
use graphdance_storage::{Graph, Timestamp};

/// Immutable per-query context. It travels in a `QueryBegin` ahead of the
/// query's first work on each lane, and so reaches only the workers that
/// work reaches (same-node workers share it by `Arc`; a remote node gets
/// the plan, params and snapshot encoded).
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
}

impl QueryCtx {
    /// The interpreter for this query's stage `stage` over `graph`. It
    /// borrows only the context and the graph, so the caller's memo and
    /// RNG stay free to pass alongside it.
    pub fn interpreter<'a>(&'a self, graph: &'a Graph, stage: u16) -> Interpreter<'a> {
        Interpreter {
            graph,
            plan: &self.plan,
            stage_idx: stage as usize,
            query: self.query,
            params: &self.params,
            read_ts: self.read_ts,
        }
    }
}

/// Messages delivered to a worker's inbox.
#[derive(Debug)]
pub enum WorkerMsg {
    /// Traversers routed to this worker's partition, as a run of arena
    /// records (DESIGN.md §12): the one form a traverser travels in, on a
    /// same-node lane and across the wire alike.
    HandOff(HandOff),
    /// Introduce a query: its context and current stage. A sender sends it
    /// on its lane to a worker ahead of the first work it sends that
    /// worker (DESIGN.md §IV-A), so it precedes every message of the query
    /// on that path. `from` is the introducing worker (`None`: the
    /// coordinator); a second introduction only adds its sender to the
    /// worker's [`QueryScope`] and, carrying a later stage, advances it.
    QueryBegin {
        ctx: Arc<QueryCtx>,
        stage: u16,
        from: Option<WorkerId>,
    },
    /// Advance to a later stage: clear per-stage memo state and pass the
    /// advance on to every worker of the receiver's [`QueryScope`]. A
    /// stage at or below the current one is a no-op.
    StageBegin { query: QueryId, stage: u16 },
    /// Execute a pipeline source on this worker's partition with the given
    /// share of the root weight.
    StartSource {
        query: QueryId,
        pipeline: u16,
        weight: Weight,
    },
    /// The query finished or failed: release its memoranda and pass the
    /// end on to the workers this one introduced. Buffered like rows: it
    /// leaves with its lane's next flush and never forces one.
    QueryEnd { query: QueryId },
    /// Cancel a query mid-flight: purge its queued traversers, refund
    /// their weight to the coordinator as ordinary progress so the weight
    /// tracker still lands exactly on `Weight::ROOT` (the drain protocol,
    /// DESIGN.md §13), and pass the cancel on to the workers this one
    /// introduced. The worker marks its record of the query cancelled so
    /// late-delivered traversers are refunded too; `QueryEnd` follows once
    /// the coordinator observes completion and finishes the teardown.
    CancelQuery { query: QueryId },
    /// BSP control signal (used only by the BSP baseline engine, which
    /// reuses this fabric; the asynchronous worker ignores these).
    Bsp(BspSignal),
    /// Stop the worker thread.
    Shutdown,
}

/// Superstep control for the BSP baseline (§II-C1, Fig. 2b).
#[derive(Debug, Clone, Copy)]
pub enum BspSignal {
    /// Execute every parked traverser at or below `depth`, then report
    /// `BspStepDone`. `expect` is the number of this query's traversers the
    /// worker must have parked, over the whole query, before it runs: the
    /// superstep barrier. A worker short of it holds the signal and runs
    /// the step from the arrival that meets it.
    RunStep {
        query: QueryId,
        depth: u32,
        expect: u64,
    },
    /// Reply with this partition's aggregation partial for the stage the
    /// last barrier closed (Fig. 6 gather phase).
    Gather { query: QueryId },
}

/// A set of workers, one bit each, sized to the topology on first insert.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct WorkerSet(Vec<u64>);

impl WorkerSet {
    /// Add `w`; `false` if it was already present.
    pub fn insert(&mut self, w: WorkerId) -> bool {
        let (word, bit) = (w.as_usize() / 64, 1u64 << (w.0 % 64));
        if word >= self.0.len() {
            self.0.resize(word + 1, 0);
        }
        let fresh = self.0[word] & bit == 0;
        self.0[word] |= bit;
        fresh
    }

    /// Is `w` present?
    pub fn contains(&self, w: WorkerId) -> bool {
        self.0
            .get(w.as_usize() / 64)
            .is_some_and(|word| word & (1u64 << (w.0 % 64)) != 0)
    }

    /// The members, in id order.
    pub fn iter(&self) -> impl Iterator<Item = WorkerId> + '_ {
        self.0.iter().enumerate().flat_map(|(i, &word)| {
            (0..64)
                .filter(move |b| word & (1u64 << b) != 0)
                .map(move |b| WorkerId((i * 64 + b) as u32))
        })
    }
}

/// How far one participant's control plane for a query reaches
/// (DESIGN.md §IV-A): the workers it knows hold the query's context, and
/// the subset it introduced. Stage advances go to every known worker;
/// cancel and end go to the introduced ones, which pass them on in turn.
#[derive(Debug, Default, Clone)]
pub struct QueryScope {
    /// Workers known to hold the context: whoever introduced the query
    /// here, and every worker introduced from here.
    pub known: WorkerSet,
    /// Workers this participant introduced the query to.
    pub introduced: WorkerSet,
}

impl QueryScope {
    /// Work is about to go to `dest`: `true` when `dest` is not known to
    /// hold the context and must get a `QueryBegin` on the same lane first
    /// (it is recorded as introduced from here).
    pub fn introduce(&mut self, dest: WorkerId) -> bool {
        let fresh = self.known.insert(dest);
        if fresh {
            self.introduced.insert(dest);
        }
        fresh
    }
}

/// Where a query's result goes: a one-shot completion callback the
/// coordinator runs exactly once when the query finishes, fails, or is
/// rejected. The coordinator has no thread of its own, so the sink runs
/// on whichever thread is running it at that moment — a worker, an
/// ingress or socket reader thread, the head's timer, or a client that
/// just submitted or cancelled — with the coordinator's slot held. It
/// must not block on anything the coordinator feeds, nor wait for a lock
/// whose holder may drive the coordinator (sending into the
/// coordinator's unbounded inbox is fine: the sink's thread runs what it
/// sent when it unlocks the slot). A sink dropped unrun — a `Submit`
/// still queued when the coordinator stops — means `EngineClosed`; a
/// channel-backed sink (any `Sender` converts) reports that as a
/// disconnect.
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
    /// Aggregation state a worker accumulated since its last report. It is
    /// result data, buffered like rows and sent ahead of the progress
    /// report that accounts for the traversers which built it, so the
    /// coordinator holds every partial of a stage when the stage's weight
    /// completes. (`None` only from a BSP worker with nothing to gather.)
    AggPartial {
        query: QueryId,
        state: Option<Box<AggState>>,
    },
    /// A worker hit an error executing this query.
    WorkerError { query: QueryId, error: GdError },
    /// BSP baseline: one worker finished its superstep (or its pipeline
    /// source). `sent[w]` counts the traversers it sent worker `w` for a
    /// later superstep, its own parks at `sent[self]`; the driver sums them
    /// into each worker's next `RunStep::expect`. `finished` is the weight
    /// released during the step, `consumed_count` the parked traversers it
    /// executed and `steps` the plan steps they ran. The stage is done when
    /// Σ`sent` = Σ`consumed_count`.
    BspStepDone {
        query: QueryId,
        finished: Weight,
        sent: Vec<u64>,
        consumed_count: u64,
        steps: u64,
    },
    /// Stop the coordinator: the pump that takes it fails every query
    /// still open with `EngineClosed`, and the threaded runtime then drops
    /// the coordinator, so a later `Submit` is handed back to its sender.
    Shutdown,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worker_set_spans_the_topology() {
        let mut s = WorkerSet::default();
        for w in [WorkerId(200), WorkerId(3), WorkerId(64), WorkerId(3)] {
            s.insert(w);
        }
        assert!(s.contains(WorkerId(64)) && !s.contains(WorkerId(65)));
        assert!(!s.contains(WorkerId(9_999)));
        let ids: Vec<u32> = s.iter().map(|w| w.0).collect();
        assert_eq!(ids, vec![3, 64, 200]);
        let mut scope = QueryScope::default();
        scope.known.insert(WorkerId(1));
        assert!(!scope.introduce(WorkerId(1)), "already holds the context");
        assert!(scope.introduce(WorkerId(2)));
        assert!(!scope.introduce(WorkerId(2)), "introduced once");
        assert_eq!(scope.introduced.iter().collect::<Vec<_>>(), [WorkerId(2)]);
    }

    #[test]
    fn worker_msg_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<WorkerMsg>();
        assert_send::<CoordMsg>();
    }
}
