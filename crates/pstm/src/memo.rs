//! Query memoranda: the `M` component of the partitioned stateful graph
//! (§III-B).
//!
//! A memo is a per-partition temporary key-value store. Its records are
//! created by traversers of a specific query, readable and writable only by
//! traversers in the same partition (so access is synchronization-free), and
//! reclaimed automatically when the creating query terminates.
//!
//! The memo is deliberately *not* under concurrency control: even a
//! read-only graph query freely mutates its memo records (§III-B).

use graphdance_common::value::ValueKey;
use graphdance_common::{FxHashMap, FxHashSet, QueryId, Value, VertexId};
use graphdance_query::plan::PlanStep;

use crate::agg::AggState;
use crate::arena::slot_of;
use crate::weight::WeightAccumulator;

/// The locals carried by a parked join row.
pub type JoinRow = Vec<Value>;

/// Per-query memo access statistics, drained by the worker's observability
/// layer after each execution batch (only with the `obs` feature).
#[cfg(feature = "obs")]
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct MemoStats {
    /// Dedup keys already present (traverser pruned).
    pub dedup_hits: u64,
    /// Fresh dedup keys inserted.
    pub dedup_misses: u64,
    /// Min-distance lookups that found an existing record.
    pub min_dist_hits: u64,
    /// Min-distance lookups that created a record.
    pub min_dist_misses: u64,
    /// Double-pipelined join insert-and-probe operations.
    pub join_probes: u64,
    /// Rows returned by join probes (matches on the opposite side).
    pub join_matches: u64,
    /// Aggregation partial accesses.
    pub agg_updates: u64,
}

#[cfg(feature = "obs")]
impl MemoStats {
    /// Drain: return the accumulated stats, resetting to zero.
    pub fn take(&mut self) -> MemoStats {
        std::mem::take(self)
    }

    /// Lookups that hit existing memo state.
    pub fn hits(&self) -> u64 {
        self.dedup_hits + self.min_dist_hits + self.join_matches
    }

    /// Lookups that created fresh memo state.
    pub fn misses(&self) -> u64 {
        self.dedup_misses + self.min_dist_misses
    }
}

/// Per-query memo records within one partition.
#[derive(Debug, Default)]
pub struct QueryMemo {
    /// Dedup step state: the set of seen keys, per step occurrence.
    /// Key = (pipeline, pc, vertex, slot values).
    dedup: FxHashSet<(u16, u16, VertexId, Vec<ValueKey>)>,
    /// Min-distance records (Fig. 5): best known distance per vertex, per
    /// step occurrence.
    min_dist: FxHashMap<(u16, u16, VertexId), i64>,
    /// Double-pipelined join tables: per join id and key, the parked rows of
    /// each side.
    join: FxHashMap<(u16, ValueKey), (Vec<JoinRow>, Vec<JoinRow>)>,
    /// Partial aggregation state for the current stage.
    agg: Option<AggState>,
    /// Locally coalesced finished weight (§IV-A weight coalescing) for the
    /// current stage.
    pub finished: WeightAccumulator,
    /// Access statistics since the last drain (obs builds only).
    #[cfg(feature = "obs")]
    pub stats: MemoStats,
}

impl QueryMemo {
    /// Dedup check-and-insert: returns `true` if the key was fresh (the
    /// traverser survives), `false` if it was already present (prune).
    pub fn dedup_insert(
        &mut self,
        pipeline: u16,
        pc: u16,
        vertex: VertexId,
        slots: Vec<ValueKey>,
    ) -> bool {
        let fresh = self.dedup.insert((pipeline, pc, vertex, slots));
        #[cfg(feature = "obs")]
        {
            if fresh {
                self.stats.dedup_misses += 1;
            } else {
                self.stats.dedup_hits += 1;
            }
        }
        fresh
    }

    /// Min-distance check-and-update: returns `true` if `dist` improves the
    /// recorded distance for `vertex` (record updated, traverser survives);
    /// `false` otherwise (prune).
    pub fn min_dist_update(&mut self, pipeline: u16, pc: u16, vertex: VertexId, dist: i64) -> bool {
        match self.min_dist.entry((pipeline, pc, vertex)) {
            std::collections::hash_map::Entry::Occupied(mut e) => {
                #[cfg(feature = "obs")]
                {
                    self.stats.min_dist_hits += 1;
                }
                if dist < *e.get() {
                    e.insert(dist);
                    true
                } else {
                    false
                }
            }
            std::collections::hash_map::Entry::Vacant(e) => {
                #[cfg(feature = "obs")]
                {
                    self.stats.min_dist_misses += 1;
                }
                e.insert(dist);
                true
            }
        }
    }

    /// Double-pipelined join insert-and-probe (§III-A): park `row` on
    /// `side_a`'s table for `key` and return a clone of every row currently
    /// parked on the opposite side.
    pub fn join_insert_probe(
        &mut self,
        join_id: u16,
        key: ValueKey,
        side_a: bool,
        row: JoinRow,
    ) -> Vec<JoinRow> {
        let (a, b) = self.join.entry((join_id, key)).or_default();
        let matches = if side_a {
            a.push(row);
            b.clone()
        } else {
            b.push(row);
            a.clone()
        };
        #[cfg(feature = "obs")]
        {
            self.stats.join_probes += 1;
            self.stats.join_matches += matches.len() as u64;
        }
        matches
    }

    /// The stage's aggregation partial, created on first use.
    pub fn agg_mut(&mut self, init: impl FnOnce() -> AggState) -> &mut AggState {
        #[cfg(feature = "obs")]
        {
            self.stats.agg_updates += 1;
        }
        self.agg.get_or_insert_with(init)
    }

    /// Take the aggregation state built since the last take: the worker
    /// ships it to the coordinator ahead of each progress report (Fig. 6's
    /// partials, gathered as the stage runs instead of after it).
    pub fn take_agg(&mut self) -> Option<AggState> {
        self.agg.take()
    }

    /// Reset dedup, min-distance and join state for the next stage, and
    /// take any aggregation partial still held.
    pub fn take_stage_state(&mut self) -> Option<AggState> {
        self.dedup.clear();
        self.min_dist.clear();
        self.join.clear();
        self.agg.take()
    }

    /// Number of parked join rows (diagnostics).
    pub fn join_rows(&self) -> usize {
        self.join.values().map(|(a, b)| a.len() + b.len()).sum()
    }
}

/// The memo check of a `MinDist` or `Dedup` step, its key read from a
/// register file. The step arms run it on the traverser; `Expand` runs the
/// guard right after it once per neighbour, on the parent's register file
/// (which every child shares), before the child exists.
#[derive(Clone)]
pub(crate) enum Guard {
    /// `MinDist`: the distance.
    Dist(i64),
    /// `Dedup`: the slot keys.
    Key(Vec<ValueKey>),
}

impl Guard {
    /// The check `step` makes over `vals`; `None` for a step that is not
    /// a guard.
    pub(crate) fn of(step: &PlanStep, vals: &[Value]) -> Option<Guard> {
        match step {
            PlanStep::MinDist { dist_slot } => {
                Some(Guard::Dist(slot_of(vals, *dist_slot).as_int().unwrap_or(0)))
            }
            PlanStep::Dedup { slots } => Some(Guard::Key(
                slots
                    .iter()
                    .map(|s| slot_of(vals, *s).group_key())
                    .collect(),
            )),
            _ => None,
        }
    }

    /// Check-and-insert at `vertex` for step `pc` of `pipeline`: `true` if
    /// the traverser survives.
    pub(crate) fn admit(
        self,
        memo: &mut QueryMemo,
        pipeline: u16,
        pc: u16,
        vertex: VertexId,
    ) -> bool {
        match self {
            Guard::Dist(d) => memo.min_dist_update(pipeline, pc, vertex, d),
            Guard::Key(k) => memo.dedup_insert(pipeline, pc, vertex, k),
        }
    }
}

/// All memoranda of one partition, keyed by query.
#[derive(Debug, Default)]
pub struct Memo {
    queries: FxHashMap<QueryId, QueryMemo>,
}

impl Memo {
    /// Empty memo.
    pub fn new() -> Self {
        Self::default()
    }

    /// The memo records of `query`, created on first access.
    pub fn query_mut(&mut self, query: QueryId) -> &mut QueryMemo {
        self.queries.entry(query).or_default()
    }

    /// Release every record of `query` ("the memo is automatically cleared
    /// after the creating query terminates", §III-B).
    pub fn clear_query(&mut self, query: QueryId) {
        self.queries.remove(&query);
    }

    /// Number of queries with live memo records (diagnostics / leak tests).
    pub fn live_queries(&self) -> usize {
        self.queries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dedup_semantics() {
        let mut m = Memo::new();
        let q = m.query_mut(QueryId(1));
        assert!(q.dedup_insert(0, 2, VertexId(5), vec![]));
        assert!(
            !q.dedup_insert(0, 2, VertexId(5), vec![]),
            "duplicate pruned"
        );
        // different step occurrence → independent key space
        assert!(q.dedup_insert(0, 3, VertexId(5), vec![]));
        assert!(q.dedup_insert(1, 2, VertexId(5), vec![]));
        // slot-qualified dedup
        assert!(q.dedup_insert(0, 2, VertexId(5), vec![ValueKey::Int(1)]));
        assert!(!q.dedup_insert(0, 2, VertexId(5), vec![ValueKey::Int(1)]));
    }

    #[test]
    fn min_dist_prunes_non_improving() {
        let mut m = Memo::new();
        let q = m.query_mut(QueryId(1));
        assert!(
            q.min_dist_update(0, 0, VertexId(9), 3),
            "first visit survives"
        );
        assert!(
            !q.min_dist_update(0, 0, VertexId(9), 3),
            "equal distance pruned"
        );
        assert!(
            !q.min_dist_update(0, 0, VertexId(9), 5),
            "worse distance pruned"
        );
        assert!(
            q.min_dist_update(0, 0, VertexId(9), 1),
            "better distance survives"
        );
        assert!(!q.min_dist_update(0, 0, VertexId(9), 2), "now 1 is the bar");
    }

    #[test]
    fn join_insert_probe_both_sides() {
        let mut m = Memo::new();
        let q = m.query_mut(QueryId(1));
        let k = ValueKey::Vertex(VertexId(7));
        // A arrives first: no matches.
        assert!(q
            .join_insert_probe(0, k.clone(), true, vec![Value::Int(1)])
            .is_empty());
        // B arrives: matches the parked A row.
        let matches = q.join_insert_probe(0, k.clone(), false, vec![Value::Int(2)]);
        assert_eq!(matches, vec![vec![Value::Int(1)]]);
        // Another A arrives: matches the parked B row.
        let matches = q.join_insert_probe(0, k.clone(), true, vec![Value::Int(3)]);
        assert_eq!(matches, vec![vec![Value::Int(2)]]);
        // Different key: isolated.
        assert!(q
            .join_insert_probe(0, ValueKey::Int(0), false, vec![Value::Int(4)])
            .is_empty());
        assert_eq!(q.join_rows(), 4);
    }

    #[test]
    fn query_isolation_and_cleanup() {
        let mut m = Memo::new();
        m.query_mut(QueryId(1))
            .dedup_insert(0, 0, VertexId(1), vec![]);
        m.query_mut(QueryId(2))
            .dedup_insert(0, 0, VertexId(1), vec![]);
        assert_eq!(m.live_queries(), 2);
        m.clear_query(QueryId(1));
        assert_eq!(m.live_queries(), 1);
        // query 2 unaffected
        assert!(!m
            .query_mut(QueryId(2))
            .dedup_insert(0, 0, VertexId(1), vec![]));
        // query 1 records are gone: re-inserting succeeds
        assert!(m
            .query_mut(QueryId(1))
            .dedup_insert(0, 0, VertexId(1), vec![]));
    }

    #[test]
    fn take_stage_state_resets_for_next_stage() {
        let mut m = Memo::new();
        let q = m.query_mut(QueryId(1));
        q.dedup_insert(0, 0, VertexId(1), vec![]);
        q.join_insert_probe(0, ValueKey::Int(1), true, vec![]);
        assert!(q.take_stage_state().is_none(), "no aggregation was started");
        q.agg_mut(|| AggState::Count(0));
        assert!(q.take_agg().is_some());
        assert!(q.take_agg().is_none(), "taken once");
        assert!(
            q.dedup_insert(0, 0, VertexId(1), vec![]),
            "dedup state cleared"
        );
        assert_eq!(q.join_rows(), 0, "join state cleared");
    }
}
