//! What an arena-path interpreter call hands back, and the per-quantum
//! adjacency cache it expands through.
//!
//! A [`HandleOutcome`] carries one traverser's (or one source's) children
//! as arena handles with their destination partitions, its rows, its
//! finished weight and its step count; the worker routes it and reuses the
//! buffers for the next traverser.
//!
//! The [`ExpandCache`] memoizes one CSR adjacency scan per distinct
//! `(vertex, direction, label, read_ts)` within a pump quantum, so a batch
//! of traversers sitting on the same vertex (the common case after a
//! fan-in hop) pays for one TEL walk instead of one per traverser. Entries
//! are keyed on the read timestamp, so snapshot reads stay correct across
//! queries; the cache is cleared at every quantum boundary to bound
//! memory.

use graphdance_common::{FxHashMap, Label, PartId, VertexId};
use graphdance_storage::{Direction, Timestamp};

use crate::arena::{LocalsTable, TraverserArena, TraverserHandle};
use crate::interp::{Outcome, Row};
use crate::weight::Weight;

/// What one arena-path interpreter invocation produced: the handle
/// analogue of [`crate::interp::Outcome`]. Spawned children live in the
/// worker's arena; the caller routes them by handle and flattens to the
/// wire format only at the outbox boundary.
#[derive(Debug, Default)]
pub struct HandleOutcome {
    /// Spawned traversers (arena handles) with their destination partitions.
    pub spawned: Vec<(PartId, TraverserHandle)>,
    /// Result rows emitted by a non-aggregating stage.
    pub emitted: Vec<Row>,
    /// Weight released by traversers that terminated here.
    pub finished: Weight,
    /// Number of plan steps executed (for Table I stage accounting).
    pub steps_executed: u32,
}

impl HandleOutcome {
    /// Fresh empty outcome.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reset for reuse, retaining the `spawned`/`emitted` allocations —
    /// callers keep one scratch outcome across an execution batch so the
    /// per-traverser hot path performs no outcome allocations at all.
    pub fn clear(&mut self) {
        self.spawned.clear();
        self.emitted.clear();
        self.finished = Weight::ZERO;
        self.steps_executed = 0;
    }

    /// Replace the contents with a source's [`Outcome`], interning each
    /// spawned traverser into `arena` — how a source's result enters the
    /// arena path.
    pub fn admit(&mut self, source: Outcome, arena: &mut TraverserArena, locals: &mut LocalsTable) {
        self.clear();
        for (dest, t) in source.spawned {
            self.spawned.push((dest, arena.admit(t, locals)));
        }
        self.emitted = source.emitted;
        self.finished = source.finished;
        self.steps_executed = source.steps_executed;
    }
}

/// Cap on cached neighbor ids per quantum; past it new scans bypass the
/// cache (bounds memory on super-node-heavy batches).
const EXPAND_CACHE_NEIGHBOR_CAP: usize = 64 * 1024;

/// Per-quantum memo of adjacency scans: `(vertex, dir, label, read_ts)` →
/// a span of neighbor ids in a flat arena. Only consulted for `Expand`
/// steps with no edge-property loads (the common k-hop shape) — property
/// loads need the full `EdgeRef` and take the direct scan path.
#[derive(Debug, Default)]
pub struct ExpandCache {
    spans: FxHashMap<(VertexId, Direction, Label, Timestamp), (u32, u32)>,
    neighbors: Vec<VertexId>,
}

impl ExpandCache {
    /// Fresh empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reset at a pump-quantum boundary. Backing allocations are retained.
    pub fn begin_quantum(&mut self) {
        self.spans.clear();
        self.neighbors.clear();
    }

    /// Cached neighbor span for a scan key, if this quantum already walked
    /// it. Resolve the indices with [`Self::span`]; the slice preserves the
    /// TEL's edge order exactly.
    #[inline]
    pub fn lookup(&self, key: (VertexId, Direction, Label, Timestamp)) -> Option<(u32, u32)> {
        self.spans.get(&key).copied()
    }

    /// Resolve a span returned by [`Self::lookup`] / [`Self::commit_scan`].
    #[inline]
    pub fn span(&self, (start, end): (u32, u32)) -> &[VertexId] {
        &self.neighbors[start as usize..end as usize]
    }

    /// Begin recording a scan; pair with [`Self::push`] +
    /// [`Self::commit_scan`]. Returns `None` when the cache is full — the
    /// caller then scans without recording.
    #[inline]
    pub fn begin_insert(&mut self) -> Option<u32> {
        if self.neighbors.len() >= EXPAND_CACHE_NEIGHBOR_CAP {
            None
        } else {
            Some(self.neighbors.len() as u32)
        }
    }

    /// Record one neighbor of an in-progress scan.
    #[inline]
    pub fn push(&mut self, v: VertexId) {
        self.neighbors.push(v);
    }

    /// Finish recording a scan started at `start` and index it under `key`.
    /// Returns the recorded span indices.
    #[inline]
    pub fn commit_scan(
        &mut self,
        key: (VertexId, Direction, Label, Timestamp),
        start: u32,
    ) -> (u32, u32) {
        let end = self.neighbors.len() as u32;
        self.spans.insert(key, (start, end));
        (start, end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(v: u64) -> (VertexId, Direction, Label, Timestamp) {
        (VertexId(v), Direction::Out, Label(1), 7)
    }

    #[test]
    fn expand_cache_roundtrips_spans_in_order() {
        let mut c = ExpandCache::new();
        assert!(c.lookup(key(1)).is_none());
        let s = c.begin_insert().unwrap();
        c.push(VertexId(10));
        c.push(VertexId(30));
        c.push(VertexId(20));
        let span = c.commit_scan(key(1), s);
        assert_eq!(c.span(span), &[VertexId(10), VertexId(30), VertexId(20)]);
        // Second scan interleaves without disturbing the first.
        let s2 = c.begin_insert().unwrap();
        c.push(VertexId(99));
        c.commit_scan(key(2), s2);
        let first = c.lookup(key(1)).unwrap();
        assert_eq!(c.span(first), &[VertexId(10), VertexId(30), VertexId(20)]);
        let second = c.lookup(key(2)).unwrap();
        assert_eq!(c.span(second), &[VertexId(99)]);
        // Distinct read timestamps are distinct keys (snapshot safety).
        let (v, d, l, _) = key(1);
        assert!(c.lookup((v, d, l, 8)).is_none());
    }

    #[test]
    fn expand_cache_clears_at_quantum_boundary() {
        let mut c = ExpandCache::new();
        let s = c.begin_insert().unwrap();
        c.push(VertexId(1));
        c.commit_scan(key(1), s);
        c.begin_quantum();
        assert!(c.lookup(key(1)).is_none());
        assert_eq!(c.neighbors.len(), 0);
    }

    #[test]
    fn full_cache_keeps_its_spans_and_refuses_new_scans() {
        let mut c = ExpandCache::new();
        let s = c.begin_insert().unwrap();
        for i in 0..EXPAND_CACHE_NEIGHBOR_CAP as u64 {
            c.push(VertexId(i));
        }
        c.commit_scan(key(1), s);
        assert!(c.begin_insert().is_none());
        let span = c.lookup(key(1)).unwrap();
        assert_eq!(c.span(span).len(), EXPAND_CACHE_NEIGHBOR_CAP);
    }
}
