//! The worker's run queue: shortest trajectories first (§III-B), FIFO
//! within a depth, O(1) push and pop.
//!
//! One FIFO bucket per depth. Every push goes to the back of its depth's
//! bucket and every pop takes the front of the lowest non-empty one, so the
//! pop order is exactly that of a `(depth, push sequence number)` min-heap
//! — the order every sim schedule and DST fingerprint was recorded under —
//! without the heap's O(log n) sifts or its per-entry `depth`/`seq` words:
//! the bucket *is* the depth and the position *is* the sequence number.
//!
//! Depths below [`DENSE_DEPTHS`] index a dense vector; anything deeper —
//! only a hostile or corrupt frame carries such a depth — lands in an
//! ordered overflow map, one entry per distinct depth, so a decoded
//! `depth = u32::MAX` costs a map node, not a resize.

use std::collections::{BTreeMap, VecDeque};

use graphdance_common::QueryId;
use graphdance_pstm::{Frontier, TraverserHandle};

/// Depths indexed densely. Plans in this repo stay below a dozen hops.
pub(crate) const DENSE_DEPTHS: usize = 64;

/// Bucket capacity (entries) kept across queries; what a burst grew beyond
/// it is given back once the queue drains.
pub(crate) const BUCKET_KEEP: usize = 1024;

/// A queued traverser: its state lives in the worker's `TraverserArena`.
#[derive(Clone, Copy, Debug)]
pub(crate) struct RunEntry {
    pub query: QueryId,
    pub handle: TraverserHandle,
    /// Enqueue timestamp for queue-wait tracking (obs builds only).
    #[cfg(feature = "obs")]
    pub enq_ns: u64,
}

/// Depth-bucketed FIFO of [`RunEntry`]s (see the module docs).
#[derive(Debug)]
pub(crate) struct RunQueue {
    dense: Vec<VecDeque<RunEntry>>,
    overflow: BTreeMap<u32, VecDeque<RunEntry>>,
    /// No dense bucket below this index holds an entry.
    min: usize,
    len: usize,
}

impl RunQueue {
    pub fn new() -> Self {
        RunQueue {
            dense: (0..DENSE_DEPTHS).map(|_| VecDeque::new()).collect(),
            overflow: BTreeMap::new(),
            min: DENSE_DEPTHS,
            len: 0,
        }
    }

    #[cfg(any(test, feature = "obs"))]
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub fn push(&mut self, depth: u32, entry: RunEntry) {
        let d = depth as usize;
        if d < DENSE_DEPTHS {
            self.dense[d].push_back(entry);
            self.min = self.min.min(d);
        } else {
            self.overflow.entry(depth).or_default().push_back(entry);
        }
        self.len += 1;
    }

    /// Pop the next *run* — the front entry and the entries right behind it
    /// in the same bucket that belong to the same query, at most `budget` —
    /// into `run` (cleared first). Returns the run's query, `None` when the
    /// queue is empty or `budget` is zero.
    pub fn stage_run(&mut self, budget: usize, run: &mut Frontier) -> Option<QueryId> {
        run.clear();
        if self.len == 0 || budget == 0 {
            return None;
        }
        while self.min < DENSE_DEPTHS && self.dense[self.min].is_empty() {
            self.min += 1;
        }
        let query = match self.dense.get_mut(self.min) {
            Some(bucket) => drain_run(bucket, budget, run),
            None => {
                // Entries remain and no dense bucket holds one.
                let mut deepest = self.overflow.first_entry()?;
                let query = drain_run(deepest.get_mut(), budget, run);
                if deepest.get().is_empty() {
                    deepest.remove();
                }
                query
            }
        };
        self.len -= run.len();
        query
    }

    /// Remove every entry of `query` in place, handing each to `removed`;
    /// the order of the entries that stay is untouched.
    pub fn purge(&mut self, query: QueryId, mut removed: impl FnMut(RunEntry)) {
        if self.len == 0 {
            return;
        }
        let mut keep = |e: &RunEntry| {
            if e.query == query {
                removed(*e);
                false
            } else {
                true
            }
        };
        let mut left = 0;
        for b in &mut self.dense[self.min..] {
            b.retain(&mut keep);
            left += b.len();
        }
        self.overflow.retain(|_, b| {
            b.retain(&mut keep);
            left += b.len();
            !b.is_empty()
        });
        self.len = left;
    }

    /// Give back bucket storage beyond [`BUCKET_KEEP`] once the queue has
    /// drained (called between queries, not per traverser).
    pub fn trim(&mut self) {
        if self.len != 0 {
            return;
        }
        for b in &mut self.dense {
            b.shrink_to(BUCKET_KEEP);
        }
    }

    /// Total bucket capacity in entries (storage-bound tests).
    #[cfg(test)]
    pub fn capacity(&self) -> usize {
        let dense: usize = self.dense.iter().map(VecDeque::capacity).sum();
        dense
            + self
                .overflow
                .values()
                .map(VecDeque::capacity)
                .sum::<usize>()
    }
}

/// Move the front entry of `bucket`, and the same-query entries directly
/// behind it, into `run` until it holds `budget`.
fn drain_run(
    bucket: &mut VecDeque<RunEntry>,
    budget: usize,
    run: &mut Frontier,
) -> Option<QueryId> {
    let query = bucket.front()?.query;
    while run.len() < budget {
        match bucket.front() {
            Some(e) if e.query == query => run.push(
                e.handle,
                #[cfg(feature = "obs")]
                e.enq_ns,
            ),
            _ => break,
        }
        bucket.pop_front();
    }
    Some(query)
}

#[cfg(test)]
mod tests {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    use graphdance_common::VertexId;
    use graphdance_pstm::{ArenaTraverser, LocalsId, TraverserArena, Weight};
    use proptest::prelude::*;

    use super::*;

    /// Distinct handles to tell entries apart (slot `i` ↔ `i`-th insert).
    fn handles(n: usize) -> Vec<TraverserHandle> {
        let mut arena = TraverserArena::new();
        (0..n)
            .map(|i| {
                arena.insert(ArenaTraverser {
                    query: QueryId(0),
                    pipeline: 0,
                    pc: 0,
                    vertex: VertexId(i as u64),
                    locals: LocalsId::INVALID,
                    weight: Weight(0),
                    depth: 0,
                    aux_key: None,
                })
            })
            .collect()
    }

    fn entry(query: u64, handle: TraverserHandle) -> RunEntry {
        RunEntry {
            query: QueryId(query),
            handle,
            #[cfg(feature = "obs")]
            enq_ns: 0,
        }
    }

    fn pop(q: &mut RunQueue) -> Option<(QueryId, TraverserHandle)> {
        let mut run = Frontier::new();
        let query = q.stage_run(1, &mut run)?;
        Some((query, run.handles[0]))
    }

    #[test]
    fn queue_orders_by_depth_then_fifo() {
        let hs = handles(4);
        let mut q = RunQueue::new();
        for (depth, h) in [(2, hs[0]), (0, hs[1]), (1, hs[2]), (0, hs[3])] {
            q.push(depth, entry(1, h));
        }
        let order: Vec<TraverserHandle> =
            std::iter::from_fn(|| pop(&mut q).map(|(_, h)| h)).collect();
        assert_eq!(order, vec![hs[1], hs[3], hs[2], hs[0]]);
        assert!(q.is_empty());
    }

    /// The hot-path entry carries its query and its handle and nothing
    /// else: depth is the bucket, sequence is the position, and with `obs`
    /// disabled the instrumentation compiles to nothing.
    #[cfg(not(feature = "obs"))]
    #[test]
    fn run_entry_is_16_bytes() {
        assert_eq!(size_of::<RunEntry>(), 16);
    }

    #[test]
    fn hostile_depths_cost_one_overflow_bucket_each() {
        let hs = handles(3);
        let mut q = RunQueue::new();
        q.push(u32::MAX, entry(1, hs[0]));
        q.push(DENSE_DEPTHS as u32, entry(1, hs[1]));
        q.push(3, entry(1, hs[2]));
        assert_eq!(q.dense.len(), DENSE_DEPTHS, "no resize toward the depth");
        assert_eq!(q.overflow.len(), 2);
        assert!(q.capacity() < 64);
        let order: Vec<TraverserHandle> =
            std::iter::from_fn(|| pop(&mut q).map(|(_, h)| h)).collect();
        assert_eq!(order, vec![hs[2], hs[1], hs[0]]);
        assert!(q.overflow.is_empty(), "drained overflow buckets are freed");
    }

    #[derive(Clone, Debug)]
    enum Op {
        Push { depth: u32, query: u64 },
        Pop,
        Run { budget: usize },
        Purge { query: u64 },
    }

    fn op() -> impl Strategy<Value = Op> {
        // Depths on both sides of the dense bound, colliding often.
        let depth = prop_oneof![
            0u32..4,
            (DENSE_DEPTHS as u32 - 2)..(DENSE_DEPTHS as u32 + 2),
            Just(u32::MAX),
        ];
        // Half the ops push, so queues build up before they drain.
        (0u8..10, depth, 0u64..3, 1usize..6).prop_map(|(kind, depth, query, budget)| match kind {
            0..=4 => Op::Push { depth, query },
            5..=6 => Op::Pop,
            7..=8 => Op::Run { budget },
            _ => Op::Purge { query },
        })
    }

    /// The reference: the `(depth, seq)` min-heap the worker used to keep,
    /// staged the way the worker stages — same depth, same query, in pop
    /// order, up to the budget.
    #[derive(Default)]
    struct Model {
        heap: BinaryHeap<Reverse<(u32, u64, u64, usize)>>,
        seq: u64,
    }

    impl Model {
        fn push(&mut self, depth: u32, query: u64, id: usize) {
            self.seq += 1;
            self.heap.push(Reverse((depth, self.seq, query, id)));
        }

        fn run(&mut self, budget: usize) -> Vec<(u64, usize)> {
            let Some(&Reverse((depth, _, query, _))) = self.heap.peek() else {
                return Vec::new();
            };
            let mut out = Vec::new();
            while out.len() < budget {
                match self.heap.peek() {
                    Some(&Reverse((d, _, q, id))) if d == depth && q == query => {
                        self.heap.pop();
                        out.push((q, id));
                    }
                    _ => break,
                }
            }
            out
        }

        fn purge(&mut self, query: u64) -> Vec<usize> {
            let mut gone = Vec::new();
            self.heap.retain(|Reverse((_, _, q, id))| {
                if *q == query {
                    gone.push(*id);
                }
                *q != query
            });
            gone.sort_unstable();
            gone
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Any interleaving of push / pop / staged run / per-query purge
        /// yields the same entries in the same order from the bucket queue
        /// as from the `(depth, seq)` heap.
        #[test]
        fn pops_in_heap_order(ops in prop::collection::vec(op(), 1..200)) {
            let hs = handles(ops.len());
            let id_of = |h: TraverserHandle| h.slot() as usize;
            let mut q = RunQueue::new();
            let mut model = Model::default();
            let mut run = Frontier::new();
            for (i, op) in ops.iter().enumerate() {
                match *op {
                    Op::Push { depth, query } => {
                        q.push(depth, entry(query, hs[i]));
                        model.push(depth, query, i);
                    }
                    Op::Pop | Op::Run { .. } => {
                        let budget = if let Op::Run { budget } = *op { budget } else { 1 };
                        let query = q.stage_run(budget, &mut run);
                        let got: Vec<(u64, usize)> = run
                            .handles
                            .iter()
                            .map(|h| (query.expect("non-empty run has a query").0, id_of(*h)))
                            .collect();
                        prop_assert_eq!(got, model.run(budget));
                    }
                    Op::Purge { query } => {
                        let mut gone = Vec::new();
                        q.purge(QueryId(query), |e| gone.push(id_of(e.handle)));
                        gone.sort_unstable();
                        prop_assert_eq!(gone, model.purge(query));
                    }
                }
                prop_assert_eq!(q.len(), model.heap.len());
            }
            // Drain: the tails agree too, and an emptied queue trims.
            while let Some(expect) = model.run(1).pop() {
                let got = pop(&mut q).map(|(query, h)| (query.0, id_of(h)));
                prop_assert_eq!(got, Some(expect));
            }
            prop_assert!(pop(&mut q).is_none());
            q.trim();
            prop_assert!(q.overflow.is_empty());
        }
    }

    #[test]
    fn trim_gives_back_burst_capacity_once_drained() {
        let hs = handles(8 * BUCKET_KEEP);
        let mut q = RunQueue::new();
        for h in &hs {
            q.push(2, entry(1, *h));
        }
        q.trim();
        assert!(q.capacity() >= hs.len(), "a non-empty queue is left alone");
        q.purge(QueryId(1), |_| {});
        assert!(q.is_empty());
        q.trim();
        assert!(q.capacity() <= 2 * BUCKET_KEEP);
    }
}
