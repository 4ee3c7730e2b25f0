//! The worker's run queues: one per query, served round-robin.
//!
//! **Within a query** — shortest trajectories first (§III-B), FIFO within a
//! depth, O(1) push and pop. A [`RunQueue`] is one FIFO bucket per depth:
//! every push goes to the back of its depth's bucket and every pop takes
//! the front of the lowest non-empty one, so the pop order is exactly that
//! of a `(depth, push sequence number)` min-heap — the order every
//! single-query sim schedule and DST fingerprint was recorded under —
//! without the heap's O(log n) sifts or its per-entry `depth`/`seq` words:
//! the bucket *is* the depth, the position *is* the sequence number, and
//! the queue *is* the query, which leaves the entry the arena handle alone.
//!
//! A quantum takes a query's entries a *run* at a time: the front entries
//! of its shallowest bucket. Staging only same-depth entries keeps the
//! schedule bit-identical to popping one entry at a time: any child
//! spawned mid-run (deeper, or same-depth but pushed later) sorts after
//! every entry already staged.
//!
//! Depths below [`DENSE_DEPTHS`] index a dense vector grown to the deepest
//! depth seen; anything deeper — only a hostile or corrupt frame carries
//! such a depth — lands in an ordered overflow map, one entry per distinct
//! depth, so a decoded `depth = u32::MAX` costs a map node, not a resize.
//!
//! **Across queries** — a [`QueryRing`] holds the queues and a ring of the
//! queries that have runnable traversers. The worker serves the ring's
//! front query for a quantum and sends it to the back if it still has
//! work: plain round-robin, so a nine-step lookup never waits out more
//! than one quantum of each query beside it. With one query in flight the
//! ring has one member and the schedule is the single queue's. One pop of
//! a query, until it is requeued or drained, is a *turn*: the unit obs
//! builds time (DESIGN.md §8), from a stamp taken when the query entered
//! the ring.

use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, VecDeque};

#[cfg(feature = "obs")]
use std::time::Instant;

use graphdance_common::{FxHashMap, QueryId};
use graphdance_pstm::TraverserHandle;

/// Depths indexed densely. Plans in this repo stay below a dozen hops.
pub(crate) const DENSE_DEPTHS: usize = 64;

/// Bucket capacity (entries) kept across queries; what a burst grew beyond
/// it is given back when the queue is retired.
pub(crate) const BUCKET_KEEP: usize = 1024;

/// Retired queues kept, buckets and all, for the next queries to begin:
/// in steady state neither end of a query's life allocates.
pub(crate) const FREE_KEEP: usize = 32;

/// One query's depth-bucketed FIFO of queued traversers' arena handles
/// (see the module docs).
#[derive(Debug, Default)]
pub(crate) struct RunQueue {
    dense: Vec<VecDeque<TraverserHandle>>,
    overflow: BTreeMap<u32, VecDeque<TraverserHandle>>,
    /// No dense bucket below this index holds an entry.
    min: usize,
    len: usize,
    /// When the query last entered the ring (obs builds): its next turn's
    /// queue wait runs from here.
    #[cfg(feature = "obs")]
    pub ringed_at: Option<Instant>,
}

impl RunQueue {
    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub fn push(&mut self, depth: u32, handle: TraverserHandle) {
        let d = depth as usize;
        if d < DENSE_DEPTHS {
            if d >= self.dense.len() {
                self.dense.resize_with(d + 1, VecDeque::new);
            }
            self.dense[d].push_back(handle);
            self.min = self.min.min(d);
        } else {
            self.overflow.entry(depth).or_default().push_back(handle);
        }
        self.len += 1;
    }

    /// Pop the next *run* — the front entries of the shallowest non-empty
    /// bucket, at most `budget`, in pop order — into `run` (cleared first).
    /// Returns `false` when the queue is empty or `budget` is zero.
    pub fn stage_run(&mut self, budget: usize, run: &mut Vec<TraverserHandle>) -> bool {
        run.clear();
        if self.len == 0 || budget == 0 {
            return false;
        }
        while self.min < self.dense.len() && self.dense[self.min].is_empty() {
            self.min += 1;
        }
        match self.dense.get_mut(self.min) {
            Some(bucket) => drain_run(bucket, budget, run),
            None => {
                // Entries remain and no dense bucket holds one.
                let Some(mut deepest) = self.overflow.first_entry() else {
                    return false;
                };
                drain_run(deepest.get_mut(), budget, run);
                if deepest.get().is_empty() {
                    deepest.remove();
                }
            }
        }
        self.len -= run.len();
        true
    }

    /// Empty the queue, handing each entry to `removed`, and give back
    /// bucket storage beyond [`BUCKET_KEEP`] (once per query, not per
    /// traverser).
    fn clear(&mut self, mut removed: impl FnMut(TraverserHandle)) {
        for b in &mut self.dense {
            b.drain(..).for_each(&mut removed);
            b.shrink_to(BUCKET_KEEP);
        }
        for b in std::mem::take(&mut self.overflow).into_values() {
            b.into_iter().for_each(&mut removed);
        }
        (self.min, self.len) = (0, 0);
    }

    /// Total bucket capacity in entries (storage-bound tests).
    #[cfg(test)]
    fn capacity(&self) -> usize {
        let dense: usize = self.dense.iter().map(VecDeque::capacity).sum();
        let overflow: usize = self.overflow.values().map(VecDeque::capacity).sum();
        dense + overflow
    }
}

/// Move the front of `bucket`, at most `budget` entries, into `run`.
fn drain_run(
    bucket: &mut VecDeque<TraverserHandle>,
    budget: usize,
    run: &mut Vec<TraverserHandle>,
) {
    run.extend(bucket.drain(..budget.min(bucket.len())));
}

/// Every begun query's [`RunQueue`] and the service order among them.
///
/// `ring` lists exactly the queries whose queue is non-empty, next to be
/// served first — except the one query [`QueryRing::pop`] has handed out,
/// which the worker either [`QueryRing::requeue`]s or finds drained.
#[derive(Debug, Default)]
pub(crate) struct QueryRing {
    queues: FxHashMap<QueryId, RunQueue>,
    ring: VecDeque<QueryId>,
    /// Retired queues awaiting reuse, at most [`FREE_KEEP`].
    free: Vec<RunQueue>,
}

impl QueryRing {
    /// Does no query have a runnable traverser?
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Does `query` have a queue here, empty or not?
    pub fn holds(&self, query: QueryId) -> bool {
        self.queues.contains_key(&query)
    }

    /// Queued traversers across all queries.
    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.queues.values().map(RunQueue::len).sum()
    }

    /// Let `fill` push onto `query`'s queue (taken from the free list on
    /// the query's first use) and enrol the query at the back of the ring
    /// if that made it runnable — stamped, in obs builds, as it enters.
    /// Not for a query that is out for service.
    pub fn admit<R>(&mut self, query: QueryId, fill: impl FnOnce(&mut RunQueue) -> R) -> R {
        let queue = match self.queues.entry(query) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(e) => e.insert(self.free.pop().unwrap_or_default()),
        };
        let was_idle = queue.is_empty();
        let filled = fill(queue);
        if was_idle && !queue.is_empty() {
            #[cfg(feature = "obs")]
            {
                queue.ringed_at = Some(graphdance_common::time::now());
            }
            self.ring.push_back(query);
        }
        filled
    }

    /// Take the ring's front query out for one quantum of service.
    pub fn pop(&mut self) -> Option<(QueryId, &mut RunQueue)> {
        let query = self.ring.pop_front()?;
        // Every ringed query has a queue: `retire` removes both together.
        Some((query, self.queues.get_mut(&query)?))
    }

    /// The quantum ended with `query` (from [`QueryRing::pop`]) still
    /// runnable: to the back of the ring. (Obs builds stamp its entry with
    /// the end of the turn that just ran.)
    pub fn requeue(&mut self, query: QueryId) {
        self.ring.push_back(query);
    }

    /// `query` ended or was cancelled: hand each of its queued entries to
    /// `removed`, drop it from the ring and recycle its queue. No other
    /// query's entries or ring position are touched.
    pub fn retire(&mut self, query: QueryId, removed: impl FnMut(TraverserHandle)) {
        let Some(mut queue) = self.queues.remove(&query) else {
            return;
        };
        if !queue.is_empty() {
            self.ring.retain(|q| *q != query);
        }
        queue.clear(removed);
        if self.free.len() < FREE_KEEP {
            self.free.push(queue);
        }
    }
}

#[cfg(test)]
impl QueryRing {
    /// Total bucket capacity in entries, live and recycled queues alike
    /// (storage-bound tests).
    pub fn capacity(&self) -> usize {
        let all = self.queues.values().chain(&self.free);
        all.map(RunQueue::capacity).sum()
    }

    /// Recycled queues held for reuse.
    pub fn free_queues(&self) -> usize {
        self.free.len()
    }
}

#[cfg(test)]
mod tests {
    use std::cmp::Reverse;
    use std::collections::{BTreeSet, BinaryHeap};

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

    fn id_of(h: TraverserHandle) -> usize {
        h.slot() as usize
    }

    fn drain(q: &mut RunQueue) -> Vec<TraverserHandle> {
        let mut run = Vec::new();
        let mut order = Vec::new();
        while q.stage_run(1, &mut run) {
            order.push(run[0]);
        }
        order
    }

    #[test]
    fn queue_orders_by_depth_then_fifo() {
        let hs = handles(4);
        let mut q = RunQueue::default();
        for (depth, h) in [(2, hs[0]), (0, hs[1]), (1, hs[2]), (0, hs[3])] {
            q.push(depth, h);
        }
        assert_eq!(drain(&mut q), vec![hs[1], hs[3], hs[2], hs[0]]);
        assert!(q.is_empty());
    }

    #[test]
    fn hostile_depths_cost_one_overflow_bucket_each() {
        let hs = handles(3);
        let mut q = RunQueue::default();
        q.push(u32::MAX, hs[0]);
        q.push(DENSE_DEPTHS as u32, hs[1]);
        q.push(3, hs[2]);
        assert_eq!(
            q.dense.len(),
            4,
            "grown to the dense depth seen, no further"
        );
        assert_eq!(q.overflow.len(), 2);
        assert!(q.capacity() < 64);
        assert_eq!(drain(&mut q), vec![hs[2], hs[1], hs[0]]);
        assert!(q.overflow.is_empty(), "drained overflow buckets are freed");
    }

    #[derive(Clone, Debug)]
    enum Op {
        Push { depth: u32, query: u64 },
        Quantum { budget: usize },
        Retire { query: u64 },
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
            5..=8 => Op::Quantum { budget },
            _ => Op::Retire { query },
        })
    }

    /// The reference for one query: the `(depth, seq)` min-heap the worker
    /// used to keep, staged the way the worker stages — same depth, in pop
    /// order, up to the budget.
    #[derive(Default)]
    struct Model {
        heap: BinaryHeap<Reverse<(u32, u64, usize)>>,
    }

    impl Model {
        fn run(&mut self, budget: usize) -> Vec<usize> {
            let Some(&Reverse((depth, _, _))) = self.heap.peek() else {
                return Vec::new();
            };
            let mut out = Vec::new();
            while out.len() < budget {
                match self.heap.peek() {
                    Some(&Reverse((d, _, id))) if d == depth => {
                        self.heap.pop();
                        out.push(id);
                    }
                    _ => break,
                }
            }
            out
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Under any interleaving of push / quantum / retire across three
        /// queries:
        ///
        /// * each query's staged runs are the pops of its *own* `(depth,
        ///   seq)` heap — what another query pushes, runs or loses never
        ///   reorders them;
        /// * the ring is fair — while a query waits runnable, every other
        ///   query is served at most once (so none is skipped, and a
        ///   quantum never idles past a runnable query);
        /// * retiring a query yields exactly its queued entries.
        #[test]
        fn pops_in_heap_order_per_query_and_the_ring_is_fair(
            ops in prop::collection::vec(op(), 1..200),
        ) {
            let hs = handles(ops.len());
            let mut ring = QueryRing::default();
            let mut models: [Model; 3] = Default::default();
            // Per waiting query: who has been served since it last was
            // (or since it became runnable).
            let mut served_since: [Option<BTreeSet<u64>>; 3] = Default::default();
            let mut run = Vec::new();
            for (i, op) in ops.iter().enumerate() {
                match *op {
                    Op::Push { depth, query } => {
                        ring.admit(QueryId(query), |q| q.push(depth, hs[i]));
                        models[query as usize].heap.push(Reverse((depth, i as u64, i)));
                        served_since[query as usize].get_or_insert_with(BTreeSet::new);
                    }
                    // The worker's quantum: serve the front query run by
                    // run; move on if it drains with budget left.
                    Op::Quantum { budget } => {
                        let mut executed = 0;
                        while executed < budget {
                            let Some((QueryId(query), queue)) = ring.pop() else {
                                prop_assert!(models.iter().all(|m| m.heap.is_empty()));
                                break;
                            };
                            for (other, seen) in served_since.iter_mut().enumerate() {
                                if let (true, Some(seen)) = (other as u64 != query, seen) {
                                    prop_assert!(seen.insert(query), "{query} served twice past {other}");
                                }
                            }
                            loop {
                                let left = budget - executed;
                                if !queue.stage_run(left, &mut run) {
                                    break;
                                }
                                executed += run.len();
                                let got: Vec<usize> = run.iter().map(|h| id_of(*h)).collect();
                                prop_assert_eq!(got, models[query as usize].run(left));
                            }
                            served_since[query as usize] = if queue.is_empty() {
                                None
                            } else {
                                ring.requeue(QueryId(query));
                                Some(BTreeSet::new())
                            };
                        }
                    }
                    Op::Retire { query } => {
                        let mut gone = Vec::new();
                        ring.retire(QueryId(query), |h| gone.push(id_of(h)));
                        gone.sort_unstable();
                        let mut want: Vec<usize> =
                            models[query as usize].heap.drain().map(|Reverse((_, _, id))| id).collect();
                        want.sort_unstable();
                        prop_assert_eq!(gone, want);
                        served_since[query as usize] = None;
                    }
                }
                prop_assert_eq!(ring.len(), models.iter().map(|m| m.heap.len()).sum::<usize>());
                let runnable = models.iter().filter(|m| !m.heap.is_empty()).count();
                prop_assert_eq!(ring.ring.len(), runnable);
            }
            prop_assert!(ring.free_queues() <= FREE_KEEP);
        }
    }

    #[test]
    fn retiring_gives_back_burst_capacity_and_recycles_the_queue() {
        let hs = handles(8 * BUCKET_KEEP);
        let mut ring = QueryRing::default();
        ring.admit(QueryId(1), |q| hs.iter().for_each(|h| q.push(2, *h)));
        ring.admit(QueryId(2), |q| q.push(0, hs[0]));
        assert!(ring.capacity() >= hs.len());
        let mut gone = 0;
        ring.retire(QueryId(1), |_| gone += 1);
        assert_eq!(gone, hs.len());
        assert!(ring.capacity() <= 2 * BUCKET_KEEP);
        // The other query keeps its entry and its place; the retired
        // queue's buckets serve the next query to begin.
        assert_eq!((ring.len(), ring.free_queues()), (1, 1));
        ring.admit(QueryId(3), |q| q.push(2, hs[1]));
        assert_eq!(ring.free_queues(), 0);
        let order: Vec<u64> = std::iter::from_fn(|| ring.pop().map(|(q, _)| q.0)).collect();
        assert_eq!(order, vec![2, 3]);
    }
}
