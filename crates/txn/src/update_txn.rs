//! Update transactions: buffered writes, MV2PL locking, commit/abort.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use graphdance_common::{GdError, GdResult, Label, PropKey, Value, VertexId};
use graphdance_storage::Graph;

use crate::lock_table::{LockMode, LockTable, TxnId};
use crate::manager::TxnManager;

/// Shared transaction machinery for one graph: manager + lock table.
///
/// ```
/// # use graphdance_txn::TxnSystem;
/// # use graphdance_common::{Partitioner, VertexId};
/// # use graphdance_storage::{Direction, GraphBuilder};
/// let mut b = GraphBuilder::new(Partitioner::new(1, 2));
/// let person = b.schema_mut().register_vertex_label("Person");
/// let knows = b.schema_mut().register_edge_label("knows");
/// b.add_vertex(VertexId(0), person, vec![]).unwrap();
/// b.add_vertex(VertexId(1), person, vec![]).unwrap();
/// let sys = TxnSystem::new(b.finish());
///
/// // Snapshot before the transaction.
/// let before = sys.read_ts();
/// let mut tx = sys.begin();
/// tx.insert_edge(VertexId(0), knows, VertexId(1), vec![]).unwrap();
/// let committed = tx.commit().unwrap();
///
/// // MVCC: the old snapshot is empty, the new one sees the edge.
/// let g = sys.graph();
/// assert!(g.neighbors(VertexId(0), Direction::Out, knows, before).unwrap().is_empty());
/// assert_eq!(
///     g.neighbors(VertexId(0), Direction::Out, knows, committed).unwrap(),
///     vec![VertexId(1)],
/// );
/// ```
#[derive(Debug)]
pub struct TxnSystem {
    graph: Graph,
    manager: Arc<TxnManager>,
    locks: Arc<LockTable>,
    next_txn_id: AtomicU64,
}

impl TxnSystem {
    /// Wrap a graph with transaction support.
    pub fn new(graph: Graph) -> Self {
        Self::resume_from(graph, 0)
    }

    /// Wrap a *recovered* graph: commit timestamps continue after `lct`
    /// (use together with [`recover`], §IV-C).
    pub fn resume_from(graph: Graph, lct: u64) -> Self {
        Self::with_manager(graph, TxnManager::resume_from(lct))
    }

    /// Wrap a graph around a manager built by the caller — the engine
    /// passes one that broadcasts to its per-node LCT caches
    /// ([`TxnManager::with_caches`]).
    pub fn with_manager(graph: Graph, manager: TxnManager) -> Self {
        TxnSystem {
            graph,
            manager: Arc::new(manager),
            locks: Arc::new(LockTable::default()),
            next_txn_id: AtomicU64::new(1),
        }
    }

    /// The underlying graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The timestamp manager (for LCT reads / broadcasts).
    pub fn manager(&self) -> &Arc<TxnManager> {
        &self.manager
    }

    /// Begin an update transaction.
    pub fn begin(&self) -> UpdateTxn<'_> {
        UpdateTxn {
            sys: self,
            // sync: unique-id allocator, distinctness is all that matters
            id: self.next_txn_id.fetch_add(1, Ordering::Relaxed),
            locked: Vec::new(),
            writes: Vec::new(),
            done: false,
        }
    }

    /// The snapshot timestamp a read-only query should use right now.
    pub fn read_ts(&self) -> u64 {
        self.manager.lct()
    }
}

#[derive(Debug, Clone)]
enum WriteOp {
    InsertVertex {
        v: VertexId,
        label: Label,
        props: Vec<(PropKey, Value)>,
    },
    InsertEdge {
        src: VertexId,
        label: Label,
        dst: VertexId,
        props: Vec<(PropKey, Value)>,
    },
    DeleteEdge {
        src: VertexId,
        label: Label,
        dst: VertexId,
    },
}

/// An in-flight update transaction.
///
/// Writes are buffered and only applied — stamped with the commit
/// timestamp — during [`UpdateTxn::commit`]. Locks are held from first
/// access until commit/abort (strict 2PL). Dropping an uncommitted
/// transaction aborts it.
#[derive(Debug)]
pub struct UpdateTxn<'a> {
    sys: &'a TxnSystem,
    id: TxnId,
    locked: Vec<VertexId>,
    writes: Vec<WriteOp>,
    done: bool,
}

impl<'a> UpdateTxn<'a> {
    /// This transaction's id.
    pub fn id(&self) -> TxnId {
        self.id
    }

    fn x_lock(&mut self, v: VertexId) -> GdResult<()> {
        if self.locked.contains(&v) {
            return Ok(());
        }
        self.sys.locks.lock(self.id, v, LockMode::Exclusive)?;
        self.locked.push(v);
        Ok(())
    }

    /// Will `v` exist once this transaction's buffered writes apply?
    fn sees_vertex(&self, v: VertexId) -> bool {
        self.sys.graph.contains(v)
            || self
                .writes
                .iter()
                .any(|w| matches!(w, WriteOp::InsertVertex { v: w, .. } if *w == v))
    }

    /// Buffer a vertex insertion. Locks the new vertex id to serialize
    /// concurrent inserts of the same id; duplicate ids are rejected here so
    /// that the commit-time apply phase cannot fail.
    pub fn insert_vertex(
        &mut self,
        v: VertexId,
        label: Label,
        props: Vec<(PropKey, Value)>,
    ) -> GdResult<()> {
        self.x_lock(v)?;
        if self.sees_vertex(v) {
            return Err(GdError::TxnAborted(format!("vertex {v:?} already exists")));
        }
        self.writes.push(WriteOp::InsertVertex { v, label, props });
        Ok(())
    }

    /// Buffer an edge insertion. Locks both endpoints; both must exist (or
    /// be created earlier in this transaction).
    pub fn insert_edge(
        &mut self,
        src: VertexId,
        label: Label,
        dst: VertexId,
        props: Vec<(PropKey, Value)>,
    ) -> GdResult<()> {
        self.x_lock(src)?;
        self.x_lock(dst)?;
        if !self.sees_vertex(src) {
            return Err(GdError::VertexNotFound(src));
        }
        if !self.sees_vertex(dst) {
            return Err(GdError::VertexNotFound(dst));
        }
        self.writes.push(WriteOp::InsertEdge {
            src,
            label,
            dst,
            props,
        });
        Ok(())
    }

    /// Buffer an edge deletion. Locks both endpoints.
    pub fn delete_edge(&mut self, src: VertexId, label: Label, dst: VertexId) -> GdResult<()> {
        self.x_lock(src)?;
        self.x_lock(dst)?;
        if !self.sees_vertex(src) {
            return Err(GdError::VertexNotFound(src));
        }
        self.writes.push(WriteOp::DeleteEdge { src, label, dst });
        Ok(())
    }

    /// Commit: allocate a commit timestamp, apply all buffered writes
    /// stamped with it, advance the LCT, and release locks.
    ///
    /// Readers at the LCT can never observe a partial transaction: the LCT
    /// passes this timestamp only after [`TxnManager::finish_commit`], by
    /// which point every write has been applied.
    pub fn commit(mut self) -> GdResult<u64> {
        let ts = self.sys.manager.begin_commit();
        // Every operation was validated at buffer time (while holding the
        // relevant locks), so the apply phase is infallible.
        for w in self.writes.drain(..) {
            let r = match w {
                WriteOp::InsertVertex { v, label, props } => {
                    self.sys.graph.insert_vertex(v, label, props, ts)
                }
                WriteOp::InsertEdge {
                    src,
                    label,
                    dst,
                    props,
                } => self
                    .sys
                    .graph
                    .insert_edge(src, label, dst, props, ts)
                    .map(|_| ()),
                WriteOp::DeleteEdge { src, label, dst } => {
                    self.sys.graph.delete_edge(src, label, dst, ts).map(|_| ())
                }
            };
            r.expect("buffered write validated at buffer time");
        }
        self.sys.manager.finish_commit(ts);
        self.sys.locks.unlock_all(self.id, &self.locked);
        self.done = true;
        Ok(ts)
    }

    /// Abort: drop buffered writes and release locks.
    pub fn abort(mut self) {
        self.release();
    }

    fn release(&mut self) {
        if !self.done {
            self.sys.locks.unlock_all(self.id, &self.locked);
            self.writes.clear();
            self.done = true;
        }
    }
}

impl Drop for UpdateTxn<'_> {
    fn drop(&mut self) {
        self.release();
    }
}

/// Crash recovery (§IV-C): "when the system restarts after a crash, all
/// workers scan the graph data and remove all versions with timestamps
/// larger than LCT."
pub fn recover(graph: &Graph, lct: u64) {
    graph.rollback_after(lct);
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphdance_common::Partitioner;
    use graphdance_storage::{Direction, GraphBuilder};

    fn sys() -> TxnSystem {
        let mut b = GraphBuilder::new(Partitioner::new(2, 2));
        let person = b.schema_mut().register_vertex_label("Person");
        let _knows = b.schema_mut().register_edge_label("knows");
        for i in 0..4u64 {
            b.add_vertex(VertexId(i), person, vec![]).unwrap();
        }
        TxnSystem::new(b.finish())
    }

    fn knows(s: &TxnSystem) -> Label {
        s.graph().schema().edge_label("knows").unwrap()
    }

    #[test]
    fn commit_is_visible_at_new_lct_only() {
        let s = sys();
        let k = knows(&s);
        let ts0 = s.read_ts();
        let mut tx = s.begin();
        tx.insert_edge(VertexId(0), k, VertexId(1), vec![]).unwrap();
        let ts1 = tx.commit().unwrap();
        assert!(ts1 > ts0);
        assert_eq!(s.read_ts(), ts1);
        let g = s.graph();
        assert!(g
            .neighbors(VertexId(0), Direction::Out, k, ts0)
            .unwrap()
            .is_empty());
        assert_eq!(
            g.neighbors(VertexId(0), Direction::Out, k, ts1).unwrap(),
            vec![VertexId(1)]
        );
    }

    #[test]
    fn abort_leaves_no_trace_and_releases_locks() {
        let s = sys();
        let k = knows(&s);
        let mut tx = s.begin();
        tx.insert_edge(VertexId(0), k, VertexId(1), vec![]).unwrap();
        tx.abort();
        assert!(s
            .graph()
            .neighbors(VertexId(0), Direction::Out, k, s.read_ts())
            .unwrap()
            .is_empty());
        // locks released: another txn can lock the same vertices
        let mut tx2 = s.begin();
        tx2.insert_edge(VertexId(0), k, VertexId(1), vec![])
            .unwrap();
        tx2.commit().unwrap();
    }

    #[test]
    fn drop_aborts() {
        let s = sys();
        let k = knows(&s);
        {
            let mut tx = s.begin();
            tx.insert_edge(VertexId(0), k, VertexId(1), vec![]).unwrap();
            // dropped without commit
        }
        let mut tx2 = s.begin();
        tx2.insert_edge(VertexId(0), k, VertexId(1), vec![])
            .unwrap();
        tx2.commit().unwrap();
    }

    #[test]
    fn no_wait_conflict() {
        let s = sys();
        let k = knows(&s);
        let mut t1 = s.begin();
        t1.insert_edge(VertexId(0), k, VertexId(1), vec![]).unwrap();
        let mut t2 = s.begin();
        let err = t2
            .insert_edge(VertexId(1), k, VertexId(2), vec![])
            .unwrap_err();
        assert!(matches!(err, GdError::TxnAborted(_)));
        t1.commit().unwrap();
    }

    #[test]
    fn readers_never_see_partial_txn() {
        // A reader at the LCT sees either none or all of a transaction.
        let s = sys();
        let k = knows(&s);
        let mut tx = s.begin();
        tx.insert_edge(VertexId(0), k, VertexId(1), vec![]).unwrap();
        tx.insert_edge(VertexId(2), k, VertexId(3), vec![]).unwrap();
        // Snapshot taken before commit never includes the writes.
        let before = s.read_ts();
        tx.commit().unwrap();
        let g = s.graph();
        assert!(g
            .neighbors(VertexId(0), Direction::Out, k, before)
            .unwrap()
            .is_empty());
        assert!(g
            .neighbors(VertexId(2), Direction::Out, k, before)
            .unwrap()
            .is_empty());
        let after = s.read_ts();
        assert_eq!(
            g.neighbors(VertexId(0), Direction::Out, k, after)
                .unwrap()
                .len(),
            1
        );
        assert_eq!(
            g.neighbors(VertexId(2), Direction::Out, k, after)
                .unwrap()
                .len(),
            1
        );
    }

    #[test]
    fn vertex_insert_and_recovery() {
        let s = sys();
        let person = s.graph().schema().vertex_label("Person").unwrap();
        let mut tx = s.begin();
        tx.insert_vertex(VertexId(100), person, vec![]).unwrap();
        let ts = tx.commit().unwrap();
        assert!(s.graph().contains(VertexId(100)));
        // Simulate a crash that lost everything after ts - 1.
        recover(s.graph(), ts - 1);
        assert!(!s.graph().contains(VertexId(100)));
    }

    #[test]
    fn concurrent_disjoint_transactions_all_commit() {
        use std::sync::Arc;
        let s = Arc::new(sys());
        let person = s.graph().schema().vertex_label("Person").unwrap();
        let k = knows(&s);
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let s = Arc::clone(&s);
            handles.push(std::thread::spawn(move || {
                for i in 0..50u64 {
                    let id = 1000 + t * 1000 + i;
                    let mut tx = s.begin();
                    tx.insert_vertex(VertexId(id), person, vec![]).unwrap();
                    tx.insert_edge(VertexId(id), k, VertexId(t % 4), vec![])
                        .unwrap_or(());
                    tx.commit().unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(s.graph().total_vertices(), 4 + 4 * 50);
        assert_eq!(s.read_ts(), 4 * 50);
    }
}
