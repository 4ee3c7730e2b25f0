//! The centralized transaction manager and the broadcast LCT cache (§IV-C).

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use graphdance_storage::Timestamp;

/// Centralized transaction manager.
///
/// Assigns monotonically increasing commit timestamps to update transactions
/// and maintains the **last commit timestamp** (LCT): the largest timestamp
/// such that *every* transaction at or below it has finished applying its
/// writes. Commit timestamps may finish out of order; the LCT only advances
/// past a timestamp once no earlier transaction is still in flight.
#[derive(Debug)]
pub struct TxnManager {
    inner: Mutex<ManagerState>,
    lct: AtomicU64,
    /// The per-node caches every LCT advance is pushed to (§IV-C's
    /// broadcast); empty for a manager nobody reads through a cache.
    caches: Arc<[LctCache]>,
}

#[derive(Debug)]
struct ManagerState {
    next_ts: Timestamp,
    inflight: BTreeSet<Timestamp>,
}

impl Default for TxnManager {
    fn default() -> Self {
        Self::new()
    }
}

impl TxnManager {
    /// A fresh manager. Timestamp 0 is reserved for bulk-loaded data, so the
    /// first commit gets timestamp 1 and the initial LCT is 0.
    pub fn new() -> Self {
        Self::resume_from(0)
    }

    /// A manager resuming after recovery: the next commit timestamp follows
    /// the recovered LCT, so post-restart commits never collide with
    /// pre-crash history (§IV-C).
    pub fn resume_from(lct: Timestamp) -> Self {
        Self::with_caches(lct, Arc::new([]))
    }

    /// A manager that broadcasts to `caches`: they are brought up to `lct`
    /// here and to every later LCT inside [`TxnManager::finish_commit`],
    /// so a client whose commit has returned finds it in every cache.
    pub fn with_caches(lct: Timestamp, caches: Arc<[LctCache]>) -> Self {
        caches.iter().for_each(|c| c.publish(lct));
        TxnManager {
            inner: Mutex::new(ManagerState {
                next_ts: lct + 1,
                inflight: BTreeSet::new(),
            }),
            lct: AtomicU64::new(lct),
            caches,
        }
    }

    /// Enter the commit phase: allocate this transaction's commit timestamp.
    /// The caller must later call [`TxnManager::finish_commit`] with the
    /// returned timestamp (even on failure, after undoing its writes).
    pub fn begin_commit(&self) -> Timestamp {
        let mut s = self.inner.lock();
        let ts = s.next_ts;
        s.next_ts += 1;
        s.inflight.insert(ts);
        ts
    }

    /// Mark a commit timestamp fully applied, advance the LCT as far as
    /// possible and broadcast it to the node caches.
    pub fn finish_commit(&self, ts: Timestamp) {
        let mut s = self.inner.lock();
        let removed = s.inflight.remove(&ts);
        debug_assert!(removed, "finish_commit({ts}) without begin_commit");
        let new_lct = match s.inflight.iter().next() {
            Some(&oldest_inflight) => oldest_inflight - 1,
            None => s.next_ts - 1,
        };
        // LCT is monotone: it can only move forward.
        // sync: Release pairs with the Acquire in lct(): a reader that
        // observes the new LCT also observes the version writes this
        // commit published before advancing it
        self.lct.fetch_max(new_lct, Ordering::Release);
        self.caches.iter().for_each(|c| c.publish(new_lct));
    }

    /// Current LCT (authoritative). Read-only queries normally go through a
    /// node-local [`LctCache`] instead, to keep load off this manager.
    #[inline]
    pub fn lct(&self) -> Timestamp {
        // sync: Acquire pairs with the Release fetch_max in
        // finish_commit — see the happens-before note there
        self.lct.load(Ordering::Acquire)
    }
}

/// A node-local cache of the broadcast LCT (§IV-C: "the LCT is broadcast to
/// all worker nodes; a read-only query can fetch the LCT from any worker
/// node as its read timestamp without consulting the transaction manager").
///
/// The broadcast is a push: [`TxnManager::finish_commit`] publishes every
/// LCT advance to the caches it was built with. A reader racing a commit
/// may see the previous — always consistent — snapshot timestamp.
#[derive(Debug, Default)]
pub struct LctCache {
    cached: AtomicU64,
}

impl LctCache {
    /// A cache starting at the bulk timestamp.
    pub fn new() -> Self {
        Self::default()
    }

    /// Receive a broadcast: adopt the given LCT if it is newer.
    pub fn publish(&self, lct: Timestamp) {
        // sync: Release re-publish keeps the manager's Release→Acquire
        // chain intact for read_ts() readers on this node
        self.cached.fetch_max(lct, Ordering::Release);
    }

    /// The read timestamp a read-only query on this node should use.
    #[inline]
    pub fn read_ts(&self) -> Timestamp {
        // sync: Acquire pairs with the Release in publish(); the chain
        // back to finish_commit makes the snapshot at this ts complete
        self.cached.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resume_continues_past_recovered_lct() {
        let m = TxnManager::resume_from(41);
        assert_eq!(m.lct(), 41);
        let ts = m.begin_commit();
        assert_eq!(ts, 42);
        m.finish_commit(ts);
        assert_eq!(m.lct(), 42);
    }

    #[test]
    fn fresh_manager_state() {
        let m = TxnManager::new();
        assert_eq!(m.lct(), 0);
        assert_eq!(m.begin_commit(), 1);
        assert_eq!(m.begin_commit(), 2);
    }

    #[test]
    fn lct_advances_in_order() {
        let m = TxnManager::new();
        let t1 = m.begin_commit();
        m.finish_commit(t1);
        assert_eq!(m.lct(), 1);
        let t2 = m.begin_commit();
        let t3 = m.begin_commit();
        m.finish_commit(t2);
        assert_eq!(m.lct(), 2, "t3 still in flight");
        m.finish_commit(t3);
        assert_eq!(m.lct(), 3);
    }

    #[test]
    fn lct_waits_for_oldest_inflight() {
        let m = TxnManager::new();
        let t1 = m.begin_commit();
        let t2 = m.begin_commit();
        let t3 = m.begin_commit();
        // Finish out of order: 3, then 2, then 1.
        m.finish_commit(t3);
        assert_eq!(m.lct(), 0, "t1 and t2 still applying");
        m.finish_commit(t2);
        assert_eq!(m.lct(), 0, "t1 still applying");
        m.finish_commit(t1);
        assert_eq!(m.lct(), 3, "all applied, jump to 3");
    }

    #[test]
    fn cache_is_monotone() {
        let c = LctCache::new();
        assert_eq!(c.read_ts(), 0);
        c.publish(1);
        assert_eq!(c.read_ts(), 1);
        // publishing an older value is a no-op
        c.publish(0);
        assert_eq!(c.read_ts(), 1);
    }

    #[test]
    fn finish_commit_pushes_the_lct_to_every_cache() {
        let caches: Arc<[LctCache]> = (0..3).map(|_| LctCache::new()).collect();
        let m = TxnManager::with_caches(4, Arc::clone(&caches));
        assert!(caches.iter().all(|c| c.read_ts() == 4), "recovered LCT");
        let (t5, t6) = (m.begin_commit(), m.begin_commit());
        m.finish_commit(t6);
        assert!(caches.iter().all(|c| c.read_ts() == 4), "t5 in flight");
        m.finish_commit(t5);
        assert!(caches.iter().all(|c| c.read_ts() == 6));
    }

    #[test]
    fn concurrent_commits_produce_consistent_lct() {
        let m = Arc::new(TxnManager::new());
        let mut handles = Vec::new();
        for _ in 0..8 {
            let m = Arc::clone(&m);
            handles.push(std::thread::spawn(move || {
                for _ in 0..500 {
                    let ts = m.begin_commit();
                    m.finish_commit(ts);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(m.lct(), 8 * 500);
    }
}
