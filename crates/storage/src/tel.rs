//! Transactional Edge Log (TEL) — multi-version adjacency lists.
//!
//! Following §IV-C of the PSTM paper (and the LiveGraph design it cites), the
//! adjacency list of each vertex is an append-only log whose entries embed
//! the creation and deletion timestamps of the edge. A reader at timestamp
//! `ts` finds all visible edges in **one sequential scan**: an entry is
//! visible iff `create_ts <= ts < delete_ts`. Deleting an edge never rewrites
//! history — it stamps the live entry's `delete_ts`.
//!
//! Crash recovery (§IV-C): after a restart, all entries with timestamps
//! greater than the last-commit timestamp (LCT) are rolled back by
//! [`TelList::rollback_after`], restoring exactly the committed state.

use graphdance_common::{EdgeId, Label, PropKey, Value, VertexId};

/// Logical commit timestamp. `0` is reserved for bulk-loaded data.
pub type Timestamp = u64;

/// Timestamp assigned to bulk-loaded (pre-history) edges.
pub const TS_BULK: Timestamp = 0;

/// `delete_ts` of a live (not yet deleted) edge.
pub const TS_LIVE: Timestamp = u64::MAX;

/// One entry of a vertex's edge log.
#[derive(Debug, Clone)]
pub struct TelEntry {
    /// Edge label.
    pub label: Label,
    /// The neighbouring vertex (destination for out-logs, source for
    /// in-logs).
    pub other: VertexId,
    /// Edge identifier, shared by the out- and in-log mirror entries.
    pub eid: EdgeId,
    /// Creation timestamp (embedded, §IV-C).
    pub create_ts: Timestamp,
    /// Deletion timestamp; [`TS_LIVE`] while the edge is live.
    pub delete_ts: Timestamp,
    /// Edge properties (usually zero or one entry, e.g. `creationDate`).
    pub props: Vec<(PropKey, Value)>,
}

impl TelEntry {
    /// Is this entry visible to a reader at `ts`?
    #[inline]
    pub fn visible_at(&self, ts: Timestamp) -> bool {
        self.create_ts <= ts && ts < self.delete_ts
    }

    /// Read an edge property.
    pub fn prop(&self, key: PropKey) -> Option<&Value> {
        self.props.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }
}

/// The edge log of one vertex (one direction).
#[derive(Debug, Default, Clone)]
pub struct TelList {
    entries: Vec<TelEntry>,
}

impl TelList {
    /// Empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a new edge version. O(1).
    pub fn insert(
        &mut self,
        label: Label,
        other: VertexId,
        eid: EdgeId,
        create_ts: Timestamp,
        props: Vec<(PropKey, Value)>,
    ) {
        self.entries.push(TelEntry {
            label,
            other,
            eid,
            create_ts,
            delete_ts: TS_LIVE,
            props,
        });
    }

    /// Mark the live `(label, other)` edge deleted at `ts`. Returns `true`
    /// if a live entry was found. Scans backwards because the live version
    /// is usually the most recent append.
    pub fn delete(&mut self, label: Label, other: VertexId, ts: Timestamp) -> bool {
        for e in self.entries.iter_mut().rev() {
            if e.label == label && e.other == other && e.delete_ts == TS_LIVE {
                e.delete_ts = ts;
                return true;
            }
        }
        false
    }

    /// Sequentially scan the visible edges at `ts`, optionally filtered by
    /// label ([`Label::ANY`] matches everything). This is the single-scan
    /// visibility check the TEL design exists for.
    pub fn scan_visible(
        &self,
        label: Label,
        ts: Timestamp,
    ) -> impl Iterator<Item = &TelEntry> + '_ {
        self.entries
            .iter()
            .filter(move |e| (label == Label::ANY || e.label == label) && e.visible_at(ts))
    }

    /// Count of visible edges at `ts` with `label`.
    pub fn degree(&self, label: Label, ts: Timestamp) -> usize {
        self.scan_visible(label, ts).count()
    }

    /// Total number of log entries (all versions). Used by recovery tests
    /// and memory accounting.
    pub fn len_versions(&self) -> usize {
        self.entries.len()
    }

    /// Crash recovery: drop every effect with a timestamp greater than
    /// `lct`. Entries created after `lct` are removed; deletions stamped
    /// after `lct` are reverted to live.
    pub fn rollback_after(&mut self, lct: Timestamp) {
        self.entries.retain(|e| e.create_ts <= lct);
        for e in &mut self.entries {
            if e.delete_ts != TS_LIVE && e.delete_ts > lct {
                e.delete_ts = TS_LIVE;
            }
        }
    }

    /// Approximate heap bytes used by this log (for the Table II "raw size"
    /// report).
    pub fn approx_bytes(&self) -> usize {
        self.entries.len() * size_of::<TelEntry>()
            + self
                .entries
                .iter()
                .map(|e| e.props.capacity() * size_of::<(PropKey, Value)>())
                .sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l(x: u16) -> Label {
        Label(x)
    }
    fn v(x: u64) -> VertexId {
        VertexId(x)
    }

    #[test]
    fn insert_and_scan() {
        let mut t = TelList::new();
        t.insert(l(0), v(1), EdgeId(1), TS_BULK, vec![]);
        t.insert(l(1), v(2), EdgeId(2), TS_BULK, vec![]);
        let out: Vec<_> = t.scan_visible(l(0), 5).map(|e| e.other).collect();
        assert_eq!(out, vec![v(1)]);
        let all: Vec<_> = t.scan_visible(Label::ANY, 5).map(|e| e.other).collect();
        assert_eq!(all, vec![v(1), v(2)]);
    }

    #[test]
    fn visibility_window() {
        let mut t = TelList::new();
        t.insert(l(0), v(1), EdgeId(1), 10, vec![]);
        assert!(t.delete(l(0), v(1), 20));
        assert_eq!(t.scan_visible(l(0), 9).count(), 0, "before creation");
        assert_eq!(t.scan_visible(l(0), 10).count(), 1, "at creation");
        assert_eq!(t.scan_visible(l(0), 19).count(), 1, "before deletion");
        assert_eq!(t.scan_visible(l(0), 20).count(), 0, "at deletion");
        assert_eq!(t.scan_visible(l(0), 100).count(), 0, "after deletion");
    }

    #[test]
    fn delete_targets_live_version_only() {
        let mut t = TelList::new();
        t.insert(l(0), v(1), EdgeId(1), 1, vec![]);
        assert!(t.delete(l(0), v(1), 5));
        // re-insert the same logical edge
        t.insert(l(0), v(1), EdgeId(2), 8, vec![]);
        assert!(t.delete(l(0), v(1), 9));
        // both versions are dead now; a third delete finds nothing
        assert!(!t.delete(l(0), v(1), 10));
        assert_eq!(t.len_versions(), 2);
        // time-travel reads still see each version in its window
        assert_eq!(t.scan_visible(l(0), 3).count(), 1);
        assert_eq!(t.scan_visible(l(0), 6).count(), 0);
        assert_eq!(t.scan_visible(l(0), 8).count(), 1);
    }

    #[test]
    fn delete_missing_edge_returns_false() {
        let mut t = TelList::new();
        t.insert(l(0), v(1), EdgeId(1), 1, vec![]);
        assert!(!t.delete(l(1), v(1), 2), "wrong label");
        assert!(!t.delete(l(0), v(9), 2), "wrong endpoint");
    }

    #[test]
    fn rollback_after_crash() {
        let mut t = TelList::new();
        t.insert(l(0), v(1), EdgeId(1), 5, vec![]);
        t.insert(l(0), v(2), EdgeId(2), 15, vec![]); // uncommitted (after LCT)
        t.delete(l(0), v(1), 18); // uncommitted deletion
        t.rollback_after(10);
        assert_eq!(t.len_versions(), 1);
        let e: Vec<_> = t.scan_visible(l(0), 10).map(|e| e.other).collect();
        assert_eq!(e, vec![v(1)], "committed edge restored to live");
    }

    #[test]
    fn degree_counts_visible_only() {
        let mut t = TelList::new();
        for i in 0..5 {
            t.insert(l(0), v(i), EdgeId(i), 1, vec![]);
        }
        t.delete(l(0), v(0), 2);
        t.delete(l(0), v(1), 2);
        assert_eq!(t.degree(l(0), 1), 5);
        assert_eq!(t.degree(l(0), 2), 3);
    }

    #[test]
    fn edge_props_readable() {
        let mut t = TelList::new();
        let key = PropKey(3);
        t.insert(l(0), v(1), EdgeId(1), 1, vec![(key, Value::Int(2010))]);
        let e = t.scan_visible(l(0), 1).next().unwrap();
        assert_eq!(e.prop(key), Some(&Value::Int(2010)));
        assert_eq!(e.prop(PropKey(9)), None);
    }
}
