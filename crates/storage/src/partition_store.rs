//! A single graph partition: vertex records, TEL adjacency in both
//! directions, and secondary property indexes.
//!
//! One partition is owned by exactly one worker in the PSTM engine
//! (shared-nothing, §IV), so none of the methods here take internal locks —
//! callers synchronize at the partition granularity.

use graphdance_common::value::ValueKey;
use graphdance_common::{
    EdgeId, FxHashMap, FxHashSet, GdError, GdResult, Label, PartId, PropKey, Value, VertexId,
};

use crate::tel::{TelEntry, TelList, Timestamp};

/// Edge traversal direction.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum Direction {
    /// Follow edges from source to destination.
    Out,
    /// Follow edges from destination to source.
    In,
    /// Follow edges in both directions (undirected traversal, e.g. `knows`).
    Both,
}

/// A vertex's label, creation time, and property row.
#[derive(Debug, Clone)]
pub struct VertexRecord {
    /// Vertex label.
    pub label: Label,
    /// Creation timestamp ([`crate::tel::TS_BULK`] for bulk-loaded data).
    pub create_ts: Timestamp,
    /// Property row, sorted by key for binary-search reads.
    pub props: Vec<(PropKey, Value)>,
}

impl VertexRecord {
    /// Read one property.
    pub fn prop(&self, key: PropKey) -> Option<&Value> {
        self.props
            .binary_search_by_key(&key, |(k, _)| *k)
            .ok()
            .map(|i| &self.props[i].1)
    }
}

/// A borrowed view of one adjacency-list entry plus its direction-resolved
/// neighbour.
#[derive(Debug, Clone, Copy)]
pub struct EdgeRef<'a> {
    /// The underlying log entry.
    pub entry: &'a TelEntry,
    /// The neighbour vertex reached by following this edge in the requested
    /// direction.
    pub neighbor: VertexId,
    /// Direction this edge was traversed in (`Out` or `In`; never `Both`).
    pub dir: Direction,
}

/// TEL access statistics for one partition (obs builds only). Scans run
/// under `&self`, so the histogram uses the shared (atomic) recorder; edge
/// scans are partition-local, making contention a non-issue.
#[cfg(feature = "obs")]
#[derive(Debug, Default)]
pub struct ScanStats {
    /// Versions walked per [`GraphPartition::edges`] call (both directions),
    /// i.e. TEL scan length including entries filtered by label/visibility.
    pub scan_len: graphdance_obs::SharedHistogram,
}

/// A migrating vertex's portable state: its record plus both TEL
/// adjacency logs, cloned at freeze time and shipped to the destination
/// partition in a `MigrateInstall` control message (DESIGN.md §14).
#[derive(Debug, Clone)]
pub struct VertexSegment {
    /// The vertex being migrated.
    pub v: VertexId,
    /// Label, creation timestamp, property row.
    pub record: VertexRecord,
    /// Out-adjacency TEL (all versions — MVCC history travels with the
    /// vertex).
    pub out: TelList,
    /// In-adjacency TEL.
    pub inn: TelList,
}

/// One graph partition (see module docs).
#[derive(Debug)]
pub struct GraphPartition {
    part: PartId,
    /// VertexId -> local dense index.
    idx: FxHashMap<VertexId, u32>,
    /// local index -> VertexId.
    vids: Vec<VertexId>,
    records: Vec<VertexRecord>,
    out: Vec<TelList>,
    inn: Vec<TelList>,
    /// (label, key) -> value -> local indexes; built explicitly.
    prop_index: FxHashMap<(Label, PropKey), FxHashMap<ValueKey, Vec<u32>>>,
    /// label -> local indexes, for label scans.
    label_index: FxHashMap<Label, Vec<u32>>,
    /// Count of live (bulk + committed) directed edges stored on the out side.
    out_edge_count: u64,
    /// Vertices frozen for migration: reads still serve (queries pinned
    /// at pre-commit routing versions execute here), writes abort.
    frozen: FxHashSet<VertexId>,
    /// TEL scan-length statistics (obs builds only).
    #[cfg(feature = "obs")]
    scan_stats: ScanStats,
}

impl GraphPartition {
    /// Create an empty partition.
    pub fn new(part: PartId) -> Self {
        GraphPartition {
            part,
            idx: FxHashMap::default(),
            vids: Vec::new(),
            records: Vec::new(),
            out: Vec::new(),
            inn: Vec::new(),
            prop_index: FxHashMap::default(),
            label_index: FxHashMap::default(),
            out_edge_count: 0,
            frozen: FxHashSet::default(),
            #[cfg(feature = "obs")]
            scan_stats: ScanStats::default(),
        }
    }

    /// TEL scan statistics recorded by this partition (obs builds only).
    #[cfg(feature = "obs")]
    pub fn scan_stats(&self) -> &ScanStats {
        &self.scan_stats
    }

    /// This partition's id.
    pub fn part(&self) -> PartId {
        self.part
    }

    /// Number of vertices stored here (all versions).
    pub fn num_vertices(&self) -> usize {
        self.vids.len()
    }

    /// Number of out-edges stored here (live entries at insert time).
    pub fn num_out_edges(&self) -> u64 {
        self.out_edge_count
    }

    /// Does the partition contain `v` (regardless of creation time)?
    #[inline]
    pub fn contains(&self, v: VertexId) -> bool {
        self.idx.contains_key(&v)
    }

    #[inline]
    fn local(&self, v: VertexId) -> GdResult<u32> {
        self.idx.get(&v).copied().ok_or(GdError::VertexNotFound(v))
    }

    /// Insert a vertex. Properties may arrive in any order; the row is kept
    /// sorted. Returns an error if the vertex already exists.
    pub fn insert_vertex(
        &mut self,
        v: VertexId,
        label: Label,
        mut props: Vec<(PropKey, Value)>,
        ts: Timestamp,
    ) -> GdResult<()> {
        if self.idx.contains_key(&v) {
            return Err(GdError::Internal(format!("duplicate vertex {v:?}")));
        }
        props.sort_unstable_by_key(|(k, _)| *k);
        let li = self.vids.len() as u32;
        self.idx.insert(v, li);
        self.vids.push(v);
        self.records.push(VertexRecord {
            label,
            create_ts: ts,
            props,
        });
        self.out.push(TelList::new());
        self.inn.push(TelList::new());
        self.label_index.entry(label).or_default().push(li);
        // Keep any existing prop indexes for this label up to date.
        let indexed: Vec<(Label, PropKey)> = self
            .prop_index
            .keys()
            .filter(|(l, _)| *l == label)
            .copied()
            .collect();
        for (ilabel, key) in indexed {
            if let Some(val) = self.records[li as usize].prop(key) {
                let gk = val.group_key();
                self.prop_index
                    .get_mut(&(ilabel, key))
                    // The key set was collected from this same map above.
                    .expect("key collected from map") // lint: allow(hot-path-panics)
                    .entry(gk)
                    .or_default()
                    .push(li);
            }
        }
        Ok(())
    }

    /// The record of `v`.
    pub fn vertex(&self, v: VertexId) -> GdResult<&VertexRecord> {
        Ok(&self.records[self.local(v)? as usize])
    }

    #[inline]
    fn check_unfrozen(&self, v: VertexId) -> GdResult<()> {
        if self.frozen.contains(&v) {
            return Err(GdError::TxnAborted(format!(
                "vertex {v:?} is frozen for migration"
            )));
        }
        Ok(())
    }

    /// Pre-check that neither endpoint of an edge write is frozen (used
    /// by `Graph::insert_edge`/`delete_edge` before the first side is
    /// written, so a frozen endpoint cannot leave a half-written edge).
    pub fn check_unfrozen_pair(&self, a: VertexId, b: VertexId) -> GdResult<()> {
        self.check_unfrozen(a)?;
        self.check_unfrozen(b)
    }

    /// Is `v` frozen for migration (writes abort, reads still serve)?
    #[inline]
    pub fn is_frozen(&self, v: VertexId) -> bool {
        self.frozen.contains(&v)
    }

    /// Freeze `v` for migration: subsequent writes to it abort with
    /// `TxnAborted` until the frozen copy is purged (stub retirement) or
    /// [`unfreeze_vertex`](Self::unfreeze_vertex) rolls the migration back.
    pub fn freeze_vertex(&mut self, v: VertexId) -> GdResult<()> {
        self.local(v)?;
        self.frozen.insert(v);
        Ok(())
    }

    /// Roll back a freeze (migration aborted before commit).
    pub fn unfreeze_vertex(&mut self, v: VertexId) {
        self.frozen.remove(&v);
    }

    /// Clone the full migratable state of `v` (record + both TELs). The
    /// caller freezes first so the clone cannot race a write.
    pub fn clone_segment(&self, v: VertexId) -> GdResult<VertexSegment> {
        let li = self.local(v)? as usize;
        Ok(VertexSegment {
            v,
            record: self.records[li].clone(),
            out: self.out[li].clone(),
            inn: self.inn[li].clone(),
        })
    }

    /// Install a migrated segment at this (destination) partition.
    /// Idempotent: re-delivery of a duplicated `MigrateInstall` is a no-op
    /// (`Ok(false)`). Returns `Ok(true)` if the segment was installed.
    pub fn install_segment(&mut self, seg: VertexSegment) -> GdResult<bool> {
        if self.idx.contains_key(&seg.v) {
            return Ok(false);
        }
        let li = self.vids.len() as u32;
        self.idx.insert(seg.v, li);
        self.vids.push(seg.v);
        self.out_edge_count += seg.out.len_versions() as u64;
        self.label_index
            .entry(seg.record.label)
            .or_default()
            .push(li);
        let indexed: Vec<(Label, PropKey)> = self
            .prop_index
            .keys()
            .filter(|(l, _)| *l == seg.record.label)
            .copied()
            .collect();
        for (ilabel, key) in indexed {
            if let Some(val) = seg.record.prop(key) {
                let gk = val.group_key();
                if let Some(m) = self.prop_index.get_mut(&(ilabel, key)) {
                    m.entry(gk).or_default().push(li);
                }
            }
        }
        self.records.push(seg.record);
        self.out.push(seg.out);
        self.inn.push(seg.inn);
        Ok(true)
    }

    /// Purge the retained frozen copy of `v` after its forwarding stub
    /// retires: the record is tombstoned (invisible to every scan), the
    /// TELs are dropped, and the indexes forget the vertex. Idempotent.
    pub fn purge_vertex(&mut self, v: VertexId) {
        self.frozen.remove(&v);
        let Some(li) = self.idx.remove(&v) else {
            return;
        };
        let li = li as usize;
        self.out_edge_count = self
            .out_edge_count
            .saturating_sub(self.out[li].len_versions() as u64);
        self.out[li] = TelList::new();
        self.inn[li] = TelList::new();
        // Tombstone: `scan_all` walks the dense arrays directly, so make
        // the record invisible at every real read timestamp.
        self.records[li].create_ts = Timestamp::MAX;
        let label = self.records[li].label;
        if let Some(lis) = self.label_index.get_mut(&label) {
            lis.retain(|x| *x as usize != li);
        }
        for m in self.prop_index.values_mut() {
            for lis in m.values_mut() {
                lis.retain(|x| *x as usize != li);
            }
        }
    }

    /// Label of `v`.
    pub fn vertex_label(&self, v: VertexId) -> GdResult<Label> {
        Ok(self.vertex(v)?.label)
    }

    /// Read property `key` of `v` (None if unset).
    pub fn vertex_prop(&self, v: VertexId, key: PropKey) -> GdResult<Option<&Value>> {
        Ok(self.vertex(v)?.prop(key))
    }

    /// Append an out-edge entry at this partition (source side).
    pub fn insert_out_edge(
        &mut self,
        src: VertexId,
        label: Label,
        dst: VertexId,
        eid: EdgeId,
        ts: Timestamp,
        props: Vec<(PropKey, Value)>,
    ) -> GdResult<()> {
        self.check_unfrozen(src)?;
        let li = self.local(src)?;
        self.out[li as usize].insert(label, dst, eid, ts, props);
        self.out_edge_count += 1;
        Ok(())
    }

    /// Append the mirror in-edge entry at this partition (destination side).
    pub fn insert_in_edge(
        &mut self,
        dst: VertexId,
        label: Label,
        src: VertexId,
        eid: EdgeId,
        ts: Timestamp,
        props: Vec<(PropKey, Value)>,
    ) -> GdResult<()> {
        self.check_unfrozen(dst)?;
        let li = self.local(dst)?;
        self.inn[li as usize].insert(label, src, eid, ts, props);
        Ok(())
    }

    /// Stamp the out-edge `(src)-[label]->(dst)` deleted at `ts`.
    pub fn delete_out_edge(
        &mut self,
        src: VertexId,
        label: Label,
        dst: VertexId,
        ts: Timestamp,
    ) -> GdResult<bool> {
        self.check_unfrozen(src)?;
        let li = self.local(src)?;
        Ok(self.out[li as usize].delete(label, dst, ts))
    }

    /// Stamp the mirror in-edge deleted at `ts`.
    pub fn delete_in_edge(
        &mut self,
        dst: VertexId,
        label: Label,
        src: VertexId,
        ts: Timestamp,
    ) -> GdResult<bool> {
        self.check_unfrozen(dst)?;
        let li = self.local(dst)?;
        Ok(self.inn[li as usize].delete(label, src, ts))
    }

    /// Iterate the visible edges of `v` in `dir` with `label` at read
    /// timestamp `ts`. `Both` chains out- then in-edges.
    pub fn edges(
        &self,
        v: VertexId,
        dir: Direction,
        label: Label,
        ts: Timestamp,
    ) -> GdResult<impl Iterator<Item = EdgeRef<'_>> + '_> {
        let li = self.local(v)? as usize;
        let (o, i): (Option<&TelList>, Option<&TelList>) = match dir {
            Direction::Out => (Some(&self.out[li]), None),
            Direction::In => (None, Some(&self.inn[li])),
            Direction::Both => (Some(&self.out[li]), Some(&self.inn[li])),
        };
        #[cfg(feature = "obs")]
        {
            let walked =
                o.map_or(0, |t| t.len_versions() as u64) + i.map_or(0, |t| t.len_versions() as u64);
            self.scan_stats.scan_len.observe(walked);
        }
        let out_iter = o.into_iter().flat_map(move |t| {
            t.scan_visible(label, ts).map(|e| EdgeRef {
                entry: e,
                neighbor: e.other,
                dir: Direction::Out,
            })
        });
        let in_iter = i.into_iter().flat_map(move |t| {
            t.scan_visible(label, ts).map(|e| EdgeRef {
                entry: e,
                neighbor: e.other,
                dir: Direction::In,
            })
        });
        Ok(out_iter.chain(in_iter))
    }

    /// Visit the visible edges of `v` in `dir` with `label` at `ts`,
    /// in the same order as [`edges`](Self::edges), without constructing
    /// the iterator chain. This is the batch read path for the SoA
    /// frontier's adjacency runs and the allocation-free oracle walk.
    pub fn for_each_edge(
        &self,
        v: VertexId,
        dir: Direction,
        label: Label,
        ts: Timestamp,
        mut f: impl FnMut(EdgeRef<'_>),
    ) -> GdResult<()> {
        for e in self.edges(v, dir, label, ts)? {
            f(e);
        }
        Ok(())
    }

    /// Degree of `v` in `dir` with `label` at `ts`.
    pub fn degree(
        &self,
        v: VertexId,
        dir: Direction,
        label: Label,
        ts: Timestamp,
    ) -> GdResult<usize> {
        Ok(self.edges(v, dir, label, ts)?.count())
    }

    /// Iterate all vertices with `label` visible at `ts`.
    pub fn scan_label(&self, label: Label, ts: Timestamp) -> impl Iterator<Item = VertexId> + '_ {
        self.label_index
            .get(&label)
            .into_iter()
            .flatten()
            .filter(move |&&li| self.records[li as usize].create_ts <= ts)
            .map(move |&li| self.vids[li as usize])
    }

    /// Iterate every vertex visible at `ts` (all labels).
    pub fn scan_all(&self, ts: Timestamp) -> impl Iterator<Item = VertexId> + '_ {
        self.vids
            .iter()
            .zip(self.records.iter())
            .filter(move |(_, r)| r.create_ts <= ts)
            .map(|(v, _)| *v)
    }

    /// Build (or rebuild) the secondary index for `(label, key)`, enabling
    /// [`GraphPartition::index_lookup`]. Used by the `IndexLookUpStrategy`
    /// (§II-B).
    pub fn build_prop_index(&mut self, label: Label, key: PropKey) {
        let mut map: FxHashMap<ValueKey, Vec<u32>> = FxHashMap::default();
        if let Some(lis) = self.label_index.get(&label) {
            for &li in lis {
                if let Some(v) = self.records[li as usize].prop(key) {
                    map.entry(v.group_key()).or_default().push(li);
                }
            }
        }
        self.prop_index.insert((label, key), map);
    }

    /// Is `(label, key)` indexed?
    pub fn has_prop_index(&self, label: Label, key: PropKey) -> bool {
        self.prop_index.contains_key(&(label, key))
    }

    /// Look up vertices with `label` whose property `key` equals `value`,
    /// visible at `ts`. Requires [`GraphPartition::build_prop_index`] first.
    pub fn index_lookup(
        &self,
        label: Label,
        key: PropKey,
        value: &Value,
        ts: Timestamp,
    ) -> GdResult<Vec<VertexId>> {
        let map = self
            .prop_index
            .get(&(label, key))
            .ok_or_else(|| GdError::Internal(format!("no index on ({label:?}, {key:?})")))?;
        Ok(map
            .get(&value.group_key())
            .into_iter()
            .flatten()
            .filter(|&&li| self.records[li as usize].create_ts <= ts)
            .map(|&li| self.vids[li as usize])
            .collect())
    }

    /// Visit every live (not deleted, any label) out-edge stored at this
    /// partition as `(src, dst)`. Drives the `part.cut_edges` gauge and
    /// the partitioning bench's cut measurement — not a query path.
    pub fn for_each_live_out_edge(&self, mut f: impl FnMut(VertexId, VertexId)) {
        for (li, t) in self.out.iter().enumerate() {
            let src = self.vids[li];
            for e in t.scan_visible(Label::ANY, Timestamp::MAX - 1) {
                f(src, e.other);
            }
        }
    }

    /// Crash recovery: remove all effects after `lct` (§IV-C). Uncommitted
    /// vertices vanish; uncommitted edges and deletions are rolled back.
    pub fn rollback_after(&mut self, lct: Timestamp) {
        for t in self.out.iter_mut().chain(self.inn.iter_mut()) {
            t.rollback_after(lct);
        }
        // Remove uncommitted vertices. Rebuilding the dense arrays keeps the
        // code simple; recovery is not a hot path.
        let keep: Vec<bool> = self.records.iter().map(|r| r.create_ts <= lct).collect();
        if keep.iter().all(|k| *k) {
            return;
        }
        let mut idx = FxHashMap::default();
        let mut vids = Vec::new();
        let mut records = Vec::new();
        let mut out = Vec::new();
        let mut inn = Vec::new();
        for (i, k) in keep.iter().enumerate() {
            if *k {
                let li = vids.len() as u32;
                idx.insert(self.vids[i], li);
                vids.push(self.vids[i]);
                records.push(self.records[i].clone());
                out.push(self.out[i].clone());
                inn.push(self.inn[i].clone());
            }
        }
        self.idx = idx;
        self.vids = vids;
        self.records = records;
        self.out = out;
        self.inn = inn;
        // Indexes must be rebuilt over the surviving vertices.
        let labels: Vec<Label> = self.label_index.keys().copied().collect();
        self.label_index.clear();
        for (i, r) in self.records.iter().enumerate() {
            self.label_index.entry(r.label).or_default().push(i as u32);
        }
        for l in labels {
            self.label_index.entry(l).or_default();
        }
        let keys: Vec<(Label, PropKey)> = self.prop_index.keys().copied().collect();
        for (l, k) in keys {
            self.build_prop_index(l, k);
        }
    }

    /// Approximate heap bytes of this partition.
    pub fn approx_bytes(&self) -> usize {
        let mut bytes =
            self.records.len() * (size_of::<VertexRecord>() + size_of::<VertexId>() + 16);
        for r in &self.records {
            bytes += r.props.capacity() * size_of::<(PropKey, Value)>();
            for (_, v) in &r.props {
                if let Value::Str(s) = v {
                    bytes += s.len();
                }
            }
        }
        for t in self.out.iter().chain(self.inn.iter()) {
            bytes += t.approx_bytes();
        }
        bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tel::TS_BULK;

    fn part() -> GraphPartition {
        GraphPartition::new(PartId(0))
    }

    const PERSON: Label = Label(0);
    const KNOWS: Label = Label(0);
    const NAME: PropKey = PropKey(0);
    const AGE: PropKey = PropKey(1);

    fn add_v(p: &mut GraphPartition, id: u64, name: &str) {
        p.insert_vertex(
            VertexId(id),
            PERSON,
            vec![(AGE, Value::Int(id as i64)), (NAME, Value::str(name))],
            TS_BULK,
        )
        .unwrap();
    }

    #[test]
    fn vertex_roundtrip_and_sorted_props() {
        let mut p = part();
        add_v(&mut p, 1, "alice");
        let r = p.vertex(VertexId(1)).unwrap();
        assert_eq!(r.prop(NAME), Some(&Value::str("alice")));
        assert_eq!(r.prop(AGE), Some(&Value::Int(1)));
        // row was sorted even though AGE came first
        assert!(r.props.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn duplicate_vertex_rejected() {
        let mut p = part();
        add_v(&mut p, 1, "a");
        assert!(p
            .insert_vertex(VertexId(1), PERSON, vec![], TS_BULK)
            .is_err());
    }

    #[test]
    fn missing_vertex_error() {
        let p = part();
        assert_eq!(
            p.vertex(VertexId(9)).unwrap_err(),
            GdError::VertexNotFound(VertexId(9))
        );
    }

    #[test]
    fn edges_by_direction() {
        let mut p = part();
        add_v(&mut p, 1, "a");
        add_v(&mut p, 2, "b");
        // 1 -> 2 with both endpoints local
        p.insert_out_edge(VertexId(1), KNOWS, VertexId(2), EdgeId(7), TS_BULK, vec![])
            .unwrap();
        p.insert_in_edge(VertexId(2), KNOWS, VertexId(1), EdgeId(7), TS_BULK, vec![])
            .unwrap();
        let out: Vec<_> = p
            .edges(VertexId(1), Direction::Out, KNOWS, 1)
            .unwrap()
            .map(|e| e.neighbor)
            .collect();
        assert_eq!(out, vec![VertexId(2)]);
        let inn: Vec<_> = p
            .edges(VertexId(2), Direction::In, KNOWS, 1)
            .unwrap()
            .map(|e| e.neighbor)
            .collect();
        assert_eq!(inn, vec![VertexId(1)]);
        let both: Vec<_> = p
            .edges(VertexId(2), Direction::Both, Label::ANY, 1)
            .unwrap()
            .map(|e| e.neighbor)
            .collect();
        assert_eq!(both, vec![VertexId(1)]);
        assert_eq!(p.degree(VertexId(1), Direction::Out, KNOWS, 1).unwrap(), 1);
        assert_eq!(p.degree(VertexId(1), Direction::In, KNOWS, 1).unwrap(), 0);
    }

    #[test]
    fn edge_delete_respects_timestamps() {
        let mut p = part();
        add_v(&mut p, 1, "a");
        p.insert_out_edge(VertexId(1), KNOWS, VertexId(5), EdgeId(1), 10, vec![])
            .unwrap();
        assert!(p
            .delete_out_edge(VertexId(1), KNOWS, VertexId(5), 20)
            .unwrap());
        assert_eq!(p.degree(VertexId(1), Direction::Out, KNOWS, 15).unwrap(), 1);
        assert_eq!(p.degree(VertexId(1), Direction::Out, KNOWS, 25).unwrap(), 0);
    }

    #[test]
    fn label_scan_respects_creation_time() {
        let mut p = part();
        add_v(&mut p, 1, "a");
        p.insert_vertex(VertexId(2), PERSON, vec![], 50).unwrap();
        let at10: Vec<_> = p.scan_label(PERSON, 10).collect();
        assert_eq!(at10, vec![VertexId(1)]);
        let at50: Vec<_> = p.scan_label(PERSON, 50).collect();
        assert_eq!(at50, vec![VertexId(1), VertexId(2)]);
        assert_eq!(p.scan_all(10).count(), 1);
    }

    #[test]
    fn prop_index_lookup() {
        let mut p = part();
        add_v(&mut p, 1, "alice");
        add_v(&mut p, 2, "bob");
        add_v(&mut p, 3, "alice");
        p.build_prop_index(PERSON, NAME);
        assert!(p.has_prop_index(PERSON, NAME));
        let hits = p
            .index_lookup(PERSON, NAME, &Value::str("alice"), 1)
            .unwrap();
        assert_eq!(hits, vec![VertexId(1), VertexId(3)]);
        assert!(p
            .index_lookup(PERSON, NAME, &Value::str("zed"), 1)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn index_updated_by_later_inserts() {
        let mut p = part();
        add_v(&mut p, 1, "alice");
        p.build_prop_index(PERSON, NAME);
        add_v(&mut p, 2, "alice");
        let hits = p
            .index_lookup(PERSON, NAME, &Value::str("alice"), 1)
            .unwrap();
        assert_eq!(hits.len(), 2);
    }

    #[test]
    fn recovery_drops_uncommitted_state() {
        let mut p = part();
        add_v(&mut p, 1, "a");
        p.insert_vertex(VertexId(2), PERSON, vec![], 100).unwrap(); // uncommitted
        p.insert_out_edge(VertexId(1), KNOWS, VertexId(2), EdgeId(1), 100, vec![])
            .unwrap(); // uncommitted
        p.build_prop_index(PERSON, NAME);
        p.rollback_after(50);
        assert!(p.contains(VertexId(1)));
        assert!(!p.contains(VertexId(2)));
        assert_eq!(
            p.degree(VertexId(1), Direction::Out, KNOWS, 200).unwrap(),
            0
        );
        // index still consistent
        let hits = p.index_lookup(PERSON, NAME, &Value::str("a"), 200).unwrap();
        assert_eq!(hits, vec![VertexId(1)]);
    }

    #[test]
    fn freeze_rejects_writes_but_serves_reads() {
        let mut p = part();
        add_v(&mut p, 1, "a");
        p.insert_out_edge(VertexId(1), KNOWS, VertexId(9), EdgeId(1), TS_BULK, vec![])
            .unwrap();
        p.freeze_vertex(VertexId(1)).unwrap();
        assert!(p.is_frozen(VertexId(1)));
        assert!(matches!(
            p.insert_out_edge(VertexId(1), KNOWS, VertexId(2), EdgeId(2), 5, vec![]),
            Err(GdError::TxnAborted(_))
        ));
        assert!(matches!(
            p.delete_out_edge(VertexId(1), KNOWS, VertexId(9), 5),
            Err(GdError::TxnAborted(_))
        ));
        // Reads still serve the frozen copy.
        assert_eq!(p.degree(VertexId(1), Direction::Out, KNOWS, 1).unwrap(), 1);
        p.unfreeze_vertex(VertexId(1));
        assert!(p
            .insert_out_edge(VertexId(1), KNOWS, VertexId(2), EdgeId(2), 5, vec![])
            .is_ok());
    }

    #[test]
    fn segment_roundtrip_between_partitions() {
        let mut src = part();
        add_v(&mut src, 1, "alice");
        add_v(&mut src, 2, "bob");
        src.insert_out_edge(VertexId(1), KNOWS, VertexId(2), EdgeId(1), TS_BULK, vec![])
            .unwrap();
        src.insert_in_edge(VertexId(1), KNOWS, VertexId(7), EdgeId(2), TS_BULK, vec![])
            .unwrap();
        src.build_prop_index(PERSON, NAME);
        src.freeze_vertex(VertexId(1)).unwrap();
        let seg = src.clone_segment(VertexId(1)).unwrap();

        let mut dst = GraphPartition::new(PartId(1));
        dst.build_prop_index(PERSON, NAME);
        assert!(dst.install_segment(seg.clone()).unwrap());
        // Duplicate install (dup-faulted message) is a no-op.
        assert!(!dst.install_segment(seg).unwrap());
        assert_eq!(
            dst.degree(VertexId(1), Direction::Out, KNOWS, 1).unwrap(),
            1
        );
        assert_eq!(dst.degree(VertexId(1), Direction::In, KNOWS, 1).unwrap(), 1);
        assert_eq!(
            dst.vertex_prop(VertexId(1), NAME).unwrap(),
            Some(&Value::str("alice"))
        );
        // The destination's indexes learned the vertex.
        assert_eq!(
            dst.index_lookup(PERSON, NAME, &Value::str("alice"), 1)
                .unwrap(),
            vec![VertexId(1)]
        );

        // Retire: the frozen source copy vanishes from every access path.
        src.purge_vertex(VertexId(1));
        assert!(!src.contains(VertexId(1)));
        assert!(!src.is_frozen(VertexId(1)));
        assert!(src.vertex(VertexId(1)).is_err());
        assert_eq!(src.scan_all(100).count(), 1);
        assert_eq!(src.scan_label(PERSON, 100).count(), 1);
        assert!(src
            .index_lookup(PERSON, NAME, &Value::str("alice"), 100)
            .unwrap()
            .is_empty());
        // Idempotent (dup-faulted retire).
        src.purge_vertex(VertexId(1));
    }

    #[test]
    fn approx_bytes_grows_with_data() {
        let mut p = part();
        let before = p.approx_bytes();
        for i in 0..100 {
            add_v(&mut p, i, "somebody");
        }
        assert!(p.approx_bytes() > before);
    }
}
