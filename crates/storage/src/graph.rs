//! The distributed graph: a set of partitions plus the shared schema and
//! partitioner, with a bulk-load builder.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{RwLock, RwLockReadGuard, RwLockWriteGuard};

use graphdance_common::{
    EdgeId, FxHashMap, GdError, GdResult, Label, PartId, Partitioner, PropKey, Value, VertexId,
    WorkerId,
};

use crate::partition_store::{Direction, GraphPartition};
use crate::routing::RoutingTable;
use crate::schema::Schema;
use crate::stats::GraphStats;
use crate::tel::{Timestamp, TS_BULK};

/// The partitioned stateful graph's *data* component `(V, E, λ, H)`.
/// (The memoranda component `M` of the 5-tuple in §III-B lives with the
/// execution engine, since memo lifetimes are bound to queries.)
///
/// Cloning is cheap (`Arc` inside); all workers share one `Graph`.
pub struct Graph {
    schema: Arc<Schema>,
    partitioner: Partitioner,
    routing: Arc<RoutingTable>,
    parts: Arc<[RwLock<GraphPartition>]>,
    // lint: allow(adhoc-counter) id allocator, not a metric
    next_edge_id: Arc<AtomicU64>,
}

impl Clone for Graph {
    fn clone(&self) -> Self {
        Graph {
            schema: Arc::clone(&self.schema),
            partitioner: self.partitioner,
            routing: Arc::clone(&self.routing),
            parts: Arc::clone(&self.parts),
            next_edge_id: Arc::clone(&self.next_edge_id),
        }
    }
}

impl std::fmt::Debug for Graph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Graph")
            .field("partitioner", &self.partitioner)
            .field("num_parts", &self.parts.len())
            .finish()
    }
}

impl Graph {
    /// The shared schema.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// The partitioning function / topology.
    pub fn partitioner(&self) -> Partitioner {
        self.partitioner
    }

    /// Partition id owning `v` (hash, or the graph's load-time Fennel
    /// placement). Fixed for the graph's lifetime.
    #[inline]
    pub fn part_of(&self, v: VertexId) -> PartId {
        self.routing.part_of(v)
    }

    /// Worker owning `v`.
    #[inline]
    pub fn worker_of(&self, v: VertexId) -> WorkerId {
        self.partitioner.worker_of_part(self.routing.part_of(v))
    }

    /// The routing table.
    #[inline]
    pub fn routing(&self) -> &Arc<RoutingTable> {
        &self.routing
    }

    /// Shared read access to a partition. The PSTM engine only calls this
    /// from the partition's owning worker, so the lock is uncontended.
    #[inline]
    pub fn read(&self, p: PartId) -> RwLockReadGuard<'_, GraphPartition> {
        // lint: allow(hot-path-blocking) uncontended by the ownership
        // protocol above; writers only appear between query scopes
        self.parts[p.as_usize()].read()
    }

    /// Exclusive access to a partition (updates, index builds).
    #[inline]
    pub fn write(&self, p: PartId) -> RwLockWriteGuard<'_, GraphPartition> {
        self.parts[p.as_usize()].write()
    }

    /// Allocate a fresh edge id.
    pub fn alloc_edge_id(&self) -> EdgeId {
        // sync: unique-id allocator — atomicity alone guarantees
        // distinctness; edge data is published under the partition lock
        EdgeId(self.next_edge_id.fetch_add(1, Ordering::Relaxed))
    }

    /// Merge the TEL scan-length histograms of every partition (obs builds
    /// only): how many log versions each adjacency scan walked.
    #[cfg(feature = "obs")]
    pub fn tel_scan_hist(&self) -> graphdance_obs::HistData {
        let mut merged = graphdance_obs::HistData::empty();
        for p in self.parts.iter() {
            let d = p.read().scan_stats().scan_len.data();
            for (m, b) in merged.buckets.iter_mut().zip(d.buckets.iter()) {
                *m += b;
            }
            merged.sum += d.sum;
        }
        merged
    }

    /// Insert a vertex at runtime (routed to its owner partition).
    pub fn insert_vertex(
        &self,
        v: VertexId,
        label: Label,
        props: Vec<(PropKey, Value)>,
        ts: Timestamp,
    ) -> GdResult<()> {
        self.write(self.part_of(v))
            .insert_vertex(v, label, props, ts)
    }

    /// Insert a directed edge at runtime. Writes the source-side out-entry
    /// and the destination-side in-entry; partition locks are taken in id
    /// order so concurrent inserts cannot deadlock.
    pub fn insert_edge(
        &self,
        src: VertexId,
        label: Label,
        dst: VertexId,
        props: Vec<(PropKey, Value)>,
        ts: Timestamp,
    ) -> GdResult<EdgeId> {
        let eid = self.alloc_edge_id();
        let (ps, pd) = (self.part_of(src), self.part_of(dst));
        if ps == pd {
            let mut g = self.write(ps);
            g.insert_out_edge(src, label, dst, eid, ts, props.clone())?;
            g.insert_in_edge(dst, label, src, eid, ts, props)?;
        } else {
            let (first, second) = if ps.0 < pd.0 { (ps, pd) } else { (pd, ps) };
            let mut g1 = self.write(first);
            let mut g2 = self.write(second);
            let (gs, gd) = if first == ps {
                (&mut g1, &mut g2)
            } else {
                (&mut g2, &mut g1)
            };
            gs.insert_out_edge(src, label, dst, eid, ts, props.clone())?;
            gd.insert_in_edge(dst, label, src, eid, ts, props)?;
        }
        Ok(eid)
    }

    /// Delete the live directed edge `(src)-[label]->(dst)` at `ts`.
    pub fn delete_edge(
        &self,
        src: VertexId,
        label: Label,
        dst: VertexId,
        ts: Timestamp,
    ) -> GdResult<bool> {
        let (ps, pd) = (self.part_of(src), self.part_of(dst));
        let found = if ps == pd {
            let mut g = self.write(ps);
            let f = g.delete_out_edge(src, label, dst, ts)?;
            g.delete_in_edge(dst, label, src, ts)?;
            f
        } else {
            let (first, second) = if ps.0 < pd.0 { (ps, pd) } else { (pd, ps) };
            let mut g1 = self.write(first);
            let mut g2 = self.write(second);
            let (gs, gd) = if first == ps {
                (&mut g1, &mut g2)
            } else {
                (&mut g2, &mut g1)
            };
            let f = gs.delete_out_edge(src, label, dst, ts)?;
            gd.delete_in_edge(dst, label, src, ts)?;
            f
        };
        Ok(found)
    }

    /// Convenience single-vertex property read (tests, oracles, examples —
    /// the engine reads through partition guards instead).
    pub fn vertex_prop(&self, v: VertexId, key: PropKey) -> GdResult<Option<Value>> {
        Ok(self.read(self.part_of(v)).vertex_prop(v, key)?.cloned())
    }

    /// Convenience label read.
    pub fn vertex_label(&self, v: VertexId) -> GdResult<Label> {
        self.read(self.part_of(v)).vertex_label(v)
    }

    /// Visit every neighbour of `v` without materializing a `Vec`
    /// (sequential oracles and reference BFS walk every adjacency of every
    /// hop — under nightly `SIM_SEEDS=1000` sweeps the collect-per-hop
    /// allocation tax was measurable). Neighbours are visited in TEL order,
    /// identical to [`neighbors`](Self::neighbors).
    pub fn for_each_neighbor(
        &self,
        v: VertexId,
        dir: Direction,
        label: Label,
        ts: Timestamp,
        mut f: impl FnMut(VertexId),
    ) -> GdResult<()> {
        for e in self.read(self.part_of(v)).edges(v, dir, label, ts)? {
            f(e.neighbor);
        }
        Ok(())
    }

    /// Convenience neighbour list (tests and sequential oracles). Prefer
    /// [`for_each_neighbor`](Self::for_each_neighbor) in per-hop loops.
    pub fn neighbors(
        &self,
        v: VertexId,
        dir: Direction,
        label: Label,
        ts: Timestamp,
    ) -> GdResult<Vec<VertexId>> {
        let mut out = Vec::new();
        self.for_each_neighbor(v, dir, label, ts, |n| out.push(n))?;
        Ok(out)
    }

    /// Does the graph contain `v`?
    pub fn contains(&self, v: VertexId) -> bool {
        self.read(self.part_of(v)).contains(v)
    }

    /// Build a secondary property index on every partition.
    pub fn build_prop_index(&self, label: Label, key: PropKey) {
        for p in self.partitioner.parts() {
            self.write(p).build_prop_index(label, key);
        }
    }

    /// Total vertices across partitions.
    pub fn total_vertices(&self) -> u64 {
        self.partitioner
            .parts()
            .map(|p| self.read(p).num_vertices() as u64)
            .sum()
    }

    /// Total directed edges across partitions (counted once, on the out
    /// side).
    pub fn total_edges(&self) -> u64 {
        self.partitioner
            .parts()
            .map(|p| self.read(p).num_out_edges())
            .sum()
    }

    /// Approximate total heap bytes of graph data (Table II "raw size").
    pub fn approx_bytes(&self) -> u64 {
        self.partitioner
            .parts()
            .map(|p| self.read(p).approx_bytes() as u64)
            .sum()
    }

    /// Collect per-partition statistics for the cost-based planner.
    pub fn stats(&self) -> GraphStats {
        GraphStats::collect(self)
    }

    /// Crash recovery over all partitions (§IV-C): remove effects newer
    /// than the last-commit timestamp.
    pub fn rollback_after(&self, lct: Timestamp) {
        for p in self.partitioner.parts() {
            self.write(p).rollback_after(lct);
        }
    }
}

/// Bulk loader. Single-threaded, intended for dataset generation; runtime
/// mutation goes through [`Graph`] + the transaction layer.
pub struct GraphBuilder {
    schema: Schema,
    partitioner: Partitioner,
    /// Graph-aware initial placement overriding the hash (Fennel): data
    /// is physically loaded where the routing table will route it.
    assignments: FxHashMap<VertexId, PartId>,
    parts: Vec<GraphPartition>,
    next_edge_id: u64,
}

impl GraphBuilder {
    /// Start building a graph over the given topology (hash placement).
    pub fn new(partitioner: Partitioner) -> Self {
        GraphBuilder::with_assignments(partitioner, FxHashMap::default())
    }

    /// Start building with a graph-aware initial placement: vertices in
    /// `assignments` are loaded at (and routed to) the given partition
    /// instead of their hash home. Produced by
    /// [`crate::fennel::partition_stream`].
    pub fn with_assignments(
        partitioner: Partitioner,
        assignments: FxHashMap<VertexId, PartId>,
    ) -> Self {
        let parts = partitioner.parts().map(GraphPartition::new).collect();
        GraphBuilder {
            schema: Schema::new(),
            partitioner,
            assignments,
            parts,
            next_edge_id: 0,
        }
    }

    #[inline]
    fn place(&self, v: VertexId) -> PartId {
        match self.assignments.get(&v) {
            Some(p) => *p,
            None => self.partitioner.part_of(v),
        }
    }

    /// Mutable access to the schema for label/key registration.
    pub fn schema_mut(&mut self) -> &mut Schema {
        &mut self.schema
    }

    /// The topology being built against.
    pub fn partitioner(&self) -> Partitioner {
        self.partitioner
    }

    /// Add a vertex with bulk timestamp.
    pub fn add_vertex(
        &mut self,
        v: VertexId,
        label: Label,
        props: Vec<(PropKey, Value)>,
    ) -> GdResult<()> {
        let p = self.place(v);
        self.parts[p.as_usize()].insert_vertex(v, label, props, TS_BULK)
    }

    /// Add a directed edge with bulk timestamp. Both endpoints must already
    /// exist.
    pub fn add_edge(
        &mut self,
        src: VertexId,
        label: Label,
        dst: VertexId,
        props: Vec<(PropKey, Value)>,
    ) -> GdResult<EdgeId> {
        let eid = EdgeId(self.next_edge_id);
        self.next_edge_id += 1;
        let ps = self.place(src);
        let pd = self.place(dst);
        if !self.parts[pd.as_usize()].contains(dst) {
            return Err(GdError::VertexNotFound(dst));
        }
        self.parts[ps.as_usize()].insert_out_edge(src, label, dst, eid, TS_BULK, props.clone())?;
        self.parts[pd.as_usize()].insert_in_edge(dst, label, src, eid, TS_BULK, props)?;
        Ok(eid)
    }

    /// Build secondary indexes before finalizing (can also be done on the
    /// finished [`Graph`]).
    pub fn build_prop_index(&mut self, label: Label, key: PropKey) {
        for p in &mut self.parts {
            p.build_prop_index(label, key);
        }
    }

    /// Freeze into a shareable [`Graph`].
    pub fn finish(self) -> Graph {
        Graph {
            schema: Arc::new(self.schema),
            partitioner: self.partitioner,
            routing: Arc::new(RoutingTable::with_initial(
                self.partitioner,
                self.assignments,
            )),
            parts: self
                .parts
                .into_iter()
                .map(RwLock::new)
                .collect::<Vec<_>>()
                .into(),
            // lint: allow(adhoc-counter) id allocator, not a metric
            next_edge_id: Arc::new(AtomicU64::new(self.next_edge_id)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 4-partition test graph: path 0 -> 1 -> 2 -> 3 plus 0 -> 2.
    fn build() -> Graph {
        let mut b = GraphBuilder::new(Partitioner::new(2, 2));
        let person = b.schema_mut().register_vertex_label("Person");
        let knows = b.schema_mut().register_edge_label("knows");
        let name = b.schema_mut().register_prop("name");
        for i in 0..4u64 {
            b.add_vertex(
                VertexId(i),
                person,
                vec![(name, Value::str(format!("p{i}")))],
            )
            .unwrap();
        }
        for (s, d) in [(0u64, 1u64), (1, 2), (2, 3), (0, 2)] {
            b.add_edge(VertexId(s), knows, VertexId(d), vec![]).unwrap();
        }
        b.finish()
    }

    #[test]
    fn builder_counts() {
        let g = build();
        assert_eq!(g.total_vertices(), 4);
        assert_eq!(g.total_edges(), 4);
        assert!(g.approx_bytes() > 0);
    }

    #[test]
    fn cross_partition_edges_visible_from_both_sides() {
        let g = build();
        let knows = g.schema().edge_label("knows").unwrap();
        assert_eq!(
            g.neighbors(VertexId(0), Direction::Out, knows, 1).unwrap(),
            vec![VertexId(1), VertexId(2)]
        );
        assert_eq!(
            g.neighbors(VertexId(2), Direction::In, knows, 1).unwrap(),
            vec![VertexId(1), VertexId(0)]
        );
        let mut both = g.neighbors(VertexId(2), Direction::Both, knows, 1).unwrap();
        both.sort();
        assert_eq!(both, vec![VertexId(0), VertexId(1), VertexId(3)]);
    }

    #[test]
    fn for_each_neighbor_matches_neighbors_in_order() {
        let g = build();
        let knows = g.schema().edge_label("knows").unwrap();
        for (v, dir) in [
            (VertexId(0), Direction::Out),
            (VertexId(2), Direction::In),
            (VertexId(2), Direction::Both),
        ] {
            let collected = g.neighbors(v, dir, knows, 1).unwrap();
            let mut visited = Vec::new();
            g.for_each_neighbor(v, dir, knows, 1, |n| visited.push(n))
                .unwrap();
            assert_eq!(visited, collected, "v={v:?} dir={dir:?}");
        }
    }

    #[test]
    fn edge_to_missing_vertex_fails() {
        let mut b = GraphBuilder::new(Partitioner::single());
        let l = b.schema_mut().register_vertex_label("V");
        let e = b.schema_mut().register_edge_label("E");
        b.add_vertex(VertexId(1), l, vec![]).unwrap();
        assert!(b.add_edge(VertexId(1), e, VertexId(99), vec![]).is_err());
    }

    #[test]
    fn runtime_insert_and_delete() {
        let g = build();
        let knows = g.schema().edge_label("knows").unwrap();
        let person = g.schema().vertex_label("Person").unwrap();
        g.insert_vertex(VertexId(10), person, vec![], 5).unwrap();
        g.insert_edge(VertexId(3), knows, VertexId(10), vec![], 5)
            .unwrap();
        assert_eq!(
            g.neighbors(VertexId(3), Direction::Out, knows, 5).unwrap(),
            vec![VertexId(10)]
        );
        // not visible before ts 5
        assert!(g
            .neighbors(VertexId(3), Direction::Out, knows, 4)
            .unwrap()
            .is_empty());
        assert!(g.delete_edge(VertexId(3), knows, VertexId(10), 9).unwrap());
        assert!(g
            .neighbors(VertexId(3), Direction::Out, knows, 9)
            .unwrap()
            .is_empty());
        // mirror side also dead
        assert!(g
            .neighbors(VertexId(10), Direction::In, knows, 9)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn delete_nonexistent_edge_is_false() {
        let g = build();
        let knows = g.schema().edge_label("knows").unwrap();
        assert!(!g.delete_edge(VertexId(3), knows, VertexId(0), 5).unwrap());
    }

    #[test]
    fn graph_level_recovery() {
        let g = build();
        let knows = g.schema().edge_label("knows").unwrap();
        let person = g.schema().vertex_label("Person").unwrap();
        g.insert_vertex(VertexId(10), person, vec![], 100).unwrap();
        g.insert_edge(VertexId(0), knows, VertexId(10), vec![], 100)
            .unwrap();
        g.rollback_after(50);
        assert!(!g.contains(VertexId(10)));
        assert_eq!(
            g.neighbors(VertexId(0), Direction::Out, knows, 200)
                .unwrap(),
            vec![VertexId(1), VertexId(2)]
        );
        assert_eq!(g.total_vertices(), 4);
    }

    #[test]
    fn index_over_all_partitions() {
        let g = build();
        let person = g.schema().vertex_label("Person").unwrap();
        let name = g.schema().prop("name").unwrap();
        g.build_prop_index(person, name);
        let mut found = Vec::new();
        for p in g.partitioner().parts() {
            found.extend(
                g.read(p)
                    .index_lookup(person, name, &Value::str("p2"), 1)
                    .unwrap(),
            );
        }
        assert_eq!(found, vec![VertexId(2)]);
    }

    #[test]
    fn fennel_assignments_place_and_route_consistently() {
        let part = Partitioner::new(2, 2);
        let mut assign = FxHashMap::default();
        // Pin every vertex away from its hash home.
        for i in 0..4u64 {
            let home = part.part_of(VertexId(i));
            assign.insert(VertexId(i), PartId((home.0 + 1) % part.num_parts()));
        }
        let mut b = GraphBuilder::with_assignments(part, assign.clone());
        let person = b.schema_mut().register_vertex_label("Person");
        let knows = b.schema_mut().register_edge_label("knows");
        for i in 0..4u64 {
            b.add_vertex(VertexId(i), person, vec![]).unwrap();
        }
        b.add_edge(VertexId(0), knows, VertexId(1), vec![]).unwrap();
        let g = b.finish();
        for i in 0..4u64 {
            let v = VertexId(i);
            // Routed owner == assignment == physical location.
            assert_eq!(g.part_of(v), assign[&v]);
            assert!(g.read(g.part_of(v)).contains(v));
        }
        assert_eq!(g.routing().initial_overrides(), 4);
    }

    #[test]
    fn shared_clone_sees_updates() {
        let g = build();
        let g2 = g.clone();
        let person = g.schema().vertex_label("Person").unwrap();
        g.insert_vertex(VertexId(42), person, vec![], 1).unwrap();
        assert!(g2.contains(VertexId(42)));
    }
}
