//! Vertex-to-partition routing: the paper's `H : V → PartId` with an
//! optional graph-aware *initial placement* map (Fennel,
//! [`crate::fennel`]) layered over the hash partitioner.
//!
//! Placement is decided once, when the graph is built, and never changes:
//! a vertex lives where the routing table says for the graph's whole
//! lifetime (DESIGN.md §14). The lookup is one immutable hash-map probe
//! plus the hash — no lock, no atomic.

use graphdance_common::{FxHashMap, PartId, Partitioner, VertexId};

/// The immutable routing table (see module docs). One per
/// [`crate::Graph`], shared by every worker through the graph's `Arc`.
#[derive(Debug)]
pub struct RoutingTable {
    base: Partitioner,
    /// Graph-aware initial placement: overrides the hash for the listed
    /// vertices. Fixed at build.
    initial: FxHashMap<VertexId, PartId>,
}

impl RoutingTable {
    /// Pure hash routing (the seed behaviour).
    pub fn new(base: Partitioner) -> Self {
        RoutingTable::with_initial(base, FxHashMap::default())
    }

    /// Hash routing with a graph-aware initial placement layered on top.
    pub fn with_initial(base: Partitioner, initial: FxHashMap<VertexId, PartId>) -> Self {
        RoutingTable { base, initial }
    }

    /// The underlying hash partitioner / cluster topology.
    #[inline]
    pub fn base(&self) -> Partitioner {
        self.base
    }

    /// Number of vertices whose initial placement overrides the hash.
    pub fn initial_overrides(&self) -> usize {
        self.initial.len()
    }

    /// Owner of `v`.
    #[inline]
    pub fn part_of(&self, v: VertexId) -> PartId {
        match self.initial.get(&v) {
            Some(p) => *p,
            None => self.base.part_of(v),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_only_matches_base() {
        let rt = RoutingTable::new(Partitioner::new(2, 2));
        for i in 0..100u64 {
            let v = VertexId(i);
            assert_eq!(rt.part_of(v), rt.base().part_of(v));
        }
    }

    #[test]
    fn initial_placement_overrides_hash() {
        let base = Partitioner::new(2, 2);
        let mut init = FxHashMap::default();
        let v = VertexId(7);
        let home = base.part_of(v);
        let away = PartId((home.0 + 1) % base.num_parts());
        init.insert(v, away);
        let rt = RoutingTable::with_initial(base, init);
        assert_eq!(rt.part_of(v), away);
        assert_eq!(rt.part_of(VertexId(8)), base.part_of(VertexId(8)));
    }
}
