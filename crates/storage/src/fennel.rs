//! Streaming graph-aware partitioning: Fennel-style greedy placement
//! with label-propagation refinement and a balance repair pass.
//!
//! Fennel (Tsourakakis et al., WSDM'14) places each arriving vertex on
//! the partition maximizing `|neighbours already there| − c(load)`,
//! where `c` is a convex load penalty — interpolating between locality
//! (minimize cut) and balance. The placement feeds the immutable
//! [`crate::routing::RoutingTable`] as the *initial* map, so the rest of
//! the system still sees a pure `H : V → PartId` function.
//!
//! Balance invariant (checked by `partition_balance_*` tests and the
//! 256-seed property sweep): after [`partition_stream`] returns,
//! `max_load ≤ max((1 + slack) · min_load, min_load + 1)` — the `+1`
//! absorbs integer discretization when `slack · n/k < 1`.

use graphdance_common::{FxHashMap, PartId, VertexId};

/// How vertices are mapped to partitions when a graph is built.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum PartitionMode {
    /// Pure hash placement (the seed behaviour): uniform, oblivious to
    /// structure, maximal edge cut.
    #[default]
    Hash,
    /// Streaming Fennel greedy placement + label-propagation refinement:
    /// co-locates communities, bounded imbalance.
    Fennel,
}

impl PartitionMode {
    /// Stable lowercase name (repro lines, bench JSON).
    pub fn as_str(&self) -> &'static str {
        match self {
            PartitionMode::Hash => "hash",
            PartitionMode::Fennel => "fennel",
        }
    }

    /// Parse the stable name back.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "hash" => Some(PartitionMode::Hash),
            "fennel" => Some(PartitionMode::Fennel),
            _ => None,
        }
    }
}

impl std::fmt::Display for PartitionMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Tuning knobs for [`partition_stream`].
#[derive(Clone, Copy, Debug)]
pub struct FennelConfig {
    /// Balance slack: no partition may exceed `(1 + slack) · n/k`
    /// vertices during streaming, and the repair pass enforces
    /// `max ≤ max((1 + slack) · min, min + 1)` at the end.
    pub slack: f64,
    /// Exponent of the convex load penalty (Fennel's γ; 1.5 in the
    /// paper).
    pub gamma: f64,
    /// Label-propagation refinement passes after the streaming phase.
    pub refine_passes: u32,
}

impl Default for FennelConfig {
    fn default() -> Self {
        FennelConfig {
            slack: 0.10,
            gamma: 1.5,
            refine_passes: 2,
        }
    }
}

/// Undirected adjacency for the partitioner, built once from an edge
/// list. Neighbour lists preserve first-seen order (deterministic for a
/// deterministic edge list).
pub fn adjacency(edges: &[(VertexId, VertexId)]) -> FxHashMap<VertexId, Vec<VertexId>> {
    let mut adj: FxHashMap<VertexId, Vec<VertexId>> = FxHashMap::default();
    for &(s, d) in edges {
        adj.entry(s).or_default().push(d);
        adj.entry(d).or_default().push(s);
    }
    adj
}

/// Number of edges whose endpoints land on different partitions under
/// `place` (each edge counted once).
pub fn edge_cut(edges: &[(VertexId, VertexId)], mut place: impl FnMut(VertexId) -> PartId) -> u64 {
    edges.iter().filter(|&&(s, d)| place(s) != place(d)).count() as u64
}

/// Stream `order` through a Fennel greedy placement over `adj`, refine
/// with label propagation, then repair balance. Returns the complete
/// `v → part` map (every vertex in `order` is assigned). Deterministic
/// for a fixed `order` and `adj`: all tie-breaks are by lowest load,
/// then lowest partition index.
pub fn partition_stream(
    k: u32,
    order: &[VertexId],
    adj: &FxHashMap<VertexId, Vec<VertexId>>,
    cfg: &FennelConfig,
) -> FxHashMap<VertexId, PartId> {
    let k = k.max(1) as usize;
    let n = order.len().max(1) as f64;
    let m = (adj.values().map(|ns| ns.len() as u64).sum::<u64>() / 2).max(1) as f64;
    // Fennel's α: the cost of perfect balance equals the cost of the
    // expected random cut, so neither term dominates.
    let alpha = m * (k as f64).powf(cfg.gamma - 1.0) / n.powf(cfg.gamma);
    let cap = (((1.0 + cfg.slack) * n) / k as f64).ceil() as u64;

    let mut loads = vec![0u64; k];
    let mut assign: FxHashMap<VertexId, u32> = FxHashMap::default();
    let mut score = vec![0.0f64; k];

    for &v in order {
        if assign.contains_key(&v) {
            continue;
        }
        for s in score.iter_mut() {
            *s = 0.0;
        }
        if let Some(ns) = adj.get(&v) {
            for nb in ns {
                if let Some(p) = assign.get(nb) {
                    score[*p as usize] += 1.0;
                }
            }
        }
        let mut best: Option<usize> = None;
        for p in 0..k {
            if loads[p] >= cap {
                continue;
            }
            // Marginal convex load penalty: α·γ·load^(γ−1).
            let penalty = alpha * cfg.gamma * (loads[p] as f64).powf(cfg.gamma - 1.0);
            let s = score[p] - penalty;
            let better = match best {
                None => true,
                Some(b) => {
                    let bp = alpha * cfg.gamma * (loads[b] as f64).powf(cfg.gamma - 1.0);
                    let bs = score[b] - bp;
                    s > bs + 1e-12
                        || ((s - bs).abs() <= 1e-12
                            && (loads[p] < loads[b] || (loads[p] == loads[b] && p < b)))
                }
            };
            if better {
                best = Some(p);
            }
        }
        // All partitions at cap can only happen if n was under-counted;
        // fall back to the least-loaded partition.
        let chosen = best.unwrap_or_else(|| min_load_part(&loads));
        assign.insert(v, chosen as u32);
        loads[chosen] += 1;
    }

    refine(&mut assign, &mut loads, order, adj, cap, cfg.refine_passes);
    repair(&mut assign, &mut loads, order, adj, cfg.slack);

    assign.into_iter().map(|(v, p)| (v, PartId(p))).collect()
}

fn min_load_part(loads: &[u64]) -> usize {
    let mut best = 0usize;
    for (p, l) in loads.iter().enumerate() {
        if *l < loads[best] {
            best = p;
        }
    }
    best
}

fn max_load_part(loads: &[u64]) -> usize {
    let mut best = 0usize;
    for (p, l) in loads.iter().enumerate() {
        if *l > loads[best] {
            best = p;
        }
    }
    best
}

/// Label propagation constrained by the streaming cap: move a vertex to
/// its majority-neighbour partition when that strictly increases its
/// co-located degree and stays under cap. Vertices are visited in
/// `order` for determinism.
fn refine(
    assign: &mut FxHashMap<VertexId, u32>,
    loads: &mut [u64],
    order: &[VertexId],
    adj: &FxHashMap<VertexId, Vec<VertexId>>,
    cap: u64,
    passes: u32,
) {
    let k = loads.len();
    let mut tally = vec![0u64; k];
    for _ in 0..passes {
        let mut moved = false;
        for &v in order {
            let Some(&cur) = assign.get(&v) else { continue };
            let Some(ns) = adj.get(&v) else { continue };
            for t in tally.iter_mut() {
                *t = 0;
            }
            for nb in ns {
                if let Some(p) = assign.get(nb) {
                    tally[*p as usize] += 1;
                }
            }
            // Strictly-better co-location only (ties keep the current
            // home — no churn); first such partition wins, which is the
            // lowest index.
            let mut best = cur as usize;
            for p in 0..k {
                if p == cur as usize || loads[p] >= cap {
                    continue;
                }
                if tally[p] > tally[best] {
                    best = p;
                }
            }
            if best != cur as usize && tally[best] > tally[cur as usize] {
                assign.insert(v, best as u32);
                loads[cur as usize] -= 1;
                loads[best] += 1;
                moved = true;
            }
        }
        if !moved {
            break;
        }
    }
}

/// Enforce `max ≤ max((1 + slack) · min, min + 1)` by moving the
/// cheapest vertices (fewest co-located neighbours, then lowest id)
/// from the fullest to the emptiest partition.
fn repair(
    assign: &mut FxHashMap<VertexId, u32>,
    loads: &mut [u64],
    order: &[VertexId],
    adj: &FxHashMap<VertexId, Vec<VertexId>>,
    slack: f64,
) {
    loop {
        let hi = max_load_part(loads);
        let lo = min_load_part(loads);
        let (max, min) = (loads[hi], loads[lo]);
        if max <= min + 1 || (max as f64) <= (1.0 + slack) * (min as f64) {
            return;
        }
        // Cheapest resident of `hi`: fewest neighbours co-located there;
        // `order` gives a deterministic scan, lowest-id wins ties.
        let mut pick: Option<(u64, VertexId)> = None;
        for &v in order {
            if assign.get(&v) != Some(&(hi as u32)) {
                continue;
            }
            let here = adj
                .get(&v)
                .map(|ns| {
                    ns.iter()
                        .filter(|nb| assign.get(nb) == Some(&(hi as u32)))
                        .count() as u64
                })
                .unwrap_or(0);
            match pick {
                Some((best, bv)) if best < here || (best == here && bv.0 <= v.0) => {}
                _ => pick = Some((here, v)),
            }
        }
        let Some((_, v)) = pick else { return };
        assign.insert(v, lo as u32);
        loads[hi] -= 1;
        loads[lo] += 1;
    }
}

/// Check the documented balance invariant over an assignment.
pub fn balance_ok(assign: &FxHashMap<VertexId, PartId>, k: u32, slack: f64) -> bool {
    let mut loads = vec![0u64; k.max(1) as usize];
    for p in assign.values() {
        loads[p.as_usize()] += 1;
    }
    let max = *loads.iter().max().unwrap_or(&0);
    let min = *loads.iter().min().unwrap_or(&0);
    max <= min + 1 || (max as f64) <= (1.0 + slack) * (min as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring(n: u64) -> Vec<(VertexId, VertexId)> {
        (0..n)
            .map(|i| (VertexId(i), VertexId((i + 1) % n)))
            .collect()
    }

    /// Two dense 16-cliques joined by one bridge edge.
    fn two_cliques() -> (Vec<VertexId>, Vec<(VertexId, VertexId)>) {
        let mut edges = Vec::new();
        for base in [0u64, 16] {
            for i in 0..16u64 {
                for j in (i + 1)..16u64 {
                    edges.push((VertexId(base + i), VertexId(base + j)));
                }
            }
        }
        edges.push((VertexId(0), VertexId(16)));
        ((0..32).map(VertexId).collect(), edges)
    }

    #[test]
    fn mode_roundtrip() {
        for m in [PartitionMode::Hash, PartitionMode::Fennel] {
            assert_eq!(PartitionMode::parse(m.as_str()), Some(m));
        }
        assert_eq!(PartitionMode::parse("nope"), None);
    }

    #[test]
    fn cliques_are_not_split() {
        let (vs, edges) = two_cliques();
        let adj = adjacency(&edges);
        let assign = partition_stream(2, &vs, &adj, &FennelConfig::default());
        let cut = edge_cut(&edges, |v| assign[&v]);
        // Only the bridge edge may be cut.
        assert_eq!(cut, 1, "assignment: {assign:?}");
        assert!(balance_ok(&assign, 2, 0.10));
    }

    #[test]
    fn beats_hash_on_ring() {
        let edges = ring(64);
        let vs: Vec<VertexId> = (0..64).map(VertexId).collect();
        let adj = adjacency(&edges);
        let assign = partition_stream(4, &vs, &adj, &FennelConfig::default());
        let fennel_cut = edge_cut(&edges, |v| assign[&v]);
        let hash = graphdance_common::Partitioner::new(2, 2);
        let hash_cut = edge_cut(&edges, |v| hash.part_of(v));
        assert!(
            fennel_cut < hash_cut,
            "fennel {fennel_cut} vs hash {hash_cut}"
        );
        assert!(balance_ok(&assign, 4, 0.10));
    }

    #[test]
    fn balance_holds_across_insert_orders() {
        let edges = ring(50);
        let adj = adjacency(&edges);
        for seed in 0..8u64 {
            // A cheap deterministic shuffle: stride enumeration coprime
            // with n.
            let stride = [1u64, 3, 7, 9, 11, 13, 17, 19][seed as usize];
            let vs: Vec<VertexId> = (0..50).map(|i| VertexId((i * stride) % 50)).collect();
            let assign = partition_stream(4, &vs, &adj, &FennelConfig::default());
            assert_eq!(assign.len(), 50);
            assert!(balance_ok(&assign, 4, 0.10), "order stride {stride}");
        }
    }

    #[test]
    fn deterministic_for_fixed_order() {
        let (vs, edges) = two_cliques();
        let adj = adjacency(&edges);
        let a = partition_stream(2, &vs, &adj, &FennelConfig::default());
        let b = partition_stream(2, &vs, &adj, &FennelConfig::default());
        assert_eq!(a, b);
    }
}
