//! Placement DST (`part=` repros): Fennel placement changes where vertices
//! live, never what a query answers — and it is worth having: fewer
//! traversers cross partitions on a community-structured graph than under
//! hash placement.

use graphdance::common::rng::seeded;
use graphdance::common::{Partitioner, Value};
use graphdance::datagen::{KhopDataset, KhopParams};
use graphdance::engine::{EngineConfig, SimCluster};
use graphdance::query::expr::Expr;
use graphdance::query::plan::{Order, Plan};
use graphdance::query::QueryBuilder;
use graphdance::storage::Graph;
use graphdance_sim::{
    adjacency, balance_ok, check, oracle_rows, partition_stream, FennelConfig, GraphSpec,
    PartitionMode, QuerySpec, Repro, SimFailure, Verdict, VertexId,
};
use rand::Rng;

/// 256 fixed seeds, starts spread over the ring: a Fennel-placed run and a
/// hash-placed run of the same line both match the oracle, and the oracle
/// answers the same on either placement — placement is invisible to query
/// semantics.
#[test]
fn fennel_rows_equal_hash_rows_across_256_seeds() {
    let spec = GraphSpec::Ring { n: 20 };
    for seed in 0..256u64 {
        let query = QuerySpec::Khop {
            hops: 3,
            start: seed % 20,
        };
        let want = |mode| {
            let g = spec.build_with_mode(2, 2, mode);
            let (plan, params) = query.build(&g);
            let mut rows: Vec<String> = oracle_rows(&g, &plan, &params, 1, seed)
                .unwrap()
                .iter()
                .map(|r| format!("{r:?}"))
                .collect();
            rows.sort();
            rows
        };
        assert_eq!(
            want(PartitionMode::Fennel),
            want(PartitionMode::Hash),
            "seed {seed}: placement changed the oracle's answer"
        );
        for mode in [PartitionMode::Hash, PartitionMode::Fennel] {
            let repro = Repro::clean(spec, query, 2, 2, seed).with_part(mode);
            let verdict = check(&repro);
            if verdict != Verdict::Match {
                panic!("{}", SimFailure { repro, verdict });
            }
        }
    }
}

/// The Fig. 1 k-hop query: everything within `k` hops of `$0`, top 10 by
/// vertex weight (ties by id).
fn khop_topk_plan(graph: &Graph, k: i64) -> Plan {
    let w = graph.schema().prop("weight").unwrap();
    let mut b = QueryBuilder::new(graph.schema());
    b.v_param(0);
    let c = b.alloc_slot();
    let d = b.alloc_slot();
    b.repeat(1, k, c, |r| {
        r.compute(
            d,
            Expr::Add(Box::new(Expr::Slot(d)), Box::new(Expr::int(1))),
        );
        r.out("link");
        r.min_dist(d);
    });
    b.dedup();
    b.top_k(
        10,
        vec![(Expr::Prop(w), Order::Desc), (Expr::VertexId, Order::Asc)],
        vec![Expr::VertexId, Expr::Prop(w)],
    );
    b.compile().unwrap()
}

/// The same seeded batch of ten 3-hop top-10 queries on a 2 × 2 cluster
/// over lj-sim(4000) with communities (locality 0.85, size 64): under
/// Fennel placement at most 0.6× the traversers cross to another worker
/// that cross under hash placement — the ≥ 40 % floor. A simulated run's
/// counts are fixed by its seed, so the comparison needs no timing.
#[test]
fn fennel_sends_at_most_six_tenths_of_hash_cross_partition_traversers() {
    let n = 4_000;
    let data = KhopDataset::generate(KhopParams::lj_sim(n).with_locality(0.85, 64));
    let mut rng = seeded(42);
    let starts: Vec<u64> = (0..10).map(|_| rng.gen_range(0..n)).collect();
    let cross_partition = |mode| {
        let g = data.build_with_mode(Partitioner::new(2, 2), mode).unwrap();
        let plan = khop_topk_plan(&g, 3);
        let mut sim = SimCluster::new(g, EngineConfig::new(2, 2));
        for &start in &starts {
            let rows = sim.query(&plan, vec![Value::Vertex(VertexId(start))]);
            assert!(!rows.unwrap().is_empty(), "{mode}: 3-hop from {start}");
        }
        sim.fabric().stats().snapshot().traverser_msgs
    };
    let hash = cross_partition(PartitionMode::Hash);
    let fennel = cross_partition(PartitionMode::Fennel);
    assert!(hash > 0, "hash placement sent nothing across partitions");
    assert!(
        fennel as f64 <= 0.6 * hash as f64,
        "fennel sends {fennel} cross-partition traversers against hash's \
         {hash}, over the 0.6x floor — look at partition_stream and the \
         workload's community locality"
    );
}

/// Deterministic Fisher–Yates over a splitmix64 stream (no RNG-crate
/// feature dependence; the exact orders are pinned by `seed` forever).
fn shuffled(n: u64, seed: u64) -> Vec<VertexId> {
    let mut state = seed.wrapping_add(0x9e3779b97f4a7c15);
    let mut next = move || {
        state = state.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    };
    let mut order: Vec<VertexId> = (0..n).map(VertexId).collect();
    for i in (1..order.len()).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

/// 256 fixed seeds: the Fennel balance invariant
/// `max ≤ max((1 + slack)·min, min + 1)` holds for every streaming
/// insert order, not just id order.
#[test]
fn fennel_balance_holds_across_256_insert_orders() {
    let n = 60u64;
    let edges: Vec<(VertexId, VertexId)> = (0..n)
        .map(|i| (VertexId(i), VertexId((i + 1) % n)))
        .collect();
    let adj = adjacency(&edges);
    let cfg = FennelConfig::default();
    for seed in 0..256u64 {
        let order = shuffled(n, seed);
        let assign = partition_stream(4, &order, &adj, &cfg);
        assert_eq!(assign.len(), n as usize, "seed {seed}: vertices dropped");
        assert!(
            balance_ok(&assign, 4, cfg.slack),
            "seed {seed}: balance invariant violated"
        );
    }
}
