//! Cross-engine consistency: every execution engine (asynchronous PSTM,
//! BSP, non-partitioned, hybrid), and GraphDance on one node as on two,
//! must return identical results for identical plans — they differ only
//! in execution strategy (DESIGN.md §2). Results are also checked against
//! a sequential BFS oracle.

use std::collections::{HashMap, HashSet, VecDeque};

use graphdance::baselines::{BspEngine, HybridEngine, NonPartitionedEngine, QueryEngine};
use graphdance::common::{Partitioner, Value, VertexId};
use graphdance::datagen::{KhopDataset, KhopParams};
use graphdance::engine::{EngineConfig, GraphDance};
use graphdance::query::expr::Expr;
use graphdance::query::plan::{Order, Plan, SourceSpec};
use graphdance::query::QueryBuilder;
use graphdance::storage::{Direction, Graph, PartitionMode};

fn dataset() -> KhopDataset {
    KhopDataset::generate(KhopParams::lj_sim(600))
}

fn khop_plan(graph: &Graph, k: i64) -> Plan {
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
    b.compile().expect("compiles")
}

fn khop_topk_plan(graph: &Graph, k: i64) -> Plan {
    let w = graph.schema().prop("weight").expect("schema");
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
    b.compile().expect("compiles")
}

/// Two plain undirected hops and no stateful step: how many plan steps the query
/// runs does not depend on the schedule, so every engine must report the
/// same count.
fn two_hop_plan(graph: &Graph) -> Plan {
    let mut b = QueryBuilder::new(graph.schema());
    b.v_param(0).both("link").both("link");
    b.compile().expect("compiles")
}

/// Sequential BFS oracle: the set of vertices within k out-hops.
fn bfs_oracle(graph: &Graph, start: VertexId, k: u32) -> HashSet<VertexId> {
    let link = graph.schema().edge_label("link").expect("schema");
    let mut dist: HashMap<VertexId, u32> = HashMap::new();
    let mut q = VecDeque::new();
    dist.insert(start, 0);
    q.push_back(start);
    let mut reached = HashSet::new();
    while let Some(v) = q.pop_front() {
        let d = dist[&v];
        if d >= k {
            continue;
        }
        graph
            .for_each_neighbor(v, Direction::Out, link, 1, |n| {
                if let std::collections::hash_map::Entry::Vacant(e) = dist.entry(n) {
                    e.insert(d + 1);
                    reached.insert(n);
                    q.push_back(n);
                }
            })
            .expect("vertex exists");
    }
    reached.remove(&start);
    reached
}

fn sorted_vertices(rows: Vec<Vec<Value>>) -> Vec<VertexId> {
    let mut out: Vec<VertexId> = rows
        .into_iter()
        .map(|r| r[0].as_vertex().expect("vertex column"))
        .collect();
    out.sort();
    out.dedup();
    out
}

#[test]
fn khop_matches_bfs_oracle_on_graphdance() {
    let data = dataset();
    let graph = data.build(Partitioner::new(2, 2)).expect("builds");
    let engine = GraphDance::start(graph.clone(), EngineConfig::new(2, 2));
    for k in [1u32, 2, 3] {
        let plan = khop_plan(&graph, k as i64);
        for start in [0u64, 17, 333] {
            let rows = engine
                .query(&plan, vec![Value::Vertex(VertexId(start))])
                .expect("query runs");
            let got: HashSet<VertexId> = sorted_vertices(rows).into_iter().collect();
            let mut want = bfs_oracle(&graph, VertexId(start), k);
            // The PSTM query does not exclude the start vertex (a self-loop
            // path can re-reach it); the oracle excludes it. Normalize.
            let mut got = got;
            got.remove(&VertexId(start));
            want.remove(&VertexId(start));
            assert_eq!(got, want, "k={k} start={start}");
        }
    }
    engine.shutdown();
}

#[test]
fn all_engines_agree_on_khop_topk() {
    let data = dataset();
    let start = || vec![Value::Vertex(VertexId(42))];
    // Reference answer and step count from GraphDance.
    let (reference, reference_steps) = {
        let graph = data.build(Partitioner::new(2, 2)).expect("builds");
        let engine = GraphDance::start(graph.clone(), EngineConfig::new(2, 2));
        let rows = engine
            .query(&khop_topk_plan(&graph, 3), start())
            .expect("query runs");
        let hops = engine.query_timed(&two_hop_plan(&graph), start());
        engine.shutdown();
        (rows, hops.expect("query runs").steps_executed)
    };
    assert!(reference_steps > 0, "GraphDance counts the steps it runs");
    assert!(!reference.is_empty(), "reference must find vertices");

    let mk_engine = |name: &str| -> Box<dyn QueryEngine> {
        let graph = data.build(Partitioner::new(2, 2)).expect("builds");
        match name {
            "bsp" => Box::new(BspEngine::start(graph, EngineConfig::new(2, 2))),
            "np" => Box::new(NonPartitionedEngine::start(graph, EngineConfig::new(2, 2))),
            "hybrid" => Box::new(HybridEngine::start(graph, EngineConfig::new(2, 2))),
            "gd-1x4" => {
                let g1 = data.build(Partitioner::new(1, 4)).expect("builds");
                Box::new(GraphDance::start(g1, EngineConfig::new(1, 4)))
            }
            _ => unreachable!(),
        }
    };
    for name in ["bsp", "np", "hybrid", "gd-1x4"] {
        let engine = mk_engine(name);
        let graph = data.build(Partitioner::new(2, 2)).expect("builds");
        let rows = engine
            .query(&khop_topk_plan(&graph, 3), start())
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(rows, reference, "engine {name} disagrees");
        let hops = engine
            .query_timed(&two_hop_plan(&graph), start())
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(
            hops.steps_executed, reference_steps,
            "engine {name} reports a different step count"
        );
        engine.stop();
    }
}

#[test]
fn count_aggregation_consistent_across_topologies() {
    let data = dataset();
    let mut expected = None;
    for (nodes, wpn) in [(1u32, 1u32), (1, 4), (2, 2), (4, 2)] {
        let graph = data.build(Partitioner::new(nodes, wpn)).expect("builds");
        let mut b = QueryBuilder::new(graph.schema());
        b.v_param(0);
        let c = b.alloc_slot();
        let d = b.alloc_slot();
        b.repeat(1, 3, c, |r| {
            r.compute(
                d,
                Expr::Add(Box::new(Expr::Slot(d)), Box::new(Expr::int(1))),
            );
            r.out("link");
            r.min_dist(d);
        });
        b.dedup();
        b.count();
        let plan = b.compile().expect("compiles");
        let engine = GraphDance::start(graph, EngineConfig::new(nodes, wpn));
        let rows = engine
            .query(&plan, vec![Value::Vertex(VertexId(7))])
            .expect("runs");
        match &expected {
            None => expected = Some(rows),
            Some(e) => assert_eq!(&rows, e, "topology {nodes}x{wpn} disagrees"),
        }
        engine.shutdown();
    }
}

/// Two stages: the top 10 of the 2-hop neighbourhood of `$0`, then — from
/// those rows, through a `PrevRows` source — the top 10 of their
/// out-neighbours.
fn two_stage_topk_plan(graph: &Graph) -> Plan {
    let w = graph.schema().prop("weight").expect("schema");
    let top = || {
        (
            vec![(Expr::Prop(w), Order::Desc), (Expr::VertexId, Order::Asc)],
            vec![Expr::VertexId, Expr::Prop(w)],
        )
    };
    let mut b = QueryBuilder::new(graph.schema());
    b.v_param(0);
    let c = b.alloc_slot();
    b.repeat(1, 2, c, |r| {
        r.out("link");
    });
    b.dedup();
    let (sort, output) = top();
    b.top_k(10, sort, output);
    let mut plan = b.compile().expect("compiles");
    let mut b = QueryBuilder::new(graph.schema());
    b.v_param(0).out("link");
    let (sort, output) = top();
    b.top_k(10, sort, output);
    let mut second = b.compile().expect("compiles").stages.remove(0);
    second.pipelines[0].source = SourceSpec::PrevRows {
        vertex_col: 0,
        seed: vec![],
    };
    plan.stages.push(second);
    plan.validate().expect("valid");
    plan
}

/// Every engine starts its queries through the same stage planner: on a
/// Fennel-placed graph, with the parameter vertex off its hash home,
/// GraphDance, BSP and the non-partitioned engine agree on a two-stage
/// plan whose second stage reads the first one's rows.
#[test]
fn engines_agree_on_a_two_stage_plan_over_a_placed_graph() {
    let data = dataset();
    let parts = Partitioner::new(2, 2);
    let build = || {
        data.build_with_mode(parts, PartitionMode::Fennel)
            .expect("builds")
    };
    let graph = build();
    let link = graph.schema().edge_label("link").expect("schema");
    let has_out_edges = |v| {
        let mut n = 0;
        let scanned = graph.for_each_neighbor(v, Direction::Out, link, 1, |_| n += 1);
        scanned.is_ok() && n > 0
    };
    let start = (0..)
        .map(VertexId)
        .find(|&v| graph.part_of(v) != parts.part_of(v) && has_out_edges(v))
        .expect("Fennel moved a vertex with out-edges");
    let plan = two_stage_topk_plan(&graph);
    let engines: [(&str, Box<dyn QueryEngine>); 3] = [
        (
            "graphdance",
            Box::new(GraphDance::start(build(), EngineConfig::new(2, 2))),
        ),
        (
            "bsp",
            Box::new(BspEngine::start(build(), EngineConfig::new(2, 2))),
        ),
        (
            "np",
            Box::new(NonPartitionedEngine::start(
                build(),
                EngineConfig::new(2, 2),
            )),
        ),
    ];
    let mut reference = None;
    for (name, engine) in engines {
        let rows = engine
            .query(&plan, vec![Value::Vertex(start)])
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        engine.stop();
        assert!(!rows.is_empty(), "{name} found nothing");
        match &reference {
            None => reference = Some(rows),
            Some(r) => assert_eq!(&rows, r, "engine {name} disagrees with graphdance"),
        }
    }
}
