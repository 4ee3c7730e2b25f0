//! The per-query control plane under the DST (DESIGN.md §IV-A): a query's
//! context, stage advances, cancel and end travel on the lanes that carry
//! its work, and only to the workers that work reached.
//!
//! * a stage's work may cross between two workers neither of which
//!   introduced the other to the query, and stays correct under reordered
//!   delivery, because every `(source node → destination node)` path is
//!   FIFO and stage advances spread in both directions;
//! * a read that stays on one worker never reaches the others;
//! * a cancelled query is refunded and torn down on every worker it
//!   reached;
//! * aggregation partials travel ahead of the progress report that
//!   accounts for them, also with one report per termination.
//!
//! Seed count comes from `SIM_SEEDS` (default 24); the nightly sweep sets
//! `SIM_SEEDS=1000`.

use std::time::Duration;

use graphdance::common::{GdError, Value, VertexId, WorkerId};
use graphdance::engine::{EngineConfig, SimCluster, SimFaults, SimStep};
use graphdance::query::expr::Expr;
use graphdance::query::plan::{
    AggFunc, AggSpec, Order, Pipeline, Plan, PlanStep, SourceSpec, Stage,
};
use graphdance::query::QueryBuilder;
use graphdance::sim::{oracle_rows, GraphSpec, QuerySpec};
use graphdance::storage::{Direction, Graph};

fn seeds() -> u64 {
    std::env::var("SIM_SEEDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(24)
}

fn sorted(mut rows: Vec<Vec<Value>>) -> Vec<Vec<Value>> {
    rows.sort_by(|a, b| format!("{a:?}").cmp(&format!("{b:?}")));
    rows
}

/// One stage walking `steps` "knows" edges in `dir` from `source`,
/// emitting the vertex it ends on; `agg` collects those into a top-k.
fn walk(g: &Graph, source: SourceSpec, dir: Direction, steps: usize, agg: bool) -> Stage {
    let knows = g.schema().edge_label("knows").unwrap();
    let expand = PlanStep::Expand {
        dir,
        label: knows,
        edge_loads: vec![],
    };
    Stage {
        pipelines: vec![Pipeline {
            source,
            steps: vec![expand; steps],
        }],
        joins: vec![],
        output: vec![Expr::VertexId],
        agg: agg.then(|| AggSpec {
            func: AggFunc::TopK {
                k: 16,
                sort: vec![(Expr::VertexId, Order::Asc)],
                output: vec![Expr::VertexId],
                distinct: vec![],
            },
        }),
        num_slots: 1,
    }
}

/// (a) On 3 nodes × 1 worker, stage 1 walks `v → v+1 → v+2`; for some
/// `v` that is three workers: `v`'s owner introduces `v+1`'s, which
/// introduces `v+2`'s. Stage 2 starts at `v+2` and walks back: its work
/// crosses from `v+2`'s owner to `v+1`'s and on to `v`'s — each time from
/// a worker that did not introduce its receiver (it was introduced *by*
/// it). The receiver must be at stage 2 before that work lands, which only
/// the stage advance every worker forwards to its introducer guarantees.
/// All 24 start vertices run at once, with reorder and delay faults on,
/// and every one matches the oracle on every seed.
#[test]
fn stage_two_work_crosses_between_workers_that_did_not_introduce_each_other() {
    let g = GraphSpec::Ring { n: 24 }.build(3, 1);
    let owner = |v: u64| g.partitioner().worker_of(VertexId(v % 24));
    assert!(
        (0..24u64).any(|v| owner(v) != owner(v + 1)
            && owner(v + 1) != owner(v + 2)
            && owner(v) != owner(v + 2)),
        "some three consecutive ring vertices sit on three workers"
    );
    let plan = Plan {
        stages: vec![
            walk(&g, SourceSpec::Param { param: 0 }, Direction::Out, 2, true),
            walk(
                &g,
                SourceSpec::PrevRows {
                    vertex_col: 0,
                    seed: vec![],
                },
                Direction::In,
                2,
                false,
            ),
        ],
        num_params: 1,
    };
    let start = |v: u64| vec![Value::Vertex(VertexId(v))];
    assert_eq!(oracle_rows(&g, &plan, &start(5), 1, 0), Ok(vec![start(5)]));
    let mut reorders = 0;
    for seed in 0..seeds() {
        let mut config = EngineConfig::new(3, 1).with_seed(seed);
        config.fault.sim = SimFaults {
            reorder_permille: 500,
            delay_permille: 100,
            delay_spike: Duration::from_micros(40),
            ..SimFaults::default()
        };
        let mut sim = SimCluster::new(g.clone(), config);
        let handles: Vec<_> = (0..24).map(|v| sim.submit(&plan, start(v))).collect();
        for (v, h) in handles.iter().enumerate() {
            let rows = sim.run(h).map(|r| r.rows);
            assert_eq!(rows, Ok(vec![start(v as u64)]), "seed {seed} from {v}");
        }
        sim.settle();
        assert_eq!(
            sim.leaked_query(),
            None,
            "seed {seed}: teardown missed a worker"
        );
        reorders += sim.fault_counts().reorders;
    }
    assert!(reorders > 0, "the reorder fault fired");
}

/// (b) A single-vertex read on 2 × 2: only the owner ever holds the query;
/// the three other workers are never sent anything of it.
#[test]
fn single_vertex_read_never_reaches_the_other_workers() {
    let g = GraphSpec::Ring { n: 16 }.build(2, 2);
    let mut b = QueryBuilder::new(g.schema());
    b.v_param(0).has_label("Person");
    let plan = b.compile().unwrap();
    for seed in 0..seeds() {
        let v = VertexId(seed % 16);
        let owner = g.partitioner().worker_of(v);
        let mut sim = SimCluster::new(g.clone(), EngineConfig::new(2, 2).with_seed(seed));
        let handle = sim.submit(&plan, vec![Value::Vertex(v)]);
        let only_owner = |sim: &SimCluster| {
            let holders = sim.holders(handle.id());
            assert!(
                holders.iter().all(|&w| WorkerId(w) == owner),
                "seed {seed}: {holders:?} hold a read of a vertex on {owner:?}"
            );
        };
        let result = loop {
            if let Some(r) = handle.try_result() {
                break r;
            }
            sim.step();
            only_owner(&sim);
        };
        assert_eq!(result.unwrap().rows, vec![vec![Value::Vertex(v)]]);
        while sim.step() != SimStep::Quiescent {
            only_owner(&sim);
        }
        assert!(sim.holders(handle.id()).is_empty(), "seed {seed}");
    }
}

/// (c) A 5-hop on 2 × 2 cancelled mid-flight, once it has spread to more
/// than one worker: every worker holding it refunds its weight — the query
/// resolves `QueryCancelled` through the exact weight sum — and ends it.
#[test]
fn cancelled_five_hop_is_refunded_and_ended_on_every_worker() {
    let g = GraphSpec::Gnm {
        n: 64,
        m: 256,
        seed: 3,
    }
    .build(2, 2);
    let (plan, params) = QuerySpec::Khop { hops: 5, start: 1 }.build(&g);
    let mut cancelled = 0;
    for seed in 0..seeds() {
        let mut sim = SimCluster::new(g.clone(), EngineConfig::new(2, 2).with_seed(seed));
        let handle = sim.submit(&plan, params.clone());
        while sim.holders(handle.id()).len() < 2 {
            assert_ne!(sim.step(), SimStep::Quiescent, "seed {seed}: never spread");
        }
        sim.cancel(handle.id());
        match sim.run(&handle) {
            Err(GdError::QueryCancelled(q)) => {
                assert_eq!(q, handle.id());
                cancelled += 1;
            }
            // The query finished before the cancel reached the
            // coordinator.
            Ok(_) => {}
            other => panic!("seed {seed}: {other:?}"),
        }
        sim.settle();
        assert_eq!(
            sim.leaked_query(),
            None,
            "seed {seed}: teardown missed a worker"
        );
    }
    assert!(cancelled > 0, "no seed cancelled mid-flight");
}

/// (d) With one progress report per termination (no weight coalescing),
/// an aggregating k-hop on 2 × 2 still matches the oracle: each report
/// carries the partial its traverser built just ahead of it.
#[test]
fn aggregating_khop_without_weight_coalescing_matches_the_oracle() {
    let g = GraphSpec::Gnm {
        n: 40,
        m: 120,
        seed: 7,
    }
    .build(2, 2);
    for query in [
        QuerySpec::KhopCount { hops: 3, start: 2 },
        QuerySpec::ScanCount,
    ] {
        let (plan, params) = query.build(&g);
        let want = oracle_rows(&g, &plan, &params, 1, 0).expect("oracle");
        for seed in 0..seeds() {
            let config = EngineConfig::new(2, 2)
                .with_seed(seed)
                .without_weight_coalescing();
            let mut sim = SimCluster::new(g.clone(), config);
            let got = sim.query(&plan, params.clone()).expect("query");
            assert_eq!(sorted(got), sorted(want.clone()), "{query:?} seed {seed}");
            assert_eq!(sim.leaked_query(), None, "{query:?} seed {seed}");
        }
    }
}
