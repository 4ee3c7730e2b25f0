//! Integration tests for the double-pipelined join (§III-A) against a
//! nested-loop oracle, and for transactional snapshot isolation under
//! concurrent readers.

use graphdance::common::rng::seeded;
use graphdance::common::{Partitioner, Value, VertexId};
use graphdance::engine::{EngineConfig, GraphDance};
use graphdance::query::expr::Expr;
use graphdance::query::plan::SourceSpec;
use graphdance::query::planner::{JoinPlanner, PathPattern, PatternHop};
use graphdance::storage::{Direction, Graph, GraphBuilder};
use rand::Rng;

/// Random bipartite-ish graph: A-vertices --ab--> M-vertices <--cb-- C.
fn tripartite(seed: u64) -> Graph {
    let mut rng = seeded(seed);
    let mut b = GraphBuilder::new(Partitioner::new(2, 2));
    let node = b.schema_mut().register_vertex_label("N");
    let ab = b.schema_mut().register_edge_label("ab");
    let cb = b.schema_mut().register_edge_label("cb");
    // ids: A = 0..20, M = 100..130, C = 200..220
    for i in 0..20u64 {
        b.add_vertex(VertexId(i), node, vec![]).unwrap();
    }
    for i in 100..130u64 {
        b.add_vertex(VertexId(i), node, vec![]).unwrap();
    }
    for i in 200..220u64 {
        b.add_vertex(VertexId(i), node, vec![]).unwrap();
    }
    for a in 0..20u64 {
        for _ in 0..rng.gen_range(0..5) {
            b.add_edge(VertexId(a), ab, VertexId(rng.gen_range(100..130)), vec![])
                .unwrap();
        }
    }
    for c in 200..220u64 {
        for _ in 0..rng.gen_range(0..5) {
            b.add_edge(VertexId(c), cb, VertexId(rng.gen_range(100..130)), vec![])
                .unwrap();
        }
    }
    b.finish()
}

/// Oracle: nested-loop count of (a -> m <- c) path pairs for fixed a, c.
fn oracle_pairs(g: &Graph, a: VertexId, c: VertexId) -> usize {
    let ab = g.schema().edge_label("ab").unwrap();
    let cb = g.schema().edge_label("cb").unwrap();
    let from_a = g.neighbors(a, Direction::Out, ab, 1).unwrap();
    let from_c = g.neighbors(c, Direction::Out, cb, 1).unwrap();
    let mut count = 0;
    for m in &from_a {
        count += from_c.iter().filter(|x| *x == m).count();
    }
    count
}

#[test]
fn join_matches_nested_loop_oracle() {
    for seed in [1u64, 2, 3] {
        let g = tripartite(seed);
        let ab = g.schema().edge_label("ab").unwrap();
        let cb = g.schema().edge_label("cb").unwrap();
        // Pattern: a --ab--> m <--cb-- c, forced join at m (split 1 of 2).
        let pattern = PathPattern {
            left: SourceSpec::Param { param: 0 },
            right: SourceSpec::Param { param: 1 },
            hops: vec![
                PatternHop::new(Direction::Out, ab),
                PatternHop::new(Direction::In, cb),
            ],
            output: vec![Expr::VertexId],
            agg: None,
            num_slots: 1,
        };
        let stats = g.stats();
        let planner = JoinPlanner::new(&stats);
        let join_plan = planner.plan_with_split(&pattern, 1).unwrap();
        assert_eq!(join_plan.stages[0].pipelines.len(), 2, "forced join");

        let engine = GraphDance::start(g.clone(), EngineConfig::new(2, 2));
        for (a, c) in [(0u64, 200u64), (5, 210), (19, 219), (7, 203)] {
            let rows = engine
                .query(
                    &join_plan,
                    vec![Value::Vertex(VertexId(a)), Value::Vertex(VertexId(c))],
                )
                .unwrap();
            let want = oracle_pairs(&g, VertexId(a), VertexId(c));
            assert_eq!(rows.len(), want, "seed {seed}, pair ({a},{c})");
            // Every returned meeting vertex must be a real match.
            for row in &rows {
                let m = row[0].as_vertex().unwrap();
                assert!(g
                    .neighbors(VertexId(a), Direction::Out, ab, 1)
                    .unwrap()
                    .contains(&m));
                assert!(g
                    .neighbors(VertexId(c), Direction::Out, cb, 1)
                    .unwrap()
                    .contains(&m));
            }
        }
        // All split choices agree on the result multiset size.
        for split in [0usize, 2] {
            let plan = planner.plan_with_split(&pattern, split).unwrap();
            let rows = engine
                .query(
                    &plan,
                    vec![Value::Vertex(VertexId(5)), Value::Vertex(VertexId(210))],
                )
                .unwrap();
            assert_eq!(
                rows.len(),
                oracle_pairs(&g, VertexId(5), VertexId(210)),
                "split {split}"
            );
        }
        engine.shutdown();
    }
}

#[test]
fn snapshot_isolation_under_concurrent_updates() {
    // Readers at a fixed snapshot must never see a partially-applied
    // transaction, no matter how updates interleave.
    let mut b = GraphBuilder::new(Partitioner::new(2, 2));
    let node = b.schema_mut().register_vertex_label("N");
    let e = b.schema_mut().register_edge_label("e");
    for i in 0..8u64 {
        b.add_vertex(VertexId(i), node, vec![]).unwrap();
    }
    let g = b.finish();
    let engine = GraphDance::start(g.clone(), EngineConfig::new(2, 2));

    // Each transaction inserts a *pair* of edges (i -> i+1, i -> i+2); a
    // consistent snapshot always sees an even number of edges from i = 0.
    let mut plan_b = graphdance::query::QueryBuilder::new(g.schema());
    plan_b.v_param(0).out("e").count();
    let plan = plan_b.compile().unwrap();

    std::thread::scope(|scope| {
        let engine = &engine;
        let writer = scope.spawn(move || {
            for round in 0..30u64 {
                let mut tx = engine.txn().begin();
                tx.insert_edge(VertexId(0), e, VertexId(1 + round % 7), vec![])
                    .unwrap();
                tx.insert_edge(VertexId(0), e, VertexId(1 + (round + 1) % 7), vec![])
                    .unwrap();
                tx.commit().unwrap();
            }
        });
        for _ in 0..4 {
            let plan = &plan;
            scope.spawn(move || {
                for _ in 0..25 {
                    let rows = engine
                        .query(plan, vec![Value::Vertex(VertexId(0))])
                        .unwrap();
                    let n = rows[0][0].as_int().unwrap();
                    assert_eq!(n % 2, 0, "snapshot saw a half-applied transaction: {n}");
                }
            });
        }
        writer.join().unwrap();
    });
    // Final state: all 60 edges visible.
    let rows = engine
        .query(&plan, vec![Value::Vertex(VertexId(0))])
        .unwrap();
    assert_eq!(rows[0][0], Value::Int(60));
    engine.shutdown();
}

#[test]
fn many_concurrent_queries_terminate_cleanly() {
    // Termination-detection stress: dozens of in-flight queries with
    // overlapping memo usage must all complete with correct counts.
    let mut b = GraphBuilder::new(Partitioner::new(2, 4));
    let node = b.schema_mut().register_vertex_label("N");
    let e = b.schema_mut().register_edge_label("e");
    let n = 256u64;
    for i in 0..n {
        b.add_vertex(VertexId(i), node, vec![]).unwrap();
    }
    let mut rng = seeded(77);
    for i in 0..n {
        for _ in 0..6 {
            let j = rng.gen_range(0..n);
            if j != i {
                b.add_edge(VertexId(i), e, VertexId(j), vec![]).unwrap();
            }
        }
    }
    let g = b.finish();
    let engine = GraphDance::start(g.clone(), EngineConfig::new(2, 4));
    let mut qb = graphdance::query::QueryBuilder::new(g.schema());
    qb.v_param(0);
    let c = qb.alloc_slot();
    let d = qb.alloc_slot();
    qb.repeat(1, 3, c, |r| {
        r.compute(
            d,
            Expr::Add(Box::new(Expr::Slot(d)), Box::new(Expr::int(1))),
        );
        r.out("e");
        r.min_dist(d);
    });
    qb.dedup();
    qb.count();
    let plan = qb.compile().unwrap();

    // Sequential reference counts.
    let reference: Vec<_> = (0..16u64)
        .map(|i| {
            engine
                .query(&plan, vec![Value::Vertex(VertexId(i * 16))])
                .unwrap()
        })
        .collect();
    // Fire the same 16 queries 4x concurrently.
    let handles: Vec<_> = (0..64u64)
        .map(|i| engine.submit(&plan, vec![Value::Vertex(VertexId((i % 16) * 16))]))
        .collect();
    for (i, h) in handles.into_iter().enumerate() {
        let r = h.wait().unwrap();
        assert_eq!(
            r.rows,
            reference[i % 16],
            "query {i} diverged under concurrency"
        );
    }
    engine.shutdown();
}

/// A worker holds its partition's read guard for one scheduling quantum at
/// a time — never across an inbox poll or sleep — so a writer asking for
/// the partition gets it within a quantum, both while the worker grinds
/// 3-hop queries and once it has gone idle. `WRITE_BOUND` is generous: on
/// the 2-core box this was written on the slowest acquisition took 0.8–
/// 1.1 ms in debug builds and 70 µs in release; a guard that outlived its
/// quantum would make it the length of a query, and one held across
/// `recv()` would never return.
#[test]
fn partition_writer_gets_the_lock_while_the_worker_grinds() {
    use graphdance::common::PartId;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::time::{Duration, Instant};
    const WRITE_BOUND: Duration = Duration::from_millis(250);

    let mut b = GraphBuilder::new(Partitioner::new(1, 2));
    let node = b.schema_mut().register_vertex_label("N");
    let e = b.schema_mut().register_edge_label("e");
    let n = 2_000u64;
    for i in 0..n {
        b.add_vertex(VertexId(i), node, vec![]).unwrap();
    }
    let mut rng = seeded(5);
    for i in 0..n {
        for _ in 0..8 {
            b.add_edge(VertexId(i), e, VertexId(rng.gen_range(0..n)), vec![])
                .unwrap();
        }
    }
    let g = b.finish();
    let engine = GraphDance::start(g.clone(), EngineConfig::new(1, 2));
    let mut qb = graphdance::query::QueryBuilder::new(g.schema());
    qb.v_param(0).out("e").out("e").out("e").count();
    let plan = qb.compile().unwrap();

    let stop = AtomicBool::new(false);
    let queries = AtomicU64::new(0);
    // Slowest of the write acquisitions made until `done()`, alternating
    // partitions and pausing between them so the readers get their turns.
    let slowest = |done: &dyn Fn(usize) -> bool| {
        let mut worst = Duration::ZERO;
        let mut round = 0;
        while !done(round) {
            let t0 = Instant::now();
            drop(g.write(PartId(round as u32 % 2)));
            worst = worst.max(t0.elapsed());
            std::thread::sleep(Duration::from_micros(100));
            round += 1;
        }
        worst
    };
    std::thread::scope(|scope| {
        let (engine, plan, stop, queries) = (&engine, &plan, &stop, &queries);
        for client in 0..2u64 {
            scope.spawn(move || {
                let mut v = client;
                while !stop.load(Ordering::Relaxed) {
                    let rows = engine.query(plan, vec![Value::Vertex(VertexId(v % n))]);
                    assert_eq!(rows.unwrap()[0][0], Value::Int(512));
                    queries.fetch_add(1, Ordering::Relaxed);
                    v += 2;
                }
            });
        }
        // Both workers are mid-query from the first completion on.
        while queries.load(Ordering::Relaxed) == 0 {
            std::thread::yield_now();
        }
        let until = queries.load(Ordering::Relaxed) + 50;
        let busy = slowest(&|_| queries.load(Ordering::Relaxed) >= until);
        stop.store(true, Ordering::Relaxed);
        assert!(
            busy < WRITE_BOUND,
            "writer waited {busy:?} on a busy worker"
        );
    });
    let idle = slowest(&|round| round == 100);
    assert!(
        idle < WRITE_BOUND,
        "writer waited {idle:?} on an idle worker"
    );
    engine.shutdown();
}
