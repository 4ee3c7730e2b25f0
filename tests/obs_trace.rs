//! End-to-end observability: a 3-stage query on a 2-node simulated
//! cluster produces a complete per-stage `QueryTrace` whose traverser-lane
//! totals reconcile with the `MsgLedger` conservation counters, the
//! metrics snapshot covers every instrumented layer, and a worker's wait
//! and exec times for a query add up to no more than its latency.
//!
//! Only built with the `obs` feature (`cargo test --features obs`).
#![cfg(feature = "obs")]

use graphdance::common::{Partitioner, Value, VertexId};
use graphdance::engine::{EngineConfig, GraphDance, MsgLedger};
use graphdance::obs::COORD_WORKER;
use graphdance::query::expr::Expr;
use graphdance::query::plan::{
    AggFunc, AggSpec, Order, Pipeline, Plan, PlanStep, SourceSpec, Stage,
};
use graphdance::query::QueryBuilder;
use graphdance::storage::{Direction, Graph, GraphBuilder};

/// A ring of `n` vertices (i -> i+1 mod n) on a 2-node, 4-worker cluster.
fn ring(n: u64) -> Graph {
    let mut b = GraphBuilder::new(Partitioner::new(2, 2));
    let node = b.schema_mut().register_vertex_label("N");
    let e = b.schema_mut().register_edge_label("e");
    let w = b.schema_mut().register_prop("w");
    for i in 0..n {
        b.add_vertex(VertexId(i), node, vec![(w, Value::Int(i as i64))])
            .unwrap();
    }
    for i in 0..n {
        b.add_edge(VertexId(i), e, VertexId((i + 1) % n), vec![])
            .unwrap();
    }
    b.finish()
}

/// One expand-a-hop stage; aggregating stages pass top-2 frontiers on.
fn expand_stage(g: &Graph, agg: bool, from_prev: bool) -> Stage {
    let e = g.schema().edge_label("e").unwrap();
    let w = g.schema().prop("w").unwrap();
    Stage {
        pipelines: vec![Pipeline {
            source: if from_prev {
                SourceSpec::PrevRows {
                    vertex_col: 0,
                    seed: vec![],
                }
            } else {
                SourceSpec::Param { param: 0 }
            },
            steps: vec![PlanStep::Expand {
                dir: Direction::Out,
                label: e,
                edge_loads: vec![],
            }],
        }],
        joins: vec![],
        output: vec![Expr::VertexId],
        agg: agg.then(|| AggSpec {
            func: AggFunc::TopK {
                k: 2,
                sort: vec![(Expr::Prop(w), Order::Desc)],
                output: vec![Expr::VertexId],
                distinct: vec![],
            },
        }),
        num_slots: 1,
    }
}

#[test]
fn three_stage_trace_reconciles_with_ledger() {
    let g = ring(16);
    let plan = Plan {
        stages: vec![
            expand_stage(&g, true, false),
            expand_stage(&g, true, true),
            expand_stage(&g, false, true),
        ],
        num_params: 1,
    };
    let engine = GraphDance::start(g.clone(), EngineConfig::new(2, 2));
    let (r, trace) = engine
        .query_traced(&plan, vec![Value::Vertex(VertexId(5))])
        .unwrap();
    // 5 -> {6} -> {7} -> {8}, one hop per stage.
    assert_eq!(r.rows, vec![vec![Value::Vertex(VertexId(8))]]);

    let t = trace.expect("trace reassembled after query completion");
    assert_eq!(t.query, r.query.0);
    assert!(t.total_ns > 0, "coordinator stamped the latency");

    // Complete per-stage timeline: all 3 stages, in order, with
    // coordinator begin/end stamps and monotone stage boundaries.
    assert_eq!(
        t.stages.len(),
        3,
        "complete 3-stage timeline:\n{}",
        t.pretty()
    );
    for (i, st) in t.stages.iter().enumerate() {
        assert_eq!(st.stage, i as u32);
        assert!(st.end_ns >= st.begin_ns, "stage {i} boundaries ordered");
        if i > 0 {
            assert!(
                st.begin_ns >= t.stages[i - 1].begin_ns,
                "stages begin in execution order"
            );
        }
        assert!(st.executed() > 0, "stage {i} executed traversers");
    }

    // The acceptance reconciliation: traverser-lane message totals match
    // the MsgLedger conservation counters exactly (debug builds).
    if MsgLedger::ENABLED {
        assert!(t.ledger_sent > 0, "multi-node plan crossed workers");
        assert_eq!(
            t.traverser_msgs(),
            t.ledger_sent,
            "trace vs ledger mismatch:\n{}",
            t.pretty()
        );
        assert_eq!(t.ledger_sent, t.ledger_delivered, "message conservation");
    }

    // Metrics cover every instrumented layer: engine workers, the
    // network fabric, the pstm memo, and storage TEL scans.
    let before = engine.net_stats();
    let m = engine.metrics();
    let after = engine.net_stats();
    assert!(m.scalar("worker.executed") > 0);
    assert!(m.scalar("net.control_msgs") > 0);
    // The six `net.*` figures `benchmark/` reads are exported, and are the
    // fabric's own counters. (Sealed means every worker has handled the
    // `QueryEnd`; one it passed on may still be leaving its buffer, so the
    // export is bracketed by two reads of the monotonic counters.)
    for (name, lo, hi) in [
        (
            "net.traverser_msgs",
            before.traverser_msgs,
            after.traverser_msgs,
        ),
        (
            "net.same_node_msgs",
            before.same_node_msgs,
            after.same_node_msgs,
        ),
        (
            "net.progress_msgs",
            before.progress_msgs,
            after.progress_msgs,
        ),
        ("net.wire_packets", before.wire_packets, after.wire_packets),
        ("net.wire_bytes", before.wire_bytes, after.wire_bytes),
        (
            "net.decode_errors",
            before.decode_errors,
            after.decode_errors,
        ),
    ] {
        assert!(m.get(name).is_some(), "{name} missing from metrics()");
        assert!((lo..=hi).contains(&m.scalar(name)), "{name}");
    }
    assert!(m.get("memo.hits").is_some());
    let scans = m.hist("storage.tel_scan_len").expect("TEL histogram");
    assert!(scans.count() > 0, "Expand steps scanned TELs");

    // Both exports carry the figures end-to-end.
    let json = m.to_json();
    assert!(json.contains("\"worker.executed\""), "{json}");
    let prom = m.to_prometheus();
    assert!(prom.contains("# TYPE worker_executed counter"), "{prom}");
    assert!(prom.contains("storage_tel_scan_len_count"), "{prom}");
    let tj = t.to_json();
    assert!(tj.contains("\"stages\":["), "{tj}");

    engine.shutdown();
}

#[test]
fn traces_are_per_query_and_repeatable() {
    let g = ring(16);
    let plan = Plan {
        stages: vec![expand_stage(&g, false, false)],
        num_params: 1,
    };
    let engine = GraphDance::start(g.clone(), EngineConfig::new(2, 2));
    for start in [0u64, 3, 9, 14] {
        let (r, trace) = engine
            .query_traced(&plan, vec![Value::Vertex(VertexId(start))])
            .unwrap();
        assert_eq!(
            r.rows,
            vec![vec![Value::Vertex(VertexId((start + 1) % 16))]]
        );
        let t = trace.expect("every query yields its own trace");
        assert_eq!(t.query, r.query.0, "traces do not cross queries");
        if MsgLedger::ENABLED {
            assert_eq!(t.traverser_msgs(), t.ledger_sent);
        }
    }
    engine.shutdown();
}

/// Workers time a query per turn — one pop from the ring until requeued
/// or drained — so on each worker its wait and exec intervals are disjoint
/// and lie inside its life: summed over stages they cannot exceed the
/// latency, however many traversers sat queued at once (a per-traverser
/// sum of waits would). Counts are folded per turn and lose nothing:
/// `worker.executed` is exactly what the trace says ran.
#[test]
fn per_worker_wait_and_exec_add_up_to_at_most_the_latency() {
    // Out-degree 8, three hops: hundreds of traversers queued per worker.
    const N: u64 = 512;
    let mut b = GraphBuilder::new(Partitioner::new(1, 2));
    let node = b.schema_mut().register_vertex_label("N");
    let e = b.schema_mut().register_edge_label("e");
    for i in 0..N {
        b.add_vertex(VertexId(i), node, vec![]).unwrap();
    }
    for i in 0..N {
        for k in 0..8 {
            let j = (i * 7 + k * 61 + 1) % N;
            b.add_edge(VertexId(i), e, VertexId(j), vec![]).unwrap();
        }
    }
    let g = b.finish();
    let mut qb = QueryBuilder::new(g.schema());
    qb.v_param(0).out("e").out("e").out("e");
    let plan = qb.compile().unwrap();
    let engine = GraphDance::start(g, EngineConfig::new(1, 2));
    let (r, trace) = engine
        .query_traced(&plan, vec![Value::Vertex(VertexId(3))])
        .unwrap();
    assert_eq!(r.rows.len(), 512, "8^3 walks of three hops");
    let t = trace.expect("trace reassembled after query completion");

    let mut per_worker = std::collections::BTreeMap::<u32, u64>::new();
    let spans = t.stages.iter().flat_map(|st| &st.spans);
    for span in spans.filter(|s| s.worker != COORD_WORKER) {
        *per_worker.entry(span.worker).or_default() += span.queue_wait_ns + span.exec_ns;
    }
    assert_eq!(
        per_worker.len(),
        2,
        "both workers ran turns:\n{}",
        t.pretty()
    );
    for (worker, busy) in per_worker {
        assert!(
            busy <= t.total_ns,
            "worker {worker}: wait + exec = {busy} ns > latency {} ns:\n{}",
            t.total_ns,
            t.pretty()
        );
    }
    let executed: u64 = t.stages.iter().map(|st| st.executed()).sum();
    assert_eq!(executed, 1 + 8 + 64 + 512, "one traverser per walk prefix");
    assert_eq!(engine.metrics().scalar("worker.executed"), executed);
    engine.shutdown();
}
