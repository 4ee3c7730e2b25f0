//! Regression test for the BSP engine's superstep barrier.
//!
//! The barrier is counted: a worker runs superstep `d` once it has parked
//! as many traversers as the step reports up to `d − 1` say were sent to
//! it. A round-tagged probe used to stand there, and a straggler reply
//! from an earlier probe round could corrupt a later round's sum; with no
//! probe rounds that race is gone by construction. One race stays, and
//! depth gating in `run_step` answers it: a fast peer's superstep output
//! can arrive before this worker's own `RunStep` and must stay parked
//! rather than execute one superstep early.
//!
//! Both bugs showed up as the *first* query on a fresh engine hanging until
//! its deadline; the test runs many cold-start queries with a short
//! deadline to catch any recurrence. The 4 × 2 input matters: only with
//! three or more nodes do the data lane from worker A to worker B, A's step
//! report to node 0 and node 0's `RunStep` to B share no FIFO path, so
//! only there does B's count, not path order, hold the step back.

use std::time::Duration;

use graphdance::baselines::{BspEngine, QueryEngine};
use graphdance::common::{Partitioner, Value, VertexId};
use graphdance::datagen::{KhopDataset, KhopParams};
use graphdance::engine::EngineConfig;
use graphdance::query::expr::Expr;
use graphdance::query::plan::Order;
use graphdance::query::QueryBuilder;

#[test]
fn bsp_cold_start_queries_never_wedge() {
    let data = KhopDataset::generate(KhopParams::fs_sim(1200));
    for (nodes, wpn) in [(2, 2), (4, 2)] {
        for trial in 0..8u64 {
            let g = data.build(Partitioner::new(nodes, wpn)).expect("builds");
            let w = g.schema().prop("weight").unwrap();
            let mut b = QueryBuilder::new(g.schema());
            b.v_param(0);
            let c = b.alloc_slot();
            let d = b.alloc_slot();
            b.repeat(1, 2, c, |r| {
                r.compute(
                    d,
                    Expr::Add(Box::new(Expr::Slot(d)), Box::new(Expr::int(1))),
                );
                r.out("link");
                r.min_dist(d);
            });
            b.dedup();
            b.top_k(10, vec![(Expr::Prop(w), Order::Desc)], vec![Expr::VertexId]);
            let plan = b.compile().unwrap();
            let mut cfg = EngineConfig::new(nodes, wpn);
            cfg.query_timeout = Duration::from_secs(20);
            let engine = BspEngine::start(g, cfg);
            // The very first query on a fresh engine was the racy one.
            let r = engine
                .query_timed(&plan, vec![Value::Vertex(VertexId(trial * 97 % 1200))])
                .unwrap_or_else(|e| {
                    panic!("{nodes} x {wpn} trial {trial}: cold-start BSP query wedged: {e}")
                });
            assert!(
                r.latency < Duration::from_secs(15),
                "{nodes} x {wpn} trial {trial}: suspiciously slow ({:?})",
                r.latency
            );
            engine.shutdown();
        }
    }
}
