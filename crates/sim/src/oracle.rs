//! The sequential oracle: a single-machine reference interpreter.
//!
//! Runs a compiled plan to completion on one thread with a plain FIFO work
//! list — no network, no partitioned memo ownership races, no scheduling.
//! Sources and `PrevRows` seeding go through the PSTM [`Interpreter`], as
//! on every engine; each traverser then runs on the reference step
//! ([`crate::reference`]), an implementation of the step chain independent
//! of the arena step the engines run. Any simulated run that disagrees has
//! an *execution* bug (lost message, progress/rows reordering, memo
//! corruption) or an arena-path bug, which is exactly what differential
//! checking is for.
//!
//! The oracle still keeps one memo **per partition** and routes spawned
//! traversers to their destination partition's memo, mirroring the
//! distributed memo ownership (dedup and min-dist tables are keyed by the
//! owning partition, §III-B). The per-partition tables are disjoint, so
//! their union equals a single global table — but using the same layout
//! means the oracle exercises the identical memo code paths.

use std::collections::VecDeque;

use graphdance_common::{GdError, GdResult, PartId, QueryId, Value};
use graphdance_pstm::{
    AggState, Interpreter, Memo, Row, Traverser, Weight, WeightAccumulator, WeightLedger,
};
use graphdance_query::plan::{Plan, SourceSpec};
use graphdance_storage::{Graph, Timestamp};

use crate::reference;

/// RNG stream for the oracle's weight splits, away from worker streams
/// (`0..num_parts`), the coordinator (`u64::MAX`), and the simulator's
/// scheduling/fault streams (`u64::MAX-1`, `u64::MAX-2`).
const ORACLE_STREAM: u64 = u64::MAX - 3;

/// Query id namespace for oracle runs (never collides with engine-assigned
/// ids, which count up from 1).
const ORACLE_QUERY: QueryId = QueryId(u64::MAX);

/// Execute `plan` sequentially against `graph` and return its result rows.
///
/// The row *multiset* is what differential checks compare; row order is an
/// execution artifact in both the oracle and the engines. `seed` only
/// drives weight splitting — for any plan whose semantics are
/// order-independent (dedup'd reachability, counts, commutative
/// aggregates), the returned multiset does not depend on it.
pub fn oracle_rows(
    graph: &Graph,
    plan: &Plan,
    params: &[Value],
    read_ts: Timestamp,
    seed: u64,
) -> GdResult<Vec<Row>> {
    plan.check_call(params)?;
    let query = ORACLE_QUERY;
    let mut rng = graphdance_common::rng::derive(seed, ORACLE_STREAM);
    let num_parts = graph.partitioner().num_parts() as usize;
    let mut memos: Vec<Memo> = (0..num_parts).map(|_| Memo::new()).collect();
    let mut ledger = WeightLedger::new();
    let parts: Vec<PartId> = graph.partitioner().parts().collect();

    let mut prev_rows: Vec<Row> = Vec::new();
    for stage_idx in 0..plan.stages.len() {
        let interp = Interpreter {
            graph,
            plan,
            stage_idx,
            query,
            params,
            read_ts,
        };
        let stage = &plan.stages[stage_idx];
        let mut acc = WeightAccumulator::new();
        let mut queue: VecDeque<(PartId, Traverser)> = VecDeque::new();

        // Source phase: the root weight splits across pipelines, then
        // across partitions — the shape of the engines'
        // `Interpreter::start_sources`, except that a `Param` source runs
        // on every partition too.
        let pipe_weights = Weight::ROOT.split(stage.pipelines.len(), &mut rng);
        for (pi, pw) in pipe_weights.into_iter().enumerate() {
            match &stage.pipelines[pi].source {
                SourceSpec::PrevRows { .. } => {
                    let out = interp.seed_prev_rows(pi as u16, &prev_rows, pw, &mut rng)?;
                    ledger
                        .check_step(query, pw, &out)
                        .map_err(GdError::InvariantViolation)?;
                    acc.add(out.finished);
                    queue.extend(out.spawned);
                }
                _ => {
                    let shares = pw.split(parts.len(), &mut rng);
                    for (p, w) in parts.iter().zip(shares) {
                        let out = interp.run_source(pi as u16, w, &graph.read(*p), &mut rng)?;
                        ledger
                            .check_step(query, w, &out)
                            .map_err(GdError::InvariantViolation)?;
                        acc.add(out.finished);
                        queue.extend(out.spawned);
                    }
                }
            }
        }

        // Traversal phase: plain FIFO until the scope drains.
        let mut emitted: Vec<Row> = Vec::new();
        while let Some((p, t)) = queue.pop_front() {
            let input = t.weight;
            let part = graph.read(p);
            let memo = memos[p.as_usize()].query_mut(query);
            let out = reference::run_traverser(&interp, t, &part, memo, &mut rng)?;
            ledger
                .check_step(query, input, &out)
                .map_err(GdError::InvariantViolation)?;
            acc.add(out.finished);
            emitted.extend(out.emitted);
            queue.extend(out.spawned);
        }
        // The oracle has an independent completion signal (the queue is
        // empty), so cross-check the weight law like the BSP driver does.
        WeightLedger::check_stage_total(query, acc.sum()).map_err(GdError::InvariantViolation)?;

        prev_rows = if let Some(agg) = &stage.agg {
            // Gather phase: merge per-partition partials, then finalize.
            let mut merged: Option<AggState> = None;
            for m in &mut memos {
                if let Some(partial) = m.query_mut(query).take_stage_state() {
                    match &mut merged {
                        None => merged = Some(partial),
                        Some(acc) => acc.merge(&agg.func, partial)?,
                    }
                }
            }
            merged
                .unwrap_or_else(|| AggState::new(&agg.func))
                .finalize(&agg.func)
        } else {
            // Per-stage memo state (dedup sets, join tables) is dropped
            // between stages, mirroring the workers' StageBegin handling.
            for m in &mut memos {
                let _ = m.query_mut(query).take_stage_state();
            }
            emitted
        };
    }
    for m in &mut memos {
        m.clear_query(query);
    }
    Ok(prev_rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphdance_common::{Partitioner, VertexId};
    use graphdance_query::QueryBuilder;
    use graphdance_storage::GraphBuilder;

    fn ring(n: u64, parts: Partitioner) -> Graph {
        let mut b = GraphBuilder::new(parts);
        let person = b.schema_mut().register_vertex_label("Person");
        let knows = b.schema_mut().register_edge_label("knows");
        for i in 0..n {
            b.add_vertex(VertexId(i), person, vec![]).unwrap();
        }
        for i in 0..n {
            b.add_edge(VertexId(i), knows, VertexId((i + 1) % n), vec![])
                .unwrap();
        }
        b.finish()
    }

    #[test]
    fn khop_on_a_ring_reaches_exactly_the_next_k() {
        let g = ring(16, Partitioner::new(2, 2));
        let mut b = QueryBuilder::new(g.schema());
        b.v_param(0);
        let c = b.alloc_slot();
        b.repeat(1, 3, c, |r| {
            r.out("knows");
        });
        b.dedup();
        let plan = b.compile().unwrap();
        let mut rows = oracle_rows(&g, &plan, &[Value::Vertex(VertexId(0))], 1, 7).unwrap();
        rows.sort_by(|a, b| a[0].cmp_total(&b[0]));
        let got: Vec<u64> = rows.iter().map(|r| r[0].as_vertex().unwrap().0).collect();
        assert_eq!(got, vec![1, 2, 3]);
    }

    #[test]
    fn result_multiset_is_seed_independent() {
        let g = ring(12, Partitioner::new(2, 2));
        let mut b = QueryBuilder::new(g.schema());
        b.v_param(0);
        let c = b.alloc_slot();
        b.repeat(1, 2, c, |r| {
            r.out("knows");
        });
        b.dedup();
        let plan = b.compile().unwrap();
        let norm = |seed: u64| {
            let mut rows = oracle_rows(&g, &plan, &[Value::Vertex(VertexId(3))], 1, seed).unwrap();
            rows.sort_by(|a, b| a[0].cmp_total(&b[0]));
            rows
        };
        assert_eq!(norm(1), norm(999));
    }

    #[test]
    fn count_aggregate_totals_all_paths() {
        let g = ring(10, Partitioner::new(1, 2));
        let mut b = QueryBuilder::new(g.schema());
        b.v_param(0);
        let c = b.alloc_slot();
        b.repeat(1, 2, c, |r| {
            r.out("knows");
        });
        b.count();
        let plan = b.compile().unwrap();
        let rows = oracle_rows(&g, &plan, &[Value::Vertex(VertexId(0))], 1, 3).unwrap();
        // A ring is a functional graph: one path of each length 1 and 2.
        assert_eq!(rows, vec![vec![Value::Int(2)]]);
    }

    #[test]
    fn scan_count_sees_every_vertex() {
        let g = ring(14, Partitioner::new(2, 2));
        let mut b = QueryBuilder::new(g.schema());
        b.v().has_label("Person").count();
        let plan = b.compile().unwrap();
        let rows = oracle_rows(&g, &plan, &[], 1, 1).unwrap();
        assert_eq!(rows, vec![vec![Value::Int(14)]]);
    }

    #[test]
    fn missing_params_are_rejected() {
        let g = ring(4, Partitioner::new(1, 1));
        let mut b = QueryBuilder::new(g.schema());
        b.v_param(0).out("knows");
        let plan = b.compile().unwrap();
        let err = oracle_rows(&g, &plan, &[], 1, 1).expect_err("no params supplied");
        assert!(matches!(err, GdError::InvalidProgram(_)));
    }
}
