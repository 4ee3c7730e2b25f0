//! The oracle's reference step: the PSTM step chain over plain cloned
//! traversers.
//!
//! Every engine runs traversers through the arena step,
//! [`Interpreter::run_handle`]. This is a second, independent
//! implementation of the same chain — one heap [`Traverser`] per step, its
//! register file cloned into every child — that [`crate::oracle_rows`]
//! runs. It keeps its own copy of everything that decides a row, a route
//! or a weight (slot writes, join-key placement, register-file merging,
//! the `LoopEnd` fork split), so a bug in the arena path shows as an
//! oracle disagreement instead of being shared by both sides.
//!
//! It stays unfused: a `MinDist` or `Dedup` right after an `Expand` runs
//! here as its own step on each child, after the child exists, where the
//! arena step runs it per neighbour before (DESIGN.md §12, "Fused
//! successor guard"). This is the definition the fusion is checked
//! against. `tests/arena_equivalence.rs` holds the two to the same rows,
//! RNG draws and memo order, byte for byte, on every plan shape with no
//! such adjacency, and to the same sorted row multiset on the fused
//! shapes (k-hop with `min_dist`, k-hop with `dedup_by`); it also
//! measures what the arena layout saves in allocations per step.

use std::hash::{Hash, Hasher};

use rand::rngs::SmallRng;

use graphdance_common::fxhash::FxHasher;
use graphdance_common::value::ValueKey;
use graphdance_common::{GdError, GdResult, PartId, Value};
use graphdance_pstm::{AggState, Interpreter, Outcome, QueryMemo, Traverser};
use graphdance_query::expr::EvalCtx;
use graphdance_query::plan::{JoinSide, PlanStep, Stage};
use graphdance_storage::GraphPartition;

/// Advance one traverser. `part` must be the partition the traverser was
/// routed to; `memo` is that partition's memo for this query.
pub fn run_traverser(
    interp: &Interpreter<'_>,
    mut t: Traverser,
    part: &GraphPartition,
    memo: &mut QueryMemo,
    rng: &mut SmallRng,
) -> GdResult<Outcome> {
    let stage = interp.stage();
    let pipe = &stage.pipelines[t.pipeline as usize];
    let mut out = Outcome::default();
    loop {
        // Emit position: end of pipeline.
        if t.pc as usize >= pipe.steps.len() {
            out.steps_executed += 1;
            let ctx = eval_ctx(interp, part, &t)?;
            if let Some(agg) = &stage.agg {
                memo.agg_mut(|| AggState::new(&agg.func))
                    .insert(&agg.func, &ctx)?;
            } else {
                let row = stage
                    .output
                    .iter()
                    .map(|e| e.eval(&ctx))
                    .collect::<GdResult<Vec<_>>>()?;
                out.emitted.push(row);
            }
            out.finished.absorb(t.weight);
            return Ok(out);
        }

        out.steps_executed += 1;
        match &pipe.steps[t.pc as usize] {
            PlanStep::Expand {
                dir,
                label,
                edge_loads,
            } => {
                let mut w = t.weight;
                for e in part.edges(t.vertex, *dir, *label, interp.read_ts)? {
                    let mut child = t.clone();
                    child.vertex = e.neighbor;
                    child.pc = t.pc + 1;
                    child.depth = t.depth.saturating_add(1);
                    child.weight = w.split_one(rng);
                    for (k, slot) in edge_loads {
                        child.set_slot(*slot, e.entry.prop(*k).cloned().unwrap_or(Value::Null));
                    }
                    out.spawned.push((interp.graph.part_of(e.neighbor), child));
                }
                out.finished.absorb(w);
                return Ok(out);
            }
            PlanStep::Filter(pred) => {
                let ctx = eval_ctx(interp, part, &t)?;
                if !pred.eval_bool(&ctx)? {
                    out.finished.absorb(t.weight);
                    return Ok(out);
                }
                t.pc += 1;
            }
            PlanStep::Load(loads) => {
                let values: Vec<(u8, Value)> = {
                    let record = part.vertex(t.vertex)?;
                    loads
                        .iter()
                        .map(|(k, slot)| (*slot, record.prop(*k).cloned().unwrap_or(Value::Null)))
                        .collect()
                };
                for (slot, v) in values {
                    t.set_slot(slot, v);
                }
                t.pc += 1;
            }
            PlanStep::Compute(sets) => {
                let values: Vec<(u8, Value)> = {
                    let ctx = eval_ctx(interp, part, &t)?;
                    sets.iter()
                        .map(|(slot, e)| Ok((*slot, e.eval(&ctx)?)))
                        .collect::<GdResult<Vec<_>>>()?
                };
                for (slot, v) in values {
                    t.set_slot(slot, v);
                }
                t.pc += 1;
            }
            PlanStep::Dedup { slots } => {
                let key: Vec<ValueKey> = slots.iter().map(|s| t.slot(*s).group_key()).collect();
                if memo.dedup_insert(t.pipeline, t.pc, t.vertex, key) {
                    t.pc += 1;
                } else {
                    out.finished.absorb(t.weight);
                    return Ok(out);
                }
            }
            PlanStep::MinDist { dist_slot } => {
                let dist = t.slot(*dist_slot).as_int().unwrap_or(0);
                if memo.min_dist_update(t.pipeline, t.pc, t.vertex, dist) {
                    t.pc += 1;
                } else {
                    out.finished.absorb(t.weight);
                    return Ok(out);
                }
            }
            PlanStep::LoopEnd {
                counter,
                min,
                max,
                back_to,
            } => {
                let n = t.slot(*counter).as_int().unwrap_or(0) + 1;
                t.set_slot(*counter, Value::Int(n));
                let go_back = n < *max;
                let fall_through = n >= *min;
                match (go_back, fall_through) {
                    (true, true) => {
                        // Fork: one copy loops, this one falls through.
                        let parts = t.weight.split(2, rng);
                        let mut looper = t.clone();
                        looper.weight = parts[0];
                        looper.pc = *back_to;
                        out.spawned.push((part.part(), looper));
                        t.weight = parts[1];
                        t.pc += 1;
                    }
                    (true, false) => t.pc = *back_to,
                    (false, true) => t.pc += 1,
                    (false, false) => {
                        // Unreachable for validated bounds; be safe.
                        out.finished.absorb(t.weight);
                        return Ok(out);
                    }
                }
            }
            PlanStep::Join { join_id, side, key } => {
                // Evaluate the key once, at the traverser's own vertex.
                let key_val = match t.aux_key.take() {
                    Some(v) => v,
                    None => {
                        let ctx = eval_ctx(interp, part, &t)?;
                        key.eval(&ctx)?
                    }
                };
                let target = join_key_part(interp, &key_val);
                if target != part.part() {
                    // Route to the key's owner (partitionable by h_Join,
                    // §III-A); carry the evaluated key along.
                    t.aux_key = Some(key_val);
                    out.spawned.push((target, t));
                    return Ok(out);
                }
                let spec = stage
                    .joins
                    .iter()
                    .find(|j| j.join_id == *join_id)
                    .ok_or_else(|| GdError::Internal(format!("join {join_id} unspecified")))?;
                let is_probe_side = *side == JoinSide::Probe;
                let matches = memo.join_insert_probe(
                    *join_id,
                    key_val.group_key(),
                    is_probe_side,
                    t.locals.clone(),
                );
                // Continuation position: after the Join step in the probe
                // pipeline.
                let cont_pipe = spec.probe_pipeline;
                let cont_pc = join_step_pc(stage, cont_pipe, *join_id)? + 1;
                let cont_vertex = key_val.as_vertex().unwrap_or(t.vertex);
                let cont_part = key_val
                    .as_vertex()
                    .map(|v| interp.graph.part_of(v))
                    .unwrap_or(part.part());
                let mut w = t.weight;
                for other in matches {
                    let locals = if is_probe_side {
                        merge_locals(&t.locals, &other)
                    } else {
                        merge_locals(&other, &t.locals)
                    };
                    let child = Traverser {
                        query: t.query,
                        pipeline: cont_pipe,
                        pc: cont_pc,
                        vertex: cont_vertex,
                        locals,
                        weight: w.split_one(rng),
                        depth: t.depth.saturating_add(1),
                        aux_key: None,
                    };
                    out.spawned.push((cont_part, child));
                }
                out.finished.absorb(w);
                return Ok(out);
            }
            PlanStep::MoveTo { vertex_slot } => {
                let v = t.slot(*vertex_slot).as_vertex().ok_or_else(|| {
                    GdError::TypeError(format!("MoveTo slot {vertex_slot} does not hold a vertex"))
                })?;
                t.vertex = v;
                t.pc += 1;
                let target = interp.graph.part_of(v);
                if target != part.part() {
                    out.spawned.push((target, t));
                    return Ok(out);
                }
            }
        }
    }
}

/// Expression context at `t`'s vertex: its record when `part` holds it.
fn eval_ctx<'r>(
    interp: &'r Interpreter<'_>,
    part: &'r GraphPartition,
    t: &'r Traverser,
) -> GdResult<EvalCtx<'r>> {
    let record = if part.contains(t.vertex) {
        Some(part.vertex(t.vertex)?)
    } else {
        None
    };
    Ok(EvalCtx {
        vertex: t.vertex,
        record,
        locals: &t.locals,
        params: interp.params,
    })
}

/// Partition owning a join key: vertex keys go to the vertex's owner (so
/// continuations can read its properties); other keys hash.
fn join_key_part(interp: &Interpreter<'_>, key: &Value) -> PartId {
    match key.as_vertex() {
        Some(v) => interp.graph.part_of(v),
        None => {
            let mut h = FxHasher::default();
            key.group_key().hash(&mut h);
            interp.graph.partitioner().part_of_key(h.finish())
        }
    }
}

/// Merge probe-side and build-side register files: probe slots win where
/// non-null (the planner assigns the two sides disjoint slots, so this is a
/// plain union).
fn merge_locals(probe: &[Value], build: &[Value]) -> Vec<Value> {
    let n = probe.len().max(build.len());
    (0..n)
        .map(|i| {
            let p = probe.get(i).unwrap_or(&Value::Null);
            if p.is_null() {
                build.get(i).cloned().unwrap_or(Value::Null)
            } else {
                p.clone()
            }
        })
        .collect()
}

/// Step index of `join_id`'s Join step within `pipeline`.
fn join_step_pc(stage: &Stage, pipeline: u16, join_id: u16) -> GdResult<u16> {
    stage.pipelines[pipeline as usize]
        .steps
        .iter()
        .position(|s| matches!(s, PlanStep::Join { join_id: j, .. } if *j == join_id))
        .map(|i| i as u16)
        .ok_or_else(|| {
            GdError::Internal(format!("join {join_id} not found in pipeline {pipeline}"))
        })
}
