//! The PSTM step interpreter.
//!
//! The interpreter advances one traverser through the compiled plan,
//! executing as many **partition-local** steps as possible inline (filters,
//! loads, memo lookups) and stopping when the traverser either
//!
//! * spawns children (`Expand`, `LoopEnd` forks, `Join` matches) — returned
//!   with their destination partitions for the engine to route,
//! * emits (end of pipeline) — folded into the local aggregation memo or
//!   returned as a result row, or
//! * finishes (filtered out, deduplicated, pruned) — its weight is released.
//!
//! Every engine in the library (asynchronous PSTM, BSP, non-partitioned,
//! hybrid) runs its traversers through this interpreter's one step
//! entry, [`Interpreter::run_handle`], on the same arena layout, so
//! results are identical by construction and engine comparisons measure
//! *execution strategy*, not query semantics or interpreter layout. The
//! only other implementation of the step chain is the oracle's reference
//! in `graphdance-sim`, kept independent so it can check this one.
//!
//! One step is fused: a `MinDist` or `Dedup` right after an `Expand` with
//! no edge loads runs inside the `Expand`, once per neighbour, before the
//! child exists (DESIGN.md §12, "Fused successor guard"). The reference
//! stays unfused, so the differential proptest holds the two byte for
//! byte on plan shapes without that adjacency and to the same row
//! multiset on those with it.

use std::hash::{Hash, Hasher};

use rand::rngs::SmallRng;

use graphdance_common::fxhash::FxHasher;
use graphdance_common::{GdError, GdResult, PartId, QueryId, Value, VertexId, WorkerId};
use graphdance_query::expr::EvalCtx;
use graphdance_query::plan::{JoinSide, Plan, PlanStep, SourceSpec, Stage};
use graphdance_storage::{Graph, GraphPartition, Timestamp};

use crate::agg::AggState;
use crate::arena::{
    set_slot_vec, slot_of, ArenaTraverser, LocalsId, LocalsTable, TraverserArena, TraverserHandle,
};
use crate::memo::{Guard, QueryMemo};
use crate::traverser::Traverser;
use crate::weight::Weight;

/// One emitted result row.
pub type Row = Vec<Value>;

/// What a source or a `PrevRows` seeding produced: wire-format
/// traversers, which the engine interns into its arena. (The oracle's
/// reference step in `graphdance-sim` reports in the same shape.)
#[derive(Debug, Default)]
pub struct Outcome {
    /// Spawned traversers with their destination partitions (may include the
    /// current partition; the engine decides local queue vs. network).
    pub spawned: Vec<(PartId, Traverser)>,
    /// Result rows emitted by a non-aggregating stage.
    pub emitted: Vec<Row>,
    /// Weight released by traversers that terminated here.
    pub finished: Weight,
    /// Number of plan steps executed (for Table I stage accounting).
    pub steps_executed: u32,
}

/// One start of a stage, as [`Interpreter::start_sources`] hands it to the
/// engine with the worker it goes to.
#[derive(Debug)]
pub enum SourceStart {
    /// Run pipeline `pipeline`'s source on the worker's partition with
    /// `weight`, its share of the pipeline's weight.
    Source { pipeline: u16, weight: Weight },
    /// A `PrevRows` seed, to run on the worker that owns its vertex.
    Seed(Traverser),
}

/// What one [`Interpreter::run_handle`] call produced: the arena analogue
/// of [`Outcome`]. Spawned children live in the worker's arena; the caller
/// routes them by handle and flattens to the wire format only at the
/// outbox boundary, then reuses the buffers for the next traverser.
#[derive(Debug, Default)]
pub struct HandleOutcome {
    /// Spawned traversers (arena handles) with their destination partitions.
    pub spawned: Vec<(PartId, TraverserHandle)>,
    /// Result rows emitted by a non-aggregating stage.
    pub emitted: Vec<Row>,
    /// Weight released by traversers that terminated here.
    pub finished: Weight,
    /// Number of plan steps executed (for Table I stage accounting).
    pub steps_executed: u32,
}

impl HandleOutcome {
    /// Fresh empty outcome.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reset for reuse, retaining the `spawned`/`emitted` allocations —
    /// callers keep one scratch outcome across an execution batch so the
    /// per-traverser hot path performs no outcome allocations at all.
    pub fn clear(&mut self) {
        self.spawned.clear();
        self.emitted.clear();
        self.finished = Weight::ZERO;
        self.steps_executed = 0;
    }

    /// Replace the contents with a source's [`Outcome`], interning each
    /// spawned traverser into `arena` — how a source's result enters the
    /// arena path.
    pub fn admit(&mut self, source: Outcome, arena: &mut TraverserArena, locals: &mut LocalsTable) {
        self.clear();
        for (dest, t) in source.spawned {
            self.spawned.push((dest, arena.admit(t, locals)));
        }
        self.emitted = source.emitted;
        self.finished = source.finished;
        self.steps_executed = source.steps_executed;
    }
}

/// Interpreter for one query's current stage.
pub struct Interpreter<'a> {
    /// The shared graph.
    pub graph: &'a Graph,
    /// The compiled plan.
    pub plan: &'a Plan,
    /// Index of the running stage.
    pub stage_idx: usize,
    /// The query id (memo namespace).
    pub query: QueryId,
    /// Query parameters.
    pub params: &'a [Value],
    /// Snapshot timestamp.
    pub read_ts: Timestamp,
}

impl<'a> Interpreter<'a> {
    /// The running stage.
    #[inline]
    pub fn stage(&self) -> &'a Stage {
        &self.plan.stages[self.stage_idx]
    }

    /// Execute a pipeline source on one partition, producing the initial
    /// traversers (all local to `part`). `weight` is this partition's share
    /// of the pipeline's root weight.
    pub fn run_source(
        &self,
        pipeline: u16,
        weight: Weight,
        part: &GraphPartition,
        rng: &mut SmallRng,
    ) -> GdResult<Outcome> {
        let stage = self.stage();
        let spec = &stage.pipelines[pipeline as usize].source;
        let mut out = Outcome::default();
        let mut w = weight;
        let mut spawn_at = |v: VertexId, out: &mut Outcome, w: &mut Weight| {
            let t = Traverser::root(self.query, pipeline, v, stage.num_slots, w.split_one(rng));
            out.spawned.push((part.part(), t));
        };
        match spec {
            SourceSpec::Param { param } => {
                let v = self
                    .params
                    .get(*param)
                    .and_then(Value::as_vertex)
                    .ok_or_else(|| {
                        GdError::InvalidProgram(format!("param {param} is not a vertex id"))
                    })?;
                if part.contains(v) {
                    spawn_at(v, &mut out, &mut w);
                }
            }
            SourceSpec::ScanLabel { label } => {
                for v in part.scan_label(*label, self.read_ts) {
                    spawn_at(v, &mut out, &mut w);
                }
            }
            SourceSpec::IndexLookup { label, key, value } => {
                let ctx = EvalCtx {
                    vertex: VertexId::INVALID,
                    record: None,
                    locals: &[],
                    params: self.params,
                };
                let needle = value.eval(&ctx)?;
                if part.has_prop_index(*label, *key) {
                    for v in part.index_lookup(*label, *key, &needle, self.read_ts)? {
                        spawn_at(v, &mut out, &mut w);
                    }
                } else {
                    // No index built: degrade to a filtered label scan.
                    for v in part.scan_label(*label, self.read_ts) {
                        if part.vertex(v)?.prop(*key) == Some(&needle) {
                            spawn_at(v, &mut out, &mut w);
                        }
                    }
                }
            }
            SourceSpec::PrevRows { .. } => {
                return Err(GdError::Internal(
                    "PrevRows sources are seeded by the coordinator, not run_source".into(),
                ))
            }
        }
        // Whatever weight was not given to children is finished here.
        out.finished.absorb(w);
        Ok(out)
    }

    /// Seed traversers for a `PrevRows` source from the previous stage's
    /// result rows ([`Interpreter::start_sources`], the oracle). Returns
    /// routed traversers and the residual weight.
    pub fn seed_prev_rows(
        &self,
        pipeline: u16,
        rows: &[Row],
        weight: Weight,
        rng: &mut SmallRng,
    ) -> GdResult<Outcome> {
        let stage = self.stage();
        let spec = &stage.pipelines[pipeline as usize].source;
        let (vertex_col, seed) = match spec {
            SourceSpec::PrevRows { vertex_col, seed } => (*vertex_col, seed),
            other => {
                return Err(GdError::Internal(format!(
                    "seed_prev_rows on non-PrevRows source {other:?}"
                )))
            }
        };
        let mut out = Outcome::default();
        let mut w = weight;
        for row in rows {
            let v = row
                .get(vertex_col)
                .and_then(Value::as_vertex)
                .ok_or_else(|| {
                    GdError::InvalidProgram(format!(
                        "previous stage row column {vertex_col} is not a vertex"
                    ))
                })?;
            let mut t = Traverser::root(self.query, pipeline, v, stage.num_slots, w.split_one(rng));
            for (slot, col) in seed {
                t.set_slot(*slot, row.get(*col).cloned().unwrap_or(Value::Null));
            }
            out.spawned.push((self.graph.part_of(v), t));
        }
        out.finished.absorb(w);
        Ok(out)
    }

    /// Start the running stage: split the root weight over its pipelines
    /// and hand each start to `emit` with its worker, in pipeline order. A
    /// `Param` source starts where the graph placed its vertex (Fennel may
    /// have moved it off its hash home), a scan or index source on every
    /// partition, and a `PrevRows` source seeds one traverser per row of
    /// `prev_rows` at its vertex's owner. Returns the weight finished on
    /// the spot. The coordinator and BSP's superstep `Driver` start stages here.
    pub fn start_sources(
        &self,
        prev_rows: &[Row],
        rng: &mut SmallRng,
        mut emit: impl FnMut(WorkerId, SourceStart),
    ) -> GdResult<Weight> {
        let (stage, parts) = (self.stage(), self.graph.partitioner());
        let mut finished = Weight::ZERO;
        let pipe_weights = Weight::ROOT.split(stage.pipelines.len(), rng);
        for (pi, (pipeline, pw)) in stage.pipelines.iter().zip(pipe_weights).enumerate() {
            let pipeline_source = |weight| SourceStart::Source {
                pipeline: pi as u16,
                weight,
            };
            match &pipeline.source {
                SourceSpec::Param { param } => {
                    let Some(v) = self.params.get(*param).and_then(Value::as_vertex) else {
                        let e = format!("param {param} is not a vertex id");
                        return Err(GdError::InvalidProgram(e));
                    };
                    emit(self.graph.worker_of(v), pipeline_source(pw));
                }
                SourceSpec::IndexLookup { .. } | SourceSpec::ScanLabel { .. } => {
                    let shares = pw.split(parts.num_parts() as usize, rng);
                    for (p, weight) in parts.parts().zip(shares) {
                        emit(parts.worker_of_part(p), pipeline_source(weight));
                    }
                }
                SourceSpec::PrevRows { .. } => {
                    let out = self.seed_prev_rows(pi as u16, prev_rows, pw, rng)?;
                    for (p, t) in out.spawned {
                        emit(parts.worker_of_part(p), SourceStart::Seed(t));
                    }
                    finished.absorb(out.finished);
                }
            }
        }
        Ok(finished)
    }

    /// Advance the arena traverser `h`: the one step entry every engine
    /// runs. The traverser lives in `arena`, its register file is interned
    /// in `locals` (children share it copy-on-write), and each `Expand`
    /// step reads its neighbours with one TEL scan.
    ///
    /// The independent check is the oracle's reference interpreter in
    /// `graphdance-sim`, over plain cloned traversers: the 256-case
    /// differential proptest in `crates/sim/tests/arena_equivalence.rs`
    /// holds the two to the same rows, RNG draws, memo operations and
    /// routing, and to the same row multiset where a guard is fused.
    ///
    /// `h` is removed from the arena before execution. On error,
    /// everything this call interned or spawned is released again, so the
    /// arena and locals table never leak across a failed step.
    ///
    /// Results accumulate into `out`, which is cleared first — callers
    /// keep one scratch [`HandleOutcome`] across a batch so its buffers
    /// are reused instead of reallocated per traverser.
    #[allow(clippy::too_many_arguments)]
    pub fn run_handle(
        &self,
        h: TraverserHandle,
        arena: &mut TraverserArena,
        locals: &mut LocalsTable,
        part: &GraphPartition,
        memo: &mut QueryMemo,
        rng: &mut SmallRng,
        out: &mut HandleOutcome,
    ) -> GdResult<()> {
        out.clear();
        let mut cur = arena.remove(h);
        let result = self.run_arena_cursor(&mut cur, arena, locals, part, memo, rng, out);
        if result.is_err() {
            // Unwind: release the cursor's locals (if still owned) and
            // every child spawned before the failure.
            locals.unref(cur.locals);
            for (_, h) in out.spawned.drain(..) {
                arena.discard(h, locals);
            }
        }
        result
    }

    /// The arena-path step loop. `cur` has been removed from the arena; on
    /// `Ok` its state has been fully handed off (finished, or transferred
    /// back into the arena for routing) and `cur.locals` is
    /// [`LocalsId::INVALID`] exactly when the cursor no longer owns a
    /// locals reference.
    #[allow(clippy::too_many_arguments)]
    fn run_arena_cursor(
        &self,
        cur: &mut ArenaTraverser,
        arena: &mut TraverserArena,
        locals: &mut LocalsTable,
        part: &GraphPartition,
        memo: &mut QueryMemo,
        rng: &mut SmallRng,
        out: &mut HandleOutcome,
    ) -> GdResult<()> {
        let stage = self.stage();
        let pipe = &stage.pipelines[cur.pipeline as usize];
        loop {
            // Emit position: end of pipeline.
            if cur.pc as usize >= pipe.steps.len() {
                out.steps_executed += 1;
                let ctx = self.eval_ctx(part, cur.vertex, locals.get(cur.locals))?;
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
                return retire(cur, cur.weight, locals, out);
            }

            out.steps_executed += 1;
            match &pipe.steps[cur.pc as usize] {
                PlanStep::Expand {
                    dir,
                    label,
                    edge_loads,
                } => {
                    let mut w = cur.weight;
                    if edge_loads.is_empty() {
                        // No per-edge property loads: children share the
                        // parent's interned locals (CoW).
                        //
                        // A `MinDist` / `Dedup` right after runs here, per
                        // neighbour, before the child exists (DESIGN §12,
                        // "Fused successor guard"). On this partition the
                        // memo decides and the child starts past the guard.
                        // For a remote neighbour the entry, kept at this
                        // step's pc so it is never read as the owner's, logs
                        // what was sent: per-path FIFO brings that child to
                        // the owner first, so a later one it dominates would
                        // be pruned there anyway.
                        let guard = pipe
                            .steps
                            .get(cur.pc as usize + 1)
                            .and_then(|s| Guard::of(s, locals.get(cur.locals)));
                        for e in part.edges(cur.vertex, *dir, *label, self.read_ts)? {
                            let nb = e.neighbor;
                            let dest = self.graph.part_of(nb);
                            // 1 once the guard has run on `nb`'s own memo.
                            let mut past = 0;
                            if let Some(g) = &guard {
                                let here = u16::from(dest == part.part());
                                if !g.clone().admit(memo, cur.pipeline, cur.pc + here, nb) {
                                    out.steps_executed += 1;
                                    continue;
                                }
                                out.steps_executed += u32::from(here);
                                past = here;
                            }
                            locals.retain(cur.locals);
                            let mut child = cur.hop(nb, cur.locals, w.split_one(rng));
                            child.pc += past;
                            out.spawned.push((dest, arena.insert(child)));
                        }
                    } else {
                        // Edge-property loads need the full EdgeRef: scan
                        // directly and give each child its own (pooled)
                        // register file, like the reference does.
                        for e in part.edges(cur.vertex, *dir, *label, self.read_ts)? {
                            let child_w = w.split_one(rng);
                            let mut lid = locals.clone_entry(cur.locals);
                            {
                                let vals = locals.make_mut(&mut lid);
                                for (k, slot) in edge_loads {
                                    set_slot_vec(
                                        vals,
                                        *slot,
                                        e.entry.prop(*k).cloned().unwrap_or(Value::Null),
                                    );
                                }
                            }
                            let h = arena.insert(cur.hop(e.neighbor, lid, child_w));
                            out.spawned.push((self.graph.part_of(e.neighbor), h));
                        }
                    }
                    return retire(cur, w, locals, out);
                }
                PlanStep::Filter(pred) => {
                    let ctx = self.eval_ctx(part, cur.vertex, locals.get(cur.locals))?;
                    if !pred.eval_bool(&ctx)? {
                        return retire(cur, cur.weight, locals, out);
                    }
                    cur.pc += 1;
                }
                PlanStep::Load(loads) => {
                    // Unlike the reference there is no temp Vec: the
                    // vertex record borrows `part`, the register file
                    // borrows `locals` — disjoint.
                    let record = part.vertex(cur.vertex)?;
                    let vals = locals.make_mut(&mut cur.locals);
                    for (k, slot) in loads {
                        set_slot_vec(vals, *slot, record.prop(*k).cloned().unwrap_or(Value::Null));
                    }
                    cur.pc += 1;
                }
                PlanStep::Compute(sets) => {
                    if let [(slot, e)] = sets.as_slice() {
                        // Single assignment (the overwhelmingly common
                        // shape): evaluate, drop the read borrow, write —
                        // no temp buffer.
                        let v = {
                            let ctx = self.eval_ctx(part, cur.vertex, locals.get(cur.locals))?;
                            e.eval(&ctx)?
                        };
                        set_slot_vec(locals.make_mut(&mut cur.locals), *slot, v);
                    } else {
                        // Multi-assignment: every expression sees the
                        // pre-write register file, so buffer the values.
                        let values: Vec<(u8, Value)> = {
                            let ctx = self.eval_ctx(part, cur.vertex, locals.get(cur.locals))?;
                            sets.iter()
                                .map(|(slot, e)| Ok((*slot, e.eval(&ctx)?)))
                                .collect::<GdResult<Vec<_>>>()?
                        };
                        let vals = locals.make_mut(&mut cur.locals);
                        for (slot, v) in values {
                            set_slot_vec(vals, slot, v);
                        }
                    }
                    cur.pc += 1;
                }
                step @ (PlanStep::Dedup { .. } | PlanStep::MinDist { .. }) => {
                    let admitted = Guard::of(step, locals.get(cur.locals))
                        .is_some_and(|g| g.admit(memo, cur.pipeline, cur.pc, cur.vertex));
                    if !admitted {
                        return retire(cur, cur.weight, locals, out);
                    }
                    cur.pc += 1;
                }
                PlanStep::LoopEnd {
                    counter,
                    min,
                    max,
                    back_to,
                } => {
                    let n = slot_of(locals.get(cur.locals), *counter)
                        .as_int()
                        .unwrap_or(0)
                        + 1;
                    set_slot_vec(locals.make_mut(&mut cur.locals), *counter, Value::Int(n));
                    let go_back = n < *max;
                    let fall_through = n >= *min;
                    match (go_back, fall_through) {
                        (true, true) => {
                            // Fork: one copy loops, this one falls through.
                            // The looper shares the just-updated register
                            // file copy-on-write. `split_one` draws the
                            // same value `split(2, rng)` puts in
                            // `parts[0]` (the reference's looper share)
                            // without materializing the parts Vec.
                            let mut w = cur.weight;
                            let looper_w = w.split_one(rng);
                            locals.retain(cur.locals);
                            let h = arena.insert(ArenaTraverser {
                                query: cur.query,
                                pipeline: cur.pipeline,
                                pc: *back_to,
                                vertex: cur.vertex,
                                locals: cur.locals,
                                weight: looper_w,
                                depth: cur.depth,
                                aux_key: cur.aux_key.clone(),
                            });
                            out.spawned.push((part.part(), h));
                            cur.weight = w;
                            cur.pc += 1;
                        }
                        (true, false) => cur.pc = *back_to,
                        (false, true) => cur.pc += 1,
                        (false, false) => {
                            // Unreachable for validated bounds; be safe.
                            return retire(cur, cur.weight, locals, out);
                        }
                    }
                }
                PlanStep::Join { join_id, side, key } => {
                    // Evaluate the key once, at the traverser's own vertex.
                    let key_val = match cur.aux_key.take() {
                        Some(v) => v,
                        None => {
                            let ctx = self.eval_ctx(part, cur.vertex, locals.get(cur.locals))?;
                            key.eval(&ctx)?
                        }
                    };
                    let target = self.join_key_part(&key_val);
                    if target != part.part() {
                        // Route to the key's owner; the cursor's state
                        // (locals ownership included) transfers back into
                        // the arena for the outbox.
                        cur.aux_key = Some(key_val);
                        let h = arena.insert(std::mem::replace(cur, ArenaTraverser::vacant()));
                        out.spawned.push((target, h));
                        return Ok(());
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
                        locals.clone_out(cur.locals),
                    );
                    // Continuation position: after the Join step in the
                    // probe pipeline.
                    let cont_pipe = spec.probe_pipeline;
                    let cont_pc = join_step_pc(stage, cont_pipe, *join_id)? + 1;
                    let cont_vertex = key_val.as_vertex().unwrap_or(cur.vertex);
                    let cont_part = key_val
                        .as_vertex()
                        .map(|v| self.graph.part_of(v))
                        .unwrap_or(part.part());
                    let mut w = cur.weight;
                    for other in matches {
                        let merged = if is_probe_side {
                            merge_locals(locals.get(cur.locals), &other)
                        } else {
                            merge_locals(&other, locals.get(cur.locals))
                        };
                        let lid = locals.alloc(merged);
                        let h = arena.insert(ArenaTraverser {
                            query: cur.query,
                            pipeline: cont_pipe,
                            pc: cont_pc,
                            vertex: cont_vertex,
                            locals: lid,
                            weight: w.split_one(rng),
                            depth: cur.depth.saturating_add(1),
                            aux_key: None,
                        });
                        out.spawned.push((cont_part, h));
                    }
                    return retire(cur, w, locals, out);
                }
                PlanStep::MoveTo { vertex_slot } => {
                    let v = slot_of(locals.get(cur.locals), *vertex_slot)
                        .as_vertex()
                        .ok_or_else(|| {
                            GdError::TypeError(format!(
                                "MoveTo slot {vertex_slot} does not hold a vertex"
                            ))
                        })?;
                    cur.vertex = v;
                    cur.pc += 1;
                    let target = self.graph.part_of(v);
                    if target != part.part() {
                        let h = arena.insert(std::mem::replace(cur, ArenaTraverser::vacant()));
                        out.spawned.push((target, h));
                        return Ok(());
                    }
                }
            }
        }
    }

    /// Expression context at `v`: its record when `part` holds it.
    fn eval_ctx<'r>(
        &'r self,
        part: &'r GraphPartition,
        v: VertexId,
        locals: &'r [Value],
    ) -> GdResult<EvalCtx<'r>> {
        let record = if part.contains(v) {
            Some(part.vertex(v)?)
        } else {
            None
        };
        Ok(EvalCtx {
            vertex: v,
            record,
            locals,
            params: self.params,
        })
    }

    /// Partition owning a join key: vertex keys go to the vertex's owner
    /// (so continuations can read its properties); other keys hash.
    fn join_key_part(&self, key: &Value) -> PartId {
        match key.as_vertex() {
            Some(v) => self.graph.part_of(v),
            None => {
                let mut h = FxHasher::default();
                key.group_key().hash(&mut h);
                self.graph.partitioner().part_of_key(h.finish())
            }
        }
    }
}

/// The cursor ends here: its remaining weight `w` is released and its
/// locals reference dropped, leaving `cur.locals` invalid.
fn retire(
    cur: &mut ArenaTraverser,
    w: Weight,
    locals: &mut LocalsTable,
    out: &mut HandleOutcome,
) -> GdResult<()> {
    out.finished.absorb(w);
    locals.unref(cur.locals);
    cur.locals = LocalsId::INVALID;
    Ok(())
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

#[cfg(test)]
mod tests {
    use super::*;
    use graphdance_common::rng::seeded;
    use graphdance_common::value::ValueKey;
    use graphdance_common::{Partitioner, PropKey};
    use graphdance_query::expr::Expr;
    use graphdance_query::plan::{AggFunc, AggSpec, JoinSpec, Order, Pipeline};
    use graphdance_storage::{Direction, GraphBuilder};

    use crate::memo::Memo;
    use crate::weight::WeightAccumulator;

    /// Path graph 0→1→2→3 plus shortcut 0→2, weights = id*10.
    fn graph() -> Graph {
        let mut b = GraphBuilder::new(Partitioner::new(2, 2));
        let person = b.schema_mut().register_vertex_label("Person");
        let knows = b.schema_mut().register_edge_label("knows");
        let weight = b.schema_mut().register_prop("weight");
        for i in 0..4u64 {
            b.add_vertex(
                VertexId(i),
                person,
                vec![(weight, Value::Int(i as i64 * 10))],
            )
            .unwrap();
        }
        for (s, d) in [(0u64, 1u64), (1, 2), (2, 3), (0, 2)] {
            b.add_edge(VertexId(s), knows, VertexId(d), vec![]).unwrap();
        }
        let _ = person;
        b.finish()
    }

    /// Drive a single-stage plan to completion against the graph on the
    /// arena path, simulating the engine loop sequentially (LIFO). Returns
    /// (rows, agg partial merge).
    fn drive(graph: &Graph, plan: &Plan, params: &[Value]) -> (Vec<Row>, Option<AggState>) {
        let interp = Interpreter {
            graph,
            plan,
            stage_idx: 0,
            query: QueryId(1),
            params,
            read_ts: 1,
        };
        let mut rng = seeded(7);
        let mut memos: Vec<Memo> = (0..graph.partitioner().num_parts())
            .map(|_| Memo::new())
            .collect();
        let mut tracker = WeightAccumulator::new();
        let (mut arena, mut locals) = (TraverserArena::new(), LocalsTable::new());
        let mut queue: Vec<(PartId, TraverserHandle)> = Vec::new();
        let stage = interp.stage();
        // Source phase: split root weight across pipelines then partitions.
        let pipe_weights = Weight::ROOT.split(stage.pipelines.len(), &mut rng);
        for (pi, pw) in pipe_weights.into_iter().enumerate() {
            let parts: Vec<PartId> = graph.partitioner().parts().collect();
            let shares = pw.split(parts.len(), &mut rng);
            for (p, w) in parts.into_iter().zip(shares) {
                let out = interp
                    .run_source(pi as u16, w, &graph.read(p), &mut rng)
                    .unwrap();
                tracker.add(out.finished);
                for (dest, t) in out.spawned {
                    queue.push((dest, arena.admit(t, &mut locals)));
                }
            }
        }
        let (mut rows, mut out) = (Vec::new(), HandleOutcome::default());
        while let Some((p, h)) = queue.pop() {
            let part = graph.read(p);
            let memo = memos[p.as_usize()].query_mut(QueryId(1));
            interp
                .run_handle(h, &mut arena, &mut locals, &part, memo, &mut rng, &mut out)
                .unwrap();
            tracker.add(out.finished);
            rows.append(&mut out.emitted);
            queue.append(&mut out.spawned);
        }
        assert!(tracker.is_complete(), "weights must balance at completion");
        assert_eq!((arena.live(), locals.live()), (0, 0), "arena path leaked");
        // Gather agg partials.
        let mut merged: Option<AggState> = None;
        if let Some(agg) = &stage.agg {
            for m in &mut memos {
                if let Some(partial) = m.query_mut(QueryId(1)).take_stage_state() {
                    match &mut merged {
                        None => merged = Some(partial),
                        Some(acc) => acc.merge(&agg.func, partial).unwrap(),
                    }
                }
            }
        }
        (rows, merged)
    }

    fn simple_stage(steps: Vec<PlanStep>, output: Vec<Expr>, agg: Option<AggSpec>) -> Plan {
        Plan {
            stages: vec![Stage {
                pipelines: vec![Pipeline {
                    source: SourceSpec::Param { param: 0 },
                    steps,
                }],
                joins: vec![],
                output,
                agg,
                num_slots: 4,
            }],
            num_params: 1,
        }
    }

    fn knows(g: &Graph) -> graphdance_common::Label {
        g.schema().edge_label("knows").unwrap()
    }

    #[test]
    fn one_hop_expand() {
        let g = graph();
        let plan = simple_stage(
            vec![PlanStep::Expand {
                dir: Direction::Out,
                label: knows(&g),
                edge_loads: vec![],
            }],
            vec![Expr::VertexId],
            None,
        );
        let (mut rows, _) = drive(&g, &plan, &[Value::Vertex(VertexId(0))]);
        rows.sort_by(|a, b| a[0].cmp_total(&b[0]));
        assert_eq!(
            rows,
            vec![
                vec![Value::Vertex(VertexId(1))],
                vec![Value::Vertex(VertexId(2))]
            ]
        );
    }

    #[test]
    fn filter_drops_traversers() {
        let g = graph();
        let w = g.schema().prop("weight").unwrap();
        let plan = simple_stage(
            vec![
                PlanStep::Expand {
                    dir: Direction::Out,
                    label: knows(&g),
                    edge_loads: vec![],
                },
                PlanStep::Filter(Expr::gt(Expr::Prop(w), Expr::int(15))),
            ],
            vec![Expr::VertexId],
            None,
        );
        let (rows, _) = drive(&g, &plan, &[Value::Vertex(VertexId(0))]);
        assert_eq!(rows, vec![vec![Value::Vertex(VertexId(2))]]);
    }

    #[test]
    fn two_hop_loop_with_dedup() {
        let g = graph();
        let plan = simple_stage(
            vec![
                PlanStep::Expand {
                    dir: Direction::Out,
                    label: knows(&g),
                    edge_loads: vec![],
                },
                PlanStep::LoopEnd {
                    counter: 0,
                    min: 1,
                    max: 2,
                    back_to: 0,
                },
                PlanStep::Dedup { slots: vec![] },
            ],
            vec![Expr::VertexId],
            None,
        );
        // From 0: hop1 = {1, 2}; hop2 = {2, 3}; dedup over emissions = {1,2,3}.
        let (mut rows, _) = drive(&g, &plan, &[Value::Vertex(VertexId(0))]);
        rows.sort_by(|a, b| a[0].cmp_total(&b[0]));
        let got: Vec<VertexId> = rows.iter().map(|r| r[0].as_vertex().unwrap()).collect();
        assert_eq!(got, vec![VertexId(1), VertexId(2), VertexId(3)]);
    }

    #[test]
    fn min_dist_prunes_longer_paths() {
        let g = graph();
        let plan = simple_stage(
            vec![
                PlanStep::Compute(vec![(
                    1,
                    Expr::Add(Box::new(Expr::Slot(1)), Box::new(Expr::int(1))),
                )]),
                PlanStep::Expand {
                    dir: Direction::Out,
                    label: knows(&g),
                    edge_loads: vec![],
                },
                PlanStep::MinDist { dist_slot: 1 },
                PlanStep::LoopEnd {
                    counter: 0,
                    min: 1,
                    max: 3,
                    back_to: 0,
                },
            ],
            vec![Expr::VertexId, Expr::Slot(1)],
            None,
        );
        // Wait: slot 1 counts hops; Compute runs before Expand, so emitted
        // dist = number of expansions performed. Vertex 2 is reachable at
        // dist 1 (0→2) and dist 2 (0→1→2); MinDist keeps whichever arrives
        // first but at minimum one of them; vertex 3 reachable at dist 2
        // via the shortcut. The exact surviving set depends on order, but
        // every vertex must appear at least once and at most ... dedup-like.
        let (rows, _) = drive(&g, &plan, &[Value::Vertex(VertexId(0))]);
        let mut seen: Vec<VertexId> = rows.iter().map(|r| r[0].as_vertex().unwrap()).collect();
        seen.sort();
        seen.dedup();
        assert_eq!(seen, vec![VertexId(1), VertexId(2), VertexId(3)]);
    }

    #[test]
    fn count_aggregation() {
        let g = graph();
        let plan = simple_stage(
            vec![
                PlanStep::Expand {
                    dir: Direction::Out,
                    label: knows(&g),
                    edge_loads: vec![],
                },
                PlanStep::LoopEnd {
                    counter: 0,
                    min: 1,
                    max: 2,
                    back_to: 0,
                },
            ],
            vec![],
            Some(AggSpec {
                func: AggFunc::Count,
            }),
        );
        let (rows, agg) = drive(&g, &plan, &[Value::Vertex(VertexId(0))]);
        assert!(rows.is_empty());
        // Emissions: hop1 {1,2} + hop2 {2,3} = 4 paths.
        assert_eq!(
            agg.unwrap().finalize(&AggFunc::Count),
            vec![vec![Value::Int(4)]]
        );
    }

    #[test]
    fn topk_aggregation_by_weight() {
        let g = graph();
        let wk = g.schema().prop("weight").unwrap();
        let func = AggFunc::TopK {
            k: 2,
            sort: vec![(Expr::Prop(wk), Order::Desc), (Expr::VertexId, Order::Asc)],
            output: vec![Expr::VertexId, Expr::Prop(wk)],
            distinct: vec![],
        };
        let plan = simple_stage(
            vec![
                PlanStep::Expand {
                    dir: Direction::Out,
                    label: knows(&g),
                    edge_loads: vec![],
                },
                PlanStep::LoopEnd {
                    counter: 0,
                    min: 1,
                    max: 2,
                    back_to: 0,
                },
                PlanStep::Dedup { slots: vec![] },
            ],
            vec![],
            Some(AggSpec { func: func.clone() }),
        );
        let (_, agg) = drive(&g, &plan, &[Value::Vertex(VertexId(0))]);
        let rows = agg.unwrap().finalize(&func);
        assert_eq!(
            rows,
            vec![
                vec![Value::Vertex(VertexId(3)), Value::Int(30)],
                vec![Value::Vertex(VertexId(2)), Value::Int(20)],
            ]
        );
    }

    #[test]
    fn double_pipelined_join_meets_in_middle() {
        let g = graph();
        let k = knows(&g);
        // PathA: 0 -out-> x ; PathB: 3 -in-> x ; join at x. Expected x = 2
        // is reachable from 0 (via shortcut) and 3's in-neighbour is 2.
        let plan = Plan {
            stages: vec![Stage {
                pipelines: vec![
                    Pipeline {
                        source: SourceSpec::Param { param: 0 },
                        steps: vec![
                            PlanStep::Expand {
                                dir: Direction::Out,
                                label: k,
                                edge_loads: vec![],
                            },
                            PlanStep::Join {
                                join_id: 0,
                                side: JoinSide::Probe,
                                key: Expr::VertexId,
                            },
                        ],
                    },
                    Pipeline {
                        source: SourceSpec::Param { param: 1 },
                        steps: vec![
                            PlanStep::Expand {
                                dir: Direction::In,
                                label: k,
                                edge_loads: vec![],
                            },
                            PlanStep::Join {
                                join_id: 0,
                                side: JoinSide::Build,
                                key: Expr::VertexId,
                            },
                        ],
                    },
                ],
                joins: vec![JoinSpec {
                    join_id: 0,
                    probe_pipeline: 0,
                }],
                output: vec![Expr::VertexId],
                agg: None,
                num_slots: 2,
            }],
            num_params: 2,
        };
        let (rows, _) = drive(
            &g,
            &plan,
            &[Value::Vertex(VertexId(0)), Value::Vertex(VertexId(3))],
        );
        assert_eq!(rows, vec![vec![Value::Vertex(VertexId(2))]]);
    }

    #[test]
    fn index_lookup_source() {
        let g = graph();
        let person = g.schema().vertex_label("Person").unwrap();
        let wk = g.schema().prop("weight").unwrap();
        g.build_prop_index(person, wk);
        let plan = Plan {
            stages: vec![Stage {
                pipelines: vec![Pipeline {
                    source: SourceSpec::IndexLookup {
                        label: person,
                        key: wk,
                        value: Expr::Param(0),
                    },
                    steps: vec![],
                }],
                joins: vec![],
                output: vec![Expr::VertexId],
                agg: None,
                num_slots: 0,
            }],
            num_params: 1,
        };
        let (rows, _) = drive(&g, &plan, &[Value::Int(20)]);
        assert_eq!(rows, vec![vec![Value::Vertex(VertexId(2))]]);
    }

    #[test]
    fn scan_label_source_without_index() {
        let g = graph();
        let person = g.schema().vertex_label("Person").unwrap();
        let plan = Plan {
            stages: vec![Stage {
                pipelines: vec![Pipeline {
                    source: SourceSpec::ScanLabel { label: person },
                    steps: vec![],
                }],
                joins: vec![],
                output: vec![Expr::VertexId],
                agg: None,
                num_slots: 0,
            }],
            num_params: 0,
        };
        let (rows, _) = drive(&g, &plan, &[]);
        assert_eq!(rows.len(), 4);
    }

    #[test]
    fn missing_start_vertex_completes_empty() {
        let g = graph();
        let plan = simple_stage(
            vec![PlanStep::Expand {
                dir: Direction::Out,
                label: knows(&g),
                edge_loads: vec![],
            }],
            vec![Expr::VertexId],
            None,
        );
        let (rows, _) = drive(&g, &plan, &[Value::Vertex(VertexId(999))]);
        assert!(rows.is_empty());
    }

    #[test]
    fn move_to_reads_remote_properties() {
        let g = graph();
        let wk = g.schema().prop("weight").unwrap();
        // Remember the start vertex, hop away, then MoveTo back and read its
        // weight property.
        let plan = simple_stage(
            vec![
                PlanStep::Compute(vec![(0, Expr::VertexId)]),
                PlanStep::Expand {
                    dir: Direction::Out,
                    label: knows(&g),
                    edge_loads: vec![],
                },
                PlanStep::MoveTo { vertex_slot: 0 },
                PlanStep::Load(vec![(wk, 1)]),
            ],
            vec![Expr::Slot(1)],
            None,
        );
        let (rows, _) = drive(&g, &plan, &[Value::Vertex(VertexId(2))]);
        assert_eq!(rows, vec![vec![Value::Int(20)]]);
    }

    #[test]
    fn edge_property_capture() {
        // Build a graph with an edge property and capture it during Expand.
        let mut b = GraphBuilder::new(Partitioner::new(1, 2));
        let person = b.schema_mut().register_vertex_label("Person");
        let knows = b.schema_mut().register_edge_label("knows");
        let since = b.schema_mut().register_prop("since");
        b.add_vertex(VertexId(0), person, vec![]).unwrap();
        b.add_vertex(VertexId(1), person, vec![]).unwrap();
        b.add_edge(
            VertexId(0),
            knows,
            VertexId(1),
            vec![(since, Value::Int(2009))],
        )
        .unwrap();
        let g = b.finish();
        let plan = simple_stage(
            vec![PlanStep::Expand {
                dir: Direction::Out,
                label: knows,
                edge_loads: vec![(since, 0)],
            }],
            vec![Expr::Slot(0)],
            None,
        );
        let (rows, _) = drive(&g, &plan, &[Value::Vertex(VertexId(0))]);
        assert_eq!(rows, vec![vec![Value::Int(2009)]]);
    }

    fn tiny_graph() -> Graph {
        let mut b = GraphBuilder::new(Partitioner::new(2, 2));
        let n = b.schema_mut().register_vertex_label("N");
        let e = b.schema_mut().register_edge_label("e");
        for i in 0..8u64 {
            b.add_vertex(VertexId(i), n, vec![]).unwrap();
        }
        for i in 0..8u64 {
            b.add_edge(VertexId(i), e, VertexId((i + 1) % 8), vec![])
                .unwrap();
            b.add_edge(VertexId(i), e, VertexId((i + 3) % 8), vec![])
                .unwrap();
        }
        b.finish()
    }

    #[test]
    fn dedup_with_slot_qualifier_separates_keys() {
        // dedup over (vertex, slot 0): emitting the same vertex with two
        // different slot values keeps both; same value collapses.
        let g = tiny_graph();
        let e = g.schema().edge_label("e").unwrap();
        // Two hops; slot 0 = parity of hop count (0 after 2 hops, 1 after 1).
        let plan = Plan {
            stages: vec![Stage {
                pipelines: vec![Pipeline {
                    source: SourceSpec::Param { param: 0 },
                    steps: vec![
                        PlanStep::Expand {
                            dir: Direction::Out,
                            label: e,
                            edge_loads: vec![],
                        },
                        PlanStep::LoopEnd {
                            counter: 0,
                            min: 1,
                            max: 2,
                            back_to: 0,
                        },
                        PlanStep::Dedup { slots: vec![0] },
                    ],
                }],
                joins: vec![],
                output: vec![Expr::VertexId, Expr::Slot(0)],
                agg: None,
                num_slots: 1,
            }],
            num_params: 1,
        };
        let (rows, _) = drive(&g, &plan, &[Value::Vertex(VertexId(0))]);
        // The same vertex may appear with counter=1 and counter=2, but never
        // twice with the same counter.
        let mut seen = std::collections::HashSet::new();
        for r in &rows {
            let key = (r[0].clone().as_vertex().unwrap(), r[1].as_int().unwrap());
            assert!(seen.insert(key), "duplicate (vertex, slot) emitted: {r:?}");
        }
        assert!(rows.len() >= 4);
    }

    #[test]
    fn move_to_across_partitions_restores_record_access() {
        let g = tiny_graph();
        // Remember a remote vertex, move to it, emit its id: exercises the
        // remote-routing path of MoveTo for every possible start.
        let plan = Plan {
            stages: vec![Stage {
                pipelines: vec![Pipeline {
                    source: SourceSpec::Param { param: 0 },
                    steps: vec![
                        PlanStep::Compute(vec![(0, Expr::Param(1))]),
                        PlanStep::MoveTo { vertex_slot: 0 },
                    ],
                }],
                joins: vec![],
                output: vec![Expr::VertexId],
                agg: None,
                num_slots: 1,
            }],
            num_params: 2,
        };
        for target in 0..8u64 {
            let (rows, _) = drive(
                &g,
                &plan,
                &[Value::Vertex(VertexId(0)), Value::Vertex(VertexId(target))],
            );
            assert_eq!(
                rows,
                vec![vec![Value::Vertex(VertexId(target))]],
                "target {target}"
            );
        }
    }

    #[test]
    fn expand_on_missing_label_finishes_cleanly() {
        let g = tiny_graph();
        let plan = Plan {
            stages: vec![Stage {
                pipelines: vec![Pipeline {
                    source: SourceSpec::Param { param: 0 },
                    steps: vec![PlanStep::Expand {
                        dir: Direction::In,
                        label: graphdance_common::Label(999),
                        edge_loads: vec![],
                    }],
                }],
                joins: vec![],
                output: vec![Expr::VertexId],
                agg: None,
                num_slots: 0,
            }],
            num_params: 1,
        };
        let (rows, _) = drive(&g, &plan, &[Value::Vertex(VertexId(2))]);
        assert!(rows.is_empty());
    }

    /// `n` vertices, `from -e-> to` for each edge, on `parts` partitions of
    /// one node; every edge carries `since` (for the edge-load path).
    fn fused_graph(parts: u32, n: u64, edges: &[(u64, u64)]) -> Graph {
        let mut b = GraphBuilder::new(Partitioner::new(1, parts));
        let v = b.schema_mut().register_vertex_label("N");
        let e = b.schema_mut().register_edge_label("e");
        let since = b.schema_mut().register_prop("since");
        for i in 0..n {
            b.add_vertex(VertexId(i), v, vec![]).unwrap();
        }
        for &(s, d) in edges {
            b.add_edge(VertexId(s), e, VertexId(d), vec![(since, Value::Int(7))])
                .unwrap();
        }
        b.finish()
    }

    /// `Expand(out e)` then `guard`, vertex-id rows.
    fn expand_then(g: &Graph, edge_loads: Vec<(PropKey, u8)>, guard: PlanStep) -> Plan {
        let label = g.schema().edge_label("e").unwrap();
        simple_stage(
            vec![
                PlanStep::Expand {
                    dir: Direction::Out,
                    label,
                    edge_loads,
                },
                guard,
            ],
            vec![Expr::VertexId],
            None,
        )
    }

    /// One arena step of a traverser at `v` (pc 0, slot 1 = `dist`) on
    /// `v`'s partition against `memo`. Returns the outcome, the input
    /// weight and the arena with the children left in it.
    fn step_once(
        g: &Graph,
        plan: &Plan,
        v: u64,
        dist: i64,
        memo: &mut QueryMemo,
    ) -> (HandleOutcome, Weight, TraverserArena, LocalsTable) {
        let interp = Interpreter {
            graph: g,
            plan,
            stage_idx: 0,
            query: QueryId(1),
            params: &[],
            read_ts: 1,
        };
        let (mut arena, mut locals) = (TraverserArena::new(), LocalsTable::new());
        let mut t = Traverser::root(QueryId(1), 0, VertexId(v), 4, Weight(0x9e37_79b9));
        t.set_slot(1, Value::Int(dist));
        let input = t.weight;
        let h = arena.admit(t, &mut locals);
        let mut out = HandleOutcome::new();
        let part = g.read(g.part_of(VertexId(v)));
        interp
            .run_handle(
                h,
                &mut arena,
                &mut locals,
                &part,
                memo,
                &mut seeded(3),
                &mut out,
            )
            .unwrap();
        (out, input, arena, locals)
    }

    /// The children's weights plus the finished weight: the input, exactly.
    fn conserved(out: &HandleOutcome, arena: &TraverserArena, input: Weight) -> bool {
        let spawned = out
            .spawned
            .iter()
            .fold(Weight::ZERO, |acc, (_, h)| acc.add(arena.get(*h).weight));
        spawned.add(out.finished) == input
    }

    /// Two vertices on different partitions of a two-partition node:
    /// `(local, remote)` as seen from `local`.
    fn split_pair(g: &Graph) -> (u64, u64) {
        let p0 = g.part_of(VertexId(0));
        let r = (1..16).find(|&v| g.part_of(VertexId(v)) != p0).unwrap();
        (0, r)
    }

    #[test]
    fn fused_guard_prunes_a_local_duplicate_before_the_child_exists() {
        let g = fused_graph(1, 3, &[(0, 1), (0, 2)]);
        for guard in [
            PlanStep::MinDist { dist_slot: 1 },
            PlanStep::Dedup { slots: vec![1] },
        ] {
            let plan = expand_then(&g, vec![], guard);
            let mut memo = QueryMemo::default();
            // Vertex 1 already holds the guard's record for slot 1 = 2.
            assert!(Guard::of(
                &plan.stages[0].pipelines[0].steps[1],
                &[Value::Null, Value::Int(2)]
            )
            .unwrap()
            .admit(&mut memo, 0, 1, VertexId(1)));
            let (out, input, arena, locals) = step_once(&g, &plan, 0, 2, &mut memo);
            // Only vertex 2's child exists, already past the guard.
            assert_eq!(out.spawned.len(), 1);
            assert_eq!(arena.live(), 1);
            let child = arena.get(out.spawned[0].1);
            assert_eq!((child.vertex, child.pc), (VertexId(2), 2));
            assert_eq!(locals.live(), 1, "the survivor holds the one register file");
            // Expand + one guard per neighbour.
            assert_eq!(out.steps_executed, 3);
            assert!(conserved(&out, &arena, input));

            // With both neighbours taken, nothing is created at all and the
            // parent's whole weight finishes.
            let (out, input, arena, locals) = step_once(&g, &plan, 0, 2, &mut memo);
            assert!(out.spawned.is_empty());
            assert_eq!((arena.live(), locals.live()), (0, 0));
            assert_eq!((out.finished, out.steps_executed), (input, 3));
        }
    }

    #[test]
    fn fused_min_dist_logs_remote_sends_and_drops_dominated_ones() {
        let (l, r) = split_pair(&fused_graph(2, 16, &[]));
        let g = fused_graph(2, 16, &[(l, r)]);
        let plan = expand_then(&g, vec![], PlanStep::MinDist { dist_slot: 1 });
        let mut sender = QueryMemo::default();
        let sent = |dist: i64, memo: &mut QueryMemo| {
            let (out, input, arena, _) = step_once(&g, &plan, l, dist, memo);
            assert!(conserved(&out, &arena, input));
            match out.spawned.as_slice() {
                [] => {
                    // Dropped at the sender: the guard step counts here.
                    assert_eq!((out.finished, out.steps_executed), (input, 2));
                    None
                }
                [(dest, h)] => {
                    // Sent: the owner runs the guard (and counts it).
                    assert_eq!(out.steps_executed, 1);
                    let child = arena.get(*h);
                    assert_eq!(
                        (*dest, child.vertex, child.pc),
                        (g.part_of(VertexId(r)), VertexId(r), 1)
                    );
                    Some(dist)
                }
                more => panic!("one neighbour, {} children", more.len()),
            }
        };
        assert_eq!(sent(3, &mut sender), Some(3), "first send");
        assert_eq!(sent(3, &mut sender), None, "equal distance: dominated");
        assert_eq!(sent(5, &mut sender), None, "longer distance: dominated");
        assert_eq!(sent(2, &mut sender), Some(2), "strictly shorter: sent");
        assert_eq!(sent(2, &mut sender), None, "now 2 is the bar");
        // The log is kept at the Expand's pc: even a memo shared by both
        // partitions still admits the sent child at the guard's own pc.
        assert!(sender.min_dist_update(0, 1, VertexId(r), 2));
    }

    #[test]
    fn fused_dedup_logs_remote_sends_and_drops_repeats() {
        let (l, r) = split_pair(&fused_graph(2, 16, &[]));
        let g = fused_graph(2, 16, &[(l, r)]);
        let plan = expand_then(&g, vec![], PlanStep::Dedup { slots: vec![1] });
        let mut sender = QueryMemo::default();
        let mut sent = |key: i64| step_once(&g, &plan, l, key, &mut sender).0.spawned.len();
        assert_eq!(sent(4), 1, "first send");
        assert_eq!(sent(4), 0, "same key: dropped at the sender");
        assert_eq!(sent(5), 1, "another key is sent");
        // Never read as the owner's record.
        assert!(sender.dedup_insert(0, 1, VertexId(r), vec![ValueKey::Int(4)]));
    }

    #[test]
    fn expand_with_edge_loads_is_not_fused() {
        let g = fused_graph(1, 2, &[(0, 1)]);
        let since = g.schema().prop("since").unwrap();
        let plan = expand_then(&g, vec![(since, 2)], PlanStep::MinDist { dist_slot: 1 });
        let mut memo = QueryMemo::default();
        assert!(memo.min_dist_update(0, 1, VertexId(1), 0));
        // The record would prune the child, but it is created and left at
        // the guard, which it runs itself; the memo is not consulted.
        let (out, _, arena, _) = step_once(&g, &plan, 0, 2, &mut memo);
        assert_eq!(out.steps_executed, 1);
        let [(_, h)] = out.spawned.as_slice() else {
            panic!("one child expected");
        };
        assert_eq!(arena.get(*h).pc, 1);
        assert!(
            memo.min_dist_update(0, 0, VertexId(1), 9),
            "no log entry was made"
        );
    }

    /// The stage planner on a `Param`, a `ScanLabel` and a `PrevRows`
    /// pipeline over a graph that placed the parameter vertex off its hash
    /// home: the parameter source starts where the vertex lives, the scan
    /// once on every worker, each seed at its vertex's owner, in pipeline
    /// order, and what went out plus what finished on the spot is the root
    /// weight.
    #[test]
    fn start_sources_routes_each_start_and_conserves_the_root() {
        let parts = Partitioner::new(2, 2);
        let home = parts.part_of(VertexId(0));
        let away = PartId((home.0 + 1) % parts.num_parts());
        let mut b =
            GraphBuilder::with_assignments(parts, [(VertexId(0), away)].into_iter().collect());
        let person = b.schema_mut().register_vertex_label("Person");
        for i in 0..8u64 {
            b.add_vertex(VertexId(i), person, vec![]).unwrap();
        }
        let g = b.finish();
        let stage = |sources: Vec<SourceSpec>| Stage {
            pipelines: (sources.into_iter())
                .map(|source| Pipeline {
                    source,
                    steps: vec![],
                })
                .collect(),
            joins: vec![],
            output: vec![Expr::VertexId],
            agg: None,
            num_slots: 0,
        };
        let prev = SourceSpec::PrevRows {
            vertex_col: 0,
            seed: vec![],
        };
        let plan = Plan {
            stages: vec![
                stage(vec![SourceSpec::Param { param: 0 }]),
                stage(vec![
                    SourceSpec::Param { param: 0 },
                    SourceSpec::ScanLabel { label: person },
                    prev,
                ]),
            ],
            num_params: 1,
        };
        plan.validate().unwrap();
        let params = [Value::Vertex(VertexId(0))];
        let interp = Interpreter {
            graph: &g,
            plan: &plan,
            stage_idx: 1,
            query: QueryId(1),
            params: &params,
            read_ts: 1,
        };
        let prev_rows: Vec<Row> = [0, 5, 0].map(|v| vec![Value::Vertex(VertexId(v))]).into();
        let mut starts: Vec<(WorkerId, u16, Weight)> = Vec::new();
        let finished = interp
            .start_sources(&prev_rows, &mut seeded(3), |dest, start| {
                starts.push(match start {
                    SourceStart::Source { pipeline, weight } => (dest, pipeline, weight),
                    SourceStart::Seed(t) => {
                        assert_eq!(dest, g.worker_of(t.vertex), "a seed starts at its owner");
                        (dest, t.pipeline, t.weight)
                    }
                });
            })
            .unwrap();

        let of = |pipeline| -> Vec<WorkerId> {
            (starts.iter().filter(|s| s.1 == pipeline))
                .map(|s| s.0)
                .collect()
        };
        assert_ne!(g.worker_of(VertexId(0)), parts.worker_of_part(home));
        assert_eq!(
            of(0),
            [g.worker_of(VertexId(0))],
            "the placed vertex's worker"
        );
        let mut scanned = of(1);
        scanned.sort_unstable();
        let every: Vec<WorkerId> = parts.parts().map(|p| parts.worker_of_part(p)).collect();
        assert_eq!(scanned, every, "one scan start per worker");
        assert_eq!(of(2).len(), prev_rows.len(), "one seed per row");
        assert!(
            starts.windows(2).all(|w| w[0].1 <= w[1].1),
            "pipeline order"
        );
        let mut total = finished;
        starts.iter().for_each(|s| total.absorb(s.2));
        assert_eq!(total, Weight::ROOT);
    }
}
