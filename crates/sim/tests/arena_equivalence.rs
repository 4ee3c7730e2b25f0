//! Differential proptest: the arena step every engine runs
//! ([`Interpreter::run_handle`]) must emit byte-identical rows, in the
//! same order, with the same weight accounting, as the oracle's
//! cloned-locals reference ([`reference::run_traverser`]) — for every
//! plan shape the interpreter supports on the local path (expand with and
//! without edge loads, filters, loads, computes, dedup, loops) where no
//! `MinDist` or `Dedup` comes right after an `Expand`.
//!
//! Both drivers run the same LIFO schedule with identically-seeded RNGs,
//! so any divergence in locals handling (copy-on-write splitting, slot
//! growth, release order) shows up as a row or weight mismatch. 256 fixed
//! seeds per shape.
//!
//! Where such a guard does follow an `Expand`, the arena step runs it
//! before the child exists (DESIGN.md §12, "Fused successor guard") and
//! the reference does not: the arena side then creates fewer traversers
//! and draws fewer weight splits, so the schedules part. Those shapes are
//! held to the same sorted row multiset instead, with the same weight
//! completion and arena / locals leak checks.
//!
//! The same two drivers also measure what the arena path is for: fewer
//! allocations per traverser-step than the cloned reference.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use proptest::prelude::*;
use rand::Rng;

use graphdance_common::rng::seeded;
use graphdance_common::{PartId, Partitioner, QueryId, Value, VertexId};
use graphdance_datagen::{KhopDataset, KhopParams};
use graphdance_pstm::{
    HandleOutcome, Interpreter, LocalsTable, Memo, Row, Traverser, TraverserArena, TraverserHandle,
    Weight, WeightAccumulator,
};
use graphdance_query::expr::Expr;
use graphdance_query::plan::{Order, Plan};
use graphdance_query::{CmpOp, QueryBuilder};
use graphdance_sim::reference;
use graphdance_storage::{Direction, Graph, GraphBuilder};

thread_local! {
    /// Allocations made by this thread. Each thread counts its own, so the
    /// proptest cases running beside the allocation test bill it nothing.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Wraps the system allocator, counting every allocation on the thread
/// that makes it (frees are not counted: the claim is about allocator
/// pressure per step).
struct CountingAlloc;

// SAFETY: pure pass-through to `System`; the counter has no effect on the
// returned pointers or layouts, so `System`'s contract carries over.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: delegates to `System::alloc` with the caller's layout.
    unsafe fn alloc(&self, l: Layout) -> *mut u8 {
        // A const-initialised `Cell` has no destructor, so this never
        // allocates and is there until the thread is gone.
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: same layout contract as our caller's.
        unsafe { System.alloc(l) }
    }

    // SAFETY: delegates to `System::dealloc`; `ptr` was produced by
    // `System::alloc` above with the same layout.
    unsafe fn dealloc(&self, ptr: *mut u8, l: Layout) {
        // SAFETY: pointer/layout pair is exactly what our alloc returned.
        unsafe { System.dealloc(ptr, l) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations this thread has made so far.
fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Random small multigraph over `n` vertices. Vertex prop `weight` =
/// id*10; edge prop `since` = edge index (exercises the edge-load path).
fn build_graph(n: u64, edges: &[(u64, u64)]) -> Graph {
    let mut b = GraphBuilder::new(Partitioner::new(2, 2));
    let person = b.schema_mut().register_vertex_label("Person");
    let knows = b.schema_mut().register_edge_label("knows");
    let weight = b.schema_mut().register_prop("weight");
    let since = b.schema_mut().register_prop("since");
    for i in 0..n {
        b.add_vertex(
            VertexId(i),
            person,
            vec![(weight, Value::Int(i as i64 * 10))],
        )
        .unwrap();
    }
    for (i, (s, d)) in edges.iter().enumerate() {
        b.add_edge(
            VertexId(s % n),
            knows,
            VertexId(d % n),
            vec![(since, Value::Int(i as i64))],
        )
        .unwrap();
    }
    b.finish()
}

/// The plan shapes under test; each stresses a different locals/arena path.
fn build_plan(shape: u8, hops: i64, schema: &graphdance_storage::Schema) -> Plan {
    let mut qb = QueryBuilder::new(schema);
    match shape {
        0 => {
            // k-hop with loop counter + dedup: LoopEnd weight splits,
            // looper locals sharing, memo dedup through interned slots.
            qb.v_param(0);
            let c = qb.alloc_slot();
            qb.repeat(1, hops, c, |r| {
                r.expand(Direction::Out, "knows", vec![]);
            });
            qb.dedup();
            qb.output(vec![Expr::VertexId]);
        }
        1 => {
            // Edge loads force the direct-scan path and per-child
            // clone_entry + set_slot_vec writes.
            qb.v_param(0);
            let s = qb.alloc_slot();
            qb.expand(Direction::Out, "knows", vec![("since", s)]);
            qb.expand(Direction::Both, "knows", vec![]);
            qb.output(vec![Expr::VertexId, Expr::Slot(s)]);
        }
        2 => {
            // Load + compute + filter: copy-on-write splits when a shared
            // child writes a slot the parent still references.
            qb.v();
            qb.has_label("Person");
            let w = qb.load("weight");
            let doubled = qb.alloc_slot();
            qb.compute(
                doubled,
                Expr::Add(Box::new(Expr::Slot(w)), Box::new(Expr::Slot(w))),
            );
            qb.expand(Direction::Out, "knows", vec![]);
            qb.filter(Expr::Cmp(
                Box::new(Expr::Slot(doubled)),
                CmpOp::Ge,
                Box::new(Expr::Const(Value::Int(0))),
            ));
            qb.output(vec![Expr::VertexId, Expr::Slot(doubled)]);
        }
        3 => {
            // Fan-in heavy two-hop from every vertex: many traversers
            // expanding the same few vertices.
            qb.v();
            qb.has_label("Person");
            qb.expand(Direction::Out, "knows", vec![]);
            qb.expand(Direction::Out, "knows", vec![]);
            qb.output(vec![Expr::VertexId]);
        }
        4 => {
            // Fused Expand -> MinDist: the benchmark's k-hop chain, its
            // min_dist run per neighbour before the child exists.
            qb.v_param(0);
            let c = qb.alloc_slot();
            let d = qb.alloc_slot();
            qb.repeat(1, hops, c, |r| {
                r.compute(
                    d,
                    Expr::Add(Box::new(Expr::Slot(d)), Box::new(Expr::int(1))),
                );
                r.expand(Direction::Out, "knows", vec![]);
                r.min_dist(d);
            });
            qb.dedup();
            qb.output(vec![Expr::VertexId]);
        }
        _ => {
            // Fused Expand -> Dedup on a slot key (IC14's walk): one row
            // per distinct (vertex, distance).
            qb.v_param(0);
            let c = qb.alloc_slot();
            let d = qb.alloc_slot();
            qb.repeat(1, hops, c, |r| {
                r.compute(
                    d,
                    Expr::Add(Box::new(Expr::Slot(d)), Box::new(Expr::int(1))),
                );
                r.expand(Direction::Both, "knows", vec![]);
                r.dedup_by(vec![d]);
            });
            qb.output(vec![Expr::VertexId, Expr::Slot(d)]);
        }
    }
    qb.compile().unwrap()
}

/// Reference driver: the oracle's cloned-locals step, LIFO schedule.
/// Returns the rows and the plan steps executed.
fn drive_cloned(graph: &Graph, plan: &Plan, params: &[Value], seed: u64) -> (Vec<Row>, u64) {
    let interp = Interpreter {
        graph,
        plan,
        stage_idx: 0,
        query: QueryId(1),
        params,
        read_ts: 1,
    };
    let mut rng = seeded(seed);
    let mut memos: Vec<Memo> = (0..graph.partitioner().num_parts())
        .map(|_| Memo::new())
        .collect();
    let mut tracker = WeightAccumulator::new();
    let mut queue: Vec<(PartId, Traverser)> = Vec::new();
    let stage = interp.stage();
    let pipe_weights = Weight::ROOT.split(stage.pipelines.len(), &mut rng);
    for (pi, pw) in pipe_weights.into_iter().enumerate() {
        let parts: Vec<PartId> = graph.partitioner().parts().collect();
        let shares = pw.split(parts.len(), &mut rng);
        for (p, w) in parts.into_iter().zip(shares) {
            let out = interp
                .run_source(pi as u16, w, &graph.read(p), &mut rng)
                .unwrap();
            tracker.add(out.finished);
            queue.extend(out.spawned);
        }
    }
    let (mut rows, mut steps) = (Vec::new(), 0);
    while let Some((p, t)) = queue.pop() {
        let part = graph.read(p);
        let memo = memos[p.as_usize()].query_mut(QueryId(1));
        let out = reference::run_traverser(&interp, t, &part, memo, &mut rng).unwrap();
        steps += out.steps_executed as u64;
        tracker.add(out.finished);
        rows.extend(out.emitted);
        queue.extend(out.spawned);
    }
    assert!(tracker.is_complete(), "cloned path leaked weight");
    (rows, steps)
}

/// Arena driver: same schedule and RNG, but state lives in the slab and
/// the locals table.
fn drive_arena(graph: &Graph, plan: &Plan, params: &[Value], seed: u64) -> (Vec<Row>, u64) {
    let interp = Interpreter {
        graph,
        plan,
        stage_idx: 0,
        query: QueryId(1),
        params,
        read_ts: 1,
    };
    let mut rng = seeded(seed);
    let mut memos: Vec<Memo> = (0..graph.partitioner().num_parts())
        .map(|_| Memo::new())
        .collect();
    let mut tracker = WeightAccumulator::new();
    let mut arena = TraverserArena::new();
    let mut locals = LocalsTable::new();
    let mut queue: Vec<(PartId, TraverserHandle)> = Vec::new();
    let stage = interp.stage();
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
    let (mut rows, mut steps) = (Vec::new(), 0);
    let mut out = HandleOutcome::new();
    while let Some((p, h)) = queue.pop() {
        let part = graph.read(p);
        let memo = memos[p.as_usize()].query_mut(QueryId(1));
        interp
            .run_handle(h, &mut arena, &mut locals, &part, memo, &mut rng, &mut out)
            .unwrap();
        steps += out.steps_executed as u64;
        tracker.add(out.finished);
        rows.append(&mut out.emitted);
        queue.append(&mut out.spawned);
    }
    assert!(tracker.is_complete(), "arena path leaked weight");
    assert_eq!(arena.live(), 0, "arena leaked traverser slots");
    assert_eq!(locals.live(), 0, "locals table leaked records");
    (rows, steps)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arena_path_matches_cloned_path(
        seed in 0u64..u64::MAX,
        n in 3u64..10,
        edges in prop::collection::vec((0u64..32, 0u64..32), 1..24),
        shape in 0u8..4,
        hops in 1i64..4,
        start in 0u64..10,
    ) {
        let g = build_graph(n, &edges);
        let plan = build_plan(shape, hops, g.schema());
        let params = vec![Value::Vertex(VertexId(start % n))];
        let (reference, _) = drive_cloned(&g, &plan, &params, seed);
        let (arena, _) = drive_arena(&g, &plan, &params, seed);
        prop_assert_eq!(reference, arena);
    }

    #[test]
    fn fused_guard_matches_the_unfused_reference_as_a_multiset(
        seed in 0u64..u64::MAX,
        n in 3u64..10,
        edges in prop::collection::vec((0u64..32, 0u64..32), 1..24),
        shape in 4u8..6,
        hops in 1i64..4,
        start in 0u64..10,
    ) {
        let g = build_graph(n, &edges);
        let plan = build_plan(shape, hops, g.schema());
        let params = vec![Value::Vertex(VertexId(start % n))];
        let sorted = |rows: Vec<Row>| {
            let mut rows: Vec<String> = rows.iter().map(|r| format!("{r:?}")).collect();
            rows.sort();
            rows
        };
        let (reference, _) = drive_cloned(&g, &plan, &params, seed);
        let (arena, _) = drive_arena(&g, &plan, &params, seed);
        prop_assert_eq!(sorted(reference), sorted(arena));
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

/// What the arena path is for: on a 3-hop top-10 k-hop over lj-sim(4000),
/// 1 node × 2 partitions, 8 seeded starts, it allocates at most 0.55× per
/// traverser-step of what the cloned reference allocates (it reads 0.46×).
/// Slab-recycled traversers and shared, copy-on-write locals are what
/// remove the per-edge clone. The count is deterministic, so the floor
/// sits close: giving each `Expand` child its own copy of the register
/// file instead of a share costs 0.60× and fails here. (Shallower drives
/// are dominated by per-query setup both paths share.)
///
/// The plan's `min_dist` follows its `Expand`, so the arena side runs it
/// fused and never creates the children it prunes; the reference creates
/// and then retires them. A fused guard check counts as the step it
/// replaces, so both sides count the same steps per query and the ratio
/// stays per step (it read 0.457× before the fusion, 0.463× with it).
#[test]
fn arena_path_allocates_at_most_55_percent_per_step() {
    let n = 4_000;
    let data = KhopDataset::generate(KhopParams::lj_sim(n));
    let g = data.build(Partitioner::new(1, 2)).unwrap();
    let plan = khop_topk_plan(&g, 3);
    let mut rng = seeded(11);
    let starts: Vec<Value> = (0..8)
        .map(|_| Value::Vertex(VertexId(rng.gen_range(0..n))))
        .collect();
    // Warm both paths, so lazily-built structures bill neither.
    drive_cloned(&g, &plan, &starts[..1], 1);
    drive_arena(&g, &plan, &starts[..1], 1);

    // (allocations, steps) per path, same seeds on both; the schedules
    // part where the arena side prunes a child before it exists.
    let (mut cloned, mut arena) = ((0, 0), (0, 0));
    for (i, start) in starts.iter().enumerate() {
        let (params, seed) = (std::slice::from_ref(start), 100 + i as u64);
        let before = allocs();
        let (_, steps) = drive_cloned(&g, &plan, params, seed);
        cloned = (cloned.0 + allocs() - before, cloned.1 + steps);
        let before = allocs();
        let (_, steps) = drive_arena(&g, &plan, params, seed);
        arena = (arena.0 + allocs() - before, arena.1 + steps);
    }
    let per_step = |(allocs, steps): (u64, u64)| allocs as f64 / steps.max(1) as f64;
    let (cloned, arena) = (per_step(cloned), per_step(arena));
    assert!(
        arena <= 0.55 * cloned,
        "the arena path allocates {arena:.3}/step against the cloned \
         reference's {cloned:.3}/step — over the 0.55x floor"
    );
}
