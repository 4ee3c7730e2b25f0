//! Hot-path memory layout comparison at the interpreter: the arena /
//! interned-locals execution the engine runs (`Interpreter::run_frontier`)
//! against the cloned-traverser reference implementation
//! (`Interpreter::run_traverser`).
//!
//! One measurement: **allocations per traverser-step** — a counting global
//! allocator around single-threaded interpreter drives of the Fig. 1 k-hop
//! query, same seeds and schedule on both sides. Interning π and
//! slab-recycling traversers removes the `t.clone()`-per-edge allocation
//! traffic. (The engine has one worker layout, so there is no engine-level
//! on/off point to take; end-to-end numbers come from `benchmark/`.)
//!
//! Prints one `JSON:` line; with `--record` it also rewrites
//! `BENCH_hotpath.json` at the repo root, which the `graphdance-bench`
//! gate `recorded_hotpath_within_budget` asserts: the arena path must
//! allocate ≤ 0.75× per step. Quick mode is the default lane recorded in
//! CI; pass `--full` for the paper-scale drive.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use graphdance_bench::*;
use graphdance_common::rng::seeded;
use graphdance_common::{PartId, Partitioner, QueryId, Value, VertexId};
use graphdance_pstm::{
    ExpandCache, Frontier, HandleOutcome, Interpreter, LocalsTable, Memo, Traverser,
    TraverserArena, TraverserHandle, Weight, WeightAccumulator,
};
use graphdance_query::plan::Plan;
use graphdance_storage::Graph;
use rand::Rng;

/// Allocation counter behind the measuring global allocator. Relaxed is
/// enough: the micro harness is single-threaded and reads only between
/// drives.
// lint: allow(adhoc-counter) bench-only allocation-count probe, not a metric
static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// Wraps the system allocator, counting every allocation (frees are not
/// interesting here: the claim is about allocator *pressure* per step).
struct CountingAlloc;

// SAFETY: pure pass-through to `System`; the counter has no effect on the
// returned pointers or layouts, so `System`'s contract carries over.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: delegates to `System::alloc` with the caller's layout.
    unsafe fn alloc(&self, l: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed); // sync: single-threaded probe, read between drives
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

fn allocs_now() -> u64 {
    ALLOCS.load(Ordering::Relaxed) // sync: single-threaded probe, read between drives
}

/// Single-threaded drive of a single-stage plan on the cloned-locals
/// reference path. Returns total plan steps executed.
fn drive_cloned(graph: &Graph, plan: &Plan, params: &[Value], seed: u64) -> u64 {
    let interp = Interpreter {
        graph,
        plan,
        stage_idx: 0,
        query: QueryId(1),
        params,
        read_ts: 1,
        routing_version: 0,
    };
    let mut rng = seeded(seed);
    let mut memos: Vec<Memo> = (0..graph.partitioner().num_parts())
        .map(|_| Memo::new())
        .collect();
    let mut tracker = WeightAccumulator::new();
    let mut queue: Vec<(PartId, Traverser)> = Vec::new();
    let stage = interp.stage();
    let pipe_weights = Weight::ROOT.split(stage.pipelines.len(), &mut rng);
    let mut steps = 0u64;
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
    while let Some((p, t)) = queue.pop() {
        let part = graph.read(p);
        let out = interp
            .run_traverser(
                t,
                &part,
                memos[p.as_usize()].query_mut(QueryId(1)),
                &mut rng,
            )
            .unwrap();
        steps += out.steps_executed as u64;
        tracker.add(out.finished);
        queue.extend(out.spawned);
    }
    assert!(tracker.is_complete(), "cloned drive leaked weight");
    steps
}

/// The same drive on the arena/interned path (same seeds, same schedule).
fn drive_arena(graph: &Graph, plan: &Plan, params: &[Value], seed: u64) -> u64 {
    let interp = Interpreter {
        graph,
        plan,
        stage_idx: 0,
        query: QueryId(1),
        params,
        read_ts: 1,
        routing_version: 0,
    };
    let mut rng = seeded(seed);
    let mut memos: Vec<Memo> = (0..graph.partitioner().num_parts())
        .map(|_| Memo::new())
        .collect();
    let mut tracker = WeightAccumulator::new();
    let mut arena = TraverserArena::new();
    let mut locals = LocalsTable::new();
    let mut cache = ExpandCache::new();
    let mut frontier = Frontier::new();
    let mut queue: Vec<(PartId, TraverserHandle)> = Vec::new();
    let stage = interp.stage();
    let pipe_weights = Weight::ROOT.split(stage.pipelines.len(), &mut rng);
    let mut steps = 0u64;
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
    let mut pops = 0usize;
    let mut out = HandleOutcome::new();
    while let Some((p, h)) = queue.pop() {
        if pops.is_multiple_of(64) {
            cache.begin_quantum();
        }
        pops += 1;
        frontier.clear();
        frontier.push(
            h,
            #[cfg(feature = "obs")]
            0,
        );
        let part = graph.read(p);
        interp
            .run_frontier(
                &frontier,
                0,
                &mut arena,
                &mut locals,
                &mut cache,
                &part,
                memos[p.as_usize()].query_mut(QueryId(1)),
                &mut rng,
                &mut out,
            )
            .unwrap();
        steps += out.steps_executed as u64;
        tracker.add(out.finished);
        queue.append(&mut out.spawned);
        out.emitted.clear();
    }
    assert!(tracker.is_complete(), "arena drive leaked weight");
    steps
}

/// Allocations per traverser-step for both paths, single-threaded, on the
/// Fig. 1 k-hop query at fig9's 3-hop depth (shallower drives are
/// dominated by per-query setup allocations, which both paths share). One
/// warmup drive first so lazily-built dataset and TEL structures don't
/// bill the first path measured.
fn micro_allocs(quick: bool) -> (f64, f64) {
    let data = lj_dataset(quick);
    let g = data.build(Partitioner::new(1, 2)).expect("builds");
    let plan = khop_topk_plan(&g, 3);
    let n = data.params().vertices;
    let mut rng = seeded(11);
    let starts: Vec<Value> = (0..if quick { 8 } else { 32 })
        .map(|_| Value::Vertex(VertexId(rng.gen_range(0..n))))
        .collect();
    // Warm both paths (fills page caches, grows memo tables).
    drive_cloned(&g, &plan, &starts[..1], 1);
    drive_arena(&g, &plan, &starts[..1], 1);

    let mut cloned_allocs = 0u64;
    let mut cloned_steps = 0u64;
    let mut arena_allocs = 0u64;
    let mut arena_steps = 0u64;
    for (i, s) in starts.iter().enumerate() {
        let params = std::slice::from_ref(s);
        let a0 = allocs_now();
        let st = drive_cloned(&g, &plan, params, 100 + i as u64);
        cloned_allocs += allocs_now() - a0;
        cloned_steps += st;
        let a1 = allocs_now();
        let st = drive_arena(&g, &plan, params, 100 + i as u64);
        arena_allocs += allocs_now() - a1;
        arena_steps += st;
    }
    (
        cloned_allocs as f64 / cloned_steps.max(1) as f64,
        arena_allocs as f64 / arena_steps.max(1) as f64,
    )
}

fn main() {
    let quick = !std::env::args().any(|a| a == "--full");
    let record = std::env::args().any(|a| a == "--record");

    println!(
        "=== hot-path arena vs cloned interpreter ({}) ===",
        if quick { "quick" } else { "full" }
    );

    let (alloc_cloned, alloc_arena) = micro_allocs(quick);
    let reduction = 100.0 * (1.0 - alloc_arena / alloc_cloned.max(1e-9));
    println!("allocations/traverser-step: cloned {alloc_cloned:.3}  arena {alloc_arena:.3}  (-{reduction:.1}%)");

    let json = format!(
        "{{\n  \"bench\": \"hotpath_arena\",\n  \"workload\": \"{}\",\n  \
         \"method\": \"cargo run --release -p graphdance-bench --bin hotpath_arena -- --record; \
         alloc counts from a counting global allocator around single-threaded interpreter drives \
         of run_traverser (cloned, the reference) and run_frontier (arena, what the engine runs), \
         identical seeds/schedules\",\n  \
         \"alloc_per_step_cloned\": {alloc_cloned:.3},\n  \
         \"alloc_per_step_arena\": {alloc_arena:.3},\n  \
         \"alloc_reduction_pct\": {reduction:.1},\n  \
         \"alloc_floor_ratio\": 0.75\n}}",
        if quick {
            "quick lane: lj-sim(4000) 3-hop top-10, 8 starts, 1 node x 2 partitions"
        } else {
            "full lane: lj-sim(40000) 3-hop top-10, 32 starts, 1 node x 2 partitions"
        },
    );
    println!("\nJSON: {}", json.replace('\n', " "));
    if record {
        std::fs::write("BENCH_hotpath.json", format!("{json}\n"))
            .expect("write BENCH_hotpath.json");
        println!("recorded to BENCH_hotpath.json");
    }
}
