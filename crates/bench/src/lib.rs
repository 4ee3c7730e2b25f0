//! # graphdance-bench
//!
//! Benchmark harnesses reproducing every table and figure of the paper's
//! evaluation (§V). Each figure/table is a binary under `src/bin/`; run
//! with e.g.
//!
//! ```text
//! cargo run --release -p graphdance-bench --bin fig9_scalability
//! ```
//!
//! Binaries accept `--quick` for a reduced sweep (used by CI and the
//! recorded outputs in EXPERIMENTS.md). Criterion micro-benchmarks of the
//! core data structures live under `benches/`.
//!
//! This library crate holds the shared harness plumbing: dataset caching,
//! engine construction, the k-hop query of Fig. 1, and table formatting.

use std::time::Duration;

use graphdance_baselines::{BanyanSim, BspEngine, GaiaSim, NonPartitionedEngine, QueryEngine};
use graphdance_common::rng::seeded;
use graphdance_common::{Partitioner, Value, VertexId};
use graphdance_datagen::{KhopDataset, KhopParams, SnbDataset, SnbParams};
use graphdance_engine::{EngineConfig, GraphDance};
use graphdance_query::expr::Expr;
use graphdance_query::plan::{Order, Plan};
use graphdance_query::QueryBuilder;
use graphdance_storage::Graph;

use rand::Rng;

/// Default vertex counts for the scaled-down k-hop datasets. Sized so the
/// large queries (fs-sim 3/4-hop) run long enough for parallelism and
/// batching effects to dominate fixed per-query costs, as in the paper.
pub const LJ_VERTICES: u64 = 40_000;
pub const FS_VERTICES: u64 = 16_000;

/// Quick-mode sizes.
pub const LJ_VERTICES_QUICK: u64 = 4_000;
pub const FS_VERTICES_QUICK: u64 = 2_000;

/// Is `--quick` on the command line?
pub fn quick_mode() -> bool {
    std::env::args().any(|a| a == "--quick")
}

/// Is `--trace` on the command line? (Per-query span tracing; requires
/// the `obs` feature, which is on by default for bench bins.)
pub fn trace_mode() -> bool {
    std::env::args().any(|a| a == "--trace")
}

/// Is `--metrics` on the command line? (Dump the Prometheus exposition of
/// the engine's metrics registry at the end of the run.)
pub fn metrics_mode() -> bool {
    std::env::args().any(|a| a == "--metrics")
}

/// Run one traced query and print the per-stage timeline plus the
/// reconciliation line against the engine's `MsgLedger` conservation
/// counters. No-op unless built with the `obs` feature (the default).
#[cfg(feature = "obs")]
pub fn print_trace(engine: &dyn QueryEngine, label: &str, plan: &Plan, params: Vec<Value>) {
    match engine.query_traced(plan, params) {
        Ok((_, Some(trace))) => {
            println!("--- trace: {label} ({}) ---", engine.name());
            print!("{}", trace.pretty());
            if trace.ledger_sent != 0 || trace.ledger_delivered != 0 {
                let reconciled = trace.traverser_msgs() == trace.ledger_sent
                    && trace.ledger_sent == trace.ledger_delivered;
                println!(
                    "reconcile: trace traverser msgs={} ledger sent={} delivered={} -> {}",
                    trace.traverser_msgs(),
                    trace.ledger_sent,
                    trace.ledger_delivered,
                    if reconciled { "OK" } else { "MISMATCH" },
                );
            } else {
                println!("reconcile: ledger disabled (release build) — trace-only");
            }
        }
        Ok((_, None)) => println!("--- trace: {label} ({}): not traced ---", engine.name()),
        Err(e) => println!("--- trace: {label} ({}): failed: {e} ---", engine.name()),
    }
}

/// Built without the `obs` feature: tracing is compiled out.
#[cfg(not(feature = "obs"))]
pub fn print_trace(_engine: &dyn QueryEngine, label: &str, _plan: &Plan, _params: Vec<Value>) {
    println!("--- trace: {label}: built without the `obs` feature ---");
}

/// Dump the engine's metrics in Prometheus text format, if instrumented.
#[cfg(feature = "obs")]
pub fn print_metrics(engine: &dyn QueryEngine) {
    match engine.metrics_prometheus() {
        Some(text) => {
            println!("--- metrics ({}) ---", engine.name());
            print!("{text}");
        }
        None => println!("--- metrics ({}): not instrumented ---", engine.name()),
    }
}

/// Built without the `obs` feature: metrics are compiled out.
#[cfg(not(feature = "obs"))]
pub fn print_metrics(engine: &dyn QueryEngine) {
    println!(
        "--- metrics ({}): built without the `obs` feature ---",
        engine.name()
    );
}

/// Generate (once) the lj-sim dataset.
pub fn lj_dataset(quick: bool) -> KhopDataset {
    KhopDataset::generate(KhopParams::lj_sim(if quick {
        LJ_VERTICES_QUICK
    } else {
        LJ_VERTICES
    }))
}

/// Generate (once) the fs-sim dataset.
pub fn fs_dataset(quick: bool) -> KhopDataset {
    KhopDataset::generate(KhopParams::fs_sim(if quick {
        FS_VERTICES_QUICK
    } else {
        FS_VERTICES
    }))
}

/// Generate the SF300-sim SNB dataset (scaled further down in quick mode).
pub fn sf300_dataset(quick: bool) -> SnbDataset {
    let mut p = SnbParams::sf300_sim();
    if quick {
        p.persons /= 4;
    }
    SnbDataset::generate(p)
}

/// Generate the SF1000-sim SNB dataset.
pub fn sf1000_dataset(quick: bool) -> SnbDataset {
    let mut p = SnbParams::sf1000_sim();
    if quick {
        p.persons /= 4;
    }
    SnbDataset::generate(p)
}

/// The Fig. 1 k-hop query: all vertices within `k` hops of `$0`, top 10 by
/// vertex weight (ties by id).
pub fn khop_topk_plan(graph: &Graph, k: i64) -> Plan {
    let w = graph
        .schema()
        .prop("weight")
        .expect("khop graphs carry weights");
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
    b.compile().expect("khop plan compiles")
}

/// Run the k-hop query from `trials` random start vertices and return the
/// average latency (the paper's methodology: random starts, averaged).
pub fn run_khop_avg(
    engine: &dyn QueryEngine,
    plan: &Plan,
    num_vertices: u64,
    trials: usize,
    seed: u64,
) -> Duration {
    let mut rng = seeded(seed);
    let mut total = Duration::ZERO;
    let mut ok = 0u32;
    for _ in 0..trials {
        let start = VertexId(rng.gen_range(0..num_vertices));
        match engine.query_timed(plan, vec![Value::Vertex(start)]) {
            Ok(r) => {
                total += r.latency;
                ok += 1;
            }
            Err(e) => eprintln!("  [warn] {}: {e}", engine.name()),
        }
    }
    if ok == 0 {
        Duration::MAX
    } else {
        total / ok
    }
}

/// Engines compared in the scalability studies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    GraphDance,
    Bsp,
    NonPartitioned,
    GaiaSim,
    BanyanSim,
}

impl EngineKind {
    /// Printable name.
    pub fn name(&self) -> &'static str {
        match self {
            EngineKind::GraphDance => "GraphDance",
            EngineKind::Bsp => "BSP",
            EngineKind::NonPartitioned => "NonPart",
            EngineKind::GaiaSim => "GAIA-sim",
            EngineKind::BanyanSim => "Banyan-sim",
        }
    }

    /// Build the engine over a freshly-materialized graph.
    pub fn start(&self, graph: Graph, config: EngineConfig) -> Box<dyn QueryEngine> {
        match self {
            EngineKind::GraphDance => Box::new(GraphDance::start(graph, config)),
            EngineKind::Bsp => Box::new(BspEngine::start(graph, config)),
            EngineKind::NonPartitioned => Box::new(NonPartitionedEngine::start(graph, config)),
            EngineKind::GaiaSim => Box::new(GaiaSim::start(graph, config)),
            EngineKind::BanyanSim => Box::new(BanyanSim::start(graph, config)),
        }
    }
}

/// Build a graph for a topology from a k-hop dataset.
pub fn build_khop_graph(data: &KhopDataset, nodes: u32, wpn: u32) -> Graph {
    data.build(Partitioner::new(nodes, wpn))
        .expect("dataset builds")
}

/// Closed-loop throughput: `clients` threads issue queries back-to-back
/// for `window`; returns completed queries per second. `make_params` draws
/// fresh parameters per call (thread-safe via per-client seeds).
pub fn run_throughput(
    engine: &dyn QueryEngine,
    plan: &Plan,
    make_params: &(dyn Fn(&mut rand::rngs::SmallRng) -> Vec<Value> + Sync),
    clients: usize,
    window: Duration,
) -> f64 {
    use std::sync::atomic::{AtomicU64, Ordering};
    // lint: allow(adhoc-counter) closed-loop completion tally local to one
    // measurement window, joined before returning — not an engine metric
    let done = AtomicU64::new(0);
    let start = graphdance_common::time::now();
    std::thread::scope(|scope| {
        for c in 0..clients {
            let done = &done;
            scope.spawn(move || {
                let mut rng = seeded(0xBEEF ^ c as u64);
                while start.elapsed() < window {
                    let params = make_params(&mut rng);
                    if engine.query_timed(plan, params).is_ok() {
                        // sync: throughput counter, read after scope join
                        done.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
    });
    // sync: scoped-thread join above is the happens-before edge
    done.load(Ordering::Relaxed) as f64 / start.elapsed().as_secs_f64()
}

/// Average sequential latency of a plan over `trials` parameter draws.
pub fn run_latency_avg(
    engine: &dyn QueryEngine,
    plan: &Plan,
    make_params: &mut dyn FnMut() -> Vec<Value>,
    trials: usize,
) -> Duration {
    let mut total = Duration::ZERO;
    let mut ok = 0u32;
    for _ in 0..trials {
        match engine.query_timed(plan, make_params()) {
            Ok(r) => {
                total += r.latency;
                ok += 1;
            }
            Err(e) => eprintln!("  [warn] {}: {e}", engine.name()),
        }
    }
    if ok == 0 {
        Duration::MAX
    } else {
        total / ok
    }
}

/// Format a duration in ms with 3 decimals.
pub fn ms(d: Duration) -> String {
    if d == Duration::MAX {
        "   FAIL ".into()
    } else {
        format!("{:8.3}", d.as_secs_f64() * 1e3)
    }
}

/// Print a table header row.
pub fn header(cols: &[&str]) {
    println!("{}", cols.join(" | "));
    println!(
        "{}",
        "-".repeat(cols.iter().map(|c| c.len() + 3).sum::<usize>())
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn khop_plan_builds_for_khop_graphs() {
        let d = lj_dataset(true);
        let g = build_khop_graph(&d, 1, 2);
        let plan = khop_topk_plan(&g, 2);
        assert!(plan.validate().is_ok());
    }

    #[test]
    fn engine_kinds_start_and_answer() {
        let d = KhopDataset::generate(KhopParams::lj_sim(300));
        for kind in [
            EngineKind::GraphDance,
            EngineKind::Bsp,
            EngineKind::NonPartitioned,
            EngineKind::GaiaSim,
            EngineKind::BanyanSim,
        ] {
            let g = build_khop_graph(&d, 1, 2);
            let plan = khop_topk_plan(&g, 2);
            let engine = kind.start(g, EngineConfig::new(1, 2));
            let avg = run_khop_avg(engine.as_ref(), &plan, 300, 2, 7);
            assert!(avg < Duration::from_secs(10), "{} answered", kind.name());
            engine.stop();
        }
    }

    #[test]
    fn ms_formatting() {
        assert_eq!(ms(Duration::from_millis(1)), "   1.000");
        assert_eq!(ms(Duration::MAX), "   FAIL ");
    }

    /// A regression gate over one committed record: it reads the record's
    /// numbers through `field` and asserts on them.
    type Gate = fn(field: &dyn Fn(&str) -> f64);

    /// Every committed `BENCH_*.json` regression gate: the record and the
    /// named check it must pass.
    const GATES: [(&str, Gate); 5] = [
        (
            include_str!("../../../BENCH_obs_baseline.json"),
            recorded_obs_overhead_within_budget,
        ),
        (
            include_str!("../../../BENCH_hotpath.json"),
            recorded_hotpath_within_budget,
        ),
        (
            include_str!("../../../BENCH_service_slo.json"),
            recorded_service_slo_within_budget,
        ),
        (
            include_str!("../../../BENCH_partitioning.json"),
            recorded_partitioning_within_budget,
        ),
        (
            include_str!("../../../BENCH_transport.json"),
            recorded_transport_within_budget,
        ),
    ];

    #[test]
    fn recorded_gates_within_budget() {
        for (raw, gate) in GATES {
            gate(&|name| recorded(raw, name));
        }
    }

    /// The number recorded under `name` in a committed `BENCH_*.json`
    /// (`raw`): the first occurrence of the key, then its numeric value.
    fn recorded(raw: &str, name: &str) -> f64 {
        let at = raw.find(name).unwrap_or_else(|| panic!("{name} present"));
        let rest = &raw[at + name.len()..];
        let num: String = rest
            .chars()
            .skip_while(|c| *c == '"' || *c == ':' || c.is_whitespace())
            .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-')
            .collect();
        num.parse().unwrap_or_else(|_| panic!("{name} numeric"))
    }

    /// PR 3 acceptance: the recorded obs on/off baseline
    /// (`BENCH_obs_baseline.json`, produced by the `obs_baseline` bin)
    /// must show instrumentation overhead within the 3% k-hop budget.
    /// Asserting the committed artifact keeps the check deterministic;
    /// re-run the bin and update the file when the hot paths change.
    fn recorded_obs_overhead_within_budget(field: &dyn Fn(&str) -> f64) {
        let overhead = field("overhead_pct");
        let budget = field("budget_pct");
        assert!(
            overhead <= budget,
            "recorded obs overhead {overhead}% exceeds the {budget}% budget — \
             re-run the obs_baseline bin in both modes and investigate"
        );
        assert_eq!(budget, 3.0, "budget is the PR 3 acceptance figure");
    }

    /// Hot-path arena acceptance (perf-regression floor): the recorded
    /// comparison (`BENCH_hotpath.json`, produced by the `hotpath_arena`
    /// bin with `--record`) must show the arena/interned-locals
    /// interpreter (`run_frontier`, what the engine runs) allocating at
    /// most `alloc_floor_ratio` (0.75×) per traverser-step of what the
    /// cloned reference (`run_traverser`) allocates.
    /// Asserting the committed artifact keeps CI deterministic; re-record
    /// with `cargo run --release -p graphdance-bench --bin hotpath_arena
    /// -- --record` when the interpreter hot path changes.
    fn recorded_hotpath_within_budget(field: &dyn Fn(&str) -> f64) {
        let alloc_cloned = field("alloc_per_step_cloned");
        let alloc_arena = field("alloc_per_step_arena");
        let floor = field("alloc_floor_ratio");
        assert_eq!(floor, 0.75, "floor is the acceptance figure (≥25% fewer)");
        assert!(
            alloc_arena <= alloc_cloned * floor,
            "recorded arena path allocates {alloc_arena}/step vs cloned \
             {alloc_cloned}/step — misses the {floor}x floor; re-record \
             hotpath_arena and profile the interpreter's arena path"
        );
    }

    /// Service SLO acceptance: the recorded offered-load sweep
    /// (`BENCH_service_slo.json`, produced by the `service_slo` bin)
    /// must show (a) interactive p99 at most 0.4× background p99 at the
    /// mid load — the service's weighted dispatch *and* the workers'
    /// per-query scheduling behind it (DESIGN.md §12) keep a short read
    /// from waiting out the long ones beside it, (b) admission
    /// control actually shedding past saturation, and (c) the
    /// cancellation A/B (same arrivals, with and without cancels) not
    /// regressing surviving interactive p99 beyond tolerance —
    /// cooperative teardown must free capacity, never leak it.
    /// Asserting the committed artifact keeps CI deterministic;
    /// re-run the bin and update the file when the service or scheduler
    /// changes.
    fn recorded_service_slo_within_budget(field: &dyn Fn(&str) -> f64) {
        let interactive_p99 = field("mid_interactive_p99_ms");
        let background_p99 = field("mid_background_p99_ms");
        assert!(
            interactive_p99 <= 0.4 * background_p99,
            "recorded interactive p99 {interactive_p99}ms is more than 0.4x \
             background p99 {background_p99}ms — short reads are waiting \
             out long queries again; re-run service_slo and look at the \
             worker's query ring before the ServiceConfig weights"
        );
        let rejection = field("top_rejection_rate");
        assert!(
            rejection > 0.0,
            "the recorded top-load window shed nothing — the sweep never \
             saturated admission control; raise the top offered load"
        );
        let tol = field("cancel_tolerance_pct");
        assert_eq!(tol, 50.0, "tolerance is the acceptance figure");
        let baseline = field("baseline_interactive_p99_ms");
        let surviving = field("cancel_surviving_interactive_p99_ms");
        assert!(
            surviving <= baseline * (1.0 + tol / 100.0),
            "recorded surviving interactive p99 {surviving}ms regresses the \
             no-cancel baseline {baseline}ms beyond {tol}% — cancellation is \
             leaking capacity; re-run service_slo and check the drain \
             protocol"
        );
        let cancelled = field("cancelled_mid_flight");
        assert!(
            cancelled > 0.0,
            "the recorded A/B cancelled nothing mid-flight — the comparison \
             is vacuous"
        );
    }

    /// Partitioning acceptance: the recorded hash-vs-Fennel A/B
    /// (`BENCH_partitioning.json`, produced by the `partitioning_ab` bin
    /// with `--record`) must show the Fennel placement cutting cross-node
    /// traverser messages by at least the 40% floor on the
    /// community-structured Fig. 9 3-hop workload, with p50/p99 latency
    /// within tolerance of the hash baseline. Asserting the committed
    /// artifact keeps CI deterministic; re-record with `cargo run
    /// --release -p graphdance-bench --bin partitioning_ab -- --record`
    /// when the partitioner, router, or engine hot path changes.
    fn recorded_partitioning_within_budget(field: &dyn Fn(&str) -> f64) {
        let floor = field("reduction_floor_pct");
        assert_eq!(floor, 40.0, "floor is the acceptance figure");
        let hash_cross = field("hash_cross_node_msgs");
        let fennel_cross = field("fennel_cross_node_msgs");
        let reduction = field("reduction_pct");
        assert!(
            hash_cross > 0.0 && fennel_cross > 0.0,
            "the recorded A/B moved no cross-node traffic — the comparison \
             is vacuous"
        );
        assert!(
            reduction >= floor,
            "recorded cross-node reduction {reduction}% misses the {floor}% \
             floor ({fennel_cross} vs {hash_cross} msgs) — re-record \
             partitioning_ab and investigate partition_stream / the \
             community locality of the workload"
        );
        // The recorded reduction must agree with the recorded raw counts.
        let recomputed = 100.0 * (1.0 - fennel_cross / hash_cross);
        assert!(
            (recomputed - reduction).abs() < 0.5,
            "recorded reduction_pct {reduction} disagrees with the raw \
             counts ({recomputed:.1})"
        );
        let tol = field("latency_tolerance_pct");
        assert_eq!(tol, 25.0, "tolerance is the acceptance figure");
        let lat_ok = |fennel_name: &str, hash_name: &str| {
            let f = field(fennel_name);
            let h = field(hash_name);
            assert!(
                f <= h * (1.0 + tol / 100.0),
                "recorded {fennel_name} {f}ms regresses {hash_name} {h}ms \
                 beyond {tol}% — locality gains must not cost latency; \
                 re-record partitioning_ab and check partition balance"
            );
        };
        lat_ok("fennel_p50_ms", "hash_p50_ms");
        lat_ok("fennel_p99_ms", "hash_p99_ms");
    }

    /// Transport acceptance: the recorded channel-vs-socket A/B
    /// (`BENCH_transport.json`, produced by the `transport_ab` bin with
    /// `--record`) must show the socket backends (a) batching — a flushed
    /// 32-traverser batch ships in at most 2 frames and 2 write syscalls,
    /// never per-message writes — and (b) keeping loopback batch latency
    /// under generous absolute ceilings that would catch a transport that
    /// starts sleeping, retrying, or copying per message. Asserting the
    /// committed artifact keeps CI deterministic; re-record with `cargo
    /// run --release -p graphdance-bench --bin transport_ab -- --record`
    /// when the framing, egress pump, or socket I/O changes.
    fn recorded_transport_within_budget(field: &dyn Fn(&str) -> f64) {
        let frame_budget = field("frames_per_batch_budget");
        let syscall_budget = field("syscalls_per_batch_budget");
        assert_eq!(frame_budget, 2.0, "budget is the acceptance figure");
        assert_eq!(syscall_budget, 2.0, "budget is the acceptance figure");
        for arm in ["tcp", "unix"] {
            let frames = field(&format!("{arm}_frames_per_batch"));
            let syscalls = field(&format!("{arm}_syscalls_per_batch"));
            assert!(
                frames > 0.0,
                "the recorded {arm} arm shipped no frames — the A/B is vacuous"
            );
            assert!(
                frames <= frame_budget,
                "recorded {arm} arm ships {frames} frames/batch, over the \
                 {frame_budget} budget — the egress pump stopped coalescing; \
                 re-record transport_ab and inspect EgressPump/TcpTransport"
            );
            assert!(
                syscalls <= syscall_budget,
                "recorded {arm} arm spends {syscalls} write syscalls/batch, \
                 over the {syscall_budget} budget — the socket path is \
                 writing per message; re-record transport_ab"
            );
        }
        let p50_budget = field("p50_budget_ms");
        let p99_budget = field("p99_budget_ms");
        for arm in ["tcp", "unix"] {
            let p50 = field(&format!("{arm}_p50_ms"));
            let p99 = field(&format!("{arm}_p99_ms"));
            assert!(
                p50 > 0.0 && p50 <= p50_budget,
                "recorded {arm} p50 {p50}ms outside (0, {p50_budget}] — \
                 re-record transport_ab and profile the socket path"
            );
            assert!(
                p99 <= p99_budget,
                "recorded {arm} p99 {p99}ms over the {p99_budget}ms ceiling — \
                 re-record transport_ab and look for retry/backoff sleeps on \
                 the hot path"
            );
        }
        // The in-process arm must have produced a real figure too, or the
        // comparison column is meaningless.
        assert!(
            field("channel_p50_ms") > 0.0,
            "channel arm measured nothing"
        );
    }
}
