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
    /// named check it must pass. A record stays only while it guards a
    /// timing that no live test and no `benchmark/` metric can hold;
    /// deterministic counts are live tests instead.
    const GATES: [(&str, Gate); 2] = [
        (
            include_str!("../../../BENCH_obs_baseline.json"),
            recorded_obs_overhead_within_budget,
        ),
        (
            include_str!("../../../BENCH_service_slo.json"),
            recorded_service_slo_within_budget,
        ),
    ];

    #[test]
    fn recorded_gates_within_budget() {
        for (raw, gate) in GATES {
            // The header: the commit that recorded the numbers, the day,
            // the host's core count and the bin's lane.
            for key in ["git_sha", "date", "lane"] {
                assert!(
                    !recorded_str(raw, key).is_empty(),
                    "record header {key} is empty"
                );
            }
            assert!(recorded(raw, "nproc") >= 1.0, "record header nproc");
            gate(&|name| recorded(raw, name));
        }
    }

    /// What follows the first occurrence of the key `name` in a committed
    /// `BENCH_*.json` (`raw`), past the quote, colon and spaces.
    fn after_key<'a>(raw: &'a str, name: &str) -> &'a str {
        let at = raw
            .find(&format!("\"{name}\""))
            .unwrap_or_else(|| panic!("{name} present"));
        raw[at + name.len() + 2..].trim_start_matches([':', ' '])
    }

    /// The number recorded under `name`.
    fn recorded(raw: &str, name: &str) -> f64 {
        let rest = after_key(raw, name);
        let end = rest
            .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-'))
            .unwrap_or(rest.len());
        rest[..end]
            .parse()
            .unwrap_or_else(|_| panic!("{name} numeric"))
    }

    /// The string recorded under `name`.
    fn recorded_str<'a>(raw: &'a str, name: &str) -> &'a str {
        let rest = after_key(raw, name);
        let rest = rest
            .strip_prefix('"')
            .unwrap_or_else(|| panic!("{name} is a string"));
        &rest[..rest.find('"').unwrap_or_else(|| panic!("{name} closed"))]
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
}
