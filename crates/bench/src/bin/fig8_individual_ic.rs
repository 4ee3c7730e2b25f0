//! Fig. 8 — per-query latency and throughput of the 14 Interactive
//! Complex queries: GraphDance vs BSP (TigerGraph-sim) vs the
//! non-partitioned ablation, on SF300-sim and SF1000-sim, at both
//! topologies EXPERIMENTS.md compares (1 × 2 and 2 × 4). The plan steps
//! each engine executed per query (mean over the latency trials) are
//! printed beside the latencies. After both shapes a dataset gets a
//! same-run summary: each engine's geometric-mean latency over the 14 ICs
//! at each shape, its 2 × 4 ÷ 1 × 2 ratio, and each baseline's geomean ÷
//! GraphDance's at the same shape.
//!
//! Single cells drift 20–30 % between runs with the host, so a comparison
//! across two builds reads the summary's ratios, taken within one run, and
//! the step counts, which do not depend on the host — not raw cells.
//!
//! Expected shape: GraphDance delivers large latency reductions and
//! order-of-magnitude throughput gains over BSP; partitioning alone buys
//! roughly 2× latency and ~3× throughput over the shared-state model.
//! `--quick` is a smoke only (2 latency trials a cell: the GraphDance/BSP
//! ordering flipped on 16 of 28 cells across three runs of one build).

use graphdance_baselines::QueryEngine;
use graphdance_bench::*;
use graphdance_common::Partitioner;
use graphdance_datagen::SnbDataset;
use graphdance_engine::EngineConfig;
use graphdance_ldbc::ic::build_ic_plans;
use graphdance_ldbc::params::ic_params;
use graphdance_ldbc::IC_NAMES;
use std::time::Duration;

/// Topologies run, as (nodes, workers per node).
const SHAPES: [(u32, u32); 2] = [(1, 2), (2, 4)];

/// The engines each shape runs, in column order.
const KINDS: [EngineKind; 3] = [
    EngineKind::GraphDance,
    EngineKind::Bsp,
    EngineKind::NonPartitioned,
];

/// Geometric mean of the latencies in ms (NaN if one failed).
fn geomean_ms(lat: &[Duration]) -> f64 {
    let ln = |d: &Duration| match *d {
        Duration::MAX => f64::NAN,
        d => (d.as_secs_f64() * 1e3).ln(),
    };
    (lat.iter().map(ln).sum::<f64>() / lat.len() as f64).exp()
}

/// Run the 14 ICs on each engine at one shape; returns each engine's
/// geometric-mean latency (ms), in [`KINDS`] order.
fn bench_dataset(name: &str, data: &SnbDataset, quick: bool, (nodes, wpn): (u32, u32)) -> Vec<f64> {
    let lat_trials = if quick { 2 } else { 4 };
    let tp_window = if quick {
        Duration::from_millis(400)
    } else {
        Duration::from_secs(1)
    };
    let tp_clients = if quick { 8 } else { 32 };

    println!(
        "\n=== Fig. 8: {name} at {nodes} x {wpn} — sequential latency (ms), steps and throughput (q/s) ==="
    );
    header(&[
        "query",
        "GD lat",
        "BSP lat",
        "NP lat",
        "GD steps",
        "BSP steps",
        "NP steps",
        "GD q/s",
        "BSP q/s",
        "NP q/s",
    ]);

    // Build one engine per kind and reuse across the 14 queries.
    let engines: Vec<(EngineKind, Box<dyn QueryEngine>)> = KINDS
        .iter()
        .map(|k| {
            let graph = data.build(Partitioner::new(nodes, wpn)).expect("builds");
            (*k, k.start(graph, EngineConfig::new(nodes, wpn)))
        })
        .collect();
    let schema = {
        let mut s = graphdance_storage::Schema::new();
        SnbDataset::register_schema(&mut s);
        s
    };
    let plans = build_ic_plans(&schema).expect("IC plans");

    let mut lats: Vec<Vec<Duration>> = vec![Vec::new(); KINDS.len()];
    for (qi, plan) in plans.iter().enumerate() {
        if trace_mode() {
            // One traced run per IC query on GraphDance (engines[0]):
            // per-stage timeline + MsgLedger reconciliation.
            let mut rng = graphdance_common::rng::seeded(177 + qi as u64);
            let params = ic_params(qi, data, &mut rng);
            print_trace(engines[0].1.as_ref(), IC_NAMES[qi], plan, params);
        }
        let (mut lat, mut steps) = (Vec::new(), Vec::new());
        let mut tps = Vec::new();
        for (_, engine) in &engines {
            let mut rng = graphdance_common::rng::seeded(77 + qi as u64);
            let mut mk = || ic_params(qi, data, &mut rng);
            let (l, s) = run_latency_avg(engine.as_ref(), plan, &mut mk, lat_trials);
            lat.push(l);
            steps.push(s);
            let tp = run_throughput(
                engine.as_ref(),
                plan,
                &|rng| ic_params(qi, data, rng),
                tp_clients,
                tp_window,
            );
            tps.push(tp);
        }
        println!(
            "{:5} | {} | {} | {} | {:8} | {:9} | {:8} | {:7.1} | {:7.1} | {:7.1}",
            IC_NAMES[qi],
            ms(lat[0]),
            ms(lat[1]),
            ms(lat[2]),
            steps[0],
            steps[1],
            steps[2],
            tps[0],
            tps[1],
            tps[2]
        );
        for (all, l) in lats.iter_mut().zip(lat) {
            all.push(l);
        }
    }
    if metrics_mode() {
        print_metrics(engines[0].1.as_ref());
    }
    for (_, e) in engines {
        e.stop();
    }
    lats.iter().map(|l| geomean_ms(l)).collect()
}

/// Print one dataset's same-run summary from each shape's geomeans.
fn summarize(name: &str, small: &[f64], large: &[f64]) {
    println!("\n--- Fig. 8 summary: {name}, geometric-mean IC latency (ms), same run ---");
    header(&[
        "engine    ",
        "   1 x 2",
        "   2 x 4",
        "2x4 ÷ 1x2",
        "÷ GD at 1x2",
        "÷ GD at 2x4",
    ]);
    for (i, kind) in KINDS.iter().enumerate() {
        let (s, l) = (small[i], large[i]);
        println!(
            "{:10} | {s:8.3} | {l:8.3} | {:9.2} | {:11.2} | {:11.2}",
            kind.name(),
            l / s,
            s / small[0],
            l / large[0]
        );
    }
}

fn main() {
    let quick = quick_mode();
    let run = |data: &SnbDataset, quick| {
        let name = data.params().name.clone();
        let [small, large] = SHAPES.map(|shape| bench_dataset(&name, data, quick, shape));
        summarize(&name, &small, &large);
    };
    run(&sf300_dataset(quick), quick);
    if !quick {
        run(&sf1000_dataset(false), false);
    }
    println!("\n(Paper: GraphDance ≈89% lower latency and ~43x higher throughput than TigerGraph;");
    println!(" partitioned vs non-partitioned: 46.5% lower latency, 3.29x throughput.)");
}
