//! Fig. 8 — per-query latency and throughput of the 14 Interactive
//! Complex queries: GraphDance vs BSP (TigerGraph-sim) vs the
//! non-partitioned ablation, on SF300-sim and SF1000-sim, at both
//! topologies EXPERIMENTS.md compares (1 × 2 and 2 × 4). The plan steps
//! each engine executed per query (mean over the latency trials) are
//! printed beside the latencies, GraphDance's and BSP's.
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

fn bench_dataset(name: &str, data: &SnbDataset, quick: bool, (nodes, wpn): (u32, u32)) {
    let lat_trials = if quick { 2 } else { 4 };
    let tp_window = if quick {
        Duration::from_millis(400)
    } else {
        Duration::from_secs(1)
    };
    let tp_clients = if quick { 8 } else { 32 };
    let kinds = [
        EngineKind::GraphDance,
        EngineKind::Bsp,
        EngineKind::NonPartitioned,
    ];

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
        "GD q/s",
        "BSP q/s",
        "NP q/s",
    ]);

    // Build one engine per kind and reuse across the 14 queries.
    let engines: Vec<(EngineKind, Box<dyn QueryEngine>)> = kinds
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
            "{:5} | {} | {} | {} | {:8} | {:9} | {:7.1} | {:7.1} | {:7.1}",
            IC_NAMES[qi],
            ms(lat[0]),
            ms(lat[1]),
            ms(lat[2]),
            steps[0],
            steps[1],
            tps[0],
            tps[1],
            tps[2]
        );
    }
    if metrics_mode() {
        print_metrics(engines[0].1.as_ref());
    }
    for (_, e) in engines {
        e.stop();
    }
}

fn main() {
    let quick = quick_mode();
    let sf300 = sf300_dataset(quick);
    for shape in SHAPES {
        bench_dataset(&sf300.params().name.clone(), &sf300, quick, shape);
    }
    if !quick {
        let sf1000 = sf1000_dataset(false);
        for shape in SHAPES {
            bench_dataset(&sf1000.params().name.clone(), &sf1000, false, shape);
        }
    }
    println!("\n(Paper: GraphDance ≈89% lower latency and ~43x higher throughput than TigerGraph;");
    println!(" partitioned vs non-partitioned: 46.5% lower latency, 3.29x throughput.)");
}
