//! Fig. 7 — mixed LDBC SNB Interactive workload: average and P99 latency
//! of IC and IS queries at TCR ∈ {3, 0.3, 0.03}, GraphDance vs the BSP
//! baseline (TigerGraph-sim).
//!
//! Per the paper, IC3, IC9 and IC14 are excluded for the BSP system (the
//! queries TigerGraph timed out on), and the BSP system is expected to
//! fail to sustain the TCR 0.03 issue rate.
//!
//! The paper's TCRs are defined against its hardware's capacity, so the
//! bin first measures BSP's closed-loop capacity on the same mix and sets
//! the base rate so that TCR 0.03 offers twice that (TCR 0.3 a fifth,
//! TCR 3 a fiftieth). BSP's failure there follows from the calibration;
//! the cell asks whether GraphDance sustains that rate. Offered `k` times
//! its capacity, a run of length `d` ends lagging `(k − 1) d`, past
//! `run_mixed`'s `d / 2` bound once `k` > 1.5: at 2, BSP passes only if
//! its capacity in the run beats the calibrated one by a third.

use graphdance_baselines::BspEngine;
use graphdance_bench::*;
use graphdance_common::time::now;
use graphdance_common::Partitioner;
use graphdance_datagen::SnbDataset;
use graphdance_engine::{EngineConfig, GraphDance};
use graphdance_ldbc::{build_ic_plans, build_is_plans, run_mixed, MixedReport, TcrConfig};
use graphdance_txn::TxnSystem;
use std::time::Duration;

const CLUSTER: (u32, u32) = (2, 4);

/// Offer the mix at `rate` ops/s for `duration` from 32 clients to a
/// fresh GraphDance (`bsp` false) or BSP engine — BSP's without
/// IC3/IC9/IC14 (indices 2, 8, 13); also returns the seconds it took.
fn run(data: &SnbDataset, rate: f64, duration: Duration, bsp: bool) -> (MixedReport, f64) {
    let mut cfg = TcrConfig::new(1.0);
    cfg.base_ops_per_sec = rate;
    cfg.clients = 32;
    cfg.duration = duration;
    if bsp {
        cfg.ic_subset = (0..14).filter(|i| ![2usize, 8, 13].contains(i)).collect();
    }
    let (nodes, wpn) = CLUSTER;
    let graph = data.build(Partitioner::new(nodes, wpn)).expect("builds");
    let schema = std::sync::Arc::clone(graph.schema());
    let ic = build_ic_plans(&schema).expect("plans");
    let is_ = build_is_plans(&schema).expect("plans");
    if bsp {
        let txn = TxnSystem::new(graph.clone());
        let engine = BspEngine::start(graph, EngineConfig::new(nodes, wpn));
        let t0 = now();
        let r = run_mixed(&engine, &txn, &schema, data, &ic, &is_, &cfg);
        let secs = t0.elapsed().as_secs_f64();
        engine.shutdown();
        (r, secs)
    } else {
        let engine = GraphDance::start(graph, EngineConfig::new(nodes, wpn));
        let t0 = now();
        let r = run_mixed(&engine, engine.txn(), &schema, data, &ic, &is_, &cfg);
        let secs = t0.elapsed().as_secs_f64();
        engine.shutdown();
        (r, secs)
    }
}

fn main() {
    let quick = quick_mode();
    let data = sf300_dataset(quick);
    let tcrs = if quick {
        vec![3.0, 0.3]
    } else {
        vec![3.0, 0.3, 0.03]
    };
    let duration = Duration::from_millis(if quick { 1200 } else { 4000 });
    // Closed loop: the mix offered far faster than it is served, so each
    // client issues its next operation as soon as its last one completes,
    // until the schedule's lag passes the window.
    let window = Duration::from_millis(if quick { 500 } else { 2000 });
    let (r, secs) = run(&data, 100_000.0, window, true);
    let capacity = r.completed as f64 / secs;
    let base_rate = 0.03 * 2.0 * capacity;

    println!(
        "=== Fig. 7: mixed SNB interactive workload on {} ===",
        data.params().name
    );
    println!(
        "calibration: BSP closed-loop capacity {capacity:.0} ops/s -> base rate {base_rate:.2} ops/s"
    );
    header(&[
        "engine    ",
        "TCR  ",
        "IC avg/p99",
        "IS avg/p99",
        "UP avg/p99",
        "sustained",
    ]);
    for tcr in tcrs {
        for (name, bsp) in [("GraphDance", false), ("BSP       ", true)] {
            let (r, _) = run(&data, base_rate / tcr, duration, bsp);
            println!(
                "{name} | {:5} | {} | {} | {} | {}",
                tcr,
                r.ic.fmt_ms(),
                r.is.fmt_ms(),
                r.up.fmt_ms(),
                r.sustained
            );
        }
    }
    println!("\n(Paper: GraphDance ~89-92% lower latency; TigerGraph fails at TCR 0.03.)");
}
