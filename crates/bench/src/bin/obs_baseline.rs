//! Overhead baseline for the `obs` instrumentation: enabling metrics +
//! tracing must cost ≤3% on the k-hop macro bench.
//!
//! Run **twice** and compare:
//!
//! ```text
//! cargo run --release -p graphdance-bench --features obs --bin obs_baseline   # obs on
//! cargo run --release -p graphdance-bench --bin obs_baseline                  # obs off (default)
//! ```
//!
//! Each run prints a human summary plus one `JSON:` line; the two JSON
//! halves are recorded in `BENCH_obs_baseline.json` at the repo root,
//! which `crates/bench` unit tests assert stays within the 3% budget.
//! With obs on, a micro section also reports the raw cost of one shard
//! counter add and one histogram observe (the hot-path primitives).

use std::time::Duration;

use graphdance_baselines::QueryEngine;
use graphdance_bench::*;
use graphdance_common::rng::seeded;
use graphdance_common::{Value, VertexId};
use graphdance_engine::{EngineConfig, GraphDance};

use rand::Rng;

const VERTICES: u64 = 4_000;
const K: i64 = 3;
const WARMUP: usize = 100;
const TRIALS: usize = 400;

fn main() {
    let obs_on = cfg!(feature = "obs");
    let quick = quick_mode();
    let (warmup, trials) = if quick { (10, 40) } else { (WARMUP, TRIALS) };

    let data =
        graphdance_datagen::KhopDataset::generate(graphdance_datagen::KhopParams::lj_sim(VERTICES));
    let graph = build_khop_graph(&data, 2, 2);
    let plan = khop_topk_plan(&graph, K);
    let engine: Box<dyn QueryEngine> = Box::new(GraphDance::start(graph, EngineConfig::new(2, 2)));

    let mut rng = seeded(0x0B5);
    for _ in 0..warmup {
        let start = VertexId(rng.gen_range(0..VERTICES));
        let _ = engine.query_timed(&plan, vec![Value::Vertex(start)]);
    }
    let mut total = Duration::ZERO;
    let mut ok = 0u32;
    for _ in 0..trials {
        let start = VertexId(rng.gen_range(0..VERTICES));
        if let Ok(r) = engine.query_timed(&plan, vec![Value::Vertex(start)]) {
            total += r.latency;
            ok += 1;
        }
    }
    let avg_us = if ok == 0 {
        f64::NAN
    } else {
        total.as_secs_f64() * 1e6 / ok as f64
    };

    println!(
        "=== obs_baseline: {K}-hop top-10 on lj-sim({VERTICES}), 2x2 cluster, obs {} ===",
        if obs_on { "ON" } else { "OFF" }
    );
    println!("k-hop avg latency: {avg_us:9.1} us over {ok} queries");

    micro_section();

    println!(
        "JSON: {{\"obs\":{obs_on},\"khop_k\":{K},\"vertices\":{VERTICES},\
         \"trials\":{ok},\"khop_avg_us\":{avg_us:.1}}}"
    );
    engine.stop();
}

/// Raw cost of the metrics primitives: single-writer shard counter adds
/// and log-2 histogram observes, amortized over a tight loop.
#[cfg(feature = "obs")]
fn micro_section() {
    use graphdance_engine::graphdance_obs::Registry;
    const OPS: u64 = 10_000_000;
    let r = Registry::new();
    let c = r.counter("bench.counter");
    let h = r.histogram("bench.hist");
    let s = r.shard();

    let t0 = graphdance_common::time::now();
    for i in 0..OPS {
        s.add(c, i & 7);
    }
    let add_ns = t0.elapsed().as_secs_f64() * 1e9 / OPS as f64;

    let t0 = graphdance_common::time::now();
    for i in 0..OPS {
        s.observe(h, i);
    }
    let obs_ns = t0.elapsed().as_secs_f64() * 1e9 / OPS as f64;

    let snap = r.snapshot();
    println!(
        "micro: counter add {add_ns:5.2} ns/op, histogram observe {obs_ns:5.2} ns/op \
         (snapshot: {} counted, {} observed)",
        snap.scalar("bench.counter"),
        snap.hist("bench.hist").map_or(0, |h| h.count()),
    );
}

#[cfg(not(feature = "obs"))]
fn micro_section() {
    println!("micro: obs feature off — metrics primitives compiled out");
}
