//! Partitioning A/B — hash vs Fennel initial placement on the Fig. 9
//! 3-hop top-k workload, over a community-structured lj-sim graph
//! (`KhopParams::with_locality`).
//!
//! Hash placement scatters each community across every partition, so
//! most traversal hops go to another worker; the streaming Fennel
//! partitioner (`graphdance_storage::partition_stream`) co-locates
//! communities and keeps those hops on the worker that owns both ends.
//! "cross-partition" is `NetStats::traverser_msgs`: every traverser sent
//! to another worker, on the same node or not.
//!
//! Prints a table. The ≥ 40 % floor on cross-partition traversers is the
//! live test `fennel_sends_at_most_six_tenths_of_hash_cross_partition_traversers`
//! in `tests/sim_partition.rs`, on the simulated cluster, where the counts
//! are fixed by the seed.

use std::time::Duration;

use graphdance_bench::*;
use graphdance_common::rng::seeded;
use graphdance_common::{Partitioner, Value, VertexId};
use graphdance_datagen::{KhopDataset, KhopParams};
use graphdance_engine::{EngineConfig, GraphDance};
use graphdance_storage::PartitionMode;

use rand::Rng;

fn pct(sorted: &[Duration], p: f64) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p / 100.0).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

struct Arm {
    cross_partition: u64,
    wire_bytes: u64,
    local_msgs: u64,
    p50: Duration,
    p99: Duration,
}

fn run_arm(data: &KhopDataset, mode: PartitionMode, nodes: u32, wpn: u32, trials: usize) -> Arm {
    let g = data
        .build_with_mode(Partitioner::new(nodes, wpn), mode)
        .expect("dataset builds");
    let plan = khop_topk_plan(&g, 3);
    let engine = GraphDance::start(g, EngineConfig::new(nodes, wpn));
    let before = engine.net_stats();
    let n = data.params().vertices;
    let mut rng = seeded(42);
    let mut lat = Vec::with_capacity(trials);
    for _ in 0..trials {
        let start = VertexId(rng.gen_range(0..n));
        match engine.query_timed(&plan, vec![Value::Vertex(start)]) {
            Ok(r) => lat.push(r.latency),
            Err(e) => eprintln!("  [warn] {mode}: {e}"),
        }
    }
    let d = engine.net_stats().since(&before);
    engine.shutdown();
    lat.sort_unstable();
    Arm {
        cross_partition: d.traverser_msgs,
        wire_bytes: d.wire_bytes,
        local_msgs: d.same_node_msgs,
        p50: pct(&lat, 50.0),
        p99: pct(&lat, 99.0),
    }
}

fn main() {
    let quick = quick_mode();
    let n = if quick {
        LJ_VERTICES_QUICK
    } else {
        LJ_VERTICES
    };
    let trials = if quick { 40 } else { 100 };
    let (nodes, wpn) = (2u32, 2u32);
    let data = KhopDataset::generate(KhopParams::lj_sim(n).with_locality(0.85, 64));

    println!(
        "=== Partitioning A/B: 3-hop top-k, {nodes} nodes x {wpn} workers, \
         lj-sim n={n} locality=0.85 community=64, {trials} queries ==="
    );
    header(&[
        "mode  ",
        "cross-partition",
        "wire KB",
        "local msgs",
        "p50     ",
        "p99     ",
    ]);
    // Message counters are deterministic across repeats; latency tails are
    // not (thread scheduling). Best-of-3 per arm de-noises p50/p99.
    let best_of = |mode| {
        (0..3)
            .map(|_| run_arm(&data, mode, nodes, wpn, trials))
            .min_by_key(|a: &Arm| a.p99)
            .expect("three runs")
    };
    let hash = best_of(PartitionMode::Hash);
    let fennel = best_of(PartitionMode::Fennel);
    for (name, a) in [("hash", &hash), ("fennel", &fennel)] {
        println!(
            "{:6} | {:15} | {:7} | {:10} | {:8} | {:8}",
            name,
            a.cross_partition,
            a.wire_bytes / 1024,
            a.local_msgs,
            ms(a.p50),
            ms(a.p99),
        );
    }
    let reduction =
        100.0 * (1.0 - fennel.cross_partition as f64 / hash.cross_partition.max(1) as f64);
    println!("\ncross-partition traverser messages: {reduction:.1}% fewer with fennel");
}
