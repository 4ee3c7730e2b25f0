//! Partitioning A/B — hash vs Fennel initial placement on the Fig. 9
//! 3-hop top-k workload, over a community-structured lj-sim graph
//! (`KhopParams::with_locality`).
//!
//! Hash placement scatters each community across every partition, so
//! most traversal hops cross a node boundary; the streaming Fennel
//! partitioner (`graphdance_storage::partition_stream`) co-locates
//! communities and converts that wire traffic into same-node handoffs.
//! The measured claim: ≥40% fewer cross-node traverser messages with
//! p50/p99 latency within tolerance of the hash baseline.
//!
//! Prints a table plus one `JSON:` line; `--record` writes it to
//! `BENCH_partitioning.json` at the repo root, which the
//! `graphdance-bench` gate `recorded_partitioning_within_budget`
//! gates against the floors below.

use std::time::Duration;

use graphdance_bench::*;
use graphdance_common::rng::seeded;
use graphdance_common::{Partitioner, Value, VertexId};
use graphdance_datagen::{KhopDataset, KhopParams};
use graphdance_engine::{EngineConfig, GraphDance};
use graphdance_storage::PartitionMode;

use rand::Rng;

/// Recorded floor: Fennel must cut cross-node traverser messages by at
/// least this much on the community-structured workload.
const REDUCTION_FLOOR_PCT: f64 = 40.0;
/// Recorded tolerance: Fennel p50/p99 may exceed hash by at most this.
const LATENCY_TOLERANCE_PCT: f64 = 25.0;

fn pct(sorted: &[Duration], p: f64) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p / 100.0).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

struct Arm {
    cross_msgs: u64,
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
        cross_msgs: d.traverser_msgs,
        wire_bytes: d.wire_bytes,
        local_msgs: d.same_node_msgs,
        p50: pct(&lat, 50.0),
        p99: pct(&lat, 99.0),
    }
}

fn main() {
    let quick = quick_mode();
    let record = std::env::args().any(|a| a == "--record");
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
        "cross-node msgs",
        "wire KB",
        "local msgs",
        "p50     ",
        "p99     ",
    ]);
    // Message counters are deterministic across repeats; latency tails are
    // not (thread scheduling). Best-of-3 per arm de-noises p50/p99 the
    // same way the hotpath bench does.
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
            a.cross_msgs,
            a.wire_bytes / 1024,
            a.local_msgs,
            ms(a.p50),
            ms(a.p99),
        );
    }
    let reduction = 100.0 * (1.0 - fennel.cross_msgs as f64 / hash.cross_msgs.max(1) as f64);
    println!(
        "\ncross-node traverser messages: {reduction:.1}% fewer with fennel \
         (recorded floor {REDUCTION_FLOOR_PCT}%)"
    );

    let json = format!(
        "{{\n  \"bench\": \"partitioning_ab\",\n  \"workload\": \"{}\",\n  \
         \"method\": \"cargo run --release -p graphdance-bench --bin partitioning_ab -- --record; \
         same dataset materialized twice (PartitionMode::Hash vs PartitionMode::Fennel via \
         KhopDataset::build_with_mode), same engine config and query seeds; cross-node = \
         NetStats traverser_msgs delta over the query batch\",\n  \
         \"hash_cross_node_msgs\": {},\n  \
         \"fennel_cross_node_msgs\": {},\n  \
         \"reduction_pct\": {reduction:.1},\n  \
         \"reduction_floor_pct\": {REDUCTION_FLOOR_PCT:.1},\n  \
         \"hash_wire_kb\": {},\n  \
         \"fennel_wire_kb\": {},\n  \
         \"hash_p50_ms\": {:.3},\n  \
         \"fennel_p50_ms\": {:.3},\n  \
         \"hash_p99_ms\": {:.3},\n  \
         \"fennel_p99_ms\": {:.3},\n  \
         \"latency_tolerance_pct\": {LATENCY_TOLERANCE_PCT:.1}\n}}",
        if quick {
            "quick lane: lj-sim(4000) locality 0.85/64, 3-hop top-10, 2 nodes x 2 workers"
        } else {
            "full lane: lj-sim(40000) locality 0.85/64, 3-hop top-10, 2 nodes x 2 workers"
        },
        hash.cross_msgs,
        fennel.cross_msgs,
        hash.wire_bytes / 1024,
        fennel.wire_bytes / 1024,
        hash.p50.as_secs_f64() * 1e3,
        fennel.p50.as_secs_f64() * 1e3,
        hash.p99.as_secs_f64() * 1e3,
        fennel.p99.as_secs_f64() * 1e3,
    );
    println!("\nJSON: {}", json.replace('\n', " "));
    if record {
        std::fs::write("BENCH_partitioning.json", format!("{json}\n"))
            .expect("write BENCH_partitioning.json");
        println!("recorded to BENCH_partitioning.json");
    }
}
