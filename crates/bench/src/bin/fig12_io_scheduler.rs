//! Fig. 12 — the two-tiered I/O scheduler ablation, plus the batch-size
//! sweep.
//!
//! Part 1 (the paper's ablation): `Sync` (every message is its own wire
//! packet), `+TLC` (thread-level combining only), `+TLC+NLC` (full
//! two-tier scheduler). Expected shape: TLC is the dominant win, largest
//! on the biggest queries (the paper reports 15.9× on Friendster 4-hop).
//!
//! Part 2 (the paper's batch-size axis): the two-tier scheduler at static
//! tier-1 flush thresholds of 2 KB / 8 KB / 32 KB. This host moves between
//! speed regimes for minutes at a time, and measuring each threshold once
//! in a fixed order handed a 2× "win" to whichever ran during the fast
//! regime — so the thresholds are measured round-robin and each one's
//! median over the rounds is reported. Nothing is recorded or gated.

use std::time::Duration;

use graphdance_baselines::QueryEngine;
use graphdance_bench::*;
use graphdance_common::rng::seeded;
use graphdance_common::{Value, VertexId};
use graphdance_engine::{EngineConfig, GraphDance, IoMode};
use rand::Rng;

/// One measured window of part 2.
struct IoRun {
    p50: Duration,
    p99: Duration,
    msgs_per_sec: f64,
    bytes_per_traverser: f64,
}

/// Per-trial k-hop latencies (the avg-only helper in the lib hides the
/// tail, and part 2 reports p50/p99).
fn run_khop_lats(
    engine: &GraphDance,
    plan: &graphdance_query::plan::Plan,
    num_vertices: u64,
    warmup: usize,
    trials: usize,
    seed: u64,
) -> Vec<Duration> {
    let mut rng = seeded(seed);
    let mut lats = Vec::with_capacity(trials);
    for i in 0..warmup + trials {
        let start = VertexId(rng.gen_range(0..num_vertices));
        match engine.query_timed(plan, vec![Value::Vertex(start)]) {
            Ok(r) => {
                if i >= warmup {
                    lats.push(r.latency);
                }
            }
            Err(e) => eprintln!("  [warn] {}: {e}", engine.name()),
        }
    }
    lats
}

fn percentile(sorted: &[Duration], p: f64) -> Duration {
    if sorted.is_empty() {
        return Duration::MAX;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

/// The median of `xs` (upper middle for an even count).
fn median<T: PartialOrd + Copy>(mut xs: Vec<T>) -> T {
    xs.sort_by(|a, b| a.partial_cmp(b).expect("no NaN among measurements"));
    xs[xs.len() / 2]
}

fn measure(
    data: &graphdance_datagen::KhopDataset,
    hops: i64,
    flush_threshold: usize,
    warmup: usize,
    trials: usize,
) -> IoRun {
    let (nodes, wpn) = (2u32, 4u32);
    let n = data.params().vertices;
    let g = build_khop_graph(data, nodes, wpn);
    let plan = khop_topk_plan(&g, hops);
    let mut cfg = EngineConfig::new(nodes, wpn); // the two-tier default
    cfg.flush_threshold = flush_threshold;
    let engine = GraphDance::start(g, cfg);
    let before = engine.net_stats();
    let wall = graphdance_common::time::now();
    let mut lats = run_khop_lats(&engine, &plan, n, warmup, trials, 42);
    let elapsed = wall.elapsed();
    let net = engine.net_stats().since(&before);
    engine.shutdown();
    lats.sort_unstable();
    let logical = net.traverser_msgs + net.progress_msgs + net.rows_msgs + net.control_msgs;
    IoRun {
        p50: percentile(&lats, 0.50),
        p99: percentile(&lats, 0.99),
        msgs_per_sec: logical as f64 / elapsed.as_secs_f64().max(1e-9),
        bytes_per_traverser: net.wire_bytes as f64 / (net.traverser_msgs as f64).max(1.0),
    }
}

fn main() {
    let quick = quick_mode();
    let trials = if quick { 2 } else { 5 };
    let hops: &[i64] = if quick { &[2, 3] } else { &[2, 3, 4] };
    let datasets = if quick {
        vec![("lj-sim", lj_dataset(true))]
    } else {
        vec![("lj-sim", lj_dataset(false)), ("fs-sim", fs_dataset(false))]
    };
    let (nodes, wpn) = (2u32, 4u32);

    println!("=== Fig. 12: two-tier I/O scheduler, {nodes} nodes x {wpn} workers ===");
    header(&[
        "dataset ",
        "hops",
        "Sync (ms)",
        "+TLC (ms)",
        "+TLC+NLC (ms)",
        "TLC speedup",
        "wire pkts S/T/N",
    ]);
    for (dname, data) in &datasets {
        let n = data.params().vertices;
        for &k in hops {
            let mut lat = Vec::new();
            let mut pkts = Vec::new();
            for mode in [IoMode::Sync, IoMode::ThreadCombining, IoMode::TwoTier] {
                let g = build_khop_graph(data, nodes, wpn);
                let plan = khop_topk_plan(&g, k);
                let cfg = EngineConfig::new(nodes, wpn).with_io_mode(mode);
                let engine = GraphDance::start(g, cfg);
                let before = engine.net_stats();
                lat.push(run_khop_avg(&engine, &plan, n, trials, 42));
                pkts.push(engine.net_stats().since(&before).wire_packets);
                engine.shutdown();
            }
            let speedup = lat[0].as_secs_f64() / lat[1].as_secs_f64().max(1e-9);
            println!(
                "{:8} | {:4} | {} | {} | {}      | {:6.2}x | {}/{}/{}",
                dname,
                k,
                ms(lat[0]),
                ms(lat[1]),
                ms(lat[2]),
                speedup,
                pkts[0],
                pkts[1],
                pkts[2]
            );
        }
    }

    // Part 2: static flush thresholds on the canonical khop macro point
    // (lj-sim, 3-hop), round-robin so a speed regime of the host falls on
    // every threshold alike.
    const ROUNDS: usize = 3;
    let thresholds = [
        ("static-2k", 2 * 1024),
        ("static-8k", 8 * 1024),
        ("static-32k", 32 * 1024),
    ];
    let (warmup, b_trials) = if quick { (2, 6) } else { (10, 40) };
    let data = &datasets[0].1;
    let k = 3;
    let mut runs: Vec<Vec<IoRun>> = thresholds.iter().map(|_| Vec::new()).collect();
    for _ in 0..ROUNDS {
        for (of_threshold, &(_, bytes)) in runs.iter_mut().zip(&thresholds) {
            of_threshold.push(measure(data, k, bytes, warmup, b_trials));
        }
    }
    println!(
        "\n=== Fig. 12b: static flush thresholds (lj-sim, {k}-hop, \
         {ROUNDS} rounds round-robin, median over rounds) ==="
    );
    header(&[
        "config      ",
        "p50 (ms)",
        "p99 (ms)",
        "msgs/s  ",
        "B/traverser",
        "p50 per round (ms)",
    ]);
    for ((label, _), rounds) in thresholds.iter().zip(&runs) {
        let per_round: Vec<String> = rounds
            .iter()
            .map(|r| ms(r.p50).trim().to_string())
            .collect();
        println!(
            "{:12} | {} | {} | {:8.0} | {:11.1} | {}",
            label,
            ms(median(rounds.iter().map(|r| r.p50).collect())),
            ms(median(rounds.iter().map(|r| r.p99).collect())),
            median(rounds.iter().map(|r| r.msgs_per_sec).collect()),
            median(rounds.iter().map(|r| r.bytes_per_traverser).collect()),
            per_round.join(" / "),
        );
    }
    println!("\n(Paper: TLC dominates — up to 15.9x on fs 4-hop; NLC is a minor extra win on large queries.)");
}
