//! Migration-safety DST (`part=` repros): live single-vertex migrations
//! interleaved with a concurrent query batch, under clean and lossy
//! fault schedules.
//!
//! The safety property for live migration: a lossy network may *stall*
//! a move mid-protocol (a dropped `MigrateInstall` leaves the segment
//! frozen at the source, a dropped `MigrateRetire` leaves the
//! forwarding stub armed) — that surfaces as a flagged run — but the
//! queries racing the move must still match the oracle or be flagged,
//! the cluster must still drain, and the whole interleaving must replay
//! bit-identically from the repro line. On a clean network every
//! injected migration must complete the full
//! freeze→install→commit→retire protocol.
//!
//! And what Fennel placement is for: fewer traversers crossing partitions
//! on a community-structured graph than hash placement sends.

use graphdance::common::rng::seeded;
use graphdance::common::{Partitioner, Value};
use graphdance::datagen::{KhopDataset, KhopParams};
use graphdance::engine::{EngineConfig, SimCluster};
use graphdance::query::expr::Expr;
use graphdance::query::plan::{Order, Plan};
use graphdance::query::QueryBuilder;
use graphdance::storage::Graph;
use graphdance_sim::{
    adjacency, balance_ok, check_partition_detailed, partition_stream, FennelConfig, GraphSpec,
    PartSpec, PartitionMode, QuerySpec, Repro, SimFailure, Verdict, VertexId,
};
use rand::Rng;

fn seeds() -> u64 {
    std::env::var("SIM_SEEDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(40)
}

fn base(mode: PartitionMode, migrations: u16, every: u16) -> Repro {
    Repro::clean(
        GraphSpec::Ring { n: 20 },
        QuerySpec::Khop { hops: 3, start: 0 },
        2,
        2,
        0,
    )
    .with_part(PartSpec {
        mode,
        mig_seed: 0x9e37,
        migrations,
        every,
    })
}

/// Fault-free migrations racing a query batch: every query matches the
/// oracle mid-migration, every injected move completes the full
/// protocol, and the cluster drains.
#[test]
fn clean_migrations_complete_and_match_across_seeds() {
    for mode in [PartitionMode::Hash, PartitionMode::Fennel] {
        let mut total_done = 0u64;
        for seed in 0..seeds() {
            let repro = Repro {
                seed,
                ..base(mode, 4, 12)
            };
            let report = check_partition_detailed(&repro);
            if report.verdict != Verdict::Match {
                panic!(
                    "{}",
                    SimFailure {
                        repro,
                        verdict: report.verdict
                    }
                );
            }
            assert!(report.quiesced, "seed {seed} ({mode}) leaked: {report:?}");
            assert_eq!(
                report.migrations_done, report.injected,
                "seed {seed} ({mode}): clean network must complete every move: {report:?}"
            );
            assert_eq!(report.migrations_pending, 0, "seed {seed} ({mode})");
            total_done += report.migrations_done;
        }
        assert!(total_done > 0, "{mode}: no migration ever ran");
    }
}

/// Migrations under drop/dup faults: a lost control-plane leg may stall
/// a move (flagged) or cost a query its answer (flagged), but never a
/// hang, a leak, or a silent wrong answer.
#[test]
fn migration_under_lossy_faults_never_corrupts() {
    let mut lossy_runs = 0u64;
    let mut stalled = 0u64;
    for seed in 0..seeds() {
        let mut repro = Repro {
            seed,
            ..base(PartitionMode::Fennel, 4, 8)
        };
        repro.faults.drop_permille = 60;
        repro.faults.dup_permille = 60;
        repro.faults.reorder_permille = 200;
        let report = check_partition_detailed(&repro);
        if report.faults_fired.lossy() {
            lossy_runs += 1;
        }
        stalled += report.migrations_pending;
        if !report.verdict.acceptable() {
            panic!(
                "{}",
                SimFailure {
                    repro,
                    verdict: report.verdict
                }
            );
        }
    }
    assert!(lossy_runs > 0, "the fault schedule never fired");
    // Not asserted > 0: dropped *query* batches can flag a run before a
    // migration leg is ever lost. `stalled` is tracked so a sweep where
    // migrations do stall exercises the Flagged path above.
    let _ = stalled;
}

/// Benign perturbations (reorder, delay spikes, worker stalls) deliver
/// every control-plane leg eventually: answers and the migration
/// protocol must both ride them out.
#[test]
fn migration_under_benign_faults_still_completes() {
    for seed in 0..seeds() {
        let mut repro = Repro {
            seed,
            ..base(PartitionMode::Fennel, 3, 10)
        };
        repro.faults.reorder_permille = 300;
        repro.faults.delay_permille = 200;
        repro.faults.delay_spike = std::time::Duration::from_micros(400);
        repro.faults.stall_permille = 100;
        repro.faults.stall = std::time::Duration::from_micros(800);
        let report = check_partition_detailed(&repro);
        if !report.verdict.acceptable() {
            panic!(
                "{}",
                SimFailure {
                    repro,
                    verdict: report.verdict
                }
            );
        }
        assert!(report.quiesced, "seed {seed} leaked: {report:?}");
        if report.verdict == Verdict::Match {
            assert_eq!(
                report.migrations_done, report.injected,
                "seed {seed}: nothing was lost, every move must land: {report:?}"
            );
        }
    }
}

/// The whole migration interleaving — arrivals, freeze/install/commit/
/// retire legs, faults, drain — replays bit-identically from the line.
#[test]
fn migration_schedules_replay_bit_identically() {
    for seed in 0..seeds().min(10) {
        let mut repro = Repro {
            seed,
            ..base(PartitionMode::Fennel, 4, 8)
        };
        repro.faults.drop_permille = 40;
        repro.faults.reorder_permille = 150;
        let line = repro.to_line();
        let reparsed = Repro::parse(&line).expect("partition repro line parses");
        assert_eq!(reparsed, repro, "line was: {line}");
        let a = check_partition_detailed(&repro);
        let b = check_partition_detailed(&reparsed);
        assert_eq!(a.verdict, b.verdict, "replay of {line}");
        assert_eq!(a.fingerprint, b.fingerprint, "replay of {line}");
        assert_eq!(a.trace_len, b.trace_len, "replay of {line}");
        assert_eq!(a.steps, b.steps, "replay of {line}");
        assert_eq!(a.migrations_done, b.migrations_done, "replay of {line}");
    }
}

/// 256 fixed seeds: a Fennel-placed run with live migrations yields
/// exactly the row multisets of the static hash-partitioned run —
/// placement and migration are invisible to query semantics.
#[test]
fn fennel_migrated_rows_equal_hash_rows_across_256_seeds() {
    for seed in 0..256u64 {
        let migrated = Repro {
            seed,
            ..base(PartitionMode::Fennel, 3, 9)
        };
        let static_hash = Repro {
            seed,
            ..base(PartitionMode::Hash, 0, 9)
        };
        let m = check_partition_detailed(&migrated);
        let h = check_partition_detailed(&static_hash);
        assert_eq!(m.verdict, Verdict::Match, "seed {seed}: {m:?}");
        assert_eq!(h.verdict, Verdict::Match, "seed {seed}: {h:?}");
        assert_eq!(
            m.rows, h.rows,
            "seed {seed}: migration or placement changed an answer"
        );
    }
}

/// The Fig. 1 k-hop query: everything within `k` hops of `$0`, top 10 by
/// vertex weight (ties by id).
fn khop_topk_plan(graph: &Graph, k: i64) -> Plan {
    let w = graph.schema().prop("weight").unwrap();
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
    b.compile().unwrap()
}

/// The same seeded batch of ten 3-hop top-10 queries on a 2 × 2 cluster
/// over lj-sim(4000) with communities (locality 0.85, size 64): under
/// Fennel placement at most 0.6× the traversers cross to another worker
/// that cross under hash placement — the ≥ 40 % floor. A simulated run's
/// counts are fixed by its seed, so the comparison needs no timing.
#[test]
fn fennel_sends_at_most_six_tenths_of_hash_cross_partition_traversers() {
    let n = 4_000;
    let data = KhopDataset::generate(KhopParams::lj_sim(n).with_locality(0.85, 64));
    let mut rng = seeded(42);
    let starts: Vec<u64> = (0..10).map(|_| rng.gen_range(0..n)).collect();
    let cross_partition = |mode| {
        let g = data.build_with_mode(Partitioner::new(2, 2), mode).unwrap();
        let plan = khop_topk_plan(&g, 3);
        let mut sim = SimCluster::new(g, EngineConfig::new(2, 2));
        for &start in &starts {
            let rows = sim.query(&plan, vec![Value::Vertex(VertexId(start))]);
            assert!(!rows.unwrap().is_empty(), "{mode}: 3-hop from {start}");
        }
        sim.fabric().stats().snapshot().traverser_msgs
    };
    let hash = cross_partition(PartitionMode::Hash);
    let fennel = cross_partition(PartitionMode::Fennel);
    assert!(hash > 0, "hash placement sent nothing across partitions");
    assert!(
        fennel as f64 <= 0.6 * hash as f64,
        "fennel sends {fennel} cross-partition traversers against hash's \
         {hash}, over the 0.6x floor — look at partition_stream and the \
         workload's community locality"
    );
}

/// Deterministic Fisher–Yates over a splitmix64 stream (no RNG-crate
/// feature dependence; the exact orders are pinned by `seed` forever).
fn shuffled(n: u64, seed: u64) -> Vec<VertexId> {
    let mut state = seed.wrapping_add(0x9e3779b97f4a7c15);
    let mut next = move || {
        state = state.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    };
    let mut order: Vec<VertexId> = (0..n).map(VertexId).collect();
    for i in (1..order.len()).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

/// 256 fixed seeds: the Fennel balance invariant
/// `max ≤ max((1 + slack)·min, min + 1)` holds for every streaming
/// insert order, not just id order.
#[test]
fn fennel_balance_holds_across_256_insert_orders() {
    let n = 60u64;
    let edges: Vec<(VertexId, VertexId)> = (0..n)
        .map(|i| (VertexId(i), VertexId((i + 1) % n)))
        .collect();
    let adj = adjacency(&edges);
    let cfg = FennelConfig::default();
    for seed in 0..256u64 {
        let order = shuffled(n, seed);
        let assign = partition_stream(4, &order, &adj, &cfg);
        assert_eq!(assign.len(), n as usize, "seed {seed}: vertices dropped");
        assert!(
            balance_ok(&assign, 4, cfg.slack),
            "seed {seed}: balance invariant violated"
        );
    }
}
