//! Sim/TCP parity: the same repro line answered by the deterministic
//! in-process simulation (`SimCluster`, channel transport) and by a real
//! multi-process cluster over loopback sockets (`graphdance-node`
//! children wired by `graphdance::proc::ProcessCluster`) must produce
//! **identical row multisets**.
//!
//! This is the seam-integrity test for the transport extraction: the
//! engine above `Transport` is byte-identical code in both runs, so any
//! divergence is a transport bug (loss, reorder within a lane, corrupt
//! framing), not a semantics question. Rows are compared as sorted
//! `format!("{row:?}")` strings — the same normalization
//! `graphdance_sim::check_detailed` uses — because arrival order is
//! schedule-dependent on a real network.
//!
//! The sim side is additionally run twice and its scheduling-trace
//! fingerprint compared, pinning that the transport seam left the
//! channel backend bit-identical (the committed `sim-repro/*.repro`
//! corpus replays are the broader version of the same guarantee).

use graphdance::common::GdError;
use graphdance::engine::{EngineConfig, SimCluster};
use graphdance::proc::{ProcessCluster, SocketFamily};
use graphdance::sim::Repro;

const BIN: &str = env!("CARGO_BIN_EXE_graphdance-node");

/// Run `repro` on the in-process simulated cluster; return the sorted
/// row-debug multiset and the scheduling-trace fingerprint.
fn sim_rows(repro: &Repro) -> (Vec<String>, u64) {
    let graph = repro.graph.build(repro.nodes, repro.workers);
    let config = EngineConfig::new(repro.nodes, repro.workers)
        .with_seed(repro.seed)
        .with_io_mode(repro.io);
    let mut sim = SimCluster::new(graph.clone(), config);
    let (plan, params) = repro.query.build(&graph);
    let rows = sim.query(&plan, params).expect("sim run succeeds");
    let mut out: Vec<String> = rows.iter().map(|r| format!("{r:?}")).collect();
    out.sort();
    (out, sim.trace().fingerprint())
}

/// Run `repro_line` on a real N-process cluster; return the sorted
/// row-debug multiset.
fn process_rows(repro_line: &str, family: SocketFamily) -> Vec<String> {
    let mut cluster =
        ProcessCluster::launch_with_family(BIN, repro_line, family).expect("cluster launches");
    let mut rows = cluster.run().expect("query over real sockets succeeds");
    rows.sort();
    cluster
        .shutdown()
        .expect("graceful drain-before-close shutdown");
    rows
}

/// The fig. 9 shape: k-hop neighbourhood on a ring, 2 nodes × 2 workers —
/// two OS processes, one real TCP stream each way.
#[test]
fn fig9_khop_parity_sim_vs_two_process_tcp() {
    let line = "graph=ring:32 query=khop:4:0 nodes=2 workers=2 io=twotier seed=0x2a";
    let repro = Repro::parse(line).expect("valid repro line");

    let (sim_a, fp_a) = sim_rows(&repro);
    let (sim_b, fp_b) = sim_rows(&repro);
    assert_eq!(sim_a, sim_b, "sim replay must be deterministic");
    assert_eq!(fp_a, fp_b, "sim scheduling fingerprint must be stable");
    // Ring k-hop from 0 is computable by hand: exactly hops 1..=4.
    assert_eq!(sim_a.len(), 4, "ring khop:4 visits 4 distinct vertices");

    let tcp = process_rows(line, SocketFamily::Tcp);
    assert_eq!(sim_a, tcp, "row multiset: sim vs 2-process TCP cluster");
}

/// A fig. 7-style mixed point: two different query shapes on a random
/// G(n,m) graph, each checked for parity — the path-counting shape on a
/// 3-process TCP cluster (6 directed streams), the all-partitions scan on
/// a 2-process Unix-domain-socket cluster.
#[test]
fn fig7_style_mixed_point_parity_across_families() {
    let khopcount = "graph=gnm:48:160:7 query=khopcount:3:5 nodes=3 workers=2 io=twotier seed=0x11";
    let scancount =
        "graph=gnm:48:160:7 query=scancount nodes=2 workers=2 io=threadcombining seed=0x12";

    // A repro line is outside input: the removed `io=adaptive` spelling this
    // point was first recorded under is refused before any process starts.
    match ProcessCluster::launch(BIN, &khopcount.replace("io=twotier", "io=adaptive")) {
        Err(GdError::InvalidProgram(why)) => assert!(why.contains("twotier"), "{why}"),
        Err(other) => panic!("expected InvalidProgram, got {other}"),
        Ok(_) => panic!("io=adaptive launched a cluster"),
    }

    let (sim_kc, _) = sim_rows(&Repro::parse(khopcount).expect("valid repro line"));
    assert_eq!(
        sim_kc,
        process_rows(khopcount, SocketFamily::Tcp),
        "khopcount: sim vs 3-process TCP cluster"
    );

    let (sim_sc, _) = sim_rows(&Repro::parse(scancount).expect("valid repro line"));
    assert_eq!(
        sim_sc,
        process_rows(scancount, SocketFamily::Unix),
        "scancount: sim vs 2-process Unix-socket cluster"
    );
}

/// Repeated `RUN` on one live cluster: the runtime serves queries
/// back-to-back and every execution returns the same multiset.
#[test]
fn repeated_queries_on_one_process_cluster_agree() {
    let line = "graph=ring:24 query=khop:3:7 nodes=2 workers=1 io=sync seed=0x3";
    let (sim, _) = sim_rows(&Repro::parse(line).expect("valid repro line"));

    let mut cluster = ProcessCluster::launch(BIN, line).expect("cluster launches");
    for round in 0..3 {
        let mut rows = cluster.run().expect("repeat query succeeds");
        rows.sort();
        assert_eq!(sim, rows, "round {round}: multiset drifted");
    }
    cluster.shutdown().expect("graceful shutdown");
}
