//! Exhaustive small-cluster termination: every tiny topology × query
//! depth × I/O scheduler mode, swept across seeds. Fault-free runs must
//! always terminate with the oracle's exact answer — no early finish
//! (missing rows would show as a wrong answer), no watchdog or deadline
//! hang (either would show as `Flagged`), within the simulator's step
//! budget (overruns show as `Failed`).
//!
//! Seed count comes from `SIM_SEEDS` (default 50, so tier-1 stays fast);
//! the nightly CI sweep sets `SIM_SEEDS=1000`.

use graphdance::engine::IoMode;
use graphdance_sim::{check, GraphSpec, QuerySpec, Repro, SimFailure, Verdict};

/// The scheduler modes the exhaustive sweep covers: the synchronous
/// baseline and the two-tier default.
const IO_MODES: [IoMode; 2] = [IoMode::Sync, IoMode::TwoTier];

fn seeds() -> u64 {
    std::env::var("SIM_SEEDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(50)
}

#[test]
fn every_small_topology_terminates_with_the_exact_answer() {
    // The I/O-mode axis doubles the sweep; trim the per-cell seed count
    // so tier-1 wall time stays where it was before the axis existed.
    let seeds = (seeds() / 2).max(4);
    let mut runs = 0u64;
    for io in IO_MODES {
        for nodes in 1..=2u32 {
            for workers in 1..=2u32 {
                for hops in 1..=3i64 {
                    let base = Repro::clean(
                        GraphSpec::Ring { n: 8 },
                        QuerySpec::Khop { hops, start: 1 },
                        nodes,
                        workers,
                        0,
                    )
                    .with_io(io);
                    for seed in 0..seeds {
                        let repro = Repro { seed, ..base };
                        let verdict = check(&repro);
                        assert_eq!(
                            verdict,
                            Verdict::Match,
                            "{}",
                            SimFailure {
                                repro,
                                verdict: verdict.clone()
                            }
                        );
                        runs += 1;
                    }
                }
            }
        }
    }
    assert_eq!(
        runs,
        2 * 2 * 2 * 3 * seeds,
        "full io × topology × depth cross product covered"
    );
}

/// The aggregating variants hit the gather phase (per-partition partial
/// collection) on every topology; a sparser sweep keeps this cheap.
#[test]
fn aggregating_queries_terminate_on_every_topology() {
    let seeds = (seeds() / 5).max(4);
    for nodes in 1..=2u32 {
        for workers in 1..=2u32 {
            for query in [
                QuerySpec::KhopCount { hops: 2, start: 3 },
                QuerySpec::ScanCount,
            ] {
                let base = Repro::clean(GraphSpec::Ring { n: 8 }, query, nodes, workers, 0);
                for seed in 0..seeds {
                    let repro = Repro { seed, ..base };
                    let verdict = check(&repro);
                    assert_eq!(
                        verdict,
                        Verdict::Match,
                        "{}",
                        SimFailure {
                            repro,
                            verdict: verdict.clone()
                        }
                    );
                }
            }
        }
    }
}
