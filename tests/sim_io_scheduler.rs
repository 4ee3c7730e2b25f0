//! DST battery for the two-tier I/O scheduler.
//!
//! The scheduler's flush decisions (the tier-1 byte threshold, control
//! flushes, the worker-idle drain) all derive from the seeded scheduler
//! and the frozen virtual clock — so under the deterministic simulator
//! they must be *bit-identical* on replay: same seed, same flush event
//! trace, down to the virtual nanosecond. These tests pin that for the
//! tier-1-only and the two-tier mode, plus oracle agreement across
//! topologies.

use graphdance::engine::{EngineConfig, FlushEvent, FlushTrigger, IoMode, SimCluster};
use graphdance_sim::{check_detailed, GraphSpec, QuerySpec, Repro, SimFailure, Verdict};

fn seeds() -> u64 {
    std::env::var("SIM_SEEDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(30)
}

/// The modes that buffer at tier 1 (`Sync` flushes every message, so its
/// flush trace is its message trace).
const BATCHING_MODES: [IoMode; 2] = [IoMode::ThreadCombining, IoMode::TwoTier];

/// Run one k-hop query under the simulator and return the flush trace plus
/// the scheduling-trace fingerprint.
fn traced_run(seed: u64, io: IoMode) -> (Vec<FlushEvent>, u64) {
    let spec = GraphSpec::Ring { n: 24 };
    let graph = spec.build(2, 2);
    let (plan, params) = QuerySpec::Khop { hops: 4, start: 0 }.build(&graph);
    let config = EngineConfig::new(2, 2).with_seed(seed).with_io_mode(io);
    let mut sim = SimCluster::new(graph, config);
    sim.fabric().record_flushes(true);
    let rows = sim.query(&plan, params).expect("clean run");
    assert_eq!(rows.len(), 4, "4-hop neighbourhood on a ring");
    let flushes = sim.fabric().take_flush_trace();
    (flushes, sim.trace().fingerprint())
}

#[test]
fn batching_flush_schedule_is_bit_identical_on_replay() {
    for io in BATCHING_MODES {
        for seed in [0u64, 1, 7, 0x2a] {
            let (a_flushes, a_fp) = traced_run(seed, io);
            let (b_flushes, b_fp) = traced_run(seed, io);
            assert!(
                !a_flushes.is_empty(),
                "{io:?} seed {seed}: flushes were traced"
            );
            assert_eq!(
                a_flushes, b_flushes,
                "{io:?} seed {seed}: flush event traces diverged between replays"
            );
            assert_eq!(
                a_fp, b_fp,
                "{io:?} seed {seed}: scheduling fingerprints diverged"
            );
            // A buffer leaves tier 1 at the threshold, behind a control
            // message, or on an explicit drain (worker idle, query
            // lifecycle) — there is no timer.
            for e in &a_flushes {
                assert!(
                    matches!(
                        e.trigger,
                        FlushTrigger::Threshold | FlushTrigger::Control | FlushTrigger::Explicit
                    ),
                    "{io:?} seed {seed}: {e:?}"
                );
                // A control message flushes its lane at once and is never
                // sized, so only its flush may read zero buffered bytes.
                assert!(
                    e.bytes > 0 || e.trigger == FlushTrigger::Control,
                    "empty buffers are never flushed: {e:?}"
                );
            }
            // The simulator is single-threaded, so trace order is flush
            // order and the virtual timestamps must be monotonic.
            for w in a_flushes.windows(2) {
                assert!(w[0].at <= w[1].at, "flush trace timestamps ran backwards");
            }
        }
    }
}

#[test]
fn different_seeds_explore_different_schedules() {
    let (_, fp0) = traced_run(0, IoMode::TwoTier);
    let (_, fp1) = traced_run(1, IoMode::TwoTier);
    assert_ne!(fp0, fp1, "seed sweep explores distinct interleavings");
}

#[test]
fn batching_modes_match_oracle_across_topologies_and_seeds() {
    for io in BATCHING_MODES {
        for nodes in 1..=2u32 {
            for workers in 1..=2u32 {
                let base = Repro::clean(
                    GraphSpec::Ring { n: 12 },
                    QuerySpec::Khop { hops: 3, start: 1 },
                    nodes,
                    workers,
                    0,
                )
                .with_io(io);
                for seed in 0..seeds() {
                    let repro = Repro { seed, ..base };
                    let report = check_detailed(&repro);
                    assert_eq!(
                        report.verdict,
                        Verdict::Match,
                        "{}",
                        SimFailure {
                            repro,
                            verdict: report.verdict.clone()
                        }
                    );
                }
            }
        }
    }
}
