//! DST runner for the **live-migration workload** (`part=` repro key):
//! a batch of staggered queries executes while seeded single-vertex
//! migrations are injected mid-flight through the coordinator's
//! rebalance path — all on one thread, so the whole interleaving
//! (arrivals, freeze/install/commit/retire legs, faults, scheduling)
//! replays bit-identically from the repro line.
//!
//! The safety property (DESIGN.md §14): migration may *stall* under a
//! lossy network — a dropped `MigrateInstall` leaves the move frozen at
//! the source, a dropped `MigrateRetire` leaves the forwarding stub
//! armed — but every query running across the move must still match the
//! oracle or be flagged, and the cluster must still drain. The vertex
//! data is never in zero places: the source keeps its frozen segment
//! until the retire leg lands, and per-query pinned routing versions
//! guarantee each traverser finds the segment wherever its snapshot
//! says it lives. A migration that cannot complete therefore surfaces
//! as [`Verdict::Flagged`] (lossy schedules) or [`Verdict::Failed`]
//! (clean network), never as a hang or a silent wrong answer.

use rand::Rng;

use graphdance_common::{FxHashSet, GdError, PartId, VertexId};
use graphdance_engine::{EngineConfig, FaultCounts, SimCluster, SimStep};

use crate::repro::{QuerySpec, Repro};
use crate::service::severity;
use crate::{normalize, oracle_rows, with_leak_check, Verdict};

/// Scheduling quanta allowed after the last query resolves for the
/// post-run drain (retire legs, `QueryEnd`s) to reach
/// quiescence. Generous: clean drains take tens of quanta.
const DRAIN_BUDGET: u64 = 200_000;

/// Queries in the concurrent batch. Starts are shifted per index so the
/// batch fans across partitions while the migrations land.
const BATCH: usize = 4;

/// Everything observable from one migration-workload run.
#[derive(Clone, Debug)]
pub struct PartitionReport {
    /// Per-query verdicts, arrival order.
    pub outcomes: Vec<Verdict>,
    /// Normalized per-query row multisets (empty for failed queries) —
    /// placement-independent, so a Fennel run and a hash run of the
    /// same repro must produce identical entries.
    pub rows: Vec<Vec<String>>,
    /// The aggregate (worst per-query) verdict; what
    /// [`crate::check_detailed`] reports for `part=` repros.
    pub verdict: Verdict,
    /// Did the cluster reach full quiescence after the run?
    pub quiesced: bool,
    /// Migrations actually injected (moves with a real destination).
    pub injected: u64,
    /// Migrations that completed the full freeze→install→commit→retire
    /// protocol.
    pub migrations_done: u64,
    /// Migrations still stuck mid-protocol after the drain (only
    /// acceptable when the fault schedule lost a control-plane leg).
    pub migrations_pending: u64,
    /// Traversers forwarded through a per-vertex stub (routing pinned
    /// before the move committed).
    pub forwarded: u64,
    /// Order-sensitive hash of the full scheduling/fault event trace.
    pub fingerprint: u64,
    /// Trace events recorded.
    pub trace_len: u64,
    /// Injected faults that actually fired.
    pub faults_fired: FaultCounts,
    /// Scheduling quanta executed.
    pub steps: u64,
}

/// The `i`-th query of the batch: the base shape with its start vertex
/// shifted so the batch spreads across the graph.
fn batch_query(base: QuerySpec, i: u64, n: u64) -> QuerySpec {
    let shift = |s: u64| (s + i * 5) % n.max(1);
    match base {
        QuerySpec::Khop { hops, start } => QuerySpec::Khop {
            hops,
            start: shift(start),
        },
        QuerySpec::KhopCount { hops, start } => QuerySpec::KhopCount {
            hops,
            start: shift(start),
        },
        QuerySpec::ScanCount => QuerySpec::ScanCount,
    }
}

/// Run the migration workload named by `repro` (which must carry a
/// `part=` spec) and classify every query against the oracle.
pub fn check_partition_detailed(repro: &Repro) -> PartitionReport {
    let spec = repro
        .part
        .expect("check_partition_detailed needs repro.part");
    let graph = repro
        .graph
        .build_with_mode(repro.nodes, repro.workers, spec.mode);
    let n = repro.graph.num_vertices();
    let k = graph.partitioner().num_parts();

    // The migration schedule is fully derived from `mig_seed` before the
    // simulation starts, so it never depends on execution state. Each
    // vertex moves at most once (repeat moves would make the expected
    // completion count placement-dependent).
    let mut moves: Vec<(VertexId, PartId)> = Vec::new();
    if k >= 2 && n > 0 {
        let mut rng = graphdance_common::rng::seeded(spec.mig_seed);
        let mut picked = FxHashSet::default();
        while moves.len() < usize::from(spec.migrations) && (picked.len() as u64) < n {
            let v = VertexId(rng.gen_range(0..n));
            if !picked.insert(v) {
                continue;
            }
            let cur = graph.part_of(v);
            let to = PartId((cur.0 + 1 + rng.gen_range(0..k - 1)) % k);
            moves.push((v, to));
        }
    }

    let mut config = EngineConfig::new(repro.nodes, repro.workers)
        .with_seed(repro.seed)
        .with_io_mode(repro.io);
    config.fault.sim = repro.faults;
    let mut sim = SimCluster::new(graph.clone(), config);

    let shapes: Vec<QuerySpec> = (0..BATCH as u64)
        .map(|i| batch_query(repro.query, i, n))
        .collect();
    let mut handles = Vec::with_capacity(BATCH);
    handles.resize_with(BATCH, || None);
    let mut results: Vec<Option<Result<_, GdError>>> = Vec::with_capacity(BATCH);
    results.resize_with(BATCH, || None);
    let mut next_arrival = 0usize;
    let mut next_move = 0usize;
    let mut local_step = 0u64;
    let mut hung = false;
    loop {
        // Staggered arrivals: one query every 13 quanta, interleaving
        // with the migration injections below.
        while next_arrival < BATCH && (next_arrival as u64) * 13 <= local_step {
            let (plan, params) = shapes[next_arrival].build(&graph);
            handles[next_arrival] = Some(sim.submit_at(&plan, params, 1));
            next_arrival += 1;
        }
        while next_move < moves.len()
            && u64::from(spec.every) * (next_move as u64 + 1) <= local_step
        {
            sim.rebalance(vec![moves[next_move]]);
            next_move += 1;
        }
        for (h, r) in handles.iter().zip(results.iter_mut()) {
            if r.is_none() {
                if let Some(h) = h {
                    *r = h.try_result();
                }
            }
        }
        let all_injected = next_move == moves.len();
        let all_arrived = next_arrival == BATCH;
        if all_arrived && all_injected && results.iter().all(Option::is_some) {
            break;
        }
        if local_step >= 20_000_000 {
            hung = true;
            break;
        }
        // A Quiescent step with arrivals or injections still pending
        // merely advances the schedule counter; with everything
        // submitted it means a reply was lost — the unresolved queries
        // get `Failed` below.
        if sim.step() == SimStep::Quiescent && all_arrived && all_injected {
            for (h, r) in handles.iter().zip(results.iter_mut()) {
                if r.is_none() {
                    if let Some(h) = h {
                        *r = h.try_result();
                    }
                }
            }
            break;
        }
        local_step += 1;
    }

    // Post-run drain: with no queries active the retire gate is open, so
    // every committed move must finish its retire leg (unless the fault
    // schedule ate a control message) and the cluster must go quiet.
    let mut quiesced = false;
    if !hung {
        for _ in 0..DRAIN_BUDGET {
            if sim.step() == SimStep::Quiescent {
                quiesced = true;
                break;
            }
        }
    }

    let mut outcomes = Vec::with_capacity(BATCH);
    let mut rows_out: Vec<Vec<String>> = Vec::with_capacity(BATCH);
    for (i, shape) in shapes.iter().enumerate() {
        let verdict = match results[i].take() {
            Some(Ok(result)) => {
                let (plan, params) = shape.build(&graph);
                match oracle_rows(&graph, &plan, &params, 1, repro.seed) {
                    Ok(want) => {
                        let got = normalize(&result.rows);
                        let want = normalize(&want);
                        if got == want {
                            rows_out.push(got);
                            Verdict::Match
                        } else {
                            rows_out.push(Vec::new());
                            Verdict::WrongAnswer { got, want }
                        }
                    }
                    Err(e) => {
                        rows_out.push(Vec::new());
                        Verdict::Failed(e)
                    }
                }
            }
            Some(Err(e @ (GdError::InvariantViolation(_) | GdError::QueryTimeout(_)))) => {
                rows_out.push(Vec::new());
                Verdict::Flagged(e)
            }
            Some(Err(e)) => {
                rows_out.push(Vec::new());
                Verdict::Failed(e)
            }
            None => {
                rows_out.push(Vec::new());
                Verdict::Failed(GdError::Internal(format!(
                    "query {i} never resolved (cluster {})",
                    if hung { "hung" } else { "quiesced silently" },
                )))
            }
        };
        outcomes.push(verdict);
    }

    let pending = sim.pending_migrations() as u64;
    let mut verdict = outcomes
        .iter()
        .max_by_key(|v| severity(v))
        .cloned()
        .unwrap_or(Verdict::Match);
    if !quiesced && severity(&verdict) < 3 {
        verdict = Verdict::Failed(GdError::Internal(
            "migration run resolved every query but never quiesced".into(),
        ));
    } else if quiesced {
        verdict = with_leak_check(&sim, verdict);
    }
    if pending > 0 && severity(&verdict) < 2 {
        // A stuck migration is only legitimate when the network actually
        // lost something; on a clean schedule it is a protocol bug.
        verdict = if sim.fault_counts().lossy() {
            Verdict::Flagged(GdError::InvariantViolation(format!(
                "{pending} migrations stalled mid-protocol under a lossy schedule"
            )))
        } else {
            Verdict::Failed(GdError::Internal(format!(
                "{pending} migrations never completed on a clean network"
            )))
        };
    }

    PartitionReport {
        outcomes,
        rows: rows_out,
        verdict,
        quiesced,
        injected: moves.len() as u64,
        migrations_done: sim.migrations_done(),
        migrations_pending: pending,
        forwarded: sim.forwarded(),
        fingerprint: sim.trace().fingerprint(),
        trace_len: sim.trace().total(),
        faults_fired: sim.fault_counts(),
        steps: sim.steps(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::repro::{GraphSpec, PartSpec, PartitionMode};

    fn base(mode: PartitionMode) -> Repro {
        Repro::clean(
            GraphSpec::Ring { n: 16 },
            QuerySpec::Khop { hops: 3, start: 0 },
            2,
            2,
            3,
        )
        .with_part(PartSpec {
            mode,
            mig_seed: 0x11,
            migrations: 3,
            every: 10,
        })
    }

    #[test]
    fn clean_migration_run_matches_and_completes() {
        for mode in [PartitionMode::Hash, PartitionMode::Fennel] {
            let report = check_partition_detailed(&base(mode));
            assert_eq!(report.verdict, Verdict::Match, "{mode}: {report:?}");
            assert!(report.quiesced, "{mode}: {report:?}");
            assert_eq!(report.injected, 3, "{mode}: {report:?}");
            assert_eq!(report.migrations_done, 3, "{mode}: {report:?}");
            assert_eq!(report.migrations_pending, 0, "{mode}: {report:?}");
        }
    }

    #[test]
    fn migration_runs_replay_bit_identically() {
        let a = check_partition_detailed(&base(PartitionMode::Fennel));
        let b = check_partition_detailed(&base(PartitionMode::Fennel));
        assert_eq!(a.verdict, b.verdict);
        assert_eq!(a.fingerprint, b.fingerprint, "same line, same schedule");
        assert_eq!(a.trace_len, b.trace_len);
        assert_eq!(a.steps, b.steps);
    }

    #[test]
    fn placement_mode_does_not_change_answers() {
        let h = check_partition_detailed(&base(PartitionMode::Hash));
        let f = check_partition_detailed(&base(PartitionMode::Fennel));
        assert_eq!(h.rows, f.rows, "row multisets are placement-independent");
    }

    #[test]
    fn single_partition_topology_degenerates_gracefully() {
        let mut r = base(PartitionMode::Hash);
        r.nodes = 1;
        r.workers = 1;
        let report = check_partition_detailed(&r);
        assert_eq!(report.verdict, Verdict::Match, "{report:?}");
        assert_eq!(report.injected, 0, "one partition, nowhere to move");
    }
}
