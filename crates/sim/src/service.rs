//! DST runner for the multi-query **service workload** (`svc=` repro
//! key): seeded open-loop arrivals across the three priority classes,
//! per-class deadlines on the virtual clock, and a mid-flight
//! cancellation schedule — all driven through [`SimCluster`] on one
//! thread, so the whole interleaving (arrivals, cancels, faults,
//! scheduling) replays bit-identically from the repro line.
//!
//! Class shapes mirror the service's Table-I mix: the base `query=` key
//! names the *interactive* shape; heavy is a fixed deeper
//! `khopcount`, background is a full-partition `scancount`. Per-query
//! verdicts reuse the [`Verdict`] taxonomy with one extension: a query
//! named by the cancel mask may resolve as `QueryCancelled` (counted,
//! not flagged), and the engine-side drain must leave the cluster fully
//! quiescent afterwards — a run that cannot quiesce within the step
//! budget is a leak (stranded weight or undrained messages) and fails
//! hard, mirroring the WeightLedger/MsgLedger conservation argument in
//! DESIGN.md §13.

use std::time::Duration;

use rand::Rng;

use graphdance_common::time::now;
use graphdance_common::GdError;
use graphdance_engine::{EngineConfig, FaultCounts, SimCluster, SimStep};

use crate::repro::{QuerySpec, Repro, SvcSpec};
use crate::{normalize, oracle_rows, with_leak_check, Verdict};

/// Scheduling quanta allowed after the last query resolves for the
/// post-cancel drain (`QueryEnd` broadcasts, refund deliveries) to reach
/// quiescence. Generous: clean drains take tens of quanta.
const DRAIN_BUDGET: u64 = 200_000;

/// Per-class virtual-clock deadlines (interactive, heavy, background) —
/// the same ordering the service's `ServiceConfig::default` uses, scaled
/// for simulated time.
const CLASS_DEADLINE: [Duration; 3] = [
    Duration::from_secs(2),
    Duration::from_secs(15),
    Duration::from_secs(60),
];

/// The class names, `CLASS_DEADLINE` order (for failure messages).
const CLASS_NAME: [&str; 3] = ["interactive", "heavy", "background"];

/// How one query of the service workload ended.
#[derive(Clone, Debug)]
pub struct QueryOutcome {
    /// Class index (0 interactive, 1 heavy, 2 background).
    pub class: u8,
    /// Was this query named by the cancel mask?
    pub cancel_requested: bool,
    /// Did it actually resolve as `QueryCancelled`?
    pub cancelled: bool,
    pub verdict: Verdict,
}

/// Everything observable from one service-workload run.
#[derive(Clone, Debug)]
pub struct ServiceReport {
    /// Per-query outcomes, arrival order.
    pub outcomes: Vec<QueryOutcome>,
    /// The aggregate (worst per-query) verdict; what
    /// [`crate::check_detailed`] reports for `svc=` repros.
    pub verdict: Verdict,
    /// Did the cluster reach full quiescence after every query resolved?
    /// `false` means cancellation leaked weight or messages.
    pub quiesced: bool,
    /// Queries that resolved as `QueryCancelled`.
    pub cancelled: u64,
    /// Order-sensitive hash of the full scheduling/fault event trace.
    pub fingerprint: u64,
    /// Trace events recorded.
    pub trace_len: u64,
    /// Injected faults that actually fired.
    pub faults_fired: FaultCounts,
    /// Scheduling quanta executed.
    pub steps: u64,
}

/// One planned arrival, fully derived from the `svc=` spec before the
/// simulation starts (so the arrival schedule never depends on execution
/// state).
struct PlannedQuery {
    class: u8,
    qspec: QuerySpec,
    arrive_at: u64,
    cancel_at: Option<u64>,
}

fn plan_workload(repro: &Repro, spec: &SvcSpec) -> Vec<PlannedQuery> {
    let mut rng = graphdance_common::rng::seeded(spec.arrival_seed);
    let n_vertices = repro.graph.num_vertices();
    let count = usize::from(spec.queries.min(32));
    let mut at = 0u64;
    (0..count)
        .map(|i| {
            let class = match spec.mix {
                0 => 0,
                1 => (i % 3) as u8,
                _ => rng.gen_range(0..3u8),
            };
            let start = rng.gen_range(0..n_vertices.max(1));
            at += rng.gen_range(0..24u64);
            let qspec = match class {
                0 => repro.query,
                1 => QuerySpec::KhopCount { hops: 3, start },
                _ => QuerySpec::ScanCount,
            };
            PlannedQuery {
                class,
                qspec,
                arrive_at: at,
                cancel_at: (spec.cancel_mask >> i & 1 == 1)
                    .then(|| at + u64::from(spec.cancel_after)),
            }
        })
        .collect()
}

/// Run the service workload named by `repro` (which must carry a `svc=`
/// spec) and classify every query against the oracle.
pub fn check_service_detailed(repro: &Repro) -> ServiceReport {
    let spec = repro.svc.expect("check_service_detailed needs repro.svc");
    let graph = repro
        .graph
        .build_with_mode(repro.nodes, repro.workers, repro.part);
    let workload = plan_workload(repro, &spec);

    let mut config = EngineConfig::new(repro.nodes, repro.workers)
        .with_seed(repro.seed)
        .with_io_mode(repro.io);
    config.fault.sim = repro.faults;
    let mut sim = SimCluster::new(graph.clone(), config);

    let n = workload.len();
    let mut handles = Vec::with_capacity(n);
    handles.resize_with(n, || None);
    let mut results: Vec<Option<Result<_, GdError>>> = Vec::with_capacity(n);
    results.resize_with(n, || None);
    let mut next_arrival = 0usize;
    let mut local_step = 0u64;
    let mut hung = false;
    loop {
        while next_arrival < n && workload[next_arrival].arrive_at <= local_step {
            let q = &workload[next_arrival];
            let (plan, params) = q.qspec.build(&graph);
            let deadline = now() + CLASS_DEADLINE[usize::from(q.class)];
            handles[next_arrival] =
                Some(sim.submit_with_deadline(&plan, params, 1, Some(deadline)));
            next_arrival += 1;
        }
        for (i, q) in workload.iter().enumerate() {
            if q.cancel_at == Some(local_step) {
                if let (Some(h), None) = (&handles[i], &results[i]) {
                    sim.cancel(h.id());
                }
            }
        }
        for (h, r) in handles.iter().zip(results.iter_mut()) {
            if r.is_none() {
                if let Some(h) = h {
                    *r = h.try_result();
                }
            }
        }
        let all_arrived = next_arrival == n;
        let all_resolved = results.iter().all(Option::is_some);
        if all_arrived && all_resolved {
            break;
        }
        if local_step >= 20_000_000 {
            hung = true;
            break;
        }
        // A Quiescent step with arrivals or cancels still pending merely
        // advances the arrival counter; with everything submitted it
        // means a reply was lost, which `run`-style loops treat as a
        // hard failure — here the unresolved queries get `Failed` below.
        if sim.step() == SimStep::Quiescent && all_arrived {
            // Give unresolved handles one last poll, then stop: a
            // quiescent cluster will never produce further replies.
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

    // Post-resolution drain: cancellation must leave nothing in flight.
    let mut quiesced = false;
    if !hung {
        for _ in 0..DRAIN_BUDGET {
            if sim.step() == SimStep::Quiescent {
                quiesced = true;
                break;
            }
        }
    }

    let mut outcomes = Vec::with_capacity(n);
    let mut cancelled = 0u64;
    for (i, q) in workload.iter().enumerate() {
        let cancel_requested = q.cancel_at.is_some();
        let mut was_cancelled = false;
        let verdict = match results[i].take() {
            Some(Ok(result)) => {
                let (plan, params) = q.qspec.build(&graph);
                match oracle_rows(&graph, &plan, &params, 1, repro.seed) {
                    Ok(want) => {
                        let got = normalize(&result.rows);
                        let want = normalize(&want);
                        if got == want {
                            Verdict::Match
                        } else {
                            Verdict::WrongAnswer { got, want }
                        }
                    }
                    Err(e) => Verdict::Failed(e),
                }
            }
            Some(Err(e @ GdError::QueryCancelled(_))) => {
                if cancel_requested {
                    was_cancelled = true;
                    cancelled += 1;
                    Verdict::Match
                } else {
                    Verdict::Failed(e)
                }
            }
            Some(Err(e @ (GdError::InvariantViolation(_) | GdError::QueryTimeout(_)))) => {
                Verdict::Flagged(e)
            }
            Some(Err(e)) => Verdict::Failed(e),
            None => Verdict::Failed(GdError::Internal(format!(
                "{} query {i} never resolved (cluster {})",
                CLASS_NAME[usize::from(q.class)],
                if hung { "hung" } else { "quiesced silently" },
            ))),
        };
        outcomes.push(QueryOutcome {
            class: q.class,
            cancel_requested,
            cancelled: was_cancelled,
            verdict,
        });
    }

    let mut verdict = outcomes
        .iter()
        .map(|o| &o.verdict)
        .max_by_key(|v| v.class())
        .cloned()
        .unwrap_or(Verdict::Match);
    if !quiesced && verdict.class() < 3 {
        // A cluster that cannot drain after every reply is a leak —
        // stranded weight or undrained messages escaped both ledgers.
        verdict = Verdict::Failed(GdError::Internal(
            "service run resolved every query but never quiesced".into(),
        ));
    } else if quiesced {
        verdict = with_leak_check(&sim, verdict);
    }

    ServiceReport {
        outcomes,
        verdict,
        quiesced,
        cancelled,
        fingerprint: sim.trace().fingerprint(),
        trace_len: sim.trace().total(),
        faults_fired: sim.fault_counts(),
        steps: sim.steps(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::repro::GraphSpec;

    fn base() -> Repro {
        Repro::clean(
            GraphSpec::Ring { n: 16 },
            QuerySpec::Khop { hops: 2, start: 0 },
            2,
            2,
            3,
        )
        .with_svc(SvcSpec {
            arrival_seed: 9,
            queries: 5,
            mix: 1,
            cancel_mask: 0,
            cancel_after: 0,
        })
    }

    #[test]
    fn clean_mixed_workload_matches_per_query() {
        let report = check_service_detailed(&base());
        assert_eq!(report.verdict, Verdict::Match, "{report:?}");
        assert!(report.quiesced);
        assert_eq!(report.outcomes.len(), 5);
        // mix=1 round-robins the classes.
        let classes: Vec<u8> = report.outcomes.iter().map(|o| o.class).collect();
        assert_eq!(classes, vec![0, 1, 2, 0, 1]);
    }

    #[test]
    fn cancelled_queries_resolve_and_the_rest_match() {
        let mut r = base();
        r.svc = Some(SvcSpec {
            cancel_mask: 0b00101,
            cancel_after: 2,
            ..r.svc.expect("base carries svc")
        });
        let report = check_service_detailed(&r);
        assert!(report.verdict.acceptable(), "{report:?}");
        assert!(report.quiesced, "cancellation leaked: {report:?}");
        for o in &report.outcomes {
            if !o.cancel_requested {
                assert_eq!(o.verdict, Verdict::Match, "{o:?}");
            }
        }
    }

    #[test]
    fn service_runs_replay_bit_identically() {
        let mut r = base();
        r.svc = Some(SvcSpec {
            cancel_mask: 0b10,
            cancel_after: 5,
            ..r.svc.expect("base carries svc")
        });
        let a = check_service_detailed(&r);
        let b = check_service_detailed(&r);
        assert_eq!(a.verdict, b.verdict);
        assert_eq!(a.fingerprint, b.fingerprint, "same line, same schedule");
        assert_eq!(a.trace_len, b.trace_len);
        assert_eq!(a.steps, b.steps);
    }
}
