//! # graphdance-sim
//!
//! The deterministic simulation testing (DST) harness. Builds on the
//! engine's [`SimCluster`] (whole cluster on one thread, seeded scheduler,
//! virtual clock) and adds the three pieces that turn determinism into a
//! bug hunter:
//!
//! * **Fault schedules** ([`repro`]) — a run is named by one [`Repro`]
//!   line: graph, query, topology, seed, and per-mille fault knobs.
//! * **Oracle differential checking** ([`oracle`], [`check`]) — every
//!   simulated answer is compared against a sequential single-machine run
//!   of the same plan on [`mod@reference`], a step chain kept independent of
//!   the arena step the engines run. Disagreement is an execution bug by
//!   construction.
//! * **Repro minimization** ([`minimize`]) — a failing repro is shrunk
//!   (fault knobs zeroed, graph and topology reduced) while the failure
//!   class is preserved, then printed as one replayable line.
//!
//! The verdict taxonomy is the heart of the safety argument: under lossy
//! fault schedules the engine may *flag* a run (invariant violation,
//! watchdog, timeout) — that is correct behavior — but it must never
//! return a **silent wrong answer**. [`Verdict::WrongAnswer`] is always a
//! bug; [`Verdict::Flagged`] never is under injected faults.

pub mod oracle;
pub mod reference;
pub mod repro;
pub mod service;

use std::fmt;

use graphdance_common::GdError;
use graphdance_engine::{EngineConfig, FaultCounts, SimCluster};
use graphdance_pstm::Row;

pub use graphdance_common::{PartId, VertexId};
pub use graphdance_storage::fennel::{
    adjacency, balance_ok, edge_cut, partition_stream, FennelConfig, PartitionMode,
};
pub use oracle::oracle_rows;
pub use repro::{GraphSpec, QuerySpec, Repro, SvcSpec};
pub use service::{check_service_detailed, QueryOutcome, ServiceReport};

/// The outcome of one differentially-checked simulation run.
#[derive(Clone, Debug, PartialEq)]
pub enum Verdict {
    /// The simulated answer equals the oracle's (as a multiset).
    Match,
    /// The engine detected the injected damage and refused to answer:
    /// a conservation-invariant violation, the liveness watchdog, or a
    /// query timeout. Correct behavior under lossy fault schedules.
    Flagged(GdError),
    /// The engine returned an answer that disagrees with the oracle —
    /// a silent wrong answer. Always a bug.
    WrongAnswer {
        /// Normalized (sorted) engine rows.
        got: Vec<String>,
        /// Normalized (sorted) oracle rows.
        want: Vec<String>,
    },
    /// The run failed some other way (oracle error, internal error,
    /// quiesced without replying). Always a bug.
    Failed(GdError),
}

impl Verdict {
    /// Is this verdict acceptable under an injected-fault schedule?
    pub fn acceptable(&self) -> bool {
        matches!(self, Verdict::Match | Verdict::Flagged(_))
    }

    /// Coarse class, worst last: used by [`minimize`] to preserve the
    /// failure mode while shrinking, and by the service runner to report
    /// the worst per-query verdict.
    fn class(&self) -> u8 {
        match self {
            Verdict::Match => 0,
            Verdict::Flagged(_) => 1,
            Verdict::WrongAnswer { .. } => 2,
            Verdict::Failed(_) => 3,
        }
    }
}

/// Everything observable from one checked run.
#[derive(Clone, Debug)]
pub struct RunReport {
    pub verdict: Verdict,
    /// Order-sensitive hash of the full scheduling/fault event trace.
    pub fingerprint: u64,
    /// Trace events recorded (including any beyond the storage cap).
    pub trace_len: u64,
    /// Injected faults that actually fired.
    pub faults_fired: FaultCounts,
    /// Scheduling quanta executed.
    pub steps: u64,
}

/// A failure with its replayable name attached. The `Display` form leads
/// with the repro line so it can be pasted into a `sim-repro/*.repro`
/// corpus file verbatim.
#[derive(Clone, Debug)]
pub struct SimFailure {
    pub repro: Repro,
    pub verdict: Verdict,
}

impl fmt::Display for SimFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "simulation failure; replay with:")?;
        writeln!(f, "  {}", self.repro.to_line())?;
        match &self.verdict {
            Verdict::WrongAnswer { got, want } => {
                writeln!(f, "  wrong answer: got {got:?}")?;
                write!(f, "               want {want:?}")
            }
            Verdict::Failed(e) => write!(f, "  failed: {e}"),
            Verdict::Flagged(e) => write!(f, "  flagged: {e}"),
            Verdict::Match => write!(f, "  (match)"),
        }
    }
}

/// Sort rows into a canonical multiset representation. Row order is an
/// execution artifact in both the engine and the oracle, so comparisons
/// are order-insensitive.
pub(crate) fn normalize(rows: &[Row]) -> Vec<String> {
    let mut v: Vec<String> = rows.iter().map(|r| format!("{r:?}")).collect();
    v.sort();
    v
}

/// A quiescent cluster whose queries have all resolved holds none of them:
/// with no broadcast left, this is the check that each query's teardown
/// reached every worker the query reached. Only an otherwise acceptable
/// verdict is replaced, so a wrong answer keeps its class.
pub(crate) fn with_leak_check(sim: &SimCluster, verdict: Verdict) -> Verdict {
    match sim.leaked_query() {
        Some((w, q)) if verdict.acceptable() => Verdict::Failed(GdError::Internal(format!(
            "quiescent, yet worker {w} still holds query {}",
            q.0
        ))),
        _ => verdict,
    }
}

/// Run `repro` once and differentially check it against the oracle.
pub fn check(repro: &Repro) -> Verdict {
    check_detailed(repro).verdict
}

/// [`check`], plus the trace fingerprint and fault/step counters (for
/// determinism assertions and sweep statistics).
///
/// A repro carrying a `svc=` key routes through the service-workload
/// runner, whose report's verdict is the aggregate (worst per-query)
/// verdict, so corpus `expect=` lines and [`sweep`] / [`minimize`] work
/// unchanged over it. A `part=` key only chooses the graph's placement.
pub fn check_detailed(repro: &Repro) -> RunReport {
    if repro.svc.is_some() {
        let report = check_service_detailed(repro);
        return RunReport {
            verdict: report.verdict,
            fingerprint: report.fingerprint,
            trace_len: report.trace_len,
            faults_fired: report.faults_fired,
            steps: report.steps,
        };
    }
    let graph = repro
        .graph
        .build_with_mode(repro.nodes, repro.workers, repro.part);
    let (plan, params) = repro.query.build(&graph);
    let want = match oracle_rows(&graph, &plan, &params, 1, repro.seed) {
        Ok(rows) => rows,
        Err(e) => {
            return RunReport {
                verdict: Verdict::Failed(e),
                fingerprint: 0,
                trace_len: 0,
                faults_fired: FaultCounts::default(),
                steps: 0,
            }
        }
    };
    let mut config = EngineConfig::new(repro.nodes, repro.workers)
        .with_seed(repro.seed)
        .with_io_mode(repro.io);
    config.fault.sim = repro.faults;
    let mut sim = SimCluster::new(graph, config);
    let result = sim.query(&plan, params);
    let verdict = match result {
        Ok(rows) => {
            let got = normalize(&rows);
            let want = normalize(&want);
            if got == want {
                Verdict::Match
            } else {
                Verdict::WrongAnswer { got, want }
            }
        }
        Err(e @ (GdError::InvariantViolation(_) | GdError::QueryTimeout(_))) => Verdict::Flagged(e),
        Err(e) => Verdict::Failed(e),
    };
    let verdict = with_leak_check(&sim, verdict);
    RunReport {
        verdict,
        fingerprint: sim.trace().fingerprint(),
        trace_len: sim.trace().total(),
        faults_fired: sim.fault_counts(),
        steps: sim.steps(),
    }
}

/// Run `base` across a seed range and collect every unacceptable outcome
/// (wrong answers and hard failures; [`Verdict::Flagged`] runs pass).
pub fn sweep(base: &Repro, seeds: impl IntoIterator<Item = u64>) -> Vec<SimFailure> {
    let mut failures = Vec::new();
    for seed in seeds {
        let repro = Repro { seed, ..*base };
        let verdict = check(&repro);
        if !verdict.acceptable() {
            failures.push(SimFailure { repro, verdict });
        }
    }
    failures
}

/// Shrink a failing repro while preserving its failure class (wrong
/// answer stays a wrong answer, a hard failure stays a hard failure).
/// Greedy descent over: zeroing each fault knob, halving the graph,
/// reducing hops, and collapsing the topology — re-checked after every
/// accepted step. Returns the smallest accepted repro (the input itself
/// if nothing shrinks, or if the input doesn't actually fail).
pub fn minimize(failing: &Repro) -> Repro {
    let target = check(failing).class();
    if target <= 1 {
        return *failing; // not a failure; nothing to preserve
    }
    let mut best = *failing;
    // Each accepted candidate restarts the scan; the candidate list is
    // finite and strictly decreasing, so this terminates.
    'outer: loop {
        for candidate in shrink_candidates(&best) {
            if check(&candidate).class() == target {
                best = candidate;
                continue 'outer;
            }
        }
        return best;
    }
}

/// Strictly-smaller variants of `r`, most aggressive first.
fn shrink_candidates(r: &Repro) -> Vec<Repro> {
    let mut out = Vec::new();
    let mut push = |c: Repro| {
        if c != *r {
            out.push(c);
        }
    };
    // Zero each fault knob independently.
    for i in 0..6 {
        let mut f = r.faults;
        match i {
            0 => f.drop_permille = 0,
            1 => f.dup_permille = 0,
            2 => f.reorder_permille = 0,
            3 => f.delay_permille = 0,
            4 => f.stall_permille = 0,
            _ => f.progress_side_channel = false,
        }
        push(Repro { faults: f, ..*r });
    }
    // Shrink the graph.
    match r.graph {
        GraphSpec::Ring { n } if n >= 8 => push(Repro {
            graph: GraphSpec::Ring { n: n / 2 },
            ..*r
        }),
        GraphSpec::Gnm { n, m, .. } => {
            // First try the regular structure, then halve.
            push(Repro {
                graph: GraphSpec::Ring { n },
                ..*r
            });
            if n >= 8 {
                push(Repro {
                    graph: GraphSpec::Gnm {
                        n: n / 2,
                        m: m / 2,
                        seed: match r.graph {
                            GraphSpec::Gnm { seed, .. } => seed,
                            GraphSpec::Ring { .. } => 0,
                        },
                    },
                    ..*r
                });
            }
        }
        GraphSpec::Ring { .. } => {}
    }
    // Reduce query depth.
    match r.query {
        QuerySpec::Khop { hops, start } if hops > 1 => push(Repro {
            query: QuerySpec::Khop {
                hops: hops - 1,
                start,
            },
            ..*r
        }),
        QuerySpec::KhopCount { hops, start } if hops > 1 => push(Repro {
            query: QuerySpec::KhopCount {
                hops: hops - 1,
                start,
            },
            ..*r
        }),
        QuerySpec::KhopMin { hops, start } if hops > 1 => push(Repro {
            query: QuerySpec::KhopMin {
                hops: hops - 1,
                start,
            },
            ..*r
        }),
        _ => {}
    }
    // Fall back to hash placement.
    push(Repro {
        part: PartitionMode::Hash,
        ..*r
    });
    // Collapse the topology.
    if r.workers > 1 {
        push(Repro { workers: 1, ..*r });
    }
    if r.nodes > 1 {
        push(Repro { nodes: 1, ..*r });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> Repro {
        Repro::clean(
            GraphSpec::Ring { n: 16 },
            QuerySpec::Khop { hops: 3, start: 0 },
            2,
            2,
            1,
        )
    }

    #[test]
    fn clean_run_matches_oracle() {
        assert_eq!(check(&base()), Verdict::Match);
    }

    #[test]
    fn clean_sweep_is_all_match() {
        let failures = sweep(&base(), 0..8);
        assert!(failures.is_empty(), "failures: {failures:?}");
    }

    #[test]
    fn detailed_report_is_deterministic_per_seed() {
        let a = check_detailed(&base());
        let b = check_detailed(&base());
        assert_eq!(a.verdict, b.verdict);
        assert_eq!(a.fingerprint, b.fingerprint, "same seed, same schedule");
        assert_eq!(a.trace_len, b.trace_len);
        assert_eq!(a.steps, b.steps);
    }

    #[test]
    fn failure_display_leads_with_the_repro_line() {
        let f = SimFailure {
            repro: base(),
            verdict: Verdict::Failed(GdError::Internal("boom".into())),
        };
        let s = f.to_string();
        assert!(s.contains("replay with"), "got: {s}");
        assert!(s.contains(&base().to_line()), "got: {s}");
    }

    #[test]
    fn minimize_returns_input_for_passing_repros() {
        let r = base();
        assert_eq!(minimize(&r), r);
    }
}
