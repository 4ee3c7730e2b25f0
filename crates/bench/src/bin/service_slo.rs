//! Service SLO — open-loop Poisson arrivals through the multi-tenant
//! query service (`graphdance-service`), LDBC SNB workload:
//!
//! * **interactive** — IS1–IS7 short reads (Table I's latency-critical
//!   class),
//! * **heavy** — IC1–IC14 complex reads,
//! * **background** — full-partition analytics scans.
//!
//! Sweeps offered load, recording per-class sojourn (admission →
//! completion) p50/p99/p999 and the admission-rejection rate; then runs
//! a cancellation A/B at the mid load — cancelling half the heavy class
//! mid-flight must not regress *surviving* interactive latency beyond
//! tolerance (the drain protocol frees capacity; it must never leak it).
//!
//! Prints one `JSON:` line; record it in `BENCH_service_slo.json` at the
//! repo root (asserted by `recorded_service_slo_within_budget`).

use std::time::Duration;

use graphdance_bench::*;
use graphdance_common::rng::seeded;
use graphdance_common::time::now;
use graphdance_common::{GdError, Partitioner, Value};
use graphdance_datagen::SnbDataset;
use graphdance_engine::{EngineConfig, GraphDance};
use graphdance_ldbc::params::{ic_params, is_params};
use graphdance_ldbc::{build_ic_plans, build_is_plans};
use graphdance_query::plan::Plan;
use graphdance_query::QueryBuilder;
use graphdance_service::{Priority, Service, ServiceConfig, Ticket};
use rand::rngs::SmallRng;
use rand::Rng;

/// Class-mix probabilities (interactive, heavy, background) — the
/// latency-critical class dominates arrivals, analytics trickles in.
const MIX: [f64; 3] = [0.60, 0.30, 0.10];

struct LoadResult {
    offered: [u64; 3],
    rejected: [u64; 3],
    cancelled: u64,
    expired: u64,
    failed: u64,
    /// Sojourn latencies of completed (surviving) queries, per class.
    lats: [Vec<Duration>; 3],
}

impl LoadResult {
    fn new() -> LoadResult {
        LoadResult {
            offered: [0; 3],
            rejected: [0; 3],
            cancelled: 0,
            expired: 0,
            failed: 0,
            lats: [Vec::new(), Vec::new(), Vec::new()],
        }
    }

    fn rejection_rate(&self) -> f64 {
        let offered: u64 = self.offered.iter().sum();
        let rejected: u64 = self.rejected.iter().sum();
        if offered == 0 {
            0.0
        } else {
            rejected as f64 / offered as f64
        }
    }
}

fn percentile(sorted: &[Duration], p: f64) -> Duration {
    if sorted.is_empty() {
        return Duration::MAX;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

struct Workload<'a> {
    data: &'a SnbDataset,
    is_plans: &'a [Plan],
    ic_plans: &'a [Plan],
    bg_plan: &'a Plan,
}

impl Workload<'_> {
    /// Draw one arrival: class plus a (plan, params) pair for it.
    fn draw(&self, rng: &mut SmallRng) -> (usize, &Plan, Vec<Value>) {
        let u: f64 = rng.gen_range(0.0..1.0);
        if u < MIX[0] {
            let idx = rng.gen_range(0..self.is_plans.len());
            (0, &self.is_plans[idx], is_params(idx, self.data, rng))
        } else if u < MIX[0] + MIX[1] {
            let idx = rng.gen_range(0..self.ic_plans.len());
            (1, &self.ic_plans[idx], ic_params(idx, self.data, rng))
        } else {
            (2, self.bg_plan, vec![])
        }
    }
}

struct Pending {
    class: usize,
    submitted: std::time::Instant,
    ticket: Ticket,
}

fn poll(pending: &mut Vec<Pending>, res: &mut LoadResult) {
    let mut i = 0;
    while i < pending.len() {
        match pending[i].ticket.try_result() {
            Some(outcome) => {
                let p = pending.swap_remove(i);
                match outcome {
                    Ok(_) => res.lats[p.class].push(p.submitted.elapsed()),
                    Err(GdError::QueryCancelled(_)) => res.cancelled += 1,
                    Err(GdError::QueryTimeout(_)) => res.expired += 1,
                    Err(_) => res.failed += 1,
                }
            }
            None => i += 1,
        }
    }
}

/// One open-loop window at `lambda` arrivals/sec. `cancel_heavy` is the
/// probability a heavy-class admission is cancelled ~5ms after submit.
fn run_load(
    svc: &Service,
    w: &Workload<'_>,
    lambda: f64,
    window: Duration,
    cancel_heavy: f64,
    seed: u64,
) -> LoadResult {
    let mut rng = seeded(seed);
    let mut res = LoadResult::new();
    let mut pending: Vec<Pending> = Vec::new();
    let mut cancels: Vec<(u64, std::time::Instant)> = Vec::new();
    let t0 = now();
    let mut next_arrival = t0;
    loop {
        let t = now();
        cancels.retain(|&(token, at)| {
            if t >= at {
                svc.cancel(token);
                false
            } else {
                true
            }
        });
        poll(&mut pending, &mut res);
        if t0.elapsed() >= window {
            break;
        }
        if t < next_arrival {
            std::thread::sleep(Duration::from_micros(100));
            continue;
        }
        let (class, plan, params) = w.draw(&mut rng);
        let prio = [Priority::Interactive, Priority::Heavy, Priority::Background][class];
        res.offered[class] += 1;
        match svc.submit(prio, plan, params) {
            Ok(ticket) => {
                if class == 1 && rng.gen_range(0.0..1.0) < cancel_heavy {
                    cancels.push((ticket.token(), now() + Duration::from_millis(5)));
                }
                pending.push(Pending {
                    class,
                    submitted: now(),
                    ticket,
                });
            }
            Err(GdError::Overloaded) => res.rejected[class] += 1,
            Err(_) => res.failed += 1,
        }
        // Open-loop Poisson process: exponential inter-arrival gaps.
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        next_arrival += Duration::from_secs_f64(-u.ln() / lambda);
    }
    // Drain: fire any still-scheduled cancels, then wait everything out.
    for (token, _) in cancels.drain(..) {
        svc.cancel(token);
    }
    let drain_deadline = now() + Duration::from_secs(60);
    while !pending.is_empty() && now() < drain_deadline {
        poll(&mut pending, &mut res);
        std::thread::sleep(Duration::from_millis(1));
    }
    res.failed += pending.len() as u64;
    for lane in &mut res.lats {
        lane.sort_unstable();
    }
    res
}

fn class_row(name: &str, res: &LoadResult, class: usize) -> String {
    let l = &res.lats[class];
    format!(
        "{name:12} | {:7} | {:7} | {} | {} | {}",
        res.offered[class],
        res.rejected[class],
        ms(percentile(l, 0.50)),
        ms(percentile(l, 0.99)),
        ms(percentile(l, 0.999)),
    )
}

fn main() {
    let quick = quick_mode();
    let data = sf300_dataset(quick);
    let (nodes, wpn) = (2u32, 4u32);
    let graph = data.build(Partitioner::new(nodes, wpn)).expect("builds");
    let schema = std::sync::Arc::clone(graph.schema());
    let is_plans = build_is_plans(&schema).expect("IS plans");
    let ic_plans = build_ic_plans(&schema).expect("IC plans");
    // Background analytics: a full-graph friend-of-friend path count —
    // touches every partition and fans out over the whole knows graph.
    let bg_plan = {
        let mut b = QueryBuilder::new(&schema);
        b.v().has_label("Person").out("knows").out("knows").count();
        b.compile().expect("analytics scan compiles")
    };
    let w = Workload {
        data: &data,
        is_plans: &is_plans,
        ic_plans: &ic_plans,
        bg_plan: &bg_plan,
    };

    let engine = GraphDance::start(graph, EngineConfig::new(nodes, wpn));
    let svc = Service::start(
        engine,
        ServiceConfig::default()
            .with_capacity(32)
            .with_concurrency(8),
    );

    let window = if quick {
        Duration::from_millis(1200)
    } else {
        Duration::from_secs(5)
    };
    // Calibrated against the full-size dataset's service rate (~8 slots
    // × the mixed mean service time): the low end is comfortably
    // sustainable, the top end is past saturation so admission control
    // visibly sheds.
    let loads: Vec<f64> = if quick {
        vec![60.0, 240.0]
    } else {
        vec![10.0, 20.0, 40.0, 80.0]
    };
    let mid = loads[loads.len() / 2 - usize::from(loads.len().is_multiple_of(2))];
    let top = *loads.last().expect("non-empty sweep");

    println!(
        "=== service SLO: open-loop Poisson sweep on {} (2x4, queue=32, slots=8) ===",
        data.params().name
    );
    // Warm the engine (page caches, lazily-built structures) before any
    // measured window, or the first sweep point eats every cold-start
    // tail sample.
    let _ = run_load(&svc, &w, loads[0], window / 2, 0.0, 0x3A3A);
    let mut sweep_json = Vec::new();
    let mut mid_baseline: Option<LoadResult> = None;
    for &lambda in &loads {
        println!("--- offered load {lambda}/s, window {window:?} ---");
        header(&[
            "class       ",
            "offered",
            "rejected",
            "p50     ",
            "p99     ",
            "p999    ",
        ]);
        let res = run_load(&svc, &w, lambda, window, 0.0, 0x510 + lambda as u64);
        for (i, name) in ["interactive", "heavy", "background"].iter().enumerate() {
            println!("{}", class_row(name, &res, i));
        }
        println!(
            "rejection rate {:.4} | expired {} | failed {}",
            res.rejection_rate(),
            res.expired,
            res.failed
        );
        sweep_json.push(format!(
            "\"load_{lambda}\": {{\"interactive_p99_ms\": {:.3}, \"background_p99_ms\": {:.3}, \
             \"rejection_rate\": {:.4}}}",
            percentile(&res.lats[0], 0.99).as_secs_f64() * 1e3,
            percentile(&res.lats[2], 0.99).as_secs_f64() * 1e3,
            res.rejection_rate(),
        ));
        if lambda == mid {
            mid_baseline = Some(res);
        }
    }

    // Cancellation A/B at the mid load: half the heavy class cancelled
    // ~5ms in; surviving interactive latency must not regress. Both arms
    // replay the same arrival schedule (the cancel draw is taken whether or
    // not it can hit), so they differ by the cancellations alone — the
    // sweep's mid-load window is a different sample of arrivals, and that
    // difference is larger than the effect under test.
    println!("--- cancellation A/B at {mid}/s: baseline (same arrivals, no cancels) ---");
    let baseline = run_load(&svc, &w, mid, window, 0.0, 0xCA_FE);
    println!("--- cancellation A/B at {mid}/s (50% of heavy cancelled) ---");
    let cancel_run = run_load(&svc, &w, mid, window, 0.5, 0xCA_FE);
    header(&[
        "class       ",
        "offered",
        "rejected",
        "p50     ",
        "p99     ",
        "p999    ",
    ]);
    for (i, name) in ["interactive", "heavy", "background"].iter().enumerate() {
        println!("{}", class_row(name, &cancel_run, i));
    }
    println!("cancelled {} mid-flight", cancel_run.cancelled);

    let mid_run = mid_baseline.expect("mid load is in the sweep");
    let b_p99 = percentile(&baseline.lats[0], 0.99).as_secs_f64() * 1e3;
    let c_p99 = percentile(&cancel_run.lats[0], 0.99).as_secs_f64() * 1e3;
    let stats = svc.stats();
    println!(
        "service totals: admitted {} completed {} cancelled {} expired {} \
         in-flight {} (reconciles: {})",
        stats.admitted,
        stats.completed,
        stats.cancelled,
        stats.deadline_expired,
        stats.in_flight,
        stats.reconciles(),
    );
    if metrics_mode() {
        #[cfg(feature = "obs")]
        print!("{}", svc.metrics().to_prometheus());
        #[cfg(not(feature = "obs"))]
        println!("--- metrics (service): built without the `obs` feature ---");
    }

    println!(
        "\nJSON: {{\"bench\": \"service_slo\", \"dataset\": \"{}\", \"window_s\": {:.1}, \
         \"queue_capacity\": 32, \"concurrency\": 8, {}, \
         \"mid_load\": {mid}, \"top_load\": {top}, \
         \"mid_interactive_p99_ms\": {:.3}, \"mid_interactive_p999_ms\": {:.3}, \
         \"mid_heavy_p99_ms\": {:.3}, \"mid_background_p99_ms\": {:.3}, \
         \"top_rejection_rate\": {:.4}, \
         \"baseline_interactive_p99_ms\": {b_p99:.3}, \
         \"cancel_surviving_interactive_p99_ms\": {c_p99:.3}, \
         \"cancelled_mid_flight\": {}, \"cancel_tolerance_pct\": 50.0}}",
        data.params().name,
        window.as_secs_f64(),
        sweep_json.join(", "),
        percentile(&mid_run.lats[0], 0.99).as_secs_f64() * 1e3,
        percentile(&mid_run.lats[0], 0.999).as_secs_f64() * 1e3,
        percentile(&mid_run.lats[1], 0.99).as_secs_f64() * 1e3,
        percentile(&mid_run.lats[2], 0.99).as_secs_f64() * 1e3,
        // The top-load window is the last sweep entry; recompute from it.
        sweep_top_rejection(&sweep_json, top),
        cancel_run.cancelled,
    );
    svc.shutdown();
}

/// Pull the recorded rejection rate of the top-load sweep entry back out
/// of its JSON fragment (keeps one source of truth for the number).
fn sweep_top_rejection(sweep_json: &[String], top: f64) -> f64 {
    let key = format!("\"load_{top}\"");
    sweep_json
        .iter()
        .find(|s| s.starts_with(&key))
        .and_then(|s| {
            let at = s.rfind("\"rejection_rate\": ")?;
            s[at + "\"rejection_rate\": ".len()..]
                .trim_end_matches(['}', ' '])
                .parse()
                .ok()
        })
        .unwrap_or(0.0)
}
