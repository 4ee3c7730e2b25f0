//! The repo's single end-to-end benchmark. See `README.md` beside this
//! package and `BENCHMARK.json` at the repo root.
//!
//! ```text
//! graphdance-benchmark --workload W --seed N --seconds S --trace 0|1
//! graphdance-benchmark all [--seed N] [--secs S] [--reps K] [--traced] [--quick]
//! graphdance-benchmark compare A.json B.json [--spec BENCHMARK.json]
//! ```

mod compare;
mod digest;
mod json;
mod metrics;
mod pool;
mod run;
mod stats;
mod trace;
mod workload;

use std::path::Path;
use std::process::{Command, ExitCode, Stdio};

use json::Json;
use metrics::{END_TO_END, PER_LAYER};
use run::{Outcome, RunArgs};
use workload::Kind;

/// Where `all` and the traced runs write, relative to the repo root.
const OUT_DIR: &str = "benchmark/out";
/// `all`'s default timed window, and `--quick`'s (smoke only).
const DEFAULT_SECS: u64 = 30;
const QUICK_SECS: u64 = 5;

/// The value following `flag`, parsed.
fn opt<T: std::str::FromStr>(args: &[String], flag: &str) -> Result<Option<T>, String> {
    match args.iter().position(|a| a == flag) {
        None => Ok(None),
        Some(i) => args
            .get(i + 1)
            .and_then(|v| v.parse().ok())
            .map(Some)
            .ok_or_else(|| format!("{flag} needs a value")),
    }
}

fn has(args: &[String], flag: &str) -> bool {
    args.iter().any(|a| a == flag)
}

fn write_file(path: &str, body: &Json) -> Result<(), String> {
    if let Some(dir) = Path::new(path).parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, format!("{body}\n")).map_err(|e| format!("{path}: {e}"))
}

fn read_json(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// One workload, one process: prints `workload metric value unit` lines,
/// then the result object as the last line of stdout.
fn run_one(args: &[String]) -> Result<bool, String> {
    let name: String = opt(args, "--workload")?.ok_or("--workload is required")?;
    let kind = Kind::parse(&name).ok_or_else(|| {
        let known = Kind::ALL.map(Kind::name).join(", ");
        format!("unknown workload {name:?} (known: {known})")
    })?;
    let run_args = RunArgs {
        kind,
        seed: opt(args, "--seed")?.unwrap_or(1),
        seconds: opt(args, "--seconds")?.unwrap_or(DEFAULT_SECS),
        traced: opt::<u8>(args, "--trace")?.unwrap_or(0) != 0,
        inject_wrong_expectation: has(args, "--inject-wrong-expectation"),
    };
    if run_args.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    let outcome = run::run(&run_args);
    let correct = outcome.correct();
    let Outcome {
        metrics,
        attempted,
        failed,
        violations,
        spans,
    } = outcome;
    for v in &violations {
        eprintln!("{name}: violated: {v}");
    }
    if run_args.traced {
        let selfs = trace::self_times(&spans);
        let path = format!("{OUT_DIR}/{name}.trace.json");
        write_file(&path, &trace::to_json(&name, run_args.seed, &spans, &selfs))?;
        eprintln!("{name}: {} spans -> {path}", spans.len());
    }
    let list: &[(&str, &str)] = if run_args.traced {
        &PER_LAYER
    } else {
        &END_TO_END
    };
    let mut reported = Vec::new();
    for &(metric, unit) in list {
        let value = metrics.get(metric).copied().unwrap_or(0.0);
        println!("{name} {metric} {value} {unit}");
        reported.push((
            metric.to_string(),
            Json::Obj(vec![
                ("value".into(), Json::Num(value)),
                ("unit".into(), Json::Str(unit.into())),
            ]),
        ));
    }
    println!(
        "{name} failed_share {} share",
        failed as f64 / attempted.max(1) as f64
    );
    println!(
        "{}",
        Json::Obj(vec![
            ("correct".into(), Json::Bool(correct)),
            ("attempted".into(), Json::Num(attempted.max(1) as f64)),
            ("failed".into(), Json::Num(failed as f64)),
            ("metrics".into(), Json::Obj(reported)),
        ])
    );
    Ok(correct)
}

/// Run `--workload kind` in a child process; its parsed result object.
fn spawn_one(kind: Kind, seed: u64, secs: u64, traced: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", kind.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &secs.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("{}: {e}", kind.name()))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().unwrap_or_default();
    for line in lines {
        println!("{line}");
    }
    let result = Json::parse(last).map_err(|e| format!("{}: no result: {e}", kind.name()))?;
    if !out.status.success() || result.get("correct") != Some(&Json::Bool(true)) {
        return Err(format!("{}: outputs incorrect: {last}", kind.name()));
    }
    Ok(result)
}

/// Append each metric of `result` to the per-metric value lists.
fn collect(into: &mut Vec<(String, Json)>, result: &Json) {
    let reported = result.get("metrics").and_then(Json::as_obj).unwrap_or(&[]);
    for (name, m) in reported {
        let value = m.get("value").cloned().unwrap_or(Json::Null);
        match into.iter_mut().find(|(n, _)| n == name) {
            Some((_, Json::Arr(vs))) => vs.push(value),
            _ => into.push((name.clone(), Json::Arr(vec![value]))),
        }
    }
}

fn median_of(lists: &[(String, Json)], metric: &str) -> Option<f64> {
    let (_, values) = lists.iter().find(|(n, _)| n == metric)?;
    let values: Vec<f64> = values.as_arr()?.iter().filter_map(Json::as_f64).collect();
    (!values.is_empty()).then(|| stats::median_f64(&values))
}

/// Every workload, each run in its own process; writes `results.json`.
fn run_all(args: &[String]) -> Result<bool, String> {
    let quick = has(args, "--quick");
    let traced = has(args, "--traced");
    let seed: u64 = opt(args, "--seed")?.unwrap_or(1);
    let reps: u64 = opt(args, "--reps")?.unwrap_or(1);
    let secs: u64 = opt(args, "--secs")?.unwrap_or(if quick { QUICK_SECS } else { DEFAULT_SECS });
    if quick {
        println!("# --quick: {secs} s windows, for smoke only — not valid for claims");
    }
    let mut workloads = Vec::new();
    let mut derived = Vec::new();
    let mut khop_local_qps = None;
    for kind in Kind::ALL {
        if !Kind::GATED.contains(&kind) {
            println!(
                "# {}: run here, not declared in BENCHMARK.json (too unsteady to gate on)",
                kind.name()
            );
        }
        let (mut e2e, mut layers) = (Vec::new(), Vec::new());
        for _ in 0..reps {
            collect(&mut e2e, &spawn_one(kind, seed, secs, false)?);
            if traced {
                collect(&mut layers, &spawn_one(kind, seed, secs, true)?);
            }
        }
        // Numbers that need two runs: tracing overhead (untraced vs traced
        // throughput) and what crossing nodes costs (khop-tcp vs -local).
        let mut extra = Vec::new();
        let qps = median_of(&e2e, "qps");
        if let (Some(plain), Some(with)) = (qps, median_of(&layers, "client.qps")) {
            let pct = (1.0 - with / plain) * 100.0;
            println!("{} bench.trace_overhead_pct {pct} %", kind.name());
            extra.push(("bench.trace_overhead_pct".to_string(), Json::Num(pct)));
        }
        match kind {
            Kind::KhopLocal => khop_local_qps = qps,
            Kind::KhopTcp => {
                if let (Some(local), Some(tcp)) = (khop_local_qps, qps) {
                    let pct = (1.0 - tcp / local) * 100.0;
                    println!("{} net.cross_node_penalty_pct {pct} %", kind.name());
                    extra.push(("net.cross_node_penalty_pct".to_string(), Json::Num(pct)));
                }
            }
            _ => {}
        }
        derived.push((kind.name().to_string(), Json::Obj(extra)));
        workloads.push((
            kind.name().to_string(),
            Json::Obj(vec![
                ("end_to_end".into(), Json::Obj(e2e)),
                ("per_layer".into(), Json::Obj(layers)),
            ]),
        ));
    }
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let path = format!("{OUT_DIR}/results.json");
    write_file(
        &path,
        &Json::Obj(vec![
            ("seed".into(), Json::Num(seed as f64)),
            ("seconds".into(), Json::Num(secs as f64)),
            ("reps".into(), Json::Num(reps as f64)),
            ("valid_for_claims".into(), Json::Bool(!quick)),
            ("available_parallelism".into(), Json::Num(nproc as f64)),
            ("workloads".into(), Json::Obj(workloads)),
            ("derived".into(), Json::Obj(derived)),
        ]),
    )?;
    println!("# wrote {path}");
    Ok(true)
}

fn run_compare(args: &[String]) -> Result<bool, String> {
    let (Some(a), Some(b)) = (args.first(), args.get(1)) else {
        return Err("usage: compare A.json B.json [--spec BENCHMARK.json]".into());
    };
    let spec: String = opt(args, "--spec")?.unwrap_or_else(|| "BENCHMARK.json".into());
    compare::compare(&read_json(&spec)?, &read_json(a)?, &read_json(b)?)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let done = match args.first().map(String::as_str) {
        Some("all") => run_all(&args[1..]),
        Some("compare") => run_compare(&args[1..]),
        _ => run_one(&args),
    };
    match done {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("graphdance-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
