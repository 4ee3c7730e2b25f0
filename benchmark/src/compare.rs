//! `compare A.json B.json`: judge B against A, one row per (workload,
//! end-to-end metric), by the direction and bound `BENCHMARK.json` gives
//! each metric. A and B are result files written by `all`.

use crate::json::Json;
use crate::stats::{iqr_share, median_f64};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    /// A side has no value, the base is 0, or the run-to-run spread of a
    /// side is wider than the bound: the data cannot say.
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

#[derive(Clone, Debug, PartialEq)]
pub struct MetricSpec {
    pub name: String,
    pub higher_is_better: bool,
    /// Share of A's median by which B may be worse.
    pub bound: f64,
}

/// The end-to-end metric specs of a parsed `BENCHMARK.json`.
pub fn specs(benchmark: &Json) -> Result<Vec<MetricSpec>, String> {
    benchmark
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::as_str).ok_or("metric name")?;
            let better = m.get("better").and_then(Json::as_str);
            let higher_is_better = match better {
                Some("higher") => true,
                Some("lower") => false,
                _ => return Err(format!("{name}: better must be higher or lower")),
            };
            let bound = m
                .get("bound")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("{name}: no bound"))?;
            Ok(MetricSpec {
                name: name.into(),
                higher_is_better,
                bound,
            })
        })
        .collect()
}

/// B against A: the verdict and how much worse B's median is, as a share
/// of A's (negative = better).
pub fn judge(spec: &MetricSpec, a: &[f64], b: &[f64]) -> (Verdict, f64) {
    if a.is_empty() || b.is_empty() {
        return (Verdict::Unresolved, f64::NAN);
    }
    let (ma, mb) = (median_f64(a), median_f64(b));
    if ma == 0.0 {
        return (Verdict::Unresolved, f64::NAN);
    }
    let change = (mb - ma) / ma.abs();
    let worse_by = if spec.higher_is_better {
        -change
    } else {
        change
    };
    let too_wide = |v: &[f64]| iqr_share(v).is_some_and(|s| s > spec.bound);
    let verdict = if too_wide(a) || too_wide(b) {
        Verdict::Unresolved
    } else if worse_by > spec.bound {
        Verdict::Worse
    } else if worse_by < -spec.bound {
        Verdict::Better
    } else {
        Verdict::Same
    };
    (verdict, worse_by)
}

fn values(results: &Json, workload: &str, metric: &str) -> Vec<f64> {
    results
        .get("workloads")
        .and_then(|w| w.get(workload))
        .and_then(|w| w.get("end_to_end"))
        .and_then(|m| m.get(metric))
        .and_then(Json::as_arr)
        .map(|vs| vs.iter().filter_map(Json::as_f64).collect())
        .unwrap_or_default()
}

/// Print the table; `Ok(true)` when no row is worse.
pub fn compare(benchmark: &Json, a: &Json, b: &Json) -> Result<bool, String> {
    let specs = specs(benchmark)?;
    let workloads: Vec<&str> = a
        .get("workloads")
        .and_then(Json::as_obj)
        .ok_or("first result file has no workloads")?
        .iter()
        .map(|(name, _)| name.as_str())
        .collect();
    println!(
        "{:<14} {:<12} {:>12} {:>12} {:>9} {:>6}  verdict",
        "workload", "metric", "A median", "B median", "worse by", "bound"
    );
    let mut none_worse = true;
    for w in workloads {
        for spec in &specs {
            let (va, vb) = (values(a, w, &spec.name), values(b, w, &spec.name));
            let (verdict, worse_by) = judge(spec, &va, &vb);
            none_worse &= verdict != Verdict::Worse;
            let med = |v: &[f64]| {
                if v.is_empty() {
                    "-".to_string()
                } else {
                    format!("{:.4}", median_f64(v))
                }
            };
            let worse_by = if worse_by.is_nan() {
                "-".to_string()
            } else {
                format!("{:+.1}%", worse_by * 100.0)
            };
            println!(
                "{:<14} {:<12} {:>12} {:>12} {:>9} {:>5.0}%  {}",
                w,
                spec.name,
                med(&va),
                med(&vb),
                worse_by,
                spec.bound * 100.0,
                verdict.label()
            );
        }
    }
    Ok(none_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(higher_is_better: bool, bound: f64) -> MetricSpec {
        MetricSpec {
            name: "m".into(),
            higher_is_better,
            bound,
        }
    }

    #[test]
    fn direction_decides_which_way_is_worse() {
        let lower = spec(false, 0.10);
        assert_eq!(judge(&lower, &[100.0], &[115.0]).0, Verdict::Worse);
        assert_eq!(judge(&lower, &[100.0], &[85.0]).0, Verdict::Better);
        let higher = spec(true, 0.10);
        assert_eq!(judge(&higher, &[100.0], &[115.0]).0, Verdict::Better);
        assert_eq!(judge(&higher, &[100.0], &[85.0]).0, Verdict::Worse);
    }

    #[test]
    fn within_the_bound_is_same() {
        let lower = spec(false, 0.10);
        assert_eq!(judge(&lower, &[100.0], &[109.9]).0, Verdict::Same);
        assert_eq!(judge(&lower, &[100.0], &[90.1]).0, Verdict::Same);
        let (_, worse_by) = judge(&spec(true, 0.10), &[200.0], &[190.0]);
        assert!((worse_by - 0.05).abs() < 1e-12);
    }

    #[test]
    fn medians_are_compared_and_wide_spread_is_unresolved() {
        let lower = spec(false, 0.10);
        let steady_a = [100.0, 101.0, 99.0, 100.5, 100.0];
        let steady_b = [
            120.0, 121.0, 119.0, 300.0, 120.0, 120.5, 119.5, 121.0, 120.0,
        ];
        // One outlier in B moves neither its median nor its quartiles.
        assert_eq!(judge(&lower, &steady_a, &steady_b).0, Verdict::Worse);
        let noisy = [60.0, 140.0, 100.0, 80.0, 120.0];
        assert_eq!(judge(&lower, &noisy, &steady_b).0, Verdict::Unresolved);
        assert_eq!(judge(&lower, &[], &[1.0]).0, Verdict::Unresolved);
        assert_eq!(judge(&lower, &[0.0], &[1.0]).0, Verdict::Unresolved);
    }

    #[test]
    fn reads_specs_and_values_from_files() {
        let bench = Json::parse(
            r#"{"end_to_end": [{"name": "qps", "unit": "1/s", "better": "higher", "bound": 0.1}]}"#,
        )
        .unwrap();
        assert_eq!(
            specs(&bench).unwrap(),
            vec![MetricSpec {
                name: "qps".into(),
                higher_is_better: true,
                bound: 0.1
            }]
        );
        let file = |v: f64| {
            Json::parse(&format!(
                r#"{{"workloads": {{"w": {{"end_to_end": {{"qps": [{v}]}}}}}}}}"#
            ))
            .unwrap()
        };
        assert!(compare(&bench, &file(100.0), &file(95.0)).unwrap());
        assert!(!compare(&bench, &file(100.0), &file(80.0)).unwrap());
    }
}
