//! Aggregation partials (§III-C).
//!
//! All supported aggregation functions are commutative and associative, so
//! each partition accumulates a partial [`AggState`] in its memo and ships
//! it ahead of each progress report; the coordinator [`AggState::merge`]s
//! the partials as they arrive and, when the stage's scope terminates,
//! [`AggState::finalize`]s the result rows (Fig. 6).

use serde::{Deserialize, Serialize};

use graphdance_common::value::ValueKey;
use graphdance_common::{FxHashMap, FxHashSet, GdError, GdResult, Value};
use graphdance_query::expr::EvalCtx;
use graphdance_query::plan::{AggFunc, GroupOrder, Order};

/// One emitted result row.
pub type Row = Vec<Value>;

/// A partial aggregation state. Data only — the [`AggFunc`] is passed to
/// each method so states stay small and serializable.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum AggState {
    /// Row count.
    Count(u64),
    /// Running sum.
    Sum(Value),
    /// Running minimum.
    Min(Option<Value>),
    /// Running maximum.
    Max(Option<Value>),
    /// Running mean.
    Avg { sum: f64, count: u64 },
    /// Top-k candidates: (sort key, output row, distinct key) triples,
    /// compacted lazily. The distinct key is empty unless the function
    /// declares `distinct` expressions.
    TopK {
        rows: Vec<(Vec<Value>, Row, Vec<ValueKey>)>,
    },
    /// Count per group.
    GroupCount { map: FxHashMap<ValueKey, i64> },
    /// Sum per group.
    GroupSum { map: FxHashMap<ValueKey, i64> },
    /// Plain row collection.
    Collect { rows: Vec<Row> },
}

impl AggState {
    /// Fresh state for a function.
    pub fn new(func: &AggFunc) -> AggState {
        match func {
            AggFunc::Count => AggState::Count(0),
            AggFunc::Sum(_) => AggState::Sum(Value::Int(0)),
            AggFunc::Min(_) => AggState::Min(None),
            AggFunc::Max(_) => AggState::Max(None),
            AggFunc::Avg(_) => AggState::Avg { sum: 0.0, count: 0 },
            AggFunc::TopK { .. } => AggState::TopK { rows: Vec::new() },
            AggFunc::GroupCount { .. } => AggState::GroupCount {
                map: FxHashMap::default(),
            },
            AggFunc::GroupSum { .. } => AggState::GroupSum {
                map: FxHashMap::default(),
            },
            AggFunc::Collect { .. } => AggState::Collect { rows: Vec::new() },
        }
    }

    /// Fold one traverser's emission into the partial.
    pub fn insert(&mut self, func: &AggFunc, ctx: &EvalCtx<'_>) -> GdResult<()> {
        match (self, func) {
            (AggState::Count(n), AggFunc::Count) => *n += 1,
            (AggState::Sum(acc), AggFunc::Sum(e)) => {
                *acc = add_values(acc, &e.eval(ctx)?)?;
            }
            (AggState::Min(m), AggFunc::Min(e)) => {
                let v = e.eval(ctx)?;
                if !v.is_null()
                    && m.as_ref()
                        .is_none_or(|cur| v.cmp_total(cur) == std::cmp::Ordering::Less)
                {
                    *m = Some(v);
                }
            }
            (AggState::Max(m), AggFunc::Max(e)) => {
                let v = e.eval(ctx)?;
                if !v.is_null()
                    && m.as_ref()
                        .is_none_or(|cur| v.cmp_total(cur) == std::cmp::Ordering::Greater)
                {
                    *m = Some(v);
                }
            }
            (AggState::Avg { sum, count }, AggFunc::Avg(e)) => {
                if let Some(f) = e.eval(ctx)?.as_float() {
                    *sum += f;
                    *count += 1;
                }
            }
            (
                AggState::TopK { rows },
                AggFunc::TopK {
                    k,
                    sort,
                    output,
                    distinct,
                },
            ) => {
                if distinct.is_empty() {
                    // Non-distinct fast path: `rows` is kept sorted and
                    // truncated to `k` on every insert (merge re-sorts via
                    // `compact_topk`, so the invariant covers deserialized
                    // partials too). A candidate that sorts at-or-after the
                    // current k-th row can then be rejected *before* its
                    // key and output row are materialized — zero
                    // allocations for the common losing candidate. Ties
                    // lose, exactly as under `compact_topk`'s stable sort +
                    // truncate (earlier inserts win), so the final top-k is
                    // identical to the lazy path's.
                    if rows.len() >= *k {
                        let mut wins = false;
                        if let Some((worst, _, _)) = rows.last() {
                            for (i, (e, dir)) in sort.iter().enumerate() {
                                let v = e.eval(ctx)?;
                                let c = v.cmp_total(worst.get(i).unwrap_or(&Value::Null));
                                let c = match dir {
                                    Order::Asc => c,
                                    Order::Desc => c.reverse(),
                                };
                                match c {
                                    std::cmp::Ordering::Less => {
                                        wins = true;
                                        break;
                                    }
                                    std::cmp::Ordering::Greater => break,
                                    std::cmp::Ordering::Equal => {}
                                }
                            }
                        }
                        // `rows.last() == None` only when `k == 0`: nothing
                        // is ever kept, every candidate loses.
                        if !wins {
                            return Ok(());
                        }
                    }
                    let key = sort
                        .iter()
                        .map(|(e, _)| e.eval(ctx))
                        .collect::<GdResult<Vec<_>>>()?;
                    let row = output
                        .iter()
                        .map(|e| e.eval(ctx))
                        .collect::<GdResult<Vec<_>>>()?;
                    let pos = rows.partition_point(|(rk, _, _)| {
                        cmp_sort_keys(rk, &key, sort) != std::cmp::Ordering::Greater
                    });
                    rows.insert(pos, (key, row, Vec::new()));
                    rows.truncate(*k);
                } else {
                    // Distinct semantics: a worse candidate can still enter
                    // the top-k when better rows collapse under one
                    // distinct key, so candidates cannot be rejected early.
                    // Collect lazily and compact in batches.
                    let key = sort
                        .iter()
                        .map(|(e, _)| e.eval(ctx))
                        .collect::<GdResult<Vec<_>>>()?;
                    let row = output
                        .iter()
                        .map(|e| e.eval(ctx))
                        .collect::<GdResult<Vec<_>>>()?;
                    let dk = distinct
                        .iter()
                        .map(|e| Ok(e.eval(ctx)?.group_key()))
                        .collect::<GdResult<Vec<_>>>()?;
                    rows.push((key, row, dk));
                    if rows.len() > 2 * (*k).max(16) {
                        compact_topk(rows, *k, sort);
                    }
                }
            }
            (AggState::GroupCount { map }, AggFunc::GroupCount { key, .. }) => {
                *map.entry(key.eval(ctx)?.group_key()).or_insert(0) += 1;
            }
            (AggState::GroupSum { map }, AggFunc::GroupSum { key, value, .. }) => {
                let v = value.eval(ctx)?.as_int().unwrap_or(0);
                *map.entry(key.eval(ctx)?.group_key()).or_insert(0) += v;
            }
            (AggState::Collect { rows }, AggFunc::Collect { output, limit }) => {
                if rows.len() < *limit {
                    rows.push(
                        output
                            .iter()
                            .map(|e| e.eval(ctx))
                            .collect::<GdResult<Vec<_>>>()?,
                    );
                }
            }
            (state, func) => {
                return Err(GdError::Internal(format!(
                    "aggregation state/function mismatch: {state:?} vs {func:?}"
                )))
            }
        }
        Ok(())
    }

    /// Merge another partial into this one.
    pub fn merge(&mut self, func: &AggFunc, other: AggState) -> GdResult<()> {
        match (self, other) {
            (AggState::Count(a), AggState::Count(b)) => *a += b,
            (AggState::Sum(a), AggState::Sum(b)) => *a = add_values(a, &b)?,
            (AggState::Min(a), AggState::Min(b)) => {
                if let Some(v) = b {
                    if a.as_ref()
                        .is_none_or(|cur| v.cmp_total(cur) == std::cmp::Ordering::Less)
                    {
                        *a = Some(v);
                    }
                }
            }
            (AggState::Max(a), AggState::Max(b)) => {
                if let Some(v) = b {
                    if a.as_ref()
                        .is_none_or(|cur| v.cmp_total(cur) == std::cmp::Ordering::Greater)
                    {
                        *a = Some(v);
                    }
                }
            }
            (AggState::Avg { sum: s1, count: c1 }, AggState::Avg { sum: s2, count: c2 }) => {
                *s1 += s2;
                *c1 += c2;
            }
            (AggState::TopK { rows: a }, AggState::TopK { rows: b }) => {
                a.extend(b);
                if let AggFunc::TopK { k, sort, .. } = func {
                    compact_topk(a, *k, sort);
                }
            }
            (AggState::GroupCount { map: a }, AggState::GroupCount { map: b })
            | (AggState::GroupSum { map: a }, AggState::GroupSum { map: b }) => {
                for (k, v) in b {
                    *a.entry(k).or_insert(0) += v;
                }
            }
            (AggState::Collect { rows: a }, AggState::Collect { rows: b }) => {
                let limit = match func {
                    AggFunc::Collect { limit, .. } => *limit,
                    _ => usize::MAX,
                };
                a.extend(b);
                a.truncate(limit);
            }
            (a, b) => {
                return Err(GdError::Internal(format!(
                    "cannot merge mismatched partials {a:?} and {b:?}"
                )))
            }
        }
        Ok(())
    }

    /// Produce the final result rows.
    pub fn finalize(self, func: &AggFunc) -> Vec<Row> {
        match (self, func) {
            (AggState::Count(n), _) => vec![vec![Value::Int(n as i64)]],
            (AggState::Sum(v), _) => vec![vec![v]],
            (AggState::Min(m), _) | (AggState::Max(m), _) => {
                vec![vec![m.unwrap_or(Value::Null)]]
            }
            (AggState::Avg { sum, count }, _) => {
                vec![vec![if count == 0 {
                    Value::Null
                } else {
                    Value::Float(sum / count as f64)
                }]]
            }
            (AggState::TopK { mut rows }, AggFunc::TopK { k, sort, .. }) => {
                compact_topk(&mut rows, *k, sort);
                rows.into_iter().map(|(_, r, _)| r).collect()
            }
            (AggState::GroupCount { map }, AggFunc::GroupCount { order, limit, .. })
            | (AggState::GroupSum { map }, AggFunc::GroupSum { order, limit, .. }) => {
                let mut entries: Vec<(ValueKey, i64)> = map.into_iter().collect();
                match order {
                    GroupOrder::CountDesc => {
                        entries.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)))
                    }
                    GroupOrder::CountAsc => {
                        entries.sort_by(|a, b| a.1.cmp(&b.1).then_with(|| a.0.cmp(&b.0)))
                    }
                    GroupOrder::KeyAsc => entries.sort_by(|a, b| a.0.cmp(&b.0)),
                }
                entries.truncate(*limit);
                entries
                    .into_iter()
                    .map(|(k, v)| vec![k.to_value(), Value::Int(v)])
                    .collect()
            }
            (AggState::Collect { mut rows }, AggFunc::Collect { limit, .. }) => {
                rows.truncate(*limit);
                rows
            }
            (state, func) => {
                // Plan validation pairs every AggState with its AggFunc
                // before execution starts; a mismatch cannot arise at
                // runtime. lint: allow(hot-path-panics)
                unreachable!("finalize mismatch: {state:?} vs {func:?} (validated earlier)")
            }
        }
    }
}

fn add_values(a: &Value, b: &Value) -> GdResult<Value> {
    match (a, b) {
        (Value::Int(x), Value::Int(y)) => Ok(Value::Int(x + y)),
        _ => match (a.as_float(), b.as_float()) {
            (Some(x), Some(y)) => Ok(Value::Float(x + y)),
            _ => {
                if b.is_null() {
                    Ok(a.clone())
                } else {
                    Err(GdError::TypeError(format!("cannot sum {a} and {b}")))
                }
            }
        },
    }
}

/// Keep only the best `k` rows under the sort spec, and only the single
/// best row per non-empty distinct key. Dedup-before-truncate keeps the
/// operation associative: any interleaving of insert/merge/compact yields
/// the same final top-k.
fn compact_topk(
    rows: &mut Vec<(Vec<Value>, Row, Vec<ValueKey>)>,
    k: usize,
    sort: &[(graphdance_query::expr::Expr, Order)],
) {
    rows.sort_by(|a, b| cmp_sort_keys(&a.0, &b.0, sort));
    if rows.iter().any(|(_, _, d)| !d.is_empty()) {
        let mut seen: FxHashSet<Vec<ValueKey>> = FxHashSet::default();
        rows.retain(|(_, _, d)| d.is_empty() || seen.insert(d.clone()));
    }
    rows.truncate(k);
}

/// Compare two evaluated sort keys under the per-column directions.
pub fn cmp_sort_keys(
    a: &[Value],
    b: &[Value],
    sort: &[(graphdance_query::expr::Expr, Order)],
) -> std::cmp::Ordering {
    for (i, (_, dir)) in sort.iter().enumerate() {
        let (x, y) = (
            a.get(i).unwrap_or(&Value::Null),
            b.get(i).unwrap_or(&Value::Null),
        );
        let c = x.cmp_total(y);
        let c = match dir {
            Order::Asc => c,
            Order::Desc => c.reverse(),
        };
        if c != std::cmp::Ordering::Equal {
            return c;
        }
    }
    std::cmp::Ordering::Equal
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphdance_common::VertexId;
    use graphdance_query::expr::Expr;

    fn ctx_with_locals(locals: &[Value]) -> EvalCtx<'_> {
        EvalCtx {
            vertex: VertexId(1),
            record: None,
            locals,
            params: &[],
        }
    }

    fn feed(state: &mut AggState, func: &AggFunc, values: &[i64]) {
        for v in values {
            let locals = [Value::Int(*v)];
            state.insert(func, &ctx_with_locals(&locals)).unwrap();
        }
    }

    #[test]
    fn count_sum_min_max_avg() {
        let vals = [5i64, 1, 9, 3];
        let cases: Vec<(AggFunc, Vec<Row>)> = vec![
            (AggFunc::Count, vec![vec![Value::Int(4)]]),
            (AggFunc::Sum(Expr::Slot(0)), vec![vec![Value::Int(18)]]),
            (AggFunc::Min(Expr::Slot(0)), vec![vec![Value::Int(1)]]),
            (AggFunc::Max(Expr::Slot(0)), vec![vec![Value::Int(9)]]),
            (AggFunc::Avg(Expr::Slot(0)), vec![vec![Value::Float(4.5)]]),
        ];
        for (func, expect) in cases {
            let mut s = AggState::new(&func);
            feed(&mut s, &func, &vals);
            assert_eq!(s.finalize(&func), expect, "func {func:?}");
        }
    }

    #[test]
    fn merge_equals_single_stream() {
        let func = AggFunc::Sum(Expr::Slot(0));
        let mut a = AggState::new(&func);
        let mut b = AggState::new(&func);
        feed(&mut a, &func, &[1, 2, 3]);
        feed(&mut b, &func, &[10, 20]);
        a.merge(&func, b).unwrap();
        assert_eq!(a.finalize(&func), vec![vec![Value::Int(36)]]);
    }

    #[test]
    fn topk_orders_and_truncates() {
        let func = AggFunc::TopK {
            k: 3,
            sort: vec![(Expr::Slot(0), Order::Desc)],
            output: vec![Expr::Slot(0)],
            distinct: vec![],
        };
        let mut s = AggState::new(&func);
        feed(&mut s, &func, &[4, 8, 1, 9, 5, 2]);
        let rows = s.finalize(&func);
        assert_eq!(
            rows,
            vec![
                vec![Value::Int(9)],
                vec![Value::Int(8)],
                vec![Value::Int(5)]
            ]
        );
    }

    #[test]
    fn topk_merge_keeps_global_best() {
        let func = AggFunc::TopK {
            k: 2,
            sort: vec![(Expr::Slot(0), Order::Asc)],
            output: vec![Expr::Slot(0)],
            distinct: vec![],
        };
        let mut a = AggState::new(&func);
        let mut b = AggState::new(&func);
        feed(&mut a, &func, &[10, 3]);
        feed(&mut b, &func, &[1, 7]);
        a.merge(&func, b).unwrap();
        assert_eq!(
            a.finalize(&func),
            vec![vec![Value::Int(1)], vec![Value::Int(3)]]
        );
    }

    #[test]
    fn topk_compaction_under_pressure() {
        let func = AggFunc::TopK {
            k: 2,
            sort: vec![(Expr::Slot(0), Order::Desc)],
            output: vec![Expr::Slot(0)],
            distinct: vec![],
        };
        let mut s = AggState::new(&func);
        let vals: Vec<i64> = (0..500).collect();
        feed(&mut s, &func, &vals);
        // internal buffer stayed bounded
        if let AggState::TopK { rows } = &s {
            assert!(rows.len() <= 64, "buffer grew unbounded: {}", rows.len());
        }
        assert_eq!(
            s.finalize(&func),
            vec![vec![Value::Int(499)], vec![Value::Int(498)]]
        );
    }

    #[test]
    fn topk_distinct_keeps_best_row_per_key() {
        // Sort by slot 0 asc, distinct on slot 1: rows (3,A) (1,B) (2,A)
        // must finalize to [(1,B), (2,A)] — the worse duplicate of A loses
        // no matter which order (or partial) it arrived in.
        let func = AggFunc::TopK {
            k: 10,
            sort: vec![(Expr::Slot(0), Order::Asc)],
            output: vec![Expr::Slot(0), Expr::Slot(1)],
            distinct: vec![Expr::Slot(1)],
        };
        let feed_pairs = |state: &mut AggState, pairs: &[(i64, i64)]| {
            for (v, g) in pairs {
                let locals = [Value::Int(*v), Value::Int(*g)];
                state.insert(&func, &ctx_with_locals(&locals)).unwrap();
            }
        };
        let expect = vec![
            vec![Value::Int(1), Value::Int(8)],
            vec![Value::Int(2), Value::Int(7)],
        ];
        // Single stream, duplicate arriving before its better row.
        let mut s = AggState::new(&func);
        feed_pairs(&mut s, &[(3, 7), (1, 8), (2, 7)]);
        assert_eq!(s.finalize(&func), expect);
        // Duplicates split across merged partials.
        let mut a = AggState::new(&func);
        let mut b = AggState::new(&func);
        feed_pairs(&mut a, &[(3, 7), (1, 8)]);
        feed_pairs(&mut b, &[(2, 7)]);
        a.merge(&func, b).unwrap();
        assert_eq!(a.finalize(&func), expect);
    }

    #[test]
    fn group_count_ordering() {
        let func = AggFunc::GroupCount {
            key: Expr::Slot(0),
            order: GroupOrder::CountDesc,
            limit: 2,
        };
        let mut s = AggState::new(&func);
        feed(&mut s, &func, &[7, 7, 7, 3, 3, 9]);
        let rows = s.finalize(&func);
        assert_eq!(
            rows,
            vec![
                vec![Value::Int(7), Value::Int(3)],
                vec![Value::Int(3), Value::Int(2)]
            ]
        );
    }

    #[test]
    fn group_count_tie_break_by_key() {
        let func = AggFunc::GroupCount {
            key: Expr::Slot(0),
            order: GroupOrder::CountDesc,
            limit: 10,
        };
        let mut s = AggState::new(&func);
        feed(&mut s, &func, &[5, 2, 2, 5]);
        let rows = s.finalize(&func);
        assert_eq!(rows[0][0], Value::Int(2), "ties broken by ascending key");
        assert_eq!(rows[1][0], Value::Int(5));
    }

    #[test]
    fn group_sum() {
        let func = AggFunc::GroupSum {
            key: Expr::Slot(0),
            value: Expr::Slot(0),
            order: GroupOrder::KeyAsc,
            limit: 10,
        };
        let mut s = AggState::new(&func);
        feed(&mut s, &func, &[2, 2, 4]);
        assert_eq!(
            s.finalize(&func),
            vec![
                vec![Value::Int(2), Value::Int(4)],
                vec![Value::Int(4), Value::Int(4)]
            ]
        );
    }

    #[test]
    fn collect_respects_limit() {
        let func = AggFunc::Collect {
            output: vec![Expr::Slot(0)],
            limit: 2,
        };
        let mut s = AggState::new(&func);
        feed(&mut s, &func, &[1, 2, 3, 4]);
        assert_eq!(s.finalize(&func).len(), 2);
    }

    #[test]
    fn empty_aggregations() {
        for func in [
            AggFunc::Min(Expr::Slot(0)),
            AggFunc::Max(Expr::Slot(0)),
            AggFunc::Avg(Expr::Slot(0)),
        ] {
            let s = AggState::new(&func);
            assert_eq!(s.finalize(&func), vec![vec![Value::Null]]);
        }
        let s = AggState::new(&AggFunc::Count);
        assert_eq!(s.finalize(&AggFunc::Count), vec![vec![Value::Int(0)]]);
    }

    #[test]
    fn mismatched_merge_rejected() {
        let mut a = AggState::new(&AggFunc::Count);
        let b = AggState::new(&AggFunc::Sum(Expr::Slot(0)));
        assert!(a.merge(&AggFunc::Count, b).is_err());
    }

    #[test]
    fn sum_ignores_nulls() {
        let func = AggFunc::Sum(Expr::Slot(0));
        let mut s = AggState::new(&func);
        s.insert(&func, &ctx_with_locals(&[Value::Int(5)])).unwrap();
        s.insert(&func, &ctx_with_locals(&[Value::Null])).unwrap();
        assert_eq!(s.finalize(&func), vec![vec![Value::Int(5)]]);
    }
}
