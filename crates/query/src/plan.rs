//! The physical traversal plan: what every execution engine interprets.
//!
//! A [`Plan`] is a sequence of [`Stage`]s. Each stage is one progress-
//! tracking **scope** (§III-C): all of its pipelines run to completion —
//! detected by the weight mechanism — before the next stage starts. A stage
//! ends either in an aggregation (whose per-partition partial states live in
//! the memoranda and are merged by the coordinator on scope completion,
//! Fig. 6) or in plain row emission.
//!
//! Within a stage, several [`Pipeline`]s may run concurrently; two pipelines
//! can meet at a double-pipelined [`PlanStep::Join`] (§III-A). Pipelines are
//! sequences of [`PlanStep`]s interpreted by a traverser's program counter.

use serde::{Deserialize, Serialize};

use graphdance_common::{GdError, GdResult, Label, PropKey, Value};
use graphdance_storage::Direction;

use crate::expr::Expr;

pub use crate::expr::Slot;

/// Sort order for `TopK`/`OrderBy`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Order {
    Asc,
    Desc,
}

/// How a pipeline's initial traversers are created.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum SourceSpec {
    /// Start at the vertex given by a `Value::Vertex` query parameter
    /// (compiled from `g.V($id)` — an id-based index lookup).
    Param { param: usize },
    /// Index lookup: all vertices with `label` whose `key` equals the
    /// parameter (compiled by the `IndexLookUpStrategy` from
    /// `V().hasLabel(l).has(key, eq(v))`). Runs on every partition.
    IndexLookup {
        label: Label,
        key: PropKey,
        value: Expr,
    },
    /// Full label scan on every partition.
    ScanLabel { label: Label },
    /// One traverser per output row of the previous stage. The traverser is
    /// placed at the vertex found in column `vertex_col` of the row, and its
    /// slots are seeded from row columns via `(slot, column)` pairs.
    PrevRows {
        vertex_col: usize,
        seed: Vec<(Slot, usize)>,
    },
}

/// One step of a pipeline.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum PlanStep {
    /// Spawn one sub-traverser per incident edge (Gremlin `out`/`in`/`both`).
    /// Edge properties can be captured into slots while the edge is at hand.
    Expand {
        dir: Direction,
        label: Label,
        /// `(edge property, destination slot)` loads.
        edge_loads: Vec<(PropKey, Slot)>,
    },
    /// Drop the traverser unless the predicate holds.
    Filter(Expr),
    /// Copy current-vertex properties into slots (local read at the owner).
    Load(Vec<(PropKey, Slot)>),
    /// Assign slots from expressions.
    Compute(Vec<(Slot, Expr)>),
    /// Memo-backed deduplication (§III-A): the first traverser to present a
    /// given key in a given partition survives; later ones are pruned.
    /// The key is the current vertex plus the values of `slots` (often
    /// empty, giving plain per-vertex dedup). Partitionable by
    /// `H(current vertex)`.
    Dedup { slots: Vec<Slot> },
    /// Multi-hop minimum-distance pruning (Fig. 5): the memo records the
    /// best known distance per vertex; a traverser whose distance slot is
    /// `>=` the recorded value is pruned, otherwise it updates the record
    /// and survives. Gives the `O(k|E|)` bound of §III-B.
    MinDist { dist_slot: Slot },
    /// Loop bookkeeping for `repeat(..).times(min..=max)`. Placed after the
    /// loop body: increments the counter slot; while `counter < max` the
    /// traverser continues at `back_to` (looping), and when
    /// `counter >= min` it also falls through to the next step (emitting).
    /// When both apply, the traverser forks (weight split in two).
    LoopEnd {
        counter: Slot,
        min: i64,
        max: i64,
        back_to: u16,
    },
    /// Double-pipelined join (§III-A). The traverser is routed to the
    /// partition owning the join key; it inserts its register file into the
    /// memo table of its `side` and probes the opposite side's table; each
    /// match spawns a merged continuation traverser. Partitionable by
    /// `H(join key)`.
    Join {
        join_id: u16,
        side: JoinSide,
        key: Expr,
    },
    /// Route the traverser to the owner partition of the vertex in a slot
    /// and continue there with the current vertex set to it (used to read
    /// properties of a remembered vertex).
    MoveTo { vertex_slot: Slot },
}

/// The two inputs of a double-pipelined join.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum JoinSide {
    /// The side whose pipeline carries the continuation steps.
    Probe,
    /// The other side; its pipeline ends at the `Join` step.
    Build,
}

/// Join metadata shared by the two sides.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct JoinSpec {
    /// Join identifier referenced by `PlanStep::Join`.
    pub join_id: u16,
    /// Pipeline index (within the stage) holding the continuation steps.
    pub probe_pipeline: u16,
}

/// Aggregation functions (§III-C). All are commutative + associative, so
/// per-partition partials combine in any order.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum AggFunc {
    /// Row count.
    Count,
    /// Sum of an expression (Int or Float).
    Sum(Expr),
    /// Minimum of an expression.
    Min(Expr),
    /// Maximum of an expression.
    Max(Expr),
    /// Mean of an expression.
    Avg(Expr),
    /// Top-`k` rows ordered by `sort` keys; each kept row is the evaluated
    /// `output` expressions. When `distinct` is non-empty, only the
    /// best-sorted row per distinct key survives — this runs inside the
    /// (commutative, associative) aggregation, so it is exact even when
    /// asynchronous execution delivers candidate rows out of order (e.g.
    /// `MinDist` letting both a longer and a shorter path through).
    TopK {
        k: usize,
        sort: Vec<(Expr, Order)>,
        output: Vec<Expr>,
        distinct: Vec<Expr>,
    },
    /// Count per group key, returning `(key, count)` rows ordered by
    /// `order`, limited to `limit` rows.
    GroupCount {
        key: Expr,
        order: GroupOrder,
        limit: usize,
    },
    /// Sum of `value` per group key, same output shape as `GroupCount`.
    GroupSum {
        key: Expr,
        value: Expr,
        order: GroupOrder,
        limit: usize,
    },
    /// Collect up to `limit` rows of `output` expressions (unordered).
    Collect { output: Vec<Expr>, limit: usize },
}

/// Ordering of grouped results.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum GroupOrder {
    /// Largest aggregate first, ties by ascending key.
    CountDesc,
    /// Smallest aggregate first, ties by ascending key.
    CountAsc,
    /// Ascending key.
    KeyAsc,
}

/// A stage-terminal aggregation.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct AggSpec {
    /// The function.
    pub func: AggFunc,
}

/// One pipeline: a source plus a step sequence. A traverser's position in
/// the program is `(pipeline index, step index)`.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Pipeline {
    /// How initial traversers are created.
    pub source: SourceSpec,
    /// The steps. A traverser finishing the last step *emits*: its row
    /// (the stage's `output` expressions) goes to the stage terminal
    /// (aggregation memo or coordinator).
    pub steps: Vec<PlanStep>,
}

/// One stage = one progress-tracking scope.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Stage {
    /// Concurrent pipelines.
    pub pipelines: Vec<Pipeline>,
    /// Join metadata for `Join` steps appearing in this stage.
    pub joins: Vec<JoinSpec>,
    /// Row constructor evaluated when a traverser completes its pipeline.
    pub output: Vec<Expr>,
    /// Terminal aggregation; `None` emits raw rows.
    pub agg: Option<AggSpec>,
    /// Number of local slots traversers of this stage carry.
    pub num_slots: usize,
}

/// A complete compiled query.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Plan {
    /// Stages executed sequentially; rows of stage `i` feed the
    /// `SourceSpec::PrevRows` sources of stage `i + 1`.
    pub stages: Vec<Stage>,
    /// Number of parameters the plan expects.
    pub num_params: usize,
}

impl Plan {
    /// The check every engine makes before it runs the plan on `params`:
    /// the plan [validates](Plan::validate) and `params` holds every
    /// parameter it reads.
    pub fn check_call(&self, params: &[Value]) -> GdResult<()> {
        self.validate().map_err(GdError::InvalidProgram)?;
        if params.len() < self.num_params {
            return Err(GdError::InvalidProgram(format!(
                "plan needs {} params, got {}",
                self.num_params,
                params.len()
            )));
        }
        Ok(())
    }

    /// Validate structural invariants; returns a human-readable error for
    /// malformed plans. Engines may assume a validated plan.
    pub fn validate(&self) -> Result<(), String> {
        if self.stages.is_empty() {
            return Err("plan has no stages".into());
        }
        for (si, stage) in self.stages.iter().enumerate() {
            if stage.pipelines.is_empty() {
                return Err(format!("stage {si} has no pipelines"));
            }
            if stage.output.is_empty() && stage.agg.is_none() {
                return Err(format!(
                    "stage {si} has neither output columns nor aggregation"
                ));
            }
            for (pi, pl) in stage.pipelines.iter().enumerate() {
                if si == 0 && matches!(pl.source, SourceSpec::PrevRows { .. }) {
                    return Err(format!("stage 0 pipeline {pi} cannot read previous rows"));
                }
                for (sti, step) in pl.steps.iter().enumerate() {
                    match step {
                        PlanStep::LoopEnd {
                            back_to, min, max, ..
                        } => {
                            if *back_to as usize >= sti {
                                return Err(format!(
                                    "stage {si} pipeline {pi}: LoopEnd at {sti} must jump backwards"
                                ));
                            }
                            if min > max || *min < 0 {
                                return Err(format!(
                                    "stage {si} pipeline {pi}: bad loop bounds {min}..{max}"
                                ));
                            }
                        }
                        PlanStep::Join { join_id, side, .. } => {
                            let spec = stage
                                .joins
                                .iter()
                                .find(|j| j.join_id == *join_id)
                                .ok_or(format!("stage {si}: join {join_id} has no spec"))?;
                            if *side == JoinSide::Probe && spec.probe_pipeline as usize != pi {
                                return Err(format!(
                                    "stage {si}: probe side of join {join_id} must live in \
                                     pipeline {}",
                                    spec.probe_pipeline
                                ));
                            }
                            if *side == JoinSide::Build && sti != pl.steps.len() - 1 {
                                return Err(format!(
                                    "stage {si} pipeline {pi}: build side of join {join_id} \
                                     must be the pipeline's last step"
                                ));
                            }
                        }
                        _ => {}
                    }
                }
            }
            if si > 0 {
                let feeds_prev = stage
                    .pipelines
                    .iter()
                    .any(|p| matches!(p.source, SourceSpec::PrevRows { .. }));
                if !feeds_prev {
                    return Err(format!("stage {si} never consumes previous stage rows"));
                }
            }
        }
        Ok(())
    }

    /// Total number of steps across all stages/pipelines (diagnostics).
    pub fn num_steps(&self) -> usize {
        self.stages
            .iter()
            .map(|s| s.pipelines.iter().map(|p| p.steps.len()).sum::<usize>())
            .sum()
    }
}

/// Parameter list passed at submission time.
pub type Params = Vec<Value>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;

    #[test]
    fn check_call_wants_a_valid_plan_and_every_param() {
        let plan = Plan {
            stages: vec![leaf_stage()],
            num_params: 1,
        };
        assert!(plan.check_call(&[Value::Int(3)]).is_ok());
        let short = plan.check_call(&[]).unwrap_err();
        assert!(matches!(&short, GdError::InvalidProgram(m) if m.contains("needs 1 params")));
        let empty = Plan {
            stages: vec![],
            num_params: 0,
        };
        let invalid = empty.check_call(&[]).unwrap_err();
        assert!(matches!(&invalid, GdError::InvalidProgram(m) if m.contains("no stages")));
    }

    fn leaf_stage() -> Stage {
        Stage {
            pipelines: vec![Pipeline {
                source: SourceSpec::Param { param: 0 },
                steps: vec![],
            }],
            joins: vec![],
            output: vec![Expr::VertexId],
            agg: None,
            num_slots: 0,
        }
    }

    #[test]
    fn empty_plan_invalid() {
        assert!(Plan {
            stages: vec![],
            num_params: 0
        }
        .validate()
        .is_err());
    }

    #[test]
    fn minimal_plan_valid() {
        let p = Plan {
            stages: vec![leaf_stage()],
            num_params: 1,
        };
        assert!(p.validate().is_ok());
        assert_eq!(p.num_steps(), 0);
    }

    #[test]
    fn loop_must_jump_backwards() {
        let mut s = leaf_stage();
        s.pipelines[0].steps = vec![PlanStep::LoopEnd {
            counter: 0,
            min: 1,
            max: 2,
            back_to: 0,
        }];
        let p = Plan {
            stages: vec![s],
            num_params: 1,
        };
        assert!(p.validate().unwrap_err().contains("backwards"));
    }

    #[test]
    fn bad_loop_bounds_rejected() {
        let mut s = leaf_stage();
        s.pipelines[0].steps = vec![
            PlanStep::Expand {
                dir: Direction::Out,
                label: Label(0),
                edge_loads: vec![],
            },
            PlanStep::LoopEnd {
                counter: 0,
                min: 3,
                max: 2,
                back_to: 0,
            },
        ];
        let p = Plan {
            stages: vec![s],
            num_params: 1,
        };
        assert!(p.validate().unwrap_err().contains("bad loop bounds"));
    }

    #[test]
    fn join_requires_spec() {
        let mut s = leaf_stage();
        s.pipelines[0].steps = vec![PlanStep::Join {
            join_id: 0,
            side: JoinSide::Probe,
            key: Expr::VertexId,
        }];
        let p = Plan {
            stages: vec![s],
            num_params: 1,
        };
        assert!(p.validate().unwrap_err().contains("no spec"));
    }

    #[test]
    fn build_side_must_be_terminal() {
        let mut s = leaf_stage();
        s.joins = vec![JoinSpec {
            join_id: 0,
            probe_pipeline: 0,
        }];
        s.pipelines.push(Pipeline {
            source: SourceSpec::Param { param: 0 },
            steps: vec![
                PlanStep::Join {
                    join_id: 0,
                    side: JoinSide::Build,
                    key: Expr::VertexId,
                },
                PlanStep::Filter(Expr::Const(Value::Bool(true))),
            ],
        });
        s.pipelines[0].steps = vec![PlanStep::Join {
            join_id: 0,
            side: JoinSide::Probe,
            key: Expr::VertexId,
        }];
        let p = Plan {
            stages: vec![s],
            num_params: 1,
        };
        assert!(p.validate().unwrap_err().contains("last step"));
    }

    #[test]
    fn later_stage_must_consume_rows() {
        let p = Plan {
            stages: vec![leaf_stage(), leaf_stage()],
            num_params: 1,
        };
        assert!(p.validate().unwrap_err().contains("never consumes"));
    }

    #[test]
    fn staged_plan_valid() {
        let mut s2 = leaf_stage();
        s2.pipelines[0].source = SourceSpec::PrevRows {
            vertex_col: 0,
            seed: vec![],
        };
        let p = Plan {
            stages: vec![leaf_stage(), s2],
            num_params: 1,
        };
        assert!(p.validate().is_ok());
    }

    #[test]
    fn stage_without_output_or_agg_rejected() {
        let mut s = leaf_stage();
        s.output.clear();
        let p = Plan {
            stages: vec![s],
            num_params: 1,
        };
        assert!(p.validate().unwrap_err().contains("neither output"));
    }

    use graphdance_common::{Label, Value};
    use graphdance_storage::Direction;
}

impl Plan {
    /// Human-readable plan rendering (EXPLAIN-style), resolving labels and
    /// property keys through the schema.
    pub fn explain(&self, schema: &graphdance_storage::Schema) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "Plan ({} stages, {} params)",
            self.stages.len(),
            self.num_params
        );
        for (si, stage) in self.stages.iter().enumerate() {
            let agg = match &stage.agg {
                None => "emit rows".to_string(),
                Some(a) => format!("{:?}", discriminant_name(&a.func)),
            };
            let _ = writeln!(
                out,
                "  stage {si} [scope {si}] -> {agg} ({} slots)",
                stage.num_slots
            );
            for (pi, pipe) in stage.pipelines.iter().enumerate() {
                let src = match &pipe.source {
                    SourceSpec::Param { param } => format!("V(${param})"),
                    SourceSpec::ScanLabel { label } => {
                        format!("scan {}", schema.vertex_label_name(*label))
                    }
                    SourceSpec::IndexLookup { label, key, .. } => format!(
                        "index {}[{}]",
                        schema.vertex_label_name(*label),
                        schema.prop_name(*key)
                    ),
                    SourceSpec::PrevRows { vertex_col, .. } => {
                        format!("prev-rows[col {vertex_col}]")
                    }
                };
                let _ = writeln!(out, "    pipeline {pi}: {src}");
                for (sti, step) in pipe.steps.iter().enumerate() {
                    let desc = match step {
                        PlanStep::Expand {
                            dir,
                            label,
                            edge_loads,
                        } => format!(
                            "expand {:?} {}{}",
                            dir,
                            schema.edge_label_name(*label),
                            if edge_loads.is_empty() {
                                String::new()
                            } else {
                                format!(" (+{} edge props)", edge_loads.len())
                            }
                        ),
                        PlanStep::Filter(_) => "filter".into(),
                        PlanStep::Load(l) => format!(
                            "load {}",
                            l.iter()
                                .map(|(k, _)| schema.prop_name(*k))
                                .collect::<Vec<_>>()
                                .join(", ")
                        ),
                        PlanStep::Compute(c) => format!("compute {} slot(s)", c.len()),
                        PlanStep::Dedup { slots } => {
                            if slots.is_empty() {
                                "dedup(vertex)".into()
                            } else {
                                format!("dedup(vertex + {} slots)", slots.len())
                            }
                        }
                        PlanStep::MinDist { dist_slot } => format!("min-dist[s{dist_slot}]"),
                        PlanStep::LoopEnd {
                            min, max, back_to, ..
                        } => {
                            format!("loop {min}..={max} -> step {back_to}")
                        }
                        PlanStep::Join { join_id, side, .. } => {
                            format!("join #{join_id} ({side:?} side)")
                        }
                        PlanStep::MoveTo { vertex_slot } => format!("move-to[s{vertex_slot}]"),
                    };
                    let _ = writeln!(out, "      {sti}: {desc}");
                }
            }
        }
        out
    }
}

fn discriminant_name(f: &AggFunc) -> &'static str {
    match f {
        AggFunc::Count => "count",
        AggFunc::Sum(_) => "sum",
        AggFunc::Min(_) => "min",
        AggFunc::Max(_) => "max",
        AggFunc::Avg(_) => "avg",
        AggFunc::TopK { .. } => "top-k",
        AggFunc::GroupCount { .. } => "group-count",
        AggFunc::GroupSum { .. } => "group-sum",
        AggFunc::Collect { .. } => "collect",
    }
}

#[cfg(test)]
mod explain_tests {
    use super::*;
    use crate::expr::Expr;
    use graphdance_storage::Schema;

    #[test]
    fn explain_renders_all_step_kinds() {
        let mut schema = Schema::new();
        let person = schema.register_vertex_label("Person");
        let knows = schema.register_edge_label("knows");
        let name = schema.register_prop("name");
        let plan = Plan {
            stages: vec![Stage {
                pipelines: vec![Pipeline {
                    source: SourceSpec::IndexLookup {
                        label: person,
                        key: name,
                        value: Expr::Param(0),
                    },
                    steps: vec![
                        PlanStep::Expand {
                            dir: Direction::Both,
                            label: knows,
                            edge_loads: vec![],
                        },
                        PlanStep::LoopEnd {
                            counter: 0,
                            min: 1,
                            max: 3,
                            back_to: 0,
                        },
                        PlanStep::Dedup { slots: vec![] },
                        PlanStep::Load(vec![(name, 1)]),
                    ],
                }],
                joins: vec![],
                output: vec![Expr::VertexId],
                agg: Some(AggSpec {
                    func: AggFunc::TopK {
                        k: 10,
                        sort: vec![],
                        output: vec![Expr::VertexId],
                        distinct: vec![],
                    },
                }),
                num_slots: 2,
            }],
            num_params: 1,
        };
        let text = plan.explain(&schema);
        for needle in [
            "index Person[name]",
            "expand Both knows",
            "loop 1..=3",
            "dedup(vertex)",
            "load name",
            "top-k",
        ] {
            assert!(text.contains(needle), "missing `{needle}` in:\n{text}");
        }
    }
}
