//! Cost-based planning for path patterns (§III-A, Fig. 3).
//!
//! Given a path pattern anchored at both endpoints (e.g. *Person → knows*1..2
//! → Person → hasCreator⁻¹ → Post → hasTag → Tag*), the planner chooses
//! between:
//!
//! * **unidirectional expansion** from one endpoint, and
//! * a **bidirectional join**: expand from both endpoints and meet at an
//!   interior vertex with a double-pipelined join (§III-A),
//!
//! minimizing the estimated number of matched partial paths using
//! [`GraphStats`] fan-out estimates.

use graphdance_common::{GdResult, Label, PropKey};
use graphdance_storage::{Direction, GraphStats};

use crate::expr::{Expr, Slot};
use crate::plan::{AggSpec, JoinSide, JoinSpec, Pipeline, Plan, PlanStep, SourceSpec, Stage};

/// One hop of a pattern path, read left-to-right.
#[derive(Clone, Debug)]
pub struct PatternHop {
    /// Edge direction, as written left-to-right.
    pub dir: Direction,
    /// Edge label.
    pub label: Label,
    /// Optional predicate on the vertex *reached* by this hop.
    pub filter: Option<Expr>,
    /// Properties to capture at the reached vertex.
    pub loads: Vec<(PropKey, Slot)>,
}

impl PatternHop {
    /// A plain hop.
    pub fn new(dir: Direction, label: Label) -> Self {
        PatternHop {
            dir,
            label,
            filter: None,
            loads: vec![],
        }
    }

    /// Attach a vertex predicate.
    pub fn with_filter(mut self, f: Expr) -> Self {
        self.filter = Some(f);
        self
    }

    fn reversed_dir(&self) -> Direction {
        match self.dir {
            Direction::Out => Direction::In,
            Direction::In => Direction::Out,
            Direction::Both => Direction::Both,
        }
    }
}

/// A doubly-anchored path pattern plus the query tail (output/aggregation).
#[derive(Clone, Debug)]
pub struct PathPattern {
    /// Source anchoring the left endpoint.
    pub left: SourceSpec,
    /// Source anchoring the right endpoint.
    pub right: SourceSpec,
    /// Hops from left to right.
    pub hops: Vec<PatternHop>,
    /// Output row of the resulting stage.
    pub output: Vec<Expr>,
    /// Optional terminal aggregation.
    pub agg: Option<AggSpec>,
    /// Register-file size for the stage.
    pub num_slots: usize,
}

/// The planner's decision, kept for explain-style tests.
#[derive(Clone, Debug, PartialEq)]
pub struct PlanChoice {
    /// The chosen meeting point: hop boundary index in `0..=hops.len()`.
    /// `0` = expand everything from the right; `hops.len()` = everything
    /// from the left; interior = bidirectional join at that vertex.
    pub split: usize,
    /// Estimated cost (total expanded frontier size).
    pub est_cost: f64,
}

/// Cost-based planner over a [`PathPattern`].
pub struct JoinPlanner<'a> {
    stats: &'a GraphStats,
}

impl<'a> JoinPlanner<'a> {
    /// Create a planner over collected statistics.
    pub fn new(stats: &'a GraphStats) -> Self {
        JoinPlanner { stats }
    }

    /// Estimated fan-out of a hop in its traversal direction: edges with
    /// the hop's label divided by the number of vertices that actually
    /// carry such edges on the expanded side.
    fn fan(&self, hop: &PatternHop) -> f64 {
        let e = *self.stats.edges_by_label.get(&hop.label).unwrap_or(&0) as f64;
        let src = *self.stats.src_by_label.get(&hop.label).unwrap_or(&0) as f64;
        let dst = *self.stats.dst_by_label.get(&hop.label).unwrap_or(&0) as f64;
        let raw = match hop.dir {
            Direction::Out => e / src.max(1.0),
            Direction::In => e / dst.max(1.0),
            Direction::Both => e / src.max(1.0) + e / dst.max(1.0),
        };
        // A filter on the reached vertex reduces the surviving frontier; we
        // use a fixed selectivity in the absence of per-predicate stats.
        let sel = if hop.filter.is_some() { 0.5 } else { 1.0 };
        raw.max(0.05) * sel
    }

    /// The fan used when this hop is traversed right-to-left.
    fn fan_reversed(&self, hop: &PatternHop) -> f64 {
        let mut h = hop.clone();
        h.dir = hop.reversed_dir();
        self.fan(&h)
    }

    /// Evaluate the cost of splitting at hop boundary `k`: the sum of all
    /// intermediate frontier sizes produced by both sides.
    pub fn cost_of_split(&self, hops: &[PatternHop], k: usize) -> f64 {
        let mut cost = 0.0;
        let mut frontier = 1.0;
        for hop in &hops[..k] {
            frontier *= self.fan(hop);
            cost += frontier;
        }
        let mut frontier = 1.0;
        for hop in hops[k..].iter().rev() {
            frontier *= self.fan_reversed(hop);
            cost += frontier;
        }
        cost
    }

    /// Choose the cheapest split point.
    pub fn choose(&self, pattern: &PathPattern) -> PlanChoice {
        let n = pattern.hops.len();
        let mut best = PlanChoice {
            split: n,
            est_cost: f64::INFINITY,
        };
        for k in 0..=n {
            let c = self.cost_of_split(&pattern.hops, k);
            if c < best.est_cost {
                best = PlanChoice {
                    split: k,
                    est_cost: c,
                };
            }
        }
        best
    }

    /// Produce the physical plan for the chosen split.
    pub fn plan(&self, pattern: &PathPattern) -> GdResult<(Plan, PlanChoice)> {
        let choice = self.choose(pattern);
        let plan = self.plan_with_split(pattern, choice.split)?;
        Ok((plan, choice))
    }

    /// Produce the plan for an explicit split point (0 = all-from-right,
    /// `hops.len()` = all-from-left, interior = bidirectional join). Used
    /// by the Fig. 3 harness to compare the planner's pick against forced
    /// unidirectional execution.
    pub fn plan_with_split(&self, pattern: &PathPattern, split: usize) -> GdResult<Plan> {
        let n = pattern.hops.len();
        let stage = if split == n {
            // Pure left-to-right expansion.
            let mut steps = Vec::new();
            for hop in &pattern.hops {
                push_hop(&mut steps, hop, hop.dir);
            }
            // The right anchor becomes a filter on the final vertex.
            push_anchor_filter(&mut steps, &pattern.right);
            Stage {
                pipelines: vec![Pipeline {
                    source: pattern.left.clone(),
                    steps,
                }],
                joins: vec![],
                output: pattern.output.clone(),
                agg: pattern.agg.clone(),
                num_slots: pattern.num_slots,
            }
        } else if split == 0 {
            // Pure right-to-left expansion.
            let mut steps = Vec::new();
            for hop in pattern.hops.iter().rev() {
                push_hop(&mut steps, hop, hop.reversed_dir());
            }
            push_anchor_filter(&mut steps, &pattern.left);
            Stage {
                pipelines: vec![Pipeline {
                    source: pattern.right.clone(),
                    steps,
                }],
                joins: vec![],
                output: pattern.output.clone(),
                agg: pattern.agg.clone(),
                num_slots: pattern.num_slots,
            }
        } else {
            // Bidirectional join meeting after hop `split` (PathA ⋈ PathB at
            // the shared interior vertex, Fig. 3).
            let mut a_steps = Vec::new();
            for hop in &pattern.hops[..split] {
                push_hop(&mut a_steps, hop, hop.dir);
            }
            a_steps.push(PlanStep::Join {
                join_id: 0,
                side: JoinSide::Probe,
                key: Expr::VertexId,
            });
            let mut b_steps = Vec::new();
            for hop in pattern.hops[split..].iter().rev() {
                push_hop(&mut b_steps, hop, hop.reversed_dir());
            }
            b_steps.push(PlanStep::Join {
                join_id: 0,
                side: JoinSide::Build,
                key: Expr::VertexId,
            });
            Stage {
                pipelines: vec![
                    Pipeline {
                        source: pattern.left.clone(),
                        steps: a_steps,
                    },
                    Pipeline {
                        source: pattern.right.clone(),
                        steps: b_steps,
                    },
                ],
                joins: vec![JoinSpec {
                    join_id: 0,
                    probe_pipeline: 0,
                }],
                output: pattern.output.clone(),
                agg: pattern.agg.clone(),
                num_slots: pattern.num_slots,
            }
        };
        let plan = Plan {
            stages: vec![stage],
            num_params: count_params(pattern),
        };
        plan.validate()
            .map_err(graphdance_common::GdError::InvalidProgram)?;
        Ok(plan)
    }
}

fn push_hop(steps: &mut Vec<PlanStep>, hop: &PatternHop, dir: Direction) {
    steps.push(PlanStep::Expand {
        dir,
        label: hop.label,
        edge_loads: vec![],
    });
    if let Some(f) = &hop.filter {
        steps.push(PlanStep::Filter(f.clone()));
    }
    if !hop.loads.is_empty() {
        steps.push(PlanStep::Load(hop.loads.clone()));
    }
}

/// When one endpoint is expanded *towards*, its anchor becomes a filter on
/// the arrival vertex.
fn push_anchor_filter(steps: &mut Vec<PlanStep>, anchor: &SourceSpec) {
    match anchor {
        SourceSpec::Param { param } => {
            steps.push(PlanStep::Filter(Expr::eq(
                Expr::VertexId,
                Expr::Param(*param),
            )));
        }
        SourceSpec::IndexLookup { label, key, value } => {
            steps.push(PlanStep::Filter(Expr::And(vec![
                Expr::LabelIs(*label),
                Expr::eq(Expr::Prop(*key), value.clone()),
            ])));
        }
        SourceSpec::ScanLabel { label } => {
            steps.push(PlanStep::Filter(Expr::LabelIs(*label)));
        }
        SourceSpec::PrevRows { .. } => {}
    }
}

fn count_params(p: &PathPattern) -> usize {
    fn expr_max(e: &Expr, m: &mut usize) {
        match e {
            Expr::Param(i) => *m = (*m).max(*i + 1),
            Expr::Cmp(a, _, b) | Expr::Add(a, b) | Expr::Sub(a, b) | Expr::Mul(a, b) => {
                expr_max(a, m);
                expr_max(b, m);
            }
            Expr::And(xs) | Expr::Or(xs) | Expr::Tuple(xs) => {
                xs.iter().for_each(|x| expr_max(x, m))
            }
            Expr::Not(x) | Expr::IsNull(x) | Expr::In(x, _) | Expr::Month(x) | Expr::Day(x) => {
                expr_max(x, m);
            }
            _ => {}
        }
    }
    let mut m = 0;
    let mut visit_source = |s: &SourceSpec| {
        if let SourceSpec::Param { param } = s {
            m = m.max(param + 1);
        }
        if let SourceSpec::IndexLookup { value, .. } = s {
            expr_max(value, &mut m);
        }
    };
    visit_source(&p.left);
    visit_source(&p.right);
    for h in &p.hops {
        if let Some(f) = &h.filter {
            expr_max(f, &mut m);
        }
    }
    for e in &p.output {
        expr_max(e, &mut m);
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphdance_common::FxHashMap;

    /// Stats where label 0 ("knows") has high fan-out and label 1
    /// ("hasTag", traversed from the Tag side) has low fan-out.
    fn skewed_stats() -> GraphStats {
        let mut edges_by_label = FxHashMap::default();
        edges_by_label.insert(Label(0), 50_000u64); // fan 50
        edges_by_label.insert(Label(1), 2_000u64); // fan 2
        let mut srcs = FxHashMap::default();
        srcs.insert(Label(0), 1_000u64);
        srcs.insert(Label(1), 1_000u64);
        GraphStats {
            num_vertices: 1_000,
            num_edges: 52_000,
            vertices_by_label: FxHashMap::default(),
            edges_by_label,
            src_by_label: srcs.clone(),
            dst_by_label: srcs,
            approx_bytes: 0,
        }
    }

    fn pattern(hops: Vec<PatternHop>) -> PathPattern {
        PathPattern {
            left: SourceSpec::Param { param: 0 },
            right: SourceSpec::Param { param: 1 },
            hops,
            output: vec![Expr::VertexId],
            agg: None,
            num_slots: 0,
        }
    }

    #[test]
    fn join_chosen_when_both_sides_explode() {
        // knows (fan 50) then knows again: expanding fully from either side
        // costs 50 + 2500; meeting in the middle costs 50 + 50.
        let p = pattern(vec![
            PatternHop::new(Direction::Out, Label(0)),
            PatternHop::new(Direction::Out, Label(0)),
        ]);
        let stats = skewed_stats();
        let planner = JoinPlanner::new(&stats);
        let (plan, choice) = planner.plan(&p).unwrap();
        assert_eq!(choice.split, 1, "meet in the middle");
        assert_eq!(plan.stages[0].pipelines.len(), 2);
        assert_eq!(plan.stages[0].joins.len(), 1);
    }

    #[test]
    fn unidirectional_chosen_for_cheap_tail() {
        // One cheap hop: no interior split exists for a single hop, so the
        // planner picks whichever endpoint is cheaper (cost is symmetric
        // here; split 0 and 1 tie at fan(label1)=2; the planner keeps the
        // first minimum, split 0 → expand from the right).
        let p = pattern(vec![PatternHop::new(Direction::Out, Label(1))]);
        let stats = skewed_stats();
        let planner = JoinPlanner::new(&stats);
        let (plan, choice) = planner.plan(&p).unwrap();
        assert!(choice.split == 0 || choice.split == 1);
        assert_eq!(plan.stages[0].pipelines.len(), 1);
        // The opposite anchor became a filter.
        let steps = &plan.stages[0].pipelines[0].steps;
        assert!(matches!(steps.last(), Some(PlanStep::Filter(_))));
    }

    #[test]
    fn reverse_expansion_flips_directions() {
        let p = pattern(vec![
            PatternHop::new(Direction::Out, Label(0)), // expensive
            PatternHop::new(Direction::Out, Label(1)), // cheap
        ]);
        // Make the left hop catastrophically expensive and the right hop
        // sub-unity (fan < 1) so full right-to-left expansion (split 0)
        // beats even the interior join.
        let mut stats = skewed_stats();
        stats.edges_by_label.insert(Label(0), 1_000_000);
        stats.edges_by_label.insert(Label(1), 100); // fan 0.1
        let planner = JoinPlanner::new(&stats);
        let (plan, choice) = planner.plan(&p).unwrap();
        assert_eq!(choice.split, 0);
        // First executed hop is the last pattern hop reversed: In.
        match &plan.stages[0].pipelines[0].steps[0] {
            PlanStep::Expand { dir, label, .. } => {
                assert_eq!(*dir, Direction::In);
                assert_eq!(*label, Label(1));
            }
            other => panic!("unexpected first step {other:?}"),
        }
    }

    #[test]
    fn filters_lower_estimated_cost() {
        let stats = skewed_stats();
        let planner = JoinPlanner::new(&stats);
        let plain = pattern(vec![PatternHop::new(Direction::Out, Label(0))]);
        let filtered = pattern(vec![PatternHop::new(Direction::Out, Label(0))
            .with_filter(Expr::Const(graphdance_common::Value::Bool(true)))]);
        assert!(planner.choose(&filtered).est_cost < planner.choose(&plain).est_cost);
    }

    #[test]
    fn params_counted_across_anchors_and_filters() {
        let mut p = pattern(vec![PatternHop::new(Direction::Out, Label(0))
            .with_filter(Expr::ne(Expr::VertexId, Expr::Param(4)))]);
        p.output = vec![Expr::Param(2)];
        let stats = skewed_stats();
        let (plan, _) = JoinPlanner::new(&stats).plan(&p).unwrap();
        assert_eq!(plan.num_params, 5);
    }
}
