//! # graphdance-query
//!
//! The Gremlin-like traversal language of GraphDance.
//!
//! A query travels through three representations:
//!
//! 1. **Logical steps** ([`ast`]) — what the user writes, via the fluent
//!    [`builder::QueryBuilder`] or the text [`parser`]. This mirrors the
//!    Gremlin traversal program `Ψ` of §II-B: a tree of steps such as `V`,
//!    `has`, `out`, `repeat`, `dedup`, `order`, `limit`.
//! 2. **Traversal strategies** ([`strategies`]) — semantics-preserving
//!    rewrites applied by the compiler (§II-B), e.g. `IndexLookUpStrategy`
//!    replaces a full scan + filter with an index lookup, and filter fusion
//!    merges adjacent predicates.
//! 3. **The physical plan** ([`plan`]) — a stage/pipeline/step program that
//!    every execution engine (PSTM async, BSP, non-partitioned,
//!    single-node, hybrid) interprets identically. Joins (§III-A) and
//!    aggregations (§III-C) appear here with their partitioning and scope
//!    structure made explicit.
//!
//! The cost-based [`planner`] chooses between unidirectional expansion and
//! bidirectional join plans for path patterns (Fig. 3).

pub mod ast;
pub mod builder;
pub mod expr;
pub mod parser;
pub mod plan;
pub mod planner;
pub mod strategies;

pub use ast::{LogicalQuery, LogicalStep};
pub use builder::QueryBuilder;
pub use expr::{CmpOp, EvalCtx, Expr};
pub use plan::{
    AggFunc, AggSpec, JoinSide, JoinSpec, Order, Pipeline, Plan, PlanStep, Slot, SourceSpec, Stage,
};
pub use planner::{JoinPlanner, PathPattern, PatternHop};
