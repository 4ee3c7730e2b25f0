//! # graphdance-pstm
//!
//! The Partitioned Stateful Traversal Machine (§III): the execution
//! semantics shared by every GraphDance engine.
//!
//! * [`weight`] — **progression weights** (§III-B, §IV-A): each traverser
//!   carries an element of the finite abelian group Z/2⁶⁴; spawning splits
//!   the weight uniformly at random, termination releases it. The traversal
//!   is complete exactly when the released weights sum (wrapping) back to
//!   the root weight — one integer addition per traverser.
//! * [`traverser`] — the traverser 4-tuple `(v, ψ, π, w)` extended with its
//!   plan position.
//! * [`memo`] — per-partition, query-scoped **memoranda** (§III-B): the
//!   mutable state of Dedup / min-distance / Join / aggregation steps,
//!   owned by a single worker and freed when the query ends.
//! * [`agg`] — commutative-associative aggregation partials (§III-C).
//! * [`interp`] — the step interpreter: advances one traverser through as
//!   many partition-local steps as possible and reports spawned traversers
//!   (with routing), emitted rows, and finished weight in a
//!   [`HandleOutcome`]. Each `Expand` reads its neighbours with one TEL
//!   scan.
//! * [`arena`] — the slab of traversers and the interned, copy-on-write
//!   register files every engine's worker runs them from.
//! * [`ledger`] — debug-build weight-conservation checker: every
//!   interpreter outcome must redistribute its input weight exactly.

pub mod agg;
pub mod arena;
pub mod interp;
pub mod ledger;
pub mod memo;
pub mod traverser;
pub mod weight;

pub use agg::AggState;
pub use arena::{
    ArenaTraverser, HandOff, Importer, LocalsId, LocalsTable, TraverserArena, TraverserHandle,
};
pub use interp::{HandleOutcome, Interpreter, Outcome, Row, SourceStart};
pub use ledger::WeightLedger;
#[cfg(feature = "obs")]
pub use memo::MemoStats;
pub use memo::{Memo, QueryMemo};
pub use traverser::Traverser;
pub use weight::{Weight, WeightAccumulator};
