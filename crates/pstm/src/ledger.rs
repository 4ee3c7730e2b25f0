//! Debug-build weight-conservation checker (the dynamic half of
//! `cargo xtask check`).
//!
//! The PSTM termination mechanism rests on one conservation law: every
//! interpreter invocation must redistribute its input weight exactly —
//!
//! ```text
//! w_input ≡ Σ w_spawned + w_finished   (mod 2⁶⁴)
//! ```
//!
//! — and a completed stage must have released exactly [`Weight::ROOT`].
//! If any split/merge/terminate path leaks or double-counts weight, the
//! coordinator's tracker either fires early (wrong results) or never fires
//! (hang until the query deadline). Both are far easier to debug at the
//! violating step than at the symptom, so [`WeightLedger`] checks the law
//! after every interpreter outcome in debug builds and produces a
//! diagnostic naming the step. Release builds compile the checks away
//! ([`WeightLedger::ENABLED`] is `false`).

use graphdance_common::QueryId;

use crate::arena::TraverserArena;
use crate::interp::{HandleOutcome, Outcome};
use crate::weight::Weight;

/// Per-worker conservation checker. Zero-cost in release builds.
#[derive(Debug, Default)]
pub struct WeightLedger {
    /// Interpreter invocations checked so far (diagnostics only).
    steps: u64,
}

impl WeightLedger {
    /// Whether the checks are compiled in (debug builds only).
    pub const ENABLED: bool = cfg!(debug_assertions);

    /// Fresh ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Verify that one source or seeding (wire-format children) conserved
    /// its input weight. Returns a diagnostic on violation.
    #[inline]
    pub fn check_step(
        &mut self,
        query: QueryId,
        input: Weight,
        out: &Outcome,
    ) -> Result<(), String> {
        let spawned = out.spawned.iter().map(|(_, t)| t.weight);
        self.check(query, input, spawned, out.finished)
    }

    /// Verify that one arena step conserved its input weight. Spawned
    /// children are arena handles, so their weights are re-read through
    /// the arena's generation-checked accessor — a stale handle (ABA)
    /// panics right here in debug builds, wiring the arena's recycling
    /// invariant into the conservation law.
    #[inline]
    pub fn check_step_arena(
        &mut self,
        query: QueryId,
        input: Weight,
        out: &HandleOutcome,
        arena: &TraverserArena,
    ) -> Result<(), String> {
        let spawned = out.spawned.iter().map(|(_, h)| arena.get(*h).weight);
        self.check(query, input, spawned, out.finished)
    }

    /// The law itself: `input == Σ spawned + finished`.
    fn check(
        &mut self,
        query: QueryId,
        input: Weight,
        spawned: impl ExactSizeIterator<Item = Weight>,
        finished: Weight,
    ) -> Result<(), String> {
        if !Self::ENABLED {
            return Ok(());
        }
        self.steps += 1;
        let children = spawned.len();
        let spawned = spawned.fold(Weight::ZERO, Weight::add);
        let redistributed = spawned.add(finished);
        if redistributed != input {
            return Err(format!(
                "weight conservation violated for query {:?} (ledger step {}): \
                 input {:?} != spawned {:?} (over {} children) + finished {:?}; \
                 delta {:?}",
                query,
                self.steps,
                input,
                spawned,
                children,
                finished,
                input.sub(redistributed),
            ));
        }
        Ok(())
    }

    /// Verify that a completed stage released exactly the root weight.
    /// (The async coordinator completes *because* the sum reached root;
    /// drivers with an independent completion signal — e.g. the BSP
    /// baseline's delivery barrier — use this to cross-check.)
    #[inline]
    pub fn check_stage_total(query: QueryId, released: Weight) -> Result<(), String> {
        if !Self::ENABLED {
            return Ok(());
        }
        if released != Weight::ROOT {
            return Err(format!(
                "stage completion violated weight conservation for query {:?}: \
                 released {:?} != root {:?} (missing {:?})",
                query,
                released,
                Weight::ROOT,
                Weight::ROOT.sub(released),
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traverser::Traverser;
    use graphdance_common::rng::seeded;
    use graphdance_common::{PartId, VertexId};

    fn traverser(w: Weight) -> (PartId, Traverser) {
        (PartId(0), Traverser::root(QueryId(1), 0, VertexId(0), 0, w))
    }

    #[test]
    fn conserving_step_passes() {
        let mut rng = seeded(7);
        let mut ledger = WeightLedger::new();
        let input = Weight(0xABCD);
        let mut rest = input;
        let mut out = Outcome::default();
        for _ in 0..3 {
            out.spawned.push(traverser(rest.split_one(&mut rng)));
        }
        out.finished = rest;
        assert_eq!(ledger.check_step(QueryId(1), input, &out), Ok(()));
    }

    #[test]
    fn terminate_only_step_passes() {
        let mut ledger = WeightLedger::new();
        let out = Outcome {
            finished: Weight(42),
            ..Outcome::default()
        };
        assert_eq!(ledger.check_step(QueryId(1), Weight(42), &out), Ok(()));
    }

    #[test]
    fn leaked_weight_is_caught_with_diagnostic() {
        // Negative test: a step that "loses" part of its input weight (the
        // injected weight-conservation bug) must be caught immediately.
        let mut rng = seeded(8);
        let mut ledger = WeightLedger::new();
        let input = Weight(1000);
        let mut rest = input;
        let mut out = Outcome::default();
        out.spawned.push(traverser(rest.split_one(&mut rng)));
        out.finished = rest.sub(Weight(1)); // leak one unit
        let err = ledger
            .check_step(QueryId(3), input, &out)
            .expect_err("ledger must flag the leak");
        assert!(err.contains("weight conservation violated"), "got: {err}");
        assert!(err.contains("q3"), "diagnostic names the query: {err}");
        assert!(
            err.contains("delta w1"),
            "diagnostic shows the delta: {err}"
        );
    }

    #[test]
    fn duplicated_weight_is_caught() {
        let mut ledger = WeightLedger::new();
        let input = Weight(10);
        let mut out = Outcome::default();
        out.spawned.push(traverser(input)); // child keeps the full weight…
        out.finished = input; // …and it is also reported finished
        assert!(ledger.check_step(QueryId(1), input, &out).is_err());
    }

    #[test]
    fn arena_step_checks_conservation_through_handles() {
        use crate::arena::{ArenaTraverser, LocalsId};
        use crate::interp::HandleOutcome;

        let mut rng = seeded(9);
        let mut arena = TraverserArena::new();
        let mut ledger = WeightLedger::new();
        let input = Weight(0xF00D);
        let mut rest = input;
        let mut out = HandleOutcome::default();
        for _ in 0..3 {
            let h = arena.insert(ArenaTraverser {
                query: QueryId(1),
                pipeline: 0,
                pc: 0,
                vertex: VertexId(0),
                locals: LocalsId::INVALID,
                weight: rest.split_one(&mut rng),
                depth: 0,
                aux_key: None,
            });
            out.spawned.push((PartId(0), h));
        }
        out.finished = rest;
        assert_eq!(
            ledger.check_step_arena(QueryId(1), input, &out, &arena),
            Ok(())
        );
        // Leak a unit: caught with the same diagnostic shape.
        out.finished = out.finished.sub(Weight(1));
        let err = ledger
            .check_step_arena(QueryId(3), input, &out, &arena)
            .expect_err("ledger must flag the leak");
        assert!(err.contains("weight conservation violated"), "got: {err}");
        assert!(err.contains("q3"), "diagnostic names the query: {err}");
    }

    #[test]
    fn stage_total_checks_root() {
        assert_eq!(
            WeightLedger::check_stage_total(QueryId(1), Weight::ROOT),
            Ok(())
        );
        let err = WeightLedger::check_stage_total(QueryId(2), Weight(5))
            .expect_err("non-root total must fail");
        assert!(err.contains("stage completion"), "got: {err}");
    }
}
