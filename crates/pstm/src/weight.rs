//! Progression weights over the finite abelian group Z/2⁶⁴ (§IV-A).
//!
//! The textbook weight-throwing scheme uses rationals (root weight 1, split
//! into 1/n parts), which suffers precision and underflow problems. The
//! paper's fix: represent weights as elements of a finite abelian group and
//! split by drawing uniform random elements. With G = Z/2⁶⁴ the invariant
//!
//! ```text
//! Σ w_active + Σ w_finished ≡ w_root  (mod 2⁶⁴)
//! ```
//!
//! holds exactly, and Theorem 1 bounds the false-positive probability of
//! early termination detection by (n−1)/2⁶⁴ for n coalesced reports.

use std::num::Wrapping;

use rand::Rng;
use serde::{Deserialize, Serialize};

/// A progression weight: an element of Z/2⁶⁴.
#[derive(Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Weight(pub u64);

impl std::fmt::Debug for Weight {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "w{:x}", self.0)
    }
}

#[allow(clippy::should_implement_trait)] // group `add`/`sub`, not std ops
impl Weight {
    /// The canonical root weight carried by a query's initial task.
    pub const ROOT: Weight = Weight(1);

    /// The additive identity (used by accumulators).
    pub const ZERO: Weight = Weight(0);

    /// Group addition (wrapping).
    #[inline]
    pub fn add(self, other: Weight) -> Weight {
        Weight((Wrapping(self.0) + Wrapping(other.0)).0)
    }

    /// Group subtraction (wrapping).
    #[inline]
    pub fn sub(self, other: Weight) -> Weight {
        Weight((Wrapping(self.0) - Wrapping(other.0)).0)
    }

    /// Accumulate in place.
    #[inline]
    pub fn absorb(&mut self, other: Weight) {
        *self = self.add(other);
    }

    /// Split this weight into `n ≥ 1` parts that sum (wrapping) back to it.
    /// The first `n − 1` parts are uniform random group elements; the last
    /// is the remainder, so the invariant holds exactly.
    pub fn split(self, n: usize, rng: &mut impl Rng) -> Vec<Weight> {
        assert!(n >= 1, "cannot split into zero parts");
        if n == 1 {
            return vec![self];
        }
        let mut parts = Vec::with_capacity(n);
        let mut rest = self;
        for _ in 0..n - 1 {
            let a = Weight(rng.gen::<u64>());
            rest = rest.sub(a);
            parts.push(a);
        }
        parts.push(rest);
        parts
    }

    /// Split off one part, mutating `self` to the remainder. Cheaper than
    /// [`Weight::split`] when children are produced incrementally (e.g. one
    /// per scanned edge).
    #[inline]
    pub fn split_one(&mut self, rng: &mut impl Rng) -> Weight {
        let a = Weight(rng.gen::<u64>());
        *self = self.sub(a);
        a
    }
}

/// A progress accumulator used by workers (weight coalescing, §IV-A) and by
/// the central tracker: sums finished weights and reports completion when
/// the sum reaches the expected root weight.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct WeightAccumulator {
    sum: Weight,
}

impl WeightAccumulator {
    /// Fresh accumulator at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a finished weight.
    #[inline]
    pub fn add(&mut self, w: Weight) {
        self.sum.absorb(w);
    }

    /// Current sum.
    #[inline]
    pub fn sum(&self) -> Weight {
        self.sum
    }

    /// Drain the accumulated sum for a coalesced report, resetting to zero.
    /// Returns `None` when there is nothing to report.
    #[inline]
    pub fn drain(&mut self) -> Option<Weight> {
        if self.sum == Weight::ZERO {
            None
        } else {
            Some(std::mem::take(&mut self.sum))
        }
    }

    /// Has the accumulated sum reached the root weight?
    #[inline]
    pub fn is_complete(&self) -> bool {
        self.sum == Weight::ROOT
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphdance_common::rng::seeded;
    use proptest::prelude::*;

    #[test]
    fn split_preserves_sum() {
        let mut rng = seeded(1);
        for n in 1..20 {
            let w = Weight(rng.gen());
            let parts = w.split(n, &mut rng);
            assert_eq!(parts.len(), n);
            let total = parts.iter().fold(Weight::ZERO, |a, b| a.add(*b));
            assert_eq!(total, w);
        }
    }

    #[test]
    fn split_one_preserves_sum() {
        let mut rng = seeded(2);
        let orig = Weight(12345);
        let mut w = orig;
        let mut sum = Weight::ZERO;
        for _ in 0..100 {
            sum.absorb(w.split_one(&mut rng));
        }
        assert_eq!(sum.add(w), orig);
    }

    #[test]
    #[should_panic(expected = "zero parts")]
    fn split_zero_panics() {
        Weight::ROOT.split(0, &mut seeded(0));
    }

    #[test]
    fn accumulator_completes_only_at_root() {
        let mut rng = seeded(3);
        let parts = Weight::ROOT.split(10, &mut rng);
        let mut acc = WeightAccumulator::new();
        for (i, p) in parts.iter().enumerate() {
            assert!(!acc.is_complete(), "complete after only {i} parts");
            acc.add(*p);
        }
        assert!(acc.is_complete());
    }

    #[test]
    fn accumulator_sum_wraps_and_completes_exactly_at_root() {
        // Splits routinely yield "negative" parts (ROOT = w + (1 - w) with
        // w > 1), so the sum must wrap; completion means it lands exactly
        // on ROOT — passing near it or through zero means nothing.
        let mut acc = WeightAccumulator::new();
        acc.add(Weight(u64::MAX));
        assert!(!acc.is_complete(), "sum = 2^64 - 1 ≠ ROOT");
        acc.add(Weight(3));
        assert!(!acc.is_complete(), "sum wraps to 2 ≠ ROOT");
        acc.add(Weight(u64::MAX));
        assert!(acc.is_complete(), "sum wraps to exactly ROOT");
        // A zero report on a fresh accumulator is one short of ROOT.
        let mut fresh = WeightAccumulator::new();
        fresh.add(Weight::ZERO);
        assert!(!fresh.is_complete());
        fresh.add(Weight::ROOT);
        assert!(fresh.is_complete());
    }

    #[test]
    fn drain_resets() {
        let mut acc = WeightAccumulator::new();
        assert_eq!(acc.drain(), None);
        acc.add(Weight(7));
        acc.add(Weight(5));
        assert_eq!(acc.drain(), Some(Weight(12)));
        assert_eq!(acc.drain(), None);
    }

    #[test]
    fn simulated_traversal_terminates_exactly() {
        // Simulate a random task tree: each task either finishes or spawns
        // 1..=4 children. The tracker must fire exactly when the last task
        // finishes, never before.
        let mut rng = seeded(42);
        for _trial in 0..50 {
            let mut tracker = WeightAccumulator::new();
            let mut queue = vec![(Weight::ROOT, 0u32)];
            let mut active = 1usize;
            while let Some((w, depth)) = queue.pop() {
                active -= 1;
                let spawn = if depth >= 6 { 0 } else { rng.gen_range(0..=4) };
                if spawn == 0 {
                    tracker.add(w);
                } else {
                    for part in w.split(spawn, &mut rng) {
                        queue.push((part, depth + 1));
                        active += 1;
                    }
                }
                assert_eq!(
                    tracker.is_complete(),
                    active == 0 && queue.is_empty(),
                    "tracker fired at the wrong time"
                );
            }
            assert!(tracker.is_complete());
        }
    }

    proptest! {
        /// The group-invariant property of Theorem 1's setup: any split tree
        /// releases exactly the root weight.
        #[test]
        fn prop_split_tree_sums_to_root(seed in any::<u64>(), fanouts in proptest::collection::vec(0usize..5, 1..60)) {
            let mut rng = seeded(seed);
            let mut queue = vec![Weight::ROOT];
            let mut released = Weight::ZERO;
            let mut fi = 0;
            while let Some(w) = queue.pop() {
                let n = if fi < fanouts.len() { fanouts[fi] } else { 0 };
                fi += 1;
                if n == 0 {
                    released.absorb(w);
                } else {
                    queue.extend(w.split(n, &mut rng));
                }
            }
            prop_assert_eq!(released, Weight::ROOT);
        }

        /// Partial release is (overwhelmingly) never the root weight: with
        /// one task outstanding the sum is root − w for a uniform random w.
        #[test]
        fn prop_incomplete_rarely_false_positive(seed in any::<u64>()) {
            let mut rng = seeded(seed);
            let parts = Weight::ROOT.split(8, &mut rng);
            let mut acc = WeightAccumulator::new();
            for p in &parts[..7] {
                acc.add(*p);
            }
            // The missing part is uniform; equality would be a 2^-64 event.
            prop_assert!(!acc.is_complete());
        }
    }
}
