//! The traverser: PSTM's unit of work.
//!
//! A traverser is the 4-tuple `(v, ψ, π, w)` of §III-B — current vertex,
//! current step, local variables, progression weight — extended with its
//! position in the compiled plan (stage is implicit: one stage runs at a
//! time per query) and a scheduling depth.

use serde::{Deserialize, Serialize};

use graphdance_common::{QueryId, Value, VertexId};

use crate::weight::Weight;

/// A traverser. Cheap to clone relative to its locals (a small `Vec`).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Traverser {
    /// The query this traverser belongs to.
    pub query: QueryId,
    /// Which pipeline of the current stage.
    pub pipeline: u16,
    /// Program counter: index into the pipeline's steps. `pc == steps.len()`
    /// means the traverser is at the emit position.
    pub pc: u16,
    /// Current vertex `v` (`μ(t)`).
    pub vertex: VertexId,
    /// Local variable slots `π`.
    pub locals: Vec<Value>,
    /// Progression weight `w`.
    pub weight: Weight,
    /// Hops travelled; workers schedule shallow traversers first (§III-B:
    /// "traversers with a shorter history trajectory are generally scheduled
    /// to run before those with a lengthier trajectory").
    pub depth: u32,
    /// Pre-evaluated routing key for a pending `Join` step: set when the
    /// traverser is shipped to the join key's owner partition, where the
    /// original vertex's properties are no longer readable.
    pub aux_key: Option<Value>,
}

impl Traverser {
    /// A stage-initial traverser at `vertex` with `num_slots` null locals.
    pub fn root(
        query: QueryId,
        pipeline: u16,
        vertex: VertexId,
        num_slots: usize,
        weight: Weight,
    ) -> Self {
        Traverser {
            query,
            pipeline,
            pc: 0,
            vertex,
            locals: vec![Value::Null; num_slots],
            weight,
            depth: 0,
            aux_key: None,
        }
    }

    /// Read a local slot (missing slots read as `Null`).
    #[inline]
    pub fn slot(&self, s: u8) -> &Value {
        self.locals.get(s as usize).unwrap_or(&Value::Null)
    }

    /// Write a local slot, growing the register file if needed.
    #[inline]
    pub fn set_slot(&mut self, s: u8, v: Value) {
        let i = s as usize;
        if i >= self.locals.len() {
            self.locals.resize(i + 1, Value::Null);
        }
        self.locals[i] = v;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn root_traverser_shape() {
        let t = Traverser::root(QueryId(1), 0, VertexId(5), 3, Weight::ROOT);
        assert_eq!(t.locals, vec![Value::Null; 3]);
        assert_eq!(t.pc, 0);
        assert_eq!(t.depth, 0);
        assert_eq!(t.weight, Weight::ROOT);
    }

    #[test]
    fn slot_access_is_null_safe() {
        let mut t = Traverser::root(QueryId(1), 0, VertexId(5), 1, Weight::ROOT);
        assert_eq!(*t.slot(7), Value::Null);
        t.set_slot(7, Value::Int(9));
        assert_eq!(*t.slot(7), Value::Int(9));
        assert_eq!(t.locals.len(), 8);
    }
}
