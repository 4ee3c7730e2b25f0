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

    /// Exact serialized size in bytes, mirroring the engine wire codec's
    /// layout byte for byte (the codec's tests pin the two together). The
    /// I/O scheduler counts its tier-1 buffers with this (§IV-B's 8 KB
    /// flush threshold tracks real frame bytes), once per traverser sent —
    /// which is why it is arithmetic here and not a run of the encoder.
    pub fn wire_bytes(&self) -> usize {
        let mut n = 8 + 2 + 2 + 8 + 8 + 4 + 1; // fixed fields + aux flag
        if let Some(k) = &self.aux_key {
            n += value_wire_bytes(k);
        }
        n += 2; // locals count
        for v in &self.locals {
            n += value_wire_bytes(v);
        }
        n
    }
}

/// Exact encoded size of one [`Value`] on the wire (tag byte + payload).
fn value_wire_bytes(v: &Value) -> usize {
    1 + match v {
        Value::Null | Value::Bool(_) => 0,
        Value::Int(_) | Value::Float(_) | Value::Vertex(_) => 8,
        Value::Str(s) => 4 + s.len(),
        Value::List(l) => 4 + l.iter().map(value_wire_bytes).sum::<usize>(),
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

    #[test]
    fn approx_bytes_counts_strings() {
        let mut t = Traverser::root(QueryId(1), 0, VertexId(5), 0, Weight::ROOT);
        let base = t.wire_bytes();
        t.set_slot(0, Value::str("0123456789"));
        assert!(t.wire_bytes() >= base + 10);
    }

    #[test]
    fn wire_bytes_counts_every_field() {
        let mut t = Traverser::root(QueryId(1), 0, VertexId(5), 0, Weight::ROOT);
        let fixed = 8 + 2 + 2 + 8 + 8 + 4 + 1 + 2;
        assert_eq!(t.wire_bytes(), fixed);
        t.aux_key = Some(Value::str("key"));
        assert_eq!(t.wire_bytes(), fixed + 1 + 4 + 3);
        t.set_slot(0, Value::Int(9));
        assert_eq!(t.wire_bytes(), fixed + 1 + 4 + 3 + 9);
    }
}
