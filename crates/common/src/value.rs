//! Property values: the `Value` codomain of `λ : (V ⊎ E) × Key -> Value`.
//!
//! Values travel inside traverser local-variable sets (`π`, §III-B), inside
//! memoranda records, and across the simulated network, so they must be cheap
//! to clone (strings are `Arc<str>`) and serializable.

use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::ids::VertexId;

/// A dynamically-typed property value.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum Value {
    /// Absent / NULL.
    Null,
    /// Boolean.
    Bool(bool),
    /// 64-bit signed integer. Dates are stored as epoch milliseconds in this
    /// variant (see [`crate::time`]).
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// Interned UTF-8 string. `Arc` keeps clones O(1) — traversers clone
    /// their locals on every spawn.
    Str(Arc<str>),
    /// A vertex reference (e.g. the result of a projection of `_id`).
    Vertex(VertexId),
    /// A list of values (e.g. `Person.speaks`, collected aggregation output).
    List(Arc<[Value]>),
}

impl Value {
    /// Build a string value.
    pub fn str(s: impl AsRef<str>) -> Value {
        Value::Str(Arc::from(s.as_ref()))
    }

    /// Build a list value.
    pub fn list(items: Vec<Value>) -> Value {
        Value::List(Arc::from(items))
    }

    /// Returns the integer payload, if this is an `Int`.
    #[inline]
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Returns the float payload, coercing `Int` losslessly where possible.
    #[inline]
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Value::Float(f) => Some(*f),
            Value::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// Returns the string payload, if this is a `Str`.
    #[inline]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Returns the boolean payload, if this is a `Bool`.
    #[inline]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Returns the vertex payload, if this is a `Vertex`.
    #[inline]
    pub fn as_vertex(&self) -> Option<VertexId> {
        match self {
            Value::Vertex(v) => Some(*v),
            _ => None,
        }
    }

    /// `true` if this value is `Null`.
    #[inline]
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Total order used by `OrderBy`/`TopK` steps. Orders first by type rank,
    /// then by payload; `Null` sorts first; float NaN sorts last among
    /// floats. This gives a deterministic order for heterogeneous columns,
    /// which query results require.
    pub fn cmp_total(&self, other: &Value) -> Ordering {
        fn rank(v: &Value) -> u8 {
            match v {
                Value::Null => 0,
                Value::Bool(_) => 1,
                Value::Int(_) => 2,
                Value::Float(_) => 2, // numeric types compare together
                Value::Str(_) => 3,
                Value::Vertex(_) => 4,
                Value::List(_) => 5,
            }
        }
        let (ra, rb) = (rank(self), rank(other));
        if ra != rb {
            return ra.cmp(&rb);
        }
        match (self, other) {
            (Value::Null, Value::Null) => Ordering::Equal,
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Float(a), Value::Float(b)) => a.partial_cmp(b).unwrap_or(Ordering::Equal),
            (Value::Int(a), Value::Float(b)) => {
                (*a as f64).partial_cmp(b).unwrap_or(Ordering::Less)
            }
            (Value::Float(a), Value::Int(b)) => {
                a.partial_cmp(&(*b as f64)).unwrap_or(Ordering::Greater)
            }
            (Value::Str(a), Value::Str(b)) => a.cmp(b),
            (Value::Vertex(a), Value::Vertex(b)) => a.cmp(b),
            (Value::List(a), Value::List(b)) => {
                for (x, y) in a.iter().zip(b.iter()) {
                    let c = x.cmp_total(y);
                    if c != Ordering::Equal {
                        return c;
                    }
                }
                a.len().cmp(&b.len())
            }
            // lint: allow(hot-path-blocking) impossible by construction:
            // mismatched variants were ordered by rank() before this match
            _ => unreachable!("rank() groups variants"),
        }
    }

    /// A hashable grouping key for this value (used by `GroupBy` and `Dedup`
    /// memo keys). Floats are keyed by bit pattern.
    pub fn group_key(&self) -> ValueKey {
        match self {
            Value::Null => ValueKey::Null,
            Value::Bool(b) => ValueKey::Bool(*b),
            Value::Int(i) => ValueKey::Int(*i),
            Value::Float(f) => ValueKey::Float(f.to_bits()),
            Value::Str(s) => ValueKey::Str(s.clone()),
            Value::Vertex(v) => ValueKey::Vertex(*v),
            Value::List(l) => ValueKey::List(l.iter().map(Value::group_key).collect()),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "{s}"),
            Value::Vertex(v) => write!(f, "v{}", v.0),
            Value::List(l) => {
                write!(f, "[")?;
                for (i, v) in l.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "]")
            }
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(v as i64)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::str(v)
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(Arc::from(v.as_str()))
    }
}
impl From<VertexId> for Value {
    fn from(v: VertexId) -> Self {
        Value::Vertex(v)
    }
}

/// A hashable, `Eq` projection of a [`Value`], suitable as a map key.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum ValueKey {
    Null,
    Bool(bool),
    Int(i64),
    /// Float keyed by IEEE-754 bit pattern.
    Float(u64),
    Str(Arc<str>),
    Vertex(VertexId),
    List(Vec<ValueKey>),
}

impl ValueKey {
    /// Convert the key back into a value (floats recover their payload).
    pub fn to_value(&self) -> Value {
        match self {
            ValueKey::Null => Value::Null,
            ValueKey::Bool(b) => Value::Bool(*b),
            ValueKey::Int(i) => Value::Int(*i),
            ValueKey::Float(bits) => Value::Float(f64::from_bits(*bits)),
            ValueKey::Str(s) => Value::Str(s.clone()),
            ValueKey::Vertex(v) => Value::Vertex(*v),
            ValueKey::List(l) => Value::list(l.iter().map(ValueKey::to_value).collect()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors_roundtrip() {
        assert_eq!(Value::Int(4).as_int(), Some(4));
        assert_eq!(Value::Int(4).as_float(), Some(4.0));
        assert_eq!(Value::Float(2.5).as_float(), Some(2.5));
        assert_eq!(Value::str("x").as_str(), Some("x"));
        assert_eq!(Value::Bool(true).as_bool(), Some(true));
        assert_eq!(Value::Vertex(VertexId(7)).as_vertex(), Some(VertexId(7)));
        assert!(Value::Null.is_null());
        assert_eq!(Value::Null.as_int(), None);
    }

    #[test]
    fn total_order_numeric_mixing() {
        assert_eq!(Value::Int(1).cmp_total(&Value::Float(1.5)), Ordering::Less);
        assert_eq!(
            Value::Float(2.0).cmp_total(&Value::Int(1)),
            Ordering::Greater
        );
        assert_eq!(Value::Int(3).cmp_total(&Value::Int(3)), Ordering::Equal);
    }

    #[test]
    fn total_order_cross_type() {
        assert_eq!(Value::Null.cmp_total(&Value::Int(0)), Ordering::Less);
        assert_eq!(Value::str("a").cmp_total(&Value::Int(9)), Ordering::Greater);
        assert_eq!(
            Value::list(vec![Value::Int(1)])
                .cmp_total(&Value::list(vec![Value::Int(1), Value::Int(2)])),
            Ordering::Less
        );
    }

    #[test]
    fn group_key_roundtrip() {
        let vals = [
            Value::Null,
            Value::Bool(false),
            Value::Int(-3),
            Value::Float(1.25),
            Value::str("hello"),
            Value::Vertex(VertexId(11)),
            Value::list(vec![Value::Int(1), Value::str("a")]),
        ];
        for v in vals {
            assert_eq!(v.group_key().to_value(), v);
        }
    }

    #[test]
    fn group_key_distinguishes_types() {
        assert_ne!(Value::Int(1).group_key(), Value::Float(1.0).group_key());
        assert_ne!(Value::Null.group_key(), Value::Bool(false).group_key());
    }

    #[test]
    fn display_formats() {
        assert_eq!(
            Value::list(vec![Value::Int(1), Value::str("x")]).to_string(),
            "[1, x]"
        );
        assert_eq!(Value::Vertex(VertexId(5)).to_string(), "v5");
    }
}
