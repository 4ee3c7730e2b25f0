//! Order-insensitive, multiplicity-sensitive digest of a result-row
//! multiset: what every timed read is compared against. Row order is an
//! execution artifact in the engine and in the oracle alike; a duplicated
//! or dropped row is not.

use graphdance_common::Value;
use graphdance_pstm::Row;

/// splitmix64 finalizer.
fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

fn absorb(h: u64, x: u64) -> u64 {
    mix(h ^ x).wrapping_add(0x9E37_79B9_7F4A_7C15)
}

fn value_digest(h: u64, v: &Value) -> u64 {
    match v {
        Value::Null => absorb(h, 0),
        Value::Bool(b) => absorb(absorb(h, 1), u64::from(*b)),
        Value::Int(i) => absorb(absorb(h, 2), *i as u64),
        Value::Float(f) => absorb(absorb(h, 3), f.to_bits()),
        Value::Str(s) => s
            .bytes()
            .fold(absorb(absorb(h, 4), s.len() as u64), |h, b| {
                absorb(h, u64::from(b))
            }),
        Value::Vertex(v) => absorb(absorb(h, 5), v.0),
        Value::List(items) => items
            .iter()
            .fold(absorb(absorb(h, 6), items.len() as u64), value_digest),
    }
}

/// Column order matters inside a row.
fn row_digest(row: &[Value]) -> u64 {
    row.iter().fold(absorb(0, row.len() as u64), value_digest)
}

/// Sum of mixed row digests: commutative (row order cannot matter), and a
/// repeated row adds its digest again (multiplicity does).
pub fn rows_digest(rows: &[Row]) -> u64 {
    rows.iter().fold(absorb(0, rows.len() as u64), |acc, r| {
        acc.wrapping_add(mix(row_digest(r)))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphdance_common::VertexId;

    fn row(id: u64, name: &str) -> Row {
        vec![Value::Vertex(VertexId(id)), Value::str(name), Value::Int(7)]
    }

    #[test]
    fn order_insensitive() {
        let a = vec![row(1, "a"), row(2, "b"), row(3, "c")];
        let b = vec![row(3, "c"), row(1, "a"), row(2, "b")];
        assert_eq!(rows_digest(&a), rows_digest(&b));
    }

    #[test]
    fn multiplicity_sensitive() {
        let once = vec![row(1, "a"), row(2, "b")];
        let twice = vec![row(1, "a"), row(1, "a"), row(2, "b")];
        // A duplicate displacing a real row keeps the count but not the set.
        let displaced = vec![row(1, "a"), row(1, "a")];
        assert_ne!(rows_digest(&once), rows_digest(&twice));
        assert_ne!(rows_digest(&once), rows_digest(&displaced));
        assert_ne!(rows_digest(&[]), rows_digest(&[vec![]]));
    }

    #[test]
    fn column_order_and_types_matter() {
        let ab = vec![vec![Value::Int(1), Value::Int(2)]];
        let ba = vec![vec![Value::Int(2), Value::Int(1)]];
        assert_ne!(rows_digest(&ab), rows_digest(&ba));
        assert_ne!(
            rows_digest(&[vec![Value::Int(1)]]),
            rows_digest(&[vec![Value::Vertex(VertexId(1))]])
        );
        assert_ne!(
            rows_digest(&[vec![Value::str("ab"), Value::str("c")]]),
            rows_digest(&[vec![Value::str("a"), Value::str("bc")]])
        );
    }
}
