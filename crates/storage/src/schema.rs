//! Schema: interning of labels and property keys.
//!
//! The schema is immutable after graph construction and shared (`Arc`) by
//! every worker, so lookups are lock-free. Vertex labels, edge labels, and
//! property keys live in separate namespaces; `Label`/`PropKey` are `u16`
//! indexes into the corresponding string table.

use graphdance_common::{FxHashMap, GdError, GdResult, Label, PropKey};

/// Interning tables for labels and property keys.
///
/// Build with `register_*` mutation during graph
/// construction, then freeze inside an `Arc`.
#[derive(Debug, Default, Clone)]
pub struct Schema {
    vertex_labels: Vec<String>,
    vertex_label_ids: FxHashMap<String, Label>,
    edge_labels: Vec<String>,
    edge_label_ids: FxHashMap<String, Label>,
    prop_keys: Vec<String>,
    prop_key_ids: FxHashMap<String, PropKey>,
}

impl Schema {
    /// Create an empty schema.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register (or look up) a vertex label.
    pub fn register_vertex_label(&mut self, name: &str) -> Label {
        if let Some(l) = self.vertex_label_ids.get(name) {
            return *l;
        }
        let id = Label(u16::try_from(self.vertex_labels.len()).expect("≤ 65534 vertex labels")); // lint: allow(hot-path-panics) load-time capacity limit
        assert!(id != Label::ANY, "vertex label table overflow");
        self.vertex_labels.push(name.to_string());
        self.vertex_label_ids.insert(name.to_string(), id);
        id
    }

    /// Register (or look up) an edge label.
    pub fn register_edge_label(&mut self, name: &str) -> Label {
        if let Some(l) = self.edge_label_ids.get(name) {
            return *l;
        }
        let id = Label(u16::try_from(self.edge_labels.len()).expect("≤ 65534 edge labels")); // lint: allow(hot-path-panics) load-time capacity limit
        assert!(id != Label::ANY, "edge label table overflow");
        self.edge_labels.push(name.to_string());
        self.edge_label_ids.insert(name.to_string(), id);
        id
    }

    /// Register (or look up) a property key.
    pub fn register_prop(&mut self, name: &str) -> PropKey {
        if let Some(k) = self.prop_key_ids.get(name) {
            return *k;
        }
        let id = PropKey(u16::try_from(self.prop_keys.len()).expect("≤ 65535 property keys")); // lint: allow(hot-path-panics) load-time capacity limit
        self.prop_keys.push(name.to_string());
        self.prop_key_ids.insert(name.to_string(), id);
        id
    }

    /// Look up a vertex label by name.
    pub fn vertex_label(&self, name: &str) -> GdResult<Label> {
        self.vertex_label_ids
            .get(name)
            .copied()
            .ok_or_else(|| GdError::UnknownSymbol(format!("vertex label `{name}`")))
    }

    /// Look up an edge label by name.
    pub fn edge_label(&self, name: &str) -> GdResult<Label> {
        self.edge_label_ids
            .get(name)
            .copied()
            .ok_or_else(|| GdError::UnknownSymbol(format!("edge label `{name}`")))
    }

    /// Look up a property key by name.
    pub fn prop(&self, name: &str) -> GdResult<PropKey> {
        self.prop_key_ids
            .get(name)
            .copied()
            .ok_or_else(|| GdError::UnknownSymbol(format!("property `{name}`")))
    }

    /// Name of a vertex label.
    pub fn vertex_label_name(&self, l: Label) -> &str {
        if l == Label::ANY {
            return "*";
        }
        &self.vertex_labels[l.0 as usize]
    }

    /// Name of an edge label.
    pub fn edge_label_name(&self, l: Label) -> &str {
        if l == Label::ANY {
            return "*";
        }
        &self.edge_labels[l.0 as usize]
    }

    /// Name of a property key.
    pub fn prop_name(&self, k: PropKey) -> &str {
        &self.prop_keys[k.0 as usize]
    }

    /// Number of vertex labels.
    pub fn num_vertex_labels(&self) -> usize {
        self.vertex_labels.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_is_idempotent() {
        let mut s = Schema::new();
        let a = s.register_vertex_label("Person");
        let b = s.register_vertex_label("Person");
        assert_eq!(a, b);
        assert_eq!(s.num_vertex_labels(), 1);
    }

    #[test]
    fn namespaces_are_separate() {
        let mut s = Schema::new();
        let v = s.register_vertex_label("knows");
        let e = s.register_edge_label("knows");
        let p = s.register_prop("knows");
        // same index in different tables is fine
        assert_eq!(v, Label(0));
        assert_eq!(e, Label(0));
        assert_eq!(p, PropKey(0));
        assert_eq!(s.vertex_label_name(v), "knows");
        assert_eq!(s.edge_label_name(e), "knows");
        assert_eq!(s.prop_name(p), "knows");
    }

    #[test]
    fn lookup_unknown_fails() {
        let s = Schema::new();
        assert!(matches!(
            s.vertex_label("nope"),
            Err(GdError::UnknownSymbol(_))
        ));
        assert!(matches!(
            s.edge_label("nope"),
            Err(GdError::UnknownSymbol(_))
        ));
        assert!(matches!(s.prop("nope"), Err(GdError::UnknownSymbol(_))));
    }

    #[test]
    fn roundtrip_names() {
        let mut s = Schema::new();
        let ids: Vec<Label> = ["A", "B", "C"]
            .iter()
            .map(|n| s.register_vertex_label(n))
            .collect();
        for (i, n) in ["A", "B", "C"].iter().enumerate() {
            assert_eq!(s.vertex_label(n).unwrap(), ids[i]);
            assert_eq!(s.vertex_label_name(ids[i]), *n);
        }
    }

    #[test]
    fn any_label_renders_star() {
        let s = Schema::new();
        assert_eq!(s.vertex_label_name(Label::ANY), "*");
        assert_eq!(s.edge_label_name(Label::ANY), "*");
    }
}
