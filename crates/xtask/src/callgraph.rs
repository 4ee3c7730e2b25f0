//! Approximate intra-workspace call graph over the item index.
//!
//! Call sites are recognized syntactically — `ident(`, `path::ident(`,
//! `.ident(` — and resolved *by name* against the index: a method call
//! resolves to every indexed method with that name, a `Type::fn` call
//! prefers methods whose impl type matches the qualifier. This
//! over-approximates (edges to same-named fns on unrelated types) and
//! under-approximates (trait-object dispatch through closures, macros that
//! expand to calls). DESIGN.md §11 spells out what that means for each
//! pass built on top.

use std::collections::HashMap;

use crate::index::ItemIndex;
use crate::lex::Token;

/// One syntactic call site inside a fn body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// 1-based source line.
    pub line: usize,
    /// Callee name (last path segment / method name).
    pub callee: String,
    /// `Type` in `Type::callee(..)` calls, if present.
    pub qualifier: Option<String>,
    /// True for `.callee(..)` method-call syntax.
    pub method: bool,
    /// True when the call has zero arguments (`callee()`).
    pub arity0: bool,
}

/// Method names the deep passes interpret as synchronization/blocking
/// *primitives* when called with zero args — they never become call-graph
/// edges, even when a workspace type happens to define a method with the
/// same name (e.g. an arity-0 `.lock()` is always treated as a mutex
/// acquisition, not a call to `LockTable::lock`, which takes three args).
pub const PRIMITIVE_METHODS: &[&str] = &["lock", "read", "write", "recv", "join", "wait"];

/// Maximum same-named candidates a call site may resolve to before the
/// name is considered carrying no signal (see the ambiguity cap below).
pub const MAX_CANDIDATES: usize = 3;

/// Method names that collide with std collection/iterator/trait APIs.
/// `.get(…)` on an unknown receiver is a `HashMap`/`Vec` access in almost
/// every real call site; resolving it to a same-named workspace method
/// cross-connects unrelated subsystems with phantom edges. Method-call
/// syntax never resolves through these names — **qualified** calls
/// (`Type::get(…)`) still do, so a genuinely lock-holding impl can
/// always be made visible to the analysis by naming it.
pub const STD_COLLISIONS: &[&str] = &[
    "get",
    "get_mut",
    "insert",
    "remove",
    "push",
    "pop",
    "len",
    "is_empty",
    "contains",
    "contains_key",
    "clear",
    "entry",
    "iter",
    "iter_mut",
    "drain",
    "take",
    "next",
    "clone",
    "extend",
    "retain",
    "keys",
    "values",
    "new",
    "default",
    "fmt",
    "eq",
    "cmp",
    "hash",
    "drop",
    "from",
    "into",
    "as_ref",
    "as_mut",
];

/// The resolved call graph: edges between fn ids in the [`ItemIndex`].
pub struct CallGraph {
    /// Per-fn outgoing edges as `(callee fn id, call-site line)`.
    pub edges: Vec<Vec<(usize, usize)>>,
}

/// Extract the syntactic call sites from one fn body token range.
pub fn extract_sites(ts: &[Token], body: (usize, usize)) -> Vec<CallSite> {
    let (start, end) = body;
    let mut out = Vec::new();
    for i in start..end.min(ts.len()) {
        let Some(name) = ts[i].ident() else { continue };
        if !ts.get(i + 1).is_some_and(|t| t.is('(')) {
            continue;
        }
        if KEYWORDS.contains(&name) {
            continue;
        }
        // `fn name(` is a nested definition, not a call.
        if i > 0 && ts[i - 1].ident() == Some("fn") {
            continue;
        }
        let method = i > 0 && ts[i - 1].is('.');
        let qualifier = if !method && i >= 3 && ts[i - 1].is(':') && ts[i - 2].is(':') {
            ts[i - 3].ident().map(str::to_string)
        } else {
            None
        };
        let arity0 = ts.get(i + 2).is_some_and(|t| t.is(')'));
        out.push(CallSite {
            line: ts[i].line,
            callee: name.to_string(),
            qualifier,
            method,
            arity0,
        });
    }
    out
}

const KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "return", "loop", "let", "in", "move", "ref", "mut", "as",
    "break", "continue", "else", "unsafe", "where", "impl", "dyn", "fn", "pub", "use", "mod",
];

/// Build the call graph over an index.
pub fn build(index: &ItemIndex) -> CallGraph {
    // Pre-split candidates: method-shaped (has a self type) vs any.
    let mut methods_by_name: HashMap<&str, Vec<usize>> = HashMap::new();
    for (i, f) in index.fns.iter().enumerate() {
        if f.self_ty.is_some() {
            methods_by_name.entry(f.name.as_str()).or_default().push(i);
        }
    }

    let mut edges = Vec::with_capacity(index.fns.len());
    for f in &index.fns {
        // Vendored shims wrap std primitives (channels, locks); modeling
        // their internals only manufactures phantom paths back into the
        // workspace (their *callers* in crates/ are still analyzed, and
        // the unsafe audit still scans their lines).
        let s = match f.body {
            Some(body) if !f.crate_name.starts_with("vendor/") => {
                extract_sites(&index.toks[f.file], body)
            }
            _ => Vec::new(),
        };
        let mut out: Vec<(usize, usize)> = Vec::new();
        for site in &s {
            if site.method && site.arity0 && PRIMITIVE_METHODS.contains(&site.callee.as_str()) {
                continue; // sync/blocking primitive, handled by the passes
            }
            if site.method && STD_COLLISIONS.contains(&site.callee.as_str()) {
                continue; // std-API name collision, no resolution signal
            }
            let candidates: &[usize] = if site.method {
                methods_by_name
                    .get(site.callee.as_str())
                    .map_or(&[], Vec::as_slice)
            } else {
                index.by_name.get(&site.callee).map_or(&[], Vec::as_slice)
            };
            // `Type::fn` restricts to impls of `Type` when any exist.
            let mut restricted: Vec<usize> = match &site.qualifier {
                Some(q) => {
                    let exact: Vec<usize> = candidates
                        .iter()
                        .copied()
                        .filter(|&c| index.fns[c].self_ty.as_deref() == Some(q))
                        .collect();
                    if exact.is_empty() {
                        candidates.to_vec()
                    } else {
                        exact
                    }
                }
                None => candidates.to_vec(),
            };
            // Ambiguity cap: a name shared by many items (`len`, `get`,
            // `take`, …) carries no resolution signal — linking to every
            // impl floods the graph with phantom paths that cross-connect
            // unrelated subsystems. Distinctive names (≤ MAX_CANDIDATES
            // impls) still resolve to all of them.
            if restricted.len() > MAX_CANDIDATES {
                restricted.clear();
            }
            for c in restricted {
                // Production code never resolves into test helpers.
                if index.fns[c].in_test && !f.in_test {
                    continue;
                }
                if !out.iter().any(|(e, _)| *e == c) {
                    out.push((c, site.line));
                }
            }
        }
        edges.push(out);
    }
    CallGraph { edges }
}

impl CallGraph {
    /// BFS from `roots`; returns `parent[fn] = Some((caller, line))` for
    /// every reachable fn (roots map to `None` but are present as keys).
    pub fn reach(&self, roots: &[usize]) -> HashMap<usize, Option<(usize, usize)>> {
        let mut parent: HashMap<usize, Option<(usize, usize)>> = HashMap::new();
        let mut queue: std::collections::VecDeque<usize> = std::collections::VecDeque::new();
        for &r in roots {
            parent.entry(r).or_insert(None);
            queue.push_back(r);
        }
        while let Some(f) = queue.pop_front() {
            for &(callee, line) in &self.edges[f] {
                if let std::collections::hash_map::Entry::Vacant(e) = parent.entry(callee) {
                    e.insert(Some((f, line)));
                    queue.push_back(callee);
                }
            }
        }
        parent
    }

    /// Human-readable call chain `root → … → target` from a `reach` map.
    pub fn chain(
        &self,
        index: &ItemIndex,
        parent: &HashMap<usize, Option<(usize, usize)>>,
        target: usize,
    ) -> String {
        let mut names = vec![index.fns[target].qual()];
        let mut cur = target;
        while let Some(Some((p, _))) = parent.get(&cur) {
            names.push(index.fns[*p].qual());
            cur = *p;
            if names.len() > 32 {
                break;
            }
        }
        names.reverse();
        names.join(" → ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index;
    use crate::scan::parse_source;

    fn graph_of(src: &str) -> (ItemIndex, CallGraph) {
        let idx = index::build(&[parse_source("crates/engine/src/x.rs", src)]);
        let g = build(&idx);
        (idx, g)
    }

    fn fn_id(idx: &ItemIndex, qual: &str) -> usize {
        idx.fns.iter().position(|f| f.qual() == qual).unwrap()
    }

    #[test]
    fn free_and_method_calls_resolve() {
        let (idx, g) = graph_of(
            "fn top() { helper(); w.go(); }\n\
             fn helper() {}\n\
             impl Worker {\n    fn go(&self) {}\n}\n",
        );
        let top = fn_id(&idx, "top");
        let callees: Vec<String> = g.edges[top]
            .iter()
            .map(|&(c, _)| idx.fns[c].qual())
            .collect();
        assert_eq!(callees, vec!["helper", "Worker::go"]);
    }

    #[test]
    fn qualified_calls_prefer_the_matching_impl() {
        let (idx, g) = graph_of(
            "fn top() { Worker::go(w); }\n\
             impl Worker {\n    fn go(&self) {}\n}\n\
             impl Other {\n    fn go(&self) {}\n}\n",
        );
        let top = fn_id(&idx, "top");
        assert_eq!(g.edges[top].len(), 1);
        assert_eq!(idx.fns[g.edges[top][0].0].qual(), "Worker::go");
    }

    #[test]
    fn arity0_primitive_methods_are_not_edges() {
        let (idx, g) = graph_of(
            "fn top(&self) { self.m.lock(); self.table.lock(txn, v); }\n\
             impl LockTable {\n    fn lock(&self, t: u64, v: u64) {}\n}\n",
        );
        let top = fn_id(&idx, "top");
        // `.lock()` (arity 0) is a primitive; `.lock(txn, v)` resolves.
        assert_eq!(g.edges[top].len(), 1);
        assert_eq!(idx.fns[g.edges[top][0].0].qual(), "LockTable::lock");
    }

    #[test]
    fn reach_and_chain_report_paths() {
        let (idx, g) = graph_of("fn a() { b(); }\nfn b() { c(); }\nfn c() {}\nfn lonely() {}\n");
        let a = fn_id(&idx, "a");
        let c = fn_id(&idx, "c");
        let lonely = fn_id(&idx, "lonely");
        let r = g.reach(&[a]);
        assert!(r.contains_key(&c));
        assert!(!r.contains_key(&lonely));
        assert_eq!(g.chain(&idx, &r, c), "a → b → c");
    }

    #[test]
    fn test_helpers_are_not_resolved_from_production_code() {
        let (idx, g) = graph_of(
            "fn top() { setup(); }\n\
             #[cfg(test)]\nmod tests {\n    fn setup() {}\n}\n",
        );
        let top = fn_id(&idx, "top");
        assert!(g.edges[top].is_empty());
    }
}
