//! `adhoc-counter`: metrics belong in `crates/obs`, not in scattered
//! atomics.
//!
//! PR 3 introduced the sharded `graphdance-obs` registry precisely so the
//! engine stops growing one-off `AtomicU64` / `Cell<u64>` counters that
//! each invent their own snapshot/reset story and (worse) put contended
//! `lock xadd`s on hot paths. New counters in the instrumented crates
//! (`engine`, `pstm`, `storage`) and in the measurement crates (`bench`,
//! `sim` — whose numbers feed committed BENCH_*.json artifacts and DST
//! verdicts, so ad-hoc counting there corrupts the record) must register
//! with the obs registry instead; the rule flags any other `AtomicU64` or
//! `Cell<u64>` appearing there.
//!
//! Legitimate non-metric uses — id allocators, sequencing for fault
//! injection, `NetStats` (per-flush totals) — carry a
//! `// lint: allow(adhoc-counter) <why>` annotation as the audit trail.
//! Plain `use` imports are not flagged (the import is harmless; the
//! declaration or constructor site is where the decision shows).

use super::Rule;
use crate::scan::{SourceFile, Violation};

pub struct AdhocCounter;

/// Crates whose counters must live in the obs registry.
const SCOPED: [&str; 6] = [
    "crates/engine/src/",
    "crates/pstm/src/",
    "crates/storage/src/",
    "crates/bench/src/",
    "crates/sim/src/",
    "crates/service/src/",
];

impl Rule for AdhocCounter {
    fn name(&self) -> &'static str {
        "adhoc-counter"
    }

    fn describe(&self) -> &'static str {
        "no ad-hoc AtomicU64/Cell<u64> counters in engine/pstm/storage/bench/sim/service — register obs metrics"
    }

    fn check(&self, files: &[SourceFile]) -> Vec<Violation> {
        let mut out = Vec::new();
        for f in files {
            if !SCOPED.iter().any(|p| f.rel.starts_with(p)) {
                continue;
            }
            for line in &f.lines {
                if line.in_test || line.allows(self.name()) {
                    continue;
                }
                let code = line.code.trim_start();
                if code.starts_with("use ") || code.starts_with("pub use ") {
                    continue;
                }
                for ty in ["AtomicU64", "Cell<u64>"] {
                    if contains_token(&line.code, ty) {
                        out.push(Violation {
                            rule: self.name(),
                            file: f.rel.clone(),
                            line: line.number,
                            message: format!(
                                "ad-hoc {ty} counter — register a metric with the \
                                 graphdance-obs registry (or annotate why this is \
                                 not a metric)"
                            ),
                        });
                    }
                }
            }
        }
        out
    }
}

/// `needle` appears in `hay` not embedded in a larger identifier (so
/// `AtomicU64` does not match a hypothetical `MyAtomicU64x`). `<` / `>`
/// in the needle match literally.
fn contains_token(hay: &str, needle: &str) -> bool {
    let mut start = 0;
    while let Some(pos) = hay[start..].find(needle) {
        let at = start + pos;
        let before_ok = at == 0
            || !hay[..at]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        let after = at + needle.len();
        let after_ok = after >= hay.len()
            || !hay[after..]
                .chars()
                .next()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        if before_ok && after_ok {
            return true;
        }
        start = at + needle.len();
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::parse_source;

    fn run(rel: &str, src: &str) -> Vec<Violation> {
        AdhocCounter.check(&[parse_source(rel, src)])
    }

    #[test]
    fn flags_field_and_ctor_sites_in_scope() {
        let fixture = "use std::sync::atomic::AtomicU64;\n\
                       struct S {\n    hits: AtomicU64,\n    misses: std::cell::Cell<u64>,\n}\n\
                       fn f() { let c = AtomicU64::new(0); }\n";
        let v = run("crates/engine/src/worker.rs", fixture);
        assert_eq!(v.len(), 3, "{v:#?}");
        assert!(v.iter().all(|v| v.rule == "adhoc-counter"));
        assert!(v[0].message.contains("graphdance-obs"));
    }

    #[test]
    fn imports_are_not_flagged() {
        let fixture = "use std::sync::atomic::{AtomicU64, Ordering};\n\
                       pub use std::cell::Cell;\n";
        assert!(run("crates/pstm/src/memo.rs", fixture).is_empty());
    }

    #[test]
    fn out_of_scope_crates_are_free() {
        let fixture = "struct S { n: AtomicU64 }\n";
        assert!(run("crates/txn/src/manager.rs", fixture).is_empty());
        assert!(run("crates/obs/src/shared.rs", fixture).is_empty());
        assert!(run("crates/baselines/src/bsp.rs", fixture).is_empty());
    }

    #[test]
    fn measurement_crates_are_in_scope() {
        let fixture = "struct S { n: AtomicU64 }\n";
        assert_eq!(run("crates/bench/src/lib.rs", fixture).len(), 1);
        assert_eq!(
            run("crates/bench/src/bin/transport_ab.rs", fixture).len(),
            1
        );
        assert_eq!(run("crates/sim/src/oracle.rs", fixture).len(), 1);
    }

    #[test]
    fn allow_annotation_and_tests_escape() {
        let fixture = "// lint: allow(adhoc-counter) id allocator, not a metric\n\
                       struct S { next_id: AtomicU64 }\n\
                       fn g() { let n = AtomicU64::new(0); } // lint: allow(adhoc-counter) seq\n\
                       #[cfg(test)]\nmod tests {\n    fn t() { let c = AtomicU64::new(0); }\n}\n";
        assert!(run("crates/storage/src/graph.rs", fixture).is_empty());
    }

    #[test]
    fn other_atomics_are_fine() {
        let fixture = "struct S { stop: std::sync::atomic::AtomicBool, n: AtomicUsize }\n";
        assert!(run("crates/engine/src/engine.rs", fixture).is_empty());
    }
}
