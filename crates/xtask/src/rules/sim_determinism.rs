//! `sim-determinism`: no wall-clock blocking or OS entropy in
//! sim-reachable crates.
//!
//! The deterministic simulator (`SimCluster` + `graphdance-sim`) runs the
//! whole cluster on one thread under a virtual clock: a given seed must
//! replay bit-identically forever, which is the contract every repro line
//! in `sim-repro/` depends on. That only holds if nothing on a
//! sim-reachable path blocks on the wall clock (`thread::sleep`,
//! `yield_now`) or pulls OS entropy (`OsRng`, `from_entropy`,
//! `rand::random`) — any of those would make the schedule depend on the
//! host machine instead of the seed. Raw `SystemTime` reads are equally
//! disqualifying (and unlike `Instant`, even constructing one is a
//! wall-clock dependency).
//!
//! The sibling `nondeterminism` rule already bans `Instant::now` /
//! `SystemTime::now` / `thread_rng` workspace-wide; this rule adds the
//! *blocking* and *entropy-source* constructs, but only inside the crates
//! the simulator can actually schedule. Threaded-mode-only code paths in
//! those crates (real network pacing, the trace-sink wait) carry a
//! `// lint: allow(sim-determinism)` with a justification for why the sim
//! can never reach them.

use super::Rule;
use crate::scan::{SourceFile, Violation};

/// Crates the simulator can schedule code from, plus the service layer
/// (its deadline/queue policy must stay a pure function of
/// `common::time::now()` so `svc=` repros replay). Baselines, the LDBC
/// driver, and the bench harness never run under `SimCluster`.
const SIM_REACHABLE: &[&str] = &[
    "crates/common/",
    "crates/storage/",
    "crates/query/",
    "crates/pstm/",
    "crates/engine/",
    "crates/sim/",
    "crates/service/",
];

/// Forbidden construct → why it breaks seeded replay.
const TOKENS: &[(&str, &str)] = &[
    (
        "thread::sleep",
        "blocks on the wall clock; advance the virtual clock (common::time::sim) instead",
    ),
    (
        "yield_now",
        "hands scheduling to the OS; the sim scheduler must own every interleaving",
    ),
    (
        "park_timeout",
        "blocks on the wall clock; the sim pumps actors instead of parking threads",
    ),
    (
        "SystemTime",
        "wall-clock reads diverge across runs; use common::time::now()",
    ),
    (
        "OsRng",
        "OS entropy is unseedable; use common::rng::{seeded, derive}",
    ),
    (
        "from_entropy",
        "OS entropy is unseedable; use common::rng::{seeded, derive}",
    ),
    (
        "rand::random",
        "implicitly OS-seeded; use common::rng::{seeded, derive}",
    ),
];

pub struct SimDeterminism;

impl Rule for SimDeterminism {
    fn name(&self) -> &'static str {
        "sim-determinism"
    }

    fn describe(&self) -> &'static str {
        "no thread::sleep/yield_now/SystemTime/OS entropy in sim-reachable crates"
    }

    fn check(&self, files: &[SourceFile]) -> Vec<Violation> {
        let mut out = Vec::new();
        for f in files {
            if !f.under(SIM_REACHABLE) {
                continue;
            }
            for line in &f.lines {
                if line.in_test || line.allows(self.name()) {
                    continue;
                }
                for (tok, why) in TOKENS {
                    if line.code.contains(tok) {
                        out.push(Violation {
                            rule: self.name(),
                            file: f.rel.clone(),
                            line: line.number,
                            message: format!("`{tok}` breaks deterministic replay: {why}"),
                        });
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::parse_source;

    fn run(rel: &str, src: &str) -> Vec<Violation> {
        SimDeterminism.check(&[parse_source(rel, src)])
    }

    #[test]
    fn flags_blocking_and_entropy_in_sim_crates() {
        let fixture = "std::thread::sleep(d);\nstd::thread::yield_now();\nlet t = std::time::SystemTime::now();\nlet mut r = SmallRng::from_entropy();\nlet x: u64 = rand::random();\n";
        let v = run("crates/engine/src/worker.rs", fixture);
        assert_eq!(v.len(), 5, "{v:#?}");
        assert!(v[0].message.contains("virtual clock"));
    }

    #[test]
    fn unreachable_crates_are_out_of_scope() {
        let fixture = "std::thread::sleep(backoff);\nlet r = SmallRng::from_entropy();\n";
        assert!(run("crates/baselines/src/bsp.rs", fixture).is_empty());
        assert!(run("crates/ldbc/src/driver.rs", fixture).is_empty());
    }

    #[test]
    fn threaded_mode_paths_carry_their_allow() {
        // Mirrors the real `engine/src/net.rs` pacing sleep.
        let fixture = "std::thread::sleep(d); // lint: allow(sim-determinism) threaded-mode only; sim pumps ingress itself\n";
        assert!(run("crates/engine/src/net.rs", fixture).is_empty());
    }

    #[test]
    fn tests_may_sleep() {
        let fixture = "#[cfg(test)]\nmod tests {\n    fn t() { std::thread::sleep(d); }\n}\n";
        assert!(run("crates/engine/src/engine.rs", fixture).is_empty());
    }

    #[test]
    fn duration_construction_is_not_a_clock_read() {
        let fixture = "let d = std::time::Duration::from_micros(5);\nlet t = graphdance_common::time::now();\n";
        assert!(run("crates/engine/src/coordinator.rs", fixture).is_empty());
    }
}
