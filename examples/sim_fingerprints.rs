//! Dump the simulated schedule of every `sim-repro/*.repro` corpus line
//! under a range of seeds, one output line per (corpus line, seed):
//!
//! ```text
//! file:line seed fingerprint trace_len steps verdict
//! ```
//!
//! Each corpus line runs under its own seed and the `N - 1` seeds after it
//! (`N` is the argument, 24 by default). A change that must leave every
//! simulated schedule alone leaves this output byte-identical, so run it on
//! both commits (same build profile — debug builds also run the weight
//! ledger) and compare:
//!
//! ```text
//! cargo run --release --example sim_fingerprints > before.txt   # parent
//! cargo run --release --example sim_fingerprints > after.txt    # change
//! diff before.txt after.txt
//! ```

use std::path::Path;

use graphdance_sim::{check_detailed, Repro, Verdict};

fn main() {
    let seeds: u64 = match std::env::args().nth(1) {
        Some(n) => n
            .parse()
            .unwrap_or_else(|_| panic!("seed count must be a number, got {n:?}")),
        None => 24,
    };
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files: Vec<_> = std::fs::read_dir(root.join("sim-repro"))
        .expect("sim-repro/ directory is committed")
        .map(|e| e.expect("readable dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "repro"))
        .collect();
    files.sort();
    for path in files {
        let name = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .display()
            .to_string();
        let text = std::fs::read_to_string(&path).expect("readable corpus file");
        for (no, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let at = format!("{name}:{}", no + 1);
            // The corpus adds an `expect=` field to the repro line proper.
            let fields: Vec<&str> = line
                .split_whitespace()
                .filter(|f| !f.starts_with("expect="))
                .collect();
            let base = Repro::parse(&fields.join(" ")).unwrap_or_else(|e| panic!("{at}: {e}"));
            for i in 0..seeds {
                let repro = Repro {
                    seed: base.seed.wrapping_add(i),
                    ..base
                };
                let report = check_detailed(&repro);
                let verdict = match report.verdict {
                    Verdict::Match => "match",
                    Verdict::Flagged(_) => "flagged",
                    Verdict::WrongAnswer { .. } => "wrong-answer",
                    Verdict::Failed(_) => "failed",
                };
                println!(
                    "{at} {:#x} {:016x} {} {} {verdict}",
                    repro.seed, report.fingerprint, report.trace_len, report.steps
                );
            }
        }
    }
}
