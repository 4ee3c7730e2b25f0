#!/usr/bin/env bash
# Build the benchmark and run every workload, each in its own process.
#   benchmark/run.sh [--seed N] [--secs S] [--reps K] [--traced] [--quick]
# Prints `workload metric value unit` lines, writes benchmark/out/results.json,
# exits non-zero if any output is wrong. See benchmark/README.md.
set -euo pipefail
cd "$(dirname "$0")/.."
cargo build --release --offline --manifest-path benchmark/Cargo.toml
exec "${CARGO_TARGET_DIR:-benchmark/target}/release/graphdance-benchmark" all "$@"
