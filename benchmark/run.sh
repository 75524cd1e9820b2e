#!/usr/bin/env bash
# The repo benchmark, one command.
#
#   benchmark/run.sh                       all five workloads, one JSON document under target/benchmark/
#   benchmark/run.sh --trace               ... plus the per-layer pass of each
#   benchmark/run.sh --quick               2 s per workload; stamped "comparable": false
#   benchmark/run.sh --selfcheck           all five twice; each metric's difference against its bound
#   benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#                                          one workload; the last line is the JSON result
#
# Builds the benchmark package (its own workspace, path dependencies on
# ../crates/*) offline, then runs it from the repository root.
set -euo pipefail

cd "$(dirname "$0")/.."

# The driver sets CARGO_TARGET_DIR; by hand, build beside the root
# workspace's artifacts without sharing a directory with them.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target/benchmark/build}"

cargo build --release --offline --manifest-path benchmark/Cargo.toml >&2

exec "$CARGO_TARGET_DIR/release/srv6-benchmark" "$@"
