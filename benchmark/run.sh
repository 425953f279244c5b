#!/usr/bin/env bash
# One command for the whole benchmark: build the release `tesc-serve`
# binary and the benchmark package, then run it. See README.md.
#
#   benchmark/run.sh [--workload NAME] [--seed N] [--seconds S]
#                    [--trace [0|1]] [--smoke] [--repeat K]
set -euo pipefail
cd "$(dirname "$0")/.."

# Build chatter goes to stderr: stdout carries only results.
cargo build --release --offline --bin tesc-serve >&2
cargo build --release --offline --manifest-path benchmark/Cargo.toml >&2

export TESCBENCH_SERVE_BIN="${CARGO_TARGET_DIR:-target}/release/tesc-serve"
TESCBENCH_COMMIT="$(git rev-parse HEAD 2>/dev/null || true)"
export TESCBENCH_COMMIT
exec "${CARGO_TARGET_DIR:-benchmark/target}/release/tescbench" "$@"
