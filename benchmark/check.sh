#!/usr/bin/env bash
# Smoke test of the benchmark itself, under a minute once built: unit tests,
# then `--check` (BENCHMARK.json is the specification and within the driver's
# limits; too many threads are refused; every workload at tiny sizes reports
# every named metric, finite, with correct outputs; the traced stream replay
# leaves at most 5% of its wall unattributed). Run from the repository root.
set -euo pipefail
cd "$(dirname "$0")/.."
cargo test --release --offline --quiet --manifest-path benchmark/Cargo.toml
cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- --check "$@"
