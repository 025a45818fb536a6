#!/usr/bin/env bash
# Smoke check for CI: the benchmark's unit tests, then every workload at
# 1/100 of its op count with one repetition, traced pass included (the
# traced loops' meter tallies are checked against the real drivers').
# Finishes in well under a minute once built; exits non-zero on a failed
# check. Usage: wallbench/smoke.sh [seed]
set -euo pipefail
cd "$(dirname "$0")/.."
cargo test --offline --release --manifest-path wallbench/Cargo.toml
cargo run --offline --release --manifest-path wallbench/Cargo.toml -- \
    all --smoke --trace 1 --seed "${1:-8}"
