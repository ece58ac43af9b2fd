#!/usr/bin/env bash
# Builds the arcaded server and the arcbench load generator from source, then
# runs one workload:
#
#   bash arcbench/run.sh --workload cold_models --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Both builds share one target directory
# (CARGO_TARGET_DIR, default .bench_build), so arcbench finds arcaded
# next to its own executable.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet -p arcade --bin arcaded
cargo build --release --offline --quiet --manifest-path arcbench/Cargo.toml
exec "$CARGO_TARGET_DIR/release/arcbench" "$@"
