#!/bin/sh
# Run the full set (end-to-end and traced pass of every workload) SETS times
# and fail if any end-to-end metric's spread between the sets exceeds its
# bound in BENCHMARK.json, or any operation failed. Extra arguments are
# passed through, e.g. `benchmark/agree.sh --ops 4000` to also require the
# exact counters to be identical between the sets.
set -eu
cd "$(dirname "$0")/.."
exec cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
    --seed "${SEED:-1}" --sets "${SETS:-5}" --trace "$@"
