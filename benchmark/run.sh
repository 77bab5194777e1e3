#!/usr/bin/env bash
# Build the release binaries and run the benchmark harness.
#
#   benchmark/run.sh
#       every workload, end to end and traced; writes
#       benchmark/results/latest.json and benchmark/results/trace.json and
#       prints every metric by name with its unit.
#   benchmark/run.sh --workload NAME --seed N --seconds T --trace 0|1
#       one workload as the benchmark driver runs it; the last line of
#       stdout is the driver's JSON object.  Any harness flag passes through.
#   benchmark/run.sh compare A.json B.json
#
# Run from the repository root.  Fails without printing a result when the
# repository's sources are not there to build.
set -euo pipefail

if [[ ! -f Cargo.toml || ! -f benchmark/Cargo.toml ]]; then
    echo "error: run from the repository root (Cargo.toml and benchmark/Cargo.toml not found)" >&2
    exit 2
fi

# One target directory for both builds, so the harness finds `scenario` and
# `suite` beside itself.  The driver sets CARGO_TARGET_DIR; default to the
# repository's own target/.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$PWD/target}"
cargo build --release --quiet -p sprinklers-bench --bin scenario --bin suite
cargo build --release --quiet --manifest-path benchmark/Cargo.toml

harness="$CARGO_TARGET_DIR/release/benchmark"
if [[ $# -eq 0 ]]; then
    exec "$harness" --out benchmark/results/latest.json --trace-out benchmark/results/trace.json
fi
exec "$harness" "$@"
