#!/usr/bin/env bash
# Builds mayac, mayad and the mayabench binary from source, then runs
# mayabench. Run it from the root of the repository:
#
#   bash mayabench/run.sh --workload cli_cold --seed 1 --seconds 10 --trace 0
#   bash mayabench/run.sh --self-test --seconds 5
#   bash mayabench/run.sh --check-counts --seed 1
#
# Build output goes to $CARGO_TARGET_DIR (default .bench_build). The last
# line of stdout is the JSON result; everything else goes to stderr.
set -euo pipefail

if [ ! -f Cargo.toml ] || [ ! -f src/bin/mayac.rs ]; then
    echo "mayabench: run this from the root of the maya repository" >&2
    exit 2
fi
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-.bench_build}"
case "$target" in
    /*) ;;
    *) target="$(pwd)/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

cargo build --release --offline --bin mayac --bin mayad 1>&2
cargo build --release --offline --manifest-path "$here/Cargo.toml" 1>&2
exec "$target/release/mayabench" --bench-dir "$here" --bin-dir "$target/release" "$@"
