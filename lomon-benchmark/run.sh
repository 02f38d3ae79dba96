#!/usr/bin/env bash
# Build the `lomon` binary and the benchmark program from this checkout,
# then run one benchmark run:
#
#   bash lomon-benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Build outputs and generated inputs go to $CARGO_TARGET_DIR (default:
# .bench_build at the root of the checkout).
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
target="${CARGO_TARGET_DIR:-$root/.bench_build}"
case "$target" in
    /*) ;;
    *) target="$PWD/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" --bin lomon >&2
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$target/release/lomon-benchmark" --lomon "$target/release/lomon" \
    --data "$target/lomon-benchmark" "$@"
