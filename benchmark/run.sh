#!/usr/bin/env bash
# The repo benchmark. Builds the `taq-benchmark` package in release mode,
# then hands every argument to it:
#
#   bash benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       one run of one workload; the last line of standard output is the
#       result object (this is what BENCHMARK.json's `command` runs)
#   bash benchmark/run.sh [--seed N] [--seconds S] [--out DIR]
#       every workload in its own process, untraced then traced;
#       writes DIR/results.json (default DIR: benchmark/out)
#   bash benchmark/run.sh --smoke
#       the same at toy size, under a minute in all
#   bash benchmark/run.sh --compare A/results.json B/results.json
#
# Run it from the repository root. The build goes to $CARGO_TARGET_DIR
# when that is set, else to benchmark/target.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"

# The build's own output goes to standard error: standard output belongs
# to the result line. A failed build (for one, a checkout without the
# crates this package depends on) ends the script here, with cargo's
# exit code and no result printed.
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" 1>&2

exec "$target/release/taq-benchmark" "$@"
