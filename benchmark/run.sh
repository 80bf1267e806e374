#!/usr/bin/env bash
# The repository's benchmark. Builds the stand-alone package in this
# directory (offline, release) and hands every argument to it:
#
#   benchmark/run.sh                    every workload, each in its own process
#   benchmark/run.sh --trace            ... followed by the traced runs
#   benchmark/run.sh --agree            everything twice; the two must agree
#   benchmark/run.sh --smoke            one short pass per workload
#   benchmark/run.sh --list             the metric catalogue; runs nothing
#   benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#                                       one workload, one JSON line last
#
# Writes only under benchmark/out/ and the Cargo target directory
# (CARGO_TARGET_DIR if set, else benchmark/target).
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
# Build chatter goes to stderr: the last line of stdout is the result.
cargo build --offline --release --quiet --manifest-path "$here/Cargo.toml" --target-dir "$target" >&2
exec "$target/release/tm-benchmark" "$@"
