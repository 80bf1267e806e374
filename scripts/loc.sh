#!/usr/bin/env bash
# Non-test line count of the workspace, one row per crate, then the total.
# Usage: scripts/loc.sh
#
# A file under crates/<crate>/src/ counts its lines above its first
# column-0 `#[cfg(test)]` (the unit tests below it are not counted), or
# all of its lines if it has none. Integration tests, examples, the
# benchmark and the vendored shims are not counted.
set -euo pipefail
cd "$(dirname "$0")/.."

total=0
for dir in crates/*/; do
  crate="$(basename "$dir")"
  lines=0
  while IFS= read -r -d '' f; do
    n=$(awk '/^#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$f")
    lines=$((lines + n))
  done < <(find "${dir}src" -name '*.rs' -print0)
  printf '%-8s %6d\n' "$crate" "$lines"
  total=$((total + lines))
done
printf '%-8s %6d\n' total "$total"
