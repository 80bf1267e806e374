#!/usr/bin/env bash
# Alternating parent/change pairs of one benchmark workload.
# Usage: scripts/pairs.sh <parent-bin> <change-bin> <workload>
#                         [--pairs N] [--seconds S] [--seed S]
#
# Each binary is a built `tm-benchmark` (benchmark/, built once per side
# into its own CARGO_TARGET_DIR). Pair i runs both sides' one-workload form
# `--workload W --seed S+i --seconds S --trace 0`, the parent first on even
# pairs and the change first on odd ones, so neither side always runs on a
# cooler host. It prints one row per pair (which side went first, host_s
# of each side and their ratio, then setup_s and peak_rss_mb of each), each
# side's median and quartiles of those three metrics (the exclusive rule
# of the benchmark's `stats.rs`), the pairs the change won (lower host_s),
# and whether `virt_ms`, `ops` and `failed` agree between the sides on
# every pair. Exits 1 if they do not, or if a run fails.
# Defaults: 10 pairs, the benchmark's 18-second runs, seed 9000.
set -euo pipefail

usage() {
  echo "usage: scripts/pairs.sh <parent-bin> <change-bin> <workload> [--pairs N] [--seconds S] [--seed S]" >&2
  exit 2
}
[ $# -ge 3 ] || usage
parent=$1 change=$2 workload=$3
shift 3
pairs=10 seconds=18 seed=9000
while [ $# -gt 0 ]; do
  case "$1" in
    --pairs) pairs=${2:?}; shift 2 ;;
    --seconds) seconds=${2:?}; shift 2 ;;
    --seed) seed=${2:?}; shift 2 ;;
    *) usage ;;
  esac
done
for bin in "$parent" "$change"; do
  [ -x "$bin" ] || { echo "pairs: $bin is not an executable" >&2; exit 2; }
done
case "$pairs" in '' | *[!0-9]* | 0) usage ;; esac

# The value of metric $2 (or the top-level field, for `failed`) in the
# JSON object on the last line of $1.
field() {
  if [ "$2" = failed ]; then
    sed -n 's/.*"failed":\([0-9]*\).*/\1/p' <<<"$1"
  else
    sed -n "s/.*\"$2\":{\"value\":\([-0-9.eE+]*\).*/\1/p" <<<"$1"
  fi
}

# One run of side $1 (a binary) for pair seed $2: its last stdout line.
run() {
  local out
  out="$("$1" --workload "$workload" --seed "$2" --seconds "$seconds" --trace 0)" || {
    echo "pairs: $1 --workload $workload --seed $2 failed" >&2
    exit 1
  }
  tail -n 1 <<<"$out"
}

agree=1
metrics=(host_s setup_s peak_rss_mb)
declare -A parent_vals change_vals
printf '%-5s %-7s %10s %10s %7s %10s %10s %9s %9s\n' pair first \
  host_s:p host_s:c ratio setup_s:p setup_s:c rss_mb:p rss_mb:c
for ((i = 0; i < pairs; i++)); do
  s=$((seed + i))
  if ((i % 2 == 0)); then
    first=parent
    p="$(run "$parent" "$s")"
    c="$(run "$change" "$s")"
  else
    first=change
    c="$(run "$change" "$s")"
    p="$(run "$parent" "$s")"
  fi
  row=()
  for m in "${metrics[@]}"; do
    pv="$(field "$p" "$m")" cv="$(field "$c" "$m")"
    [ -n "$pv" ] && [ -n "$cv" ] || { echo "pairs: no $m in a row of pair $i" >&2; exit 1; }
    parent_vals[$m]+="$pv " change_vals[$m]+="$cv "
    row+=("$pv" "$cv")
  done
  for m in virt_ms ops failed; do
    if [ "$(field "$p" "$m")" != "$(field "$c" "$m")" ]; then
      agree=0
      echo "pairs: pair $i (seed $s): $m is $(field "$p" "$m") on the parent, $(field "$c" "$m") on the change" >&2
    fi
  done
  awk -v i="$i" -v f="$first" -v r="${row[*]}" 'BEGIN {
    split(r, v, " ")
    printf "%-5d %-7s %10.6f %10.6f %7.4f %10.6f %10.6f %9.3f %9.3f\n",
      i, f, v[1], v[2], v[2] / v[1], v[3], v[4], v[5], v[6]
  }'
done

# n, median, q1 and q3 of the numbers on stdin.
summary() {
  sort -g | awk '{ v[NR] = $1 } END {
    m = NR
    med = (m % 2) ? v[(m + 1) / 2] : (v[m / 2] + v[m / 2 + 1]) / 2
    if (m == 1) { q1 = q3 = med } else {
      for (i = 1; i <= 3; i += 2) {
        j = int(i * (m + 1) / 4); if (j < 1) j = 1; if (j > m - 1) j = m - 1
        d = i * (m + 1) - j * 4
        q[i] = (v[j] * (4 - d) + v[j + 1] * d) / 4
      }
      q1 = q[1]; q3 = q[3]
    }
    printf "n=%d median %.6f q1 %.6f q3 %.6f\n", m, med, q1, q3
  }'
}
for m in "${metrics[@]}"; do
  echo "parent $m: $(tr ' ' '\n' <<<"${parent_vals[$m]}" | grep . | summary)"
  echo "change $m: $(tr ' ' '\n' <<<"${change_vals[$m]}" | grep . | summary)"
done
read -ra parent_host <<<"${parent_vals[host_s]}"
read -ra change_host <<<"${change_vals[host_s]}"
wins=0
for ((i = 0; i < pairs; i++)); do
  if awk -v p="${parent_host[i]}" -v c="${change_host[i]}" 'BEGIN { exit !(c < p) }'; then
    wins=$((wins + 1))
  fi
done
echo "change wins: $wins of $pairs pairs (lower host_s)"
if ((agree)); then
  echo "virt_ms, ops, failed: agree on every pair"
else
  echo "virt_ms, ops, failed: DISAGREE"
  exit 1
fi
