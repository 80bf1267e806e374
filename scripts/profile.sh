#!/usr/bin/env bash
# Where does the host time of a benchmark workload go? A sampling profile of
# the unmodified benchmark binary, by function — the profile a `perf_opt`
# issue must name its layer from (ROADMAP aim 1).
#
#   scripts/profile.sh <workload> [--seconds N] [--seed N] [--layer REGEX]
#                      [--lines REGEX]
#   scripts/profile.sh -- <command> [args...]      any binary with debug info
#
# Builds scripts/sigprof.c (a SIGPROF sampler, preloaded) and the benchmark
# package with debug info into their own target directory
# (${CARGO_TARGET_DIR:-target}/profile; nothing under benchmark/ is touched),
# runs the workload and prints two tables, share of samples by function:
# the outermost (non-inlined) function a sample is in, and the innermost
# frame inlined there. Each share is given twice: of the samples outside the
# benchmark's own calibration kernel, which `host_s` does not time — so "X %
# of the profile" and "`host_s` can fall by X %" are the same X — and of all
# samples. A sample outside the executable is a row of its shared object in
# both tables (`[libc.so.6]`: glibc's malloc, free and memset among them).
# With `--layer REGEX`, one more line before the tables: the share of the
# samples outside the kernel that have any frame — inlined or outermost —
# whose function matches REGEX (an awk regex), i.e. the layer counted the
# other way. With `--lines REGEX`, a third table: of the samples outside the
# kernel whose outermost function matches REGEX, the share by the source
# line (`file:line`, relative to the repository) their innermost frame is
# on — where inside a hot function its time goes. Exits 0 with a notice
# where `cc` or `addr2line` is missing.
set -euo pipefail
cd "$(dirname "$0")/.."

for tool in cc addr2line; do
  command -v "$tool" >/dev/null || { echo "profile: no $tool on this host, nothing profiled"; exit 0; }
done
[ $# -ge 1 ] || { sed -n '2,9p' "$0"; exit 2; }

dir="${CARGO_TARGET_DIR:-$PWD/target}/profile"
mkdir -p "$dir"
cc -O2 -shared -fPIC -o "$dir/sigprof.so" scripts/sigprof.c -ldl

if [ "$1" = "--" ]; then
  shift
  what="$*"
  cmd=("$@")
else
  what="$1"
  seconds=5 seed=24301 layer="" lines=""
  shift
  while [ $# -gt 0 ]; do
    case "$1" in
      --seconds) seconds="$2" ;;
      --seed) seed="$2" ;;
      --layer) layer="$2" ;;
      --lines) lines="$2" ;;
      *) echo "profile: unknown flag $1"; exit 2 ;;
    esac
    shift 2
  done
  CARGO_PROFILE_RELEASE_DEBUG=1 cargo build --offline --release --quiet \
    --manifest-path benchmark/Cargo.toml --target-dir "$dir" >&2
  cmd=("$dir/release/tm-benchmark" --workload "$what" --seed "$seed" --seconds "$seconds" --trace 0)
fi
binary="$(command -v "${cmd[0]}")"

samples="$dir/samples.txt"
rm -f "$samples"
SIGPROF_OUT="$samples" LD_PRELOAD="$dir/sigprof.so" "${cmd[@]}" >/dev/null
[ -s "$samples" ] || { echo "profile: $what left no samples"; exit 1; }

# `addr2line -a -f -i` prints, per address: the address, then a function
# line and a file:line line per frame, innermost inlined frame first and
# the function that was actually called last. A sample with a frame in
# `tm_benchmark::calib::` is the benchmark timing its own calibration
# kernel: `host_s` leaves that time out, so each share is printed twice —
# of the samples outside the kernel (the share by which `host_s` should
# move if the function cost nothing), then of all samples. The samples
# outside the executable come counted by shared object ("<count> -<name>").
objects="$dir/objects.txt"
{ grep '^-' "$samples" || true; } | sort | uniq -c >"$objects"
grep -v '^-' "$samples" | addr2line -a -f -i -C -e "$binary" |
  LAYER="${layer:-}" LINES="${lines:-}" ROOT="$PWD/" awk -v what="$what" \
  -v outside="$(grep -c '^-' "$samples" || true)" -v objects="$objects" '
  function close_sample() {
    if (innermost == "") return
    n++
    if (in_calib) { calib++; inner_calib[innermost]++; outer_calib[last]++ }
    else {
      inner[innermost]++; outer[last]++; layer += in_layer
      if (ENVIRON["LINES"] != "" && last ~ ENVIRON["LINES"]) { at_line[line]++; in_lines++ }
    }
  }
  function table(title, count, count_calib,    f, lines) {
    printf "\n== %s ==\n", title
    for (f in count)
      lines = lines sprintf("%5.1f%%  %5.1f%%  %s\n", 100 * count[f] / (n + outside - calib), 100 * count[f] / (n + outside), f)
    for (f in count_calib)
      lines = lines sprintf("    -   %5.1f%%  %s\n", 100 * count_calib[f] / (n + outside), f)
    printf "%s", lines | "sort -rn | head -n 15"
    close("sort -rn | head -n 15")
  }
  /^0x/ { close_sample(); innermost = ""; frame = 0; in_calib = 0; in_layer = 0; next }
  { frame++ }
  frame == 2 {
    line = $0
    sub(/ \(discriminator [0-9]+\)$/, "", line)
    if (index(line, ENVIRON["ROOT"]) == 1) line = substr(line, length(ENVIRON["ROOT"]) + 1)
  }
  frame % 2 == 1 {
    sub(/::h[0-9a-f]{16}$/, "")
    if (innermost == "") innermost = $0
    if ($0 ~ /^tm_benchmark::calib::/) in_calib = 1
    if (ENVIRON["LAYER"] != "" && $0 ~ ENVIRON["LAYER"]) in_layer = 1
    last = $0
  }
  END {
    close_sample()
    while ((getline line < objects) > 0) {
      split(line, field, " ")
      name = "[" substr(field[2], 2) "]"
      outer[name] += field[1]; inner[name] += field[1]
    }
    printf "profile: %s, %d samples at 250 Hz, %d of them outside the executable, %d in the benchmark'"'"'s calibration kernel\n", what, n + outside, outside, calib
    printf "columns: share of the %d samples outside the calibration kernel (what host_s times), share of all %d\n", n + outside - calib, n + outside
    if (ENVIRON["LAYER"] != "")
      printf "layer /%s/: %.1f%% of the samples outside the calibration kernel have a frame in it (%d of %d)\n", ENVIRON["LAYER"], 100 * layer / (n + outside - calib), layer, n + outside - calib
    table("outermost non-inlined function", outer, outer_calib)
    table("innermost inlined frame", inner, inner_calib)
    if (ENVIRON["LINES"] != "") {
      printf "\n== innermost line of the %d samples in /%s/ (share of them, share of the samples outside the calibration kernel) ==\n", in_lines, ENVIRON["LINES"]
      for (l in at_line)
        printf "%5.1f%%  %5.1f%%  %s\n", 100 * at_line[l] / in_lines, 100 * at_line[l] / (n + outside - calib), l | "sort -rn | head -n 15"
      close("sort -rn | head -n 15")
    }
  }'
