#!/usr/bin/env bash
# Where does the host time of a benchmark workload go? A sampling profile of
# the unmodified benchmark binary, by function — the profile a `perf_opt`
# issue must name its layer from (ROADMAP aim 1).
#
#   scripts/profile.sh <workload> [--seconds N] [--seed N] [--layer REGEX]
#                      [--lines REGEX]
#   scripts/profile.sh -- <command> [args...]      any binary with debug info
#   scripts/profile.sh --heap <workload> [--seconds N] [--seed N]
#   scripts/profile.sh --heap -- <command> [args...]
#   scripts/profile.sh --rss <workload> [--seconds N] [--seed N]
#   scripts/profile.sh --rss -- <command> [args...]
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
# on — where inside a hot function its time goes.
#
# With `--heap`, where the host memory goes instead: scripts/heapprof.c (a
# counting allocator, preloaded) keeps the live bytes of each allocation
# site, and the profile is the live heap at its peak — one `heap:` line with
# the peak, then the share, megabytes and blocks of it by site, a site
# being the first four frames (inlined ones included, innermost first)
# outside the allocator and the standard library's collections.
#
# With `--rss`, what the resident set is made of: scripts/rssprof.c
# (preloaded) fires when the program opens /proc/self/status — the
# benchmark's one read of `VmHWM`, at its end, for `peak_rss_mb` — and the
# profile is one `rss:` line with that peak, then the resident KB and share
# of each part of the resident set at that moment: `[heap]`, the other
# anonymous mappings, the executable's text, read-only and data segments,
# and each shared object (`[libc.so.6]`; the preloaded hook is a row of
# its own, about 20 KB that a plain run does not have). `peak_rss_mb`
# counts the file-backed rows too, so a move of it is a heap move only if
# `[heap]` moves. Exits 0 with a notice where `cc` or `addr2line` is
# missing.
set -euo pipefail
cd "$(dirname "$0")/.."

for tool in cc addr2line; do
  command -v "$tool" >/dev/null || { echo "profile: no $tool on this host, nothing profiled"; exit 0; }
done
heap=0 rss=0
case "${1:-}" in
  --heap) heap=1; shift ;;
  --rss) rss=1; shift ;;
esac
[ $# -ge 1 ] || { sed -n '2,13p' "$0"; exit 2; }

dir="${CARGO_TARGET_DIR:-$PWD/target}/profile"
mkdir -p "$dir"
if ((heap)); then
  cc -O2 -shared -fPIC -ftls-model=initial-exec -o "$dir/heapprof.so" scripts/heapprof.c
elif ((rss)); then
  cc -O2 -shared -fPIC -o "$dir/rssprof.so" scripts/rssprof.c -ldl
else
  cc -O2 -shared -fPIC -o "$dir/sigprof.so" scripts/sigprof.c -ldl
fi

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

if ((rss)); then
  # `rssprof.so` writes `hwm <KB>`, `rss <KB>`, then `<KB> <class> <name>`
  # per part of the resident set: the heap, the other anonymous mappings,
  # the executable's segments by name, then each other file by its path.
  parts="$dir/rss.txt"
  rm -f "$parts"
  RSSPROF_OUT="$parts" LD_PRELOAD="$dir/rssprof.so" "${cmd[@]}" >/dev/null
  [ -s "$parts" ] || { echo "profile: $what never opened /proc/self/status, no resident set split"; exit 1; }
  awk -v what="$what" '
    $1 == "hwm" { hwm = $2; next }
    $1 == "rss" { rss = $2; next }
    {
      kb = $1; class = $2; name = $3
      for (i = 4; i <= NF; i++) name = name " " $i
      if (class == "exe") row = "executable " name
      else if (class == "object") { n = split(name, path, "/"); row = "[" path[n] "]" }
      else row = name
      at[row] = kb; order[++rows] = row; filed[row] = class == "exe" || class == "object"
      if (filed[row]) file += kb
    }
    END {
      printf "rss: %s, VmHWM %.3f MB when it read /proc/self/status, VmRSS %.3f MB then, %.3f MB of it file-backed\n", what, hwm / 1024, rss / 1024, file / 1024
      printf "columns: resident KB at that read, share of VmRSS\n"
      printf "\n== resident set by mapping ==\n"
      for (r = 1; r <= rows; r++) if (!filed[order[r]] || order[r] ~ /^executable /)
        printf "%7d  %5.1f%%  %s\n", at[order[r]], 100 * at[order[r]] / rss, order[r]
      for (r = 1; r <= rows; r++) if (filed[order[r]] && order[r] !~ /^executable /)
        printf "%7d  %5.1f%%  %s\n", at[order[r]], 100 * at[order[r]] / rss, order[r] | "sort -rn"
      close("sort -rn")
    }' "$parts"
  exit 0
fi

if ((heap)); then
  # `heapprof.so` writes a `peak <bytes> <blocks> <untracked>` line, then a
  # line per site live at the peak: its bytes, its blocks and its stack,
  # innermost frame first, each an offset into the executable or `-`. The
  # offsets are symbolized once each (`addr2line -i`: every inlined frame,
  # innermost first), and a site is named by its first four frames whose
  # function is not allocator plumbing — `alloc::`, `core::`, `std::`,
  # `hashbrown::` and the `__rust_alloc` shims.
  sites="$dir/heap.txt"
  rm -f "$sites"
  HEAPPROF_OUT="$sites" LD_PRELOAD="$dir/heapprof.so" "${cmd[@]}" >/dev/null
  [ -s "$sites" ] || { echo "profile: $what left no heap profile"; exit 1; }
  tail -n +2 "$sites" | tr ' ' '\n' | grep '^0x' | sort -u >"$dir/heap-pcs.txt" || true
  addr2line -a -f -i -C -e "$binary" <"$dir/heap-pcs.txt" >"$dir/heap-frames.txt"
  awk -v what="$what" -v frames="$dir/heap-frames.txt" '
    function key(pc) { sub(/^0x0*/, "", pc); return pc }
    function plumbing(f) {
      return f ~ /^<?(alloc|core|std|hashbrown)::/ || f ~ /^<[^:]* as (alloc|core|std)::/ ||
        f ~ /^(__rust_|__rdl_|__rg_|\?\?)/
    }
    BEGIN {
      while ((getline line < frames) > 0) {
        if (line ~ /^0x/) { pc = key(line); odd = 0; continue }
        if ((odd = !odd)) { sub(/::h[0-9a-f]{16}$/, "", line); fn[pc] = fn[pc] "\t" line }
      }
    }
    NR == 1 { peak = $2; blocks = $3; untracked = $4; next }
    {
      site = ""; taken = 0
      for (i = 3; i <= NF && taken < 4; i++) {
        if ($i == "-") continue
        n = split(substr(fn[key($i)], 2), f, "\t")
        for (j = 1; j <= n && taken < 4; j++) {
          if (plumbing(f[j]) || f[j] == last) continue
          site = site (taken++ ? " < " : "") f[j]; last = f[j]
        }
      }
      last = ""
      if (site == "") site = "(no frame outside the allocator)"
      bytes[site] += $1; count[site] += $2
    }
    END {
      printf "heap: %s, peak %.3f MB live in %d blocks (%d allocations not tracked)\n", what, peak / 1048576, blocks, untracked
      printf "columns: share of the live heap at its peak, MB, blocks\n"
      printf "\n== allocation site (first four frames outside the allocator, innermost first) ==\n"
      for (s in bytes)
        printf "%5.1f%%  %8.3f  %7d  %s\n", 100 * bytes[s] / peak, bytes[s] / 1048576, count[s], s | "sort -rn | head -n 15"
      close("sort -rn | head -n 15")
    }' "$sites"
  exit 0
fi

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
