#!/usr/bin/env bash
# Full verification gate: everything CI runs, runnable locally and offline.
# Usage: scripts/verify.sh [--quick]
#   --quick  skip the release build (debug build + tests + lints only)
set -euo pipefail
cd "$(dirname "$0")/.."

# The workspace vendors all external deps as path shims, so builds never
# need the network; --offline makes that a hard guarantee.
CARGO="cargo --offline"

quick=0
[ "${1:-}" = "--quick" ] && quick=1

echo "==> cargo fmt --check"
$CARGO fmt --all -- --check

echo "==> cargo build (debug)"
$CARGO build --workspace

if [ "$quick" -eq 0 ]; then
  echo "==> cargo build --release"
  $CARGO build --workspace --release
fi

echo "==> cargo test"
$CARGO test --workspace -q

# An allocator model's host state sits in a `tm_sim::TurnCell`, opened by
# the holder of the turn for a pointer compare; the borrow checker keeps
# events out of it (DESIGN.md §4.1, §5). Above their `#[cfg(test)]` line
# neither the five model files nor `state.rs` may grow a host lock, an
# `unsafe` or a SipHash map back.
echo "==> allocator models: no host lock, no unsafe, no std HashMap"
for f in glibc hoard tbb tc serial state; do
  if sed '/^#\[cfg(test)\]/q' "crates/alloc/src/$f.rs" |
    grep -nwE 'Mutex|RwLock|unsafe|std::collections::HashMap'; then
    echo "verify: crates/alloc/src/$f.rs holds one of Mutex, RwLock, unsafe, std::collections::HashMap"
    exit 1
  fi
done

# One path per operation at the plug-in seams (DESIGN.md §5, §12): an
# allocator or allocator wrapper implements only `try_malloc`/`try_free`
# (the panicking `malloc`/`free` are the trait's provided methods in
# lib.rs), and a TM backend or contention manager is a match arm, not a
# trait object.
echo "==> plug-in seams: try_malloc/try_free only; no backend or CM trait"
if grep -nE 'fn (malloc|free)\(' crates/alloc/src/*.rs | grep -v '^crates/alloc/src/lib.rs:'; then
  echo "verify: an allocator defines malloc/free; implement try_malloc/try_free"
  exit 1
fi
if grep -nE '\bdyn\b|^\s*(pub(\(crate\))? )?trait ' crates/stm/src/backend.rs crates/stm/src/cm.rs; then
  echo "verify: a TM backend or contention manager is dispatched through a trait"
  exit 1
fi

# One stack constructor (DESIGN.md §3.2, §15): a driver builds its machine,
# allocator wrapper and STM through `tm_stm::Stack::new`. Above its
# `#[cfg(test)]` line no library file outside the STM calls `Stm::new(`,
# the per-driver builders the constructor replaced stay gone, and so do
# the two wrappers the one `HeapAuditor` replaced.
echo "==> one stack constructor: Stm::new only in the STM; one allocator wrapper"
for f in $(grep -rl --include='*.rs' 'Stm::new(' crates/*/src | grep -v '^crates/stm/src/'); do
  if sed '/^#\[cfg(test)\]/q' "$f" | grep -n 'Stm::new('; then
    echo "verify: $f builds an STM by hand; use tm_stm::Stack::new"
    exit 1
  fi
done
if grep -rnE --include='*.rs' 'build_with_fault|build_audited|build_stack_faulted' crates tests examples; then
  echo "verify: a per-driver stack builder is back; use tm_stm::Stack::new"
  exit 1
fi
if grep -rnwE --include='*.rs' 'FaultInjector|AllocProfiler' crates tests examples; then
  echo "verify: a second allocator wrapper is back; the HeapAuditor injects faults and keeps the Table 5 profile"
  exit 1
fi

# One event log, or none (DESIGN.md, "No event log"): the stack keeps no
# event log, and each consumer records what it needs as plain data. The
# `tm_obs::trace` ring stays inside crates/obs, where nothing in the stack
# reaches it; outside crates/obs no Rust file may name it again.
echo "==> no event log: nothing outside crates/obs names the trace ring"
if grep -rnwE --include='*.rs' 'trace_event|Trace|EventKind|tm_obs::trace' crates |
  grep -v '^crates/obs/'; then
  echo "verify: a file outside crates/obs names the trace ring; record what you need as plain data"
  exit 1
fi

# One host thread (DESIGN.md §3.1): sweep cells run in order on the calling
# thread through `tm_obs::sweep`, and the heap auditor keeps Table 5 in one
# plain struct. The `tm_sweep` shim and `ShardedSlots` stay only for the
# benchmark's probes; outside crates/sweep and crates/obs no Rust file may
# name either again.
echo "==> one host thread: nothing outside crates/sweep and crates/obs names tm_sweep or ShardedSlots"
if grep -rnwE --include='*.rs' 'tm_sweep|ShardedSlots' crates |
  grep -vE '^crates/(sweep|obs)/'; then
  echo "verify: a file outside crates/sweep and crates/obs names tm_sweep or ShardedSlots; run cells with tm_obs::sweep, count into a plain struct"
  exit 1
fi

# One way to spin (DESIGN.md §4.1): a wait on a simulated word is
# `Ctx::cas_u64_spin` or `Ctx::read_u64_until`, whose repeats below the
# horizon the scheduler folds into one pass. Outside the simulator no
# `loop`/`while` block may be a spin by hand: one whose only uses of `ctx`
# are `read_u64(`/`cas_u64(` and `tick(`, both present. A loop that hands
# `ctx` to anything else between tries — NOrec's commit CAS, which
# re-validates; the sim-HTM fallback, which waits with `read_u64_until` —
# is a retry, not a spin.
echo "==> one way to spin: no hand-written cas/read + tick retry loop outside crates/sim"
spins=$(find crates tests examples -path crates/sim -prune -o -name '*.rs' -print | sort |
  while read -r f; do
    awk -v f="$f" '
      { sub(/\/\/.*/, ""); src[NR] = $0 }
      END {
        for (i = 1; i <= NR; i++) {
          if (src[i] !~ /^[ \t]*(loop|while)[ \t{]/) continue
          depth = 0; opened = 0; body = ""
          for (j = i; j <= NR; j++) {
            line = src[j]; sub(/^[ \t]+/, "", line); body = body line
            depth += gsub(/\{/, "{", line) - gsub(/\}/, "}", line)
            if (index(line, "{")) opened = 1
            if (opened && depth <= 0) break
          }
          rest = body
          gsub(/ctx\.(read_u64|cas_u64|tick)\(/, "", rest)
          if (body ~ /ctx\.tick\(/ && body ~ /ctx\.(read_u64|cas_u64)\(/ &&
              rest !~ /(^|[^A-Za-z0-9_])ctx([^A-Za-z0-9_]|$)/)
            print f ":" i ":" src[i]
        }
      }' "$f"
  done)
if [ -n "$spins" ]; then
  echo "$spins"
  echo "verify: a hand-written spin loop; use Ctx::cas_u64_spin or Ctx::read_u64_until"
  exit 1
fi

# One scheduler, two ways to hand the turn on (DESIGN.md §4.1). The run
# above used the default one; run the simulator's, the allocator models',
# the STM's and the model checker's own tests under each by name — the
# turn cell's tests, the models' multi-threaded conformance,
# cross-thread-free and snapshot tests, the STM's host round trip and
# recycled descriptors, and a session's delay table (written by the
# caller of `Sim::run`, read by the logical threads) are where host-side
# state reached outside the turn shows, and it shows differently on each backend (the STM's one
# `Host` lock is exact only because host work between events runs alone in
# hand-off order: a guard held across an event deadlocks there) — then
# hold the OS-thread reference to the committed whole-stack goldens:
# allocation order, abort counts and heap peaks are decided by host-side
# state between events, which only hand-off order makes deterministic. Both runs are the debug profile, so the cache
# model's `debug_assert_eq!(evicted_dirty, write_back)`, the scheduler's
# "a resumed thread is the minimum" and the overflow checks see the
# reference executor too.
for exec in fibers threads; do
  echo "==> cargo test -p tm-sim -p tm-alloc -p tm-stm -p tm-mc (TM_SIM_EXEC=$exec)"
  TM_SIM_EXEC=$exec $CARGO test -p tm-sim -p tm-alloc -p tm-stm -p tm-mc -q
done
echo "==> cargo test --test determinism (TM_SIM_EXEC=threads)"
TM_SIM_EXEC=threads $CARGO test -q --test determinism

# The non-test line count the simplicity issues record their deltas in:
# a smoke that the script still prints one row per crate and the total.
echo "==> scripts/loc.sh (non-test lines per crate)"
loc="$(scripts/loc.sh)"
echo "$loc" | tail -n 1
if [ "$(echo "$loc" | grep -cvE '^total ')" -ne 11 ] || ! echo "$loc" | grep -qE '^total +[0-9]+$'; then
  echo "$loc"
  echo "verify: scripts/loc.sh printed no total"
  exit 1
fi

echo "==> cargo clippy -D warnings"
$CARGO clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc -D warnings"
RUSTDOCFLAGS="-D warnings" $CARGO doc --workspace --no-deps -q

# One binary (built above) for every tmstudy gate below, picked once:
# release unless --quick.
tmstudy="${CARGO_TARGET_DIR:-target}/release/tmstudy"
[ "$quick" -eq 1 ] && tmstudy="${CARGO_TARGET_DIR:-target}/debug/tmstudy"

if [ "$quick" -eq 0 ]; then
  # An exhibit is a pure function of the code, so the release make_all,
  # run from an empty directory at the default scale, must rewrite every
  # committed results/<name>.json byte for byte. Nothing is memoized
  # between runs, so this is always a cold run (~20 s). make_all watches
  # no clock (a failing exhibit is an `error` cell and exit 1); `timeout`
  # is the watchdog that can kill a run that does not end.
  echo "==> make_all (exhibit drift against the committed results/*.json)"
  root="$PWD"
  regen="$(mktemp -d)"
  (cd "$regen" && env -u TM_SCALE timeout 900 \
    $CARGO run --release --manifest-path "$root/Cargo.toml" -p tm-bench --bin make_all >/dev/null)
  tracked="$(git ls-files 'results/*.json')"
  [ -n "$tracked" ] || { echo "verify: git lists no results/*.json to compare"; exit 1; }
  for f in $tracked; do
    cmp "$f" "$regen/$f" || {
      echo "verify: exhibit drift: $f is not what make_all regenerates ($regen/$f)"
      exit 1
    }
  done
  rm -rf "$regen"

  echo "==> tmstudy book --check (REPRODUCTION.md drift)"
  "$tmstudy" book --check
fi

# The schedule model checker must keep its teeth: every catalog mutant
# caught with a shrunk counterexample, zero violations on the clean STM.
# It builds hundreds of simulated machines for runs of a few hundred
# events each, so it is also where a machine that costs more than its run
# touches shows — as mmap, page-fault and munmap time. The binary is run
# directly under bash's `time`, and more than 30 % of its CPU
# seconds in the kernel fails the gate: a share, so host speed does not
# move it (under 0.10 while construction, snapshot and drop are
# O(touched); 0.6-0.7 with megabytes of tag arrays and page tables per
# machine).
echo "==> tmstudy mc --quick (schedule model checker + kernel share of its CPU time)"
tmp="$(mktemp -d)"
TIMEFORMAT='%U %S'
{ time "$tmstudy" mc --quick --name verify-mc --out "$tmp/mc.json" >/dev/null; } 2>"$tmp/time" || {
  cat "$tmp/time"
  exit 1
}
read -r user sys < <(tail -n 1 "$tmp/time")
rm -rf "$tmp"
awk -v u="$user" -v s="$sys" 'BEGIN {
  if (u + s > 0 && s / (u + s) > 0.30) {
    printf "verify: tmstudy mc --quick spent %.2f of %.2f CPU seconds in the kernel\n", s, u + s
    exit 1
  }
}'

# The same gate on the simulated OS's unmap: TBBMalloc sends every 8 KB
# block to the OS, so this run maps and unmaps 320 000 blocks. Host
# storage must follow the live mappings — a freed block gives its page
# back — or every block keeps a 4 KiB host page it wrote one word to, and
# most of the run's CPU time goes to page faults (0.77 of it before the
# unmap; about 0.05 since).
echo "==> tmstudy threadtest --alloc tbb --size 8192 (kernel share of its CPU time)"
tmp="$(mktemp -d)"
{ time "$tmstudy" threadtest --alloc tbb --threads 8 --size 8192 --pairs 40000 >/dev/null; } 2>"$tmp/time" || {
  cat "$tmp/time"
  exit 1
}
read -r user sys < <(tail -n 1 "$tmp/time")
rm -rf "$tmp"
awk -v u="$user" -v s="$sys" 'BEGIN {
  if (u + s > 0 && s / (u + s) > 0.30) {
    printf "verify: tmstudy threadtest --alloc tbb --size 8192 spent %.2f of %.2f CPU seconds in the kernel\n", s, u + s
    exit 1
  }
}'

# The correctness matrix (serial oracles, heap audits, STAMP differentials,
# the explorer's self-test) and the allocation-failure plane (every
# allocation site, when failed, must yield either a committed retry or a
# clean AllocFailed abort — zero leaks, zero invariant violations): each
# exits 1 on a degraded cell, and each report is a committed fixed point
# (tests/golden/, like the 25 exhibits under results/: neither carries a
# host-time field). The same under either executor — whatever host timing
# could decide would show under TM_SIM_EXEC=threads as a differing abort
# count, heap peak or failing site — so that one is compared three times.
# GOLDEN_BLESS=1 rewrites the goldens from the fiber run, for an intended
# change of either report.
golden_gate() { # golden_gate <golden> <subcommand...>
  local golden="$1" tmp exec
  shift
  echo "==> tmstudy $* ($golden, under fibers and under threads)"
  tmp="$(mktemp -d)"
  for exec in fibers threads threads threads; do
    TM_SIM_EXEC="$exec" "$tmstudy" "$@" --out "$tmp/report.json" >/dev/null
    [ "${GOLDEN_BLESS:-}" = 1 ] && [ "$exec" = fibers ] && cp "$tmp/report.json" "$golden"
    cmp "$tmp/report.json" "$golden" || {
      echo "verify: tmstudy $* under TM_SIM_EXEC=$exec is not $golden (GOLDEN_BLESS=1 rewrites it)"
      exit 1
    }
  done
  rm -rf "$tmp"
}
golden_gate tests/golden/check-quick.check.json check --quick
golden_gate tests/golden/oom-quick.oom.json mc --oom

# The non-default backend must keep sweeping end-to-end (its dispatch arm,
# CLI plumbing, report emission), not just pass unit tests. A gate, not
# only a smoke: a sweep with an `error` cell exits 1, so a backend that
# breaks any of the 12 cells fails here; the matrix is not kept, and
# `timeout` bounds a run that does not end.
sweep_gate() { # sweep_gate <sweep flags...>
  local out
  out="$(mktemp)"
  timeout 300 "$tmstudy" sweep --quick "$@" --out "$out" >/dev/null
  rm -f "$out"
}
echo "==> tmstudy sweep --quick --backend norec (backend gate)"
sweep_gate --backend norec --name verify-norec

# The same gate for a non-default contention manager (a non-Suicide arm
# of the CM dispatch, exercised by CI's perf-smoke job too).
echo "==> tmstudy sweep --quick --cm backoff (contention-manager gate)"
sweep_gate --cm backoff --name verify-cm-backoff

if [ "$quick" -eq 0 ]; then
  # The repository's benchmark: its tests hold the workloads against the
  # library, then one short pass over all five workloads.
  echo "==> benchmark (package tests + run.sh --smoke)"
  (cd benchmark && $CARGO test --release)
  timeout 900 bash benchmark/run.sh --smoke

  # The pair runner a perf claim is measured with: one pair, the same
  # binary on both sides, the shortest run the benchmark accepts. The two
  # sides must agree on virt_ms, ops and failed.
  echo "==> scripts/pairs.sh (smoke: one pair of one binary)"
  bench="${CARGO_TARGET_DIR:-benchmark/target}/release/tm-benchmark"
  timeout 300 scripts/pairs.sh "$bench" "$bench" alloc-churn --pairs 1 --seconds 0 || {
    echo "verify: scripts/pairs.sh failed on one pair of one binary"
    exit 1
  }

  # The profiler a perf_opt issue names its layer from must keep naming
  # one: on synth-matrix the function with the most samples is the
  # simulator's (it says so itself where cc or addr2line is missing). The
  # smoke also prints the cache model's share counted by any frame, and
  # the source lines of the L1 miss path, which must name the simulator's.
  echo "==> scripts/profile.sh synth-matrix (smoke: the top row is in tm_sim::)"
  table="$(timeout 900 scripts/profile.sh synth-matrix --seconds 2 --layer 'tm_sim::cache::' \
    --lines 'Hierarchy::miss')"
  echo "$table" | head -n 8
  case "$table" in
    "profile: no "*) ;;
    *)
      echo "$table" | awk '/^== outermost/ { getline; print; exit }' | grep -q 'tm_sim' || {
        echo "verify: the profile's top row is not a tm_sim function"
        exit 1
      }
      echo "$table" | awk '/^== innermost line/ { rows = 1; next } rows' | grep -q 'crates/sim/src/' || {
        echo "verify: the profile's --lines table of Hierarchy::miss has no crates/sim/src/ row"
        exit 1
      }
      ;;
  esac
fi

echo "verify: all gates passed"
