#!/usr/bin/env bash
# Determinism gate under machine load: every experiment binary (bench/e*,
# bench/a*) and every example must print its recorded stdout while three
# copies of e4_sustained_bw run alongside (concurrent load perturbs thread
# interleavings). All simulation is seeded, so any difference is a bug (a
# racy counter, an unordered merge, a timing-dependent branch).
#
# Each binary goes through scripts/check_stdout.sh, which hashes its stdout
# at EDSIM_THREADS=1 and 4 against tests/golden_stdout.sha256 — the rule
# `ctest -L golden_stdout` applies on a quiet machine, so repeat runs and
# thread counts need no pass of their own here. Last, design_explorer
# writes a fresh result store (--store) at EDSIM_THREADS=1 and 4, and the
# two files must be byte-identical. The script exits non-zero on any
# mismatch, naming the binary, or on a binary that exits non-zero.
#
# Every example runs without arguments (trace_replay falls back to its
# built-in demo trace). perf_microbench is not an experiment binary: its
# output is wall-clock timing and is expected to differ run to run.
# Binaries run from a scratch working directory so nothing lands in the
# tree.
#
# Usage: scripts/determinism.sh [build-dir]   (default: build)
set -euo pipefail
cd "$(dirname "$0")/.."
build=$(cd "${1:-build}" && pwd)
digests=tests/golden_stdout.sha256

bins=()
for b in "$build"/bench/e* "$build"/bench/a* "$build"/examples/*; do
  [ -x "$b" ] && [ -f "$b" ] && bins+=("$b")
done
[ "${#bins[@]}" -gt 0 ] || { echo "determinism: no binaries in $build"; exit 1; }
load_bin="$build/bench/e4_sustained_bw"
[ -x "$load_bin" ] || { echo "determinism: $load_bin missing"; exit 1; }
explorer="$build/examples/design_explorer"
[ -x "$explorer" ] || { echo "determinism: $explorer missing"; exit 1; }

work=$(mktemp -d)
cleanup() {
  # The load loops stop after their current run once the flag exists.
  touch "$work/stop"
  wait
  rm -rf "$work"
}
trap cleanup EXIT

for _ in 1 2 3; do
  (cd "$work" && while [ ! -e stop ]; do "$load_bin" > /dev/null; done) &
done
status=0
for b in "${bins[@]}"; do
  if ! scripts/check_stdout.sh "$b" "$digests"; then
    echo "determinism: $(basename "$b") does not match its recorded stdout" \
      "under load"
    status=1
  fi
done
touch "$work/stop"
wait

for t in 1 4; do
  (cd "$work" && EDSIM_THREADS="$t" "$explorer" --store "store$t.edrs" \
    > /dev/null) ||
    { echo "determinism: design_explorer --store failed at $t threads"; exit 1; }
done
if ! cmp "$work/store1.edrs" "$work/store4.edrs"; then
  echo "determinism: design_explorer --store bytes differ at 1 and 4 threads"
  status=1
fi
if [ "$status" -eq 0 ]; then
  echo "determinism: ${#bins[@]} binaries match their recorded stdout at 1" \
    "and 4 threads under load; result store byte-identical at 1 and 4 threads"
fi
exit "$status"
