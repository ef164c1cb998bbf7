#!/usr/bin/env bash
# Determinism gate: every experiment binary (bench/e*, bench/a*) and every
# example must print byte-identical stdout across repeated runs, worker
# thread counts and machine load. All simulation is seeded, so any
# difference is a bug (a racy counter, an unordered merge, a timing-
# dependent branch).
#
# Passes, each over the full binary list:
#   1. EDSIM_THREADS=1            (the reference output)
#   2. EDSIM_THREADS=1            (repeat run)
#   3. EDSIM_THREADS=4            (thread fan-out)
#   4. EDSIM_THREADS=4 while 3 copies of e4_sustained_bw run alongside
#      (concurrent load perturbs thread interleavings)
# Passes 2-4 are diffed against pass 1; the script exits non-zero on any
# difference or on a binary that exits non-zero. Last, design_explorer
# writes a fresh result store (--store) at EDSIM_THREADS=1 and 4, and the
# two files must be byte-identical too.
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

# run_pass <name> <threads>: stdout of every binary into $work/<name>/.
run_pass() {
  mkdir -p "$work/$1"
  for b in "${bins[@]}"; do
    (cd "$work" && EDSIM_THREADS="$2" "$b" > "$work/$1/$(basename "$b")") ||
      { echo "determinism: $(basename "$b") failed in pass $1"; exit 1; }
  done
}

run_pass ref 1
run_pass repeat 1
run_pass threads4 4
for _ in 1 2 3; do
  (cd "$work" && while [ ! -e stop ]; do "$load_bin" > /dev/null; done) &
done
run_pass loaded 4
touch "$work/stop"
wait

status=0
for pass in repeat threads4 loaded; do
  for b in "${bins[@]}"; do
    n=$(basename "$b")
    if ! cmp -s "$work/ref/$n" "$work/$pass/$n"; then
      echo "determinism: $n differs in pass '$pass':"
      diff "$work/ref/$n" "$work/$pass/$n" | head -20 || true
      status=1
    fi
  done
done
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
  echo "determinism: ${#bins[@]} binaries byte-identical across 4 passes;" \
    "result store byte-identical at 1 and 4 threads"
fi
exit "$status"
