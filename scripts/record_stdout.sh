#!/usr/bin/env bash
# Rewrite tests/golden_stdout.sha256, the digests the `golden_stdout`
# ctest label checks (scripts/check_stdout.sh): one SHA-256 of stdout per
# experiment binary (bench/e*, bench/a*) and example, taken at
# EDSIM_THREADS=1. A binary whose stdout differs at EDSIM_THREADS=4 is
# an error and nothing is written. A change that alters any output
# re-records and says why in CHANGES.md.
#
# Usage: scripts/record_stdout.sh [build-dir]   (default: build)
set -euo pipefail
cd "$(dirname "$0")/.."
build=$(cd "${1:-build}" && pwd)
digests=tests/golden_stdout.sha256

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
mkdir "$work/run"
: > "$work/digests"
n=0
for b in "$build"/bench/e* "$build"/bench/a* "$build"/examples/*; do
  [ -x "$b" ] && [ -f "$b" ] || continue
  name=$(basename "$b")
  for threads in 1 4; do
    (cd "$work/run" && EDSIM_THREADS=$threads "$b" > "$work/$name.$threads") ||
      { echo "record_stdout: $name failed at EDSIM_THREADS=$threads" >&2; exit 1; }
  done
  cmp -s "$work/$name.1" "$work/$name.4" ||
    { echo "record_stdout: $name stdout differs at 1 and 4 threads" >&2; exit 1; }
  echo "$(sha256sum < "$work/$name.1" | cut -d' ' -f1)  $name" >> "$work/digests"
  n=$((n + 1))
done
[ "$n" -gt 0 ] || { echo "record_stdout: no binaries in $build" >&2; exit 1; }
sort -k2 "$work/digests" > "$digests"
echo "record_stdout: $n digests -> $digests"
