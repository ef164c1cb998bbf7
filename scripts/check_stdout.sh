#!/usr/bin/env bash
# Golden-stdout check for one experiment binary or example: its stdout at
# EDSIM_THREADS=1 and at EDSIM_THREADS=4 must hash (SHA-256) to the digest
# recorded for it in the digest file. Each `golden_stdout.<name>` ctest
# case runs this; scripts/record_stdout.sh rewrites the digests.
#
# Usage: scripts/check_stdout.sh <binary> <digest-file>
set -euo pipefail
[ "$#" -eq 2 ] || { echo "usage: $0 <binary> <digest-file>" >&2; exit 2; }
bin=$1
name=$(basename "$bin")
want=$(awk -v n="$name" '$2 == n { print $1 }' "$2")
[ -n "$want" ] || { echo "check_stdout: no digest for $name in $2" >&2; exit 1; }

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
mkdir "$work/run"
status=0
for threads in 1 4; do
  # A scratch working directory, so nothing a binary writes lands in the tree.
  out="$work/stdout.$threads"
  if ! (cd "$work/run" && EDSIM_THREADS=$threads "$bin" > "$out"); then
    echo "check_stdout: $name exited non-zero at EDSIM_THREADS=$threads" >&2
    status=1
    continue
  fi
  got=$(sha256sum < "$out" | cut -d' ' -f1)
  if [ "$got" != "$want" ]; then
    echo "check_stdout: $name stdout at EDSIM_THREADS=$threads hashes to" \
      "$got, recorded $want" >&2
    status=1
  fi
done
exit "$status"
