#!/usr/bin/env bash
# A/B wall-time comparison of two builds on the experiment binaries.
#
# For each named binary (looked up under <build>/bench/ and
# <build>/examples/), first checks that its stdout is byte-identical
# between the two builds and exits non-zero if it is not: a speed-up that
# changes results is not a speed-up. Then runs alternating A/B pairs,
# swapping which side goes first on every pair, and prints each side's
# median and quartiles (seconds), how many pairs B won (ties count for
# neither side) and whether B's gain meets the claim rule: B wins at least
# 9/10 of the pairs and its median is below A's by more than A's
# interquartile range. A is the parent, B the change.
#
# Both trees must be configured alike: before timing anything it compares
# CMAKE_BUILD_TYPE and every CMAKE_CXX_FLAGS* entry of the two
# CMakeCache.txt files and exits 2, naming the field, if one differs (an
# -O2 tree against an -O3 one reads as a speed change of the code).
#
# Usage: scripts/ab_pairs.sh <build-A> <build-B> [pairs=10] <binary>...
#   e.g. scripts/ab_pairs.sh ../parent/build build 10 e4_sustained_bw a6_multichannel
set -euo pipefail
[ "$#" -ge 3 ] || {
  echo "usage: $0 <build-A> <build-B> [pairs=10] <binary>..." >&2
  exit 2
}
build_a=$(cd "$1" && pwd)
build_b=$(cd "$2" && pwd)
shift 2
pairs=10
if [[ "$1" =~ ^[0-9]+$ ]]; then
  pairs=$1
  shift
fi
[ "$#" -ge 1 ] || { echo "ab_pairs: no binary named" >&2; exit 2; }

# build_settings <build>: the "NAME=value" lines of the settings that must
# match, type suffix dropped, sorted by name.
build_settings() {
  [ -f "$1/CMakeCache.txt" ] || {
    echo "ab_pairs: $1/CMakeCache.txt not found" >&2
    exit 2
  }
  sed -nE 's/^(CMAKE_BUILD_TYPE|CMAKE_CXX_FLAGS[A-Z_]*):[A-Z]+=/\1=/p' \
    "$1/CMakeCache.txt" | sort
}
settings_a=$(build_settings "$build_a")
settings_b=$(build_settings "$build_b")
if [ "$settings_a" != "$settings_b" ]; then
  fields=$( (echo "$settings_a"; echo "$settings_b") | sort | uniq -u |
    cut -d= -f1 | sort -u | tr '\n' ' ')
  echo "ab_pairs: the builds are configured differently: ${fields% }" >&2
  diff <(echo "$settings_a") <(echo "$settings_b") | grep '^[<>]' >&2 || true
  exit 2
fi

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

# locate <build> <name>: path of the binary, or exit.
locate() {
  for dir in bench examples; do
    if [ -x "$1/$dir/$2" ] && [ -f "$1/$dir/$2" ]; then
      echo "$1/$dir/$2"
      return
    fi
  done
  echo "ab_pairs: $2 not found under $1/bench or $1/examples" >&2
  exit 2
}

# seconds <binary>: wall time of one run, stdout discarded.
seconds() {
  local t0 t1
  t0=$(date +%s%N)
  (cd "$work" && "$1" > /dev/null) || {
    echo "ab_pairs: $(basename "$1") failed" >&2
    exit 1
  }
  t1=$(date +%s%N)
  echo "$(( t1 - t0 ))" | awk '{ printf "%.4f\n", $1 / 1e9 }'
}

# stats <file>: "median q1 q3" of one number per line (linear
# interpolation between order statistics).
stats() {
  sort -g "$1" | awk '
    { v[NR] = $1 }
    function q(p,   h, lo) {
      h = (NR - 1) * p + 1
      lo = int(h)
      return lo >= NR ? v[NR] : v[lo] + (h - lo) * (v[lo + 1] - v[lo])
    }
    END { printf "%.4f %.4f %.4f\n", q(0.5), q(0.25), q(0.75) }'
}

for name in "$@"; do
  a=$(locate "$build_a" "$name")
  b=$(locate "$build_b" "$name")
  (cd "$work" && "$a" > "$work/out_a") || { echo "ab_pairs: $a failed" >&2; exit 1; }
  (cd "$work" && "$b" > "$work/out_b") || { echo "ab_pairs: $b failed" >&2; exit 1; }
  if ! cmp -s "$work/out_a" "$work/out_b"; then
    echo "ab_pairs: $name stdout differs between the builds:"
    diff "$work/out_a" "$work/out_b" | head -20 || true
    exit 1
  fi
  : > "$work/ta"
  : > "$work/tb"
  wins=0
  for ((i = 0; i < pairs; i++)); do
    if (( i % 2 == 0 )); then
      ta=$(seconds "$a")
      tb=$(seconds "$b")
    else
      tb=$(seconds "$b")
      ta=$(seconds "$a")
    fi
    echo "$ta" >> "$work/ta"
    echo "$tb" >> "$work/tb"
    wins=$(awk -v a="$ta" -v b="$tb" -v w="$wins" \
      'BEGIN { print (b < a) ? w + 1 : w }')
  done
  read -r med_a q1_a q3_a < <(stats "$work/ta")
  read -r med_b q1_b q3_b < <(stats "$work/tb")
  met=$(awk -v w="$wins" -v n="$pairs" -v ma="$med_a" -v mb="$med_b" \
    -v q1="$q1_a" -v q3="$q3_a" \
    'BEGIN { print (w * 10 >= n * 9 && ma - mb > q3 - q1) ? "yes" : "no" }')
  printf '%-24s stdout identical  A %s s [%s, %s]  B %s s [%s, %s]  B wins %d/%d  gain rule met: %s\n' \
    "$name" "$med_a" "$q1_a" "$q3_a" "$med_b" "$q1_b" "$q3_b" \
    "$wins" "$pairs" "$met"
done
