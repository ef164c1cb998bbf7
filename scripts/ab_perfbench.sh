#!/usr/bin/env bash
# A/B comparison of two source trees on one perfbench workload.
#
# Runs alternating pairs of `python3 perfbench/run.py --trace 0` in tree A
# (the parent) and tree B (the change), swapping which side goes first on
# every pair; pair i uses seed i of the seed list, cycling when the list is
# shorter than the pair count. Each tree builds its own driver from its own
# sources. Exits non-zero as soon as a run fails, reports `"correct":
# false` or counts a failed unit.
#
# Then prints, for every end-to-end metric of A's BENCHMARK.json, each
# side's median and quartiles, B's change in % (signed so that negative is
# better for "lower" metrics) and how many pairs each side won (ties count
# for neither). For the claim metric it prints the claim rule: B wins at
# least 9/10 of the pairs and the medians differ by more than A's
# interquartile range. Every other metric gets the bound check: B's median
# may be worse than A's by at most the metric's bound. A metric whose
# spread (interquartile range over median) on either side exceeds its
# bound is reported as unresolved, unless every B run beats every A run.
# Exits 1 when a bound is broken. BENCHMARK.json is only read.
#
# Usage: scripts/ab_perfbench.sh <tree-A> <tree-B> <workload> [pairs=10]
#                                [seeds=1,2,...,pairs] [claim-metric]
#   e.g. scripts/ab_perfbench.sh ../parent . design_sweep 10 1,2,3,4,5,6,7,8,9,10 wall_s
set -euo pipefail
[ "$#" -ge 3 ] || {
  echo "usage: $0 <tree-A> <tree-B> <workload> [pairs=10] [seeds=1,2,...] [claim-metric]" >&2
  exit 2
}
tree_a=$(cd "$1" && pwd)
tree_b=$(cd "$2" && pwd)
workload=$3
shift 3
pairs=10
if [ "$#" -ge 1 ] && [[ "$1" =~ ^[0-9]+$ ]]; then
  pairs=$1
  shift
fi
seeds=$(seq -s, 1 "$pairs")
if [ "$#" -ge 1 ] && [[ "$1" =~ ^[0-9]+(,[0-9]+)*$ ]]; then
  seeds=$1
  shift
fi
claim=${1:-}
IFS=, read -r -a seed_list <<< "$seeds"
seconds=$(python3 -c 'import json, sys; print(json.load(open(sys.argv[1]))["run_seconds"])' \
  "$tree_a/BENCHMARK.json")

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

# run <side> <tree> <pair> <seed>: one benchmark run; its JSON line goes to
# $work/<side>.<pair>.json.
run() {
  local out="$work/$1.$3.out"
  # CARGO_TARGET_DIR would point both trees at one build directory.
  if ! (cd "$2" && env -u CARGO_TARGET_DIR python3 perfbench/run.py \
          --workload "$workload" --seed "$4" --seconds "$seconds" --trace 0) \
          > "$out" 2> "$out.err"; then
    echo "ab_perfbench: run failed in $2 (pair $3, seed $4):" >&2
    tail -5 "$out" "$out.err" >&2
    exit 1
  fi
  tail -1 "$out" > "$work/$1.$3.json"
  python3 - "$work/$1.$3.json" "$2" "$4" <<'EOF' || exit 1
import json, sys
r = json.load(open(sys.argv[1]))
if not r["correct"] or r["failed"] > 0:
    sys.exit(f"ab_perfbench: incorrect run in {sys.argv[2]} (seed {sys.argv[3]}): "
             f"correct {r['correct']}, failed {r['failed']} of {r['attempted']}")
EOF
}

for ((i = 0; i < pairs; i++)); do
  seed=${seed_list[$((i % ${#seed_list[@]}))]}
  if (( i % 2 == 0 )); then
    run a "$tree_a" "$i" "$seed"
    run b "$tree_b" "$i" "$seed"
  else
    run b "$tree_b" "$i" "$seed"
    run a "$tree_a" "$i" "$seed"
  fi
  echo "pair $((i + 1))/$pairs (seed $seed) done" >&2
done

python3 - "$tree_a/BENCHMARK.json" "$work" "$pairs" "$workload" "$claim" <<'EOF'
import json, os, statistics, sys

spec_path, work, pairs, workload, claim = sys.argv[1:6]
pairs = int(pairs)
spec = json.load(open(spec_path))
runs = {side: [json.load(open(os.path.join(work, f"{side}.{i}.json")))
               for i in range(pairs)] for side in "ab"}


def quartiles(v):
    q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0],) * 3
    return statistics.median(v), q1, q3


print(f"{workload}: {pairs} alternating pairs, A = parent, B = change")
print(f"{'metric':<18} {'A median [q1, q3]':>30} {'B median [q1, q3]':>30}"
      f" {'B vs A':>8} {'wins A/B':>9}  verdict")
broken = False
for m in spec["end_to_end"]:
    name, bound, lower = m["name"], m["bound"], m["better"] == "lower"
    a = [r["metrics"][name]["value"] for r in runs["a"]]
    b = [r["metrics"][name]["value"] for r in runs["b"]]
    better = (lambda x, y: x < y) if lower else (lambda x, y: x > y)
    wins_b = sum(better(y, x) for x, y in zip(a, b))
    wins_a = sum(better(x, y) for x, y in zip(a, b))
    (ma, q1a, q3a), (mb, q1b, q3b) = quartiles(a), quartiles(b)
    delta = (mb - ma) / ma * 100 if ma else float("inf")
    if name == claim:
        gap = ma - mb if lower else mb - ma
        met = wins_b * 10 >= pairs * 9 and gap > q3a - q1a
        verdict = (f"claim: B wins {wins_b}/{pairs}, median gap {gap:.4g}"
                   f" vs A IQR {q3a - q1a:.4g}: {'met' if met else 'NOT met'}")
    else:
        worse = (mb - ma if lower else ma - mb) / ma if ma else 0.0
        spread = max((q3a - q1a) / ma if ma else 0.0,
                     (q3b - q1b) / mb if mb else 0.0)
        all_better = all(better(y, x) for x in a for y in b)
        if worse > bound:
            verdict, broken = f"WORSE by {worse:.1%} > bound {bound:g}", True
        elif spread > bound and not all_better:
            verdict = f"unresolved: spread {spread:.1%} > bound {bound:g}"
        else:
            verdict = f"within bound {bound:g}"
    unit = m["unit"]
    print(f"{name:<18} {f'{ma:.4g} [{q1a:.4g}, {q3a:.4g}] {unit}':>30}"
          f" {f'{mb:.4g} [{q1b:.4g}, {q3b:.4g}] {unit}':>30}"
          f" {delta:>+7.1f}% {f'{wins_a}/{wins_b}':>9}  {verdict}")
sys.exit(1 if broken else 0)
EOF
