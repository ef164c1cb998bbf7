#!/usr/bin/env bash
# Performance snapshot: build the Release (-O3) tree and run the simulator
# microbenchmarks with JSON output. Writes BENCH_<n>.json at the repo root
# (default n = one past the highest present); the suite contains
# before/after pairs — per-cycle vs fast-forward system runs, serial vs
# pooled sweeps, regenerated vs arena-replayed workloads, cold vs memoized
# evaluation, uniform-tREFI vs self-managed maintenance, per-cycle vs
# resident-front-end dense traffic — so one file holds both sides of each
# comparison, plus the per-scheduler-policy runs whose counters pair the
# simulated bandwidth/latency with the analytical WCET bound.
#
# Build-type provenance: the "library_build_type" field google-benchmark
# writes into the JSON context describes the SYSTEM-PACKAGED harness
# library (compiled without NDEBUG on Debian), NOT the simulator. The
# simulator's own build type is enforced to be Release below and recorded
# as "edsim_build_type" in the context section.
#
# Usage: scripts/bench.sh [n] [extra perf_microbench args...]
#   scripts/bench.sh                 # writes BENCH_<next>.json
#   scripts/bench.sh 3 --benchmark_filter='IdleHeavy|DesignSpace'
#   scripts/bench.sh --check         # regression gate: compare the pair
#                                    # speedups in the two newest snapshots,
#                                    # exit non-zero if any regressed >15%
set -euo pipefail
cd "$(dirname "$0")/.."

# The headline before/after pairs, used by both the console summary after
# a run and the --check regression gate. Format: label|before|after.
read_pairs() {
  cat <<'PAIRS'
idle-heavy run (fast-forward)|BM_IdleHeavyPerCycle|BM_IdleHeavyFastForward
design-space sweep (thread pool)|BM_DesignSpaceSweep/1|BM_DesignSpaceSweep/0
Monte-Carlo yield (thread pool)|BM_MonteCarloYield/1|BM_MonteCarloYield/0
trace workload (shared arena replay)|BM_WorkloadRegenerate|BM_WorkloadArena
repeated sweep (evaluation memoization)|BM_SweepCold|BM_SweepMemoized
refresh path (uniform tREFI vs self-managed)|BM_RefreshBaseline|BM_SelfManagedMaintenance
variant sweep (one simulation per channel shape)|BM_SweepColdWarmup|BM_SweepCheckpointFanout
cross-process sweep (persistent result store)|BM_SweepColdStore|BM_SweepWarmStore
saturated stream (burst issue)|BM_SaturatedStreamBaseline|BM_SaturatedStreamBurst
strided sweep (burst issue)|BM_StridedSweepBaseline|BM_StridedSweepBurst
PAIRS
}

if [[ "${1:-}" == "--check" ]]; then
  if ! command -v python3 >/dev/null 2>&1; then
    echo "bench check: python3 not found — skipping"
    exit 0
  fi
  python3 - "$(read_pairs)" <<'EOF'
import glob, json, re, sys

snaps = []
for f in glob.glob("BENCH_*.json"):
    m = re.fullmatch(r"BENCH_(\d+)\.json", f)
    if m:
        snaps.append((int(m.group(1)), f))
snaps.sort()
if len(snaps) < 2:
    print("bench check: fewer than two snapshots — nothing to compare")
    sys.exit(0)
(prev_n, prev_f), (cur_n, cur_f) = snaps[-2], snaps[-1]

def ratios(path):
    data = json.load(open(path))
    t = {b["name"]: b["real_time"] for b in data["benchmarks"]}
    # Aggregate-only snapshots (--benchmark_report_aggregates_only) have
    # no plain-name entries — fall back to the median, then the mean.
    def time_of(name):
        for n in (name, name + "_median", name + "_mean"):
            if n in t:
                return t[n]
        return None
    out = {}
    for line in pairs:
        label, before, after = line.split("|")
        tb, ta = time_of(before), time_of(after)
        if tb is not None and ta is not None and ta > 0:
            out[label] = tb / ta
    return out

pairs = [l for l in sys.argv[1].splitlines() if l.strip()]
prev, cur = ratios(prev_f), ratios(cur_f)
print(f"bench check: {prev_f} -> {cur_f}")
failed = []
for label in prev:
    if label not in cur:
        continue
    drop = 1.0 - cur[label] / prev[label]
    verdict = "OK"
    if drop > 0.15:
        verdict = "REGRESSED"
        failed.append(label)
    print(f"  {label}: {prev[label]:.2f}x -> {cur[label]:.2f}x [{verdict}]")
if failed:
    print(f"bench check: {len(failed)} pair(s) regressed by more than 15%")
    sys.exit(1)
print("bench check: all pair speedups within 15% of the previous snapshot")
EOF
  exit $?
fi

# Default n: one past the highest BENCH_<n>.json already present, so
# repeated runs never clobber an earlier snapshot.
next_bench_index() {
  local max=-1 f n
  for f in BENCH_*.json; do
    [[ -e "$f" ]] || continue
    n="${f#BENCH_}"
    n="${n%.json}"
    [[ "$n" =~ ^[0-9]+$ ]] || continue
    (( n > max )) && max=$n
  done
  echo $(( max + 1 ))
}

N="${1:-$(next_bench_index)}"
shift $(( $# > 0 ? 1 : 0 ))

cmake -B build-release -DCMAKE_BUILD_TYPE=Release
cmake --build build-release -j"$(nproc)" --target perf_microbench

# Refuse to record a snapshot from anything but a Release simulator build:
# a debug-built library once leaked into a BENCH_*.json and poisoned a
# comparison. (The harness library's own build type is out of our hands —
# see the header note.)
build_type="$(sed -n 's/^CMAKE_BUILD_TYPE:[^=]*=//p' build-release/CMakeCache.txt)"
if [[ "$build_type" != "Release" ]]; then
  echo "bench.sh: build-release is configured as '${build_type:-<unset>}'," \
       "not Release — refusing to record a perf snapshot" >&2
  exit 1
fi

build-release/bench/perf_microbench \
  --benchmark_out="BENCH_${N}.json" \
  --benchmark_out_format=json \
  --benchmark_context=edsim_build_type="$build_type" \
  "$@"

# Console summary of the headline before/after pairs, when python3 exists.
if command -v python3 >/dev/null 2>&1; then
  python3 - "BENCH_${N}.json" "$(read_pairs)" <<'EOF'
import json, re, sys
data = json.load(open(sys.argv[1]))
t = {b["name"]: b["real_time"] for b in data["benchmarks"]}
# Aggregate-only snapshots have no plain-name entries — fall back to
# the median, then the mean (mirrors the --check lookup above).
def time_of(name):
    for n in (name, name + "_median", name + "_mean"):
        if n in t:
            return t[n]
    return None
print("speedups (before/after):")
for line in sys.argv[2].splitlines():
    if not line.strip():
        continue
    label, before, after = line.split("|")
    tb, ta = time_of(before), time_of(after)
    if tb is not None and ta is not None and ta > 0:
        print(f"  {label}: {tb / ta:.2f}x")
policies = ["fcfs", "fcfs-per-bank", "fr-fcfs", "read-first", "tdm"]
rows = [b for b in data["benchmarks"]
        if re.fullmatch(r"BM_SchedulerPolicyWcet/\d+(_median)?", b["name"])
        and "sim_gbs" in b]
if rows:
    print("scheduler policies, simulated vs WCET bound:")
    for b in rows:
        idx = int(re.search(r"/(\d+)", b["name"]).group(1))
        bound = (f"{b['bound_ns']:.0f} ns" if b["bound_ns"] > 0
                 else "unbounded")
        ok = b["bound_ns"] <= 0 or b["sim_worst_ns"] <= b["bound_ns"]
        bw_ok = b["sim_gbs"] <= b["bound_gbs"] + 1e-9
        verdict = "OK" if (ok and bw_ok) else "VIOLATION"
        print(f"  {policies[idx]:>13}: {b['sim_gbs']:.3f} GB/s "
              f"(bound {b['bound_gbs']:.3f}), worst "
              f"{b['sim_worst_ns']:.0f} ns (bound {bound}) [{verdict}]")
EOF
fi
