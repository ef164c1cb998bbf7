#!/usr/bin/env bash
# Build, test, and regenerate every experiment — the full reproduction
# pipeline. Outputs land in test_output.txt and bench_output.txt.
# EDSIM_SKIP_SANITIZE=1 / EDSIM_SKIP_PERF=1 skip the slow trailing stages.
set -euo pipefail
cd "$(dirname "$0")/.."

cmake -B build -G Ninja
cmake --build build

ctest --test-dir build 2>&1 | tee test_output.txt

# Differential fuzz gate: the fast paths (fast-forward, dense stretch) vs
# the per-cycle reference, quick tier. The slow soak runs under
# `ctest -L slow`.
echo
echo "differential fuzz (quick tier):"
build/tests/edsim_fuzz_tests

# Snapshot/restore gate: versioned serialization of the full simulator
# state. Round trips must resume bit-identically and the corruption fuzz
# (every truncation, every byte flip) must fail with a structured error.
echo
echo "snapshot/restore:"
ctest --test-dir build -L snapshot --output-on-failure

# Workload-compilation gate: the binary .edtrc reader/writer, compiled
# arena replay vs live generators, and evaluation memoization all carry
# the `trace_format` label; a broken trace path fails here before the
# benchmark stages replay anything.
echo
echo "trace format / workload compilation:"
ctest --test-dir build -L trace_format --output-on-failure

# Self-managed maintenance gate: retention-bin refresh, RowHammer defense
# and the lock-region arbitration protocol. The defended-vs-undefended
# victim demos must both run: the defense keeps every victim clean and
# the undefended config provably corrupts.
echo
echo "self-managed maintenance:"
ctest --test-dir build -L maintenance --output-on-failure
build/examples/soak_test --rowhammer --retention-bins

# Datasheet calibration gate: closed-form latency ladders (cold read,
# row hit, row conflict, write), sustained row-streak bandwidth and the
# refresh duty cycle, checked against the DramConfig timing fields
# across the device presets. Agreement with outside algebra, not only
# with the simulator's own reference paths.
echo
echo "accuracy (datasheet calibration):"
ctest --test-dir build -L accuracy --output-on-failure

# Predictable-performance gate: the analytical WCET bounds must hold as
# oracles over the policy x mapping grid (including TDM slot-ownership
# protocol rules and the bound-tightness claim on bank-privatized strided
# sweeps), and the scheduler tournament must print OK in every row — it
# exits non-zero on any simulated > bound violation.
echo
echo "predictable performance (WCET bounds + scheduler tournament):"
ctest --test-dir build -L wcet --output-on-failure
build/examples/scheduler_tournament

# Exploration-service gate: the persistent EDRS result store (round
# trips, torn-tail crash recovery, failed-append rollback, corruption
# fuzz), the Metrics wire codec, and the cross-process warm start
# (results bit-identical to the in-process reference).
echo
echo "exploration service (result store + warm starts):"
ctest --test-dir build -L service --output-on-failure

# Benchmark-driver gate: perfbench compiles the edsim sources on its own
# (its own CMake tree under .bench_build/), so a src/ change that breaks
# its build or moves its golden digests shows up here, not first in a
# benchmark run. One zero-second run per workload: the driver must exit 0
# and report every unit correct against perfbench/golden.json.
echo
echo "perfbench (build + golden digests):"
for w in idle_decode design_sweep; do
  python3 perfbench/run.py --workload "$w" --seed 1 --seconds 0 --trace 0 \
    | tail -1 | python3 -c '
import json, sys
r = json.load(sys.stdin)
attempted, failed = r["attempted"], r["failed"]
ok = r["correct"] and failed == 0
verdict = "correct" if ok else "incorrect"
print(f"  {sys.argv[1]}: {verdict} ({failed} of {attempted} units failed)")
sys.exit(0 if ok else 1)' "$w"
done

{
  for b in build/bench/*; do
    [ -x "$b" ] && [ -f "$b" ] || continue
    echo "===== $(basename "$b") ====="
    "$b"
    echo
  done
} 2>&1 | tee bench_output.txt

# Claim gate: any [CHECK] verdict fails the run, and so does an e*/a*
# experiment that printed no [SHAPE-OK] (one that did not build or run
# counts too).
echo
echo "claim summary:"
experiments=$(for s in bench/[ea][0-9]*.cpp; do basename "$s" .cpp; done)
awk -v experiments="$experiments" '
  BEGIN { n = split(experiments, list, "\n"); for (i = 1; i <= n; i++) shape[list[i]] = 0 }
  /^===== .* =====$/ { name = $2; next }
  /\[SHAPE-OK\]/ { total++; if (name in shape) shape[name]++ }
  /\[CHECK\]/ { print "  " name ": " $0; bad++ }
  END {
    for (i = 1; i <= n; i++)
      if (shape[list[i]] == 0) { print "  " list[i] ": no [SHAPE-OK] verdict"; bad++ }
    printf "  %d [SHAPE-OK] verdicts from %d experiments, %d failures\n", total, n, bad
    exit bad > 0
  }' bench_output.txt

# Determinism gate: every experiment binary and example must print its
# recorded stdout (tests/golden_stdout.sha256) at EDSIM_THREADS=1 and 4
# under concurrent machine load.
echo
echo "determinism:"
scripts/determinism.sh build

# Telemetry smoke: the traced MPEG2 decode must emit loadable artifacts —
# a Chrome trace_event JSON (Perfetto) and the §4.1 interval time series.
echo
echo "telemetry smoke:"
ctest --test-dir build -L telemetry --output-on-failure
build/examples/mpeg2_decoder \
  --trace bench/mpeg2_trace.json \
  --intervals bench/mpeg2_intervals.csv > /dev/null
if command -v python3 > /dev/null; then
  python3 - <<'PY'
import json
with open("bench/mpeg2_trace.json") as f:
    doc = json.load(f)
events = doc["traceEvents"]
assert events, "trace is empty"
phases = {e["ph"] for e in events}
assert "X" in phases, "no request-lifecycle slices"
assert "i" in phases, "no command-bus instants"
print(f"  trace OK: {len(events)} events, phases {sorted(phases)}")
PY
else
  echo "  (python3 not found — skipped JSON validation)"
fi
rows=$(($(wc -l < bench/mpeg2_intervals.csv) - 1))
[ "$rows" -gt 0 ] || { echo "  interval series is empty"; exit 1; }
echo "  interval series OK: $rows intervals -> bench/mpeg2_intervals.csv"

# Sanitizer sweep + Release perf snapshot (both use their own build trees).
if [ -z "${EDSIM_SKIP_SANITIZE:-}" ]; then
  scripts/sanitize.sh
fi
if [ -z "${EDSIM_SKIP_PERF:-}" ]; then
  scripts/bench.sh
  # Regression gate: the snapshot just recorded vs the previous one —
  # non-zero exit if any before/after pair speedup regressed >15%.
  scripts/bench.sh --check
fi
