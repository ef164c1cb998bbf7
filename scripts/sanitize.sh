#!/usr/bin/env bash
# Build and test under AddressSanitizer + UndefinedBehaviorSanitizer, then
# the threaded suites under ThreadSanitizer. Each uses its own build tree
# (build-asan/, build-tsan/) so the regular build stays untouched.
set -euo pipefail
cd "$(dirname "$0")/.."

cmake -B build-asan -DEDSIM_SANITIZE=ON -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build build-asan -j"$(nproc)"
ctest --test-dir build-asan --output-on-failure -j"$(nproc)"

# The differential fuzz quick tier is the highest-value sanitizer target:
# randomized configs drive fast-forward and the dense stretch against the
# per-cycle reference, so memory and UB bugs in the fast paths surface
# here first. (It is part of the
# ctest run above too; the explicit invocation keeps the gate obvious and
# fails loudly if the binary ever drops out of the suite.)
build-asan/tests/edsim_fuzz_tests

# Binary trace reader hardening: the trace_format suite includes a
# byte-corruption fuzz over the .edtrc decoder (every offset, three XOR
# masks), so out-of-bounds reads or integer UB in the varint/delta
# decoding paths surface here under ASan/UBSan.
build-asan/tests/edsim_trace_format_tests

# Snapshot hardening: the snapshot suite's corruption fuzz decodes every
# truncation and every byte flip of a sealed simulator snapshot, plus
# random garbage behind a valid envelope — the varint decoder, bounds
# guards and container-size checks all get exercised under ASan/UBSan.
build-asan/tests/edsim_snapshot_tests

# Maintenance replay: the bounded hammer counters, bin rotation pointers
# and lock bookkeeping all index by (bank, row, bin) — exactly the kind
# of arithmetic ASan/UBSan catch. The fuzz binary above already ran the
# self-managed differential trials; this adds the directed suite.
build-asan/tests/edsim_maintenance_tests

# Predictable-performance replay: the wcet suite sweeps the full policy x
# mapping grid with three client types (stream, strided, random) and
# replays the strided generator's arena/live/fast-forward parity runs —
# the TDM slot arithmetic, stride address decomposition, and the WCET
# fixed-point iteration all run under ASan/UBSan here.
build-asan/tests/edsim_wcet_tests

# Queue-position mask upkeep: the erase squeeze shifts and carries bits
# across 64-bit words, and a shift by the full word width is UB that a
# release build may hide. The suite runs depths 63, 64, 65 and 128 against
# masks rebuilt from the queue, so such a shift surfaces here.
build-asan/tests/edsim_queue_mask_tests

# Result-store hardening: the service suite decodes every truncation and
# every byte flip of an EDRS append log (varint length prefixes, sealed
# record envelopes, torn-tail truncation on open, failed-append rollback)
# under ASan/UBSan.
build-asan/tests/edsim_service_tests

# ThreadSanitizer (it cannot share a tree with ASan). Sweep threads share
# the one simulated channel per shape (a shared_future that every variant
# of the shape reads its own copy of), the memo and the result store; the
# yield trials and parallel_for share the pool. The selected suites drive
# all of them at several thread counts.
cmake -B build-tsan -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS=-fsanitize=thread
cmake --build build-tsan -j"$(nproc)"
ctest --test-dir build-tsan --output-on-failure -j"$(nproc)" \
  -R 'DifferentialFuzz.Evaluator|Parallel|Sweep|Yield'

# The harness grids that run their points as parallel_for jobs into
# index-ordered slots: each job must touch only its own slot. TSan fails
# the run (exit 66) on any report, and halt_on_error stops at the first.
for exp in a1_address_mapping a2_page_policy a4_queue_fifo a7_page_length; do
  EDSIM_THREADS=4 TSAN_OPTIONS=halt_on_error=1 "build-tsan/bench/$exp" \
    >/dev/null
done
