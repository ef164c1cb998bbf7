#!/usr/bin/env bash
# Build and test under AddressSanitizer + UndefinedBehaviorSanitizer.
# Uses a separate build tree so the regular build stays untouched.
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

# Result-store hardening: the service suite decodes every truncation and
# every byte flip of an EDRS append log (varint length prefixes, sealed
# record envelopes, torn-tail truncation on open, failed-append rollback)
# under ASan/UBSan.
build-asan/tests/edsim_service_tests
