#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "spans.hpp"

namespace perfbench {

/// Per-layer values keyed by metric name (see BENCHMARK.json `per_layer`).
using LayerValues = std::map<std::string, double>;

/// Outcome of one measured unit. A unit is one full pass over the
/// workload's shape rotation, so every unit does the same simulated work.
struct UnitResult {
  std::uint64_t digest = 0;  ///< hash of every simulated output of the unit
  /// Per-layer values of this unit; filled only when a span log is
  /// attached (the traced run).
  LayerValues layer;
};

/// One benchmark workload. Inputs are a pure function of the seed; the
/// program only ever sees the generated inputs.
class Workload {
 public:
  virtual ~Workload() = default;

  /// Compile inputs and everything later units share (arenas, decoder
  /// workload). Timed as part of set-up.
  virtual void setup(SpanLog* log) = 0;

  /// Run one unit on the production path.
  virtual UnitResult run_unit(SpanLog* log) = 0;

  /// Digest of one unit computed on the reference path (per-cycle
  /// stepping, no burst issue, live generators, no caches, one thread).
  /// Used only to check the production path; never timed.
  virtual std::uint64_t reference_digest() = 0;

  /// Simulated DRAM cycles one unit requests.
  virtual std::uint64_t sim_cycles_per_unit() const = 0;

  /// Traced run only: time layer entry points directly (controller-only
  /// replay, snapshot save/restore, models, store) and add the results.
  virtual void probe_layers(LayerValues& out, SpanLog* log) = 0;
};

/// nullptr for an unknown name. `tmpdir` is a scratch directory for
/// workloads that write files (design_sweep's result store).
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed,
                                        const std::string& tmpdir);

}  // namespace perfbench
