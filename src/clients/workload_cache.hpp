#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "clients/compiled_trace.hpp"

namespace edsim::clients {

/// Process-wide (or per-evaluator) cache of compiled workload arenas,
/// keyed by a content hash of (client kind, params, seed, budget) — see
/// the `compile_key` overloads. Thread-safe; the lock is NOT held while
/// a compile function runs, so concurrent sweep threads never serialize
/// behind each other's compiles. Two threads racing on the same key may
/// both compile, but compilation is pure and deterministic, so
/// first-insert-wins is safe and every caller receives the winner's arena.
/// A miss is counted only by the insert that wins, and a caller that lost
/// the race counts as a hit, so the counters do not depend on thread
/// timing: misses() == entries() and hits() + misses() == lookups.
class WorkloadCache {
 public:
  using CompileFn = std::function<std::shared_ptr<const CompiledTrace>()>;

  /// Return the arena for `key`, compiling it with `compile` on a miss.
  std::shared_ptr<const CompiledTrace> get_or_compile(std::uint64_t key,
                                                      const CompileFn& compile);

  /// Lookup without compiling (nullptr on miss). Does not bump counters.
  std::shared_ptr<const CompiledTrace> find(std::uint64_t key) const;

  std::uint64_t hits() const;
  std::uint64_t misses() const;
  std::size_t entries() const;
  /// Total encoded bytes across all cached arenas.
  std::size_t arena_bytes() const;

  void clear();

 private:
  mutable std::mutex mu_;
  std::unordered_map<std::uint64_t, std::shared_ptr<const CompiledTrace>> map_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace edsim::clients
