#include "clients/workload_cache.hpp"

namespace edsim::clients {

std::shared_ptr<const CompiledTrace> WorkloadCache::get_or_compile(
    std::uint64_t key, const CompileFn& compile) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = map_.find(key);
    if (it != map_.end()) {
      ++hits_;
      return it->second;
    }
  }
  // Compile outside the lock: a miss storm across sweep threads must not
  // serialize. Duplicate compiles of the same key produce identical
  // arenas (compilation is pure), so first-insert-wins below is safe.
  std::shared_ptr<const CompiledTrace> built = compile();
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = map_.emplace(key, built);
  if (!inserted) {
    ++hits_;  // lost the race: the winner's insert was the miss
    return it->second;
  }
  ++misses_;
  return built;
}

std::shared_ptr<const CompiledTrace> WorkloadCache::find(
    std::uint64_t key) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = map_.find(key);
  return it == map_.end() ? nullptr : it->second;
}

std::uint64_t WorkloadCache::hits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return hits_;
}

std::uint64_t WorkloadCache::misses() const {
  std::lock_guard<std::mutex> lock(mu_);
  return misses_;
}

std::size_t WorkloadCache::entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return map_.size();
}

std::size_t WorkloadCache::arena_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t total = 0;
  for (const auto& [key, trace] : map_) total += trace->arena_bytes();
  return total;
}

void WorkloadCache::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  map_.clear();
  hits_ = 0;
  misses_ = 0;
}

}  // namespace edsim::clients
