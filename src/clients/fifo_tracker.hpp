#pragma once

#include <cstdint>

#include "common/snapshot.hpp"
#include "common/stats.hpp"

namespace edsim::clients {

/// Sizes the rate-decoupling FIFO a client needs (§3: "minimize the
/// latency for the memory clients and thus minimize the necessary FIFO
/// depth").
///
/// Model: a read client consumes data at a steady rate; requests are
/// prefetched ahead of consumption. The FIFO must hold everything
/// requested-but-not-yet-consumed, so the required depth is the peak of
/// the in-flight byte count plus one burst of slack.
class FifoTracker {
 public:
  explicit FifoTracker(unsigned burst_bytes) : burst_bytes_(burst_bytes) {}

  void on_issue() { outstanding_ += burst_bytes_; }
  void on_complete() {
    if (outstanding_ >= burst_bytes_) outstanding_ -= burst_bytes_;
  }
  /// Sample `k` consecutive cycles in which outstanding_ did not change
  /// (the memory system credits each client's cycles in bulk, at its own
  /// events); bit-identical to sampling each cycle on its own.
  void sample_repeated(std::uint64_t k) {
    if (k == 0) return;
    if (outstanding_ > peak_) peak_ = outstanding_;
    occupancy_.add_repeated(static_cast<double>(outstanding_), k);
  }

  std::uint64_t outstanding_bytes() const { return outstanding_; }
  /// Required FIFO depth in bytes: peak in-flight plus one burst of slack.
  std::uint64_t required_depth_bytes() const { return peak_ + burst_bytes_; }
  const Accumulator& occupancy() const { return occupancy_; }

  /// Start a fresh measurement window: the in-flight count carries over
  /// (those bytes are real), the peak re-anchors on it and the occupancy
  /// history is dropped.
  void reset_measurement() {
    peak_ = outstanding_;
    occupancy_ = Accumulator{};
  }

  void save(SnapshotWriter& w) const {
    w.u64(outstanding_);
    w.u64(peak_);
    occupancy_.save(w);
  }
  void load(SnapshotReader& r) {
    outstanding_ = r.u64();
    peak_ = r.u64();
    occupancy_.load(r);
  }

 private:
  unsigned burst_bytes_;
  std::uint64_t outstanding_ = 0;
  std::uint64_t peak_ = 0;
  Accumulator occupancy_;
};

}  // namespace edsim::clients
