#pragma once

#include <memory>
#include <vector>

#include "dram/controller.hpp"

namespace edsim::dram {

/// How flat addresses spread over channels.
enum class ChannelInterleave {
  kBurst,  ///< consecutive bursts alternate channels (fine-grain)
  kPage,   ///< consecutive pages alternate channels
  kRegion, ///< each channel owns a contiguous slice (no interleave)
};

/// Several independent modules side by side — the paper's high-end
/// systems ("several Gbit/s", network switches with multiple 512-bit
/// modules). Each channel has its own command/data bus and controller;
/// this front end routes by address and aggregates statistics.
class MultiChannel {
 public:
  MultiChannel(const DramConfig& per_channel, unsigned channels,
               ChannelInterleave interleave);

  unsigned channels() const { return static_cast<unsigned>(ctls_.size()); }
  Controller& channel(unsigned i) { return *ctls_[i]; }
  const Controller& channel(unsigned i) const { return *ctls_[i]; }

  Capacity capacity() const;
  Bandwidth peak_bandwidth() const;

  /// Which channel serves this address (by interleave alone).
  unsigned route(std::uint64_t addr) const;
  /// Where the request actually goes: `route(addr)` unless that channel
  /// has retired every bank, in which case the next healthy channel takes
  /// over (graceful degradation across modules).
  unsigned effective_channel(std::uint64_t addr) const;

  /// Enqueue into the owning channel; false on back-pressure there.
  bool enqueue(Request req);
  bool queue_full_for(std::uint64_t addr) const;

  void tick();
  bool idle() const;

  /// Completions from all channels since the last drain (per-channel
  /// completion order; channels concatenated in index order).
  std::vector<Request> drain_completed();

  /// Every counter summed over the channels (`cycles` is the longest
  /// channel's, since they run in lockstep).
  ControllerStats combined_stats() const;
  Bandwidth sustained_bandwidth() const;

 private:
  DramConfig cfg_;
  ChannelInterleave interleave_;
  std::vector<std::unique_ptr<Controller>> ctls_;
  std::uint64_t stripe_bytes_;   // interleave granule
  std::uint64_t channel_bytes_;  // capacity per channel
  std::vector<Request> scratch_;  // reused per-channel drain buffer
};

}  // namespace edsim::dram
