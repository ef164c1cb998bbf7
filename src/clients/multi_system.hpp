#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "clients/arbiter.hpp"
#include "clients/client.hpp"
#include "clients/fifo_tracker.hpp"
#include "dram/multi_channel.hpp"

namespace edsim::clients {

/// Clients + arbiter over a multi-channel memory: the front end for the
/// paper's high-end systems (several modules side by side). One grant
/// per channel per cycle; a client whose target channel is backed up
/// does not block grants to other channels.
class MultiChannelSystem {
 public:
  MultiChannelSystem(const dram::DramConfig& per_channel, unsigned channels,
                     dram::ChannelInterleave interleave, ArbiterKind arbiter,
                     std::vector<double> weights = {});

  Client& add_client(std::unique_ptr<Client> client);

  void run(std::uint64_t cycles);

  dram::MultiChannel& memory() { return memory_; }
  const dram::MultiChannel& memory() const { return memory_; }

  std::size_t client_count() const { return clients_.size(); }
  const Client& client(std::size_t i) const { return *clients_[i]; }
  const ClientStats& client_stats(std::size_t i) const { return stats_[i]; }
  const FifoTracker& fifo(std::size_t i) const { return fifos_[i]; }

  Bandwidth aggregate_bandwidth() const {
    return memory_.sustained_bandwidth();
  }
  double bandwidth_efficiency() const {
    const double peak = memory_.peak_bandwidth().bits_per_s;
    return peak > 0.0 ? aggregate_bandwidth().bits_per_s / peak : 0.0;
  }

  /// Disable/enable the event-driven fast path (on by default; see
  /// MemorySystem::set_fast_forward).
  void set_fast_forward(bool on) { fast_forward_ = on; }

  /// Attach observability probes to channel `i` (nullptr detaches); see
  /// dram::MultiChannel::attach_telemetry.
  void attach_telemetry(unsigned i, dram::TelemetryHooks* hooks) {
    memory_.attach_telemetry(i, hooks);
  }

 private:
  void step();
  /// Fast-forward: bulk-credit quiet cycles up to `end` when no client is
  /// ready, nothing is parked and no channel has an event pending.
  void skip_quiet_stretch(std::uint64_t end);

  dram::MultiChannel memory_;
  std::unique_ptr<Arbiter> arbiter_;
  std::vector<std::unique_ptr<Client>> clients_;
  std::vector<ClientStats> stats_;
  std::vector<FifoTracker> fifos_;
  /// A request that lost its channel slot waits here and retries before
  /// the client is asked for new work — nothing is ever dropped.
  std::vector<std::optional<dram::Request>> pending_;
  std::uint64_t cycle_ = 0;
  std::vector<dram::Request> completed_scratch_;  // reused drain buffer
  std::vector<bool> ready_;                       // reused arbitration mask
  std::vector<bool> channel_granted_;             // reused grant mask
  bool fast_forward_ = true;
};

}  // namespace edsim::clients
