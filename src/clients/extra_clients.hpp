#pragma once

#include "clients/client.hpp"

namespace edsim::clients {

/// Dependent-load client: issues the next request only after the
/// previous one completed (linked-list walk / pointer chasing). The
/// memory-latency-bound extreme — bank parallelism cannot help it, only
/// lower latency can (the §4.2 argument in client form).
class PointerChaseClient final : public Client {
 public:
  struct Params {
    std::uint64_t base = 0;
    std::uint64_t length = 1 << 20;
    unsigned burst_bytes = 32;
    std::uint64_t total_requests = 0;  ///< 0 = endless
    std::uint64_t seed = 5;
    unsigned think_cycles = 0;  ///< compute time between dependent loads
  };

  PointerChaseClient(unsigned id, std::string name, const Params& p);

  std::uint64_t next_request_cycle(std::uint64_t now) const override;
  dram::Request make_request(std::uint64_t cycle) override;
  void notify_complete(const dram::Request& req,
                       std::uint64_t cycle) override;
  bool finished() const override;
  void save_state(SnapshotWriter& w) const override;
  void load_state(SnapshotReader& r) override;

 private:
  Params p_;
  Rng rng_;
  bool outstanding_ = false;
  std::uint64_t ready_at_ = 0;
  std::uint64_t issued_ = 0;
};

/// On/off (bursty) client: alternates active bursts of back-to-back
/// requests with idle gaps — packet arrivals, DMA descriptors rings. The
/// duty cycle sets the average demand; the burstiness sets the FIFO
/// depth the §3 analysis must provision.
class BurstyClient final : public Client {
 public:
  struct Params {
    std::uint64_t base = 0;
    std::uint64_t length = 1 << 20;
    unsigned burst_bytes = 32;
    dram::AccessType type = dram::AccessType::kRead;
    unsigned on_requests = 16;   ///< requests per active burst
    unsigned off_cycles = 200;   ///< idle gap between bursts
    std::uint64_t total_requests = 0;
    std::uint64_t seed = 9;
    bool randomize_gap = true;   ///< exponential gaps with the same mean
  };

  BurstyClient(unsigned id, std::string name, const Params& p);

  std::uint64_t next_request_cycle(std::uint64_t now) const override;
  dram::Request make_request(std::uint64_t cycle) override;
  bool finished() const override;
  void save_state(SnapshotWriter& w) const override;
  void load_state(SnapshotReader& r) override;

 private:
  Params p_;
  Rng rng_;
  std::uint64_t pos_ = 0;
  unsigned left_in_burst_;
  std::uint64_t next_burst_at_ = 0;
  std::uint64_t issued_ = 0;
};

}  // namespace edsim::clients
