#pragma once

// Self-managed maintenance hooks with a fixed schedule, for tests that
// need a maintenance lock at a known cycle: one op on bank 0 per entry of
// `due` (ascending), each holding the bank for `duration` cycles once
// claimed. Faults, retirement and ECC are off.

#include <cstdint>
#include <utility>
#include <vector>

#include "dram/reliability_hooks.hpp"

namespace edsim::dram::test {

class ScheduledLocks final : public ReliabilityHooks {
 public:
  ScheduledLocks(std::vector<std::uint64_t> due, unsigned duration)
      : due_(std::move(due)), duration_(duration) {}

  void on_cycle(std::uint64_t) override {}
  AccessOutcome on_access(const Coordinates&, AccessType,
                          std::uint64_t) override {
    return AccessOutcome::kClean;
  }
  void on_refresh(std::uint64_t) override {}
  bool self_managed() const override { return true; }
  MaintenanceBanks maintenance_banks(std::uint64_t cycle) const override {
    return {next_ < due_.size() && due_[next_] <= cycle ? 1u : 0u, 0};
  }
  unsigned maintenance_claim(unsigned, std::uint64_t) override {
    ++next_;
    return duration_;
  }
  std::uint64_t next_maintenance_cycle(std::uint64_t now) const override {
    return next_ < due_.size() && due_[next_] > now ? due_[next_]
                                                    : kNeverCycle;
  }
  bool bank_retired(unsigned) const override { return false; }
  const ReliabilityCounters& counters() const override { return counters_; }

 private:
  std::vector<std::uint64_t> due_;
  unsigned duration_;
  std::size_t next_ = 0;
  ReliabilityCounters counters_;
};

}  // namespace edsim::dram::test
