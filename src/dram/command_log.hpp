#pragma once

#include <cstdint>
#include <vector>

#include "dram/request.hpp"

namespace edsim::dram {

/// One command as driven on the command bus, with full decode info —
/// what a logic analyzer on the DRAM interface would capture.
struct CommandRecord {
  /// `client` for housekeeping commands the controller issues on its own
  /// behalf (refresh drains, power-down, page-timeout closes, maintenance).
  static constexpr unsigned kNoClient = ~0u;

  std::uint64_t cycle = 0;
  Command cmd = Command::kActivate;
  unsigned bank = 0;   ///< kRefresh: unused (all banks)
  unsigned row = 0;    ///< kActivate: row; kMaintStart: lock duration
  unsigned client = kNoClient;  ///< owning client (TDM slot accounting)
  bool auto_precharge = false;  ///< column command with implicit PRE

  friend bool operator==(const CommandRecord& a, const CommandRecord& b) {
    return a.cycle == b.cycle && a.cmd == b.cmd && a.bank == b.bank &&
           a.row == b.row && a.client == b.client &&
           a.auto_precharge == b.auto_precharge;
  }
  friend bool operator!=(const CommandRecord& a, const CommandRecord& b) {
    return !(a == b);
  }
};

/// Capture buffer the controller can be pointed at: an append-only,
/// complete command trace (the protocol checker and the tests read it).
class CommandLog {
 public:
  void record(const CommandRecord& r) { records_.push_back(r); }
  /// Records in chronological order.
  const std::vector<CommandRecord>& records() const { return records_; }
  void clear() { records_.clear(); }
  std::size_t size() const { return records_.size(); }

 private:
  std::vector<CommandRecord> records_;
};

}  // namespace edsim::dram
