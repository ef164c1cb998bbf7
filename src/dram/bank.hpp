#pragma once

#include <algorithm>
#include <cstdint>

#include "dram/request.hpp"
#include "dram/timing.hpp"

namespace edsim {
class SnapshotReader;
class SnapshotWriter;
}  // namespace edsim

namespace edsim::dram {

/// One DRAM bank: row-buffer state machine plus the per-bank timing
/// windows. The controller asks `can_issue` before driving `issue`.
class Bank {
 public:
  enum class State : std::uint8_t { kIdle, kActive };

  explicit Bank(const TimingParams& t) : t_(&t) {}

  State state() const { return state_; }
  bool has_open_row() const { return state_ == State::kActive; }
  unsigned open_row() const { return open_row_; }

  /// Is `cmd` legal on this bank at `cycle` given per-bank constraints?
  /// (Cross-bank constraints — tRRD, tFAW, data-bus — live in the channel.)
  bool can_issue(Command cmd, std::uint64_t cycle) const {
    switch (cmd) {
      case Command::kActivate:
        return state_ == State::kIdle && cycle >= next_act_;
      case Command::kPrecharge:
        return state_ == State::kActive && cycle >= next_pre_;
      case Command::kRead:
      case Command::kWrite:
        return state_ == State::kActive && cycle >= next_col_;
      case Command::kRefresh:
      case Command::kMaintStart:
        // Refresh is issued channel-wide; per-bank requirement is "idle
        // and past tRP", i.e. the same window as an ACT. A maintenance
        // lock has the identical entry condition on its one bank.
        return state_ == State::kIdle && cycle >= next_act_;
      case Command::kMaintEnd:
        return true;  // lock release, no timing of its own
    }
    return false;
  }

  /// Apply `cmd` at `cycle`. Caller must have checked can_issue.
  /// For kActivate, `row` selects the row to open.
  void issue(Command cmd, unsigned row, std::uint64_t cycle) {
    switch (cmd) {
      case Command::kActivate:
        state_ = State::kActive;
        open_row_ = row;
        ++acts_;
        next_col_ = cycle + t_->tRCD;
        next_pre_ = cycle + t_->tRAS;
        next_act_ = cycle + t_->tRC;
        break;
      case Command::kPrecharge:
        state_ = State::kIdle;
        ++pres_;
        next_act_ = std::max(next_act_, cycle + t_->tRP);
        break;
      case Command::kRead:
        // Column commands push back the earliest precharge so the burst
        // can drain: PRE no earlier than RD + BL (read-to-precharge).
        next_col_ = cycle + t_->tCCD;
        next_pre_ = std::max<std::uint64_t>(next_pre_,
                                            cycle + t_->burst_length);
        break;
      case Command::kWrite:
        next_col_ = cycle + t_->tCCD;
        // Write recovery: PRE must wait until data written plus tWR.
        next_pre_ = std::max<std::uint64_t>(
            next_pre_, cycle + t_->tWL + t_->burst_length + t_->tWR);
        break;
      case Command::kRefresh:
        // Channel-level refresh holds every bank for tRFC.
        state_ = State::kIdle;
        next_act_ = cycle + t_->tRFC;
        break;
      case Command::kMaintStart:
      case Command::kMaintEnd:
        break;  // lock bookkeeping is block_until / controller state
    }
  }

  /// Cycle at which the earliest future issue of `cmd` becomes legal.
  std::uint64_t earliest(Command cmd) const {
    switch (cmd) {
      case Command::kActivate:
      case Command::kRefresh:
      case Command::kMaintStart:
        return next_act_;
      case Command::kPrecharge:
        return next_pre_;
      case Command::kRead:
      case Command::kWrite:
        return next_col_;
      case Command::kMaintEnd:
        break;
    }
    return 0;
  }

  /// Self-managed maintenance lock: the device works on this bank until
  /// `cycle`; no command may start before then. Raises every release
  /// window without ever regressing an earlier constraint.
  void block_until(std::uint64_t cycle) {
    next_act_ = std::max(next_act_, cycle);
    next_pre_ = std::max(next_pre_, cycle);
    next_col_ = std::max(next_col_, cycle);
  }

  // --- per-bank statistics ------------------------------------------------
  std::uint64_t activations() const { return acts_; }
  std::uint64_t precharges() const { return pres_; }

  /// Persist / restore the dynamic state (row buffer + timing windows);
  /// the timing table stays bound to the owning controller's config.
  void save(SnapshotWriter& w) const;
  void load(SnapshotReader& r);

 private:
  const TimingParams* t_;
  State state_ = State::kIdle;
  unsigned open_row_ = 0;

  // Earliest-legal-cycle bookkeeping.
  std::uint64_t next_act_ = 0;
  std::uint64_t next_pre_ = 0;
  std::uint64_t next_col_ = 0;  // RD or WR

  std::uint64_t acts_ = 0;
  std::uint64_t pres_ = 0;
};

}  // namespace edsim::dram
