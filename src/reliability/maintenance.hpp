#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <vector>

#include "dram/config.hpp"
#include "dram/reliability_hooks.hpp"
#include "dram/request.hpp"

namespace edsim {
class SnapshotReader;
class SnapshotWriter;
}  // namespace edsim

namespace edsim::reliability {

class FaultInjector;

/// Knobs of the self-managed maintenance engine. Every derived default
/// (0) is resolved at construction from the channel geometry and the
/// injector's weak-cell population, so a bare `enabled = true` already
/// yields a safe schedule.
struct MaintenanceConfig {
  bool enabled = false;

  // --- retention-aware refresh (RAIDR-style binning) ------------------------
  /// Number of retention classes. Bin i is swept every
  /// base_window_cycles << i; rows land in the largest bin whose window
  /// still undercuts their weakest cell's retention by the safety margin.
  unsigned bins = 3;
  /// Bin-0 sweep window. 0 derives 80% of the weakest cell's retention
  /// (or of the nominal retention when no cell is weak).
  std::uint64_t base_window_cycles = 0;
  /// Rows refreshed per claimed maintenance slot.
  unsigned rows_per_op = 8;
  /// Grace past a bin's due cycle before its sweep turns urgent and may
  /// preempt traffic. 0 derives base_window_cycles / 32.
  std::uint64_t op_slack_cycles = 0;
  /// Bank-lock cycles per refreshed row. 0 derives tRC.
  unsigned op_cycles_per_row = 0;

  // --- RowHammer defense (Graphene-style bounded counters) ------------------
  /// Tracked activation estimate at which an aggressor's neighbors are
  /// refreshed. 0 disables the defense. Must undercut the array's flip
  /// threshold with margin: the estimate can lag one defense interval, so
  /// keep hammer_flip_threshold >= 2x this (tests use 4x).
  unsigned hammer_threshold = 0;
  /// Counter-table entries per bank (Misra-Gries summary size).
  unsigned hammer_table_rows = 8;
  /// Epoch length after which the per-bank counters reset; disturbance
  /// accumulated across epochs is bounded by the bin sweeps. 0 derives
  /// the top bin's sweep window.
  std::uint64_t hammer_reset_window = 0;

  void validate() const;
};

/// Bounded per-bank activation counting with the Misra-Gries (space
/// saving) guarantee: estimate(row) never undercounts the activations of
/// `row` since its last reset. A row evicted from the table bequeaths its
/// count to the spill floor, which every untracked row inherits — so
/// heavy hitters can only be over-estimated, never missed.
class HammerTracker {
 public:
  explicit HammerTracker(unsigned entries) : entries_(entries) {}

  /// Count one activation of `row`; returns the new estimate.
  std::uint32_t record(unsigned row);
  /// Current estimate without counting.
  std::uint32_t estimate(unsigned row) const;
  /// The row's neighbors were refreshed: its accumulated disturbance is
  /// gone, so its counter drops to the spill floor (stays conservative
  /// for rows sharing the entry's history).
  void reset_row(unsigned row);
  /// New epoch: all counters and the spill floor restart from zero.
  void reset_epoch();
  std::uint32_t spill() const { return spill_; }

  /// Snapshot the counter table + spill floor (table size is ctor-fixed).
  void save(SnapshotWriter& w) const;
  void load(SnapshotReader& r);

 private:
  struct Entry {
    unsigned row = 0;
    std::uint32_t count = 0;
    bool used = false;
  };
  std::vector<Entry> entries_;
  std::uint32_t spill_ = 0;  ///< lower bound for every untracked row
};

/// The in-DRAM maintenance scheduler: decides *what* the device would do
/// with a claimed idle bank slot. Pure bookkeeping — the fault-state side
/// effects (row restores, events, counters) are applied by the
/// ReliabilityManager from the returned Claim, and the bank-lock timing
/// by the controller. All queries are const so the fast-forward event
/// bound can consult them without perturbing the schedule; banks() and
/// next_cycle() fill a derived cache, so one engine serves one thread at
/// a time, like the channel it is attached to.
class MaintenanceEngine {
 public:
  MaintenanceEngine(const dram::DramConfig& dram_cfg,
                    const MaintenanceConfig& cfg,
                    const FaultInjector& injector);

  /// Re-derive the retention bins after the weak-cell population changed
  /// (imported fault maps). Sweep positions restart; windows keep their
  /// constructed values so the schedule stays comparable.
  void rebuild_bins(const FaultInjector& injector);

  /// Work is queued for `bank` (neighbor refresh, or a bin sweep due).
  bool pending(unsigned bank, std::uint64_t cycle) const {
    return (neighbor_banks_ >> bank & 1u) != 0 ||
           (due_[bank] != dram::kNeverCycle && due_[bank] <= cycle);
  }
  /// Work for `bank` has passed its deadline (neighbor refreshes are
  /// always urgent — the defense margin is the whole point).
  bool urgent(unsigned bank, std::uint64_t cycle) const {
    return (neighbor_banks_ >> bank & 1u) != 0 ||
           (due_[bank] != dram::kNeverCycle && due_[bank] + slack_ <= cycle);
  }
  /// pending() and urgent() of every bank as bitmasks (bit b = bank b).
  dram::MaintenanceBanks banks(std::uint64_t cycle) const {
    return window(cycle).banks;
  }
  /// Earliest cycle >= `now` the schedule changes on its own.
  std::uint64_t next_cycle(std::uint64_t now) const {
    // A queued neighbor refresh is urgent at once.
    if (neighbor_banks_ != 0) return now;
    return std::max(now, window(now).next);
  }

  /// What one claimed slot performs.
  struct Claim {
    enum class Kind : std::uint8_t { kNone, kBinSweep, kNeighbor };
    Kind kind = Kind::kNone;
    unsigned duration = 0;   ///< bank-lock cycles
    unsigned bin = 0;        ///< kBinSweep only
    unsigned aggressor = 0;  ///< kNeighbor only
    std::vector<unsigned> rows;  ///< rows the operation refreshes
  };
  /// Consume the most pressing work item for `bank`: neighbor refreshes
  /// first, then the most-overdue due bin (ties to the lowest bin).
  Claim claim(unsigned bank, std::uint64_t cycle);

  /// Feed one ACT into the per-bank tracker; queues a neighbor refresh
  /// when the aggressor's estimate reaches the defense threshold.
  void record_activation(unsigned bank, unsigned row, std::uint64_t cycle);

  /// Graceful degradation retired the bank: all its maintenance stops.
  void drop_bank(unsigned bank);

  // --- inspection -----------------------------------------------------------
  unsigned bins() const { return cfg_.bins; }
  unsigned bin_of(unsigned bank, unsigned row) const {
    return row_bin_[static_cast<std::size_t>(bank) * rows_ + row];
  }
  std::uint64_t bin_window(unsigned bin) const { return windows_[bin]; }
  std::uint64_t base_window() const { return windows_.front(); }
  std::uint64_t slack() const { return slack_; }
  const HammerTracker& tracker(unsigned bank) const {
    return trackers_[bank];
  }
  unsigned hammer_threshold() const { return cfg_.hammer_threshold; }
  /// Next due cycle of one bin (kNeverCycle when it has none).
  std::uint64_t bin_due(unsigned bank, unsigned bin) const {
    return bin_state_[bin_index(bank, bin)].next_due;
  }
  std::size_t neighbor_queued(unsigned bank) const {
    return neighbor_q_[bank].size();
  }
  bool dropped(unsigned bank) const { return bank_dropped_[bank]; }

  /// Snapshot the evolving schedule: bin membership and sweep positions,
  /// tracker tables and epochs, the neighbor-refresh queues, and dropped
  /// banks. Windows / slack / geometry are ctor-derived and not stored;
  /// the queued_ dedup masks are rebuilt from the queues on load.
  void save(SnapshotWriter& w) const;
  void load(SnapshotReader& r);

 private:
  struct BinState {
    std::vector<unsigned> rows;  ///< members, ascending row order
    std::size_t ptr = 0;         ///< next sweep position
    std::uint64_t next_due = dram::kNeverCycle;
    std::uint64_t period = 0;    ///< window / ops-per-window
  };
  std::size_t bin_index(unsigned bank, unsigned bin) const {
    return static_cast<std::size_t>(bank) * cfg_.bins + bin;
  }
  /// banks() and next_cycle() over a window [from, until) of cycles in
  /// which the schedule cannot change on its own: no bin crosses its due
  /// cycle or its deadline inside it. Computed once per window; every
  /// mutation of the schedule drops it (invalidate()).
  struct Window {
    std::uint64_t from = dram::kNeverCycle;
    std::uint64_t until = 0;
    dram::MaintenanceBanks banks;
    /// next_cycle() before the clamp to the query cycle: the earliest due
    /// cycle still ahead, or the earliest deadline of a due bin.
    std::uint64_t next = dram::kNeverCycle;
  };
  const Window& window(std::uint64_t cycle) const;
  void invalidate() { window_ = Window{}; }
  /// Recompute `bank`'s earliest due cycle from its bins.
  void update_due(unsigned bank);
  /// Store `bank`'s earliest due cycle and refresh min_due_.
  void set_due(unsigned bank, std::uint64_t due);

  MaintenanceConfig cfg_;
  unsigned banks_;
  unsigned rows_;
  unsigned row_cycles_;        ///< lock cycles per refreshed row
  std::uint64_t slack_;
  std::uint64_t reset_window_;
  std::vector<std::uint64_t> windows_;   ///< per bin, cycles
  std::vector<std::uint8_t> row_bin_;    ///< per (bank, row)
  std::vector<BinState> bin_state_;      ///< banks x bins
  std::vector<HammerTracker> trackers_;  ///< per bank
  std::vector<std::uint64_t> tracker_epoch_;       ///< per bank
  std::vector<std::deque<unsigned>> neighbor_q_;   ///< aggressors, FIFO
  std::vector<std::vector<bool>> queued_;          ///< aggressor already queued
  std::vector<bool> bank_dropped_;
  /// Per bank: the earliest next_due of its bins (kNeverCycle when none),
  /// kept current at every schedule mutation so pending/urgent read one
  /// value instead of walking the bins.
  std::vector<std::uint64_t> due_;
  /// min(due_): lets banks() and next_cycle() answer "nothing due" in
  /// O(1), the common case between claims.
  std::uint64_t min_due_ = dram::kNeverCycle;
  std::uint64_t neighbor_banks_ = 0;  ///< bit b: neighbor_q_[b] non-empty
  mutable Window window_;             ///< derived; never serialized
};

}  // namespace edsim::reliability
