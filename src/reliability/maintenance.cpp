#include "reliability/maintenance.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/snapshot.hpp"
#include "reliability/fault_injector.hpp"

namespace edsim::reliability {

void MaintenanceConfig::validate() const {
  require(bins >= 1 && bins <= 16, "maintenance: bins must be in [1, 16]");
  require(rows_per_op >= 1, "maintenance: rows_per_op must be >= 1");
  require(hammer_table_rows >= 1,
          "maintenance: hammer_table_rows must be >= 1");
}

// --- HammerTracker ----------------------------------------------------------

std::uint32_t HammerTracker::record(unsigned row) {
  Entry* free_slot = nullptr;
  for (Entry& e : entries_) {
    if (e.used && e.row == row) return ++e.count;
    if (!e.used && free_slot == nullptr) free_slot = &e;
  }
  if (free_slot != nullptr) {
    free_slot->used = true;
    free_slot->row = row;
    free_slot->count = spill_ + 1;
    return free_slot->count;
  }
  // Space-saving replacement: only an entry sitting at the spill floor may
  // be stolen (its history is fully covered by the floor). Otherwise the
  // activation goes to the floor itself, raising every untracked row's
  // estimate — that is what makes undercounting impossible.
  for (Entry& e : entries_) {
    if (e.count == spill_) {
      e.row = row;
      e.count = spill_ + 1;
      return e.count;
    }
  }
  return ++spill_;
}

std::uint32_t HammerTracker::estimate(unsigned row) const {
  for (const Entry& e : entries_) {
    if (e.used && e.row == row) return e.count;
  }
  return spill_;
}

void HammerTracker::reset_row(unsigned row) {
  for (Entry& e : entries_) {
    if (e.used && e.row == row) {
      e.count = spill_;
      return;
    }
  }
}

void HammerTracker::reset_epoch() {
  for (Entry& e : entries_) e = Entry{};
  spill_ = 0;
}

void HammerTracker::save(SnapshotWriter& w) const {
  for (const Entry& e : entries_) {
    w.boolean(e.used);
    w.u32(e.row);
    w.u32(e.count);
  }
  w.u32(spill_);
}

void HammerTracker::load(SnapshotReader& r) {
  for (Entry& e : entries_) {
    e.used = r.boolean();
    e.row = r.u32();
    e.count = r.u32();
  }
  spill_ = r.u32();
}

// --- MaintenanceEngine ------------------------------------------------------

MaintenanceEngine::MaintenanceEngine(const dram::DramConfig& dram_cfg,
                                     const MaintenanceConfig& cfg,
                                     const FaultInjector& injector)
    : cfg_(cfg),
      banks_(dram_cfg.banks),
      rows_(dram_cfg.rows_per_bank) {
  cfg_.validate();
  row_cycles_ = cfg_.op_cycles_per_row != 0
                    ? cfg_.op_cycles_per_row
                    : static_cast<unsigned>(dram_cfg.timing.tRC);
  if (row_cycles_ == 0) row_cycles_ = 1;

  std::uint64_t base = cfg_.base_window_cycles;
  if (base == 0) {
    // 80% of the weakest cell's retention (nominal when none is weak):
    // bin 0 then always sweeps inside the tightest retention budget.
    double weakest = injector.retention_cycles();
    injector.for_each_weak_row(
        [&](unsigned, unsigned, double min_ret) {
          weakest = std::min(weakest, min_ret);
        });
    base = static_cast<std::uint64_t>(0.8 * weakest);
  }
  if (base == 0) base = 1;

  windows_.resize(cfg_.bins);
  for (unsigned i = 0; i < cfg_.bins; ++i) windows_[i] = base << i;
  slack_ = cfg_.op_slack_cycles != 0 ? cfg_.op_slack_cycles
                                     : std::max<std::uint64_t>(1, base / 32);
  reset_window_ = cfg_.hammer_reset_window != 0 ? cfg_.hammer_reset_window
                                                : windows_.back();

  trackers_.assign(banks_, HammerTracker(cfg_.hammer_table_rows));
  tracker_epoch_.assign(banks_, 0);
  neighbor_q_.assign(banks_, {});
  queued_.assign(banks_, std::vector<bool>(rows_, false));
  bank_dropped_.assign(banks_, false);
  due_.assign(banks_, dram::kNeverCycle);
  rebuild_bins(injector);
}

void MaintenanceEngine::rebuild_bins(const FaultInjector& injector) {
  invalidate();
  // Rows without a weak cell need only the most relaxed sweep; weak rows
  // drop to the largest bin whose window still undercuts their weakest
  // cell's retention by the 80% margin (bin 0 catches the rest).
  row_bin_.assign(static_cast<std::size_t>(banks_) * rows_,
                  static_cast<std::uint8_t>(cfg_.bins - 1));
  injector.for_each_weak_row([&](unsigned bank, unsigned row,
                                 double min_ret) {
    unsigned bin = 0;
    while (bin + 1 < cfg_.bins &&
           static_cast<double>(windows_[bin + 1]) <= 0.8 * min_ret) {
      ++bin;
    }
    row_bin_[static_cast<std::size_t>(bank) * rows_ + row] =
        static_cast<std::uint8_t>(bin);
  });

  bin_state_.assign(static_cast<std::size_t>(banks_) * cfg_.bins,
                    BinState{});
  for (unsigned b = 0; b < banks_; ++b) {
    for (unsigned r = 0; r < rows_; ++r) {
      bin_state_[bin_index(b, row_bin_[static_cast<std::size_t>(b) * rows_ +
                                       r])]
          .rows.push_back(r);
    }
  }
  for (unsigned b = 0; b < banks_; ++b) {
    for (unsigned i = 0; i < cfg_.bins; ++i) {
      BinState& st = bin_state_[bin_index(b, i)];
      if (st.rows.empty() || bank_dropped_[b]) continue;
      const std::uint64_t ops =
          (st.rows.size() + cfg_.rows_per_op - 1) / cfg_.rows_per_op;
      st.period = std::max<std::uint64_t>(1, windows_[i] / ops);
      // Stagger the first due cycles so banks and bins do not all claim
      // slots on the same cycle (deterministic in the geometry).
      st.next_due = 1 + (b * 131ull + i * 37ull) % st.period;
    }
    update_due(b);
  }
}

void MaintenanceEngine::update_due(unsigned bank) {
  std::uint64_t due = dram::kNeverCycle;
  for (unsigned i = 0; i < cfg_.bins; ++i) {
    due = std::min(due, bin_state_[bin_index(bank, i)].next_due);
  }
  set_due(bank, due);
}

void MaintenanceEngine::set_due(unsigned bank, std::uint64_t due) {
  due_[bank] = due;
  min_due_ = *std::min_element(due_.begin(), due_.end());
}

const MaintenanceEngine::Window& MaintenanceEngine::window(
    std::uint64_t cycle) const {
  if (cycle >= window_.from && cycle < window_.until) return window_;
  Window w;
  w.from = cycle;
  w.until = dram::kNeverCycle;
  // Nothing queued and nothing due: no bank is pending, so none is urgent,
  // and the schedule next changes at the earliest due cycle.
  if (neighbor_banks_ == 0 && min_due_ > cycle) {
    w.next = w.until = min_due_;
    window_ = w;
    return window_;
  }
  for (unsigned b = 0; b < banks_; ++b) {
    if (pending(b, cycle)) w.banks.pending |= std::uint64_t{1} << b;
    if (urgent(b, cycle)) w.banks.urgent |= std::uint64_t{1} << b;
    // Nothing due yet (or nothing scheduled): the bank's schedule changes
    // at its earliest due cycle.
    if (due_[b] > cycle) {
      w.next = std::min(w.next, due_[b]);
      w.until = std::min(w.until, due_[b]);
      continue;
    }
    for (unsigned i = 0; i < cfg_.bins; ++i) {
      const std::uint64_t due = bin_state_[bin_index(b, i)].next_due;
      if (due == dram::kNeverCycle) continue;
      // Future due: the schedule changes at the due cycle. Already due:
      // the next intrinsic change is the deadline (urgency flip), which
      // next_cycle() clamps to the query cycle once it has passed.
      const std::uint64_t at = due > cycle ? due : due + slack_;
      w.next = std::min(w.next, at);
      if (at > cycle) w.until = std::min(w.until, at);
    }
  }
  window_ = w;
  return window_;
}

MaintenanceEngine::Claim MaintenanceEngine::claim(unsigned bank,
                                                  std::uint64_t cycle) {
  Claim c;
  if (bank_dropped_[bank]) return c;
  invalidate();

  if (!neighbor_q_[bank].empty()) {
    const unsigned agg = neighbor_q_[bank].front();
    neighbor_q_[bank].pop_front();
    if (neighbor_q_[bank].empty()) {
      neighbor_banks_ &= ~(std::uint64_t{1} << bank);
    }
    queued_[bank][agg] = false;
    trackers_[bank].reset_row(agg);
    c.kind = Claim::Kind::kNeighbor;
    c.aggressor = agg;
    if (agg > 0) c.rows.push_back(agg - 1);
    if (agg + 1 < rows_) c.rows.push_back(agg + 1);
  } else {
    // Most-overdue due bin, ties to the lowest (tightest) bin.
    unsigned best = cfg_.bins;
    std::uint64_t best_due = dram::kNeverCycle;
    for (unsigned i = 0; i < cfg_.bins; ++i) {
      const BinState& st = bin_state_[bin_index(bank, i)];
      if (st.next_due == dram::kNeverCycle || st.next_due > cycle) continue;
      if (st.next_due < best_due) {
        best = i;
        best_due = st.next_due;
      }
    }
    if (best == cfg_.bins) return c;
    BinState& st = bin_state_[bin_index(bank, best)];
    c.kind = Claim::Kind::kBinSweep;
    c.bin = best;
    const std::size_t take =
        std::min<std::size_t>(cfg_.rows_per_op, st.rows.size());
    for (std::size_t i = 0; i < take; ++i) {
      c.rows.push_back(st.rows[st.ptr]);
      st.ptr = (st.ptr + 1) % st.rows.size();
    }
    // Fixed cadence: overload shows up as lag (urgency), not as a
    // silently stretched window.
    st.next_due += st.period;
    update_due(bank);
  }
  c.duration = static_cast<unsigned>(
      std::max<std::size_t>(1, c.rows.size()) * row_cycles_);
  return c;
}

void MaintenanceEngine::record_activation(unsigned bank, unsigned row,
                                          std::uint64_t cycle) {
  if (cfg_.hammer_threshold == 0 || bank_dropped_[bank]) return;
  const std::uint64_t epoch = cycle / reset_window_;
  if (epoch != tracker_epoch_[bank]) {
    tracker_epoch_[bank] = epoch;
    trackers_[bank].reset_epoch();
  }
  const std::uint32_t est = trackers_[bank].record(row);
  if (est >= cfg_.hammer_threshold && !queued_[bank][row]) {
    queued_[bank][row] = true;
    neighbor_q_[bank].push_back(row);
    neighbor_banks_ |= std::uint64_t{1} << bank;
    invalidate();
  }
}

void MaintenanceEngine::save(SnapshotWriter& w) const {
  w.u64(row_bin_.size());
  for (const std::uint8_t b : row_bin_) w.u32(b);
  w.u64(bin_state_.size());
  for (const BinState& st : bin_state_) {
    w.u64(st.rows.size());
    for (const unsigned row : st.rows) w.u32(row);
    w.u64(st.ptr);
    w.u64(st.next_due);
    w.u64(st.period);
  }
  for (const HammerTracker& t : trackers_) t.save(w);
  for (const std::uint64_t e : tracker_epoch_) w.u64(e);
  for (unsigned b = 0; b < banks_; ++b) {
    w.u64(neighbor_q_[b].size());
    for (const unsigned agg : neighbor_q_[b]) w.u32(agg);
  }
  for (unsigned b = 0; b < banks_; ++b) w.boolean(bank_dropped_[b]);
}

void MaintenanceEngine::load(SnapshotReader& r) {
  invalidate();
  if (r.u64() != row_bin_.size()) {
    r.fail("maintenance snapshot row-bin table size mismatch");
  }
  for (std::uint8_t& b : row_bin_) {
    const std::uint32_t bin = r.u32();
    if (bin >= cfg_.bins) r.fail("row bin out of range");
    b = static_cast<std::uint8_t>(bin);
  }
  if (r.u64() != bin_state_.size()) {
    r.fail("maintenance snapshot bin-state size mismatch");
  }
  for (BinState& st : bin_state_) {
    st.rows.clear();
    const std::uint64_t n = r.u64();
    if (n > rows_) r.fail("bin membership out of range");
    st.rows.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) st.rows.push_back(r.u32());
    st.ptr = r.u64();
    if (st.ptr >= std::max<std::size_t>(1, st.rows.size())) {
      r.fail("bin sweep pointer out of range");
    }
    st.next_due = r.u64();
    st.period = r.u64();
  }
  for (HammerTracker& t : trackers_) t.load(r);
  for (std::uint64_t& e : tracker_epoch_) e = r.u64();
  for (unsigned b = 0; b < banks_; ++b) {
    neighbor_q_[b].clear();
    std::fill(queued_[b].begin(), queued_[b].end(), false);
    const std::uint64_t n = r.u64();
    if (n > rows_) r.fail("neighbor queue out of range");
    for (std::uint64_t i = 0; i < n; ++i) {
      const unsigned agg = r.u32();
      if (agg >= rows_) r.fail("neighbor aggressor row out of range");
      neighbor_q_[b].push_back(agg);
      queued_[b][agg] = true;  // dedup mask mirrors the queue
    }
  }
  for (unsigned b = 0; b < banks_; ++b) {
    bank_dropped_[b] = r.boolean();
  }
  // A due bin must make progress when claimed and keep its deadline
  // representable; a dropped bank has no work at all. Anything else would
  // hold a slot (and, past the slack, preempt traffic) forever.
  neighbor_banks_ = 0;
  for (unsigned b = 0; b < banks_; ++b) {
    for (unsigned i = 0; i < cfg_.bins; ++i) {
      const BinState& st = bin_state_[bin_index(b, i)];
      if (st.next_due == dram::kNeverCycle) continue;
      if (st.rows.empty()) r.fail("due maintenance bin has no rows");
      if (st.period == 0) r.fail("due maintenance bin has a zero period");
      if (bank_dropped_[b]) r.fail("maintenance bin due on a dropped bank");
      if (st.next_due > dram::kNeverCycle - slack_) {
        r.fail("maintenance bin due cycle overflows with the slack");
      }
    }
    if (!neighbor_q_[b].empty()) {
      if (bank_dropped_[b]) r.fail("neighbor refresh queued on a dropped bank");
      neighbor_banks_ |= std::uint64_t{1} << b;
    }
    update_due(b);
  }
}

void MaintenanceEngine::drop_bank(unsigned bank) {
  invalidate();
  bank_dropped_[bank] = true;
  neighbor_q_[bank].clear();
  neighbor_banks_ &= ~(std::uint64_t{1} << bank);
  std::fill(queued_[bank].begin(), queued_[bank].end(), false);
  for (unsigned i = 0; i < cfg_.bins; ++i) {
    bin_state_[bin_index(bank, i)].next_due = dram::kNeverCycle;
  }
  set_due(bank, dram::kNeverCycle);
}

}  // namespace edsim::reliability
