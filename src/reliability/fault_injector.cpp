#include "reliability/fault_injector.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/snapshot.hpp"

namespace edsim::reliability {

const char* to_string(FaultClass c) {
  switch (c) {
    case FaultClass::kTransient: return "transient";
    case FaultClass::kRetention: return "retention";
    case FaultClass::kDisturb: return "disturb";
  }
  return "?";
}

FaultInjector::FaultInjector(const dram::DramConfig& dram_cfg,
                             const FaultInjectorConfig& cfg)
    : banks_(dram_cfg.banks),
      rows_(dram_cfg.rows_per_bank),
      page_bits_(dram_cfg.page_bytes * 8u),
      hammer_flip_threshold_(cfg.hammer_flip_threshold),
      seed_(cfg.seed),
      rng_(cfg.seed) {
  require(cfg.transient_per_mbit_ms >= 0.0,
          "fault injector: negative transient rate");
  require(cfg.weak_retention_min_frac > 0.0 &&
              cfg.weak_retention_min_frac <= cfg.weak_retention_max_frac,
          "fault injector: weak retention fraction range invalid");

  const double cycles_per_ms = dram_cfg.clock.hz() * 1e-3;
  retention_cycles_ =
      cfg.retention.retention_ms(cfg.junction_c) * cycles_per_ms;

  const double mbit = dram_cfg.capacity().as_mbit();
  const double flips_per_cycle =
      cfg.transient_per_mbit_ms * mbit / cycles_per_ms;
  mean_interarrival_ = flips_per_cycle > 0.0 ? 1.0 / flips_per_cycle : 0.0;
  if (mean_interarrival_ > 0.0) {
    transient_armed_ = true;
    next_transient_ = static_cast<std::uint64_t>(
        rng_.next_exponential(mean_interarrival_));
  }

  // Sample the retention-weak tail. Duplicates are harmless (same cell
  // drawn twice just shadows itself) but we avoid them for clean counts.
  for (unsigned i = 0; i < cfg.weak_cells; ++i) {
    const unsigned bank =
        static_cast<unsigned>(rng_.next_below(banks_));
    const unsigned row = static_cast<unsigned>(rng_.next_below(rows_));
    const auto bit = static_cast<std::uint32_t>(rng_.next_below(page_bits_));
    const double frac =
        cfg.weak_retention_min_frac +
        rng_.next_double() *
            (cfg.weak_retention_max_frac - cfg.weak_retention_min_frac);
    add_weak_cell(bank, row, bit, frac * retention_cycles_);
  }
}

void FaultInjector::add_weak_cell(unsigned bank, unsigned row,
                                  std::uint32_t bit,
                                  double retention_cycles) {
  auto& cells = weak_[row_key(bank, row)];
  for (const WeakCell& c : cells) {
    if (c.bit == bit) return;  // already weak
  }
  cells.push_back(WeakCell{bit, retention_cycles});
}

void FaultInjector::sample_transients(std::uint64_t cycle,
                                      const std::vector<bool>& alive,
                                      std::vector<InjectedFault>& out) {
  if (!transient_armed_) return;
  while (next_transient_ <= cycle) {
    InjectedFault f;
    // Stamp the arrival cycle, not the sampling cycle. Under per-cycle
    // driving the two coincide (inter-arrival gaps are >= 1 cycle, so each
    // arrival is consumed the cycle it lands); under fast-forward one call
    // covers a whole skipped stretch, and arrival stamping is what keeps
    // the event log byte-identical between the two.
    f.cycle = next_transient_;
    f.cls = FaultClass::kTransient;
    f.bank = static_cast<unsigned>(rng_.next_below(banks_));
    f.row = static_cast<unsigned>(rng_.next_below(rows_));
    f.bit = static_cast<std::uint32_t>(rng_.next_below(page_bits_));
    if (f.bank < alive.size() && alive[f.bank]) out.push_back(f);
    next_transient_ += 1 + static_cast<std::uint64_t>(
                               rng_.next_exponential(mean_interarrival_));
  }
}

void FaultInjector::materialize_retention(unsigned bank, unsigned row,
                                          std::uint64_t elapsed_cycles,
                                          std::uint64_t cycle,
                                          std::vector<InjectedFault>& out)
    const {
  const auto it = weak_.find(row_key(bank, row));
  if (it == weak_.end()) return;
  for (const WeakCell& c : it->second) {
    if (static_cast<double>(elapsed_cycles) > c.retention_cycles) {
      InjectedFault f;
      f.cycle = cycle;
      f.cls = FaultClass::kRetention;
      f.bank = bank;
      f.row = row;
      f.bit = c.bit;
      out.push_back(f);
    }
  }
}

void FaultInjector::import_fault_map(const bist::FailBitmap& bitmap,
                                     unsigned bank, double retention_frac) {
  require(bank < banks_, "fault injector: import bank out of range");
  require(retention_frac > 0.0, "fault injector: retention_frac must be > 0");
  for (const bist::CellAddr& cell : bitmap.fails) {
    const unsigned row = cell.row % rows_;
    // The BIST array column is a bit column; fold it into the page.
    const auto bit = static_cast<std::uint32_t>(cell.col % page_bits_);
    add_weak_cell(bank, row, bit, retention_frac * retention_cycles_);
  }
}

void FaultInjector::drop_row(unsigned bank, unsigned row) {
  weak_.erase(row_key(bank, row));
}

void FaultInjector::drop_bank(unsigned bank) {
  for (unsigned r = 0; r < rows_; ++r) weak_.erase(row_key(bank, r));
}

std::uint32_t FaultInjector::hammer_bit(unsigned bank, unsigned row,
                                        std::uint32_t n) const {
  std::uint64_t x = seed_ ^ (static_cast<std::uint64_t>(bank) << 40) ^
                    (static_cast<std::uint64_t>(row) << 16) ^ n;
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  x ^= x >> 31;
  return static_cast<std::uint32_t>(x % page_bits_);
}

void FaultInjector::for_each_weak_row(
    const std::function<void(unsigned, unsigned, double)>& fn) const {
  std::vector<std::uint64_t> keys;
  keys.reserve(weak_.size());
  for (const auto& [key, cells] : weak_) keys.push_back(key);
  std::sort(keys.begin(), keys.end());
  for (const std::uint64_t key : keys) {
    const auto& cells = weak_.at(key);
    double min_ret = cells.front().retention_cycles;
    for (const WeakCell& c : cells) {
      min_ret = std::min(min_ret, c.retention_cycles);
    }
    fn(static_cast<unsigned>(key / rows_), static_cast<unsigned>(key % rows_),
       min_ret);
  }
}

void FaultInjector::save(SnapshotWriter& w) const {
  rng_.save(w);
  w.u64(next_transient_);
  w.boolean(transient_armed_);
  std::vector<std::uint64_t> keys;
  keys.reserve(weak_.size());
  for (const auto& [key, cells] : weak_) keys.push_back(key);
  std::sort(keys.begin(), keys.end());
  w.u64(keys.size());
  for (const std::uint64_t key : keys) {
    const auto& cells = weak_.at(key);
    w.u64(key);
    w.u64(cells.size());
    for (const WeakCell& c : cells) {
      w.u32(c.bit);
      w.f64(c.retention_cycles);
    }
  }
}

void FaultInjector::load(SnapshotReader& r) {
  rng_.load(r);
  next_transient_ = r.u64();
  transient_armed_ = r.boolean();
  weak_.clear();
  const std::uint64_t rows = r.u64();
  const std::uint64_t key_end =
      static_cast<std::uint64_t>(banks_) * rows_;
  for (std::uint64_t i = 0; i < rows; ++i) {
    const std::uint64_t key = r.u64();
    if (key >= key_end) r.fail("weak-cell row key out of range");
    const std::uint64_t n = r.u64();
    // A weak cell is at least a one-byte bit varint and an 8-byte double.
    if (n > r.remaining() / 9) r.fail("weak-cell count exceeds payload");
    auto& cells = weak_[key];
    cells.reserve(n);
    for (std::uint64_t j = 0; j < n; ++j) {
      WeakCell c;
      c.bit = r.u32();
      c.retention_cycles = r.f64();
      cells.push_back(c);
    }
  }
}

std::size_t FaultInjector::weak_cell_count() const {
  std::size_t n = 0;
  for (const auto& [key, cells] : weak_) n += cells.size();
  return n;
}

}  // namespace edsim::reliability
