#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "bist/faults.hpp"

namespace edsim::bist {

/// A fault-injectable bit array used as the device-under-test by the
/// march engine. Fault semantics are evaluated on every access; a
/// fault-free array behaves as ideal storage.
class MemoryArray {
 public:
  MemoryArray(unsigned rows, unsigned cols);

  unsigned rows() const { return rows_; }
  unsigned cols() const { return cols_; }
  std::uint64_t cells() const {
    return static_cast<std::uint64_t>(rows_) * cols_;
  }

  void inject(const Fault& f);
  std::size_t fault_count() const { return faults_.size(); }

  /// Write `v`; transition and coupling semantics apply.
  void write(unsigned row, unsigned col, bool v);

  /// Read the observable value; stuck-at and retention semantics apply.
  bool read(unsigned row, unsigned col);

  /// Advance wall-clock time (march pause elements); ages retention cells.
  void advance_time_ms(double ms) { now_ms_ += ms; }
  double now_ms() const { return now_ms_; }

 private:
  std::size_t idx(unsigned row, unsigned col) const {
    return static_cast<std::size_t>(row) * cols_ + col;
  }
  bool raw_get(unsigned row, unsigned col) const {
    return bits_[idx(row, col)] != 0;
  }
  void raw_set(unsigned row, unsigned col, bool v) {
    bits_[idx(row, col)] = v ? 1 : 0;
  }
  void apply_aggressor_transitions(unsigned row, unsigned col, bool old_v,
                                   bool new_v,
                                   const std::vector<std::size_t>& faults);

  // Per-cell fault flags: a march touches every cell but only a few carry
  // a fault, so a clear flag answers the lookup below with one byte load.
  static constexpr std::uint8_t kVictim = 1;     ///< cell is in by_victim_
  static constexpr std::uint8_t kAggressor = 2;  ///< cell is in by_aggressor_

  unsigned rows_;
  unsigned cols_;
  std::vector<std::uint8_t> bits_;
  std::vector<std::uint8_t> fault_flags_;
  std::vector<Fault> faults_;
  // victim-cell index -> fault indices affecting reads/writes of that cell
  std::unordered_map<std::size_t, std::vector<std::size_t>> by_victim_;
  // aggressor-cell index -> coupling fault indices triggered by writes
  std::unordered_map<std::size_t, std::vector<std::size_t>> by_aggressor_;
  // retention bookkeeping: victim index -> last write time
  std::unordered_map<std::size_t, double> last_write_ms_;
  double now_ms_ = 0.0;
};

}  // namespace edsim::bist
