#pragma once

#include <cstdint>

#include "dram/config.hpp"

namespace edsim::dram {

/// Decoded physical location of an access.
struct Coordinates {
  unsigned bank = 0;
  unsigned row = 0;
  unsigned column = 0;  ///< in beats (interface-width units)
  bool operator==(const Coordinates&) const = default;
};

/// Splits flat byte addresses into (bank, row, column) per the configured
/// scheme. Data mapping is one of the three system-level optimization
/// problems the paper names in §3 ("optimizing the mapping of the data into
/// memory such that the sustainable bandwidth approaches the peak").
/// DramConfig::validate makes banks, rows, page bytes and beat width
/// powers of two, so every field is a shift and a mask; only kRowColBank
/// divides, by the burst length, which need not be a power of two.
class AddressMapper {
 public:
  explicit AddressMapper(const DramConfig& cfg);

  Coordinates decode(std::uint64_t byte_addr) const;
  /// Inverse of decode; used by tests to prove the mapping is a bijection.
  std::uint64_t encode(const Coordinates& c) const;

  std::uint64_t capacity_bytes() const { return capacity_bytes_; }

 private:
  AddressMapping scheme_;
  unsigned bank_bits_;       // log2 banks
  unsigned row_bits_;        // log2 rows per bank
  unsigned col_bits_;        // log2 columns per row (in beats)
  unsigned beat_bits_;       // log2 bytes per beat
  unsigned burst_beats_;     // beats per access (for kRowColBank interleave)
  unsigned bursts_per_row_;  // whole bursts in one bank's row
  std::uint64_t capacity_bytes_;
};

}  // namespace edsim::dram
