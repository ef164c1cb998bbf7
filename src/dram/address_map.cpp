#include "dram/address_map.hpp"

#include <bit>

#include "common/error.hpp"

namespace edsim::dram {

AddressMapper::AddressMapper(const DramConfig& cfg)
    : scheme_(cfg.mapping),
      bank_bits_(static_cast<unsigned>(std::countr_zero(cfg.banks))),
      row_bits_(static_cast<unsigned>(std::countr_zero(cfg.rows_per_bank))),
      col_bits_(
          static_cast<unsigned>(std::countr_zero(cfg.columns_per_row()))),
      beat_bits_(static_cast<unsigned>(std::countr_zero(cfg.bytes_per_beat()))),
      burst_beats_(cfg.timing.burst_length),
      bursts_per_row_(cfg.columns_per_row() / cfg.timing.burst_length),
      capacity_bytes_(cfg.capacity().byte_count()) {
  cfg.validate();
}

namespace {
constexpr std::uint64_t low_mask(unsigned bits) {
  return (std::uint64_t{1} << bits) - 1;
}
}  // namespace

Coordinates AddressMapper::decode(std::uint64_t byte_addr) const {
  const std::uint64_t beat = (byte_addr & (capacity_bytes_ - 1)) >> beat_bits_;
  const auto column = static_cast<unsigned>(beat & low_mask(col_bits_));
  Coordinates c;
  switch (scheme_) {
    case AddressMapping::kRowBankCol: {
      // row | bank | col : a linear stream walks a page, then hops banks.
      c.column = column;
      c.bank = static_cast<unsigned>((beat >> col_bits_) & low_mask(bank_bits_));
      c.row = static_cast<unsigned>(beat >> (col_bits_ + bank_bits_));
      break;
    }
    case AddressMapping::kPermutedBank: {
      // As kRowBankCol, but the bank is XOR-folded with the low row bits
      // (Zhang et al.-style permutation). Strides that land every access
      // in one bank under the plain scheme spread over all banks; the
      // mapping stays a bijection because XOR by a row-derived constant
      // permutes banks within each row.
      c.column = column;
      const auto raw_bank =
          static_cast<unsigned>((beat >> col_bits_) & low_mask(bank_bits_));
      c.row = static_cast<unsigned>(beat >> (col_bits_ + bank_bits_));
      c.bank = static_cast<unsigned>((raw_bank ^ c.row) & low_mask(bank_bits_));
      break;
    }
    case AddressMapping::kBankRowCol: {
      // bank | row | col : a stream exhausts a whole bank before moving on.
      c.column = column;
      c.row = static_cast<unsigned>((beat >> col_bits_) & low_mask(row_bits_));
      c.bank = static_cast<unsigned>(beat >> (col_bits_ + row_bits_));
      break;
    }
    case AddressMapping::kRowColBank: {
      // row | col | bank (bank bits just above the burst offset):
      // consecutive bursts alternate banks. A burst length that does not
      // divide the columns leaves each bank's last few columns without a
      // whole burst; they follow the interleaved bursts, bank by bank, so
      // every row stays in range and the mapping a bijection.
      const unsigned row_shift = col_bits_ + bank_bits_;
      c.row = static_cast<unsigned>(beat >> row_shift);
      const std::uint64_t off = beat & low_mask(row_shift);
      const std::uint64_t burst = off / burst_beats_;
      const std::uint64_t bursts = std::uint64_t{bursts_per_row_} << bank_bits_;
      if (burst < bursts) {
        c.bank = static_cast<unsigned>(burst & low_mask(bank_bits_));
        c.column = static_cast<unsigned>((burst >> bank_bits_) * burst_beats_ +
                                         (off - burst * burst_beats_));
      } else {
        const unsigned whole = bursts_per_row_ * burst_beats_;
        const unsigned tail = (1u << col_bits_) - whole;
        const std::uint64_t t = off - bursts * burst_beats_;
        c.bank = static_cast<unsigned>(t / tail);
        c.column = whole + static_cast<unsigned>(t % tail);
      }
      break;
    }
  }
  return c;
}

std::uint64_t AddressMapper::encode(const Coordinates& c) const {
  std::uint64_t beat = 0;
  switch (scheme_) {
    case AddressMapping::kRowBankCol:
      beat = (static_cast<std::uint64_t>(c.row) << (bank_bits_ + col_bits_)) +
             (static_cast<std::uint64_t>(c.bank) << col_bits_) + c.column;
      break;
    case AddressMapping::kPermutedBank: {
      const auto raw_bank =
          static_cast<unsigned>((c.bank ^ c.row) & low_mask(bank_bits_));
      beat = (static_cast<std::uint64_t>(c.row) << (bank_bits_ + col_bits_)) +
             (static_cast<std::uint64_t>(raw_bank) << col_bits_) + c.column;
      break;
    }
    case AddressMapping::kBankRowCol:
      beat = (static_cast<std::uint64_t>(c.bank) << (row_bits_ + col_bits_)) +
             (static_cast<std::uint64_t>(c.row) << col_bits_) + c.column;
      break;
    case AddressMapping::kRowColBank: {
      const unsigned whole = bursts_per_row_ * burst_beats_;
      std::uint64_t off;
      if (c.column < whole) {
        const std::uint64_t burst =
            (static_cast<std::uint64_t>(c.column / burst_beats_)
             << bank_bits_) +
            c.bank;
        off = burst * burst_beats_ + c.column % burst_beats_;
      } else {
        const unsigned tail = (1u << col_bits_) - whole;
        off = (std::uint64_t{bursts_per_row_} << bank_bits_) * burst_beats_ +
              static_cast<std::uint64_t>(c.bank) * tail + (c.column - whole);
      }
      beat = (static_cast<std::uint64_t>(c.row) << (col_bits_ + bank_bits_)) +
             off;
      break;
    }
  }
  return beat << beat_bits_;
}

}  // namespace edsim::dram
