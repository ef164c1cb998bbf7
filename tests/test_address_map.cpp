#include "dram/address_map.hpp"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "dram/presets.hpp"

namespace edsim::dram {
namespace {

DramConfig small_config(AddressMapping m) {
  DramConfig c = presets::sdram_pc100_4mbit();
  c.mapping = m;
  return c;
}

/// The geometries every scheme's bijection is checked on: the two 16-bit
/// discrete parts, a wide many-bank embedded module, and a burst length
/// of 3, which divides no (power-of-two) row, so kRowColBank's burst
/// division and the columns left over past the last whole burst are
/// exercised too.
std::vector<std::pair<std::string, DramConfig>> geometries(AddressMapping m) {
  DramConfig bl3 = presets::edram_module(16, 64, 8, 2048);
  bl3.timing.burst_length = 3;
  std::vector<std::pair<std::string, DramConfig>> out = {
      {"sdram_pc100_4mbit", presets::sdram_pc100_4mbit()},
      {"sdram_pc100_64mbit", presets::sdram_pc100_64mbit()},
      {"edram 64 Mbit, 512-bit, 64 banks",
       presets::edram_module(64, 512, 64, 2048)},
      {"edram 16 Mbit, 64-bit, 8 banks, burst length 3", bl3},
  };
  for (auto& [name, cfg] : out) {
    cfg.mapping = m;
    cfg.validate();
  }
  return out;
}

class MappingBijection : public ::testing::TestWithParam<AddressMapping> {};

TEST_P(MappingBijection, DecodeEncodeRoundTripsRandomAddresses) {
  for (const auto& [name, cfg] : geometries(GetParam())) {
    SCOPED_TRACE(name);
    const AddressMapper map(cfg);
    Rng rng(5);
    const unsigned beat = cfg.bytes_per_beat();
    for (int i = 0; i < 20'000; ++i) {
      const std::uint64_t addr =
          rng.next_below(map.capacity_bytes() / beat) * beat;
      const Coordinates c = map.decode(addr);
      ASSERT_LT(c.bank, cfg.banks) << "addr " << addr;
      ASSERT_LT(c.row, cfg.rows_per_bank) << "addr " << addr;
      ASSERT_LT(c.column, cfg.columns_per_row()) << "addr " << addr;
      ASSERT_EQ(map.encode(c), addr);
    }
  }
}

TEST_P(MappingBijection, DistinctCoordinatesForDistinctBeats) {
  // Walk an exhaustive window and ensure no two beats collide.
  for (const auto& [name, cfg] : geometries(GetParam())) {
    SCOPED_TRACE(name);
    const AddressMapper map(cfg);
    const unsigned beat = cfg.bytes_per_beat();
    std::set<std::tuple<unsigned, unsigned, unsigned>> seen;
    for (std::uint64_t a = 0; a < 4096; ++a) {
      const Coordinates c = map.decode(a * beat);
      ASSERT_TRUE(seen.insert({c.bank, c.row, c.column}).second)
          << "collision at beat " << a;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, MappingBijection,
                         ::testing::Values(AddressMapping::kRowBankCol,
                                           AddressMapping::kBankRowCol,
                                           AddressMapping::kRowColBank,
                                           AddressMapping::kPermutedBank));

TEST(AddressMap, PermutedBankBreaksStridePathology) {
  // A stride of exactly banks*page_bytes lands every access in the same
  // bank under kRowBankCol; the permuted scheme spreads it over all
  // banks.
  DramConfig plain = small_config(AddressMapping::kRowBankCol);
  DramConfig perm = small_config(AddressMapping::kPermutedBank);
  const AddressMapper pm(plain);
  const AddressMapper xm(perm);
  const std::uint64_t stride =
      static_cast<std::uint64_t>(plain.banks) * plain.page_bytes;
  std::set<unsigned> plain_banks, perm_banks;
  for (std::uint64_t i = 0; i < 16; ++i) {
    plain_banks.insert(pm.decode(i * stride).bank);
    perm_banks.insert(xm.decode(i * stride).bank);
  }
  EXPECT_EQ(plain_banks.size(), 1u);
  EXPECT_EQ(perm_banks.size(), static_cast<std::size_t>(perm.banks));
}

TEST(AddressMap, PermutedBankKeepsPageLocality) {
  // Within one page the permutation is constant: sequential bursts still
  // hit the open row.
  const DramConfig cfg = small_config(AddressMapping::kPermutedBank);
  const AddressMapper map(cfg);
  const Coordinates first = map.decode(0);
  const Coordinates last = map.decode(cfg.page_bytes - 1);
  EXPECT_EQ(first.bank, last.bank);
  EXPECT_EQ(first.row, last.row);
}

TEST(AddressMap, RowBankColStreamsStayInPageThenHopBanks) {
  const DramConfig cfg = small_config(AddressMapping::kRowBankCol);
  const AddressMapper map(cfg);
  // Within one page the bank and row stay constant.
  const Coordinates first = map.decode(0);
  const Coordinates last_in_page = map.decode(cfg.page_bytes - 1);
  EXPECT_EQ(first.bank, last_in_page.bank);
  EXPECT_EQ(first.row, last_in_page.row);
  // The next page lands in the next bank, same row.
  const Coordinates next = map.decode(cfg.page_bytes);
  EXPECT_EQ(next.bank, (first.bank + 1) % cfg.banks);
  EXPECT_EQ(next.row, first.row);
}

TEST(AddressMap, BankRowColkeepsStreamInOneBank) {
  const DramConfig cfg = small_config(AddressMapping::kBankRowCol);
  const AddressMapper map(cfg);
  const std::uint64_t bank_bytes =
      static_cast<std::uint64_t>(cfg.rows_per_bank) * cfg.page_bytes;
  EXPECT_EQ(map.decode(0).bank, 0u);
  EXPECT_EQ(map.decode(bank_bytes - 1).bank, 0u);
  EXPECT_EQ(map.decode(bank_bytes).bank, 1u);
}

TEST(AddressMap, RowColBankAlternatesBanksPerBurst) {
  const DramConfig cfg = small_config(AddressMapping::kRowColBank);
  const AddressMapper map(cfg);
  const unsigned burst_bytes = cfg.bytes_per_access();
  const Coordinates c0 = map.decode(0);
  const Coordinates c1 = map.decode(burst_bytes);
  const Coordinates c2 = map.decode(2ull * burst_bytes);
  EXPECT_EQ(c1.bank, (c0.bank + 1) % cfg.banks);
  EXPECT_EQ(c2.bank, (c0.bank + 2) % cfg.banks);
}

TEST(AddressMap, WrapsBeyondCapacity) {
  const DramConfig cfg = small_config(AddressMapping::kRowBankCol);
  const AddressMapper map(cfg);
  const Coordinates a = map.decode(0);
  const Coordinates b = map.decode(map.capacity_bytes());
  EXPECT_EQ(a, b);
}

TEST(AddressMap, CoordinateCoverageIsExhaustive) {
  // Every (bank,row,col) should be reachable: encode then decode equals
  // identity over a sampled grid.
  const DramConfig cfg = small_config(AddressMapping::kRowColBank);
  const AddressMapper map(cfg);
  for (unsigned b = 0; b < cfg.banks; ++b) {
    for (unsigned r = 0; r < cfg.rows_per_bank; r += 97) {
      for (unsigned col = 0; col < cfg.columns_per_row(); col += 13) {
        const Coordinates c{b, r, col};
        EXPECT_EQ(map.decode(map.encode(c)), c);
      }
    }
  }
}

}  // namespace
}  // namespace edsim::dram
