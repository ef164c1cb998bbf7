// Cross-validation: closed-form timing expectations vs the cycle
// simulator, across device presets, transfer rates and page policies.
// These tests are the calibration anchor — if the simulator and the
// algebra ever disagree, every experiment number is suspect.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>

#include "clients/system.hpp"
#include "dram/controller.hpp"
#include "dram/presets.hpp"

namespace edsim::dram {
namespace {

struct DeviceCase {
  const char* name;
  DramConfig cfg;
};

std::vector<DeviceCase> devices() {
  DramConfig a = presets::sdram_pc100_64mbit();
  DramConfig b = presets::sdram_pc100_4mbit();
  DramConfig c = presets::edram_module(16, 256, 4, 2048);
  DramConfig d = presets::edram_module(64, 512, 8, 4096);
  DramConfig e = presets::sdram_pc100_64mbit();
  e.transfers_per_clock = 2;
  for (DramConfig* cfg : {&a, &b, &c, &d, &e}) cfg->refresh_enabled = false;
  return {{"pc100-64M", a},
          {"pc100-4M", b},
          {"edram-16M-256b", c},
          {"edram-64M-512b", d},
          {"pc100-ddr", e}};
}

class DeviceSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(DeviceSweep, ColdReadLatencyMatchesFormula) {
  const DeviceCase dc = devices()[GetParam()];
  Controller ctl(dc.cfg);
  Request r;
  r.addr = 0;
  ASSERT_TRUE(ctl.enqueue(r));
  ctl.drain();
  const auto done = ctl.drain_completed();
  ASSERT_EQ(done.size(), 1u);
  const auto& t = dc.cfg.timing;
  const std::uint64_t expected =
      t.tRCD + t.tCL + dc.cfg.data_cycles_per_access();
  EXPECT_EQ(done[0].latency(), expected) << dc.name;
}

TEST_P(DeviceSweep, RowHitReadLatencyMatchesFormula) {
  const DeviceCase dc = devices()[GetParam()];
  if (dc.cfg.page_policy != PagePolicy::kOpen) GTEST_SKIP();
  Controller ctl(dc.cfg);
  Request warm;
  warm.addr = 0;
  ctl.enqueue(warm);
  ctl.drain();
  ctl.drain_completed();
  Request hit;
  hit.addr = dc.cfg.bytes_per_access();  // same page
  ctl.enqueue(hit);
  ctl.drain();
  const auto done = ctl.drain_completed();
  ASSERT_EQ(done.size(), 1u);
  const auto& t = dc.cfg.timing;
  EXPECT_EQ(done[0].latency(),
            t.tCL + dc.cfg.data_cycles_per_access())
      << dc.name;
}

TEST_P(DeviceSweep, RowConflictReadLatencyMatchesFormula) {
  // A read to another row of the open bank pays the full ladder: close
  // the open row (tRP), open the new one (tRCD), then CAS and data.
  const DeviceCase dc = devices()[GetParam()];
  if (dc.cfg.page_policy != PagePolicy::kOpen) GTEST_SKIP();
  Controller ctl(dc.cfg);
  Request warm;
  warm.addr = 0;
  ctl.enqueue(warm);
  ctl.drain();
  ctl.drain_completed();
  const Coordinates open = ctl.mapper().decode(0);
  std::uint64_t addr = dc.cfg.bytes_per_access();
  while (ctl.mapper().decode(addr).bank != open.bank ||
         ctl.mapper().decode(addr).row == open.row) {
    addr += dc.cfg.bytes_per_access();
  }
  // Let the warm-up ACT's tRAS (and the read-to-precharge gap) expire
  // first, so the PRE issues on arrival and only the ladder is measured.
  ctl.tick_until(ctl.cycle() + 1'000);
  Request conflict;
  conflict.addr = addr;
  ctl.enqueue(conflict);
  ctl.drain();
  const auto done = ctl.drain_completed();
  ASSERT_EQ(done.size(), 1u);
  const auto& t = dc.cfg.timing;
  EXPECT_EQ(done[0].latency(),
            t.tRP + t.tRCD + t.tCL + dc.cfg.data_cycles_per_access())
      << dc.name;
}

TEST_P(DeviceSweep, StreamingThroughputApproachesOneBurstPerDataSlot) {
  // A saturating linear stream should place one burst every
  // data_cycles_per_access cycles (minus refresh/ACT gaps at page
  // boundaries).
  const DeviceCase dc = devices()[GetParam()];
  Controller ctl(dc.cfg);
  std::uint64_t addr = 0;
  for (int i = 0; i < 40'000; ++i) {
    if (!ctl.queue_full()) {
      Request r;
      r.addr = addr;
      addr += dc.cfg.bytes_per_access();
      ctl.enqueue(r);
    }
    ctl.tick();
    ctl.drain_completed();
  }
  const double ideal = 40'000.0 / dc.cfg.data_cycles_per_access();
  const double achieved = static_cast<double>(ctl.stats().reads);
  EXPECT_GT(achieved, ideal * 0.85) << dc.name;
  EXPECT_LE(achieved, ideal + 1.0) << dc.name;
}

TEST_P(DeviceSweep, SaturatedRowStreakSustainsOneAccessPerColumnSlot) {
  // The dense-traffic regime, end to end through the client front end: a
  // 100%-duty stream that wraps inside one row keeps the queue full of
  // row hits, so after the opening ACT no command gap is left but the
  // column slot itself — one bytes_per_access() every
  // max(tCCD, data_cycles_per_access()) cycles. Holds with the resident
  // front end (dense_stretch) on and off; the only slack is the fill edge
  // before the first column command.
  const DeviceCase dc = devices()[GetParam()];
  if (dc.cfg.page_policy != PagePolicy::kOpen) GTEST_SKIP();
  const auto& t = dc.cfg.timing;
  const unsigned slot = std::max(t.tCCD, dc.cfg.data_cycles_per_access());
  const std::uint64_t window = 40'000;
  const double ideal = static_cast<double>(dc.cfg.bytes_per_access()) / slot;
  // Fill edge: the cold ACT, tRCD to the first column command and one
  // front-end cycle to put the first request in the queue, rounded up to
  // whole column slots, plus the slot cut at the window's end.
  const std::uint64_t edge_slots = (1 + t.tRCD + slot - 1) / slot + 1;
  const double edge_bytes =
      static_cast<double>(edge_slots * dc.cfg.bytes_per_access());
  for (const AccessType type : {AccessType::kRead, AccessType::kWrite}) {
    for (const bool dense : {false, true}) {
      clients::MemorySystem sys(dc.cfg, clients::ArbiterKind::kRoundRobin);
      sys.set_burst_issue(dense);
      clients::StreamClient::Params p;
      p.length = dc.cfg.page_bytes;  // wraps inside one row: no ACT gaps
      p.burst_bytes = dc.cfg.bytes_per_access();
      p.type = type;
      p.period_cycles = 0;  // endless 100%-duty demand
      sys.add_client(std::make_unique<clients::StreamClient>(0, "duty", p));
      sys.run(window);
      const auto& st = sys.controller().stats();
      const double bytes = static_cast<double>(st.bytes_transferred);
      const double per_cycle = bytes / static_cast<double>(st.cycles);
      SCOPED_TRACE(std::string(dc.name) +
                   (type == AccessType::kRead ? " read" : " write") +
                   (dense ? " dense" : " per-cycle"));
      EXPECT_EQ(st.cycles, window);
      EXPECT_EQ(st.row_misses + st.row_conflicts, 1u);
      EXPECT_LE(per_cycle, ideal);
      EXPECT_GE(bytes, ideal * static_cast<double>(window) - edge_bytes);
    }
  }
}

TEST_P(DeviceSweep, WriteLatencyMatchesFormula) {
  const DeviceCase dc = devices()[GetParam()];
  Controller ctl(dc.cfg);
  Request w;
  w.type = AccessType::kWrite;
  w.addr = 0;
  ctl.enqueue(w);
  ctl.drain();
  const auto done = ctl.drain_completed();
  ASSERT_EQ(done.size(), 1u);
  const auto& t = dc.cfg.timing;
  EXPECT_EQ(done[0].latency(),
            t.tRCD + t.tWL + dc.cfg.data_cycles_per_access())
      << dc.name;
}

TEST_P(DeviceSweep, PeakBandwidthAlgebra) {
  const DeviceCase dc = devices()[GetParam()];
  const double by_hand = static_cast<double>(dc.cfg.interface_bits) *
                         dc.cfg.clock.hz() * dc.cfg.transfers_per_clock;
  EXPECT_NEAR(dc.cfg.peak_bandwidth().bits_per_s, by_hand, 1.0) << dc.name;
}

INSTANTIATE_TEST_SUITE_P(Presets, DeviceSweep,
                         ::testing::Range<std::size_t>(0, 5));

TEST(CrossValidation, RefreshOverheadMatchesDutyCycle) {
  // Idle channel: fraction of cycles taken by refresh should approach
  // (drain + tRFC) / tREFI; we bound it with the pure tRFC/tREFI floor
  // and a generous ceiling.
  DramConfig cfg = presets::sdram_pc100_4mbit();
  Controller ctl(cfg);
  const std::uint64_t window = 50ull * cfg.timing.tREFI;
  for (std::uint64_t i = 0; i < window; ++i) ctl.tick();
  const double refreshes = static_cast<double>(ctl.stats().refreshes);
  const double expected =
      static_cast<double>(window) / cfg.timing.tREFI;
  EXPECT_NEAR(refreshes, expected, 2.0);
}

}  // namespace
}  // namespace edsim::dram
