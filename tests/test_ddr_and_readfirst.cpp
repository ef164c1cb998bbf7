// Tests for the DDR (transfers-per-clock) extension and the read-first /
// write-drain scheduler.

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "dram/controller.hpp"
#include "dram/presets.hpp"
#include "dram/scheduler.hpp"
#include "pick_masks.hpp"

namespace edsim::dram {
namespace {

TEST(Ddr, PeakBandwidthDoubles) {
  DramConfig sdr = presets::sdram_pc100_64mbit();
  DramConfig ddr = sdr;
  ddr.transfers_per_clock = 2;
  EXPECT_NEAR(ddr.peak_bandwidth().bits_per_s,
              2.0 * sdr.peak_bandwidth().bits_per_s, 1.0);
  EXPECT_EQ(ddr.data_cycles_per_access(), 2u);  // BL4 over 2 beats/clk
  EXPECT_EQ(sdr.data_cycles_per_access(), 4u);
}

TEST(Ddr, RejectsBogusTransferRates) {
  DramConfig c = presets::sdram_pc100_64mbit();
  c.transfers_per_clock = 3;
  EXPECT_THROW(c.validate(), ConfigError);
}

TEST(Ddr, StreamingThroughputNearlyDoubles) {
  auto run = [](unsigned tpc) {
    DramConfig cfg = presets::sdram_pc100_4mbit();
    cfg.transfers_per_clock = tpc;
    cfg.refresh_enabled = false;
    Controller ctl(cfg);
    std::uint64_t addr = 0;
    for (int i = 0; i < 30'000; ++i) {
      if (!ctl.queue_full()) {
        Request r;
        r.addr = addr;
        addr += cfg.bytes_per_access();
        ctl.enqueue(r);
      }
      ctl.tick();
      ctl.drain_completed();
    }
    return static_cast<double>(ctl.stats().bytes_transferred);
  };
  const double sdr = run(1);
  const double ddr = run(2);
  EXPECT_GT(ddr / sdr, 1.7);
}

TEST(Ddr, ReadLatencyShrinksByBurstTime) {
  DramConfig sdr = presets::sdram_pc100_4mbit();
  sdr.refresh_enabled = false;
  DramConfig ddr = sdr;
  ddr.transfers_per_clock = 2;
  auto latency = [](const DramConfig& cfg) {
    Controller ctl(cfg);
    Request r;
    r.addr = 0;
    ctl.enqueue(r);
    ctl.drain(10'000);
    return ctl.drain_completed()[0].latency();
  };
  // 4 beats at 2/clock saves 2 cycles of serialization.
  EXPECT_EQ(latency(sdr) - latency(ddr), 2u);
}

Candidate cand(std::size_t q, bool write, bool hit, bool issuable) {
  Candidate c;
  c.queue_index = q;
  c.cmd = write ? Command::kWrite : Command::kRead;
  c.is_write = write;
  c.row_hit = hit;
  c.issuable = issuable;
  return c;
}

/// pick_read_first over `cs`, carrying the drain flag in `draining`.
std::size_t read_first(const std::vector<Candidate>& cs, bool& draining,
                       std::uint64_t oldest_wait = 0) {
  return pick_read_first(masks_of(cs).view(), oldest_wait, draining);
}

/// `writes` issuable writes (the first a row hit), then one row-hit read.
std::vector<Candidate> writes_then_read(unsigned writes) {
  std::vector<Candidate> cs;
  for (unsigned i = 0; i < writes; ++i) {
    cs.push_back(cand(i, true, i == 0, true));
  }
  cs.push_back(cand(writes, false, true, true));
  return cs;
}

TEST(ReadFirst, ReadsBeatOlderWrites) {
  bool draining = false;
  std::vector<Candidate> cs = {
      cand(0, true, true, true),   // old write, row hit
      cand(1, false, false, true), // younger read, row miss
  };
  EXPECT_EQ(read_first(cs, draining), 1u);
}

TEST(ReadFirst, RowHitReadsFirstAmongReads) {
  bool draining = false;
  std::vector<Candidate> cs = {
      cand(0, false, false, true),
      cand(1, false, true, true),
  };
  EXPECT_EQ(read_first(cs, draining), 1u);
}

TEST(ReadFirst, DrainModeKicksInAtHighWatermark) {
  bool draining = false;
  // One write short of the high watermark: reads still lead.
  const unsigned read_at = kReadFirstHighWatermark - 1;
  EXPECT_EQ(read_first(writes_then_read(read_at), draining), read_at);
  EXPECT_FALSE(draining);
  // At the high watermark: drain mode, writes first.
  EXPECT_EQ(read_first(writes_then_read(kReadFirstHighWatermark), draining),
            0u);
  EXPECT_TRUE(draining);
  // Hysteresis: above the low watermark the drain goes on.
  EXPECT_EQ(
      read_first(writes_then_read(kReadFirstLowWatermark + 1), draining), 0u);
  EXPECT_TRUE(draining);
  // Once writes fall to the low watermark, reads lead again.
  EXPECT_EQ(read_first(writes_then_read(kReadFirstLowWatermark), draining),
            kReadFirstLowWatermark);
  EXPECT_FALSE(draining);
}

TEST(ReadFirst, ServesWritesWhenNoReadPresent) {
  bool draining = false;
  std::vector<Candidate> cs = {cand(0, true, false, true)};
  EXPECT_EQ(read_first(cs, draining), 0u);
}

TEST(ReadFirst, StarvationGuard) {
  bool draining = false;
  std::vector<Candidate> cs = {
      cand(0, true, false, true),  // ancient write
      cand(1, false, true, true),
  };
  EXPECT_EQ(read_first(cs, draining, kReadFirstStarvationCap), 1u);
  EXPECT_EQ(read_first(cs, draining, kReadFirstStarvationCap + 1), 0u);
}

TEST(ReadFirst, EndToEndReadLatencyBetterThanFrFcfs) {
  // A latency-critical reader sharing the channel with heavy writers:
  // read priority should cut the reader's mean latency.
  // Writes paced at ~2/3 of channel capacity (one burst per 6 cycles on
  // a 4-cycle-per-burst channel), sparse latency-critical random reads.
  // (At full saturation read priority trades away the write stream's row
  // locality and loses — the policy is a latency tool, not a bandwidth
  // one; the ablation bench a3 shows the crossover.)
  auto mean_read_latency = [](SchedulerKind kind) {
    DramConfig cfg = presets::sdram_pc100_4mbit();
    cfg.scheduler = kind;
    cfg.refresh_enabled = false;
    Controller ctl(cfg);
    Rng rng(11);
    std::uint64_t wr_addr = 0;
    for (int i = 0; i < 120'000; ++i) {
      if (i % 6 == 0 && !ctl.queue_full()) {
        Request w;
        w.type = AccessType::kWrite;
        w.addr = wr_addr;
        wr_addr += cfg.bytes_per_access();
        ctl.enqueue(w);
      }
      if (i % 37 == 0 && !ctl.queue_full()) {
        Request r;
        r.type = AccessType::kRead;
        r.addr = rng.next_below(1u << 19) & ~31ull;
        ctl.enqueue(r);
      }
      ctl.tick();
      ctl.drain_completed();
    }
    return ctl.stats().read_latency.mean();
  };
  EXPECT_LT(mean_read_latency(SchedulerKind::kReadFirst),
            mean_read_latency(SchedulerKind::kFrFcfs));
}

}  // namespace
}  // namespace edsim::dram
