// Tests for the DDR (transfers-per-clock) extension and the read-first /
// write-drain scheduler.

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "dram/controller.hpp"
#include "dram/presets.hpp"
#include "dram/scheduler.hpp"

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

TEST(ReadFirst, ReadsBeatOlderWrites) {
  ReadFirstScheduler s(4, 1);
  std::vector<Candidate> cs = {
      cand(0, true, true, true),   // old write, row hit
      cand(1, false, false, true), // younger read, row miss
  };
  EXPECT_EQ(s.pick_in(cs, 0, 0), 1u);
}

TEST(ReadFirst, RowHitReadsFirstAmongReads) {
  ReadFirstScheduler s(4, 1);
  std::vector<Candidate> cs = {
      cand(0, false, false, true),
      cand(1, false, true, true),
  };
  EXPECT_EQ(s.pick_in(cs, 0, 0), 1u);
}

TEST(ReadFirst, DrainModeKicksInAtHighWatermark) {
  ReadFirstScheduler s(/*high=*/3, /*low=*/1);
  std::vector<Candidate> cs = {
      cand(0, true, true, true),
      cand(1, true, false, true),
      cand(2, true, false, true),
      cand(3, false, true, true),
  };
  // 3 writes >= high watermark: drain mode, writes first.
  EXPECT_EQ(s.pick_in(cs, 0, 0), 0u);
  EXPECT_TRUE(s.draining());
  // Once writes fall to the low watermark, reads lead again.
  std::vector<Candidate> few = {
      cand(0, true, true, true),
      cand(1, false, true, true),
  };
  EXPECT_EQ(s.pick_in(few, 0, 0), 1u);
  EXPECT_FALSE(s.draining());
}

TEST(ReadFirst, ServesWritesWhenNoReadPresent) {
  ReadFirstScheduler s(8, 2);
  std::vector<Candidate> cs = {cand(0, true, false, true)};
  EXPECT_EQ(s.pick_in(cs, 0, 0), 0u);
}

TEST(ReadFirst, StarvationGuard) {
  ReadFirstScheduler s(8, 2, /*starvation_cap=*/100);
  std::vector<Candidate> cs = {
      cand(0, true, false, true),  // ancient write
      cand(1, false, true, true),
  };
  EXPECT_EQ(s.pick_in(cs, 0, 101), 0u);
}

TEST(ReadFirst, RejectsBadWatermarks) {
  EXPECT_THROW(ReadFirstScheduler(2, 5), edsim::ConfigError);
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
