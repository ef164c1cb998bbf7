#include "dram/multi_channel.hpp"

#include <gtest/gtest.h>

#include <initializer_list>
#include <memory>
#include <set>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "dram/presets.hpp"
#include "reliability/manager.hpp"

namespace edsim::dram {
namespace {

DramConfig chan_cfg() {
  DramConfig c = presets::edram_module(16, 64, 4, 2048);
  c.refresh_enabled = false;
  return c;
}

TEST(MultiChannel, CapacityAndPeakScale) {
  const MultiChannel mc(chan_cfg(), 4, ChannelInterleave::kBurst);
  EXPECT_EQ(mc.capacity(), Capacity::mbit(64));
  EXPECT_NEAR(mc.peak_bandwidth().bits_per_s,
              4.0 * chan_cfg().peak_bandwidth().bits_per_s, 1.0);
}

TEST(MultiChannel, BurstInterleaveAlternatesChannels) {
  const MultiChannel mc(chan_cfg(), 4, ChannelInterleave::kBurst);
  const unsigned burst = chan_cfg().bytes_per_access();
  EXPECT_EQ(mc.route(0), 0u);
  EXPECT_EQ(mc.route(burst), 1u);
  EXPECT_EQ(mc.route(2ull * burst), 2u);
  EXPECT_EQ(mc.route(4ull * burst), 0u);
  // Within one burst: same channel.
  EXPECT_EQ(mc.route(burst - 1), 0u);
}

TEST(MultiChannel, RegionInterleaveGivesContiguousSlices) {
  const MultiChannel mc(chan_cfg(), 2, ChannelInterleave::kRegion);
  const std::uint64_t half = mc.capacity().byte_count() / 2;
  EXPECT_EQ(mc.route(0), 0u);
  EXPECT_EQ(mc.route(half - 1), 0u);
  EXPECT_EQ(mc.route(half), 1u);
}

TEST(MultiChannel, LocalAddressesStayWithinChannelCapacity) {
  MultiChannel mc(chan_cfg(), 4, ChannelInterleave::kPage);
  Rng rng(5);
  const std::uint64_t total = mc.capacity().byte_count();
  for (int i = 0; i < 500; ++i) {
    Request r;
    r.addr = rng.next_below(total) & ~63ull;
    ASSERT_TRUE(mc.enqueue(r));
    for (int k = 0; k < 40; ++k) mc.tick();
    mc.drain_completed();
  }
  // Implicitly verified by the mapper's validation; additionally, all
  // four channels must have seen traffic.
  for (unsigned c = 0; c < 4; ++c) {
    EXPECT_GT(mc.channel(c).stats().reads, 0u) << c;
  }
}

TEST(MultiChannel, StreamBandwidthScalesWithChannels) {
  auto run = [](unsigned channels) {
    MultiChannel mc(chan_cfg(), channels, ChannelInterleave::kBurst);
    const unsigned burst = chan_cfg().bytes_per_access();
    std::uint64_t addr = 0;
    for (int i = 0; i < 60'000; ++i) {
      // Saturate: submit as many bursts per cycle as channels accept.
      for (unsigned k = 0; k < channels; ++k) {
        if (!mc.queue_full_for(addr)) {
          Request r;
          r.addr = addr;
          mc.enqueue(r);
          addr += burst;
        }
      }
      mc.tick();
      mc.drain_completed();
    }
    return mc.sustained_bandwidth().as_gbyte_per_s();
  };
  const double one = run(1);
  const double four = run(4);
  EXPECT_GT(four, one * 3.0);
}

TEST(MultiChannel, DistinctRequestsCompleteExactlyOnce) {
  MultiChannel mc(chan_cfg(), 2, ChannelInterleave::kBurst);
  const unsigned burst = chan_cfg().bytes_per_access();
  std::set<std::uint64_t> tags;
  unsigned submitted = 0;
  unsigned completed = 0;
  while (completed < 400) {
    if (submitted < 400 && !mc.queue_full_for(submitted * burst)) {
      Request r;
      r.addr = static_cast<std::uint64_t>(submitted) * burst;
      r.tag = submitted;
      ASSERT_TRUE(mc.enqueue(r));
      ++submitted;
    }
    mc.tick();
    for (const auto& r : mc.drain_completed()) {
      EXPECT_TRUE(tags.insert(r.tag).second) << "duplicate completion";
      ++completed;
    }
  }
  EXPECT_EQ(tags.size(), 400u);
}

TEST(MultiChannel, RejectsBadChannelCount) {
  EXPECT_THROW(MultiChannel(chan_cfg(), 0, ChannelInterleave::kBurst),
               edsim::ConfigError);
  EXPECT_THROW(MultiChannel(chan_cfg(), 99, ChannelInterleave::kBurst),
               edsim::ConfigError);
}

TEST(MultiChannel, CombinedStatsAggregate) {
  MultiChannel mc(chan_cfg(), 2, ChannelInterleave::kBurst);
  const unsigned burst = chan_cfg().bytes_per_access();
  for (unsigned i = 0; i < 10; ++i) {
    Request r;
    r.addr = static_cast<std::uint64_t>(i) * burst;
    mc.enqueue(r);
  }
  for (int k = 0; k < 200; ++k) mc.tick();
  ASSERT_TRUE(mc.idle());
  const ControllerStats s = mc.combined_stats();
  EXPECT_EQ(s.reads, 10u);
  EXPECT_EQ(s.bytes_transferred, 10ull * burst);
  EXPECT_EQ(s.read_latency.count(), 10u);
}

TEST(MultiChannel, CombinedStatsSumEveryCounter) {
  // Sparse reads on two power-managed channels, each with its own
  // reliability layer in self-managed maintenance mode: every channel
  // powers down between reads and claims maintenance slots, so the
  // power-down, maintenance and reliability counters are all live.
  DramConfig cfg = presets::edram_module(16, 64, 4, 2048);
  cfg.powerdown_enabled = true;
  cfg.powerdown_idle_cycles = 32;
  reliability::ReliabilityConfig rc;
  rc.inject.weak_cells = 12;
  rc.inject.weak_retention_min_frac = 0.002;
  rc.inject.weak_retention_max_frac = 0.002;
  rc.scrub_enabled = false;
  rc.maintenance.enabled = true;

  MultiChannel mc(cfg, 2, ChannelInterleave::kBurst);
  std::vector<std::unique_ptr<reliability::ReliabilityManager>> rel;
  for (unsigned c = 0; c < mc.channels(); ++c) {
    rc.inject.seed = 21 + c;
    rel.push_back(std::make_unique<reliability::ReliabilityManager>(cfg, rc));
    mc.channel(c).attach_reliability(rel.back().get());
  }
  Rng rng(9);
  const std::uint64_t total = mc.capacity().byte_count();
  for (int k = 0; k < 100'000; ++k) {
    if (k % 500 == 0) {
      Request r;
      r.addr = rng.next_below(total) & ~63ull;
      r.type = k % 1'500 == 0 ? AccessType::kWrite : AccessType::kRead;
      ASSERT_TRUE(mc.enqueue(r));
    }
    mc.tick();
    mc.drain_completed();
  }

  const ControllerStats s = mc.combined_stats();
  const ControllerStats& s0 = mc.channel(0).stats();
  const ControllerStats& s1 = mc.channel(1).stats();
  using StatsField = std::uint64_t ControllerStats::*;
  for (const StatsField f :
       {&ControllerStats::reads, &ControllerStats::writes,
        &ControllerStats::row_hits, &ControllerStats::row_misses,
        &ControllerStats::row_conflicts, &ControllerStats::activations,
        &ControllerStats::precharges, &ControllerStats::refreshes,
        &ControllerStats::data_bus_busy_cycles,
        &ControllerStats::bytes_transferred,
        &ControllerStats::powerdown_cycles,
        &ControllerStats::redirected_requests,
        &ControllerStats::watchdog_retries,
        &ControllerStats::maintenance_ops}) {
    EXPECT_EQ(s.*f, s0.*f + s1.*f);
  }
  using RelField = std::uint64_t ReliabilityCounters::*;
  for (const RelField f :
       {&ReliabilityCounters::injected, &ReliabilityCounters::corrected,
        &ReliabilityCounters::uncorrected, &ReliabilityCounters::remapped,
        &ReliabilityCounters::demand_corrections,
        &ReliabilityCounters::scrub_corrections,
        &ReliabilityCounters::write_repairs,
        &ReliabilityCounters::uncorrectable_events,
        &ReliabilityCounters::rows_remapped,
        &ReliabilityCounters::banks_retired,
        &ReliabilityCounters::scrubbed_rows, &ReliabilityCounters::maint_ops,
        &ReliabilityCounters::maint_rows, &ReliabilityCounters::neighbor_rows,
        &ReliabilityCounters::disturb_flips}) {
    EXPECT_EQ(s.reliability.*f, s0.reliability.*f + s1.reliability.*f);
  }
  EXPECT_EQ(s.cycles, 100'000u);
  EXPECT_EQ(s.read_latency.count(),
            s0.read_latency.count() + s1.read_latency.count());
  EXPECT_EQ(s.write_latency.count(),
            s0.write_latency.count() + s1.write_latency.count());
  EXPECT_EQ(s.queue_occupancy.count(),
            s0.queue_occupancy.count() + s1.queue_occupancy.count());

  // Both channels really crossed the counters under test.
  for (const ControllerStats* c : {&s0, &s1}) {
    EXPECT_GT(c->powerdown_cycles, 0u);
    EXPECT_GT(c->maintenance_ops, 0u);
    EXPECT_GT(c->reliability.maint_ops, 0u);
  }
  EXPECT_GT(s.powerdown_fraction(), 0.5);
}

}  // namespace
}  // namespace edsim::dram
