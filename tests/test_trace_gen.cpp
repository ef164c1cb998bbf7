#include "mpeg/trace_gen.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "common/error.hpp"
#include "dram/presets.hpp"

namespace edsim::mpeg {
namespace {

TEST(McClient, BlockRowsAreBurstAlignedAndWithinRegion) {
  McClient::Params p;
  p.region_base = 8192;
  p.region_bytes = 1 << 20;
  p.pitch_bytes = 720;
  p.rows_per_block = 17;
  p.bytes_per_row = 17;
  p.burst_bytes = 32;
  p.block_period_cycles = 50;
  McClient c(0, p);
  for (std::uint64_t cyc = 0; cyc < 5000; ++cyc) {
    if (!c.has_request(cyc)) continue;
    const auto r = c.make_request(cyc);
    EXPECT_EQ(r.addr % 32, 0u);
    EXPECT_GE(r.addr, 8192u);
    EXPECT_LT(r.addr, 8192u + (1u << 20));
    EXPECT_EQ(r.type, dram::AccessType::kRead);
  }
  EXPECT_GT(c.blocks_issued(), 10u);
}

TEST(McClient, IssuesExactlyRowsPerBlock) {
  McClient::Params p;
  p.region_bytes = 1 << 20;
  p.pitch_bytes = 720;
  p.rows_per_block = 17;
  p.burst_bytes = 32;
  p.block_period_cycles = 1000;
  p.total_blocks = 3;
  McClient c(0, p);
  unsigned requests = 0;
  for (std::uint64_t cyc = 0; cyc < 10'000 && !c.finished(); ++cyc) {
    while (c.has_request(cyc) && !c.finished()) {
      c.make_request(cyc);
      ++requests;
    }
  }
  EXPECT_EQ(requests, 3u * 17u);
  EXPECT_TRUE(c.finished());
}

TEST(McClient, RowsOfABlockArePitchSeparated) {
  McClient::Params p;
  p.region_bytes = 1 << 20;
  p.pitch_bytes = 1024;
  p.rows_per_block = 4;
  p.burst_bytes = 32;
  p.block_period_cycles = 100;
  p.total_blocks = 1;
  McClient c(0, p);
  std::vector<std::uint64_t> addrs;
  for (std::uint64_t cyc = 0; cyc < 100 && !c.finished(); ++cyc) {
    while (c.has_request(cyc) && !c.finished())
      addrs.push_back(c.make_request(cyc).addr);
  }
  ASSERT_EQ(addrs.size(), 4u);
  for (std::size_t i = 1; i < addrs.size(); ++i) {
    // Aligned rows stay exactly one pitch apart (pitch is a multiple of
    // the burst size here).
    EXPECT_EQ(addrs[i] - addrs[i - 1], 1024u);
  }
}

/// Drive `c` as a front end granting every request `delays[i]` cycles
/// after it became ready (0 past the list), polling first on the cycle
/// after the previous grant. Returns each request's ready cycle, and
/// checks that the client is not ready on the polled cycles before it.
std::vector<std::uint64_t> ready_cycles(McClient& c,
                                        const std::vector<std::uint64_t>&
                                            delays) {
  std::vector<std::uint64_t> ready;
  std::uint64_t poll = 0;
  while (!c.finished()) {
    const std::uint64_t w = c.next_request_cycle(poll);
    EXPECT_TRUE(c.has_request(w));
    if (w > poll) {
      EXPECT_FALSE(c.has_request(w - 1));
    }
    const std::uint64_t accept =
        w + (ready.size() < delays.size() ? delays[ready.size()] : 0);
    ready.push_back(w);
    c.make_request(accept);
    poll = accept + 1;
  }
  return ready;
}

TEST(McClient, PacingMatchesTheClosedForm) {
  // Rows of a block are ready back to back, each on the cycle after the
  // previous grant. A block's first row is ready at its paced start; the
  // next block's start is max(start + block_period_cycles, accept), where
  // `start` is this block's paced start and `accept` the cycle its first
  // row was granted. A finished client never wakes again.
  McClient::Params p;
  p.region_bytes = 1 << 20;
  p.rows_per_block = 3;
  p.burst_bytes = 32;
  p.block_period_cycles = 10;
  p.total_blocks = 4;

  {
    SCOPED_TRACE("prompt grants");
    McClient c(0, p);
    EXPECT_EQ(ready_cycles(c, {}),
              (std::vector<std::uint64_t>{0, 1, 2, 10, 11, 12, 20, 21, 22,
                                          30, 31, 32}));
    EXPECT_EQ(c.next_request_cycle(33), dram::kNeverCycle);
    EXPECT_EQ(c.next_request_cycle(1'000), dram::kNeverCycle);
    EXPECT_FALSE(c.has_request(40));
  }
  {
    // Block 1's first row is granted 5 cycles late (15): block 2 keeps its
    // paced start, max(10 + 10, 15) = 20. Block 2's first row is granted
    // 15 late (35): block 3 starts at max(20 + 10, 35) = 35, already
    // passed when block 2's rows end at 37, so it follows at once (38).
    // A late middle row (block 0's second, +4) delays only the rows
    // behind it.
    SCOPED_TRACE("late grants");
    McClient c(0, p);
    EXPECT_EQ(ready_cycles(c, {0, 4, 0, 5, 0, 0, 15}),
              (std::vector<std::uint64_t>{0, 1, 6, 10, 16, 17, 20, 36, 37,
                                          38, 39, 40}));
    EXPECT_EQ(c.next_request_cycle(41), dram::kNeverCycle);
  }
  {
    // Blocks longer than their period: each block's rows run back to
    // back, and the next block starts on the cycle after its last row.
    SCOPED_TRACE("blocks longer than the period");
    McClient::Params q = p;
    q.rows_per_block = 4;
    q.block_period_cycles = 2;
    q.total_blocks = 3;
    McClient c(0, q);
    EXPECT_EQ(ready_cycles(c, {}),
              (std::vector<std::uint64_t>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10,
                                          11}));
  }
  {
    // An endless client paced from a late first grant: polled far ahead
    // of its next block, it names that block's start, and it stays ready
    // from there until granted.
    SCOPED_TRACE("endless, polled ahead");
    McClient::Params q = p;
    q.total_blocks = 0;
    McClient c(0, q);
    EXPECT_EQ(c.next_request_cycle(7), 7u);
    c.make_request(7);  // block 0 starts 7 late: next at max(0 + 10, 7)
    c.make_request(8);
    c.make_request(9);
    EXPECT_EQ(c.next_request_cycle(10), 10u);
    c.make_request(10);  // block 1 on time: next at 20
    c.make_request(11);
    c.make_request(12);
    EXPECT_EQ(c.next_request_cycle(13), 20u);
    EXPECT_FALSE(c.has_request(19));
    EXPECT_TRUE(c.has_request(20));
    EXPECT_TRUE(c.has_request(500));
  }
}

TEST(McClient, RejectsDegenerateGeometry) {
  McClient::Params p;
  p.region_bytes = 1000;
  p.pitch_bytes = 720;
  p.rows_per_block = 17;  // block span 12240 > region
  EXPECT_THROW(McClient(0, p), edsim::ConfigError);
}

TEST(DecoderClients, WiresFourClientsOntoChannel) {
  DecoderConfig dc;
  dc.format = pal();
  const DecoderModel model(dc);
  const MemoryMap map = model.build_memory_map();

  clients::MemorySystem sys(dram::presets::edram_module(32, 64, 4, 2048),
                            clients::ArbiterKind::kRoundRobin);
  const auto ids = add_decoder_clients(sys, model, map);
  EXPECT_EQ(sys.client_count(), 4u);
  EXPECT_EQ(sys.client(ids.mc).name(), "motion_comp");
  EXPECT_EQ(sys.client(ids.display).name(), "display");

  sys.run(100'000);
  // All four clients make progress.
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_GT(sys.client_stats(i).completed, 0u) << i;
  }
}

TEST(DecoderClients, AggregateRateTracksAnalyticDemand) {
  DecoderConfig dc;
  dc.format = pal();
  const DecoderModel model(dc);
  const MemoryMap map = model.build_memory_map();

  // A wide channel with ample headroom: clients should achieve their
  // paced rates, which were derived from the analytic demands.
  clients::MemorySystem sys(dram::presets::edram_module(32, 128, 4, 2048),
                            clients::ArbiterKind::kRoundRobin);
  add_decoder_clients(sys, model, map);
  sys.run(500'000);

  const double achieved =
      sys.aggregate_bandwidth().bits_per_s;
  const double demanded = model.total_bandwidth().bits_per_s;
  // Within 40% — pacing quantization and MC burst overfetch both push the
  // achieved number around the analytic one.
  EXPECT_GT(achieved, demanded * 0.6);
  EXPECT_LT(achieved, demanded * 2.5);
}

TEST(DecoderClients, LiveRosterSnapshotRestoreMatchesOneLongRun) {
  // The live roster carries the MC client's block registers and RNG
  // stream: stopping at 100k cycles, restoring into a fresh system and
  // running 100k more must equal one straight 200k-cycle run.
  DecoderConfig dc;
  dc.format = pal();
  const DecoderModel model(dc);
  const MemoryMap map = model.build_memory_map();
  const dram::DramConfig cfg = dram::presets::edram_module(16, 64, 4, 2048);
  DecoderClientIds ids;
  const auto build = [&] {
    auto sys = std::make_unique<clients::MemorySystem>(
        cfg, clients::ArbiterKind::kRoundRobin);
    ids = add_decoder_clients(*sys, model, map);
    return sys;
  };

  const auto straight = build();
  straight->run(200'000);

  const auto first = build();
  first->run(100'000);
  const auto resumed = build();
  resumed->restore_snapshot(first->save_snapshot());
  resumed->run(100'000);

  const auto& a = straight->controller().stats();
  const auto& b = resumed->controller().stats();
  EXPECT_EQ(a.reads, b.reads);
  EXPECT_EQ(a.row_hits, b.row_hits);
  EXPECT_EQ(a.row_misses, b.row_misses);
  EXPECT_EQ(a.row_conflicts, b.row_conflicts);
  for (std::size_t i = 0; i < straight->client_count(); ++i) {
    EXPECT_EQ(straight->client_stats(i).issued,
              resumed->client_stats(i).issued) << i;
    EXPECT_EQ(straight->client_stats(i).stall_cycles,
              resumed->client_stats(i).stall_cycles) << i;
  }
  EXPECT_EQ(
      static_cast<const McClient&>(straight->client(ids.mc)).blocks_issued(),
      static_cast<const McClient&>(resumed->client(ids.mc)).blocks_issued());
  EXPECT_EQ(straight->save_snapshot(), resumed->save_snapshot());
}

TEST(DecoderClients, RequiresDecoderRegions) {
  DecoderConfig dc;
  const DecoderModel model(dc);
  MemoryMap empty;
  clients::MemorySystem sys(dram::presets::edram_module(32, 64, 4, 2048),
                            clients::ArbiterKind::kRoundRobin);
  EXPECT_THROW(add_decoder_clients(sys, model, empty), edsim::ConfigError);
}

}  // namespace
}  // namespace edsim::mpeg
