// Golden-model property tests: simulator objects checked against
// trivially-correct reference implementations under random stimulus.

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstdint>
#include <map>
#include <vector>

#include "bist/memory_array.hpp"
#include "common/rng.hpp"
#include "dram/command_log.hpp"
#include "dram/controller.hpp"
#include "dram/presets.hpp"

namespace edsim {
namespace {

TEST(GoldenModel, FaultFreeArrayMatchesPlainStorage) {
  // A fault-free MemoryArray must be indistinguishable from a bit
  // matrix under any operation sequence.
  constexpr unsigned kRows = 32, kCols = 32;
  bist::MemoryArray dut(kRows, kCols);
  std::vector<bool> model(kRows * kCols, false);
  Rng rng(123);
  for (int op = 0; op < 50'000; ++op) {
    const auto r = static_cast<unsigned>(rng.next_below(kRows));
    const auto c = static_cast<unsigned>(rng.next_below(kCols));
    if (rng.next_bool(0.5)) {
      const bool v = rng.next_bool(0.5);
      dut.write(r, c, v);
      model[r * kCols + c] = v;
    } else {
      ASSERT_EQ(dut.read(r, c), model[r * kCols + c])
          << "divergence at (" << r << "," << c << ") after " << op;
    }
    if (op % 1000 == 0) dut.advance_time_ms(10.0);  // time is harmless
  }
}

TEST(GoldenModel, SingleFaultPerturbsOnlyItsVictim) {
  // With one fault injected, dut and model may only disagree at the
  // victim cell (no collateral damage anywhere else).
  Rng rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    constexpr unsigned kN = 16;
    bist::MemoryArray dut(kN, kN);
    const bist::Fault f = bist::random_fault(
        rng, bist::FaultKind::kStuckAt1, kN, kN);
    dut.inject(f);
    std::vector<bool> model(kN * kN, false);
    for (int op = 0; op < 5'000; ++op) {
      const auto r = static_cast<unsigned>(rng.next_below(kN));
      const auto c = static_cast<unsigned>(rng.next_below(kN));
      if (rng.next_bool(0.5)) {
        const bool v = rng.next_bool(0.5);
        dut.write(r, c, v);
        model[r * kN + c] = v;
      } else if (!(r == f.victim.row && c == f.victim.col)) {
        ASSERT_EQ(dut.read(r, c), model[r * kN + c]);
      }
    }
  }
}

TEST(GoldenModel, ControllerConservationAndOrdering) {
  // Every enqueued request completes exactly once; ids are unique;
  // completion times are consistent (done >= arrival + minimum service).
  dram::DramConfig cfg = dram::presets::sdram_pc100_4mbit();
  cfg.scheduler = dram::SchedulerKind::kFrFcfs;
  dram::Controller ctl(cfg);
  Rng rng(55);
  std::map<std::uint64_t, std::uint64_t> outstanding;  // id -> arrival
  unsigned submitted = 0, completed = 0;
  const unsigned kTotal = 3000;
  while (completed < kTotal) {
    if (submitted < kTotal && !ctl.queue_full()) {
      dram::Request r;
      r.type = rng.next_bool(0.6) ? dram::AccessType::kRead
                                  : dram::AccessType::kWrite;
      r.addr = rng.next_below(1u << 19) & ~31ull;
      const std::uint64_t arrival = ctl.cycle();
      ASSERT_TRUE(ctl.enqueue(r));
      ++submitted;
      // The controller assigns ids in submission order.
      outstanding[submitted - 1] = arrival;
    }
    ctl.tick();
    for (const auto& d : ctl.drain_completed()) {
      ASSERT_TRUE(outstanding.count(d.id)) << "unknown or duplicate id";
      EXPECT_EQ(outstanding[d.id], d.arrival_cycle);
      const auto& t = cfg.timing;
      EXPECT_GE(d.latency(),
                static_cast<std::uint64_t>(
                    std::min(t.tCL, t.tWL) + 1));
      // Retire contract: a drained request's last beat is in the past.
      EXPECT_LE(d.done_cycle, ctl.cycle());
      outstanding.erase(d.id);
      ++completed;
    }
    ASSERT_LT(ctl.cycle(), 2'000'000u);
  }
  EXPECT_TRUE(outstanding.empty());
  EXPECT_EQ(ctl.stats().reads + ctl.stats().writes, kTotal);
}

// ---------------------------------------------------------------------------
// Scheduling decisions pinned to recorded digests. The differential fuzz
// compares per-cycle ticking against fast-forward, but both sides share
// the same candidate scan and next-event bound, so a bug in either would
// go unseen there. These digests of the full command trace and the
// channel statistics were recorded from a per-request implementation of
// both scans, independent of the per-bank one, and must never change: any
// scheduling difference shows up here.

struct GoldenArrival {
  std::uint64_t cycle = 0;
  std::uint64_t addr = 0;
  dram::AccessType type = dram::AccessType::kRead;
  unsigned client = 0;
};

/// Dense mixed traffic: direction phases of 1-8 requests (so write->read
/// turnarounds recur), half the addresses near a recent one (row hits),
/// back-to-back arrivals that overfill the queue, and occasional idle gaps
/// that let tick_until skip.
std::vector<GoldenArrival> golden_traffic(const dram::DramConfig& cfg,
                                          std::uint64_t seed) {
  Rng rng(seed);
  const std::uint64_t span = cfg.capacity().byte_count();
  const std::uint64_t align = cfg.bytes_per_access();
  std::vector<GoldenArrival> out;
  std::uint64_t cycle = 3, recent = 0;
  bool write = false;
  unsigned phase_left = 0;
  for (int i = 0; i < 600; ++i) {
    if (phase_left == 0) {
      write = !write;
      phase_left = 1 + static_cast<unsigned>(rng.next_below(8));
    }
    --phase_left;
    GoldenArrival a;
    a.cycle = cycle;
    a.type = write ? dram::AccessType::kWrite : dram::AccessType::kRead;
    a.client = static_cast<unsigned>(rng.next_below(cfg.tdm_clients));
    a.addr = rng.next_bool(0.5) ? (recent + align * rng.next_below(8)) % span
                                : rng.next_below(span);
    a.addr &= ~(align - 1);
    recent = a.addr;
    out.push_back(a);
    cycle += rng.next_below(2);
    if (rng.next_bool(0.005)) cycle += 200 + rng.next_below(400);
  }
  return out;
}

std::uint64_t golden_mix(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 0x100000001b3ull;  // FNV-1a prime
  }
  return h;
}

std::uint64_t golden_mix_acc(std::uint64_t h, const Accumulator& a) {
  h = golden_mix(h, a.count());
  for (const double x : {a.sum(), a.mean(), a.min(), a.max(), a.variance()}) {
    h = golden_mix(h, std::bit_cast<std::uint64_t>(x));
  }
  return h;
}

std::uint64_t golden_digest(const dram::CommandLog& log,
                            const dram::ControllerStats& s) {
  std::uint64_t h = 0xcbf29ce484222325ull;  // FNV-1a offset basis
  h = golden_mix(h, log.size());
  for (const dram::CommandRecord& r : log.records()) {
    h = golden_mix(h, r.cycle);
    h = golden_mix(h, static_cast<std::uint64_t>(r.cmd));
    h = golden_mix(h, r.bank);
    h = golden_mix(h, r.row);
    h = golden_mix(h, r.client);
    h = golden_mix(h, r.auto_precharge ? 1u : 0u);
  }
  for (const std::uint64_t v :
       {s.cycles, s.reads, s.writes, s.row_hits, s.row_misses,
        s.row_conflicts, s.activations, s.precharges, s.refreshes,
        s.data_bus_busy_cycles, s.bytes_transferred, s.powerdown_cycles,
        s.redirected_requests, s.watchdog_retries, s.maintenance_ops}) {
    h = golden_mix(h, v);
  }
  h = golden_mix_acc(h, s.read_latency);
  h = golden_mix_acc(h, s.write_latency);
  return golden_mix_acc(h, s.queue_occupancy);
}

/// Run the trace to `end`, per cycle or through tick_until. Both enqueue
/// every ready arrival at the same cycles: tick_until stops at the next
/// arrival, and at every cycle while a ready arrival waits on a full queue.
/// `stats`, when given, receives the final channel statistics.
std::uint64_t golden_run(const dram::DramConfig& cfg,
                         const std::vector<GoldenArrival>& trace,
                         std::uint64_t end, bool per_cycle,
                         dram::ControllerStats* stats = nullptr) {
  dram::Controller ctl(cfg);
  dram::CommandLog log;
  ctl.attach_command_log(&log);
  std::size_t idx = 0;
  while (ctl.cycle() < end) {
    while (idx < trace.size() && trace[idx].cycle <= ctl.cycle() &&
           !ctl.queue_full()) {
      dram::Request r;
      r.addr = trace[idx].addr;
      r.type = trace[idx].type;
      r.client_id = trace[idx].client;
      EXPECT_TRUE(ctl.enqueue(r));
      ++idx;
    }
    if (per_cycle) {
      ctl.tick();
    } else {
      std::uint64_t target = end;
      if (idx < trace.size()) {
        target = std::min(end, std::max(trace[idx].cycle, ctl.cycle() + 1));
      }
      ctl.tick_until(target);
    }
    ctl.drain_completed();
  }
  EXPECT_EQ(idx, trace.size());
  EXPECT_TRUE(ctl.idle()) << "trace did not drain by cycle " << end;
  EXPECT_EQ(ctl.stats().queue_occupancy.max(), cfg.queue_depth)
      << "the traffic must fill the queue";
  if (stats != nullptr) *stats = ctl.stats();
  return golden_digest(log, ctl.stats());
}

TEST(GoldenModel, SchedulingMatchesRecordedDigests) {
  using dram::PagePolicy;
  using dram::SchedulerKind;
  struct Shape {
    unsigned banks, queue_depth;
  };
  constexpr std::array<Shape, 3> kShapes{{{2, 4}, {16, 32}, {64, 128}}};
  constexpr std::array<SchedulerKind, 5> kSchedulers{
      SchedulerKind::kFcfs, SchedulerKind::kFcfsPerBank,
      SchedulerKind::kFrFcfs, SchedulerKind::kReadFirst, SchedulerKind::kTdm};
  constexpr std::array<PagePolicy, 3> kPolicies{
      PagePolicy::kOpen, PagePolicy::kClosed, PagePolicy::kTimeout};
  // Grid order: scheduler, then page policy, then shape (one row per
  // policy: 2, 16 and 64 banks).
  constexpr std::array<std::uint64_t, 45> kExpected{{
      // fcfs: open, closed, timeout rows
      0x64caca66d9f1f06dull, 0xf512029d07dc103bull, 0xa6ac76a8d2cb72f5ull,
      0xc68b00e2a6d95830ull, 0x4110e30615f87c5dull, 0xf6e055c27e3c38ecull,
      0xca13158c2c7749c1ull, 0x7df8aee02877381dull, 0x5f09ed77df56355bull,
      // fcfs-per-bank: open, closed, timeout rows
      0x230c356c9d8246cfull, 0x375069b139c0238dull, 0x12165cb1877ced22ull,
      0x427346be10395a8ull, 0x843d9bb4eb23e44bull, 0xa352018c1a3ea424ull,
      0x4efc01923b9dd26full, 0x6c1738daf5885209ull, 0x5e7387d2a08fba11ull,
      // fr-fcfs: open, closed, timeout rows
      0xbf67443946a14b24ull, 0x3d03ae5c167f897bull, 0xa38602ad954cd042ull,
      0xeb7eb968e8c7a641ull, 0xf78f8493c41ad70full, 0xc2f2235dc76def80ull,
      0x839aacb7eaa159dbull, 0x2cc6c0dbf6d26860ull, 0x52bdea0258c8401full,
      // read-first: open, closed, timeout rows
      0xd1ba4d1e69c3232bull, 0xb548878f68ff3fd7ull, 0x8a24d686300be890ull,
      0xb8603c3949c7481full, 0x544de301dd0418e2ull, 0x4909ff9adf2b9803ull,
      0x4f7631de377ec3a3ull, 0x13093b8d63d62264ull, 0x3ab77ae240df15dcull,
      // tdm: open, closed, timeout rows
      0x34344abf52c5d6b7ull, 0x46f8e20b75f8b834ull, 0x58d69e2abd134cecull,
      0x18b4ff3b800c398aull, 0xa33f3cc48cb4e79eull, 0x5ae6f9f217ee4ddeull,
      0xaac535de3ac68a16ull, 0x7e40e7b12e9fa1a7ull, 0xb4310cf1a39ee0e5ull,
  }};
  std::size_t k = 0;
  for (const SchedulerKind sched : kSchedulers) {
    for (const PagePolicy page : kPolicies) {
      for (const Shape& shape : kShapes) {
        dram::DramConfig cfg;
        cfg.banks = shape.banks;
        cfg.rows_per_bank = 64;
        cfg.queue_depth = shape.queue_depth;
        cfg.scheduler = sched;
        cfg.page_policy = page;
        cfg.page_timeout_cycles = 24;
        cfg.tdm_slot_cycles = 16;
        cfg.timing.tFAW = 9;  // tRRD 2: the four-ACT window binds
        const auto trace = golden_traffic(cfg, 1000 + k);
        const std::uint64_t end = trace.back().cycle + 60'000;
        const std::uint64_t slow = golden_run(cfg, trace, end, true);
        const std::uint64_t fast = golden_run(cfg, trace, end, false);
        EXPECT_EQ(slow, fast) << "per-cycle vs tick_until, case " << k;
        EXPECT_EQ(slow, kExpected[k])
            << dram::to_string(sched) << " page policy "
            << static_cast<int>(page)
            << " banks " << shape.banks << " depth " << shape.queue_depth;
        ++k;
      }
    }
  }
}

// The watchdog-escalation branch: once the oldest request has been
// escalated it owns the command slot (FR-FCFS, ReadFirst), or still waits
// for its owner's slot (TDM routes escalation through the policy). A short
// age budget makes escalations frequent; the retry budget is large enough
// that none of them ever exhausts it and throws.
TEST(GoldenModel, WatchdogEscalationMatchesRecordedDigests) {
  using dram::SchedulerKind;
  struct Shape {
    unsigned banks, queue_depth;
  };
  constexpr std::array<Shape, 3> kShapes{{{2, 4}, {16, 32}, {64, 128}}};
  constexpr std::array<SchedulerKind, 3> kSchedulers{
      SchedulerKind::kFrFcfs, SchedulerKind::kReadFirst, SchedulerKind::kTdm};
  // Grid order: scheduler, then shape (one row per scheduler).
  constexpr std::array<std::uint64_t, 9> kExpected{{
      // fr-fcfs
      0x7677029ca78ae59bull, 0x7712d17989338162ull, 0x1b3817d0e10fa721ull,
      // read-first
      0x75f37306015c2078ull, 0x63f93ab7327bb64full, 0x2ed7c646409aa3c5ull,
      // tdm
      0x5056477990d38b34ull, 0x15ab935d6b741166ull, 0xf6bb484013683be5ull,
  }};
  std::size_t k = 0;
  for (const SchedulerKind sched : kSchedulers) {
    for (const Shape& shape : kShapes) {
      dram::DramConfig cfg;
      cfg.banks = shape.banks;
      cfg.rows_per_bank = 64;
      cfg.queue_depth = shape.queue_depth;
      cfg.scheduler = sched;
      cfg.tdm_slot_cycles = 16;
      cfg.timing.tFAW = 9;
      cfg.watchdog_enabled = true;
      cfg.watchdog_cycles = 40;
      cfg.watchdog_retries = 1'000'000;
      const auto trace = golden_traffic(cfg, 2000 + k);
      const std::uint64_t end = trace.back().cycle + 60'000;
      dram::ControllerStats stats;
      const std::uint64_t slow = golden_run(cfg, trace, end, true, &stats);
      const std::uint64_t fast = golden_run(cfg, trace, end, false);
      EXPECT_GT(stats.watchdog_retries, 0u) << "case " << k;
      EXPECT_EQ(slow, fast) << "per-cycle vs tick_until, case " << k;
      EXPECT_EQ(slow, kExpected[k])
          << dram::to_string(sched) << " banks " << shape.banks << " depth "
          << shape.queue_depth << " watchdog retries "
          << stats.watchdog_retries;
      ++k;
    }
  }
}

}  // namespace
}  // namespace edsim
