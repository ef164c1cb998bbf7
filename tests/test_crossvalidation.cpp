// Cross-validation: closed-form timing expectations vs the cycle
// simulator, across device presets, transfer rates and page policies.
// These tests are the calibration anchor — if the simulator and the
// algebra ever disagree, every experiment number is suspect.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>

#include "bist/redundancy.hpp"
#include "clients/system.hpp"
#include "cpu/memory_backend.hpp"
#include "dram/command_log.hpp"
#include "dram/controller.hpp"
#include "dram/presets.hpp"
#include "reliability/manager.hpp"
#include "scheduled_locks.hpp"

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
  // front end (set_burst_issue) on and off; the only slack is the fill edge
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

TEST_P(DeviceSweep, ActThroughputUnderBankParallelismMatchesFormula) {
  // Every access opens a row (closed page: the auto-precharge rides the
  // column command) and the stream rotates over the banks, so the channel
  // issues ACTs back to back. Their mean interval is the tightest of the
  // limits an ACT faces: tRRD between any two ACTs, tFAW per four, one
  // bank's ACT-to-ACT turn shared over the banks, and the data slot of
  // the access it opens. The turn is tRC, or ACT -> RD -> auto-PRE -> ACT
  // (tRCD + BL + tRP) when longer. Each device runs with tFAW = 0, once
  // with its own tRRD and once with a tRRD that binds, and again with a
  // tFAW that binds.
  const DeviceCase dc = devices()[GetParam()];
  const unsigned slot = dc.cfg.data_cycles_per_access();
  const std::uint64_t warm = 2'000;
  const std::uint64_t window = 40'000;
  const auto closed_form = [&](const DramConfig& cfg) {
    const auto& t = cfg.timing;
    const unsigned turn = std::max(t.tRC, t.tRCD + t.burst_length + t.tRP);
    return std::max({static_cast<double>(t.tRRD), t.tFAW / 4.0,
                     static_cast<double>(turn) / cfg.banks,
                     static_cast<double>(slot)});
  };
  for (const char* variant : {"own tRRD", "tRRD-bound", "tFAW-bound"}) {
    DramConfig cfg = dc.cfg;
    cfg.page_policy = PagePolicy::kClosed;
    const unsigned above =
        static_cast<unsigned>(std::ceil(closed_form(cfg))) + 2;
    if (variant == std::string("tRRD-bound")) cfg.timing.tRRD = above;
    if (variant == std::string("tFAW-bound")) cfg.timing.tFAW = 4 * above;
    cfg.validate();
    const double interval = closed_form(cfg);
    SCOPED_TRACE(std::string(dc.name) + " " + variant +
                 " interval=" + std::to_string(interval));

    Controller ctl(cfg);
    std::uint64_t next = 0;
    const auto run = [&](std::uint64_t cycles) {
      for (std::uint64_t i = 0; i < cycles; ++i) {
        while (!ctl.queue_full()) {
          // One row per bank: no queued request ever conflicts with an
          // open row, so the only PRE is the auto-precharge.
          Coordinates c;
          c.bank = static_cast<unsigned>(next % cfg.banks);
          Request r;
          r.addr = ctl.mapper().encode(c);
          ASSERT_TRUE(ctl.enqueue(r));
          ++next;
        }
        ctl.tick();
        ctl.drain_completed();
      }
    };
    run(warm);
    const std::uint64_t acts0 = ctl.stats().activations;
    run(window);
    const auto& st = ctl.stats();
    const double acts = static_cast<double>(st.activations - acts0);
    // One ACT per access: only rows opened but not yet read may be ahead.
    EXPECT_LE(st.reads, st.activations);
    EXPECT_LE(st.activations - st.reads, cfg.banks);
    // Fill edge: a tFAW group may straddle either end of the window, so
    // the count may be off by up to four ACTs.
    const double want = static_cast<double>(window) / interval;
    if (interval > 2.0) {
      EXPECT_NEAR(acts, want, 4.0);
    } else {
      // Two commands per access (ACT + column) fill the one-command-per-
      // cycle bus, so an ACT and a column command that fall due in the
      // same cycle push one of them back: the closed form is only a bound.
      EXPECT_LE(acts, want + 4.0);
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

TEST_P(DeviceSweep, ReadWriteTurnaroundOnOneOpenRowMatchesFormula) {
  // Two row hits on one open row, in each order, on a quiet channel. The
  // second column command waits for the bus to turn around: a read after
  // a write waits tWTR past the end of the write data, and a write after a
  // read waits until its data would start tRTW past the end of the read
  // data. Both are bounded below by tCCD.
  const DeviceCase dc = devices()[GetParam()];
  if (dc.cfg.page_policy != PagePolicy::kOpen) GTEST_SKIP();
  const auto& t = dc.cfg.timing;
  const unsigned data = dc.cfg.data_cycles_per_access();
  const unsigned burst = dc.cfg.bytes_per_access();
  ASSERT_LE(3 * burst, dc.cfg.page_bytes);
  const std::uint64_t write_to_read =
      std::max<std::uint64_t>(t.tCCD, t.tWL + data + t.tWTR);
  const std::uint64_t read_to_write =
      std::max<std::uint64_t>(t.tCCD, t.tCL + data + t.tRTW - t.tWL);
  for (const AccessType first : {AccessType::kWrite, AccessType::kRead}) {
    Controller ctl(dc.cfg);
    CommandLog log;
    ctl.attach_command_log(&log);
    Request warm;
    warm.addr = 0;
    ASSERT_TRUE(ctl.enqueue(warm));
    ctl.drain();
    // Let the warm-up read's bus occupancy and turnaround expire.
    ctl.tick_until(ctl.cycle() + 1'000);
    log.clear();
    for (const AccessType type :
         {first, first == AccessType::kRead ? AccessType::kWrite
                                            : AccessType::kRead}) {
      Request r;
      r.type = type;
      r.addr = (type == first ? 1 : 2) * std::uint64_t{burst};  // same row
      ASSERT_TRUE(ctl.enqueue(r));
    }
    ctl.drain();
    const auto& recs = log.records();
    ASSERT_EQ(recs.size(), 2u) << dc.name;  // two column commands, no ACT
    const Command want_first =
        first == AccessType::kRead ? Command::kRead : Command::kWrite;
    EXPECT_EQ(recs[0].cmd, want_first) << dc.name;
    EXPECT_EQ(recs[1].cycle - recs[0].cycle,
              first == AccessType::kWrite ? write_to_read : read_to_write)
        << dc.name << (first == AccessType::kWrite ? " WR->RD" : " RD->WR");
  }
}

TEST_P(DeviceSweep, PeakBandwidthAlgebra) {
  const DeviceCase dc = devices()[GetParam()];
  const double by_hand = static_cast<double>(dc.cfg.interface_bits) *
                         dc.cfg.clock.hz() * dc.cfg.transfers_per_clock;
  EXPECT_NEAR(dc.cfg.peak_bandwidth().bits_per_s, by_hand, 1.0) << dc.name;
}

TEST_P(DeviceSweep, PowerDownResidencyMatchesIdleGaps) {
  // One read every `period` cycles to a powered-down channel. The read
  // waits tXP for the wake, then pays the row-miss ladder, so its latency
  // is tXP + tRCD + CL + data. The idle streak starts the cycle after it
  // retires; after powerdown_idle_cycles more, the entry tick closes the
  // open row (open page), and the channel is powered down from the next
  // cycle until the following arrival wakes it. With closed page the
  // auto-precharge has already closed the row and entry is that tick. A
  // maintenance lock that lands inside the streak defers entry to the
  // cycle the lock ends. The mean residency per gap must match to within
  // half a cycle, so an entry one cycle late fails.
  const DeviceCase dc = devices()[GetParam()];
  const auto& t = dc.cfg.timing;
  const std::uint64_t period = 400;
  const std::uint64_t gaps = 40;
  const std::uint64_t first = 200;  // powered down since cycle 32
  const std::uint64_t latency =
      dc.cfg.tXP + t.tRCD + t.tCL + dc.cfg.data_cycles_per_access();
  const unsigned lock = 100;
  for (const char* variant : {"open page", "closed page", "lock in gap"}) {
    DramConfig cfg = dc.cfg;
    cfg.powerdown_enabled = true;
    cfg.powerdown_idle_cycles = 32;
    cfg.page_policy = variant == std::string("open page") ? PagePolicy::kOpen
                                                          : PagePolicy::kClosed;
    const std::uint64_t streak = latency + 1 + cfg.powerdown_idle_cycles;
    // The op falls due halfway through the streak, on an idle bank.
    const std::uint64_t due = latency + 1 + cfg.powerdown_idle_cycles / 2;
    std::uint64_t expected = period - streak;
    if (variant == std::string("open page")) expected -= 1;  // closing PRE
    if (variant == std::string("lock in gap")) expected = period - due - lock;
    SCOPED_TRACE(std::string(dc.name) + " " + variant +
                 " expected=" + std::to_string(expected));

    std::vector<std::uint64_t> dues;
    for (std::uint64_t k = 0; k < gaps; ++k) {
      dues.push_back(first + k * period + due);
    }
    test::ScheduledLocks hooks(dues, lock);
    Controller ctl(cfg);
    if (variant == std::string("lock in gap")) ctl.attach_reliability(&hooks);
    ctl.tick_until(first);
    EXPECT_EQ(ctl.stats().powerdown_cycles, first - cfg.powerdown_idle_cycles);
    std::uint64_t residency = 0;
    for (std::uint64_t k = 0; k < gaps; ++k) {
      const std::uint64_t pd0 = ctl.stats().powerdown_cycles;
      Request r;
      r.addr = 0;
      ASSERT_TRUE(ctl.enqueue(r));
      ctl.tick_until(first + (k + 1) * period);
      const auto done = ctl.drain_completed();
      ASSERT_EQ(done.size(), 1u);
      EXPECT_EQ(done[0].latency(), latency) << "gap " << k;
      residency += ctl.stats().powerdown_cycles - pd0;
    }
    if (variant == std::string("lock in gap")) {
      ASSERT_EQ(ctl.stats().maintenance_ops, gaps);
    }
    EXPECT_NEAR(static_cast<double>(residency) / static_cast<double>(gaps),
                static_cast<double>(expected), 0.5);
  }
}

TEST_P(DeviceSweep, MaintenanceDutyOnIdleChannelMatchesFormula) {
  // Self-managed maintenance on an idle channel: bin i sweeps its rows_i
  // rows once per window_i = base_window_cycles << i, in
  // ceil(rows_i / rows_per_op) ops that each lock the bank for
  // rows_per_op x op_cycles_per_row cycles (the sweep pointer wraps, so a
  // partial last op still takes rows_per_op rows). The lock cycles per
  // bank per top-bin window W are therefore
  //   sum_i ceil(rows_i / rows_per_op) x rows_per_op x op_cycles_per_row
  //         x W / window_i.
  // A quarter of every bank's rows (every fourth row) holds one weak cell
  // whose retention puts it in bin 1; the variant shortens that retention
  // so the same rows land in bin 0. base is a multiple of every bin's op
  // count, so each op cadence divides its window, and the schedule repeats
  // every W: any W-long stretch after the first window holds exactly one
  // window's locks, wherever a claim waited on another bin's lock.
  const DeviceCase dc = devices()[GetParam()];
  const DramConfig& cfg = dc.cfg;
  const unsigned rows = cfg.rows_per_bank;
  const unsigned weak_rows = rows / 4;
  const unsigned rows_per_op = 8;
  const unsigned op_cycles = cfg.timing.tRC;
  const std::uint64_t base = 6ull * rows * op_cycles;
  const unsigned bins = 3;
  const std::uint64_t top_window = base << (bins - 1);
  ASSERT_EQ(rows % (4 * rows_per_op), 0u) << dc.name;  // whole op counts

  for (const unsigned weak_bin : {1u, 0u}) {
    SCOPED_TRACE(std::string(dc.name) + " weak rows in bin " +
                 std::to_string(weak_bin));
    reliability::ReliabilityConfig rc;  // no injected faults by default
    rc.scrub_enabled = false;
    rc.remap_enabled = false;
    rc.retire_enabled = false;
    rc.maintenance.enabled = true;
    rc.maintenance.bins = bins;
    rc.maintenance.base_window_cycles = base;
    rc.maintenance.rows_per_op = rows_per_op;
    rc.maintenance.op_cycles_per_row = op_cycles;
    reliability::ReliabilityManager mgr(cfg, rc);
    // Retention 4 x base bins a row into bin 1 (2 x base <= 80% of it <
    // 4 x base); 2 x base bins it into bin 0. Either way the row's sweep
    // comes round before its cells decay.
    const double retention = static_cast<double>(weak_bin == 1 ? 4 * base
                                                               : 2 * base);
    bist::FailBitmap weak;
    for (unsigned r = 0; r < rows; r += 4) weak.fails.push_back({r, 0});
    for (unsigned b = 0; b < cfg.banks; ++b) {
      mgr.import_fault_map(weak, b,
                           retention / mgr.injector().retention_cycles());
    }

    std::uint64_t expected = 0;
    for (unsigned i = 0; i < bins; ++i) {
      const std::uint64_t rows_i = i == weak_bin      ? weak_rows
                                   : i == bins - 1 ? rows - weak_rows
                                                   : 0;
      const std::uint64_t ops = (rows_i + rows_per_op - 1) / rows_per_op;
      expected += ops * rows_per_op * op_cycles * (top_window / (base << i));
    }

    Controller ctl(cfg);
    CommandLog log;
    ctl.attach_command_log(&log);
    ctl.attach_reliability(&mgr);
    ctl.tick_until(2 * top_window);
    std::vector<std::uint64_t> locked(cfg.banks, 0);
    for (const CommandRecord& r : log.records()) {
      if (r.cmd == Command::kMaintStart && r.cycle >= top_window) {
        locked[r.bank] += r.row;  // kMaintStart carries the lock duration
      }
    }
    for (unsigned b = 0; b < cfg.banks; ++b) {
      EXPECT_EQ(locked[b], expected) << "bank " << b;
    }
  }
}

TEST_P(DeviceSweep, SingleAggressorNeighborRefreshEveryThresholdActs) {
  // RowHammer defense cadence. One aggressor row is activated N times,
  // each ACT a closed-page read followed by an idle gap. The tracker's
  // Misra-Gries estimate never undercounts a row, and with one row in the
  // table it is exact, so the aggressor's estimate reaches the threshold T
  // at ACTs T, 2T, 3T, ... (each neighbor refresh drops it back to 0).
  // The queued refresh is urgent and claims the next idle slot, so the
  // k-th refresh lands inside the defense interval after ACT kT: after
  // that ACT, before ACT kT + 1. N ACTs buy floor(N / T) refreshes, each
  // restoring both neighbor rows.
  const DeviceCase dc = devices()[GetParam()];
  SCOPED_TRACE(dc.name);
  DramConfig cfg = dc.cfg;
  cfg.page_policy = PagePolicy::kClosed;  // every read is its own ACT
  const unsigned threshold = 16;
  const unsigned acts = 10 * threshold + threshold / 2;
  const unsigned bank = 0;
  const unsigned row = cfg.rows_per_bank / 2;

  reliability::ReliabilityConfig rc;  // no injected faults by default
  rc.scrub_enabled = false;
  rc.remap_enabled = false;
  rc.retire_enabled = false;
  rc.maintenance.enabled = true;
  rc.maintenance.base_window_cycles = 1ull << 40;  // no bin sweep in frame
  rc.maintenance.hammer_threshold = threshold;
  rc.maintenance.hammer_reset_window = 1ull << 40;  // one tracker epoch
  reliability::ReliabilityManager mgr(cfg, rc);
  Controller ctl(cfg);
  CommandLog log;
  ctl.attach_command_log(&log);
  ctl.attach_reliability(&mgr);

  // One access, its auto-precharge and a two-row neighbor lock fit in
  // the gap with room to spare.
  const std::uint64_t gap = 8ull * cfg.timing.tRC;
  Request r;
  r.addr = ctl.mapper().encode(Coordinates{bank, row, 0});
  for (unsigned i = 0; i < acts; ++i) {
    ASSERT_TRUE(ctl.enqueue(r));
    ctl.tick_until(ctl.cycle() + gap);
    ctl.drain_completed();
  }

  std::vector<std::uint64_t> act_cycles;
  for (const CommandRecord& rec : log.records()) {
    if (rec.cmd != Command::kActivate) continue;
    ASSERT_EQ(rec.bank, bank);
    ASSERT_EQ(rec.row, row);
    act_cycles.push_back(rec.cycle);
  }
  ASSERT_EQ(act_cycles.size(), acts);
  // One claim refreshes both neighbors on one cycle. (The bin sweeps each
  // bank starts with are not neighbor refreshes.)
  std::vector<std::uint64_t> refresh_cycles;
  for (const reliability::ReliabilityEvent& e : mgr.event_log()) {
    if (e.kind != reliability::EventKind::kNeighborRefresh) continue;
    ASSERT_EQ(e.bank, bank);
    ASSERT_TRUE(e.row == row - 1 || e.row == row + 1) << e.row;
    if (refresh_cycles.empty() || refresh_cycles.back() != e.cycle) {
      refresh_cycles.push_back(e.cycle);
    }
  }
  ASSERT_EQ(refresh_cycles.size(), acts / threshold);
  for (std::size_t k = 0; k < refresh_cycles.size(); ++k) {
    const auto acts_before = std::upper_bound(act_cycles.begin(),
                                              act_cycles.end(),
                                              refresh_cycles[k]) -
                             act_cycles.begin();
    EXPECT_EQ(static_cast<std::size_t>(acts_before), (k + 1) * threshold)
        << "refresh " << k;
  }
  EXPECT_EQ(mgr.counters().neighbor_rows, 2u * (acts / threshold));
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

TEST(CrossValidation, RefreshTaxMatchesPerRefreshGap) {
  // A saturated single-row read streak with refresh on: each REF closes
  // the row and stalls the column stream. Between the last read before
  // the refresh and the first one after it the channel spends the read's
  // precharge wait (BL cycles, one column slot on SDR), tRP, tRFC and
  // tRCD, where the streak would have spent one column slot. So the
  // accesses lost per refresh are (BL - slot + tRP + tRFC + tRCD) / slot,
  // against the same streak with refresh off. Over N refreshes the loss
  // may miss N times that by one access: the one the window's end cuts.
  for (const DeviceCase& dc : devices()) {
    const auto& t = dc.cfg.timing;
    const unsigned slot = std::max(t.tCCD, dc.cfg.data_cycles_per_access());
    const std::uint64_t refreshes = 20;
    // Half an interval past the last refresh, so every stall is whole.
    const std::uint64_t window = refreshes * t.tREFI + t.tREFI / 2;
    std::uint64_t reads[2] = {0, 0};
    std::uint64_t refs = 0;
    for (const bool refresh : {false, true}) {
      DramConfig cfg = dc.cfg;
      cfg.refresh_enabled = refresh;
      clients::MemorySystem sys(cfg, clients::ArbiterKind::kRoundRobin);
      clients::StreamClient::Params p;
      p.length = cfg.page_bytes;  // wraps inside one row
      p.burst_bytes = cfg.bytes_per_access();
      p.period_cycles = 0;  // endless 100%-duty demand
      sys.add_client(std::make_unique<clients::StreamClient>(0, "duty", p));
      sys.run(window);
      reads[refresh] = sys.controller().stats().reads;
      if (refresh) refs = sys.controller().stats().refreshes;
    }
    SCOPED_TRACE(dc.name);
    ASSERT_EQ(refs, refreshes);
    const double gap =
        static_cast<double>(t.burst_length - slot + t.tRP + t.tRFC + t.tRCD) /
        slot;
    const double lost = static_cast<double>(reads[0] - reads[1]);
    EXPECT_NEAR(lost, static_cast<double>(refs) * gap, 1.0)
        << "lost per refresh " << lost / static_cast<double>(refs)
        << ", closed form " << gap;
  }
}

// The §4.2 backends' idle-latency probe: a line of n = ceil(line / burst
// bytes) reads to one closed row costs ACT-to-column, CAS latency, n - 1
// column slots and the last burst's data, plus the path overhead.
TEST(MemoryBackend, ProbeLatencyMatchesDatasheetClosedForm) {
  for (const cpu::MemoryBackend::Params& p :
       {cpu::off_chip_backend_params(), cpu::merged_edram_backend_params()}) {
    const DramConfig& cfg = p.dram;
    const TimingParams& t = cfg.timing;
    const unsigned d = cfg.data_cycles_per_access();
    for (const unsigned line : {32u, 64u, 128u, 256u}) {
      SCOPED_TRACE(p.name + ", " + std::to_string(line) + " B line");
      const unsigned n =
          (line + cfg.bytes_per_access() - 1) / cfg.bytes_per_access();
      const unsigned cycles =
          t.tRCD + t.tCL + (n - 1) * std::max(t.tCCD, d) + d;
      cpu::MemoryBackend backend(p);
      EXPECT_DOUBLE_EQ(backend.probe_latency_ns(line),
                       cycles * cfg.clock.period_ns() + p.fixed_overhead_ns);
    }
  }
}

}  // namespace
}  // namespace edsim::dram
