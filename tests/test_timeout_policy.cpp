// Timeout page policy and the watchdog.

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "dram/controller.hpp"
#include "dram/presets.hpp"
#include "dram/protocol_checker.hpp"

namespace edsim::dram {
namespace {

DramConfig timeout_cfg(unsigned timeout = 20) {
  DramConfig c = presets::sdram_pc100_4mbit();
  c.page_policy = PagePolicy::kTimeout;
  c.page_timeout_cycles = timeout;
  c.refresh_enabled = false;
  return c;
}

Request read_at(std::uint64_t addr) {
  Request r;
  r.addr = addr;
  return r;
}

TEST(TimeoutPolicy, RowStaysOpenWithinTimeout) {
  Controller ctl(timeout_cfg(50));
  ctl.enqueue(read_at(0));
  ctl.drain();
  ctl.drain_completed();
  // Re-access the same page shortly after: still a row hit.
  ctl.enqueue(read_at(32));
  ctl.drain();
  EXPECT_EQ(ctl.stats().row_hits, 1u);
}

TEST(TimeoutPolicy, RowClosedAfterTimeout) {
  Controller ctl(timeout_cfg(20));
  ctl.enqueue(read_at(0));
  ctl.drain();
  ctl.drain_completed();
  for (int i = 0; i < 100; ++i) ctl.tick();  // idle past the timeout
  // Same page again: the row was closed, so this is a miss (not a
  // conflict, and not a hit).
  ctl.enqueue(read_at(32));
  ctl.drain();
  EXPECT_EQ(ctl.stats().row_hits, 0u);
  EXPECT_EQ(ctl.stats().row_misses, 2u);
  EXPECT_EQ(ctl.stats().row_conflicts, 0u);
}

TEST(TimeoutPolicy, CloseNeverPreemptsWork) {
  // Under a saturating stream the command slots are busy; timeout closes
  // must not steal them (hits stay high).
  Controller ctl(timeout_cfg(20));
  std::uint64_t addr = 0;
  for (int i = 0; i < 20'000; ++i) {
    if (!ctl.queue_full()) {
      ctl.enqueue(read_at(addr));
      addr += ctl.config().bytes_per_access();
    }
    ctl.tick();
    ctl.drain_completed();
  }
  EXPECT_GT(ctl.stats().row_hit_rate(), 0.9);
}

TEST(TimeoutPolicy, DoesNotCloseRowsWithQueuedDemand) {
  DramConfig cfg = timeout_cfg(4);
  cfg.scheduler = SchedulerKind::kFcfs;  // head-of-line blocks the queue
  Controller ctl(cfg);
  // Two requests to one bank/row, then one to another bank that FCFS
  // blocks behind... construct: first request opens row 0; second (same
  // row) is queued but its column command must wait tRCD; the timeout is
  // tiny, but the row must not be closed because a queued request wants
  // it.
  ctl.enqueue(read_at(0));
  ctl.enqueue(read_at(64));
  ctl.drain();
  EXPECT_EQ(ctl.stats().row_conflicts, 0u);
  EXPECT_EQ(ctl.stats().row_hits, 1u);
}

TEST(TimeoutPolicy, TracesProtocolClean) {
  DramConfig cfg = timeout_cfg(16);
  Controller ctl(cfg);
  CommandLog log;
  ctl.attach_command_log(&log);
  std::uint64_t addr = 0;
  for (int i = 0; i < 30'000; ++i) {
    if (i % 50 < 3 && !ctl.queue_full()) {
      ctl.enqueue(read_at(addr));
      addr += 4096;  // new page every time
    }
    ctl.tick();
    ctl.drain_completed();
  }
  const auto violations = ProtocolChecker(cfg).verify(log);
  EXPECT_TRUE(violations.empty())
      << violations.front().describe();
}

TEST(TimeoutPolicy, Validation) {
  DramConfig c = timeout_cfg();
  c.page_timeout_cycles = 0;
  EXPECT_THROW(c.validate(), ConfigError);
}

TEST(Watchdog, ThrowsStructuredErrorWhenBudgetExhausted) {
  // A budget far below the natural service latency starves immediately:
  // after the configured retries the controller raises a typed Error
  // instead of hanging or silently dropping the request.
  DramConfig cfg = timeout_cfg();
  cfg.watchdog_enabled = true;
  cfg.watchdog_cycles = 1;
  cfg.watchdog_retries = 0;
  Controller ctl(cfg);
  ctl.enqueue(read_at(0));
  try {
    ctl.drain();
    FAIL() << "expected the watchdog to fire";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kRequestTimeout);
    EXPECT_GT(e.cycle(), 0u);
    EXPECT_NE(std::string(e.what()).find("starved"), std::string::npos);
  }
}

TEST(Watchdog, GenerousBudgetNeverFires) {
  DramConfig cfg = timeout_cfg();
  cfg.watchdog_enabled = true;
  cfg.watchdog_cycles = 10'000;
  cfg.watchdog_retries = 3;
  Controller ctl(cfg);
  std::uint64_t addr = 0;
  for (int i = 0; i < 5'000; ++i) {
    if (!ctl.queue_full()) {
      ctl.enqueue(read_at(addr));
      addr += ctl.config().bytes_per_access();
    }
    ctl.tick();
    ctl.drain_completed();
  }
  EXPECT_EQ(ctl.stats().watchdog_retries, 0u);
  EXPECT_GT(ctl.stats().reads, 0u);
}

TEST(Watchdog, RetriesEscalateBeforeFailing) {
  // Budget below the first-access latency but with retries to spare: the
  // watchdog escalates (counted) and the escalated request completes.
  DramConfig cfg = timeout_cfg();
  cfg.watchdog_enabled = true;
  cfg.watchdog_cycles = 2;
  cfg.watchdog_retries = 100;
  Controller ctl(cfg);
  ctl.enqueue(read_at(0));
  ctl.drain();
  EXPECT_GT(ctl.stats().watchdog_retries, 0u);
  EXPECT_EQ(ctl.drain_completed().size(), 1u);
}

TEST(Watchdog, Validation) {
  DramConfig cfg = timeout_cfg();
  cfg.watchdog_enabled = true;
  cfg.watchdog_cycles = 0;
  EXPECT_THROW(cfg.validate(), ConfigError);
}

}  // namespace
}  // namespace edsim::dram
