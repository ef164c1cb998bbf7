// Event-driven fast-forward equivalence: tick_until / advance_idle /
// MemorySystem's front-end stretch must be bit-identical to per-cycle ticking — same
// ControllerStats, same completion times, byte-identical reliability
// event log — and the parallel experiment harness must produce the same
// bits at every thread count.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bist/yield.hpp"
#include "clients/client.hpp"
#include "clients/extra_clients.hpp"
#include "clients/system.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "core/evaluator.hpp"
#include "core/pareto.hpp"
#include "dram/controller.hpp"
#include "dram/presets.hpp"
#include "mpeg/decoder_model.hpp"
#include "mpeg/trace_gen.hpp"
#include "reliability/manager.hpp"
#include "scheduled_locks.hpp"

namespace edsim {
namespace {

using dram::Controller;
using dram::ControllerStats;
using dram::DramConfig;
using dram::Request;

// ---------------------------------------------------------------------------
// Comparison helpers. EXPECT_EQ on doubles is exact (operator==), which is
// the point: fast-forward promises the same bits, not "close enough".

void expect_acc_eq(const Accumulator& a, const Accumulator& b,
                   const char* what) {
  EXPECT_EQ(a.count(), b.count()) << what;
  EXPECT_EQ(a.sum(), b.sum()) << what;
  EXPECT_EQ(a.mean(), b.mean()) << what;
  EXPECT_EQ(a.min(), b.min()) << what;
  EXPECT_EQ(a.max(), b.max()) << what;
  EXPECT_EQ(a.variance(), b.variance()) << what;
}

void expect_stats_eq(const ControllerStats& a, const ControllerStats& b) {
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.reads, b.reads);
  EXPECT_EQ(a.writes, b.writes);
  EXPECT_EQ(a.row_hits, b.row_hits);
  EXPECT_EQ(a.row_misses, b.row_misses);
  EXPECT_EQ(a.row_conflicts, b.row_conflicts);
  EXPECT_EQ(a.activations, b.activations);
  EXPECT_EQ(a.precharges, b.precharges);
  EXPECT_EQ(a.refreshes, b.refreshes);
  EXPECT_EQ(a.data_bus_busy_cycles, b.data_bus_busy_cycles);
  EXPECT_EQ(a.bytes_transferred, b.bytes_transferred);
  EXPECT_EQ(a.powerdown_cycles, b.powerdown_cycles);
  EXPECT_EQ(a.redirected_requests, b.redirected_requests);
  EXPECT_EQ(a.watchdog_retries, b.watchdog_retries);
  EXPECT_EQ(a.reliability.injected, b.reliability.injected);
  EXPECT_EQ(a.reliability.corrected, b.reliability.corrected);
  EXPECT_EQ(a.reliability.uncorrected, b.reliability.uncorrected);
  EXPECT_EQ(a.reliability.remapped, b.reliability.remapped);
  EXPECT_EQ(a.reliability.scrubbed_rows, b.reliability.scrubbed_rows);
  expect_acc_eq(a.read_latency, b.read_latency, "read_latency");
  expect_acc_eq(a.write_latency, b.write_latency, "write_latency");
  expect_acc_eq(a.queue_occupancy, b.queue_occupancy, "queue_occupancy");
}

void expect_client_stats_eq(const clients::ClientStats& a,
                            const clients::ClientStats& b, std::size_t i) {
  EXPECT_EQ(a.issued, b.issued) << "client " << i;
  EXPECT_EQ(a.completed, b.completed) << "client " << i;
  EXPECT_EQ(a.bytes, b.bytes) << "client " << i;
  EXPECT_EQ(a.stall_cycles, b.stall_cycles) << "client " << i;
  EXPECT_EQ(a.corrected_errors, b.corrected_errors) << "client " << i;
  EXPECT_EQ(a.data_errors, b.data_errors) << "client " << i;
  expect_acc_eq(a.latency, b.latency, "client latency");
  expect_acc_eq(a.outstanding, b.outstanding, "client outstanding");
  EXPECT_EQ(a.latency_samples.count(), b.latency_samples.count());
}

// ---------------------------------------------------------------------------
// Controller-level equivalence: drive two identical controllers with the
// same arrival trace — one per-cycle, one through tick_until — and demand
// identical stats and identical completion records.

struct Arrival {
  std::uint64_t cycle = 0;
  std::uint64_t addr = 0;
  dram::AccessType type = dram::AccessType::kRead;
};

struct Completion {
  std::uint64_t addr = 0;
  std::uint64_t arrival = 0;
  std::uint64_t done = 0;

  bool operator==(const Completion&) const = default;
};

/// Bursts of back-to-back requests separated by long idle gaps — the
/// portable-player shape where fast-forward matters most.
std::vector<Arrival> bursty_trace(const DramConfig& cfg,
                                  std::uint64_t bursts,
                                  std::uint64_t gap_cycles) {
  std::vector<Arrival> out;
  Rng rng(99);
  std::uint64_t cycle = 5;
  const std::uint64_t span = cfg.capacity().byte_count();
  for (std::uint64_t b = 0; b < bursts; ++b) {
    for (int i = 0; i < 6; ++i) {
      Arrival a;
      a.cycle = cycle;
      a.addr = rng.next_below(span) & ~31ull;
      a.type = (i % 3 == 0) ? dram::AccessType::kWrite
                            : dram::AccessType::kRead;
      out.push_back(a);
      cycle += 2;
    }
    cycle += gap_cycles;
  }
  return out;
}

std::vector<Completion> drain_into(Controller& ctl,
                                   std::vector<Completion>& sink) {
  for (const Request& r : ctl.drain_completed()) {
    sink.push_back({r.addr, r.arrival_cycle, r.done_cycle});
  }
  return sink;
}

std::vector<Completion> run_per_cycle(Controller& ctl,
                                      const std::vector<Arrival>& trace,
                                      std::uint64_t end) {
  std::vector<Completion> done;
  std::size_t idx = 0;
  while (ctl.cycle() < end) {
    while (idx < trace.size() && trace[idx].cycle == ctl.cycle()) {
      Request r;
      r.addr = trace[idx].addr;
      r.type = trace[idx].type;
      EXPECT_TRUE(ctl.enqueue(r));
      ++idx;
    }
    ctl.tick();
    drain_into(ctl, done);
  }
  return done;
}

std::vector<Completion> run_fast(Controller& ctl,
                                 const std::vector<Arrival>& trace,
                                 std::uint64_t end) {
  std::vector<Completion> done;
  std::size_t idx = 0;
  while (true) {
    while (idx < trace.size() && trace[idx].cycle == ctl.cycle()) {
      Request r;
      r.addr = trace[idx].addr;
      r.type = trace[idx].type;
      EXPECT_TRUE(ctl.enqueue(r));
      ++idx;
    }
    if (ctl.cycle() >= end) break;
    const std::uint64_t next =
        idx < trace.size() ? trace[idx].cycle : end;
    ctl.tick_until(std::min(next, end));
    drain_into(ctl, done);
  }
  return done;
}

void expect_equivalent(const DramConfig& cfg, std::uint64_t gap_cycles,
                       std::uint64_t end) {
  const std::vector<Arrival> trace = bursty_trace(cfg, 10, gap_cycles);
  Controller slow(cfg);
  Controller fast(cfg);
  const auto slow_done = run_per_cycle(slow, trace, end);
  const auto fast_done = run_fast(fast, trace, end);
  EXPECT_EQ(slow.cycle(), fast.cycle());
  EXPECT_EQ(slow_done, fast_done);
  expect_stats_eq(slow.stats(), fast.stats());
}

TEST(FastForward, MatchesPerCycleOpenPageEdram) {
  expect_equivalent(dram::presets::edram_module(16, 128, 4, 2048), 900,
                    20'000);
}

TEST(FastForward, MatchesPerCycleSdramWithPageTimeout) {
  DramConfig cfg = dram::presets::sdram_pc100_4mbit();
  cfg.page_policy = dram::PagePolicy::kTimeout;
  cfg.page_timeout_cycles = 40;
  expect_equivalent(cfg, 700, 20'000);
}

TEST(FastForward, MatchesPerCycleClosedPageWithWatchdog) {
  DramConfig cfg = dram::presets::edram_module(16, 64, 4, 2048);
  cfg.page_policy = dram::PagePolicy::kClosed;
  cfg.watchdog_enabled = true;
  cfg.watchdog_cycles = 500;
  expect_equivalent(cfg, 1'200, 25'000);
}

TEST(FastForward, MatchesPerCyclePowerDown) {
  DramConfig cfg = dram::presets::edram_module(16, 64, 4, 2048);
  cfg.powerdown_enabled = true;
  cfg.powerdown_idle_cycles = 16;
  cfg.tXP = 3;
  expect_equivalent(cfg, 2'000, 40'000);
  // The gap is long enough that the fast path must cross power-down entry
  // and wake boundaries, and most of the window is idle.
  Controller probe(cfg);
  run_fast(probe, bursty_trace(cfg, 10, 2'000), 40'000);
  EXPECT_GT(probe.stats().powerdown_cycles, 10'000u);
}

TEST(FastForward, MatchesPerCycleWithRefreshDisabled) {
  DramConfig cfg = dram::presets::edram_module(16, 128, 4, 2048);
  cfg.refresh_enabled = false;
  expect_equivalent(cfg, 1'500, 30'000);
}

// ---------------------------------------------------------------------------
// Reliability equivalence: with fault injection, ECC and patrol scrub
// attached, the event log — the layer's reproducibility artifact — must be
// byte-identical between the two drive modes.

reliability::ReliabilityConfig transient_config() {
  reliability::ReliabilityConfig rc;
  rc.inject.seed = 77;
  rc.inject.transient_per_mbit_ms = 40.0;
  rc.inject.weak_cells = 8;
  rc.scrub_enabled = true;
  return rc;
}

TEST(FastForward, ReliabilityEventLogByteIdentical) {
  DramConfig cfg = dram::presets::edram_module(16, 128, 4, 2048);
  cfg.ecc_enabled = true;
  const std::vector<Arrival> trace = bursty_trace(cfg, 12, 1'000);
  const std::uint64_t end = 30'000;

  Controller slow(cfg);
  reliability::ReliabilityManager slow_rel(cfg, transient_config());
  slow.attach_reliability(&slow_rel);

  Controller fast(cfg);
  reliability::ReliabilityManager fast_rel(cfg, transient_config());
  fast.attach_reliability(&fast_rel);

  const auto slow_done = run_per_cycle(slow, trace, end);
  const auto fast_done = run_fast(fast, trace, end);

  EXPECT_EQ(slow_done, fast_done);
  expect_stats_eq(slow.stats(), fast.stats());
  ASSERT_GT(slow_rel.event_log().size(), 0u)
      << "config must actually inject faults for this test to bite";
  EXPECT_EQ(slow_rel.event_log(), fast_rel.event_log());
  EXPECT_EQ(slow_rel.live_faults(), fast_rel.live_faults());
}

TEST(FastForward, ReliabilityWithPowerDownStillIdentical) {
  DramConfig cfg = dram::presets::edram_module(16, 64, 4, 2048);
  cfg.ecc_enabled = true;
  cfg.powerdown_enabled = true;
  cfg.powerdown_idle_cycles = 24;
  cfg.tXP = 3;
  const std::vector<Arrival> trace = bursty_trace(cfg, 8, 2'500);
  const std::uint64_t end = 35'000;

  Controller slow(cfg);
  reliability::ReliabilityManager slow_rel(cfg, transient_config());
  slow.attach_reliability(&slow_rel);
  Controller fast(cfg);
  reliability::ReliabilityManager fast_rel(cfg, transient_config());
  fast.attach_reliability(&fast_rel);

  const auto slow_done = run_per_cycle(slow, trace, end);
  const auto fast_done = run_fast(fast, trace, end);
  EXPECT_EQ(slow_done, fast_done);
  expect_stats_eq(slow.stats(), fast.stats());
  EXPECT_EQ(slow_rel.event_log(), fast_rel.event_log());
}

// ---------------------------------------------------------------------------
// Fast-forward regressions for the awkward cases — arrivals landing
// inside a stretch the fast path would otherwise skip, and reliability
// events (row remap, bank retire) mutating bank state behind the
// scheduler's back. Reference is always the per-cycle walk.

/// Arrivals clustered around every refresh deadline (one just before, one
/// at, one just after) — the cycles where a stale next-event bound or a
/// missed wake-up would first diverge. Rows alternate to keep ACT/PRE
/// traffic in the mix.
std::vector<Arrival> boundary_probe_trace(const DramConfig& cfg,
                                          std::uint64_t end) {
  std::vector<Arrival> out;
  const std::uint64_t refi = cfg.timing.tREFI;
  const std::uint64_t span = cfg.capacity().byte_count();
  std::uint64_t n = 0;
  for (std::uint64_t c = refi; c + 2 < end; c += refi) {
    for (const std::uint64_t cycle : {c - 1, c, c + 1}) {
      Arrival a;
      a.cycle = cycle;
      a.addr = (n * 3 * cfg.page_bytes + (n % 2) * 64) % span & ~31ull;
      a.type = (n % 4 == 0) ? dram::AccessType::kWrite
                            : dram::AccessType::kRead;
      out.push_back(a);
      ++n;
    }
  }
  return out;
}

TEST(FastForwardRegression, ArrivalsInsideSkippedStretch) {
  // Power-down plus timeout close: between arrival clusters the controller
  // enters power-down and (in per-cycle mode) walks timeout closes, so the
  // fast path must wake in time for requests that land right after a long
  // bulk advance.
  DramConfig cfg = dram::presets::edram_module(16, 64, 4, 2048);
  cfg.page_policy = dram::PagePolicy::kTimeout;
  cfg.page_timeout_cycles = 24;
  cfg.powerdown_enabled = true;
  cfg.powerdown_idle_cycles = 16;
  cfg.tXP = 3;
  const std::uint64_t end = 30'000;
  const std::vector<Arrival> trace = boundary_probe_trace(cfg, end);
  ASSERT_GT(trace.size(), 10u);

  Controller reference(cfg);
  Controller fast(cfg);
  const auto ref_done = run_per_cycle(reference, trace, end);
  const auto fast_done = run_fast(fast, trace, end);

  EXPECT_EQ(ref_done, fast_done);
  expect_stats_eq(reference.stats(), fast.stats());
  // Sanity: the stretches really were skipped-over power-down territory.
  EXPECT_GT(fast.stats().powerdown_cycles, 1'000u);
}

/// kBankRowCol keeps a linear address stream inside one bank, so row r of
/// bank 0 lives at r * page_bytes — lets the tests plant faults under a
/// known traffic pattern.
std::vector<Arrival> bank0_row_sweep(const DramConfig& cfg,
                                     unsigned rows, unsigned passes) {
  std::vector<Arrival> out;
  std::uint64_t cycle = 5;
  for (unsigned p = 0; p < passes; ++p) {
    for (unsigned r = 0; r < rows; ++r) {
      Arrival a;
      a.cycle = cycle;
      a.addr = static_cast<std::uint64_t>(r) * cfg.page_bytes;
      out.push_back(a);
      cycle += 3;
    }
    cycle += 400;
  }
  return out;
}

/// Deterministic reliability layer: no random injection, faults only where
/// the test plants them.
reliability::ReliabilityConfig quiet_reliability(unsigned spares) {
  reliability::ReliabilityConfig rc;
  rc.inject.seed = 1;
  rc.inject.transient_per_mbit_ms = 0.0;
  rc.inject.weak_cells = 0;
  rc.spare_rows_per_bank = spares;
  return rc;
}

TEST(FastForwardRegression, RowRemapInvalidatesCachedCandidate) {
  DramConfig cfg = dram::presets::edram_module(16, 64, 4, 2048);
  cfg.ecc_enabled = true;
  cfg.mapping = dram::AddressMapping::kBankRowCol;
  const std::uint64_t end = 25'000;
  const std::vector<Arrival> trace = bank0_row_sweep(cfg, 4, 8);

  // Two fault bits in the same ECC word of bank 0 row 0: the first access
  // sees a DED (uncorrectable) and the ladder remaps the row onto a spare
  // while later requests to the same bank sit in the queue.
  const auto plant = [](reliability::ReliabilityManager& rel) {
    rel.inject_fault(0, 0, 3, 0);
    rel.inject_fault(0, 0, 5, 0);
  };

  Controller reference(cfg);
  reliability::ReliabilityManager ref_rel(cfg, quiet_reliability(4));
  plant(ref_rel);
  reference.attach_reliability(&ref_rel);

  Controller fast(cfg);
  reliability::ReliabilityManager fast_rel(cfg, quiet_reliability(4));
  plant(fast_rel);
  fast.attach_reliability(&fast_rel);

  const auto ref_done = run_per_cycle(reference, trace, end);
  const auto fast_done = run_fast(fast, trace, end);

  ASSERT_GT(ref_rel.counters().rows_remapped, 0u)
      << "the planted double-bit fault must actually trigger a remap";
  EXPECT_EQ(ref_done, fast_done);
  expect_stats_eq(reference.stats(), fast.stats());
  EXPECT_EQ(ref_rel.event_log(), fast_rel.event_log());
}

TEST(FastForwardRegression, BankRetireMidBurst) {
  DramConfig cfg = dram::presets::edram_module(16, 64, 4, 2048);
  cfg.ecc_enabled = true;
  cfg.mapping = dram::AddressMapping::kBankRowCol;
  const std::uint64_t end = 25'000;
  const std::vector<Arrival> trace = bank0_row_sweep(cfg, 4, 8);

  // One spare row and double-bit faults in two rows: the first
  // uncorrectable consumes the spare, the second retires bank 0 while the
  // sweep still has requests queued for it — enqueue-time redirection and
  // the scheduler's per-bank view must both follow.
  const auto plant = [](reliability::ReliabilityManager& rel) {
    rel.inject_fault(0, 0, 3, 0);
    rel.inject_fault(0, 0, 5, 0);
    rel.inject_fault(0, 1, 9, 0);
    rel.inject_fault(0, 1, 11, 0);
  };

  Controller reference(cfg);
  reliability::ReliabilityManager ref_rel(cfg, quiet_reliability(1));
  plant(ref_rel);
  reference.attach_reliability(&ref_rel);

  Controller fast(cfg);
  reliability::ReliabilityManager fast_rel(cfg, quiet_reliability(1));
  plant(fast_rel);
  fast.attach_reliability(&fast_rel);

  const auto ref_done = run_per_cycle(reference, trace, end);
  const auto fast_done = run_fast(fast, trace, end);

  ASSERT_TRUE(ref_rel.bank_retired(0))
      << "the planted faults must actually retire bank 0";
  EXPECT_GT(reference.stats().redirected_requests, 0u);
  EXPECT_EQ(ref_done, fast_done);
  expect_stats_eq(reference.stats(), fast.stats());
  EXPECT_EQ(ref_rel.event_log(), fast_rel.event_log());
}

// ---------------------------------------------------------------------------
// System-level equivalence: MemorySystem with the fast path on vs off (per-cycle stepping), identical clients.

std::unique_ptr<clients::Client> paced_stream(unsigned id,
                                              const DramConfig& cfg,
                                              unsigned period,
                                              std::uint64_t total) {
  clients::StreamClient::Params p;
  p.base = 0;
  p.length = 1 << 20;
  p.burst_bytes = cfg.bytes_per_access();
  p.period_cycles = period;
  p.total_requests = total;
  return std::make_unique<clients::StreamClient>(id, "stream", p);
}

std::unique_ptr<clients::Client> paced_random(unsigned id,
                                              const DramConfig& cfg,
                                              unsigned period,
                                              std::uint64_t total) {
  clients::RandomClient::Params p;
  p.base = 1 << 20;
  p.length = 1 << 20;
  p.burst_bytes = cfg.bytes_per_access();
  p.period_cycles = period;
  p.total_requests = total;
  p.seed = 5;
  return std::make_unique<clients::RandomClient>(id, "rand", p);
}

void fill_system(clients::MemorySystem& sys, const DramConfig& cfg) {
  sys.add_client(paced_stream(0, cfg, 400, 60));
  sys.add_client(paced_random(1, cfg, 650, 40));
}

TEST(FastForward, MemorySystemRunMatchesPerCycle) {
  DramConfig cfg = dram::presets::edram_module(16, 64, 4, 2048);
  cfg.powerdown_enabled = true;
  cfg.powerdown_idle_cycles = 16;
  cfg.tXP = 3;

  clients::MemorySystem slow(cfg, clients::ArbiterKind::kRoundRobin);
  slow.set_fast_forward(false);
  fill_system(slow, cfg);
  clients::MemorySystem fast(cfg, clients::ArbiterKind::kRoundRobin);
  fill_system(fast, cfg);

  slow.run(60'000);
  fast.run(60'000);

  EXPECT_EQ(slow.controller().cycle(), fast.controller().cycle());
  expect_stats_eq(slow.controller().stats(), fast.controller().stats());
  for (std::size_t i = 0; i < slow.client_count(); ++i) {
    expect_client_stats_eq(slow.client_stats(i), fast.client_stats(i), i);
    EXPECT_EQ(slow.fifo(i).required_depth_bytes(),
              fast.fifo(i).required_depth_bytes());
    expect_acc_eq(slow.fifo(i).occupancy(), fast.fifo(i).occupancy(),
                  "fifo occupancy");
  }
  // Sanity: the window really was idle-dominated (skipping had work to do).
  EXPECT_GT(fast.controller().stats().powerdown_cycles, 20'000u);
}

TEST(FastForward, MemorySystemRunToCompletionMatchesPerCycle) {
  DramConfig cfg = dram::presets::edram_module(16, 64, 4, 2048);
  clients::MemorySystem slow(cfg, clients::ArbiterKind::kRoundRobin);
  slow.set_fast_forward(false);
  fill_system(slow, cfg);
  clients::MemorySystem fast(cfg, clients::ArbiterKind::kRoundRobin);
  fill_system(fast, cfg);

  slow.run_to_completion();
  fast.run_to_completion();

  EXPECT_EQ(slow.controller().cycle(), fast.controller().cycle());
  expect_stats_eq(slow.controller().stats(), fast.controller().stats());
  for (std::size_t i = 0; i < slow.client_count(); ++i)
    expect_client_stats_eq(slow.client_stats(i), fast.client_stats(i), i);
}

// ---------------------------------------------------------------------------
// Saturated-channel equivalence: the resident front end for dense traffic
// (the dense half of MemorySystem::stretch, driving
// Controller::dense_advance) against per-cycle stepping. The suite above
// is idle-shape-heavy; these run at 100% duty, where every cycle carries
// a command and set_burst_issue (which switches the dense half) is the
// knob under test. The controller has one scheduling path either way.
// Reference is burst issue off + fast-forward off (pure per-cycle).

void expect_systems_eq(const clients::MemorySystem& a,
                       const clients::MemorySystem& b) {
  EXPECT_EQ(a.controller().cycle(), b.controller().cycle());
  expect_stats_eq(a.controller().stats(), b.controller().stats());
  for (std::size_t i = 0; i < a.client_count(); ++i) {
    expect_client_stats_eq(a.client_stats(i), b.client_stats(i), i);
    EXPECT_EQ(a.fifo(i).required_depth_bytes(), b.fifo(i).required_depth_bytes());
    expect_acc_eq(a.fifo(i).occupancy(), b.fifo(i).occupancy(),
                  "fifo occupancy");
  }
}

std::unique_ptr<clients::Client> duty_stream(unsigned id,
                                             const DramConfig& cfg,
                                             std::uint64_t base,
                                             std::uint64_t length) {
  clients::StreamClient::Params p;
  p.base = base;
  p.length = length;
  p.burst_bytes = cfg.bytes_per_access();
  p.period_cycles = 0;  // a new request every cycle: 100% duty
  p.total_requests = 0;  // endless
  return std::make_unique<clients::StreamClient>(id, "duty", p);
}

/// Run the same roster under {reference, dense stretch + fast-forward,
/// dense stretch + per-cycle quiet stepping} and demand identical bits.
void expect_saturated_equivalent(
    const DramConfig& cfg,
    const std::function<void(clients::MemorySystem&)>& fill,
    std::uint64_t cycles) {
  clients::MemorySystem ref(cfg, clients::ArbiterKind::kRoundRobin);
  ref.set_fast_forward(false);
  ref.set_burst_issue(false);
  fill(ref);
  clients::MemorySystem burst_ff(cfg, clients::ArbiterKind::kRoundRobin);
  fill(burst_ff);
  clients::MemorySystem burst_pc(cfg, clients::ArbiterKind::kRoundRobin);
  burst_pc.set_fast_forward(false);
  fill(burst_pc);

  ref.run(cycles);
  burst_ff.run(cycles);
  burst_pc.run(cycles);
  expect_systems_eq(ref, burst_ff);
  expect_systems_eq(ref, burst_pc);
}

TEST(BurstIssue, SaturatedStreamMatchesPerCycle) {
  const DramConfig cfg = dram::presets::edram_module(16, 64, 4, 2048);
  expect_saturated_equivalent(
      cfg,
      [&](clients::MemorySystem& sys) {
        sys.add_client(duty_stream(0, cfg, 0, 1 << 18));
      },
      50'000);
  // Sanity: the stream really saturated the channel (row-hit streaks
  // dominate and the data bus is the bottleneck).
  clients::MemorySystem probe(cfg, clients::ArbiterKind::kRoundRobin);
  probe.add_client(duty_stream(0, cfg, 0, 1 << 18));
  probe.run(50'000);
  const auto& st = probe.controller().stats();
  EXPECT_GT(st.row_hits, st.row_misses * 10);
  EXPECT_GT(st.data_bus_busy_cycles * 10, st.cycles * 8);
}

TEST(BurstIssue, SaturatedStreamWithRefreshAndWatchdog) {
  DramConfig cfg = dram::presets::edram_module(16, 64, 4, 2048);
  cfg.watchdog_enabled = true;
  cfg.watchdog_cycles = 4'000;
  expect_saturated_equivalent(
      cfg,
      [&](clients::MemorySystem& sys) {
        sys.add_client(duty_stream(0, cfg, 0, 1 << 18));
      },
      40'000);
}

TEST(BurstIssue, SaturatedWriteStreamTimeoutPolicy) {
  DramConfig cfg = dram::presets::edram_module(16, 64, 4, 2048);
  cfg.page_policy = dram::PagePolicy::kTimeout;
  cfg.page_timeout_cycles = 32;
  expect_saturated_equivalent(
      cfg,
      [&](clients::MemorySystem& sys) {
        clients::StreamClient::Params p;
        p.base = 0;
        p.length = 1 << 18;
        p.burst_bytes = cfg.bytes_per_access();
        p.period_cycles = 0;
        p.total_requests = 0;
        p.type = dram::AccessType::kWrite;
        sys.add_client(std::make_unique<clients::StreamClient>(0, "wr", p));
      },
      40'000);
}

TEST(BurstIssue, BankPrivatizedStridedMatchesPerCycle) {
  // kBankRowCol + disjoint per-client regions: each client owns one bank,
  // so the queue mixes banks and every pick row-misses: dense_advance
  // hands control back after ACT/PRE-heavy stretches, and the stretch
  // entry and exit boundaries get exercised hard.
  DramConfig cfg = dram::presets::edram_module(16, 64, 4, 2048);
  cfg.mapping = dram::AddressMapping::kBankRowCol;
  const std::uint64_t bank_span = cfg.capacity().byte_count() / cfg.banks;
  expect_saturated_equivalent(
      cfg,
      [&](clients::MemorySystem& sys) {
        for (unsigned b = 0; b < 4; ++b) {
          clients::StridedClient::Params p;
          p.base = b * bank_span;
          p.length = std::min<std::uint64_t>(bank_span, 1 << 18);
          p.burst_bytes = cfg.bytes_per_access();
          p.stride_bytes = cfg.page_bytes;  // one burst per row: miss-heavy
          p.period_cycles = 0;
          p.total_requests = 0;
          sys.add_client(std::make_unique<clients::StridedClient>(
              b, "strided", p));
        }
      },
      40'000);
}

TEST(BurstIssue, TdmFullSlotsMatchesPerCycle) {
  // Every TDM slot owned by a 100%-duty stream over its own bank: the
  // steady state the paper's real-time configurations run in.
  DramConfig cfg = dram::presets::edram_module(16, 64, 4, 2048);
  cfg.scheduler = dram::SchedulerKind::kTdm;
  cfg.tdm_slot_cycles = 32;
  cfg.tdm_clients = 4;
  cfg.mapping = dram::AddressMapping::kBankRowCol;
  const std::uint64_t bank_span = cfg.capacity().byte_count() / cfg.banks;
  expect_saturated_equivalent(
      cfg,
      [&](clients::MemorySystem& sys) {
        for (unsigned b = 0; b < 4; ++b) {
          sys.add_client(duty_stream(
              b, cfg, b * bank_span,
              std::min<std::uint64_t>(bank_span, 1 << 18)));
        }
      },
      40'000);
}

TEST(BurstIssue, ReadFirstSchedulerMixedDirectionMatchesPerCycle) {
  // Write-drain hysteresis across dense stretches: a read stream and a
  // write stream contend, so draining_ flips while stretches start and
  // stop.
  DramConfig cfg = dram::presets::edram_module(16, 64, 4, 2048);
  cfg.scheduler = dram::SchedulerKind::kReadFirst;
  expect_saturated_equivalent(
      cfg,
      [&](clients::MemorySystem& sys) {
        sys.add_client(duty_stream(0, cfg, 0, 1 << 18));
        clients::StreamClient::Params p;
        p.base = 1 << 20;
        p.length = 1 << 18;
        p.burst_bytes = cfg.bytes_per_access();
        p.period_cycles = 0;
        p.total_requests = 0;
        p.type = dram::AccessType::kWrite;
        sys.add_client(std::make_unique<clients::StreamClient>(1, "wr", p));
      },
      40'000);
}

TEST(BurstIssue, CommandLogIdenticalUnderBurst) {
  // The logic-analyzer view must not change: same commands, same cycles,
  // same decode, whether the front end runs dense stretches or steps.
  const DramConfig cfg = dram::presets::edram_module(16, 64, 4, 2048);
  dram::CommandLog ref_log;
  dram::CommandLog burst_log;

  clients::MemorySystem ref(cfg, clients::ArbiterKind::kRoundRobin);
  ref.set_fast_forward(false);
  ref.set_burst_issue(false);
  ref.controller().attach_command_log(&ref_log);
  ref.add_client(duty_stream(0, cfg, 0, 1 << 18));

  clients::MemorySystem burst(cfg, clients::ArbiterKind::kRoundRobin);
  burst.controller().attach_command_log(&burst_log);
  burst.add_client(duty_stream(0, cfg, 0, 1 << 18));

  ref.run(30'000);
  burst.run(30'000);
  ASSERT_GT(ref_log.records().size(), 1'000u);
  EXPECT_EQ(ref_log.records(), burst_log.records());
  expect_systems_eq(ref, burst);
}

TEST(BurstIssue, RunToCompletionFiniteSaturatedStreams) {
  const DramConfig cfg = dram::presets::edram_module(16, 64, 4, 2048);
  const auto fill = [&](clients::MemorySystem& sys) {
    clients::StreamClient::Params p;
    p.base = 0;
    p.length = 1 << 18;
    p.burst_bytes = cfg.bytes_per_access();
    p.period_cycles = 0;
    p.total_requests = 4'000;
    sys.add_client(std::make_unique<clients::StreamClient>(0, "fin", p));
  };
  clients::MemorySystem ref(cfg, clients::ArbiterKind::kRoundRobin);
  ref.set_fast_forward(false);
  ref.set_burst_issue(false);
  fill(ref);
  clients::MemorySystem burst(cfg, clients::ArbiterKind::kRoundRobin);
  fill(burst);
  ref.run_to_completion();
  burst.run_to_completion();
  expect_systems_eq(ref, burst);
  EXPECT_EQ(ref.client_stats(0).completed, 4'000u);
}

// ---------------------------------------------------------------------------
// The front end stops only at its own events. While no client is ready,
// the quiet half of MemorySystem::stretch runs the controller event to
// event across ACT/PRE, column issue, power-down and maintenance claims,
// returning only for a client wake-up or a retirement to deliver. The
// shape is the idle-decode regime: an MPEG2 decoder plus a paced player
// stream on a power-managed channel with weak cells and self-managed
// maintenance.

DramConfig idle_decode_config() {
  DramConfig cfg = dram::presets::edram_module(16, 64, 4, 2048);
  cfg.powerdown_enabled = true;
  cfg.powerdown_idle_cycles = 32;
  return cfg;
}

reliability::ReliabilityConfig idle_decode_reliability() {
  reliability::ReliabilityConfig rc;
  rc.inject.seed = 21;
  rc.inject.weak_cells = 12;
  rc.inject.weak_retention_min_frac = 0.002;
  rc.inject.weak_retention_max_frac = 0.002;
  rc.scrub_enabled = false;
  rc.maintenance.enabled = true;
  return rc;
}

/// A player stream paced at 8 MB/s on `cfg`'s clock.
std::unique_ptr<clients::Client> player_stream(unsigned id,
                                               const DramConfig& cfg,
                                               std::uint64_t window) {
  clients::StreamClient::Params p;
  p.base = 3u << 20;
  p.length = 256u << 10;
  p.burst_bytes = cfg.bytes_per_access();
  p.period_cycles = static_cast<unsigned>(
      static_cast<double>(p.burst_bytes) / (8e6 / cfg.clock.hz()));
  p.total_requests = window / p.period_cycles + 1;
  return std::make_unique<clients::StreamClient>(id, "player", p);
}

/// The idle-decode system: compiled decoder clients (finished once their
/// `window`-cycle arenas run out) plus the player stream, with the
/// reliability layer attached in self-managed maintenance mode.
struct IdleDecodeRig {
  DramConfig cfg = idle_decode_config();
  reliability::ReliabilityManager rel{cfg, idle_decode_reliability()};
  clients::MemorySystem sys{cfg, clients::ArbiterKind::kRoundRobin};

  IdleDecodeRig(bool fast_forward, bool burst_issue, std::uint64_t window) {
    sys.set_fast_forward(fast_forward);
    sys.set_burst_issue(burst_issue);
    sys.controller().attach_reliability(&rel);
    const mpeg::DecoderModel model{mpeg::DecoderConfig{}};
    mpeg::add_compiled_decoder_clients(sys, model, model.build_memory_map(),
                                       window);
    sys.add_client(player_stream(4, cfg, window));
  }
};

/// Warm-up, then the rest; `finish` ends with run_to_completion instead
/// of a fixed window.
void drive_idle_decode(IdleDecodeRig& rig, bool finish) {
  rig.sys.run(120'000);
  if (finish) {
    rig.sys.run_to_completion();
  } else {
    rig.sys.run(120'000);
  }
  rig.rel.finalize(rig.sys.controller().cycle());
}

void expect_idle_decode_equivalent(bool finish) {
  const std::uint64_t window = 240'000;
  IdleDecodeRig ref(/*fast_forward=*/false, /*burst_issue=*/false, window);
  drive_idle_decode(ref, finish);
  // Sanity: the window exercises every event source the stretch crosses.
  const dram::ControllerStats& rs = ref.sys.controller().stats();
  ASSERT_GT(rs.powerdown_cycles, rs.cycles / 4);
  ASSERT_GT(rs.maintenance_ops, 0u);
  ASSERT_GT(rs.reads + rs.writes, 1'000u);
  ASSERT_GT(ref.rel.event_log().size(), 0u);
  if (finish) {
    for (std::size_t i = 0; i < ref.sys.client_count(); ++i) {
      ASSERT_TRUE(ref.sys.client(i).finished()) << "client " << i;
    }
  }

  for (const bool burst : {true, false}) {
    IdleDecodeRig fast(/*fast_forward=*/true, burst, window);
    drive_idle_decode(fast, finish);
    SCOPED_TRACE(burst ? "quiet + dense" : "quiet only");
    expect_systems_eq(ref.sys, fast.sys);
    EXPECT_EQ(rs.maintenance_ops,
              fast.sys.controller().stats().maintenance_ops);
    EXPECT_EQ(ref.rel.counters().maint_ops, fast.rel.counters().maint_ops);
    EXPECT_EQ(ref.rel.counters().maint_rows, fast.rel.counters().maint_rows);
    EXPECT_EQ(ref.rel.event_log(), fast.rel.event_log());
  }
}

TEST(FrontEndStretch, IdleDecodeRunMatchesPerCycle) {
  expect_idle_decode_equivalent(/*finish=*/false);
}

TEST(FrontEndStretch, IdleDecodeRunToCompletionMatchesPerCycle) {
  expect_idle_decode_equivalent(/*finish=*/true);
}

/// Forwards to another client, counting every readiness poll the front
/// end makes (next_request_cycle, which has_request derives from).
class PollCountingClient final : public clients::Client {
 public:
  PollCountingClient(std::unique_ptr<clients::Client> inner,
                     std::uint64_t* polls)
      : Client(inner->id(), inner->name()),
        inner_(std::move(inner)),
        polls_(polls) {}

  std::uint64_t next_request_cycle(std::uint64_t now) const override {
    ++*polls_;
    return inner_->next_request_cycle(now);
  }
  Request make_request(std::uint64_t cycle) override {
    return inner_->make_request(cycle);
  }
  void notify_complete(const Request& req, std::uint64_t cycle) override {
    inner_->notify_complete(req, cycle);
  }
  bool finished() const override { return inner_->finished(); }

 private:
  std::unique_ptr<clients::Client> inner_;
  std::uint64_t* polls_;
};

/// The live decoder roster of mpeg::add_decoder_clients (three paced
/// streams and the motion-compensation block fetcher) on `cfg`.
std::vector<std::unique_ptr<clients::Client>> live_decoder_roster(
    const DramConfig& cfg) {
  const mpeg::DecoderModel model{mpeg::DecoderConfig{}};
  const mpeg::DecoderClientParams cp = mpeg::derive_decoder_client_params(
      cfg.bytes_per_access(), cfg.clock, model, model.build_memory_map());
  std::vector<std::unique_ptr<clients::Client>> r;
  r.push_back(std::make_unique<clients::StreamClient>(0, "vbv_input", cp.vbv));
  r.push_back(std::make_unique<mpeg::McClient>(1, cp.mc));
  r.push_back(std::make_unique<clients::StreamClient>(2, "reconstruction",
                                                      cp.reconstruction));
  r.push_back(
      std::make_unique<clients::StreamClient>(3, "display", cp.display));
  return r;
}

TEST(FrontEndStretch, QuietRunPollsClientsOnlyAtItsOwnEvents) {
  // Paced clients on a power-managed channel with self-managed
  // maintenance: between grants the controller has several events per
  // request (ACT, column issue, PRE, power-down entry and exit,
  // maintenance claims), none of which a quiet front end needs to see.
  // Stopping at each one would poll every client there; so would a
  // client whose wake-up is not exact (the MC client between blocks).
  const DramConfig cfg = idle_decode_config();
  std::vector<std::unique_ptr<clients::Client>> paced;
  paced.push_back(paced_stream(0, cfg, 400, 0));
  paced.push_back(paced_random(1, cfg, 650, 0));
  std::pair<std::string, std::vector<std::unique_ptr<clients::Client>>>
      rosters[] = {{"stream + random", std::move(paced)},
                   {"live decoder", live_decoder_roster(cfg)}};

  for (auto& [label, roster] : rosters) {
    SCOPED_TRACE(label);
    reliability::ReliabilityManager rel(cfg, idle_decode_reliability());
    clients::MemorySystem sys(cfg, clients::ArbiterKind::kRoundRobin);
    sys.controller().attach_reliability(&rel);
    std::uint64_t polls = 0;
    for (auto& c : roster) {
      sys.add_client(std::make_unique<PollCountingClient>(std::move(c),
                                                          &polls));
    }

    sys.run(400'000);
    std::uint64_t grants = 0;
    for (std::size_t i = 0; i < sys.client_count(); ++i) {
      grants += sys.client_stats(i).issued;
    }
    ASSERT_GT(grants, 1'000u);
    ASSERT_GT(sys.controller().stats().maintenance_ops, 0u);
    ASSERT_GT(sys.controller().stats().powerdown_cycles, 100'000u);
    // Per grant: the grant's own step, the wake-up that led to it and the
    // retirement that follows it, each polling every client a bounded
    // number of times.
    const double per_grant_and_client =
        static_cast<double>(polls) /
        static_cast<double>(grants * sys.client_count());
    EXPECT_LE(per_grant_and_client, 6.0)
        << polls << " polls for " << grants << " grants";
  }
}

TEST(FrontEndStretch, RunToCompletionStopsWhenTheLastDeliveryFinishes) {
  // A finite pointer chase is finished only once its last load has been
  // delivered, so the delivery itself makes the system done. The stretch
  // must hand that cycle back to run_to_completion instead of running
  // quiet (no client will ever wake) up to the cycle bound.
  const DramConfig cfg = idle_decode_config();
  const auto fill = [&](clients::MemorySystem& sys) {
    clients::PointerChaseClient::Params p;
    p.burst_bytes = cfg.bytes_per_access();
    p.total_requests = 300;
    p.think_cycles = 90;  // long enough to power down between loads
    sys.add_client(
        std::make_unique<clients::PointerChaseClient>(0, "chase", p));
    sys.add_client(paced_stream(1, cfg, 400, 40));  // done well before
  };
  clients::MemorySystem ref(cfg, clients::ArbiterKind::kRoundRobin);
  ref.set_fast_forward(false);
  ref.set_burst_issue(false);
  fill(ref);
  ref.run_to_completion(1'000'000);
  ASSERT_TRUE(ref.client(0).finished());
  ASSERT_GT(ref.controller().stats().powerdown_cycles, 0u);

  for (const bool burst : {true, false}) {
    SCOPED_TRACE(burst ? "quiet + dense" : "quiet only");
    clients::MemorySystem fast(cfg, clients::ArbiterKind::kRoundRobin);
    fast.set_burst_issue(burst);
    fill(fast);
    fast.run_to_completion(1'000'000);
    expect_systems_eq(ref, fast);
  }
}

// ---------------------------------------------------------------------------
// Power-down entry waits on its blockers. Once the idle streak has
// matured, a held maintenance lock (or unclaimed urgent maintenance) keeps
// tick() from entering power-down; the entry term of next_event_cycle must
// then stay out of the bound, or every cycle of the lock becomes a tick
// that changes nothing. The lock's expiry is the event that retries entry.

/// Reads paced `period` cycles apart at scattered addresses: each gap is
/// long enough for the idle streak to mature and the device to power down.
std::vector<Arrival> paced_reads(const DramConfig& cfg, std::uint64_t period,
                                 std::uint64_t end) {
  std::vector<Arrival> out;
  Rng rng(7);
  const std::uint64_t span = cfg.capacity().byte_count();
  for (std::uint64_t c = 11; c < end; c += period) {
    out.push_back({c, rng.next_below(span) & ~31ull, dram::AccessType::kRead});
  }
  return out;
}

/// Counts the controller's per-tick advances and bulk skips, the per-tick
/// advances that fall inside a maintenance lock, and records the
/// powered-down stretches as [first, end) cycle intervals.
class AdvanceRecorder final : public dram::TelemetryHooks {
 public:
  std::uint64_t ticks = 0;
  std::uint64_t skips = 0;
  std::uint64_t claims = 0;
  std::uint64_t locked_ticks = 0;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> down;

  void on_command(const dram::CommandRecord& rec) override {
    if (rec.cmd != dram::Command::kMaintStart) return;
    ++claims;
    lock_end_ = std::max(lock_end_, rec.cycle + rec.row);
  }
  void on_cycle_advance(const dram::TickSample& s,
                        const ControllerStats& st) override {
    ++ticks;
    if (s.cycle - 1 < lock_end_) ++locked_ticks;
    credit(s.cycle - 1, s.cycle, st.powerdown_cycles);
  }
  void on_bulk_advance(std::uint64_t from, const dram::TickSample& s,
                       const ControllerStats& st) override {
    ++skips;
    credit(from, s.cycle, st.powerdown_cycles);
  }

 private:
  /// [from, to) advanced; powered down throughout iff the power-down
  /// count grew by its length (a stretch never straddles a transition).
  void credit(std::uint64_t from, std::uint64_t to, std::uint64_t pd) {
    if (pd - pd_ == to - from) {
      if (!down.empty() && down.back().second == from) {
        down.back().second = to;
      } else {
        down.emplace_back(from, to);
      }
    }
    pd_ = pd;
  }
  std::uint64_t lock_end_ = 0;
  std::uint64_t pd_ = 0;
};

/// One controller of the power-down + maintenance rig with every observer
/// attached.
struct PowerDownLockRig {
  DramConfig cfg = idle_decode_config();
  reliability::ReliabilityManager rel{cfg, idle_decode_reliability()};
  Controller ctl{cfg};
  dram::CommandLog log;
  AdvanceRecorder rec;

  PowerDownLockRig() {
    ctl.attach_reliability(&rel);
    ctl.attach_command_log(&log);
    ctl.attach_telemetry(&rec);
  }
};

TEST(PowerDownEntry, LockedIdleGapsSkipToTheLockExpiry) {
  const std::uint64_t end = 300'000;
  PowerDownLockRig ref;
  PowerDownLockRig fast;
  const std::vector<Arrival> trace = paced_reads(ref.cfg, 700, end);
  const auto ref_done = run_per_cycle(ref.ctl, trace, end);
  const auto fast_done = run_fast(fast.ctl, trace, end);
  ref.rel.finalize(end);
  fast.rel.finalize(end);

  // The rig crosses the case under test: many claims, most of the window
  // powered down.
  const ControllerStats& rs = ref.ctl.stats();
  ASSERT_GT(rs.maintenance_ops, 200u);
  ASSERT_GT(rs.powerdown_cycles, end / 2);
  ASSERT_GT(ref.rel.event_log().size(), 0u);

  // Bit-identical to the per-cycle walk, power-down entries included.
  EXPECT_EQ(ref_done, fast_done);
  expect_stats_eq(rs, fast.ctl.stats());
  EXPECT_EQ(rs.maintenance_ops, fast.ctl.stats().maintenance_ops);
  EXPECT_EQ(ref.rel.counters().maint_ops, fast.rel.counters().maint_ops);
  EXPECT_EQ(ref.rel.counters().maint_rows, fast.rel.counters().maint_rows);
  EXPECT_EQ(ref.rel.event_log(), fast.rel.event_log());
  EXPECT_EQ(ref.log.records(), fast.log.records());
  EXPECT_EQ(ref.rec.down, fast.rec.down);
  ASSERT_GT(fast.rec.down.size(), trace.size() / 2);

  // A lock costs its claim tick and the odd read landing inside it, not a
  // tick per locked cycle (about the lock duration each before the gate).
  ASSERT_EQ(fast.rec.claims, fast.ctl.stats().maintenance_ops);
  EXPECT_LE(fast.rec.locked_ticks, 3 * fast.rec.claims)
      << fast.rec.locked_ticks << " ticks inside " << fast.rec.claims
      << " locks (" << fast.rec.ticks << " ticks, " << fast.rec.skips
      << " skips in all)";
}

TEST(PowerDownEntry, HeldLockBoundsTheNextEventAtItsExpiry) {
  // Nothing is ever queued, so the idle streak starts at cycle 0 and
  // matures at 32; bank 0 is claimed at 10 and locked until 110.
  const DramConfig cfg = idle_decode_config();
  dram::test::ScheduledLocks hooks({10}, 100);
  Controller ctl(cfg);
  ctl.attach_reliability(&hooks);
  dram::CommandLog log;
  ctl.attach_command_log(&log);
  while (ctl.cycle() < 50) ctl.tick();
  ASSERT_EQ(ctl.stats().maintenance_ops, 1u);
  EXPECT_EQ(ctl.stats().powerdown_cycles, 0u);
  EXPECT_EQ(ctl.next_event_cycle(), 110u);

  // Entry fires on the expiry tick, as in the per-cycle walk.
  dram::test::ScheduledLocks ref_hooks({10}, 100);
  Controller ref(cfg);
  ref.attach_reliability(&ref_hooks);
  while (ref.cycle() < 200) ref.tick();
  ctl.tick_until(200);
  expect_stats_eq(ref.stats(), ctl.stats());
  EXPECT_EQ(ctl.stats().powerdown_cycles, 90u);
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log.records()[1].cmd, dram::Command::kMaintEnd);
  EXPECT_EQ(log.records()[1].cycle, 110u);
}

// ---------------------------------------------------------------------------
// Parallel harness determinism: identical bits at every thread count.

TEST(ParallelDeterminism, YieldIdenticalAcrossThreadCounts) {
  const bist::DefectMix mix{};
  const auto ref =
      bist::simulate_yield(2.0, mix, 4, 4, 50'000, 11, /*threads=*/1);
  for (unsigned threads : {2u, 3u, 8u}) {
    const auto got = bist::simulate_yield(2.0, mix, 4, 4, 50'000, 11, threads);
    EXPECT_EQ(ref.yield, got.yield) << threads << " threads";
    EXPECT_EQ(ref.raw_yield, got.raw_yield) << threads << " threads";
    expect_acc_eq(ref.spares_used, got.spares_used, "spares_used");
  }
}

TEST(ParallelDeterminism, EvaluatorSweepIdenticalAcrossThreadCounts) {
  std::vector<core::SystemConfig> cfgs;
  for (unsigned width : {64u, 128u, 256u}) {
    core::SystemConfig s;
    s.name = "w" + std::to_string(width);
    s.integration = core::Integration::kEmbedded;
    s.required_memory = Capacity::mbit(16);
    s.interface_bits = width;
    s.banks = 4;
    s.page_bytes = 2048;
    cfgs.push_back(s);
  }
  core::EvalWorkload w;
  w.demand_gbyte_s = 0.5;
  w.sim_cycles = 20'000;

  core::Evaluator serial;
  serial.set_threads(1);
  core::Evaluator parallel;
  parallel.set_threads(4);
  const auto a = serial.sweep(cfgs, w);
  const auto b = parallel.sweep(cfgs, w);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].name, b[i].name);
    EXPECT_EQ(a[i].die_area_mm2, b[i].die_area_mm2);
    EXPECT_EQ(a[i].sustained_gbyte_s, b[i].sustained_gbyte_s);
    EXPECT_EQ(a[i].avg_read_latency_ns, b[i].avg_read_latency_ns);
    EXPECT_EQ(a[i].total_power_mw, b[i].total_power_mw);
    EXPECT_EQ(a[i].unit_cost_usd, b[i].unit_cost_usd);
    EXPECT_EQ(a[i].junction_c, b[i].junction_c);
    EXPECT_EQ(a[i].refresh_overhead, b[i].refresh_overhead);
  }
}

TEST(ParallelDeterminism, ParetoFrontMatchesBruteForceOnLargeSet) {
  // Above the internal parallel threshold (512): the fanned-out dominance
  // scan must reproduce the serial O(n^2) result exactly, in input order.
  Rng rng(21);
  std::vector<core::ParetoPoint> pts;
  for (std::size_t i = 0; i < 700; ++i) {
    core::ParetoPoint p;
    p.index = i;
    p.objectives = {rng.next_double(), rng.next_double(), rng.next_double()};
    pts.push_back(p);
  }
  std::vector<std::size_t> brute;
  for (std::size_t i = 0; i < pts.size(); ++i) {
    bool dominated = false;
    for (std::size_t j = 0; j < pts.size() && !dominated; ++j)
      if (i != j && core::dominates(pts[j], pts[i])) dominated = true;
    if (!dominated) brute.push_back(pts[i].index);
  }
  EXPECT_EQ(core::pareto_front(pts), brute);
}

TEST(ParallelDeterminism, ParallelForCoversEveryIndexOnce) {
  std::vector<int> hits(10'000, 0);
  parallel_for(hits.size(), [&](std::size_t i) { hits[i]++; }, 0);
  for (std::size_t i = 0; i < hits.size(); ++i)
    ASSERT_EQ(hits[i], 1) << "index " << i;
}

}  // namespace
}  // namespace edsim
