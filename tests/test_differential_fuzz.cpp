// Randomized differential testing for the fast-forward and dense-traffic
// fast paths: every generated configuration must produce bit-identical
// final stats, command logs, and interval telemetry between the per-cycle
// reference (all fast paths off) and every other combination of
// {per-cycle, fast-forward} x {dense stretch off, on}. A slice of the
// client mixes is high-demand (near-zero pacing, thousands of requests) so
// the resident front end's dense stretch actually engages. Any failure
// prints the reproducer seed and the full config so the trial can be
// replayed in isolation.
//
// The same source builds two binaries: the quick tier (part of the default
// ctest run) and a `slow`-labelled soak with EDSIM_FUZZ_SOAK defined.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bist/yield.hpp"
#include "clients/client.hpp"
#include "clients/strided_gen.hpp"
#include "clients/system.hpp"
#include "common/rng.hpp"
#include "common/snapshot.hpp"
#include "core/evaluator.hpp"
#include "core/pareto.hpp"
#include "core/wcet.hpp"
#include "dram/command_log.hpp"
#include "dram/controller.hpp"
#include "reliability/manager.hpp"
#include "service/result_store.hpp"
#include "telemetry/interval.hpp"

namespace edsim {
namespace {

using dram::Controller;
using dram::ControllerStats;
using dram::DramConfig;
using dram::Request;

#ifdef EDSIM_FUZZ_SOAK
constexpr int kSystemTrials = 400;
constexpr int kEvaluatorTrials = 20;
#else
constexpr int kSystemTrials = 18;
constexpr int kEvaluatorTrials = 3;
#endif

/// Root of the per-trial seed tree (derive_seed(kRootSeed, trial)): fixed
/// so failures reproduce, arbitrary otherwise.
constexpr std::uint64_t kRootSeed = 0x0d1ff5eedULL;

// ---------------------------------------------------------------------------
// Bit-exact comparison helpers (same discipline as test_fast_forward.cpp:
// EXPECT_EQ on doubles on purpose — the contract is identical bits).

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
  EXPECT_EQ(a.maintenance_ops, b.maintenance_ops);
  EXPECT_EQ(a.reliability.maint_ops, b.reliability.maint_ops);
  EXPECT_EQ(a.reliability.maint_rows, b.reliability.maint_rows);
  EXPECT_EQ(a.reliability.neighbor_rows, b.reliability.neighbor_rows);
  EXPECT_EQ(a.reliability.disturb_flips, b.reliability.disturb_flips);
  expect_acc_eq(a.read_latency, b.read_latency, "read_latency");
  expect_acc_eq(a.write_latency, b.write_latency, "write_latency");
  expect_acc_eq(a.queue_occupancy, b.queue_occupancy, "queue_occupancy");
}

void expect_command_logs_eq(const dram::CommandLog& a,
                            const dram::CommandLog& b) {
  ASSERT_EQ(a.size(), b.size());
  const auto& ra = a.records();
  const auto& rb = b.records();
  for (std::size_t i = 0; i < ra.size(); ++i) {
    ASSERT_EQ(ra[i], rb[i])
        << "command log diverges at record " << i << ": cycle " << ra[i].cycle
        << " vs " << rb[i].cycle;
  }
}

void expect_intervals_eq(const telemetry::IntervalReporter& a,
                         const telemetry::IntervalReporter& b) {
  ASSERT_EQ(a.samples().size(), b.samples().size());
  for (std::size_t i = 0; i < a.samples().size(); ++i) {
    EXPECT_EQ(a.samples()[i], b.samples()[i]) << "interval row " << i;
  }
}

// ---------------------------------------------------------------------------
// Randomized configuration generator.

template <typename T>
T pick(Rng& rng, std::initializer_list<T> options) {
  return options.begin()[rng.next_below(options.size())];
}

DramConfig random_config(Rng& rng) {
  DramConfig cfg;
  cfg.banks = pick(rng, {2u, 4u, 8u, 16u});
  cfg.rows_per_bank = pick(rng, {256u, 512u, 1024u});
  cfg.page_bytes = pick(rng, {512u, 1024u, 2048u});
  cfg.interface_bits = pick(rng, {16u, 32u, 64u, 128u});
  cfg.transfers_per_clock = pick(rng, {1u, 2u});
  cfg.timing.burst_length = pick(rng, {2u, 4u, 8u});
  if (rng.next_bool(0.3)) cfg.timing.tFAW = cfg.timing.tRRD * 4;
  cfg.page_policy = pick(rng, {dram::PagePolicy::kOpen,
                               dram::PagePolicy::kClosed,
                               dram::PagePolicy::kTimeout});
  cfg.page_timeout_cycles = 16 + static_cast<unsigned>(rng.next_below(64));
  cfg.scheduler = pick(rng, {dram::SchedulerKind::kFcfs,
                             dram::SchedulerKind::kFcfsPerBank,
                             dram::SchedulerKind::kFrFcfs,
                             dram::SchedulerKind::kReadFirst,
                             dram::SchedulerKind::kTdm});
  cfg.tdm_slot_cycles = 16 + static_cast<unsigned>(rng.next_below(113));
  cfg.tdm_clients = 2 + static_cast<unsigned>(rng.next_below(3));
  cfg.mapping = pick(rng, {dram::AddressMapping::kRowBankCol,
                           dram::AddressMapping::kBankRowCol,
                           dram::AddressMapping::kRowColBank,
                           dram::AddressMapping::kPermutedBank});
  cfg.queue_depth = pick(rng, {4u, 8u, 16u, 32u});
  cfg.refresh_enabled = rng.next_bool(0.8);
  cfg.refresh_burst = pick(rng, {1u, 2u, 4u});
  if (rng.next_bool(0.4)) {
    cfg.powerdown_enabled = true;
    cfg.powerdown_idle_cycles = 8 + static_cast<unsigned>(rng.next_below(56));
    cfg.tXP = 2 + static_cast<unsigned>(rng.next_below(3));
  }
  if (rng.next_bool(0.3)) {
    cfg.ecc_enabled = true;
    cfg.ecc_word_bits = 64;
    cfg.ecc_latency_cycles = 1 + static_cast<unsigned>(rng.next_below(2));
  }
  if (rng.next_bool(0.3)) {
    // Generous budget: escalations may fire (and must match bit-for-bit),
    // retry exhaustion (a thrown Error) must not.
    cfg.watchdog_enabled = true;
    cfg.watchdog_cycles = 5'000 + static_cast<unsigned>(rng.next_below(5'000));
    cfg.watchdog_retries = 10;
  }
  return cfg;
}

std::string describe_trial(int trial, std::uint64_t seed,
                           const DramConfig& cfg) {
  std::ostringstream os;
  os << "trial=" << trial << " seed=0x" << std::hex << seed << std::dec
     << " cfg={" << cfg.describe() << "}";
  return os.str();
}

/// Random paced client mix over [0, span). Burst size always matches the
/// controller access granularity; pacing keeps idle stretches in the run
/// so the fast path actually skips. Returns the client set as the WCET
/// analysis sees it, so trials can assert `simulated <= analytical bound`.
std::vector<core::WcetClient> add_random_clients(clients::MemorySystem& sys,
                                                 const DramConfig& cfg,
                                                 std::uint64_t span,
                                                 std::uint64_t seed) {
  Rng rng(seed);
  std::vector<core::WcetClient> wclients;
  // ~35% of mixes are high-demand: near-zero pacing, thousands of
  // requests and a compact footprint keep the controller queue full with
  // long same-row streaks — the regime the resident front end's dense
  // stretch engages in. The rest stay paced so fast-forward has idle gaps to skip.
  const bool dense = rng.next_bool(0.35);
  const unsigned n = 1 + static_cast<unsigned>(rng.next_below(3));
  for (unsigned i = 0; i < n; ++i) {
    const unsigned period =
        dense ? static_cast<unsigned>(rng.next_below(2))
              : 60 + static_cast<unsigned>(rng.next_below(840));
    const std::uint64_t total =
        dense ? 2'000 + rng.next_below(3'000) : 20 + rng.next_below(60);
    const std::uint64_t base =
        (rng.next_below(span / 2) / cfg.page_bytes) * cfg.page_bytes;
    const std::uint64_t length =
        std::min<std::uint64_t>(span - base, dense ? 1 << 14 : 1 << 18);
    // period 0 paces like period 1 (one request per cycle) — the WCET
    // model wants the >= 1 form.
    wclients.push_back(core::WcetClient{i, std::max(period, 1u), total});
    switch (rng.next_below(4)) {
      case 0: {
        clients::StreamClient::Params p;
        p.base = base;
        p.length = length;
        p.burst_bytes = cfg.bytes_per_access();
        p.type = rng.next_bool(0.25) ? dram::AccessType::kWrite
                                     : dram::AccessType::kRead;
        p.period_cycles = period;
        p.total_requests = total;
        sys.add_client(std::make_unique<clients::StreamClient>(
            i, "stream" + std::to_string(i), p));
        break;
      }
      case 1: {
        clients::StridedClient::Params p;
        p.base = base;
        p.length = length;
        p.burst_bytes = cfg.bytes_per_access();
        p.stride_bytes = cfg.page_bytes * (1 + rng.next_below(4));
        p.type = rng.next_bool(0.25) ? dram::AccessType::kWrite
                                     : dram::AccessType::kRead;
        p.period_cycles = period;
        p.total_requests = total;
        sys.add_client(std::make_unique<clients::StridedClient>(
            i, "strided" + std::to_string(i), p));
        break;
      }
      case 2: {
        clients::RandomClient::Params p;
        p.base = base;
        p.length = length;
        p.burst_bytes = cfg.bytes_per_access();
        p.read_fraction = 0.5 + rng.next_double() * 0.5;
        p.period_cycles = period;
        p.total_requests = total;
        p.seed = derive_seed(seed, 1000 + i);
        sys.add_client(std::make_unique<clients::RandomClient>(
            i, "rand" + std::to_string(i), p));
        break;
      }
      default: {
        clients::SimdStridedClient::Params p;
        p.base = base;
        p.width_bytes = cfg.page_bytes * (1 + static_cast<unsigned>(
                                                  rng.next_below(2)));
        p.height = 8 + static_cast<unsigned>(rng.next_below(24));
        p.burst_bytes = cfg.bytes_per_access();
        p.pattern = pick(rng, {clients::StridePattern::kRowMajor,
                               clients::StridePattern::kColumnMajor});
        p.type = rng.next_bool(0.25) ? dram::AccessType::kWrite
                                     : dram::AccessType::kRead;
        p.period_cycles = period;
        p.total_requests = total;
        sys.add_client(std::make_unique<clients::SimdStridedClient>(
            i, "simd" + std::to_string(i), p));
        break;
      }
    }
  }
  return wclients;
}

reliability::ReliabilityConfig random_reliability(std::uint64_t seed) {
  reliability::ReliabilityConfig rc;
  rc.inject.seed = seed;
  rc.inject.transient_per_mbit_ms = 30.0;
  rc.inject.weak_cells = 6;
  rc.scrub_enabled = true;
  // Half the reliability trials run self-managed: retention-bin sweeps,
  // RowHammer tracking and idle-slot claims must all stay bit-identical
  // across the three execution modes.
  if (seed % 2 == 0) {
    Rng mrng(derive_seed(seed, 77));
    rc.maintenance.enabled = true;
    rc.maintenance.bins = 2 + static_cast<unsigned>(mrng.next_below(3));
    rc.maintenance.base_window_cycles = 3'000 + mrng.next_below(6'000);
    rc.maintenance.rows_per_op =
        2 + static_cast<unsigned>(mrng.next_below(8));
    rc.maintenance.op_slack_cycles = 200 + mrng.next_below(800);
    rc.maintenance.hammer_threshold = 24;
    rc.maintenance.hammer_table_rows = 4;
    rc.inject.hammer_flip_threshold = 96;
    rc.hammer_remap_after_flips = 2;
  }
  return rc;
}

// ---------------------------------------------------------------------------
// System-level differential: the per-cycle reference vs fast-forward and
// the dense stretch (MemorySystem::set_burst_issue) in every combination,
// all bit-identical.

struct SystemRun {
  clients::MemorySystem sys;
  dram::CommandLog log;
  telemetry::IntervalReporter intervals;
  std::unique_ptr<reliability::ReliabilityManager> rel;
  std::vector<core::WcetClient> wclients;

  SystemRun(const DramConfig& cfg, std::uint64_t client_seed,
            std::uint64_t span, bool with_reliability, std::uint64_t rel_seed,
            bool fast_forward, bool burst, std::uint64_t window)
      : sys(cfg, clients::ArbiterKind::kRoundRobin), intervals(512) {
    sys.set_fast_forward(fast_forward);
    sys.set_burst_issue(burst);
    sys.controller().attach_command_log(&log);
    sys.attach_telemetry(&intervals);
    if (with_reliability) {
      rel = std::make_unique<reliability::ReliabilityManager>(
          cfg, random_reliability(rel_seed));
      sys.controller().attach_reliability(rel.get());
    }
    wclients = add_random_clients(sys, cfg, span, client_seed);
    sys.run(window);
    intervals.finish();
  }

  const clients::MemorySystem& system() const { return sys; }
};

/// Like SystemRun, but the run is interrupted at `cut`: the whole dynamic
/// state (system + reliability manager) is serialized, a *fresh*
/// same-recipe system is built, the ORIGINAL observers (command log,
/// interval reporter) are re-attached, the snapshot is restored, and the
/// run continues to `window`. The result must be bit-identical to never
/// having snapshotted.
struct SnapshotRun {
  std::unique_ptr<clients::MemorySystem> sys;
  dram::CommandLog log;
  telemetry::IntervalReporter intervals;
  std::unique_ptr<reliability::ReliabilityManager> rel;

  SnapshotRun(const DramConfig& cfg, std::uint64_t client_seed,
              std::uint64_t span, bool with_reliability,
              std::uint64_t rel_seed, bool burst, std::uint64_t cut,
              std::uint64_t window)
      : intervals(512) {
    const auto build = [&] {
      auto s = std::make_unique<clients::MemorySystem>(
          cfg, clients::ArbiterKind::kRoundRobin);
      s->set_burst_issue(burst);
      s->controller().attach_command_log(&log);
      s->attach_telemetry(&intervals);
      add_random_clients(*s, cfg, span, client_seed);
      return s;
    };
    sys = build();
    if (with_reliability) {
      rel = std::make_unique<reliability::ReliabilityManager>(
          cfg, random_reliability(rel_seed));
      sys->controller().attach_reliability(rel.get());
    }
    sys->run(cut);

    // Reliability section first: on restore it must be rebuilt and
    // attached before the controller loads (attach samples the manager).
    SnapshotWriter w;
    if (rel) rel->save(w);
    sys->save(w);
    const std::vector<std::uint8_t> blob = w.seal();

    sys = build();
    SnapshotReader r(blob);
    if (with_reliability) {
      rel = std::make_unique<reliability::ReliabilityManager>(
          cfg, random_reliability(rel_seed));
      rel->load(r);
      sys->controller().attach_reliability(rel.get());
    }
    sys->load(r);
    r.expect_end();

    sys->run(window - cut);
    intervals.finish();
  }

  const clients::MemorySystem& system() const { return *sys; }
};

template <typename RunA, typename RunB>
void expect_system_runs_eq(const RunA& a, const RunB& b) {
  EXPECT_EQ(a.system().controller().cycle(), b.system().controller().cycle());
  expect_stats_eq(a.system().controller().stats(),
                  b.system().controller().stats());
  for (std::size_t i = 0; i < a.system().client_count(); ++i) {
    const auto& ca = a.system().client_stats(i);
    const auto& cb = b.system().client_stats(i);
    EXPECT_EQ(ca.issued, cb.issued) << "client " << i;
    EXPECT_EQ(ca.completed, cb.completed) << "client " << i;
    EXPECT_EQ(ca.bytes, cb.bytes) << "client " << i;
    EXPECT_EQ(ca.stall_cycles, cb.stall_cycles) << "client " << i;
    EXPECT_EQ(ca.corrected_errors, cb.corrected_errors) << "client " << i;
    EXPECT_EQ(ca.data_errors, cb.data_errors) << "client " << i;
    expect_acc_eq(ca.latency, cb.latency, "client latency");
  }
  expect_command_logs_eq(a.log, b.log);
  expect_intervals_eq(a.intervals, b.intervals);
  if (a.rel != nullptr && b.rel != nullptr) {
    EXPECT_EQ(a.rel->event_log(), b.rel->event_log());
    EXPECT_EQ(a.rel->live_faults(), b.rel->live_faults());
  }
}

TEST(DifferentialFuzz, SystemLevelThreeWayBitIdentical) {
  for (int trial = 0; trial < kSystemTrials; ++trial) {
    const std::uint64_t seed =
        derive_seed(kRootSeed, static_cast<std::uint64_t>(trial));
    Rng rng(seed);
    const DramConfig cfg = random_config(rng);
    SCOPED_TRACE(describe_trial(trial, seed, cfg));
    const std::uint64_t span = cfg.capacity().byte_count();
    const std::uint64_t window = 20'000 + rng.next_below(30'000);
    const bool with_rel = rng.next_bool(0.35);
    const std::uint64_t client_seed = derive_seed(seed, 1);
    const std::uint64_t rel_seed = derive_seed(seed, 2);

    const SystemRun reference(cfg, client_seed, span, with_rel, rel_seed,
                              /*fast_forward=*/false, /*burst=*/false, window);

    // The other three cells of {per-cycle, fast-forward} x {dense stretch
    // off, on}: the resident front end rides the same contract as
    // fast-forward.
    for (const bool ff : {false, true}) {
      for (const bool burst : {false, true}) {
        if (!ff && !burst) continue;  // the reference itself
        const SystemRun run(cfg, client_seed, span, with_rel, rel_seed, ff,
                            burst, window);
        SCOPED_TRACE(std::string(ff ? "fast-forward" : "per-cycle") +
                     (burst ? "+burst" : ""));
        expect_system_runs_eq(reference, run);
      }
    }

    // WCET oracles (core/wcet.hpp): the run can never move more bytes
    // than the analytical channel bound, and — when the fixed points
    // converge and no self-managed maintenance can lock banks for
    // workload-defined stretches — the worst simulated read latency
    // respects the analytical latency bound.
    const dram::ControllerStats& st = reference.system().controller().stats();
    EXPECT_LE(st.bytes_transferred,
              core::wcet_max_bytes(cfg, reference.wclients, window))
        << "bytes bound violated";
    const core::WcetAnalysis wa = core::analyze_wcet(cfg, reference.wclients);
    const bool self_managed_maint = with_rel && rel_seed % 2 == 0;
    if (wa.latency_bounded && !self_managed_maint) {
      EXPECT_LE(st.read_latency.max(), wa.latency_cycles)
          << "latency bound violated (bound=" << wa.latency_cycles << ")";
    }

    if (HasFailure()) {
      // One reproducer is enough; later trials would only add noise.
      FAIL() << "reproduce with " << describe_trial(trial, seed, cfg);
    }
  }
}

// Snapshot/restore mid-trial: serialize the full simulator state at a
// random cut cycle, rebuild a fresh same-recipe system, restore, continue
// — the completed run must be bit-identical to the straight-through run
// (stats, per-client stats, command log, intervals, reliability log), and
// both final states must re-serialize to the identical bytes.
TEST(DifferentialFuzz, MidTrialSnapshotRestoreBitIdentical) {
  for (int trial = 0; trial < kSystemTrials; ++trial) {
    const std::uint64_t seed =
        derive_seed(kRootSeed, 30'000 + static_cast<std::uint64_t>(trial));
    Rng rng(seed);
    const DramConfig cfg = random_config(rng);
    SCOPED_TRACE(describe_trial(trial, seed, cfg));
    const std::uint64_t span = cfg.capacity().byte_count();
    const std::uint64_t window = 20'000 + rng.next_below(30'000);
    const bool with_rel = rng.next_bool(0.5);
    const std::uint64_t cut = 1 + rng.next_below(window - 1);
    // Half the snapshot trials run with the dense stretch on: a cut can
    // land mid-streak, so restore must rebuild the pre-decoded queue
    // arrays bit-exactly (Controller::load re-derives them from the queue).
    const bool burst = trial % 2 == 1;
    const std::uint64_t client_seed = derive_seed(seed, 1);
    const std::uint64_t rel_seed = derive_seed(seed, 2);

    const SystemRun straight(cfg, client_seed, span, with_rel, rel_seed,
                             /*fast_forward=*/true, burst, window);
    const SnapshotRun resumed(cfg, client_seed, span, with_rel, rel_seed,
                              burst, cut, window);
    expect_system_runs_eq(straight, resumed);

    // Equal states must serialize to equal bytes (sorted-map dumps make
    // the encoding canonical).
    EXPECT_EQ(straight.system().save_snapshot(),
              resumed.system().save_snapshot());
    if (with_rel) {
      SnapshotWriter wa;
      SnapshotWriter wb;
      straight.rel->save(wa);
      resumed.rel->save(wb);
      EXPECT_EQ(wa.payload(), wb.payload());
    }

    if (HasFailure()) {
      FAIL() << "reproduce with " << describe_trial(trial, seed, cfg)
             << " cut=" << cut;
    }
  }
}

// ---------------------------------------------------------------------------
// Evaluator differential: the regenerate-per-point reference vs the
// shared-arena + memoized path must produce bit-identical sweep metrics,
// pareto fronts, and yield curves at 1, 2 and 8 threads — including on a
// warm (fully memoized) re-sweep.

core::SystemConfig random_system_config(Rng& rng, int index) {
  core::SystemConfig c;
  c.name = "fuzz-cfg-" + std::to_string(index);
  c.integration = pick(rng, {core::Integration::kEmbedded,
                             core::Integration::kDiscrete});
  c.process = pick(rng, {core::BaseProcess::kDramBased,
                         core::BaseProcess::kLogicBased,
                         core::BaseProcess::kMerged});
  c.required_memory = Capacity::mbit(pick(rng, {8u, 16u, 32u}));
  c.interface_bits = pick(rng, {64u, 128u, 256u});
  c.banks = pick(rng, {2u, 4u, 8u});
  c.page_bytes = pick(rng, {1024u, 2048u});
  c.page_policy = pick(rng, {dram::PagePolicy::kOpen,
                             dram::PagePolicy::kClosed});
  c.scheduler = pick(rng, {dram::SchedulerKind::kFcfs,
                           dram::SchedulerKind::kFrFcfs,
                           dram::SchedulerKind::kReadFirst,
                           dram::SchedulerKind::kTdm});
  c.reliability = pick(rng, {core::ReliabilityPreset::kOff,
                             core::ReliabilityPreset::kEccOnly});
  c.logic_kgates = 200.0 + static_cast<double>(rng.next_below(800));
  return c;
}

void expect_metrics_eq(const core::Metrics& a, const core::Metrics& b) {
  EXPECT_EQ(a.name, b.name);
  EXPECT_EQ(a.die_area_mm2, b.die_area_mm2);
  EXPECT_EQ(a.memory_area_mm2, b.memory_area_mm2);
  EXPECT_EQ(a.logic_area_mm2, b.logic_area_mm2);
  EXPECT_EQ(a.sustained_gbyte_s, b.sustained_gbyte_s);
  EXPECT_EQ(a.peak_gbyte_s, b.peak_gbyte_s);
  EXPECT_EQ(a.bandwidth_efficiency, b.bandwidth_efficiency);
  EXPECT_EQ(a.avg_read_latency_ns, b.avg_read_latency_ns);
  EXPECT_EQ(a.worst_read_latency_ns, b.worst_read_latency_ns);
  EXPECT_EQ(a.wcet_read_latency_ns, b.wcet_read_latency_ns);
  EXPECT_EQ(a.wcet_bandwidth_gbyte_s, b.wcet_bandwidth_gbyte_s);
  EXPECT_EQ(a.io_power_mw, b.io_power_mw);
  EXPECT_EQ(a.total_power_mw, b.total_power_mw);
  EXPECT_EQ(a.installed_mbit, b.installed_mbit);
  EXPECT_EQ(a.waste_mbit, b.waste_mbit);
  EXPECT_EQ(a.unit_cost_usd, b.unit_cost_usd);
  EXPECT_EQ(a.logic_speed, b.logic_speed);
  EXPECT_EQ(a.junction_c, b.junction_c);
  EXPECT_EQ(a.retention_ms, b.retention_ms);
  EXPECT_EQ(a.refresh_overhead, b.refresh_overhead);
  EXPECT_EQ(a.sampled, b.sampled);
  EXPECT_EQ(a.sample_windows, b.sample_windows);
  EXPECT_EQ(a.sustained_gbyte_s_ci, b.sustained_gbyte_s_ci);
  EXPECT_EQ(a.avg_read_latency_ns_ci, b.avg_read_latency_ns_ci);
}

std::vector<core::ParetoPoint> project(const std::vector<core::Metrics>& ms) {
  std::vector<core::ParetoPoint> pts(ms.size());
  for (std::size_t i = 0; i < ms.size(); ++i) {
    pts[i].index = i;
    pts[i].objectives = {ms[i].unit_cost_usd, -ms[i].sustained_gbyte_s,
                         ms[i].total_power_mw};
  }
  return pts;
}

TEST(DifferentialFuzz, EvaluatorArenaMemoBitIdenticalAcrossThreadCounts) {
  for (int trial = 0; trial < kEvaluatorTrials; ++trial) {
    const std::uint64_t seed =
        derive_seed(kRootSeed, 20'000 + static_cast<std::uint64_t>(trial));
    Rng rng(seed);
    SCOPED_TRACE("trial=" + std::to_string(trial) + " seed=" +
                 std::to_string(seed));

    std::vector<core::SystemConfig> cfgs;
    const int n_cfgs = 4 + static_cast<int>(rng.next_below(3));
    for (int i = 0; i < n_cfgs; ++i) {
      cfgs.push_back(random_system_config(rng, i));
    }
    core::EvalWorkload w;
    w.demand_gbyte_s = 0.5 + rng.next_double() * 3.0;
    w.stream_clients = 1 + static_cast<unsigned>(rng.next_below(3));
    w.random_clients = 1 + static_cast<unsigned>(rng.next_below(3));
    w.sim_cycles = 20'000 + rng.next_below(20'000);
    w.seed = derive_seed(seed, 3);
    // A third of the trials exercise the checkpoint-and-fan-out path: the
    // reference warms every point in place, the candidates restore the
    // shared warm snapshot — bit-identical by contract.
    w.warmup_cycles = trial % 3 == 0 ? 4'000 + rng.next_below(8'000) : 0;

    // Reference: regenerate clients per point, no memoization, no warm-up
    // checkpointing, no dense stretch, serial. The candidate evaluators
    // keep the dense stretch on (the default), so every sweep
    // differentially checks the resident front end through the evaluator
    // pipeline.
    core::Evaluator ref;
    ref.set_workload_arena(false);
    ref.set_memoize(false);
    ref.set_checkpoint(false);
    ref.set_burst_issue(false);
    ref.set_threads(1);
    const std::vector<core::Metrics> want = ref.sweep(cfgs, w);
    const std::vector<std::size_t> want_front = core::pareto_front(
        project(want));

    for (const unsigned threads : {1u, 2u, 8u}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      core::Evaluator ev;  // arena + memo on by default
      ev.set_threads(threads);
      const std::vector<core::Metrics> cold = ev.sweep(cfgs, w);
      ASSERT_EQ(cold.size(), want.size());
      for (std::size_t i = 0; i < want.size(); ++i) {
        SCOPED_TRACE("config " + std::to_string(i) + " (cold)");
        expect_metrics_eq(want[i], cold[i]);
      }
      // Warm re-sweep: every point must come from the memo, unchanged.
      const std::vector<core::Metrics> warm = ev.sweep(cfgs, w);
      EXPECT_GE(ev.memo_hits(), cfgs.size());
      // The arena cache populated during the cold sweep (hits only occur
      // when configs share workload geometry, which random configs need
      // not; the memo short-circuits the warm pass before arena lookup).
      EXPECT_GT(ev.workload_cache().entries(), 0u);
      for (std::size_t i = 0; i < want.size(); ++i) {
        SCOPED_TRACE("config " + std::to_string(i) + " (warm)");
        expect_metrics_eq(want[i], warm[i]);
      }
      EXPECT_EQ(core::pareto_front(project(cold)), want_front);
      EXPECT_EQ(core::pareto_front(project(warm)), want_front);
    }

    // Persistent-store tier: a store-backed cold sweep must match the
    // reference, and a fresh evaluator re-opening the same .edrs file
    // ("new process") must serve every point from the store, bit-exact.
    {
      // Process-unique path: the quick and soak binaries run the same
      // trial numbers concurrently under ctest -j and must not share a
      // store file.
      const std::string store_path =
          (std::filesystem::temp_directory_path() /
           ("fuzz_trial_" + std::to_string(::getpid()) + "_" +
            std::to_string(trial) + ".edrs"))
              .string();
      std::filesystem::remove(store_path);
      {
        core::Evaluator ev;
        ev.set_threads(1);
        ev.set_result_store(
            std::make_shared<service::ResultStore>(store_path));
        const std::vector<core::Metrics> cold = ev.sweep(cfgs, w);
        for (std::size_t i = 0; i < want.size(); ++i) {
          SCOPED_TRACE("config " + std::to_string(i) + " (store cold)");
          expect_metrics_eq(want[i], cold[i]);
        }
      }
      core::Evaluator fresh;
      fresh.set_threads(1);
      fresh.set_result_store(
          std::make_shared<service::ResultStore>(store_path));
      const std::vector<core::Metrics> replayed = fresh.sweep(cfgs, w);
      for (std::size_t i = 0; i < want.size(); ++i) {
        SCOPED_TRACE("config " + std::to_string(i) + " (store warm)");
        expect_metrics_eq(want[i], replayed[i]);
      }
      EXPECT_EQ(fresh.cache_stats().store.hits, cfgs.size());
      std::filesystem::remove(store_path);
    }

    // Yield trials ride the same thread-count contract (chunked per-trial
    // seeds; no workload to compile, but the sweep pipeline calls it).
    const bist::DefectMix mix;
    const auto y1 = bist::simulate_yield(1.3, mix, 2, 2, 20'000,
                                         derive_seed(seed, 4), 1);
    for (const unsigned threads : {2u, 8u}) {
      const auto yn = bist::simulate_yield(1.3, mix, 2, 2, 20'000,
                                           derive_seed(seed, 4), threads);
      EXPECT_EQ(y1.yield, yn.yield) << "threads=" << threads;
      EXPECT_EQ(y1.raw_yield, yn.raw_yield) << "threads=" << threads;
      EXPECT_EQ(y1.trials, yn.trials) << "threads=" << threads;
      expect_acc_eq(y1.spares_used, yn.spares_used, "yield spares_used");
    }
    if (HasFailure()) {
      FAIL() << "reproduce with trial=" << trial << " seed=" << seed;
    }
  }
}

}  // namespace
}  // namespace edsim
