// The autonomous in-DRAM maintenance subsystem: Misra-Gries activation
// tracking (no-undercount guarantee), RAIDR-style retention binning,
// neighbor-refresh RowHammer defense, idle-slot claim arbitration with
// its bank-lock protocol, the self-managed/controller-refresh switch,
// and per-cycle vs fast-forward equivalence of all of it.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "common/rng.hpp"
#include "common/snapshot.hpp"
#include "dram/address_map.hpp"
#include "dram/command_log.hpp"
#include "dram/controller.hpp"
#include "dram/presets.hpp"
#include "dram/protocol_checker.hpp"
#include "reliability/maintenance.hpp"
#include "reliability/manager.hpp"

namespace edsim::reliability {
namespace {

using dram::Command;
using dram::CommandRecord;
using dram::Controller;
using dram::DramConfig;
using dram::Request;

// 4 Mbit / 4 banks / 1 KB pages -> 128 rows per bank, 64-bit interface.
DramConfig small_cfg() {
  return dram::presets::edram_module(4, 64, 4, 1024);
}

/// Attack-grade reliability config: no transients, no weak cells — only
/// the RowHammer process, so every counter movement is attributable.
/// Flip threshold 128 = 4x the defense threshold 32 (the margin rule:
/// the tracker estimate may lag one defense interval).
ReliabilityConfig hammer_reliability(bool defended) {
  ReliabilityConfig rc;
  rc.inject.seed = 7;
  rc.inject.transient_per_mbit_ms = 0.0;
  rc.inject.weak_cells = 0;
  rc.inject.hammer_flip_threshold = 128;
  rc.scrub_enabled = false;
  rc.maintenance.enabled = defended;
  rc.maintenance.bins = 2;
  rc.maintenance.base_window_cycles = 500'000;  // keep bin sweeps out of frame
  rc.maintenance.hammer_threshold = 32;
  rc.maintenance.hammer_table_rows = 4;
  rc.maintenance.hammer_reset_window = 1u << 30;
  return rc;
}

// ---------------------------------------------------------------------------
// HammerTracker: the bounded-counter guarantee.

TEST(HammerTracker, NeverUndercountsAnyRow) {
  HammerTracker t(4);
  std::map<unsigned, std::uint32_t> truth;
  Rng rng(123);
  for (int i = 0; i < 5'000; ++i) {
    // Skewed stream: a few heavy hitters over a wide tail, the regime the
    // summary is built for.
    const unsigned row = rng.next_bool(0.6)
                             ? static_cast<unsigned>(rng.next_below(3))
                             : static_cast<unsigned>(rng.next_below(64));
    ++truth[row];
    t.record(row);
    ASSERT_GE(t.estimate(row), truth[row]) << "row " << row << " step " << i;
  }
  for (const auto& [row, count] : truth) {
    EXPECT_GE(t.estimate(row), count) << "row " << row;
  }
}

TEST(HammerTracker, ExactWhileTableHasRoom) {
  HammerTracker t(8);
  for (unsigned row = 0; row < 8; ++row) {
    for (unsigned n = 0; n < row + 1; ++n) t.record(row);
  }
  for (unsigned row = 0; row < 8; ++row) {
    EXPECT_EQ(t.estimate(row), row + 1);
  }
  EXPECT_EQ(t.spill(), 0u);
  EXPECT_EQ(t.estimate(99), 0u);  // untracked, empty floor
}

TEST(HammerTracker, ResetRowDropsToSpillFloorAndEpochClears) {
  HammerTracker t(2);
  for (int i = 0; i < 10; ++i) t.record(1);
  for (int i = 0; i < 4; ++i) t.record(2);
  for (int i = 0; i < 3; ++i) t.record(3);  // overflows into the floor
  const std::uint32_t floor = t.spill();
  EXPECT_GT(floor, 0u);
  t.reset_row(1);
  EXPECT_EQ(t.estimate(1), floor);
  // Untracked rows inherit the floor: still conservative.
  EXPECT_EQ(t.estimate(77), floor);
  t.reset_epoch();
  EXPECT_EQ(t.spill(), 0u);
  EXPECT_EQ(t.estimate(1), 0u);
  EXPECT_EQ(t.estimate(2), 0u);
}

// ---------------------------------------------------------------------------
// Retention binning (RAIDR): weak rows land in the largest safe bin.

TEST(MaintenanceEngine, BinsRespectTheRetentionMargin) {
  const DramConfig cfg = small_cfg();
  FaultInjectorConfig icfg;
  icfg.seed = 42;
  icfg.weak_cells = 24;
  const FaultInjector injector(cfg, icfg);

  MaintenanceConfig mc;
  mc.enabled = true;
  mc.bins = 3;
  const MaintenanceEngine engine(cfg, mc, injector);

  // Base window derives 80% of the weakest cell's retention.
  double weakest = injector.retention_cycles();
  injector.for_each_weak_row([&](unsigned, unsigned, double min_ret) {
    weakest = std::min(weakest, min_ret);
  });
  EXPECT_EQ(engine.base_window(),
            static_cast<std::uint64_t>(0.8 * weakest));
  for (unsigned i = 0; i < engine.bins(); ++i) {
    EXPECT_EQ(engine.bin_window(i), engine.base_window() << i);
  }

  // Every weak row sits in the *largest* bin whose window still undercuts
  // its weakest cell's retention by the 80% margin.
  std::set<std::pair<unsigned, unsigned>> weak_rows;
  injector.for_each_weak_row([&](unsigned bank, unsigned row,
                                 double min_ret) {
    weak_rows.insert({bank, row});
    const unsigned bin = engine.bin_of(bank, row);
    if (bin > 0) {
      EXPECT_LE(static_cast<double>(engine.bin_window(bin)), 0.8 * min_ret)
          << "bank " << bank << " row " << row;
    }
    if (bin + 1 < engine.bins()) {
      EXPECT_GT(static_cast<double>(engine.bin_window(bin + 1)),
                0.8 * min_ret)
          << "bank " << bank << " row " << row;
    }
  });
  ASSERT_FALSE(weak_rows.empty());

  // Rows without a weak cell need only the most relaxed sweep.
  for (unsigned b = 0; b < cfg.banks; ++b) {
    for (unsigned r = 0; r < cfg.rows_per_bank; ++r) {
      if (weak_rows.count({b, r}) == 0) {
        ASSERT_EQ(engine.bin_of(b, r), engine.bins() - 1)
            << "bank " << b << " row " << r;
      }
    }
  }
}

TEST(MaintenanceEngine, BinSweepsCoverEveryRowWithinTwoWindows) {
  const DramConfig cfg = small_cfg();
  FaultInjectorConfig icfg;
  icfg.seed = 5;
  icfg.weak_cells = 10;
  const FaultInjector injector(cfg, icfg);

  MaintenanceConfig mc;
  mc.enabled = true;
  mc.bins = 3;
  mc.base_window_cycles = 4'000;
  mc.rows_per_op = 8;
  MaintenanceEngine engine(cfg, mc, injector);

  // Greedy claimer: consume every due op the moment it is pending. The
  // union of swept rows over two top-bin windows must be the whole array
  // (one window gives every bin >= one full rotation; two absorb the
  // staggered start).
  std::vector<std::set<unsigned>> swept(cfg.banks);
  const std::uint64_t horizon = 2 * engine.bin_window(engine.bins() - 1);
  for (std::uint64_t cycle = 0; cycle < horizon; ++cycle) {
    for (unsigned b = 0; b < cfg.banks; ++b) {
      while (engine.pending(b, cycle)) {
        const auto c = engine.claim(b, cycle);
        ASSERT_NE(c.kind, MaintenanceEngine::Claim::Kind::kNone);
        ASSERT_EQ(c.kind, MaintenanceEngine::Claim::Kind::kBinSweep);
        EXPECT_EQ(c.duration,
                  static_cast<unsigned>(c.rows.size()) * cfg.timing.tRC);
        for (const unsigned r : c.rows) swept[b].insert(r);
      }
    }
  }
  for (unsigned b = 0; b < cfg.banks; ++b) {
    EXPECT_EQ(swept[b].size(), cfg.rows_per_bank) << "bank " << b;
  }
}

TEST(MaintenanceEngine, NextCycleBoundsTheSchedule) {
  const DramConfig cfg = small_cfg();
  FaultInjectorConfig icfg;
  icfg.seed = 5;
  const FaultInjector injector(cfg, icfg);

  MaintenanceConfig mc;
  mc.enabled = true;
  mc.bins = 2;
  mc.base_window_cycles = 2'000;
  mc.hammer_threshold = 4;
  MaintenanceEngine engine(cfg, mc, injector);

  // Nothing due at cycle 0; next_cycle names the first due cycle, and no
  // pending() flip happens before it (the fast-forward contract).
  const std::uint64_t first = engine.next_cycle(0);
  ASSERT_NE(first, dram::kNeverCycle);
  for (std::uint64_t c = 0; c < first; ++c) {
    for (unsigned b = 0; b < cfg.banks; ++b) {
      ASSERT_FALSE(engine.pending(b, c)) << "bank " << b << " cycle " << c;
    }
  }
  // A queued neighbor refresh makes the schedule immediate.
  for (int i = 0; i < 4; ++i) engine.record_activation(0, 10, 100);
  EXPECT_TRUE(engine.pending(0, 100));
  EXPECT_TRUE(engine.urgent(0, 100));
  EXPECT_EQ(engine.next_cycle(100), 100u);
  const auto c = engine.claim(0, 100);
  EXPECT_EQ(c.kind, MaintenanceEngine::Claim::Kind::kNeighbor);
  EXPECT_EQ(c.aggressor, 10u);
  ASSERT_EQ(c.rows.size(), 2u);
  EXPECT_EQ(c.rows[0], 9u);
  EXPECT_EQ(c.rows[1], 11u);
}

// ---------------------------------------------------------------------------
// The engine's O(1) queries against their per-bin definitions: the engine
// keeps one earliest-due cycle per bank, so every schedule mutation must
// keep it current. The loops below are the definitions, walking every bin.

bool pending_by_bins(const MaintenanceEngine& e, unsigned bank,
                     std::uint64_t cycle) {
  if (e.dropped(bank)) return false;
  if (e.neighbor_queued(bank) != 0) return true;
  for (unsigned i = 0; i < e.bins(); ++i) {
    const std::uint64_t due = e.bin_due(bank, i);
    if (due != dram::kNeverCycle && due <= cycle) return true;
  }
  return false;
}

bool urgent_by_bins(const MaintenanceEngine& e, unsigned bank,
                    std::uint64_t cycle) {
  if (e.dropped(bank)) return false;
  if (e.neighbor_queued(bank) != 0) return true;
  for (unsigned i = 0; i < e.bins(); ++i) {
    const std::uint64_t due = e.bin_due(bank, i);
    if (due != dram::kNeverCycle && due + e.slack() <= cycle) return true;
  }
  return false;
}

std::uint64_t next_cycle_by_bins(const MaintenanceEngine& e, unsigned banks,
                                 std::uint64_t now) {
  std::uint64_t ne = dram::kNeverCycle;
  for (unsigned b = 0; b < banks; ++b) {
    if (e.dropped(b)) continue;
    if (e.neighbor_queued(b) != 0) return now;
    for (unsigned i = 0; i < e.bins(); ++i) {
      const std::uint64_t due = e.bin_due(b, i);
      if (due == dram::kNeverCycle) continue;
      ne = std::min(ne, due > now ? due : std::max(now, due + e.slack()));
    }
  }
  return ne;
}

TEST(MaintenanceEngine, QueriesMatchTheirPerBinDefinitions) {
  // banks() and next_cycle() also answer "nothing due" from a cached
  // minimum of the per-bank due cycles, so the probes include the cycles
  // just before and at the earliest due bin, where a stale minimum would
  // first show, and the op mix re-bins the weak cells (rebuild_bins).
  const DramConfig cfg = small_cfg();
  std::vector<std::unique_ptr<FaultInjector>> injectors;
  for (const unsigned weak : {12u, 0u, 24u}) {
    FaultInjectorConfig icfg;
    icfg.seed = weak == 12 ? 11 : 40 + weak;
    icfg.weak_cells = weak;
    injectors.push_back(std::make_unique<FaultInjector>(cfg, icfg));
  }

  MaintenanceConfig mc;
  mc.enabled = true;
  mc.bins = 3;
  mc.base_window_cycles = 3'000;
  mc.rows_per_op = 4;
  mc.hammer_table_rows = 2;
  mc.hammer_reset_window = 50'000;

  for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u, 6u}) {
    // Seeds 5 and 6 leave the RowHammer defense off, so the neighbor
    // queues stay empty and every query takes the due-cycle path.
    mc.hammer_threshold = seed <= 4 ? 3 : 0;
    const FaultInjector* injector = injectors[seed % injectors.size()].get();
    auto engine = std::make_unique<MaintenanceEngine>(cfg, mc, *injector);
    Rng rng(seed);
    std::uint64_t cycle = 0;
    for (int step = 0; step < 4'000; ++step) {
      const auto bank = static_cast<unsigned>(rng.next_below(cfg.banks));
      const std::uint64_t op = rng.next_below(1'000);
      if (op < 450) {
        engine->claim(bank, cycle);
      } else if (op < 880) {
        // A few hot rows, so the tracker crosses the defense threshold.
        engine->record_activation(
            bank, static_cast<unsigned>(rng.next_below(6)), cycle);
      } else if (op < 881) {  // rare: a dropped bank stays dropped
        engine->drop_bank(bank);
      } else if (op < 900) {
        injector = injectors[rng.next_below(injectors.size())].get();
        engine->rebuild_bins(*injector);
      } else {
        SnapshotWriter w;
        engine->save(w);
        const std::vector<std::uint8_t> blob = w.seal();
        SnapshotReader r(blob);
        auto restored = std::make_unique<MaintenanceEngine>(cfg, mc, *injector);
        restored->load(r);
        r.expect_end();
        engine = std::move(restored);
      }
      // Short steps walk through due cycles; long ones cross the slack.
      cycle += rng.next_bool(0.9) ? rng.next_below(64) : rng.next_below(2'000);

      // The earliest due cycle over every bin, by brute force.
      std::uint64_t earliest = dram::kNeverCycle;
      for (unsigned b = 0; b < cfg.banks; ++b) {
        for (unsigned i = 0; i < engine->bins(); ++i) {
          earliest = std::min(earliest, engine->bin_due(b, i));
        }
      }
      std::vector<std::uint64_t> probes = {
          cycle, cycle + rng.next_below(200), cycle + engine->slack()};
      if (earliest != dram::kNeverCycle) {
        probes.push_back(earliest);
        if (earliest > 0) probes.push_back(earliest - 1);
      }
      for (const std::uint64_t at : probes) {
        dram::MaintenanceBanks want;
        for (unsigned b = 0; b < cfg.banks; ++b) {
          const bool p = pending_by_bins(*engine, b, at);
          const bool u = urgent_by_bins(*engine, b, at);
          ASSERT_EQ(engine->pending(b, at), p)
              << "seed " << seed << " step " << step << " bank " << b;
          ASSERT_EQ(engine->urgent(b, at), u)
              << "seed " << seed << " step " << step << " bank " << b;
          want.pending |= std::uint64_t{p} << b;
          want.urgent |= std::uint64_t{u} << b;
        }
        const dram::MaintenanceBanks got = engine->banks(at);
        ASSERT_EQ(got.pending, want.pending)
            << "seed " << seed << " step " << step << " at " << at;
        ASSERT_EQ(got.urgent, want.urgent)
            << "seed " << seed << " step " << step << " at " << at;
        ASSERT_EQ(engine->next_cycle(at),
                  next_cycle_by_bins(*engine, cfg.banks, at))
            << "seed " << seed << " step " << step << " at " << at;
      }
    }
  }
}

TEST(MaintenanceEngine, CachedScheduleMatchesARestoredTwinAtEveryCycle) {
  // banks() and next_cycle() are computed once per window in which the
  // schedule cannot change and answered from it until a mutation drops
  // it. A twin restored from the engine's snapshot starts with no window,
  // so at every cycle — through claims, activations that queue neighbor
  // refreshes, re-binning, loading an older snapshot and a dropped bank —
  // the two must answer alike.
  const DramConfig cfg = small_cfg();
  std::vector<std::unique_ptr<FaultInjector>> injectors;
  for (const unsigned weak : {12u, 24u}) {
    FaultInjectorConfig icfg;
    icfg.seed = 11 + weak;
    icfg.weak_cells = weak;
    injectors.push_back(std::make_unique<FaultInjector>(cfg, icfg));
  }
  MaintenanceConfig mc;
  mc.enabled = true;
  mc.bins = 3;
  mc.base_window_cycles = 3'000;
  mc.rows_per_op = 4;
  mc.op_slack_cycles = 150;
  mc.hammer_threshold = 6;
  mc.hammer_table_rows = 2;
  mc.hammer_reset_window = 20'000;

  MaintenanceEngine engine(cfg, mc, *injectors[0]);
  Rng rng(29);
  std::vector<std::uint8_t> older;  // a snapshot from ~2,000 cycles back
  std::uint64_t claims = 0, neighbors = 0, steady = 0;
  bool dropped = false;
  for (std::uint64_t cycle = 0; cycle < 24'000; ++cycle) {
    const dram::MaintenanceBanks before = engine.banks(cycle);
    if (rng.next_bool(0.3) && (before.pending | before.urgent) != 0) {
      // Claim one bank with work, as the controller's arbitration would.
      const std::uint64_t work = before.pending | before.urgent;
      unsigned bank = static_cast<unsigned>(rng.next_below(cfg.banks));
      while ((work >> bank & 1u) == 0) bank = (bank + 1) % cfg.banks;
      if (engine.claim(bank, cycle).kind ==
          MaintenanceEngine::Claim::Kind::kNeighbor) {
        ++neighbors;
      }
      ++claims;
    }
    if (rng.next_bool(0.05)) {
      // A few hot rows, so the tracker crosses the defense threshold.
      engine.record_activation(static_cast<unsigned>(rng.next_below(cfg.banks)),
                               static_cast<unsigned>(rng.next_below(5)),
                               cycle);
    }
    if (cycle % 5'000 == 1'000) {
      engine.rebuild_bins(*injectors[cycle / 5'000 % 2 == 0 ? 1 : 0]);
    }
    if (cycle % 5'000 == 2'000) {
      SnapshotWriter w;
      engine.save(w);
      older = w.seal();
    }
    if (cycle % 5'000 == 4'000) {
      SnapshotReader r(older);
      engine.load(r);
      r.expect_end();
    }
    if (cycle >= 17'000 && !dropped && before.pending != 0) {
      // Retire a bank with work pending: it must leave the answers at once.
      engine.drop_bank(static_cast<unsigned>(std::countr_zero(before.pending)));
      dropped = true;
    }

    SnapshotWriter w;
    engine.save(w);
    const std::vector<std::uint8_t> blob = w.seal();
    SnapshotReader r(blob);
    MaintenanceEngine twin(cfg, mc, *injectors[0]);
    twin.load(r);
    r.expect_end();

    const dram::MaintenanceBanks got = engine.banks(cycle);
    const dram::MaintenanceBanks want = twin.banks(cycle);
    ASSERT_EQ(got.pending, want.pending) << "cycle " << cycle;
    ASSERT_EQ(got.urgent, want.urgent) << "cycle " << cycle;
    ASSERT_EQ(engine.next_cycle(cycle), twin.next_cycle(cycle))
        << "cycle " << cycle;
    if (got.pending == before.pending && got.urgent == before.urgent) {
      ++steady;
    }
  }
  // The walk really crossed the cases: bin sweeps and neighbor refreshes
  // claimed, the schedule changing under the walk, and most cycles
  // answered without a change.
  EXPECT_GT(claims, 1'000u);
  EXPECT_GT(neighbors, 10u);
  EXPECT_TRUE(dropped);
  EXPECT_LT(steady, 24'000u - 1'000u);
  EXPECT_GT(steady, 12'000u);
}

TEST(MaintenanceMasks, RetiredBankLeavesTheMasks) {
  // A retired bank leaves the schedule: its bit never shows, even with
  // work queued on every bank.
  DramConfig cfg = small_cfg();
  cfg.ecc_enabled = true;
  ReliabilityConfig rc = hammer_reliability(/*defended=*/true);
  rc.spare_rows_per_bank = 0;  // first uncorrectable error retires
  ReliabilityManager mgr(cfg, rc);
  for (unsigned b = 0; b < cfg.banks; ++b) {
    for (int i = 0; i < 32; ++i) mgr.on_activate(b, 10, 100);
  }
  const std::uint64_t all = (std::uint64_t{1} << cfg.banks) - 1;
  EXPECT_EQ(mgr.maintenance_banks(100).pending, all);
  EXPECT_EQ(mgr.maintenance_banks(100).urgent, all);

  mgr.inject_fault(1, 1, 0, 101);
  mgr.inject_fault(1, 1, 1, 101);
  mgr.on_access(dram::Coordinates{1, 1, 0}, dram::AccessType::kRead, 102);
  ASSERT_TRUE(mgr.bank_retired(1));
  EXPECT_EQ(mgr.maintenance_banks(102).pending, all & ~std::uint64_t{2});
  EXPECT_EQ(mgr.maintenance_banks(102).urgent, all & ~std::uint64_t{2});
}

// ---------------------------------------------------------------------------
// End-to-end RowHammer storm through the controller.

struct StormRun {
  Controller ctl;
  ReliabilityManager mgr;
  dram::CommandLog log;

  StormRun(const DramConfig& cfg, bool defended, std::uint64_t horizon,
           bool fast_forward)
      : ctl(cfg), mgr(cfg, hammer_reliability(defended)) {
    ctl.attach_command_log(&log);
    ctl.attach_reliability(&mgr);

    // Double-sided hammer on bank 1: alternate reads of rows 9 and 11
    // (each a row conflict, hence a fresh ACT) disturb victim row 10.
    // Arrivals sit at fixed cycles so the per-cycle and fast-forward
    // drives enqueue identically.
    const dram::AddressMapper map(cfg);
    const std::uint64_t agg[2] = {
        map.encode(dram::Coordinates{1, 9, 0}),
        map.encode(dram::Coordinates{1, 11, 0}),
    };
    unsigned flip = 0;
    std::uint64_t arrival = 5;
    while (ctl.cycle() < horizon) {
      while (arrival == ctl.cycle() && arrival < horizon) {
        Request r;
        r.addr = agg[flip];
        flip ^= 1u;
        r.type = dram::AccessType::kRead;
        EXPECT_TRUE(ctl.enqueue(r));
        arrival += 24;
      }
      if (fast_forward) {
        ctl.tick_until(std::min<std::uint64_t>(arrival, horizon));
      } else {
        ctl.tick();
      }
      ctl.drain_completed();
    }
    mgr.finalize(ctl.cycle());
  }
};

TEST(RowHammer, UndefendedStormCorruptsTheVictimRow) {
  StormRun run(small_cfg(), /*defended=*/false, 60'000,
               /*fast_forward=*/false);
  const auto& c = run.mgr.counters();
  EXPECT_GT(run.mgr.max_disturbance(), 128u);
  EXPECT_GT(c.disturb_flips, 0u);
  EXPECT_GT(c.uncorrected, 0u);  // no ECC: every flip is data corruption
  EXPECT_EQ(c.neighbor_rows, 0u);
  EXPECT_EQ(run.ctl.stats().maintenance_ops, 0u);
  EXPECT_TRUE(c.balanced());
}

TEST(RowHammer, DefendedStormKeepsEveryVictimClean) {
  StormRun run(small_cfg(), /*defended=*/true, 60'000,
               /*fast_forward=*/false);
  const auto& c = run.mgr.counters();
  // The defense refreshed neighbors before any row could cross the flip
  // threshold: zero flips, zero corruption, provable margin.
  EXPECT_LT(run.mgr.max_disturbance(), 128u);
  EXPECT_EQ(c.disturb_flips, 0u);
  EXPECT_EQ(c.uncorrected, 0u);
  EXPECT_GT(c.neighbor_rows, 0u);
  EXPECT_GT(run.ctl.stats().maintenance_ops, 0u);
  EXPECT_TRUE(c.balanced());
  // The controller-side REF path stood down.
  EXPECT_EQ(run.ctl.stats().refreshes, 0u);
}

TEST(RowHammer, StormIsBitIdenticalUnderFastForward) {
  for (const bool defended : {false, true}) {
    StormRun slow(small_cfg(), defended, 40'000, /*fast_forward=*/false);
    StormRun fast(small_cfg(), defended, 40'000, /*fast_forward=*/true);
    SCOPED_TRACE(defended ? "defended" : "undefended");
    EXPECT_EQ(slow.ctl.cycle(), fast.ctl.cycle());
    const auto& a = slow.mgr.counters();
    const auto& b = fast.mgr.counters();
    EXPECT_EQ(a.injected, b.injected);
    EXPECT_EQ(a.uncorrected, b.uncorrected);
    EXPECT_EQ(a.disturb_flips, b.disturb_flips);
    EXPECT_EQ(a.neighbor_rows, b.neighbor_rows);
    EXPECT_EQ(a.maint_ops, b.maint_ops);
    EXPECT_EQ(slow.ctl.stats().maintenance_ops,
              fast.ctl.stats().maintenance_ops);
    EXPECT_EQ(slow.mgr.max_disturbance(), fast.mgr.max_disturbance());
    EXPECT_EQ(slow.mgr.event_log(), fast.mgr.event_log());
    ASSERT_EQ(slow.log.size(), fast.log.size());
    const auto& ra = slow.log.records();
    const auto& rb = fast.log.records();
    for (std::size_t i = 0; i < ra.size(); ++i) {
      ASSERT_EQ(ra[i], rb[i]) << "record " << i;
    }
  }
}

TEST(RowHammer, ChronicVictimEscalatesToRemap) {
  DramConfig cfg = small_cfg();
  ReliabilityConfig rc = hammer_reliability(/*defended=*/false);
  rc.hammer_remap_after_flips = 2;
  Controller ctl(cfg);
  ReliabilityManager mgr(cfg, rc);
  ctl.attach_reliability(&mgr);
  // Hammer through the hooks directly: the escalation ladder is the
  // manager's own business.
  // Each ACT of row 9 disturbs rows 8 and 10; both victims flip at 128
  // and 256 disturbances, and the second flip crosses the escalation
  // threshold so both get remapped onto spares.
  for (std::uint32_t n = 0; n < 2 * 128; ++n) {
    mgr.on_activate(0, 9, n + 1);
  }
  EXPECT_EQ(mgr.counters().disturb_flips, 4u);
  EXPECT_EQ(mgr.counters().rows_remapped, 2u);
}

// ---------------------------------------------------------------------------
// Retention defense end-to-end: uniform tREFI sweep vs binned sweeps on
// an array with pathologically leaky cells.

ReliabilityConfig leaky_reliability(bool defended) {
  ReliabilityConfig rc;
  rc.inject.seed = 11;
  rc.inject.transient_per_mbit_ms = 0.0;
  rc.inject.weak_cells = 12;
  // Weak retention far below the uniform sweep period (rows x tREFI), so
  // the tREFI path provably leaks while the binned path keeps up.
  rc.inject.weak_retention_min_frac = 0.0005;
  rc.inject.weak_retention_max_frac = 0.0010;
  rc.scrub_enabled = false;
  rc.maintenance.enabled = defended;
  rc.maintenance.bins = 3;
  rc.maintenance.rows_per_op = 8;
  return rc;
}

TEST(RetentionBins, BinnedSweepHoldsLeakyCellsUniformSweepDoesNot) {
  const DramConfig cfg = small_cfg();
  const std::uint64_t horizon = 400'000;

  // Baseline: controller tREFI refresh, engine absent.
  Controller base_ctl(cfg);
  ReliabilityManager base_mgr(cfg, leaky_reliability(false));
  base_ctl.attach_reliability(&base_mgr);
  base_ctl.tick_until(horizon);
  base_mgr.finalize(horizon);
  EXPECT_GT(base_mgr.counters().injected, 0u);
  EXPECT_GT(base_ctl.stats().refreshes, 0u);
  EXPECT_TRUE(base_mgr.counters().balanced());

  // Defended: retention-aware sweeps claim idle slots instead.
  Controller ctl(cfg);
  ReliabilityManager mgr(cfg, leaky_reliability(true));
  ctl.attach_reliability(&mgr);
  ctl.tick_until(horizon);
  mgr.finalize(horizon);
  EXPECT_EQ(mgr.counters().injected, 0u);
  EXPECT_EQ(ctl.stats().refreshes, 0u);
  EXPECT_GT(ctl.stats().maintenance_ops, 0u);
  EXPECT_GT(mgr.counters().maint_rows, 0u);
  EXPECT_TRUE(mgr.counters().balanced());
}

TEST(RetentionBins, SelfManagedSwitchRevertsToControllerRefresh) {
  const DramConfig cfg = small_cfg();
  Controller ctl(cfg);
  ReliabilityManager mgr(cfg, leaky_reliability(true));
  mgr.set_self_managed(false);  // engine exists but stands down
  ctl.attach_reliability(&mgr);
  ctl.tick_until(100'000);
  EXPECT_GT(ctl.stats().refreshes, 0u);
  EXPECT_EQ(ctl.stats().maintenance_ops, 0u);
  EXPECT_EQ(mgr.counters().maint_ops, 0u);
  ASSERT_NE(mgr.maintenance_engine(), nullptr);
  EXPECT_FALSE(mgr.self_managed());
}

TEST(RetentionBins, IdleSweepIsBitIdenticalUnderFastForward) {
  const DramConfig cfg = small_cfg();
  const std::uint64_t horizon = 200'000;

  Controller slow(cfg);
  ReliabilityManager slow_mgr(cfg, leaky_reliability(true));
  dram::CommandLog slow_log;
  slow.attach_command_log(&slow_log);
  slow.attach_reliability(&slow_mgr);
  while (slow.cycle() < horizon) slow.tick();
  slow_mgr.finalize(horizon);

  Controller fast(cfg);
  ReliabilityManager fast_mgr(cfg, leaky_reliability(true));
  dram::CommandLog fast_log;
  fast.attach_command_log(&fast_log);
  fast.attach_reliability(&fast_mgr);
  fast.tick_until(horizon);
  fast_mgr.finalize(horizon);

  EXPECT_EQ(slow.cycle(), fast.cycle());
  EXPECT_EQ(slow.stats().maintenance_ops, fast.stats().maintenance_ops);
  EXPECT_EQ(slow_mgr.counters().maint_ops, fast_mgr.counters().maint_ops);
  EXPECT_EQ(slow_mgr.counters().maint_rows, fast_mgr.counters().maint_rows);
  EXPECT_EQ(slow_mgr.event_log(), fast_mgr.event_log());
  ASSERT_EQ(slow_log.size(), fast_log.size());
  const auto& ra = slow_log.records();
  const auto& rb = fast_log.records();
  for (std::size_t i = 0; i < ra.size(); ++i) {
    ASSERT_EQ(ra[i], rb[i]) << "record " << i;
  }
}

// ---------------------------------------------------------------------------
// Idle-slot arbitration: queued traffic keeps its bank from non-urgent
// maintenance; banks with nothing queued donate their slot.

/// Self-managed hooks with non-urgent work pending on every bank; records
/// each bank a claim is offered for.
class PendingEverywhere final : public dram::ReliabilityHooks {
 public:
  explicit PendingEverywhere(unsigned banks)
      : all_banks_((std::uint64_t{1} << banks) - 1) {}
  void on_cycle(std::uint64_t) override {}
  dram::AccessOutcome on_access(const dram::Coordinates&, dram::AccessType,
                                std::uint64_t) override {
    return dram::AccessOutcome::kClean;
  }
  void on_refresh(std::uint64_t) override {}
  bool self_managed() const override { return true; }
  dram::MaintenanceBanks maintenance_banks(std::uint64_t) const override {
    return {all_banks_, 0};
  }
  unsigned maintenance_claim(unsigned bank, std::uint64_t) override {
    claimed.insert(bank);
    return 8;
  }
  bool bank_retired(unsigned) const override { return false; }
  const dram::ReliabilityCounters& counters() const override { return c_; }

  std::set<unsigned> claimed;

 private:
  std::uint64_t all_banks_;
  dram::ReliabilityCounters c_;
};

TEST(MaintenanceArbitration, QueuedTrafficKeepsItsBankSlot) {
  const DramConfig cfg = small_cfg();
  for (unsigned busy = 0; busy < cfg.banks; ++busy) {
    Controller ctl(cfg);
    PendingEverywhere hooks(cfg.banks);
    ctl.attach_reliability(&hooks);
    // A row past the first bits of the row field, so a bank decoded from
    // the wrong bits of the queue's packed key would name another bank.
    std::uint64_t addr = 0;
    while (ctl.mapper().decode(addr).bank != busy ||
           ctl.mapper().decode(addr).row < 3) {
      addr += cfg.bytes_per_access();
    }
    Request r;
    r.addr = addr;
    ASSERT_TRUE(ctl.enqueue(r));
    ctl.tick();
    for (unsigned b = 0; b < cfg.banks; ++b) {
      EXPECT_EQ(hooks.claimed.count(b), b == busy ? 0u : 1u)
          << "bank " << b << " with traffic queued on bank " << busy;
    }
  }
}

// ---------------------------------------------------------------------------
// Lock-region protocol: the checker understands (and polices) MAINT.

TEST(MaintenanceProtocol, SelfManagedTracesVerifyClean) {
  StormRun run(small_cfg(), /*defended=*/true, 40'000,
               /*fast_forward=*/false);
  const dram::ProtocolChecker checker(small_cfg());
  const auto violations = checker.verify(run.log);
  EXPECT_TRUE(violations.empty())
      << (violations.empty() ? "" : violations.front().describe());
  // The defended trace really contains lock regions.
  bool saw_start = false, saw_end = false;
  for (const CommandRecord& r : run.log.records()) {
    saw_start |= r.cmd == Command::kMaintStart;
    saw_end |= r.cmd == Command::kMaintEnd;
  }
  EXPECT_TRUE(saw_start);
  EXPECT_TRUE(saw_end);
}

bool has_rule(const std::vector<dram::Violation>& vs, const char* needle) {
  return std::any_of(vs.begin(), vs.end(), [&](const dram::Violation& v) {
    return v.rule.find(needle) != std::string::npos;
  });
}

TEST(MaintenanceProtocol, CheckerFlagsCommandsInsideTheLock) {
  const DramConfig cfg = small_cfg();
  dram::CommandLog log;
  log.record({100, Command::kMaintStart, 0, /*duration=*/50, false});
  log.record({110, Command::kActivate, 0, 3, false});  // inside the lock
  log.record({130, Command::kMaintEnd, 0, 0, false});  // before expiry
  const dram::ProtocolChecker checker(cfg);
  const auto vs = checker.verify(log);
  EXPECT_TRUE(has_rule(vs, "ACT to bank under maintenance"));
  EXPECT_TRUE(has_rule(vs, "maintenance end before its lock expires"));
}

TEST(MaintenanceProtocol, CheckerFlagsUnbalancedAndOverlappingLocks) {
  const DramConfig cfg = small_cfg();
  {
    dram::CommandLog log;
    log.record({50, Command::kMaintEnd, 0, 0, false});
    const auto vs = dram::ProtocolChecker(cfg).verify(log);
    EXPECT_TRUE(has_rule(vs, "maintenance end without matching start"));
  }
  {
    dram::CommandLog log;
    log.record({100, Command::kMaintStart, 0, 40, false});
    log.record({120, Command::kMaintStart, 0, 40, false});
    const auto vs = dram::ProtocolChecker(cfg).verify(log);
    EXPECT_TRUE(has_rule(vs, "maintenance start on already-locked bank"));
  }
}

TEST(MaintenanceProtocol, LockMarkersDoNotOccupyTheCommandBus) {
  const DramConfig cfg = small_cfg();
  dram::CommandLog log;
  // MAINT-END expiring on the same cycle another bank drives a real
  // command is legal: the markers are internal, not bus commands.
  log.record({100, Command::kMaintStart, 0, 30, false});
  log.record({130, Command::kMaintEnd, 0, 0, false});
  log.record({130, Command::kActivate, 1, 5, false});
  const auto vs = dram::ProtocolChecker(cfg).verify(log);
  EXPECT_TRUE(vs.empty()) << vs.front().describe();
  // Two *real* commands in one cycle are still flagged.
  log.record({130, Command::kActivate, 2, 5, false});
  const auto vs2 = dram::ProtocolChecker(cfg).verify(log);
  EXPECT_TRUE(has_rule(vs2, "single command bus"));
}

}  // namespace
}  // namespace edsim::reliability
