// Predictable-performance suite (`ctest -L wcet`): the analytical WCET
// bounds of core/wcet.hpp used as oracles over the full scheduler-policy x
// address-mapping grid, the TDM slot-ownership protocol rule, TDM bound
// tightness on saturating strided sweeps, and the SIMD strided client's
// address patterns plus its arena/live/fast-forward/snapshot parity.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "clients/compiled_trace.hpp"
#include "common/error.hpp"
#include "clients/strided_gen.hpp"
#include "clients/system.hpp"
#include "core/wcet.hpp"
#include "dram/command_log.hpp"
#include "dram/controller.hpp"
#include "dram/protocol_checker.hpp"

namespace edsim {
namespace {

using clients::SimdStridedClient;
using clients::StridePattern;
using dram::CommandRecord;
using dram::DramConfig;

// ---------------------------------------------------------------------------
// SIMD strided client: address patterns.

TEST(SimdStridedClient, RowMajorWalksRowsThenWraps) {
  SimdStridedClient::Params p;
  p.base = 0x1000;
  p.width_bytes = 128;
  p.height = 4;
  p.burst_bytes = 32;
  p.pattern = StridePattern::kRowMajor;
  SimdStridedClient c(0, "s", p);
  ASSERT_EQ(c.accesses_per_pass(), 16u);  // 4 bursts/row * 4 rows
  EXPECT_EQ(c.address_of(0), 0x1000u);
  EXPECT_EQ(c.address_of(1), 0x1020u);
  EXPECT_EQ(c.address_of(3), 0x1060u);
  EXPECT_EQ(c.address_of(4), 0x1080u);  // next surface row (packed pitch)
  EXPECT_EQ(c.address_of(16), c.address_of(0));  // endless re-sweep
}

TEST(SimdStridedClient, ColumnMajorIsOneBurstPerRow) {
  SimdStridedClient::Params p;
  p.base = 0;
  p.width_bytes = 128;
  p.height = 4;
  p.pitch_bytes = 512;  // padded surface: pitch > width
  p.burst_bytes = 32;
  p.pattern = StridePattern::kColumnMajor;
  SimdStridedClient c(0, "s", p);
  EXPECT_EQ(c.address_of(0), 0u);
  EXPECT_EQ(c.address_of(1), 512u);     // down the column: one pitch apart
  EXPECT_EQ(c.address_of(3), 1536u);
  EXPECT_EQ(c.address_of(4), 32u);      // next column
  EXPECT_EQ(c.address_of(5), 544u);
}

TEST(SimdStridedClient, TiledWalksTileByTileRowMajorWithin) {
  SimdStridedClient::Params p;
  p.base = 0;
  p.width_bytes = 128;
  p.height = 4;
  p.burst_bytes = 32;
  p.tile_width_bytes = 64;
  p.tile_height = 2;
  p.pattern = StridePattern::kTiled;
  SimdStridedClient c(0, "s", p);
  // Tile 0 (top-left, 2x2 bursts): (r0,c0) (r0,c1) (r1,c0) (r1,c1).
  EXPECT_EQ(c.address_of(0), 0u);
  EXPECT_EQ(c.address_of(1), 32u);
  EXPECT_EQ(c.address_of(2), 128u);
  EXPECT_EQ(c.address_of(3), 160u);
  // Tile 1 (top-right) starts at x = 64.
  EXPECT_EQ(c.address_of(4), 64u);
  // Tile 2 (bottom-left) starts at row 2.
  EXPECT_EQ(c.address_of(8), 256u);
}

TEST(SimdStridedClient, RejectsGeometryTheBurstCannotTile) {
  SimdStridedClient::Params p;
  p.width_bytes = 100;  // not a multiple of burst
  p.burst_bytes = 32;
  EXPECT_THROW(SimdStridedClient(0, "s", p), ConfigError);
  p.width_bytes = 128;
  p.pitch_bytes = 64;  // pitch shorter than the row
  EXPECT_THROW(SimdStridedClient(0, "s", p), ConfigError);
}

// ---------------------------------------------------------------------------
// Arena/live/fast-forward/snapshot parity for every stride pattern.

DramConfig strided_test_config() {
  DramConfig cfg;
  cfg.interface_bits = 32;
  cfg.page_bytes = 1024;
  cfg.rows_per_bank = 512;
  return cfg;
}

SimdStridedClient::Params pattern_params(StridePattern pat, unsigned burst) {
  SimdStridedClient::Params p;
  p.base = 0x2000;
  p.width_bytes = 2048;
  p.height = 16;
  p.pitch_bytes = 4096;  // padded: rows land in distinct DRAM pages
  p.burst_bytes = burst;
  p.tile_width_bytes = 256;
  p.tile_height = 4;
  p.pattern = pat;
  p.period_cycles = 7;
  p.total_requests = 400;
  return p;
}

struct ParityRun {
  clients::MemorySystem sys;
  dram::CommandLog log;

  ParityRun(const DramConfig& cfg, const SimdStridedClient::Params& p,
            bool arena, bool fast_forward, std::uint64_t window)
      : sys(cfg, clients::ArbiterKind::kRoundRobin) {
    sys.set_fast_forward(fast_forward);
    sys.controller().attach_command_log(&log);
    if (arena) {
      sys.add_client(std::make_unique<clients::ArenaReplayClient>(
          0, "arena", clients::compile_simd_strided(p)));
    } else {
      sys.add_client(std::make_unique<SimdStridedClient>(0, "live", p));
    }
    sys.run(window);
  }
};

void expect_runs_eq(const ParityRun& a, const ParityRun& b) {
  const auto& sa = a.sys.controller().stats();
  const auto& sb = b.sys.controller().stats();
  EXPECT_EQ(sa.bytes_transferred, sb.bytes_transferred);
  EXPECT_EQ(sa.reads, sb.reads);
  EXPECT_EQ(sa.row_hits, sb.row_hits);
  EXPECT_EQ(sa.row_misses, sb.row_misses);
  ASSERT_EQ(a.log.size(), b.log.size());
  EXPECT_EQ(a.log.records(), b.log.records());
  EXPECT_EQ(a.sys.client_stats(0).completed, b.sys.client_stats(0).completed);
}

TEST(SimdStridedClient, ArenaReplayBitIdenticalAcrossModes) {
  const DramConfig cfg = strided_test_config();
  const std::uint64_t window = 6'000;
  for (const StridePattern pat :
       {StridePattern::kRowMajor, StridePattern::kColumnMajor,
        StridePattern::kTiled}) {
    SCOPED_TRACE(std::string("pattern=") + clients::to_string(pat));
    const auto p = pattern_params(pat, cfg.bytes_per_access());
    const ParityRun live_percycle(cfg, p, false, false, window);
    const ParityRun live_ff(cfg, p, false, true, window);
    const ParityRun arena_percycle(cfg, p, true, false, window);
    const ParityRun arena_ff(cfg, p, true, true, window);
    expect_runs_eq(live_percycle, live_ff);
    expect_runs_eq(live_percycle, arena_percycle);
    expect_runs_eq(live_percycle, arena_ff);
  }
}

TEST(SimdStridedClient, MidRunSnapshotRestoreBitIdentical) {
  const DramConfig cfg = strided_test_config();
  const std::uint64_t window = 6'000;
  const std::uint64_t cut = 2'500;
  for (const StridePattern pat :
       {StridePattern::kRowMajor, StridePattern::kColumnMajor,
        StridePattern::kTiled}) {
    SCOPED_TRACE(std::string("pattern=") + clients::to_string(pat));
    const auto p = pattern_params(pat, cfg.bytes_per_access());
    const ParityRun straight(cfg, p, false, true, window);

    clients::MemorySystem resumed(cfg, clients::ArbiterKind::kRoundRobin);
    resumed.add_client(std::make_unique<SimdStridedClient>(0, "live", p));
    resumed.run(cut);
    const std::vector<std::uint8_t> blob = resumed.save_snapshot();

    clients::MemorySystem fresh(cfg, clients::ArbiterKind::kRoundRobin);
    fresh.add_client(std::make_unique<SimdStridedClient>(0, "live", p));
    fresh.restore_snapshot(blob);
    fresh.run(window - cut);

    EXPECT_EQ(straight.sys.save_snapshot(), fresh.save_snapshot());
  }
}

// ---------------------------------------------------------------------------
// TDM slot ownership as a protocol rule.

TEST(TdmProtocol, ControllerRunIsSlotClean) {
  DramConfig cfg;
  cfg.scheduler = dram::SchedulerKind::kTdm;
  cfg.tdm_slot_cycles = 48;
  cfg.tdm_clients = 3;
  clients::MemorySystem sys(cfg, clients::ArbiterKind::kRoundRobin);
  dram::CommandLog log;
  sys.controller().attach_command_log(&log);
  for (unsigned i = 0; i < 3; ++i) {
    SimdStridedClient::Params p;
    p.base = i * (1u << 16);
    p.width_bytes = 2048;
    p.height = 8;
    p.burst_bytes = cfg.bytes_per_access();
    p.pattern = i % 2 ? StridePattern::kColumnMajor : StridePattern::kRowMajor;
    p.period_cycles = 3;
    sys.add_client(std::make_unique<SimdStridedClient>(
        i, "simd" + std::to_string(i), p));
  }
  sys.run(30'000);
  ASSERT_GT(log.size(), 100u);
  const dram::ProtocolChecker checker(cfg);
  const auto violations = checker.verify(log);
  EXPECT_TRUE(violations.empty())
      << (violations.empty() ? "" : violations.front().describe());
}

TEST(TdmProtocol, CheckerFlagsOutOfSlotIssue) {
  DramConfig cfg;
  cfg.scheduler = dram::SchedulerKind::kTdm;
  cfg.tdm_slot_cycles = 64;
  cfg.tdm_clients = 4;
  dram::CommandLog log;
  // Cycle 10 is inside slot 0; client 1 owns slot 1 — a violation...
  log.record(CommandRecord{10, dram::Command::kActivate, 0, 0, 1, false});
  // ...while housekeeping (kNoClient) is exempt wherever it lands.
  log.record(CommandRecord{20 + cfg.timing.tRCD, dram::Command::kRead, 0, 0,
                           CommandRecord::kNoClient, false});
  const dram::ProtocolChecker checker(cfg);
  const auto violations = checker.verify(log);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_NE(violations.front().rule.find("TDM slot violation"),
            std::string::npos)
      << violations.front().rule;

  // The same trace is clean once client 1's ACT sits in its own slot.
  dram::CommandLog ok;
  ok.record(CommandRecord{70, dram::Command::kActivate, 0, 0, 1, false});
  EXPECT_TRUE(checker.verify(ok).empty());
}

// ---------------------------------------------------------------------------
// WCET bounds as oracles over the policy x mapping grid.

TEST(WcetOracle, SimulatedNeverExceedsBoundAcrossPolicyMappingGrid) {
  const std::uint64_t window = 25'000;
  for (const auto sched :
       {dram::SchedulerKind::kFcfs, dram::SchedulerKind::kFcfsPerBank,
        dram::SchedulerKind::kFrFcfs, dram::SchedulerKind::kReadFirst,
        dram::SchedulerKind::kTdm}) {
    for (const auto map :
         {dram::AddressMapping::kRowBankCol, dram::AddressMapping::kBankRowCol,
          dram::AddressMapping::kRowColBank,
          dram::AddressMapping::kPermutedBank}) {
      DramConfig cfg;
      cfg.scheduler = sched;
      cfg.mapping = map;
      cfg.tdm_slot_cycles = 64;
      cfg.tdm_clients = 3;
      SCOPED_TRACE(std::string(to_string(sched)) + " / " + to_string(map));

      clients::MemorySystem sys(cfg, clients::ArbiterKind::kRoundRobin);
      dram::CommandLog log;
      sys.controller().attach_command_log(&log);
      std::vector<core::WcetClient> wclients;
      {
        clients::StreamClient::Params p;
        p.length = 1 << 18;
        p.burst_bytes = cfg.bytes_per_access();
        p.period_cycles = 120;
        p.total_requests = 150;
        sys.add_client(std::make_unique<clients::StreamClient>(0, "st", p));
        wclients.push_back(core::WcetClient{0, 120, 150});
      }
      {
        SimdStridedClient::Params p;
        p.base = 1 << 19;
        p.width_bytes = 2048;
        p.height = 32;
        p.burst_bytes = cfg.bytes_per_access();
        p.pattern = StridePattern::kColumnMajor;
        p.period_cycles = 200;
        p.total_requests = 100;
        p.type = dram::AccessType::kWrite;
        sys.add_client(std::make_unique<SimdStridedClient>(1, "sd", p));
        wclients.push_back(core::WcetClient{1, 200, 100});
      }
      {
        clients::RandomClient::Params p;
        p.base = 1 << 20;
        p.length = 1 << 18;
        p.burst_bytes = cfg.bytes_per_access();
        p.period_cycles = 300;
        p.total_requests = 80;
        p.seed = 99;
        sys.add_client(std::make_unique<clients::RandomClient>(2, "rn", p));
        wclients.push_back(core::WcetClient{2, 300, 80});
      }
      sys.run(window);

      const auto& stats = sys.controller().stats();
      EXPECT_LE(stats.bytes_transferred,
                core::wcet_max_bytes(cfg, wclients, window));

      const core::WcetAnalysis wa = core::analyze_wcet(cfg, wclients);
      ASSERT_TRUE(wa.latency_bounded)
          << "paced set should be admissible under every policy";
      EXPECT_LE(stats.read_latency.max(), wa.latency_cycles);

      // The command trace must also satisfy the datasheet rules — and
      // under TDM, slot ownership.
      const dram::ProtocolChecker checker(cfg);
      const auto violations = checker.verify(log);
      EXPECT_TRUE(violations.empty())
          << (violations.empty() ? "" : violations.front().describe());
    }
  }
}

TEST(WcetOracle, InadmissibleClientSetReportsUnbounded) {
  DramConfig cfg;
  cfg.scheduler = dram::SchedulerKind::kFrFcfs;
  // Eight saturating clients: the interference fixed point diverges.
  std::vector<core::WcetClient> hogs;
  for (unsigned i = 0; i < 8; ++i) hogs.push_back(core::WcetClient{i, 1, 0});
  const core::WcetAnalysis wa = core::analyze_wcet(cfg, hogs);
  EXPECT_FALSE(wa.latency_bounded);
  EXPECT_EQ(wa.latency_ns, 0.0);
  // The bandwidth bound holds regardless — capped by the data bus.
  EXPECT_GT(wa.bandwidth_gbyte_s, 0.0);
}

TEST(WcetOracle, FcfsBoundIsTighterThanFrFcfs) {
  DramConfig cfg;
  std::vector<core::WcetClient> set = {{0, 200, 0}, {1, 300, 0}};
  cfg.scheduler = dram::SchedulerKind::kFcfs;
  const auto fcfs = core::analyze_wcet(cfg, set);
  cfg.scheduler = dram::SchedulerKind::kFrFcfs;
  const auto frfcfs = core::analyze_wcet(cfg, set);
  ASSERT_TRUE(fcfs.latency_bounded);
  ASSERT_TRUE(frfcfs.latency_bounded);
  // FR-FCFS buys average-case throughput with a starvation cap the
  // analysis must charge; strict FCFS needs no such term.
  EXPECT_LT(fcfs.latency_cycles, frfcfs.latency_cycles);
}

// ---------------------------------------------------------------------------
// TDM bound tightness: on bank-friendly saturating sweeps the analytical
// bandwidth bound must be within 10% of what the simulator achieves —
// a bound that holds but is hopelessly loose is not a useful oracle.

// ---------------------------------------------------------------------------
// Dense-traffic front end under the WCET oracles: runs with the resident
// front end on (set_burst_issue, which switches the dense half of
// MemorySystem::stretch) must respect the analytical bounds exactly as per-cycle
// runs do — bulk-crediting the stall cycles between controller events
// cannot move a byte or a cycle past what the datasheet admits.

TEST(WcetOracle, BurstIssuedRunsRespectWcetBounds) {
  // Regime 1: a saturated single-row stream — the steady state the dense
  // stretch covers from one controller event to the next. Overload
  // rightly diverges the latency fixed point, so the unconditional bytes
  // bound is the oracle here, cross-checked against a dense-stretch-off
  // reference and the protocol rules.
  {
    DramConfig cfg;
    cfg.scheduler = dram::SchedulerKind::kFrFcfs;
    cfg.page_policy = dram::PagePolicy::kOpen;

    const auto build = [&cfg] {
      auto sys = std::make_unique<clients::MemorySystem>(
          cfg, clients::ArbiterKind::kRoundRobin);
      clients::StreamClient::Params p;
      p.base = 0;
      p.length = cfg.page_bytes;  // wraps inside one row: a pure streak
      p.burst_bytes = cfg.bytes_per_access();
      p.period_cycles = 0;  // endless 100%-duty demand
      sys->add_client(std::make_unique<clients::StreamClient>(0, "duty", p));
      return sys;
    };
    const std::uint64_t window = 30'000;
    auto burst_on = build();
    dram::CommandLog log;
    burst_on->controller().attach_command_log(&log);
    burst_on->set_burst_issue(true);
    burst_on->run(window);
    auto burst_off = build();
    burst_off->set_burst_issue(false);
    burst_off->run(window);

    const std::vector<core::WcetClient> wclients = {{0, 1, 0}};
    const auto& stats = burst_on->controller().stats();
    EXPECT_LE(stats.bytes_transferred,
              core::wcet_max_bytes(cfg, wclients, window));
    EXPECT_GT(stats.bytes_transferred, 0u);
    EXPECT_EQ(stats.bytes_transferred,
              burst_off->controller().stats().bytes_transferred);
    EXPECT_EQ(stats.read_latency.max(),
              burst_off->controller().stats().read_latency.max());
    // The dense-stretch command stream must satisfy the datasheet rules.
    const dram::ProtocolChecker checker(cfg);
    const auto violations = checker.verify(log);
    EXPECT_TRUE(violations.empty())
        << (violations.empty() ? "" : violations.front().describe());
  }

  // Regime 2: an admissible paced set sharing one row behind a shallow
  // queue. The aligned start floods the queue (6 ready clients, depth 4)
  // so the dense stretch engages, yet the interference fixed point
  // converges — the latency bound is claimable for every request.
  {
    DramConfig cfg;
    cfg.scheduler = dram::SchedulerKind::kFcfs;
    cfg.queue_depth = 4;
    cfg.page_policy = dram::PagePolicy::kOpen;

    clients::MemorySystem sys(cfg, clients::ArbiterKind::kRoundRobin);
    std::vector<core::WcetClient> wclients;
    for (unsigned i = 0; i < 6; ++i) {
      clients::StreamClient::Params p;
      p.base = i * 128;  // all six regions inside row 0 of bank 0
      p.length = 128;
      p.burst_bytes = cfg.bytes_per_access();
      p.period_cycles = 300;
      sys.add_client(std::make_unique<clients::StreamClient>(
          i, "paced" + std::to_string(i), p));
      wclients.push_back(core::WcetClient{i, 300, 0});
    }
    const std::uint64_t window = 40'000;
    sys.run(window);

    const core::WcetAnalysis wa = core::analyze_wcet(cfg, wclients);
    ASSERT_TRUE(wa.latency_bounded)
        << "paced single-row set should be admissible";
    const auto& stats = sys.controller().stats();
    EXPECT_LE(stats.read_latency.max(), wa.latency_cycles);
    EXPECT_LE(stats.bytes_transferred,
              core::wcet_max_bytes(cfg, wclients, window));
  }
}

TEST(WcetOracle, TdmBandwidthBoundTightWithinTenPercentOnStridedSweeps) {
  // The bank-privatized arrangement the TDM policy is designed around:
  // bank-MSB mapping with one client's surfaces per bank, so no client
  // ever disturbs another's open rows, and a queue deep enough that the
  // slot owner's backlog covers its slot quota.
  DramConfig cfg;
  cfg.interface_bits = 32;
  cfg.scheduler = dram::SchedulerKind::kTdm;
  cfg.tdm_slot_cycles = 64;
  cfg.tdm_clients = 4;
  cfg.queue_depth = 64;
  cfg.refresh_enabled = false;  // isolate arbitration from refresh loss
  cfg.page_policy = dram::PagePolicy::kOpen;
  cfg.mapping = dram::AddressMapping::kBankRowCol;

  clients::MemorySystem sys(cfg, clients::ArbiterKind::kRoundRobin);
  std::vector<core::WcetClient> wclients;
  const std::uint64_t bank_bytes =
      static_cast<std::uint64_t>(cfg.rows_per_bank) * cfg.page_bytes;
  for (unsigned i = 0; i < 4; ++i) {
    SimdStridedClient::Params p;
    p.base = i * bank_bytes;  // client i lives in bank i
    p.width_bytes = 4096;
    p.height = 64;
    p.burst_bytes = cfg.bytes_per_access();
    p.pattern = StridePattern::kRowMajor;
    p.period_cycles = 0;  // saturate: always another burst ready
    sys.add_client(std::make_unique<SimdStridedClient>(
        i, "gpu" + std::to_string(i), p));
    wclients.push_back(core::WcetClient{i, 1, 0});
  }

  const std::uint64_t window = 160 * 64ull * 4;  // 160 full TDM rotations
  sys.run(window);
  const double simulated =
      sys.controller().stats().sustained_bandwidth(cfg.clock).as_gbyte_per_s();
  const core::WcetAnalysis wa = core::analyze_wcet(cfg, wclients);
  ASSERT_GT(wa.bandwidth_gbyte_s, 0.0);
  EXPECT_LE(simulated, wa.bandwidth_gbyte_s * 1.0001);  // still an upper bound
  EXPECT_GE(simulated, 0.90 * wa.bandwidth_gbyte_s)
      << "bound is looser than 10%: simulated " << simulated << " vs bound "
      << wa.bandwidth_gbyte_s;
}

}  // namespace
}  // namespace edsim
