// Scheduler tournament: every scheduling policy over the same GPU/DSP-style
// client mix, simulated results next to the analytical worst-case bounds of
// core/wcet.hpp — the scheduling-policies comparison table, with a
// `simulated <= bound` verdict per row. The TDM policy appears twice: once
// on the default interleaved mapping and once bank-privatized (bank-MSB
// mapping, one client per bank), the arrangement its bound is tight on.
//
//   scheduler_tournament [--cycles N] [--out bench/scheduler_tournament.md]
//
// Exits non-zero if any row violates its bound, so scripts can gate on it.

#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "clients/strided_gen.hpp"
#include "clients/system.hpp"
#include "common/args.hpp"
#include "common/table.hpp"
#include "core/wcet.hpp"
#include "dram/config.hpp"

namespace {

constexpr const char* kUsage =
    "usage: scheduler_tournament [--cycles <n>] [--out <path>]\n";

}  // namespace

int main(int argc, char** argv) {
  using namespace edsim;
  using clients::SimdStridedClient;
  using clients::StridePattern;

  const std::optional<Args> parsed = parse_command_line(
      argc, argv, "scheduler_tournament", kUsage, {"cycles", "out"});
  if (!parsed) return 2;
  const Args& args = *parsed;
  const std::uint64_t cycles = args.get_u64("cycles", 200'000);
  const std::string out_path = args.get("out");

  struct Entry {
    dram::SchedulerKind sched;
    dram::AddressMapping mapping;
    bool bank_private;  ///< place each client's surfaces in its own bank
  };
  const std::vector<Entry> entries = {
      {dram::SchedulerKind::kFcfs, dram::AddressMapping::kRowBankCol, false},
      {dram::SchedulerKind::kFcfsPerBank, dram::AddressMapping::kRowBankCol,
       false},
      {dram::SchedulerKind::kFrFcfs, dram::AddressMapping::kRowBankCol, false},
      {dram::SchedulerKind::kReadFirst, dram::AddressMapping::kRowBankCol,
       false},
      {dram::SchedulerKind::kTdm, dram::AddressMapping::kRowBankCol, false},
      {dram::SchedulerKind::kTdm, dram::AddressMapping::kBankRowCol, true},
  };

  Table t({"policy", "mapping", "sim GB/s", "bound GB/s", "sim worst ns",
           "bound ns", "verdict"});
  bool any_violation = false;

  for (const Entry& e : entries) {
    dram::DramConfig cfg;
    cfg.interface_bits = 32;
    cfg.scheduler = e.sched;
    cfg.mapping = e.mapping;
    cfg.tdm_slot_cycles = 64;
    cfg.tdm_clients = 3;
    if (e.bank_private) cfg.queue_depth = 64;

    clients::MemorySystem sys(cfg, clients::ArbiterKind::kRoundRobin);
    std::vector<core::WcetClient> wclients;
    const std::uint64_t bank_bytes =
        static_cast<std::uint64_t>(cfg.rows_per_bank) * cfg.page_bytes;
    // Three Sim-D-style strided sweepers: a row-major scan-out, a
    // column-major transpose (the page-miss worst case), and a tiled
    // kernel walk — each paced, each endless.
    const StridePattern patterns[] = {StridePattern::kRowMajor,
                                      StridePattern::kColumnMajor,
                                      StridePattern::kTiled};
    const unsigned periods[] = {24, 48, 96};
    for (unsigned i = 0; i < 3; ++i) {
      SimdStridedClient::Params p;
      p.base = e.bank_private ? i * bank_bytes : i * (1u << 20);
      p.width_bytes = 4096;
      p.height = 64;
      p.burst_bytes = cfg.bytes_per_access();
      p.tile_width_bytes = 512;
      p.tile_height = 8;
      p.pattern = patterns[i];
      p.period_cycles = periods[i];
      sys.add_client(std::make_unique<SimdStridedClient>(
          i, std::string("simd-") + clients::to_string(patterns[i]), p));
      wclients.push_back(core::WcetClient{i, periods[i], 0});
    }

    sys.run(cycles);
    const auto& stats = sys.controller().stats();
    const double sim_gbs =
        stats.sustained_bandwidth(cfg.clock).as_gbyte_per_s();
    const double sim_worst_ns =
        stats.read_latency.max() * cfg.clock.period_ns();

    const core::WcetAnalysis wa = core::analyze_wcet(cfg, wclients);
    // The bytes verdict uses the exact finite-window bound (same oracle
    // as the differential fuzz); the steady-state rate alone misses the
    // +1 pacing edge a finite window allows each paced client.
    const std::uint64_t bound_bytes =
        core::wcet_max_bytes(cfg, wclients, cycles);
    const double bound_gbs =
        static_cast<double>(bound_bytes) /
        (static_cast<double>(cycles) * cfg.clock.period_ns());
    const bool bw_ok = stats.bytes_transferred <= bound_bytes;
    const bool lat_ok = !wa.latency_bounded || sim_worst_ns <= wa.latency_ns;
    const bool ok = bw_ok && lat_ok;
    any_violation = any_violation || !ok;

    t.row()
        .cell(dram::to_string(e.sched) +
              std::string(e.bank_private ? " (bank-private)" : ""))
        .cell(dram::to_string(e.mapping))
        .num(sim_gbs, 3)
        .num(bound_gbs, 3)
        .num(sim_worst_ns, 1)
        .cell(wa.latency_bounded ? Table::fmt(wa.latency_ns, 1) : "unbounded")
        .cell(ok ? "OK" : "VIOLATION");
  }

  const std::string title =
      "Scheduler tournament: simulated vs analytical worst-case bounds (" +
      std::to_string(cycles) + " cycles, 3 strided clients)";
  t.print(std::cout, title);
  std::cout << "\nA latency bound of \"unbounded\" means the client set is\n"
               "inadmissible under that policy (the interference fixed point\n"
               "diverges) — no worst-case latency claim is made there.\n";

  if (!out_path.empty()) {
    std::ofstream out(out_path, std::ios::trunc);
    if (!out) {
      std::cerr << "cannot write " << out_path << "\n";
      return 2;
    }
    out << "# " << title << "\n\n";
    out << "| policy | mapping | sim GB/s | bound GB/s | sim worst ns "
           "| bound ns | verdict |\n";
    out << "|---|---|---|---|---|---|---|\n";
    for (const auto& row : t.rows()) {
      out << "|";
      for (const auto& cell : row) out << " " << cell << " |";
      out << "\n";
    }
    out << "\nEvery row must read OK: the differential fuzz and the `wcet`\n"
           "ctest label assert the same `simulated <= bound` invariant on\n"
           "randomized configurations.\n";
  }

  if (any_violation) {
    std::cerr << "\nWCET bound violation — the analytical model or the "
                 "scheduler is wrong.\n";
    return 1;
  }
  return 0;
}
