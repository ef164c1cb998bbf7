// E4 — §4 sustained-vs-peak claim: "The peak bandwidth is a theoretical
// quantity; in practice several memory clients have to read and write
// data which introduces page misses and overhead. Hence the sustainable
// bandwidth can be much lower than the peak bandwidth." And the §3/§4
// levers that recover it: banks, page policy, access scheme (scheduler).

#include <array>
#include <cstddef>
#include <iostream>
#include <memory>
#include <vector>

#include "clients/system.hpp"
#include "common/parallel.hpp"
#include "common/table.hpp"
#include "dram/presets.hpp"

namespace {

using namespace edsim;

/// One grid point: a bank count, scheduler and page policy under a mix of
/// streaming and random clients.
struct Mix {
  unsigned banks;
  dram::SchedulerKind sched;
  dram::PagePolicy policy;
  unsigned n_stream;
  unsigned n_random;
};

double run_mix(const Mix& mix) {
  dram::DramConfig cfg =
      dram::presets::edram_module(16, 128, mix.banks, 2048);
  cfg.scheduler = mix.sched;
  cfg.page_policy = mix.policy;
  clients::MemorySystem sys(cfg, clients::ArbiterKind::kRoundRobin);
  const unsigned burst = cfg.bytes_per_access();
  const std::uint64_t region = cfg.capacity().byte_count();
  const unsigned n = mix.n_stream + mix.n_random;
  unsigned id = 0;
  for (unsigned i = 0; i < mix.n_stream; ++i) {
    clients::StreamClient::Params p;
    p.base = region / n * id;
    p.length = region / n;
    p.burst_bytes = burst;
    p.type = i % 2 ? dram::AccessType::kWrite : dram::AccessType::kRead;
    sys.add_client(
        std::make_unique<clients::StreamClient>(id, "stream", p));
    ++id;
  }
  for (unsigned i = 0; i < mix.n_random; ++i) {
    clients::RandomClient::Params p;
    p.base = region / n * id;
    p.length = region / n;
    p.burst_bytes = burst;
    p.seed = 100 + i;
    sys.add_client(
        std::make_unique<clients::RandomClient>(id, "random", p));
    ++id;
  }
  sys.run(150'000);
  return sys.bandwidth_efficiency();
}

constexpr std::array<unsigned, 5> kTable1Banks = {1, 2, 4, 8, 16};
constexpr std::array<unsigned, 3> kTable2Banks = {1, 4, 16};

}  // namespace

int main() {
  using dram::PagePolicy;
  using dram::SchedulerKind;
  print_banner(std::cout,
               "E4: sustained vs peak bandwidth — banks, scheduler, page "
               "policy (§3/§4)");

  // Every grid point is an independent memory system: run them as thread
  // pool jobs, each writing its own slot, then print in grid order, so the
  // output does not depend on the thread count.
  std::vector<Mix> grid;
  // Table 1: bank count x scheduler, mixed 2-stream + 4-random load.
  for (const unsigned banks : kTable1Banks) {
    for (const SchedulerKind sched :
         {SchedulerKind::kFcfs, SchedulerKind::kFcfsPerBank,
          SchedulerKind::kFrFcfs}) {
      grid.push_back({banks, sched, PagePolicy::kOpen, 2, 4});
    }
  }
  // Table 2: pure streaming vs pure random under the best scheduler.
  for (const unsigned banks : kTable2Banks) {
    grid.push_back({banks, SchedulerKind::kFrFcfs, PagePolicy::kOpen, 6, 0});
    grid.push_back({banks, SchedulerKind::kFrFcfs, PagePolicy::kOpen, 0, 6});
    grid.push_back({banks, SchedulerKind::kFrFcfs, PagePolicy::kOpen, 3, 3});
    grid.push_back({banks, SchedulerKind::kFrFcfs, PagePolicy::kClosed, 3, 3});
  }
  // The claims' extremes.
  grid.push_back({1, SchedulerKind::kFcfs, PagePolicy::kOpen, 0, 6});
  grid.push_back({8, SchedulerKind::kFrFcfs, PagePolicy::kOpen, 6, 0});

  std::vector<double> eff(grid.size());
  parallel_for(grid.size(), [&](std::size_t i) { eff[i] = run_mix(grid[i]); });

  std::size_t k = 0;
  Table t({"banks", "FCFS", "FCFS/bank", "FR-FCFS"});
  for (const unsigned banks : kTable1Banks) {
    t.row().integer(banks).num(eff[k], 3).num(eff[k + 1], 3).num(eff[k + 2], 3);
    k += 3;
  }
  t.print(std::cout,
          "Sustained/peak, 2 streaming + 4 random clients, open pages");

  Table t2({"banks", "6 streams", "6 random", "open page", "closed page"});
  for (const unsigned banks : kTable2Banks) {
    t2.row()
        .integer(banks)
        .num(eff[k], 3)
        .num(eff[k + 1], 3)
        .num(eff[k + 2], 3)
        .num(eff[k + 3], 3);
    k += 4;
  }
  t2.print(std::cout, "Workload and page-policy sensitivity (FR-FCFS)");

  const double worst = eff[k];
  const double best = eff[k + 1];
  print_claim(std::cout,
              "random/1-bank/FCFS sustained fraction (paper: 'much lower')",
              worst, 0.0, 0.5);
  print_claim(std::cout, "stream/8-bank/FR-FCFS sustained fraction", best,
              0.8, 1.0);
  print_claim(std::cout, "recovery factor via organization freedom",
              best / worst, 2.0, 50.0);
  return 0;
}
