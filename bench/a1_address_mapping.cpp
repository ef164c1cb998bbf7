// A1 (ablation) — §3: "optimizing the mapping of the data into memory
// such that the sustainable memory bandwidth approaches the peak
// bandwidth." Same channel, same workloads; only the address-mapping
// scheme changes.

#include <algorithm>
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

struct Outcome {
  double efficiency = 0.0;
  double read_latency = 0.0;
};

Outcome run(dram::AddressMapping mapping, bool streaming) {
  dram::DramConfig cfg = dram::presets::edram_module(16, 128, 4, 2048);
  cfg.mapping = mapping;
  clients::MemorySystem sys(cfg, clients::ArbiterKind::kRoundRobin);
  const unsigned burst = cfg.bytes_per_access();
  const std::uint64_t region = cfg.capacity().byte_count() / 4;
  for (unsigned i = 0; i < 4; ++i) {
    if (streaming) {
      clients::StreamClient::Params p;
      p.base = region * i;
      p.length = region;
      p.burst_bytes = burst;
      p.type = i % 2 ? dram::AccessType::kWrite : dram::AccessType::kRead;
      sys.add_client(std::make_unique<clients::StreamClient>(i, "s", p));
    } else {
      clients::StridedClient::Params p;
      p.base = region * i;
      p.length = region;
      p.burst_bytes = burst;
      p.stride_bytes = 8192;  // row-crossing stride (image columns)
      sys.add_client(std::make_unique<clients::StridedClient>(i, "st", p));
    }
  }
  sys.run(120'000);
  return {sys.bandwidth_efficiency(),
          sys.controller().stats().read_latency.mean()};
}

const char* name(dram::AddressMapping m) {
  switch (m) {
    case dram::AddressMapping::kRowBankCol: return "row:bank:col";
    case dram::AddressMapping::kBankRowCol: return "bank:row:col";
    case dram::AddressMapping::kRowColBank: return "row:col:bank";
    case dram::AddressMapping::kPermutedBank: return "permuted-bank";
  }
  return "?";
}

constexpr std::array<dram::AddressMapping, 4> kMappings = {
    dram::AddressMapping::kRowBankCol, dram::AddressMapping::kBankRowCol,
    dram::AddressMapping::kRowColBank, dram::AddressMapping::kPermutedBank};

}  // namespace

int main() {
  print_banner(std::cout, "A1 (ablation): address mapping schemes (§3)");

  Table t({"mapping", "stream eff", "stream lat", "strided eff",
           "strided lat"});
  // Every (mapping, traffic) point is an independent memory system: run
  // them as thread pool jobs into grid-ordered slots (streaming at 2k,
  // strided at 2k + 1), then print in grid order, so the output does not
  // depend on the thread count.
  std::vector<Outcome> grid(2 * kMappings.size());
  parallel_for(grid.size(), [&](std::size_t i) {
    grid[i] = run(kMappings[i / 2], i % 2 == 0);
  });
  double best_stream = 0.0, worst_stream = 1.0;
  for (std::size_t k = 0; k < kMappings.size(); ++k) {
    const dram::AddressMapping m = kMappings[k];
    const Outcome& s = grid[2 * k];
    const Outcome& x = grid[2 * k + 1];
    best_stream = std::max(best_stream, s.efficiency);
    worst_stream = std::min(worst_stream, s.efficiency);
    t.row()
        .cell(name(m))
        .num(s.efficiency, 3)
        .num(s.read_latency, 1)
        .num(x.efficiency, 3)
        .num(x.read_latency, 1);
  }
  t.print(std::cout,
          "4 clients on a 16-Mbit/128-bit module (sustained/peak and "
          "mean read latency in cycles)");

  print_claim(std::cout, "mapping choice swing on streaming mixes",
              best_stream / worst_stream, 1.1, 5.0);
  std::cout << "-> the data-mapping freedom the paper grants the eDRAM "
               "designer is worth this swing at zero hardware cost.\n";
  return 0;
}
