// A7 (ablation) — §3 lists "the length of a single page" among the free
// parameters. Longer pages raise the row-hit rate of streaming clients
// but cost activation energy proportional to the page (a whole row is
// sensed and rewritten per ACT) and hurt random traffic.

#include <array>
#include <cstddef>
#include <iostream>
#include <memory>
#include <vector>

#include "clients/system.hpp"
#include "common/parallel.hpp"
#include "common/table.hpp"
#include "dram/presets.hpp"
#include "phy/interface_model.hpp"
#include "power/energy_model.hpp"

namespace {

using namespace edsim;

struct Out {
  double hit_rate = 0.0;
  double efficiency = 0.0;
  double pj_per_bit = 0.0;  ///< core+IO energy per transported bit
};

Out run(unsigned page_bytes, bool streaming) {
  // Keep capacity and width fixed; trade rows for page length.
  dram::DramConfig cfg = dram::presets::edram_module(
      16, 64, 4, page_bytes);
  clients::MemorySystem sys(cfg, clients::ArbiterKind::kRoundRobin);
  const unsigned burst = cfg.bytes_per_access();
  const std::uint64_t region = cfg.capacity().byte_count() / 4;
  for (unsigned i = 0; i < 4; ++i) {
    if (streaming) {
      clients::StreamClient::Params p;
      p.base = region * i;
      p.length = region;
      p.burst_bytes = burst;
      sys.add_client(std::make_unique<clients::StreamClient>(i, "s", p));
    } else {
      clients::RandomClient::Params p;
      p.base = region * i;
      p.length = region;
      p.burst_bytes = burst;
      p.seed = i + 1;
      sys.add_client(std::make_unique<clients::RandomClient>(i, "r", p));
    }
  }
  sys.run(150'000);

  const auto& st = sys.controller().stats();
  const phy::InterfaceModel io(cfg.interface_bits, cfg.clock,
                               phy::on_chip_wire());
  const power::DramPowerModel pm(power::core_energy_sdram_025um(),
                                 io.energy_per_bit_j());
  const auto pb = pm.evaluate(st, cfg);
  const double bits = static_cast<double>(st.bytes_transferred) * 8.0;
  const double seconds =
      static_cast<double>(st.cycles) / cfg.clock.hz();
  const double dynamic_mw = pb.core_mw + pb.io_mw;  // exclude background
  return {st.row_hit_rate(), sys.bandwidth_efficiency(),
          dynamic_mw * 1e-3 * seconds / bits * 1e12};
}

constexpr std::array<unsigned, 5> kPages = {512, 1024, 2048, 4096, 8192};

}  // namespace

int main() {
  print_banner(std::cout, "A7 (ablation): page length (§3 free parameter)");

  Table t({"page B", "stream hit%", "stream eff", "stream pJ/bit",
           "random hit%", "random eff", "random pJ/bit"});
  double stream_hit_short = 0.0, stream_hit_long = 0.0;
  double rand_pj_short = 0.0, rand_pj_long = 0.0;
  // Every (page, traffic) point is an independent memory system: run them
  // as thread pool jobs into grid-ordered slots (streaming at 2k, random
  // at 2k + 1), then print in grid order, so the output does not depend
  // on the thread count.
  std::vector<Out> grid(2 * kPages.size());
  parallel_for(grid.size(), [&](std::size_t i) {
    grid[i] = run(kPages[i / 2], i % 2 == 0);
  });
  for (std::size_t k = 0; k < kPages.size(); ++k) {
    const unsigned page = kPages[k];
    const Out& s = grid[2 * k];
    const Out& r = grid[2 * k + 1];
    if (page == 512) {
      stream_hit_short = s.hit_rate;
      rand_pj_short = r.pj_per_bit;
    }
    if (page == 8192) {
      stream_hit_long = s.hit_rate;
      rand_pj_long = r.pj_per_bit;
    }
    t.row()
        .integer(page)
        .num(s.hit_rate * 100.0, 1)
        .num(s.efficiency, 3)
        .num(s.pj_per_bit, 1)
        .num(r.hit_rate * 100.0, 1)
        .num(r.efficiency, 3)
        .num(r.pj_per_bit, 1);
  }
  t.print(std::cout,
          "16-Mbit/64-bit module, 4 clients; energy = core+interface per "
          "useful bit");

  // At this load FR-FCFS already hides the extra ACTs, so the streaming
  // benefit appears as row-hit rate (fewer row cycles -> more margin for
  // extra clients), not as raw bandwidth.
  print_claim(std::cout,
              "streaming row misses eliminated by 16x longer pages",
              (1.0 - (1.0 - stream_hit_long) / (1.0 - stream_hit_short)) *
                  100.0,
              30.0, 90.0, "%");
  print_claim(std::cout,
              "longer pages multiply random traffic's energy per bit",
              rand_pj_long / rand_pj_short, 2.0, 20.0);
  std::cout << "-> page length must match the client mix — a §3 decision "
               "the commodity buyer never gets to make.\n";
  return 0;
}
