// A4 (ablation) — §3: "minimize the latency for the memory clients and
// thus minimize the necessary FIFO depth." Two separable effects:
// (1) deeper controller queues buy bandwidth on row-miss traffic by
//     giving FR-FCFS more reordering room;
// (2) client burstiness, not mean rate, sizes the client-side FIFO.

#include <array>
#include <cstddef>
#include <iostream>
#include <memory>
#include <vector>

#include "clients/extra_clients.hpp"
#include "clients/system.hpp"
#include "common/parallel.hpp"
#include "common/table.hpp"
#include "dram/presets.hpp"

namespace {

using namespace edsim;

/// Effect 1: bandwidth of 4 random clients vs controller queue depth.
double random_efficiency(unsigned queue_depth) {
  dram::DramConfig cfg = dram::presets::edram_module(16, 64, 4, 2048);
  cfg.queue_depth = queue_depth;
  clients::MemorySystem sys(cfg, clients::ArbiterKind::kRoundRobin);
  const unsigned burst = cfg.bytes_per_access();
  const std::uint64_t region = cfg.capacity().byte_count() / 4;
  for (unsigned i = 0; i < 4; ++i) {
    clients::RandomClient::Params p;
    p.base = region * i;
    p.length = region;
    p.burst_bytes = burst;
    p.seed = i + 1;
    sys.add_client(std::make_unique<clients::RandomClient>(i, "r", p));
  }
  sys.run(150'000);
  return sys.bandwidth_efficiency();
}

/// Effect 2: FIFO a bursty client needs, at constant mean rate, while a
/// paced stream loads the channel to ~60%.
std::uint64_t bursty_fifo(unsigned burst_len) {
  dram::DramConfig cfg = dram::presets::edram_module(16, 64, 4, 2048);
  clients::MemorySystem sys(cfg, clients::ArbiterKind::kRoundRobin);
  const unsigned burst = cfg.bytes_per_access();

  clients::BurstyClient::Params p;
  p.length = 1 << 20;
  p.burst_bytes = burst;
  p.on_requests = burst_len;
  p.off_cycles = burst_len * 24;  // constant mean demand
  p.randomize_gap = false;
  sys.add_client(std::make_unique<clients::BurstyClient>(0, "bursty", p));

  clients::StreamClient::Params s;
  s.base = 1 << 20;
  s.length = 1 << 20;
  s.burst_bytes = burst;
  s.period_cycles = 7;  // ~60% of the 4-cycle-per-burst channel
  sys.add_client(std::make_unique<clients::StreamClient>(1, "bg", s));

  sys.run(200'000);
  return sys.fifo(0).required_depth_bytes();
}

constexpr std::array<unsigned, 6> kQueueDepths = {2, 4, 8, 16, 32, 64};
constexpr std::array<unsigned, 5> kBurstLengths = {2, 4, 8, 16, 32};

}  // namespace

int main() {
  print_banner(std::cout,
               "A4 (ablation): queue depth, burstiness, FIFO sizing (§3)");

  // Both effects' points are independent memory systems: run them as one
  // set of thread pool jobs (queue depths first, then burst lengths), each
  // writing its own slot, then print in grid order, so the output does
  // not depend on the thread count.
  std::vector<double> effs(kQueueDepths.size());
  std::vector<std::uint64_t> fifos(kBurstLengths.size());
  parallel_for(effs.size() + fifos.size(), [&](std::size_t i) {
    if (i < effs.size()) {
      effs[i] = random_efficiency(kQueueDepths[i]);
    } else {
      fifos[i - effs.size()] = bursty_fifo(kBurstLengths[i - effs.size()]);
    }
  });

  Table t1({"controller queue depth", "sustained/peak (4 random clients)"});
  double eff_shallow = 0.0, eff_deep = 0.0;
  for (std::size_t k = 0; k < kQueueDepths.size(); ++k) {
    const unsigned q = kQueueDepths[k];
    const double eff = effs[k];
    if (q == 2) eff_shallow = eff;
    if (q == 64) eff_deep = eff;
    t1.row().integer(q).num(eff, 3);
  }
  t1.print(std::cout, "Effect 1: reordering room vs bandwidth");

  Table t2({"burst length", "FIFO bytes needed"});
  std::uint64_t fifo_small = 0, fifo_big = 0;
  for (std::size_t k = 0; k < kBurstLengths.size(); ++k) {
    const unsigned b = kBurstLengths[k];
    const std::uint64_t f = fifos[k];
    if (b == 4) fifo_small = f;
    if (b == 32) fifo_big = f;
    t2.row().integer(b).integer(static_cast<long long>(f));
  }
  t2.print(std::cout, "Effect 2: burstiness vs FIFO at equal mean rate");

  print_claim(std::cout, "deeper queues buy bandwidth (64 vs 2 entries)",
              eff_deep / eff_shallow, 1.05, 3.0);
  print_claim(std::cout,
              "8x burstier client needs a much deeper FIFO at equal mean "
              "rate",
              static_cast<double>(fifo_big) /
                  static_cast<double>(fifo_small),
              2.0, 16.0);
  std::cout << "-> the §3 coupling: access scheme and FIFO depth must be "
               "co-designed; burstiness, not mean rate, sizes the FIFO.\n";
  return 0;
}
