// The §3 design space made executable: sweep integration style, process
// choice and interface width for a 16-Mbit application, evaluate each
// point (simulation + models), extract the cost/bandwidth/power Pareto
// front, and print the §2 advisor's verdicts for the paper's markets.
//
// Options:
//   --store <path>   attach a persistent result store (.edrs append log);
//                    re-running against a populated store skips straight
//                    to cache hits (see docs/service.md)
//   --cache-stats    print the counters of every cache tier
//   --wcet           print the analytical worst-case bounds per candidate

#include <exception>
#include <iostream>
#include <memory>
#include <optional>

#include "common/args.hpp"
#include "common/table.hpp"
#include "core/advisor.hpp"
#include "core/evaluator.hpp"
#include "core/pareto.hpp"
#include "service/result_store.hpp"

namespace {

constexpr const char* kUsage =
    "usage: design_explorer [--store <path>] [--cache-stats] [--wcet]\n";

}  // namespace

int main(int argc, char** argv) try {
  using namespace edsim;
  using namespace edsim::core;

  const std::optional<Args> parsed = parse_command_line(
      argc, argv, "design_explorer", kUsage, {"store", "cache-stats", "wcet"},
      {"cache-stats", "wcet"});
  if (!parsed) return 2;
  const Args& args = *parsed;
  const std::string store_path = args.get("store");

  std::vector<SystemConfig> cfgs;
  for (const BaseProcess p :
       {BaseProcess::kDramBased, BaseProcess::kLogicBased,
        BaseProcess::kMerged}) {
    for (const unsigned width : {64u, 128u, 256u, 512u}) {
      SystemConfig s;
      s.name = std::string(to_string(p)) + "/" + std::to_string(width) + "b";
      s.integration = Integration::kEmbedded;
      s.process = p;
      s.required_memory = Capacity::mbit(16);
      s.interface_bits = width;
      s.banks = 4;
      s.page_bytes = 2048;
      cfgs.push_back(s);
    }
  }
  for (const unsigned width : {16u, 32u, 64u}) {
    SystemConfig s;
    s.name = "discrete/" + std::to_string(width) + "b";
    s.integration = Integration::kDiscrete;
    s.required_memory = Capacity::mbit(16);
    s.interface_bits = width;
    cfgs.push_back(s);
  }

  Evaluator ev;
  std::shared_ptr<service::ResultStore> store;
  if (!store_path.empty()) {
    store = std::make_shared<service::ResultStore>(store_path);
    ev.set_result_store(store);
  }

  EvalWorkload w;
  w.demand_gbyte_s = 2.0;
  w.sim_cycles = 50'000;
  // Warm the memory system before measuring. Variants sharing a channel
  // shape share one simulated warm-up plus window, whose clients run live
  // (visible in --cache-stats).
  w.warmup_cycles = 10'000;

  const std::vector<Metrics> metrics = ev.sweep(cfgs, w);

  // Re-score the same candidates, as a refinement loop would: every
  // point is now a memo hit, so no channel is simulated again.
  ev.sweep(cfgs, w);
  std::cout << "evaluation memo: " << ev.memo_entries()
            << " entries, " << ev.memo_hits() << " hits on re-sweep\n";

  // --cache-stats: the one-call counter snapshot across the cache layers
  // (evaluation memo, simulated channel shapes, and the persistent result
  // store when attached).
  if (args.has("cache-stats")) {
    const Evaluator::CacheStats cs = ev.cache_stats();
    Table ct({"cache", "hits", "misses", "entries", "bytes"});
    ct.row()
        .cell("evaluation memo")
        .integer(static_cast<long long>(cs.memo_hits))
        .cell("-")
        .integer(static_cast<long long>(cs.memo_entries))
        .cell("-");
    ct.row()
        .cell("channel shapes")
        .integer(static_cast<long long>(cs.shape_hits))
        .cell("-")
        .integer(static_cast<long long>(cs.shape_entries))
        .cell("-");
    if (cs.store_attached) {
      ct.row()
          .cell("persistent store")
          .integer(static_cast<long long>(cs.store.hits))
          .integer(static_cast<long long>(cs.store.misses))
          .integer(static_cast<long long>(cs.store.entries))
          .integer(static_cast<long long>(cs.store.bytes_written));
    }
    ct.print(std::cout, "Evaluator cache statistics (--cache-stats)");
    if (cs.store_attached) {
      const std::uint64_t probes = cs.store.hits + cs.store.misses;
      std::cout << "persistent store: " << cs.store.bytes_read
                << " bytes replayed, " << cs.store.bytes_written
                << " appended, " << cs.store.recovered_tail_records
                << " torn records recovered";
      if (probes > 0) {
        std::cout << ", " << (100.0 * static_cast<double>(cs.store.hits) /
                              static_cast<double>(probes))
                  << "% hit rate";
      }
      std::cout << "\n";
    }
  }

  Table t({"design", "area mm2", "sust GB/s", "power mW", "cost $",
           "waste Mbit", "logic speed"});
  for (const auto& m : metrics) {
    t.row()
        .cell(m.name)
        .num(m.die_area_mm2, 1)
        .num(m.sustained_gbyte_s, 2)
        .num(m.total_power_mw, 0)
        .num(m.unit_cost_usd, 2)
        .num(m.waste_mbit, 0)
        .num(m.logic_speed, 2);
  }
  t.print(std::cout, "Design space: 16-Mbit application @ 2 GB/s demand");

  // --wcet: the predictable-performance view of the same sweep — each
  // design's simulated worst case next to the analytical WCET bound the
  // evaluator computed for it (core/wcet.hpp). A bound of "unbounded"
  // means the workload is inadmissible on that design, i.e. no
  // worst-case latency can be promised at all.
  if (args.has("wcet")) {
    Table wt({"design", "worst lat ns", "WCET bound ns", "sust GB/s",
              "WCET BW GB/s", "verdict"});
    bool all_ok = true;
    for (const auto& m : metrics) {
      const bool bounded = m.wcet_read_latency_ns > 0.0;
      const bool ok = !bounded || m.worst_read_latency_ns <=
                                      m.wcet_read_latency_ns;
      all_ok = all_ok && ok;
      wt.row()
          .cell(m.name)
          .num(m.worst_read_latency_ns, 1)
          .cell(bounded ? Table::fmt(m.wcet_read_latency_ns, 1)
                        : "unbounded")
          .num(m.sustained_gbyte_s, 2)
          .num(m.wcet_bandwidth_gbyte_s, 2)
          .cell(bounded ? (ok ? "OK" : "VIOLATION") : "-");
    }
    wt.print(std::cout, "Worst-case bounds (--wcet)");
    if (!all_ok) {
      std::cerr << "WCET bound violation in design sweep\n";
      return 1;
    }
  }

  // Pareto: minimize cost and power, maximize sustained bandwidth.
  std::vector<ParetoPoint> pts;
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    pts.push_back(ParetoPoint{i,
                              {metrics[i].unit_cost_usd,
                               metrics[i].total_power_mw,
                               -metrics[i].sustained_gbyte_s}});
  }
  std::cout << "\nPareto-optimal (cost, power, bandwidth):\n";
  for (const std::size_t i : pareto_front(pts)) {
    std::cout << "  * " << metrics[i].name << "\n";
  }

  // §2 advisor verdicts.
  std::cout << "\n";
  Table adv({"application", "eDRAM?", "score", "first reason"});
  for (const auto& v : Advisor{}.advise_all(paper_market_profiles())) {
    adv.row()
        .cell(v.application)
        .cell(v.recommend_edram ? "yes" : "no")
        .num(v.score, 1)
        .cell(v.reasons.empty() ? "-" : v.reasons.front());
  }
  adv.print(std::cout, "Rules-of-thumb advisor (§2 markets)");
  return 0;
} catch (const std::exception& e) {
  // A corrupt or foreign result store (or any other failure) is reported,
  // not an abort.
  std::cerr << "error: " << e.what() << "\n";
  return 1;
}
