// edsim end-to-end benchmark driver. Runs one workload in this process:
//
//   edsim_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                   [--expect <hex digest>] [--trace-out <path>]
//                   [--tmpdir <dir>] [--spawn-ns <t>] [--setup-slot <k>]
//                   [--setup-only 1]
//
// Set-up (input compilation, system construction, warm-up units) is done
// once, cold, and timed from process start: --spawn-ns is the launcher's
// CLOCK_MONOTONIC reading just before it started this process. With
// --setup-only 1 the driver stops there and prints {"setup_s": ...}, so a
// launcher can take the median over several processes. Otherwise the
// measured phase runs whole rounds of units until --seconds have passed
// and the tail rule holds. Every unit's digest of simulated outputs is
// checked against the reference path and, when --expect is given, against
// the golden digest.
// The last stdout line is one JSON object: end-to-end metrics with
// --trace 0, per-layer metrics with --trace 1 (see perfbench/README.md).

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/parallel.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

struct MetricSpec {
  const char* name;
  const char* unit;
};

const std::vector<MetricSpec> kEndToEnd = {
    {"setup_s", "s"},
    {"wall_s", "s"},
    {"cpu_s", "s"},
    {"sim_mcycles_per_s", "Mcycles/s"},
    {"unit_p50_ms", "ms"},
    {"unit_p90_ms", "ms"},
    {"peak_rss_mb", "MB"},
};

const std::vector<MetricSpec> kPerLayer = {
    {"clients.compile_ms", "ms"},
    {"clients.arena_bytes", "bytes"},
    {"clients.run_ms", "ms"},
    {"clients.ns_per_sim_cycle", "ns"},
    {"clients.ns_per_request", "ns"},
    {"clients.arena_lookups", "count"},
    {"clients.arena_logical_hits", "count"},
    {"dram.replay_ns_per_cycle", "ns"},
    {"dram.requests", "count"},
    {"dram.row_hit_rate", "ratio"},
    {"dram.bus_utilization", "ratio"},
    {"dram.powerdown_fraction", "ratio"},
    {"dram.queue_occupancy_mean", "entries"},
    {"dram.refreshes", "count"},
    {"dram.maintenance_ops", "count"},
    {"snapshot.save_ms", "ms"},
    {"snapshot.restore_ms", "ms"},
    {"snapshot.bytes", "bytes"},
    {"core.warmup_checkpoint_ms", "ms"},
    {"core.evaluate_ms", "ms"},
    {"core.sweep_ms", "ms"},
    {"core.wcet_ms", "ms"},
    {"core.pareto_ms", "ms"},
    {"core.cost_ms", "ms"},
    {"service.store_put_ms", "ms"},
    {"service.store_find_ms", "ms"},
    {"service.store_hits", "count"},
    {"service.store_bytes", "bytes"},
    {"parallel.cpu_per_wall", "ratio"},
    {"mpeg.compile_ms", "ms"},
    {"trace.wall_s", "s"},
    {"trace.overhead_pct", "%"},
};

/// Tail rule: report p90 only over enough units that at least kTailSamples
/// lie above it.
constexpr double kTailQuantile = 0.9;
constexpr std::size_t kTailSamples = 10;
constexpr unsigned kWarmupUnits = 2;
constexpr unsigned kMinRounds = 6;
/// A round is the fixed chunk of work that `wall_s` and `cpu_s` time.
constexpr unsigned kUnitsPerRound = 10;

/// Nearest-rank quantile of a sorted sample.
double quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const auto n = static_cast<double>(sorted.size());
  const auto rank = static_cast<std::size_t>(std::ceil(q * n));
  return sorted[std::max<std::size_t>(rank, 1) - 1];
}

/// Samples strictly beyond the nearest-rank q-quantile's position.
std::size_t samples_above(std::size_t n, double q) {
  return n - static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
}

/// Fewest units for which the tail rule holds.
std::size_t min_units() {
  std::size_t n = kTailSamples;
  while (samples_above(n, kTailQuantile) < kTailSamples) ++n;
  return n;
}

/// Peak resident memory of this process image (VmHWM). getrusage's
/// ru_maxrss is not used: it keeps the launcher's peak across exec.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  return 0.0;
}

std::string hex(std::uint64_t v) {
  std::ostringstream os;
  os << "0x" << std::hex << std::setw(16) << std::setfill('0') << v;
  return os.str();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string expect;     ///< golden digest for this (workload, seed)
  std::string trace_out;  ///< Chrome trace path of the traced run
  std::string tmpdir = ".";
  long long spawn_ns = -1;  ///< launcher's CLOCK_MONOTONIC at spawn, or -1
  long setup_slot = 0;      ///< allowed CPU (mod count) the set-up runs on
  bool setup_only = false;
};

bool parse(int argc, char** argv, Options& o) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") o.workload = v;
    else if (k == "--seed") o.seed = std::stoull(v);
    else if (k == "--seconds") o.seconds = std::stod(v);
    else if (k == "--trace") o.trace = v == "1";
    else if (k == "--expect") o.expect = v;
    else if (k == "--trace-out") o.trace_out = v;
    else if (k == "--tmpdir") o.tmpdir = v;
    else if (k == "--spawn-ns") o.spawn_ns = std::stoll(v);
    else if (k == "--setup-slot") o.setup_slot = std::stol(v);
    else if (k == "--setup-only") o.setup_only = v == "1";
    else return false;
  }
  return argc % 2 == 1 && !o.workload.empty() && o.setup_slot >= 0;
}

/// CPUs this process may run on.
std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) cpus.push_back(c);
    }
  }
  return cpus;
}

/// Pin the calling thread to `cpus[slot % size]`, or to all of `cpus` when
/// `slot` is -1. No-op when `cpus` is empty.
void pin_thread(const std::vector<int>& cpus, long slot) {
  if (cpus.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (slot < 0) {
    for (const int c : cpus) CPU_SET(c, &set);
  } else {
    CPU_SET(cpus[static_cast<std::size_t>(slot) % cpus.size()], &set);
  }
  sched_setaffinity(0, sizeof set, &set);
}

/// One round: a fixed number of units, timed as a whole.
struct Round {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  bool traced = false;
};

void print_json_metrics(std::ostream& os, const std::vector<MetricSpec>& specs,
                        const LayerValues& values) {
  os << "\"metrics\": {";
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const auto it = values.find(specs[i].name);
    const double v = it == values.end() ? 0.0 : it->second;
    os << (i ? ", " : "") << "\"" << specs[i].name << "\": {\"value\": "
       << std::setprecision(12) << v << ", \"unit\": \"" << specs[i].unit
       << "\"}";
  }
  os << "}";
}

/// Set-up, measured phase, correctness check and report for one workload.
int run(const Options& opt, Workload& wl, Clock::time_point process_start) {
  SpanLog spans;
  SpanLog* const log = opt.trace ? &spans : nullptr;

  // --- set-up: once, cold, from process start ----------------------------------
  // Host speed differs from CPU to CPU on a shared box and moves as the
  // scheduler migrates a thread. The driver's thread therefore runs set-up
  // on the CPU --setup-slot names (a launcher taking several set-up
  // samples gives each process another slot) and visits every allowed CPU
  // in turn during the measured phase, one round at a time. The shared
  // thread pool is started first, unpinned, so design_sweep's worker keeps
  // the whole CPU set.
  const std::vector<int> cpus = allowed_cpus();
  edsim::parallel_for(2, [](std::size_t) {}, 2);
  pin_thread(cpus, opt.setup_slot);
  {
    Span s(log, "setup");
    wl.setup(log);
    for (unsigned u = 0; u < kWarmupUnits; ++u) {
      Span w(log, "warmup");
      wl.run_unit(nullptr);
    }
  }
  const double setup_s = seconds_between(process_start, Clock::now());
  if (opt.setup_only) {
    std::cout << "{\"setup_s\": " << std::setprecision(12) << setup_s << "}"
              << std::endl;
    return 0;
  }

  // --- measured phase ----------------------------------------------------------
  // The traced run alternates untraced and traced rounds, so its tracing
  // overhead is measured against the same stretch of host time.
  // The tail rule binds the untraced run only; the traced run reports no
  // unit latencies.
  const std::size_t need_units = opt.trace ? 0 : min_units();
  std::vector<Round> rounds;
  std::vector<double> unit_ms;  // untraced units only
  std::vector<std::uint64_t> digests;
  std::vector<LayerValues> traced_units;
  std::size_t untraced_rounds = 0, traced_rounds = 0;
  const std::size_t rotation =
      std::max<std::size_t>(cpus.size(), 1) * (opt.trace ? 2 : 1);
  const Clock::time_point m0 = Clock::now();
  for (;;) {
    const bool enough_time = seconds_between(m0, Clock::now()) >= opt.seconds;
    const bool enough_units = unit_ms.size() >= need_units;
    const bool enough_rounds =
        untraced_rounds >= kMinRounds && (!opt.trace || traced_rounds >= kMinRounds);
    // Stop only after a whole number of CPU rotations, so every CPU carries
    // the same share of the measured rounds.
    const bool whole_rotation = rounds.size() % rotation == 0;
    if (enough_time && enough_units && enough_rounds && whole_rotation) break;

    Round r;
    r.traced = opt.trace && rounds.size() % 2 == 1;
    // Traced and untraced rounds alternate, so rotate per pair to give both
    // kinds every CPU.
    pin_thread(cpus, static_cast<long>(opt.trace ? rounds.size() / 2
                                                 : rounds.size()));
    SpanLog* const rlog = r.traced ? log : nullptr;
    Span rs(rlog, "round");
    const double c0 = process_cpu_seconds();
    const Clock::time_point r0 = Clock::now();
    for (unsigned u = 0; u < kUnitsPerRound; ++u) {
      const Clock::time_point u0 = Clock::now();
      UnitResult res = wl.run_unit(rlog);
      const double ms = seconds_between(u0, Clock::now()) * 1e3;
      digests.push_back(res.digest);
      if (r.traced) {
        traced_units.push_back(std::move(res.layer));
      } else {
        unit_ms.push_back(ms);
      }
    }
    r.wall_s = seconds_between(r0, Clock::now());
    r.cpu_s = process_cpu_seconds() - c0;
    rs.stop();
    rounds.push_back(r);
    ++(r.traced ? traced_rounds : untraced_rounds);
  }
  const double measured_s = seconds_between(m0, Clock::now());
  pin_thread(cpus, -1);

  // --- correctness: reference path, then golden digest -----------------------
  const Clock::time_point k0 = Clock::now();
  const std::uint64_t reference = wl.reference_digest();
  const double check_s = seconds_between(k0, Clock::now());
  const std::uint64_t expected =
      opt.expect.empty() ? reference : std::stoull(opt.expect, nullptr, 16);
  std::size_t failed = 0;
  for (const std::uint64_t d : digests) failed += d != expected ? 1 : 0;
  const bool reference_ok = reference == expected;
  const bool correct = failed == 0 && reference_ok;

  // --- end-to-end metrics (untraced rounds and units only) --------------------
  // wall_s and cpu_s are per round of fixed work, averaged over the whole
  // measured phase: host speed drifts in phases of seconds, which a plain
  // total averages out while a per-round median would jump between them.
  const double cycles_per_round = static_cast<double>(
      wl.sim_cycles_per_unit() * kUnitsPerRound);
  double wall = 0.0, cpu = 0.0, traced_wall = 0.0;
  for (const Round& r : rounds) {
    (r.traced ? traced_wall : wall) += r.wall_s;
    if (!r.traced) cpu += r.cpu_s;
  }
  wall /= static_cast<double>(untraced_rounds);
  cpu /= static_cast<double>(untraced_rounds);
  if (traced_rounds > 0) traced_wall /= static_cast<double>(traced_rounds);
  std::sort(unit_ms.begin(), unit_ms.end());
  LayerValues e2e;
  e2e["setup_s"] = setup_s;
  e2e["wall_s"] = wall;
  e2e["cpu_s"] = cpu;
  e2e["sim_mcycles_per_s"] = cycles_per_round / wall * 1e-6;
  e2e["unit_p50_ms"] = quantile(unit_ms, 0.5);
  e2e["unit_p90_ms"] = quantile(unit_ms, kTailQuantile);
  e2e["peak_rss_mb"] = peak_rss_mb();
  const double attempted = static_cast<double>(digests.size());

  std::cout << std::fixed << std::setprecision(4);
  std::cout << "workload " << opt.workload << "  seed " << opt.seed
            << "  trace " << (opt.trace ? 1 : 0) << "\n";
  std::cout << "measured " << measured_s << " s: " << rounds.size()
            << " rounds of " << kUnitsPerRound << " units, "
            << static_cast<std::uint64_t>(cycles_per_round)
            << " requested DRAM cycles per round\n";
  std::cout << "round wall s:";
  for (const Round& r : rounds) {
    std::cout << " " << std::setprecision(3) << r.wall_s << (r.traced ? "t" : "");
  }
  std::cout << std::setprecision(4) << "\n";
  std::cout << "unit samples " << unit_ms.size() << ", above p90 "
            << samples_above(unit_ms.size(), kTailQuantile) << " (rule: >= "
            << kTailSamples << ")\n";
  for (const MetricSpec& m : kEndToEnd) {
    std::cout << "  " << std::left << std::setw(20) << m.name << std::right
              << std::setw(14) << e2e[m.name] << " " << m.unit << "\n";
  }
  std::cout << "  " << std::left << std::setw(20) << "failed_frac"
            << std::right << std::setw(14)
            << (attempted > 0 ? static_cast<double>(failed) / attempted : 0.0)
            << " (" << failed << " of " << digests.size() << " units)\n";
  std::cout << "digest " << hex(digests.empty() ? 0 : digests.front())
            << "  reference " << hex(reference) << " (" << check_s << " s)"
            << "  golden " << (opt.expect.empty() ? "none" : hex(expected))
            << (reference_ok ? "" : "  MISMATCH") << "\n";

  LayerValues layer;
  if (opt.trace) {
    // Per-unit layer values: median over traced units.
    std::map<std::string, std::vector<double>> per_unit;
    for (const LayerValues& u : traced_units) {
      for (const auto& [k, v] : u) per_unit[k].push_back(v);
    }
    for (auto& [k, v] : per_unit) layer[k] = median(v);
    wl.probe_layers(layer, log);
    const double untraced = wall;
    layer["trace.wall_s"] = traced_wall;
    layer["trace.overhead_pct"] = (traced_wall / untraced - 1.0) * 100.0;

    std::cout << "per-layer self time (traced rounds, set-up and probes)\n";
    std::cout << "  " << std::left << std::setw(28) << "span" << std::right
              << std::setw(8) << "count" << std::setw(14) << "total ms"
              << std::setw(14) << "self ms\n";
    for (const SpanLog::SelfTime& s : spans.self_times()) {
      std::cout << "  " << std::left << std::setw(28) << s.name << std::right
                << std::setw(8) << s.count << std::setw(14) << s.total_ms
                << std::setw(14) << s.self_ms << "\n";
    }
    std::cout << "tracing overhead: traced wall_s " << layer["trace.wall_s"]
              << " vs untraced " << untraced << " ("
              << layer["trace.overhead_pct"] << "%)\n";
    // A layer the workload bypasses is not measured; its JSON value is 0.
    for (const MetricSpec& m : kPerLayer) {
      std::cout << "  " << std::left << std::setw(28) << m.name << std::right;
      const auto it = layer.find(m.name);
      if (it == layer.end()) {
        std::cout << std::setw(16) << "bypassed" << "\n";
      } else {
        std::cout << std::setw(16) << it->second << " " << m.unit << "\n";
      }
    }
    if (!opt.trace_out.empty()) {
      std::ofstream out(opt.trace_out);
      spans.write_chrome_json(out);
      if (!out) {
        std::cerr << "cannot write trace to " << opt.trace_out << "\n";
        return 1;
      }
      std::cout << "trace written to " << opt.trace_out << " ("
                << spans.records().size() << " spans)\n";
    }
  }

  std::cout << std::defaultfloat << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << digests.size() << ", \"failed\": "
            << failed << ", ";
  print_json_metrics(std::cout, opt.trace ? kPerLayer : kEndToEnd,
                     opt.trace ? layer : e2e);
  std::cout << "}" << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Clock::time_point entry = Clock::now();
  Options opt;
  bool parsed = false;
  try {
    parsed = parse(argc, argv, opt);
  } catch (const std::exception&) {  // malformed number
  }
  if (!parsed) {
    std::cerr << "usage: edsim_perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--expect <hex>] "
                 "[--trace-out <path>] [--tmpdir <dir>] [--spawn-ns <t>] "
                 "[--setup-slot <k>] [--setup-only 1]\n";
    return 2;
  }
  Clock::time_point start = entry;
  if (opt.spawn_ns >= 0) {
    start = Clock::time_point(std::chrono::nanoseconds(opt.spawn_ns));
    if (start > entry) {
      std::cerr << "--spawn-ns lies after process start\n";
      return 2;
    }
  }
  try {
    const std::unique_ptr<Workload> wl =
        make_workload(opt.workload, opt.seed, opt.tmpdir);
    if (wl == nullptr) {
      std::cerr << "unknown workload '" << opt.workload << "'\n";
      return 2;
    }
    return run(opt, *wl, start);
  } catch (const std::exception& e) {
    std::cerr << "edsim_perfbench: " << e.what() << "\n";
    return 1;
  }
}
