#pragma once

#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "clients/workload_cache.hpp"
#include "common/hash.hpp"
#include "core/cost_model.hpp"
#include "core/system_config.hpp"
#include "telemetry/metrics.hpp"

namespace edsim::dram {
struct ControllerStats;
}

namespace edsim::core {

/// Workload used to score a configuration: a mix of streaming and random
/// clients at the requested aggregate demand.
struct EvalWorkload {
  double demand_gbyte_s = 1.0;   ///< aggregate client demand
  unsigned stream_clients = 2;
  unsigned random_clients = 2;
  std::uint64_t sim_cycles = 200'000;
  std::uint64_t seed = 17;
  /// Warm-up prefix simulated before the measured window (cache/bank
  /// warm-up, client ramp). Measurement counters reset at the boundary.
  std::uint64_t warmup_cycles = 0;
  /// Power dissipated by the co-located logic (embedded designs heat the
  /// DRAM; §1's junction-temperature caveat). Watts.
  double logic_power_w = 1.0;

  /// Content hash over every field; keys the simulated channel shapes and
  /// the evaluation-memoization map (seed and demand included, so any
  /// change that could alter results invalidates both caches).
  std::uint64_t content_hash() const {
    ContentHasher h;
    h.mix(demand_gbyte_s)
        .mix(stream_clients)
        .mix(random_clients)
        .mix(sim_cycles)
        .mix(seed)
        .mix(warmup_cycles)
        .mix(logic_power_w);
    return h.digest();
  }
};

/// Full metric vector for one design point (§3's dimensions made
/// explicit).
struct Metrics {
  std::string name;
  double die_area_mm2 = 0.0;      ///< master chip
  double memory_area_mm2 = 0.0;
  double logic_area_mm2 = 0.0;
  double sustained_gbyte_s = 0.0;
  double peak_gbyte_s = 0.0;
  double bandwidth_efficiency = 0.0;
  double avg_read_latency_ns = 0.0;
  double worst_read_latency_ns = 0.0; ///< simulated maximum over the run
  // Analytical worst-case bounds for the eval client set (core/wcet.hpp):
  // the predictability column next to every simulated average. A zero
  // wcet_read_latency_ns means the client set is inadmissible for the
  // chosen scheduler (no latency bound exists).
  double wcet_read_latency_ns = 0.0;
  double wcet_bandwidth_gbyte_s = 0.0;
  double io_power_mw = 0.0;
  double total_power_mw = 0.0;
  double installed_mbit = 0.0;
  double waste_mbit = 0.0;        ///< installed - required (granularity)
  double unit_cost_usd = 0.0;
  double logic_speed = 1.0;       ///< relative logic clock (process choice)
  // §1 thermal operating point (embedded: logic heats the DRAM; discrete
  // memory sits in its own package at the logic's ambient).
  double junction_c = 0.0;
  double retention_ms = 0.0;
  double refresh_overhead = 0.0;  ///< fraction of cycles refreshing
  // Always at their defaults: every evaluation measures its full window.
  // They are kept so the .edrs record codec and the perfbench metric
  // digest (which hashes them) stay unchanged; they go together with
  // the next result-store version.
  bool sampled = false;
  unsigned sample_windows = 0;         ///< measured windows averaged
  double sustained_gbyte_s_ci = 0.0;   ///< 95% CI half-width
  double avg_read_latency_ns_ci = 0.0; ///< 95% CI half-width
};

/// Counter snapshot of a persistent result store (the third cache tier;
/// see service::ResultStore for the on-disk implementation).
struct ResultStoreStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t bytes_read = 0;     ///< log bytes scanned on open
  std::uint64_t bytes_written = 0;  ///< record bytes appended
  std::uint64_t recovered_tail_records = 0;  ///< torn records dropped on open
  std::size_t entries = 0;
};

/// Interface of a persistent, content-addressed evaluation cache keyed by
/// Evaluator::result_key (the (SystemConfig, EvalWorkload) content-hash
/// pair). The Evaluator consults it behind the in-memory memo, so sweeps
/// warm-start across processes and machines.
/// Implementations must be thread-safe (sweep threads share one store)
/// and must only ever return metrics that were stored bit-exactly — a
/// corrupt backing file is a structured error, never a wrong answer.
class ResultStoreBase {
 public:
  virtual ~ResultStoreBase() = default;
  /// Fetch the metrics stored under `key` into `*out`; false on miss.
  virtual bool find(std::uint64_t key, Metrics* out) = 0;
  /// Persist `m` under `key`. Idempotent: re-putting a present key is a
  /// no-op (the metrics for a key are deterministic, so values never
  /// conflict).
  virtual void put(std::uint64_t key, const Metrics& m) = 0;
  virtual ResultStoreStats stats() const = 0;
};

/// Evaluates design points by simulation (bandwidth/latency), analytical
/// models (area, power) and the cost model.
///
/// Two caches accelerate repeated scoring (both on by default, both
/// bit-identical to the uncached path — enforced by the differential
/// fuzz suite):
///  * one simulated channel per channel shape, so configs that differ only
///    in what the memory timing does not see (process, logic size, name)
///    share one warm-up plus window and each score their own models;
///  * an evaluation-memoization map keyed by (SystemConfig::content_hash,
///    EvalWorkload::content_hash), so re-scoring an identical point
///    (design_explorer refinement passes, pareto re-runs) is a lookup.
/// Memoization is bypassed whenever a MetricRegistry is attached: a memo
/// hit could not replay the per-evaluation telemetry export. The channel
/// is simulated once per shape, so its clients run live: a compiled
/// arena would be built for one replay, and most of its records never
/// issue once the channel back-pressures its clients.
class Evaluator {
 public:
  explicit Evaluator(CostModel cost = CostModel{})
      : cost_(cost), caches_(std::make_shared<Caches>()) {}

  /// Fan sweep() out over this many threads (0 = hardware default,
  /// 1 = serial). evaluate() is self-contained and deterministic per
  /// config, so the sweep result is identical at every thread count.
  void set_threads(unsigned threads) { threads_ = threads; }

  /// Optional observability tap: when set, every evaluation snapshots its
  /// channel statistics and score into the registry under the config's
  /// name (e.g. `embedded-16.channel0.row_hits`). sweep() keeps this
  /// deterministic under the thread pool by filling one scratch registry
  /// per config and merging them in input order.
  void set_metrics(telemetry::MetricRegistry* reg) { metrics_ = reg; }

  /// No-op: evaluations always run live clients. Kept for perfbench's
  /// reference path, which still calls it.
  void set_workload_arena(bool) {}

  /// Memoize full evaluations by (config, workload) content hash
  /// (default on). Bypassed while a MetricRegistry is attached.
  void set_memoize(bool on) { memoize_ = on; }
  bool memoize() const { return memoize_; }

  /// Attach a persistent result store as the tier behind the in-memory
  /// memo: a memo miss consults the store before simulating, and every
  /// computed result is appended to it. Shared across copies of this
  /// evaluator (it lives with the other caches). nullptr detaches; the
  /// store-less path is the differential reference. Like the memo, the
  /// store is bypassed while a MetricRegistry is attached.
  void set_result_store(std::shared_ptr<ResultStoreBase> store);
  std::shared_ptr<ResultStoreBase> result_store() const;

  /// The content-address of one evaluation: derive_seed over the config
  /// and workload content hashes. Keys both the in-memory memo and the
  /// persistent store, so the address is stable across processes and
  /// machines.
  std::uint64_t result_key(const SystemConfig& cfg,
                           const EvalWorkload& w) const;

  /// Share one simulated channel per channel shape (default on): the
  /// first evaluation of a shape simulates warm-up plus window, and every
  /// config variant of that shape reads its statistics — sweep threads
  /// block on the one simulation. Off, every point simulates its own
  /// channel: the differential reference.
  void set_checkpoint(bool on) { checkpoint_ = on; }
  bool checkpoint() const { return checkpoint_; }

  /// Resident front end for dense traffic inside the simulated systems
  /// (default on; see clients::MemorySystem::set_burst_issue, which
  /// switches the dense branch of MemorySystem::stretch). Bit-identical
  /// to per-cycle stepping, so results (and cache keys) do not depend on
  /// it; off is the differential reference.
  void set_burst_issue(bool on) { burst_issue_ = on; }
  bool burst_issue() const { return burst_issue_; }

  /// The sealed snapshot of a (config, workload) pair's memory system at
  /// the end of its warm-up, simulated afresh on every call; nullptr when
  /// warmup_cycles == 0. Its clients replay arenas compiled (and kept in
  /// workload_cache()) for the evaluation's budget, not the live clients
  /// evaluate() runs: the snapshot bytes of the two differ.
  std::shared_ptr<const std::vector<std::uint8_t>> warmup_checkpoint(
      const SystemConfig& cfg, const EvalWorkload& w) const;

  Metrics evaluate(const SystemConfig& cfg, const EvalWorkload& w) const;

  /// Evaluate a whole candidate list. Configs are scored independently
  /// (in parallel when set_threads allows) and returned in input order.
  std::vector<Metrics> sweep(const std::vector<SystemConfig>& cfgs,
                             const EvalWorkload& w) const;

  /// Cache observability (shared across copies of this evaluator).
  std::uint64_t memo_hits() const;
  std::size_t memo_entries() const;
  /// The arenas warmup_checkpoint compiled; evaluate() and sweep() leave
  /// it empty.
  const clients::WorkloadCache& workload_cache() const {
    return caches_->arenas;
  }
  void clear_caches() const;

  /// One-call counter snapshot across the cache layers (evaluation
  /// memoization, simulated channel shapes, and — when attached — the
  /// persistent result store).
  struct CacheStats {
    std::uint64_t memo_hits = 0;
    std::size_t memo_entries = 0;
    std::uint64_t shape_hits = 0;     ///< evaluations that reused a channel
    std::size_t shape_entries = 0;    ///< channels simulated (one per shape)
    bool store_attached = false;
    ResultStoreStats store;
  };
  CacheStats cache_stats() const;

 private:
  /// Shared mutable cache state, held behind a shared_ptr so that
  /// `const` evaluate() can fill caches and Evaluator stays copyable
  /// (copies share the caches — compilation and memoization are pure, so
  /// sharing never changes results).
  struct Caches {
    clients::WorkloadCache arenas;
    mutable std::mutex memo_mu;
    std::unordered_map<std::uint64_t, Metrics> memo;
    std::uint64_t memo_hits = 0;
    // Simulated channel statistics (warm-up plus window) keyed by the
    // channel-shape hash. Entries hold a shared_future so concurrent sweep
    // threads block on the single simulation instead of each running it.
    mutable std::mutex shape_mu;
    std::unordered_map<
        std::uint64_t,
        std::shared_future<std::shared_ptr<const dram::ControllerStats>>>
        shapes;
    std::uint64_t shape_hits = 0;
    // Persistent tier behind the memo (guarded by memo_mu; the store
    // itself is thread-safe, the lock only covers the pointer).
    std::shared_ptr<ResultStoreBase> store;
  };

  /// Score one point against registry `reg`. A freshly computed result
  /// enters the memo and sets `*fresh` to its key; the caller writes it to
  /// the store (store_result), which lets sweep() write in input order.
  Metrics evaluate_into(const SystemConfig& cfg, const EvalWorkload& w,
                        telemetry::MetricRegistry* reg,
                        std::optional<std::uint64_t>* fresh) const;
  /// Cache-only lookup (memo, then store): fills `*out` and returns true
  /// without simulating, or returns false leaving `*out` untouched.
  bool lookup_result(std::uint64_t key, Metrics* out) const;
  /// Record a computed result in the memo.
  void preload_result(std::uint64_t key, const Metrics& m) const;
  /// Append a computed result to the store, when one is attached.
  void store_result(std::uint64_t key, const Metrics& m) const;
  /// The simulated statistics of one channel shape, computing them (once)
  /// via `simulate` on a miss.
  std::shared_ptr<const dram::ControllerStats> shared_channel(
      std::uint64_t key,
      const std::function<dram::ControllerStats()>& simulate) const;

  CostModel cost_;
  unsigned threads_ = 0;
  telemetry::MetricRegistry* metrics_ = nullptr;
  bool memoize_ = true;
  bool checkpoint_ = true;
  bool burst_issue_ = true;
  std::shared_ptr<Caches> caches_;
};

}  // namespace edsim::core
