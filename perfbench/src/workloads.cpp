// The benchmark workloads, idle_decode and design_sweep. Each one builds
// its inputs from the seed, drives the edsim libraries only through their
// public entry points, and times those calls from the outside.

#include "workloads.hpp"

#include <algorithm>
#include <filesystem>
#include <functional>
#include <stdexcept>

#include "clients/compiled_trace.hpp"
#include "clients/system.hpp"
#include "clients/workload_cache.hpp"
#include "common/hash.hpp"
#include "common/rng.hpp"
#include "core/cost_model.hpp"
#include "core/evaluator.hpp"
#include "core/pareto.hpp"
#include "core/wcet.hpp"
#include "dram/presets.hpp"
#include "dram/telemetry_hooks.hpp"
#include "mpeg/trace_gen.hpp"
#include "reliability/manager.hpp"
#include "service/result_store.hpp"

namespace perfbench {
namespace {

using namespace edsim;

/// A seed-derived choice in [0, n).
std::uint64_t pick(std::uint64_t seed, std::uint64_t stream, std::uint64_t n) {
  return derive_seed(seed, stream) % n;
}

// --- digests -----------------------------------------------------------------

void mix_accumulator(ContentHasher& h, const Accumulator& a) {
  h.mix(a.count()).mix(a.sum()).mix(a.mean()).mix(a.min()).mix(a.max()).mix(
      a.variance());
}

/// Every ControllerStats field, the Accumulator moments and the mirrored
/// reliability counters.
std::uint64_t digest_stats(const dram::ControllerStats& s) {
  ContentHasher h;
  h.mix(s.cycles).mix(s.reads).mix(s.writes).mix(s.row_hits)
      .mix(s.row_misses).mix(s.row_conflicts).mix(s.activations)
      .mix(s.precharges).mix(s.refreshes).mix(s.data_bus_busy_cycles)
      .mix(s.bytes_transferred).mix(s.powerdown_cycles)
      .mix(s.redirected_requests).mix(s.watchdog_retries)
      .mix(s.maintenance_ops);
  const dram::ReliabilityCounters& r = s.reliability;
  h.mix(r.injected).mix(r.corrected).mix(r.uncorrected).mix(r.remapped)
      .mix(r.demand_corrections).mix(r.scrub_corrections)
      .mix(r.write_repairs).mix(r.uncorrectable_events)
      .mix(r.rows_remapped).mix(r.banks_retired).mix(r.scrubbed_rows)
      .mix(r.maint_ops).mix(r.maint_rows).mix(r.neighbor_rows)
      .mix(r.disturb_flips);
  mix_accumulator(h, s.read_latency);
  mix_accumulator(h, s.write_latency);
  mix_accumulator(h, s.queue_occupancy);
  return h.digest();
}

/// The full Metrics vector of a sweep, in order.
std::uint64_t digest_metrics(const std::vector<core::Metrics>& ms) {
  ContentHasher h;
  h.mix(static_cast<std::uint64_t>(ms.size()));
  for (const core::Metrics& m : ms) {
    h.mix(m.name).mix(m.die_area_mm2).mix(m.memory_area_mm2)
        .mix(m.logic_area_mm2).mix(m.sustained_gbyte_s).mix(m.peak_gbyte_s)
        .mix(m.bandwidth_efficiency).mix(m.avg_read_latency_ns)
        .mix(m.worst_read_latency_ns).mix(m.wcet_read_latency_ns)
        .mix(m.wcet_bandwidth_gbyte_s).mix(m.io_power_mw)
        .mix(m.total_power_mw).mix(m.installed_mbit).mix(m.waste_mbit)
        .mix(m.unit_cost_usd).mix(m.logic_speed).mix(m.junction_c)
        .mix(m.retention_ms).mix(m.refresh_overhead).mix(m.sampled)
        .mix(m.sample_windows).mix(m.sustained_gbyte_s_ci)
        .mix(m.avg_read_latency_ns_ci);
  }
  return h.digest();
}

// --- channel shapes ------------------------------------------------------------

/// Makes one client: an arena replay client compiled through `cache`, or
/// the live generator when `cache` is null (the reference path).
using ClientFactory = std::function<std::unique_ptr<clients::Client>(
    unsigned id, clients::WorkloadCache* cache)>;

template <class LiveClient, class Params, class CompileFn>
ClientFactory client_factory(std::string name, Params p,
                             std::uint64_t max_requests, CompileFn compile) {
  return [name, p, max_requests, compile](
             unsigned id, clients::WorkloadCache* cache)
             -> std::unique_ptr<clients::Client> {
    if (cache == nullptr) return std::make_unique<LiveClient>(id, name, p);
    auto arena = cache->get_or_compile(
        clients::compile_key(p, max_requests),
        [&] { return compile(p, max_requests); });
    return std::make_unique<clients::ArenaReplayClient>(id, name,
                                                        std::move(arena));
  };
}

ClientFactory stream_client(std::string name,
                            const clients::StreamClient::Params& p,
                            std::uint64_t n) {
  return client_factory<clients::StreamClient>(
      std::move(name), p, n, [](const auto& q, std::uint64_t m) {
        return clients::compile_stream(q, m);
      });
}

ClientFactory random_client(std::string name,
                            const clients::RandomClient::Params& p,
                            std::uint64_t n) {
  return client_factory<clients::RandomClient>(
      std::move(name), p, n, [](const auto& q, std::uint64_t m) {
        return clients::compile_random(q, m);
      });
}

/// One channel configuration, its client roster and its window.
struct Shape {
  dram::DramConfig cfg;
  /// Untimed prefix simulated before the window; measurement counters
  /// reset at its end, as the Evaluator's warm-up does.
  std::uint64_t warmup = 0;
  std::uint64_t cycles = 0;  ///< the measured window
  std::vector<ClientFactory> clients;
  /// Extra roster added first (the MPEG decoder's four clients).
  std::function<void(clients::MemorySystem&, clients::WorkloadCache*)> extra;
  /// Attach a ReliabilityManager built from `rel`.
  bool reliability = false;
  reliability::ReliabilityConfig rel;
};

/// The shape's ReliabilityManager, or nullptr when it has none.
std::unique_ptr<reliability::ReliabilityManager> make_reliability(
    const Shape& sh) {
  if (!sh.reliability) return nullptr;
  return std::make_unique<reliability::ReliabilityManager>(sh.cfg, sh.rel);
}

/// Records every request the front end hands the controller, so the
/// controller can be replayed alone.
class RequestRecorder final : public dram::TelemetryHooks {
 public:
  struct Arrival {
    std::uint64_t cycle = 0;
    dram::Request req;
  };
  void on_request_enqueued(const dram::Request& req,
                           const dram::Coordinates& /*coord*/,
                           std::uint64_t cycle) override {
    arrivals.push_back(Arrival{cycle, req});
  }
  std::vector<Arrival> arrivals;
};

/// Channel shapes sharing one arena cache, and the probes that time the
/// layers under them directly.
class ShapeSet {
 public:
  explicit ShapeSet(std::vector<Shape> shapes) : shapes_(std::move(shapes)) {}

  const std::vector<Shape>& shapes() const { return shapes_; }
  clients::WorkloadCache& cache() { return cache_; }

  /// Measured-window cycles, summed over the shapes.
  std::uint64_t window_cycles() const {
    std::uint64_t c = 0;
    for (const Shape& sh : shapes_) c += sh.cycles;
    return c;
  }

  /// Build every shape's system once, compiling its arenas into the cache.
  void compile() {
    for (const Shape& sh : shapes_) build(sh, &cache_, nullptr);
  }

  struct Run {
    std::vector<dram::ControllerStats> stats;  ///< one per shape
    double run_ms = 0.0;  ///< inside MemorySystem::run, windows only
  };

  /// One pass over every shape: the production path (arena replay, fast
  /// forward, burst issue), or the reference path (live generators,
  /// per-cycle stepping, no burst issue).
  Run run(SpanLog* log, bool reference = false) {
    Run out;
    for (const Shape& sh : shapes_) {
      Span b(log, "clients.build");
      const auto rel = make_reliability(sh);
      const auto sys = build(sh, reference ? nullptr : &cache_, rel.get());
      if (reference) {
        sys->set_fast_forward(false);
        sys->set_burst_issue(false);
      }
      if (sh.warmup > 0) {
        sys->run(sh.warmup);
        sys->reset_measurement();
      }
      b.stop();
      Span r(log, "clients.run");
      sys->run(sh.cycles);
      out.run_ms += r.stop();
      out.stats.push_back(sys->controller().stats());
    }
    return out;
  }

  /// clients.run_ms, clients.ns_per_* and the dram.* regime counters of
  /// one run, summed over its shapes.
  void report(const Run& r, LayerValues& out) const {
    std::uint64_t requests = 0, row_hits = 0, row_accesses = 0, busy = 0,
                  cycles = 0, powerdown = 0, refreshes = 0, maintenance = 0;
    double occupancy_sum = 0.0;
    std::uint64_t occupancy_samples = 0;
    for (const dram::ControllerStats& s : r.stats) {
      requests += s.reads + s.writes;
      row_hits += s.row_hits;
      row_accesses += s.row_hits + s.row_misses + s.row_conflicts;
      busy += s.data_bus_busy_cycles;
      cycles += s.cycles;
      powerdown += s.powerdown_cycles;
      refreshes += s.refreshes;
      maintenance += s.maintenance_ops;
      occupancy_sum += s.queue_occupancy.sum();
      occupancy_samples += s.queue_occupancy.count();
    }
    auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
    auto d = [](std::uint64_t v) { return static_cast<double>(v); };
    out["clients.run_ms"] = r.run_ms;
    out["clients.ns_per_sim_cycle"] = r.run_ms * 1e6 / d(window_cycles());
    out["clients.ns_per_request"] = ratio(r.run_ms * 1e6, d(requests));
    out["dram.requests"] = d(requests);
    out["dram.row_hit_rate"] = ratio(d(row_hits), d(row_accesses));
    out["dram.bus_utilization"] = ratio(d(busy), d(cycles));
    out["dram.powerdown_fraction"] = ratio(d(powerdown), d(cycles));
    out["dram.queue_occupancy_mean"] = ratio(occupancy_sum, d(occupancy_samples));
    out["dram.refreshes"] = d(refreshes);
    out["dram.maintenance_ops"] = d(maintenance);
  }

  /// dram.replay_ns_per_cycle: every shape's request stream over warm-up
  /// and window, recorded from a production run, replayed into bare
  /// controllers via enqueue/tick_until.
  void probe_replay(LayerValues& out, SpanLog* log) {
    std::vector<std::vector<RequestRecorder::Arrival>> streams;
    std::uint64_t total_cycles = 0;
    for (const Shape& sh : shapes_) {
      RequestRecorder rec;
      const auto sys = build(sh, &cache_, nullptr);
      sys->attach_telemetry(&rec);
      sys->run(sh.warmup + sh.cycles);
      streams.push_back(std::move(rec.arrivals));
      total_cycles += sh.warmup + sh.cycles;
    }
    std::vector<double> ns_per_cycle;
    std::vector<dram::Request> done;
    for (int rep = 0; rep < 3; ++rep) {
      Span s(log, "dram.replay");
      const Clock::time_point t0 = Clock::now();
      for (std::size_t i = 0; i < shapes_.size(); ++i) {
        const Shape& sh = shapes_[i];
        dram::Controller ctl(sh.cfg);
        for (const RequestRecorder::Arrival& a : streams[i]) {
          if (ctl.cycle() < a.cycle) ctl.tick_until(a.cycle);
          ctl.drain_completed_into(done);
          while (!ctl.enqueue(a.req)) {
            ctl.tick();
            ctl.drain_completed_into(done);
          }
        }
        const std::uint64_t end = sh.warmup + sh.cycles;
        if (ctl.cycle() < end) ctl.tick_until(end);
      }
      ns_per_cycle.push_back(seconds_between(t0, Clock::now()) * 1e9 /
                             static_cast<double>(total_cycles));
    }
    out["dram.replay_ns_per_cycle"] = median(ns_per_cycle);
  }

  /// snapshot.*: save the first shape's system after `at` cycles and
  /// restore the bytes into a freshly built twin. Returns the bytes.
  std::vector<std::uint8_t> probe_snapshot(LayerValues& out, SpanLog* log,
                                           std::uint64_t at) {
    const Shape& sh = shapes_.front();
    const auto rel = make_reliability(sh);
    const auto sys = build(sh, &cache_, rel.get());
    sys->run(at);
    std::vector<double> save_ms, restore_ms;
    std::vector<std::uint8_t> blob;
    for (int rep = 0; rep < 5; ++rep) {
      Span s(log, "snapshot.save");
      const Clock::time_point t0 = Clock::now();
      blob = sys->save_snapshot();
      save_ms.push_back(seconds_between(t0, Clock::now()) * 1e3);
    }
    for (int rep = 0; rep < 5; ++rep) {
      const auto twin_rel = make_reliability(sh);
      const auto twin = build(sh, &cache_, twin_rel.get());
      Span s(log, "snapshot.restore");
      const Clock::time_point t0 = Clock::now();
      twin->restore_snapshot(blob);
      restore_ms.push_back(seconds_between(t0, Clock::now()) * 1e3);
    }
    out["snapshot.save_ms"] = median(save_ms);
    out["snapshot.restore_ms"] = median(restore_ms);
    out["snapshot.bytes"] = static_cast<double>(blob.size());
    return blob;
  }

 private:
  static std::unique_ptr<clients::MemorySystem> build(
      const Shape& sh, clients::WorkloadCache* cache,
      reliability::ReliabilityManager* rel) {
    auto sys = std::make_unique<clients::MemorySystem>(
        sh.cfg, clients::ArbiterKind::kRoundRobin);
    if (sh.extra) sh.extra(*sys, cache);
    for (const ClientFactory& f : sh.clients) {
      sys->add_client(f(static_cast<unsigned>(sys->client_count()), cache));
    }
    if (rel != nullptr) sys->controller().attach_reliability(rel);
    return sys;
  }

  std::vector<Shape> shapes_;
  clients::WorkloadCache cache_;
};

// --- idle_decode -------------------------------------------------------------------

// An MPEG2 MP@ML decoder plus a portable player's paced 8 MB/s stream on a
// power-managed channel with self-managed maintenance and a weak-cell
// tail. The queue is nearly empty; fast-forward, next_event_cycle and
// maintenance deadlines carry the work.
constexpr std::uint64_t kDecodeCycles = 2'000'000;

dram::DramConfig decode_config() {
  dram::DramConfig cfg = dram::presets::edram_module(16, 64, 4, 2048);
  cfg.powerdown_enabled = true;
  cfg.powerdown_idle_cycles = 32;
  return cfg;
}

class IdleDecode final : public Workload {
 public:
  explicit IdleDecode(std::uint64_t seed) {
    mpeg::DecoderConfig dc;
    dc.format = mpeg::pal();
    model_ = std::make_shared<const mpeg::DecoderModel>(dc);
    map_ = std::make_shared<const mpeg::MemoryMap>(model_->build_memory_map());

    Shape s;
    s.cfg = decode_config();
    s.cycles = kDecodeCycles;
    s.extra = [model = model_, map = map_](clients::MemorySystem& sys,
                                           clients::WorkloadCache* cache) {
      if (cache == nullptr) {
        mpeg::add_decoder_clients(sys, *model, *map);
      } else {
        mpeg::add_compiled_decoder_clients(sys, *model, *map, kDecodeCycles,
                                           cache);
      }
    };
    {  // Portable-player decode stream paced at 8 MB/s.
      const unsigned burst = s.cfg.bytes_per_access();
      const double bytes_per_cycle = 8e6 / s.cfg.clock.hz();
      clients::StreamClient::Params p;
      p.base = pick(seed, 20, 16) * (64u << 10);
      p.length = 256u << 10;
      p.burst_bytes = burst;
      p.period_cycles =
          static_cast<unsigned>(static_cast<double>(burst) / bytes_per_cycle);
      s.clients.push_back(
          stream_client("stream", p, s.cycles / p.period_cycles + 1));
    }
    s.reliability = true;
    s.rel.inject.seed = derive_seed(seed, 21);
    s.rel.inject.weak_cells = 12;
    // One retention class for the whole weak tail: the seed moves the weak
    // cells but not the maintenance schedule, so every seed does equal work.
    s.rel.inject.weak_retention_min_frac = 0.002;
    s.rel.inject.weak_retention_max_frac = 0.002;
    s.rel.scrub_enabled = false;
    s.rel.maintenance.enabled = true;
    std::vector<Shape> shapes;
    shapes.push_back(std::move(s));
    set_ = std::make_unique<ShapeSet>(std::move(shapes));
  }

  void setup(SpanLog* log) override {
    Span s(log, "clients.compile");
    const Clock::time_point t0 = Clock::now();
    {
      Span m(log, "mpeg.compile");
      const Clock::time_point m0 = Clock::now();
      const dram::DramConfig cfg = decode_config();
      mpeg::compile_decoder_clients(cfg.bytes_per_access(), cfg.clock, *model_,
                                    *map_, kDecodeCycles, &set_->cache());
      mpeg_compile_ms_ = seconds_between(m0, Clock::now()) * 1e3;
    }
    set_->compile();
    compile_ms_ = seconds_between(t0, Clock::now()) * 1e3;
  }

  UnitResult run_unit(SpanLog* log) override {
    UnitResult u;
    Span unit(log, "unit");
    clients::WorkloadCache& cache = set_->cache();
    const std::uint64_t lookups0 = cache.hits() + cache.misses();
    const std::size_t entries0 = cache.entries();
    const ShapeSet::Run r = set_->run(log);
    Span d(log, "digest");
    ContentHasher h;
    for (const dram::ControllerStats& s : r.stats) h.mix(digest_stats(s));
    u.digest = h.digest();
    if (log != nullptr) {
      const double lookups =
          static_cast<double>(cache.hits() + cache.misses() - lookups0);
      set_->report(r, u.layer);
      u.layer["clients.arena_lookups"] = lookups;
      u.layer["clients.arena_logical_hits"] =
          lookups - static_cast<double>(cache.entries() - entries0);
    }
    return u;
  }

  std::uint64_t reference_digest() override {
    ContentHasher h;
    for (const dram::ControllerStats& s : set_->run(nullptr, true).stats) {
      h.mix(digest_stats(s));
    }
    return h.digest();
  }

  std::uint64_t sim_cycles_per_unit() const override {
    return set_->window_cycles();
  }

  void probe_layers(LayerValues& out, SpanLog* log) override {
    out["clients.compile_ms"] = compile_ms_;
    out["clients.arena_bytes"] =
        static_cast<double>(set_->cache().arena_bytes());
    out["mpeg.compile_ms"] = mpeg_compile_ms_;
    set_->probe_replay(out, log);
  }

 private:
  std::shared_ptr<const mpeg::DecoderModel> model_;
  std::shared_ptr<const mpeg::MemoryMap> map_;
  std::unique_ptr<ShapeSet> set_;
  double compile_ms_ = 0.0;
  double mpeg_compile_ms_ = 0.0;
};

// --- design_sweep ----------------------------------------------------------------

// design_explorer's 15 candidates, swept by a fresh Evaluator (2 threads,
// checkpointed warm-up) into a fresh result store, then re-swept warm from
// that store by a second fresh Evaluator, as a `--store` rerun does.
class DesignSweep final : public Workload {
 public:
  DesignSweep(std::uint64_t seed, const std::string& tmpdir)
      : store_path_((std::filesystem::path(tmpdir) / "design_sweep.edrs")
                        .string()) {
    // design_explorer's own workload (examples/design_explorer.cpp).
    w_.demand_gbyte_s = 2.0;
    w_.sim_cycles = 50'000;
    w_.warmup_cycles = 10'000;
    w_.seed = derive_seed(seed, 30);
  }

  void setup(SpanLog* /*log*/) override {
    std::filesystem::create_directories(
        std::filesystem::path(store_path_).parent_path());
    cfgs_.clear();
    for (const core::BaseProcess p :
         {core::BaseProcess::kDramBased, core::BaseProcess::kLogicBased,
          core::BaseProcess::kMerged}) {
      for (const unsigned width : {64u, 128u, 256u, 512u}) {
        core::SystemConfig s;
        s.name = std::string(core::to_string(p)) + "/" +
                 std::to_string(width) + "b";
        s.integration = core::Integration::kEmbedded;
        s.process = p;
        s.required_memory = Capacity::mbit(16);
        s.interface_bits = width;
        s.banks = 4;
        s.page_bytes = 2048;
        cfgs_.push_back(s);
      }
    }
    for (const unsigned width : {16u, 32u, 64u}) {
      core::SystemConfig s;
      s.name = "discrete/" + std::to_string(width) + "b";
      s.integration = core::Integration::kDiscrete;
      s.required_memory = Capacity::mbit(16);
      s.interface_bits = width;
      cfgs_.push_back(s);
    }
  }

  UnitResult run_unit(SpanLog* log) override {
    UnitResult u;
    Span unit(log, "unit");
    std::filesystem::remove(store_path_);
    std::vector<core::Metrics> cold, warm;
    {
      core::Evaluator ev;
      ev.set_threads(kThreads);
      Span o(log, "service.store_open");
      auto store = std::make_shared<service::ResultStore>(store_path_);
      o.stop();
      ev.set_result_store(store);
      const double cpu0 = log != nullptr ? process_cpu_seconds() : 0.0;
      Span s(log, "core.sweep");
      cold = ev.sweep(cfgs_, w_);
      const double sweep_ms = s.stop();
      if (log != nullptr) {
        const double cpu_s = process_cpu_seconds() - cpu0;
        const clients::WorkloadCache& wc = ev.workload_cache();
        const double lookups = static_cast<double>(wc.hits() + wc.misses());
        u.layer["core.sweep_ms"] = sweep_ms;
        u.layer["parallel.cpu_per_wall"] =
            sweep_ms > 0.0 ? cpu_s * 1e3 / sweep_ms : 0.0;
        u.layer["clients.arena_lookups"] = lookups;
        u.layer["clients.arena_logical_hits"] =
            lookups - static_cast<double>(wc.entries());
        u.layer["clients.arena_bytes"] = static_cast<double>(wc.arena_bytes());
        u.layer["service.store_bytes"] =
            static_cast<double>(store->stats().bytes_written);
      }
    }
    {
      core::Evaluator ev;
      ev.set_threads(kThreads);
      Span o(log, "service.store_open");
      auto store = std::make_shared<service::ResultStore>(store_path_);
      o.stop();
      ev.set_result_store(store);
      Span s(log, "core.sweep_warm");
      warm = ev.sweep(cfgs_, w_);
      s.stop();
      if (log != nullptr) {
        u.layer["service.store_hits"] =
            static_cast<double>(store->stats().hits);
      }
    }
    std::filesystem::remove(store_path_);
    Span d(log, "digest");
    ContentHasher h;
    h.mix(digest_metrics(cold)).mix(digest_metrics(warm));
    u.digest = h.digest();
    last_metrics_ = std::move(cold);
    return u;
  }

  std::uint64_t reference_digest() override {
    core::Evaluator ev;
    ev.set_threads(1);
    ev.set_workload_arena(false);
    ev.set_memoize(false);
    ev.set_checkpoint(false);
    ev.set_burst_issue(false);
    const std::uint64_t d = digest_metrics(ev.sweep(cfgs_, w_));
    ContentHasher h;
    h.mix(d).mix(d);
    return h.digest();
  }

  std::uint64_t sim_cycles_per_unit() const override {
    // Cycles the unit requests: warm-up plus window for every candidate,
    // cold and warm sweep alike (the warm sweep simulates none of them).
    return 2 * cfgs_.size() * (w_.sim_cycles + w_.warmup_cycles);
  }

  void probe_layers(LayerValues& out, SpanLog* log) override {
    if (last_metrics_.empty()) return;
    std::shared_ptr<const std::vector<std::uint8_t>> checkpoint;
    out["core.warmup_checkpoint_ms"] = time_ms(log, "core.warmup_checkpoint", 5, [&] {
      core::Evaluator ev;
      checkpoint = ev.warmup_checkpoint(cfgs_.front(), w_);
    });
    probe_replica(out, log, *checkpoint);
    out["core.evaluate_ms"] = time_ms(log, "core.evaluate", 3, [&] {
      core::Evaluator ev;
      ev.set_memoize(false);
      for (const core::SystemConfig& c : cfgs_) ev.evaluate(c, w_);
    }) / static_cast<double>(cfgs_.size());
    out["core.wcet_ms"] = time_ms(log, "core.wcet", 5, [&] {
      const std::vector<core::WcetClient> wc = {
          {0, 16, 0}, {1, 16, 0}, {2, 16, 0}, {3, 16, 0}};
      for (const core::SystemConfig& c : cfgs_) {
        core::analyze_wcet(c.dram_config(), wc);
      }
    }) / static_cast<double>(cfgs_.size());
    out["core.pareto_ms"] = time_ms(log, "core.pareto", 5, [&] {
      std::vector<core::ParetoPoint> pts;
      for (std::size_t i = 0; i < last_metrics_.size(); ++i) {
        const core::Metrics& m = last_metrics_[i];
        pts.push_back(core::ParetoPoint{
            i, {m.unit_cost_usd, m.total_power_mw, -m.sustained_gbyte_s}});
      }
      for (int i = 0; i < 100; ++i) core::pareto_front(pts);
    }) / 100.0;
    out["core.cost_ms"] = time_ms(log, "core.cost", 5, [&] {
      const core::CostModel cost;
      for (int i = 0; i < 100; ++i) {
        for (std::size_t k = 0; k < cfgs_.size(); ++k) {
          cost.evaluate(cfgs_[k], last_metrics_[k].memory_area_mm2,
                        last_metrics_[k].logic_area_mm2);
        }
      }
    }) / (100.0 * static_cast<double>(cfgs_.size()));
    probe_store(out, log);
  }

 private:
  static constexpr unsigned kThreads = 2;

  /// Median of `reps` timed calls of `fn`, in ms, each under its own span.
  template <class Fn>
  static double time_ms(SpanLog* log, const char* name, int reps, Fn&& fn) {
    std::vector<double> ms;
    for (int i = 0; i < reps; ++i) {
      Span s(log, name);
      const Clock::time_point t0 = Clock::now();
      fn();
      ms.push_back(seconds_between(t0, Clock::now()) * 1e3);
    }
    return median(ms);
  }

  /// The Evaluator's roster for one candidate, rebuilt from its public
  /// inputs as Evaluator::evaluate builds it: 2 paced streams (read, write)
  /// and 2 paced random clients over the first 8 MB, arenas sized for
  /// warm-up plus window. probe_replica checks it byte for byte against
  /// the Evaluator's own warm-up checkpoint and result.
  Shape replica_shape(const core::SystemConfig& c) const {
    Shape s;
    s.cfg = c.dram_config();
    s.warmup = w_.warmup_cycles;
    s.cycles = w_.sim_cycles;
    const unsigned burst = s.cfg.bytes_per_access();
    const std::uint64_t region = std::min<std::uint64_t>(
        c.installed_memory().byte_count(), 8u << 20);
    const unsigned n = w_.stream_clients + w_.random_clients;
    const double bytes_per_s =
        w_.demand_gbyte_s * 1e9 / static_cast<double>(n);
    const double bytes_per_cycle = bytes_per_s / s.cfg.clock.hz();
    const unsigned period = std::max<unsigned>(
        1, static_cast<unsigned>(static_cast<double>(burst) / bytes_per_cycle));
    const std::uint64_t budget = (w_.warmup_cycles + w_.sim_cycles) / period + 2;
    unsigned id = 0;
    for (unsigned i = 0; i < w_.stream_clients; ++i, ++id) {
      clients::StreamClient::Params p;
      p.base = region / n * id;
      p.length = region / n;
      p.burst_bytes = burst;
      p.type = i % 2 == 0 ? dram::AccessType::kRead : dram::AccessType::kWrite;
      p.period_cycles = period;
      s.clients.push_back(stream_client("stream" + std::to_string(i), p, budget));
    }
    for (unsigned i = 0; i < w_.random_clients; ++i, ++id) {
      clients::RandomClient::Params p;
      p.base = region / n * id;
      p.length = region / n;
      p.burst_bytes = burst;
      p.period_cycles = period;
      p.seed = w_.seed + i;
      s.clients.push_back(random_client("random" + std::to_string(i), p, budget));
    }
    return s;
  }

  /// The layers under the sweep, driven directly on the candidates'
  /// rosters: arena compile (clients.compile_ms), the measured windows
  /// (clients.run_ms and the dram.* counters), snapshot save/restore at
  /// the warm-up boundary, and the controller-only replay. Throws when the
  /// rosters do not reproduce the Evaluator's checkpoint and results.
  void probe_replica(LayerValues& out, SpanLog* log,
                     const std::vector<std::uint8_t>& checkpoint) {
    std::vector<Shape> shapes;
    for (const core::SystemConfig& c : cfgs_) shapes.push_back(replica_shape(c));
    ShapeSet set(std::move(shapes));
    {
      Span s(log, "clients.compile");
      const Clock::time_point t0 = Clock::now();
      set.compile();
      out["clients.compile_ms"] = seconds_between(t0, Clock::now()) * 1e3;
    }
    std::vector<double> run_ms;
    ShapeSet::Run r;
    for (int rep = 0; rep < 3; ++rep) {
      r = set.run(log);
      run_ms.push_back(r.run_ms);
    }
    for (std::size_t k = 0; k < cfgs_.size(); ++k) {
      const dram::ControllerStats& s = r.stats[k];
      const core::Metrics& m = last_metrics_[k];
      const Frequency clock = set.shapes()[k].cfg.clock;
      if (s.sustained_bandwidth(clock).as_gbyte_per_s() != m.sustained_gbyte_s ||
          s.read_latency.mean() * clock.period_ns() != m.avg_read_latency_ns) {
        throw std::runtime_error("design_sweep: replica of " + m.name +
                                 " diverges from the Evaluator's result");
      }
    }
    r.run_ms = median(run_ms);
    set.report(r, out);
    if (set.probe_snapshot(out, log, w_.warmup_cycles) != checkpoint) {
      throw std::runtime_error(
          "design_sweep: replica warm-up differs from the Evaluator's checkpoint");
    }
    set.probe_replay(out, log);
  }

  /// service.store_put_ms / store_find_ms: per-call cost of the store's
  /// own entry points on a fresh file.
  void probe_store(LayerValues& out, SpanLog* log) {
    std::filesystem::remove(store_path_);
    {
      service::ResultStore store(store_path_);
      core::Evaluator keys;
      out["service.store_put_ms"] = time_ms(log, "service.store_put", 1, [&] {
        for (std::size_t k = 0; k < cfgs_.size(); ++k) {
          store.put(keys.result_key(cfgs_[k], w_), last_metrics_[k]);
        }
      }) / static_cast<double>(cfgs_.size());
      out["service.store_find_ms"] = time_ms(log, "service.store_find", 5, [&] {
        core::Metrics m;
        for (int i = 0; i < 100; ++i) {
          for (const core::SystemConfig& c : cfgs_) {
            if (!store.find(keys.result_key(c, w_), &m)) {
              throw std::runtime_error("result store lost an entry");
            }
          }
        }
      }) / (100.0 * static_cast<double>(cfgs_.size()));
    }
    std::filesystem::remove(store_path_);
  }

  std::string store_path_;
  core::EvalWorkload w_;
  std::vector<core::SystemConfig> cfgs_;
  std::vector<core::Metrics> last_metrics_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed,
                                        const std::string& tmpdir) {
  if (name == "idle_decode") return std::make_unique<IdleDecode>(seed);
  if (name == "design_sweep") return std::make_unique<DesignSweep>(seed, tmpdir);
  return nullptr;
}

}  // namespace perfbench
