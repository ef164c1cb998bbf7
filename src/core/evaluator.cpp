#include "core/evaluator.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <exception>
#include <memory>
#include <optional>

#include "clients/compiled_trace.hpp"
#include "clients/system.hpp"
#include "common/error.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "core/wcet.hpp"
#include "modulegen/module_compiler.hpp"
#include "phy/interface_model.hpp"
#include "power/energy_model.hpp"
#include "power/retention.hpp"

namespace edsim::core {

namespace {

/// Area of the memory on the master die, by process choice. Embedded
/// memory uses the module compiler scaled by process density; discrete
/// systems have no on-die memory.
double memory_area(const SystemConfig& cfg) {
  if (cfg.integration == Integration::kDiscrete) return 0.0;
  modulegen::ModuleSpec spec;
  spec.capacity = cfg.installed_memory();
  spec.interface_bits = cfg.interface_bits;
  spec.banks = cfg.banks;
  spec.page_bytes = cfg.page_bytes;
  const modulegen::ModuleDesign d = modulegen::ModuleCompiler{}.compile(spec);
  return d.total_area_mm2 / process_factors(cfg.process).memory_density;
}

/// Logic area: 0.25 um-era ~40 kgates/mm² on a logic process.
double logic_area(const SystemConfig& cfg) {
  const double base_density_kgates_mm2 = 40.0;
  return cfg.logic_kgates / base_density_kgates_mm2 *
         process_factors(cfg.process).logic_area_factor;
}

/// Fold one measured window's integer counters into the aggregate the
/// power model is fed (accumulators and reliability mirrors stay at their
/// defaults — the evaluator attaches no reliability layer).
void add_counters(dram::ControllerStats& dst, const dram::ControllerStats& s) {
  dst.cycles += s.cycles;
  dst.reads += s.reads;
  dst.writes += s.writes;
  dst.row_hits += s.row_hits;
  dst.row_misses += s.row_misses;
  dst.row_conflicts += s.row_conflicts;
  dst.activations += s.activations;
  dst.precharges += s.precharges;
  dst.refreshes += s.refreshes;
  dst.data_bus_busy_cycles += s.data_bus_busy_cycles;
  dst.bytes_transferred += s.bytes_transferred;
  dst.powerdown_cycles += s.powerdown_cycles;
  dst.redirected_requests += s.redirected_requests;
  dst.watchdog_retries += s.watchdog_retries;
  dst.maintenance_ops += s.maintenance_ops;
}

/// 95% confidence half-width of the mean over the window samples.
double confidence95(const Accumulator& a) {
  if (a.count() < 2) return 0.0;
  return 1.96 * a.stddev() /
         std::sqrt(static_cast<double>(a.count()));
}

/// Everything the simulated part of an evaluation is shaped by: the
/// channel, the driven region, and the client pacing/budget derived from
/// the workload. Two (config, workload) pairs with equal shapes build
/// bit-identical memory systems, which is what the warm-up checkpoint
/// key hashes over.
struct SimShape {
  dram::DramConfig dcfg;
  std::uint64_t region = 0;
  unsigned burst = 0;
  unsigned period = 1;
  std::uint64_t budget = 0;
};

SimShape make_shape(const SystemConfig& cfg, const EvalWorkload& w) {
  SimShape s;
  s.dcfg = cfg.dram_config();
  s.burst = s.dcfg.bytes_per_access();
  s.region =
      std::min<std::uint64_t>(cfg.installed_memory().byte_count(), 8u << 20);

  // Split the demand evenly across clients; period from bytes/cycle.
  const unsigned n_clients = w.stream_clients + w.random_clients;
  require(n_clients > 0, "evaluator: need at least one client");
  const double bytes_per_s =
      w.demand_gbyte_s * 1e9 / static_cast<double>(n_clients);
  const double bytes_per_cycle = bytes_per_s / s.dcfg.clock.hz();
  s.period = std::max<unsigned>(
      1,
      static_cast<unsigned>(static_cast<double>(s.burst) / bytes_per_cycle));

  // Endless clients paced `period` apart issue at most cycles/period + 1
  // requests inside the driven window (warm-up plus measurement); one
  // extra record makes the compiled prefix provably inexhaustible, so
  // replay is bit-identical to the live generators.
  s.budget = (w.warmup_cycles + w.sim_cycles) / s.period + 2;
  return s;
}

std::unique_ptr<clients::MemorySystem> build_eval_system(
    const SimShape& sh, const EvalWorkload& w, bool use_arena,
    clients::WorkloadCache& arenas) {
  const unsigned n_clients = w.stream_clients + w.random_clients;
  auto sys = std::make_unique<clients::MemorySystem>(
      sh.dcfg, clients::ArbiterKind::kRoundRobin);
  unsigned id = 0;
  for (unsigned i = 0; i < w.stream_clients; ++i) {
    clients::StreamClient::Params p;
    p.base = sh.region / n_clients * id;
    p.length = sh.region / n_clients;
    p.burst_bytes = sh.burst;
    p.type = i % 2 == 0 ? dram::AccessType::kRead : dram::AccessType::kWrite;
    p.period_cycles = sh.period;
    const std::string cname = "stream" + std::to_string(i);
    if (use_arena) {
      auto arena = arenas.get_or_compile(
          clients::compile_key(p, sh.budget),
          [&] { return clients::compile_stream(p, sh.budget); });
      sys->add_client(std::make_unique<clients::ArenaReplayClient>(
          id, cname, std::move(arena)));
    } else {
      sys->add_client(std::make_unique<clients::StreamClient>(id, cname, p));
    }
    ++id;
  }
  for (unsigned i = 0; i < w.random_clients; ++i) {
    clients::RandomClient::Params p;
    p.base = sh.region / n_clients * id;
    p.length = sh.region / n_clients;
    p.burst_bytes = sh.burst;
    p.period_cycles = sh.period;
    p.seed = w.seed + i;
    const std::string cname = "random" + std::to_string(i);
    if (use_arena) {
      auto arena = arenas.get_or_compile(
          clients::compile_key(p, sh.budget),
          [&] { return clients::compile_random(p, sh.budget); });
      sys->add_client(std::make_unique<clients::ArenaReplayClient>(
          id, cname, std::move(arena)));
    } else {
      sys->add_client(std::make_unique<clients::RandomClient>(id, cname, p));
    }
    ++id;
  }
  return sys;
}

/// The checkpoint-cache key for one simulation shape (channel config,
/// driven region, arena mode, workload).
std::uint64_t shape_key(const SimShape& sh, const EvalWorkload& w,
                        bool use_arena) {
  ContentHasher ck;
  ck.mix(sh.dcfg.content_hash())
      .mix(sh.region)
      .mix(use_arena)
      .mix(w.content_hash());
  return ck.digest();
}

}  // namespace

Metrics Evaluator::evaluate(const SystemConfig& cfg,
                            const EvalWorkload& w) const {
  std::optional<std::uint64_t> fresh;
  const Metrics m = evaluate_into(cfg, w, metrics_, &fresh);
  if (fresh) store_result(*fresh, m);
  return m;
}

std::uint64_t Evaluator::memo_hits() const {
  std::lock_guard<std::mutex> lock(caches_->memo_mu);
  return caches_->memo_hits;
}

std::size_t Evaluator::memo_entries() const {
  std::lock_guard<std::mutex> lock(caches_->memo_mu);
  return caches_->memo.size();
}

void Evaluator::set_result_store(std::shared_ptr<ResultStoreBase> store) {
  std::lock_guard<std::mutex> lock(caches_->memo_mu);
  caches_->store = std::move(store);
}

std::shared_ptr<ResultStoreBase> Evaluator::result_store() const {
  std::lock_guard<std::mutex> lock(caches_->memo_mu);
  return caches_->store;
}

std::uint64_t Evaluator::result_key(const SystemConfig& cfg,
                                    const EvalWorkload& w) const {
  std::uint64_t key = derive_seed(cfg.content_hash(), w.content_hash());
  if (sampling_) {
    // Sampled runs estimate rather than measure, so they address under a
    // key salted with the sampling shape — a full-run score is never
    // answered from a sampled one or vice versa.
    ContentHasher salt;
    salt.mix(std::uint64_t{0x5a4d9})  // sampled-run namespace
        .mix(sample_windows_)
        .mix(sample_measure_cycles_);
    key = derive_seed(key, salt.digest());
  }
  return key;
}

bool Evaluator::lookup_result(std::uint64_t key, Metrics* out) const {
  std::shared_ptr<ResultStoreBase> store;
  {
    std::lock_guard<std::mutex> lock(caches_->memo_mu);
    const auto it = caches_->memo.find(key);
    if (it != caches_->memo.end()) {
      ++caches_->memo_hits;
      *out = it->second;
      return true;
    }
    store = caches_->store;
  }
  if (store != nullptr && store->find(key, out)) {
    // Promote into the memo so repeats inside this process stay lookups.
    std::lock_guard<std::mutex> lock(caches_->memo_mu);
    caches_->memo.emplace(key, *out);
    return true;
  }
  return false;
}

void Evaluator::preload_result(std::uint64_t key, const Metrics& m) const {
  std::lock_guard<std::mutex> lock(caches_->memo_mu);
  caches_->memo.emplace(key, m);
}

void Evaluator::store_result(std::uint64_t key, const Metrics& m) const {
  if (const std::shared_ptr<ResultStoreBase> store = result_store()) {
    store->put(key, m);
  }
}

std::shared_ptr<const std::vector<std::uint8_t>> Evaluator::warmup_checkpoint(
    const SystemConfig& cfg, const EvalWorkload& w) const {
  cfg.validate();
  if (w.warmup_cycles == 0) return nullptr;
  const SimShape sh = make_shape(cfg, w);
  return checkpoint_blob(shape_key(sh, w, use_arena_), [&] {
    const auto warm = build_eval_system(sh, w, use_arena_, caches_->arenas);
    warm->set_burst_issue(burst_issue_);
    warm->run(w.warmup_cycles);
    return std::make_shared<const std::vector<std::uint8_t>>(
        warm->save_snapshot());
  });
}

void Evaluator::clear_caches() const {
  {
    std::lock_guard<std::mutex> lock(caches_->memo_mu);
    caches_->memo.clear();
    caches_->memo_hits = 0;
  }
  {
    std::lock_guard<std::mutex> lock(caches_->ckpt_mu);
    caches_->ckpt.clear();
    caches_->ckpt_hits = 0;
  }
  caches_->arenas.clear();
}

Evaluator::CacheStats Evaluator::cache_stats() const {
  CacheStats s;
  s.arena_hits = caches_->arenas.hits();
  s.arena_misses = caches_->arenas.misses();
  s.arena_entries = caches_->arenas.entries();
  s.arena_bytes = caches_->arenas.arena_bytes();
  std::shared_ptr<ResultStoreBase> store;
  {
    std::lock_guard<std::mutex> lock(caches_->memo_mu);
    s.memo_hits = caches_->memo_hits;
    s.memo_entries = caches_->memo.size();
    store = caches_->store;
  }
  if (store != nullptr) {
    s.store_attached = true;
    s.store = store->stats();
  }
  {
    std::lock_guard<std::mutex> lock(caches_->ckpt_mu);
    s.checkpoint_hits = caches_->ckpt_hits;
    s.checkpoint_entries = caches_->ckpt.size();
    for (const auto& [key, fut] : caches_->ckpt) {
      if (fut.wait_for(std::chrono::seconds(0)) ==
          std::future_status::ready) {
        if (const auto blob = fut.get()) s.checkpoint_bytes += blob->size();
      }
    }
  }
  return s;
}

std::shared_ptr<const std::vector<std::uint8_t>> Evaluator::checkpoint_blob(
    std::uint64_t key,
    const std::function<std::shared_ptr<const std::vector<std::uint8_t>>()>&
        warm) const {
  std::promise<std::shared_ptr<const std::vector<std::uint8_t>>> promise;
  std::shared_future<std::shared_ptr<const std::vector<std::uint8_t>>> fut;
  {
    std::lock_guard<std::mutex> lock(caches_->ckpt_mu);
    const auto it = caches_->ckpt.find(key);
    if (it != caches_->ckpt.end()) {
      ++caches_->ckpt_hits;
      fut = it->second;  // copy: wait outside the lock
    } else {
      caches_->ckpt.emplace(key, promise.get_future().share());
    }
  }
  if (fut.valid()) return fut.get();
  // This thread owns the warm-up; peers block on the shared future.
  try {
    auto blob = warm();
    promise.set_value(blob);
    return blob;
  } catch (...) {
    promise.set_exception(std::current_exception());
    {
      // Drop the poisoned entry so a later call can retry.
      std::lock_guard<std::mutex> lock(caches_->ckpt_mu);
      caches_->ckpt.erase(key);
    }
    throw;
  }
}

Metrics Evaluator::evaluate_into(
    const SystemConfig& cfg, const EvalWorkload& w,
    telemetry::MetricRegistry* reg,
    std::optional<std::uint64_t>* fresh) const {
  cfg.validate();
  require(w.sim_cycles > 0, "evaluator: need a simulation window");
  if (sampling_) {
    require(sample_windows_ >= 2, "evaluator: sampling needs >= 2 windows");
    require(w.sim_cycles / sample_windows_ >= 2,
            "evaluator: sampling windows exceed the simulation window");
  }

  // Memoization: a (config, workload) pair fully determines the metric
  // vector, so an identical re-score is a table lookup — first in the
  // in-memory memo, then (when attached) in the persistent result store,
  // so a fresh process warm-starts from earlier runs. Bypassed when a
  // registry is attached — a hit could not replay the telemetry export.
  const bool use_memo = memoize_ && reg == nullptr;
  std::uint64_t memo_key = 0;
  if (use_memo) {
    memo_key = result_key(cfg, w);
    Metrics cached;
    if (lookup_result(memo_key, &cached)) return cached;
  }

  Metrics m;
  m.name = cfg.name;
  m.memory_area_mm2 = memory_area(cfg);
  m.logic_area_mm2 = logic_area(cfg);
  m.die_area_mm2 = m.memory_area_mm2 + m.logic_area_mm2;
  m.logic_speed = process_factors(cfg.process).logic_speed;

  // --- simulate the workload ------------------------------------------------
  const SimShape shape = make_shape(cfg, w);
  const dram::DramConfig& dcfg = shape.dcfg;

  const std::unique_ptr<clients::MemorySystem> sys_ptr =
      build_eval_system(shape, w, use_arena_, caches_->arenas);
  clients::MemorySystem& sys = *sys_ptr;
  sys.set_burst_issue(burst_issue_);

  // Warm-up prefix. With checkpointing on, the first evaluation of this
  // channel shape simulates it and seals a snapshot; every other variant
  // (and every sweep thread) restores the bytes instead — bit-identical
  // to warming in place, which set_checkpoint(false) falls back to.
  if (w.warmup_cycles > 0) {
    if (checkpoint_) {
      sys.restore_snapshot(*warmup_checkpoint(cfg, w));
    } else {
      sys.run(w.warmup_cycles);
    }
    sys.reset_measurement();
  }

  dram::ControllerStats sampled_agg;
  if (!sampling_) {
    sys.run(w.sim_cycles);
    const auto& stats = sys.controller().stats();
    m.sustained_gbyte_s =
        stats.sustained_bandwidth(dcfg.clock).as_gbyte_per_s();
    m.peak_gbyte_s = dcfg.peak_bandwidth().as_gbyte_per_s();
    m.bandwidth_efficiency = sys.bandwidth_efficiency();
    m.avg_read_latency_ns =
        stats.read_latency.mean() * dcfg.clock.period_ns();
    m.worst_read_latency_ns =
        stats.read_latency.max() * dcfg.clock.period_ns();
  } else {
    // SMARTS-style sampling: measure k short windows spread evenly over
    // sim_cycles; between windows the clients pause so the event-driven
    // fast path leaps the drained stretch. Per-metric mean and 95% CI
    // come from the per-window deltas; the power model is fed the summed
    // counters (average power over the measured cycles).
    const unsigned k = sample_windows_;
    const std::uint64_t stride = w.sim_cycles / k;
    std::uint64_t measure =
        sample_measure_cycles_ != 0
            ? sample_measure_cycles_
            : std::max<std::uint64_t>(1, stride / 10);
    measure = std::min(measure, stride);
    Accumulator bw_gbs;
    Accumulator read_lat_cycles;
    double worst_lat_cycles = 0.0;
    for (unsigned i = 0; i < k; ++i) {
      sys.reset_measurement();
      sys.run(measure);
      const auto& ws = sys.controller().stats();
      add_counters(sampled_agg, ws);
      bw_gbs.add(ws.sustained_bandwidth(dcfg.clock).as_gbyte_per_s());
      if (ws.read_latency.count() > 0) {
        read_lat_cycles.add(ws.read_latency.mean());
        worst_lat_cycles = std::max(worst_lat_cycles, ws.read_latency.max());
      }
      if (i + 1 < k) {
        sys.set_clients_paused(true);
        sys.run(stride - measure);
        sys.set_clients_paused(false);
      }
    }
    m.sampled = true;
    m.sample_windows = k;
    m.sustained_gbyte_s = bw_gbs.mean();
    m.sustained_gbyte_s_ci = confidence95(bw_gbs);
    m.peak_gbyte_s = dcfg.peak_bandwidth().as_gbyte_per_s();
    m.bandwidth_efficiency =
        m.peak_gbyte_s > 0.0 ? m.sustained_gbyte_s / m.peak_gbyte_s : 0.0;
    m.avg_read_latency_ns =
        read_lat_cycles.mean() * dcfg.clock.period_ns();
    m.avg_read_latency_ns_ci =
        confidence95(read_lat_cycles) * dcfg.clock.period_ns();
    m.worst_read_latency_ns = worst_lat_cycles * dcfg.clock.period_ns();
  }
  const dram::ControllerStats& stats =
      sampling_ ? sampled_agg : sys.controller().stats();

  // --- analytical worst-case bounds (core/wcet.hpp) ---------------------------
  // The eval client set as the analysis sees it: every client paced
  // shape.period apart, endless. Reported next to the simulated figures —
  // the predictability column of the scheduler tournament.
  {
    std::vector<WcetClient> wclients;
    const unsigned n_clients = w.stream_clients + w.random_clients;
    wclients.reserve(n_clients);
    for (unsigned i = 0; i < n_clients; ++i) {
      wclients.push_back(WcetClient{i, shape.period, 0});
    }
    const WcetAnalysis wa = analyze_wcet(dcfg, wclients);
    m.wcet_read_latency_ns = wa.latency_bounded ? wa.latency_ns : 0.0;
    m.wcet_bandwidth_gbyte_s = wa.bandwidth_gbyte_s;
  }

  // --- power -----------------------------------------------------------------
  const phy::IoElectricals io = cfg.integration == Integration::kEmbedded
                                    ? phy::on_chip_wire()
                                    : phy::off_chip_board();
  const phy::InterfaceModel iface(dcfg.interface_bits, dcfg.clock, io);
  const power::DramPowerModel pm(power::core_energy_sdram_025um(),
                                 iface.energy_per_bit_j());
  const power::PowerBreakdown pb = pm.evaluate(stats, dcfg);
  m.io_power_mw = pb.io_mw;
  m.total_power_mw = pb.total_mw();

  // --- thermal operating point (§1) -------------------------------------------
  {
    // Embedded: the logic's watts land in the same package as the DRAM.
    // Discrete: the DRAM package only carries its own power.
    const double companion_w =
        cfg.integration == Integration::kEmbedded ? w.logic_power_w : 0.0;
    const double refresh_overhead_nominal =
        static_cast<double>(dcfg.timing.tRFC) /
        static_cast<double>(dcfg.timing.tREFI);
    const power::ThermalLoop loop(power::ThermalModel{},
                                  power::RetentionModel{});
    const auto op =
        loop.solve(companion_w + (pb.total_mw() - pb.refresh_mw) * 1e-3,
                   pb.refresh_mw * 1e-3, refresh_overhead_nominal);
    m.junction_c = op.junction_c;
    m.retention_ms = op.retention_ms;
    m.refresh_overhead = op.refresh_overhead;
  }

  // --- capacity & cost --------------------------------------------------------
  m.installed_mbit = cfg.installed_memory().as_mbit();
  m.waste_mbit = m.installed_mbit - cfg.required_memory.as_mbit();
  m.unit_cost_usd =
      cost_.evaluate(cfg, m.memory_area_mm2, m.logic_area_mm2).total_usd();

  // --- telemetry snapshot -----------------------------------------------------
  if (reg != nullptr) {
    const telemetry::MetricScope root(*reg, cfg.name);
    telemetry::export_controller_stats(stats, root.scope("channel0"));
    root.counter("evaluations").add();
    root.gauge("die_area_mm2").set(m.die_area_mm2);
    root.gauge("sustained_gbyte_s").set(m.sustained_gbyte_s);
    root.gauge("peak_gbyte_s").set(m.peak_gbyte_s);
    root.gauge("bandwidth_efficiency").set(m.bandwidth_efficiency);
    root.gauge("avg_read_latency_ns").set(m.avg_read_latency_ns);
    root.gauge("worst_read_latency_ns").set(m.worst_read_latency_ns);
    root.gauge("wcet_read_latency_ns").set(m.wcet_read_latency_ns);
    root.gauge("wcet_bandwidth_gbyte_s").set(m.wcet_bandwidth_gbyte_s);
    root.gauge("total_power_mw").set(m.total_power_mw);
    root.gauge("junction_c").set(m.junction_c);
    root.gauge("refresh_overhead").set(m.refresh_overhead);
    root.gauge("unit_cost_usd").set(m.unit_cost_usd);
  }

  if (use_memo) {
    // First-insert-wins: concurrent sweep threads scoring the same point
    // computed identical metrics, so a lost race changes nothing.
    preload_result(memo_key, m);
    *fresh = memo_key;
  }
  return m;
}

std::vector<Metrics> Evaluator::sweep(const std::vector<SystemConfig>& cfgs,
                                      const EvalWorkload& w) const {
  std::vector<Metrics> out(cfgs.size());
  // Keys of the results this sweep computed. Each reaches the store as
  // soon as every point before it has finished, so the store's bytes do
  // not depend on which thread finished first, and a sweep that dies
  // partway keeps the finished prefix.
  std::vector<std::optional<std::uint64_t>> fresh(cfgs.size());
  std::vector<bool> done(cfgs.size(), false);
  std::size_t next_store = 0;
  std::mutex store_mu;
  const auto store_finished_prefix = [&] {
    for (; next_store < cfgs.size() && done[next_store]; ++next_store) {
      if (fresh[next_store]) store_result(*fresh[next_store], out[next_store]);
    }
  };
  // One scratch registry per config, merged in input order after the
  // barrier: the shared registry never sees concurrent writes and the
  // merged totals are identical at every thread count.
  std::vector<telemetry::MetricRegistry> regs(
      metrics_ != nullptr ? cfgs.size() : 0);
  std::exception_ptr error;
  try {
    parallel_for(
        cfgs.size(),
        [&](std::size_t i) {
          out[i] = evaluate_into(cfgs[i], w,
                                 regs.empty() ? nullptr : &regs[i],
                                 &fresh[i]);
          std::lock_guard<std::mutex> lock(store_mu);
          done[i] = true;
          store_finished_prefix();
        },
        threads_);
  } catch (...) {
    error = std::current_exception();
  }
  // After a failure, the points that finished behind the failed one
  // still reach the store, in input order.
  for (std::size_t i = next_store; i < cfgs.size(); ++i) {
    if (done[i] && fresh[i]) store_result(*fresh[i], out[i]);
  }
  if (error) std::rethrow_exception(error);
  for (const auto& r : regs) metrics_->merge(r);
  return out;
}

}  // namespace edsim::core
