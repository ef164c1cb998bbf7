#include "core/evaluator.hpp"

#include <algorithm>
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

/// Everything the simulated part of an evaluation is shaped by: the
/// channel, the driven region, and the client pacing/budget derived from
/// the workload. Two (config, workload) pairs with equal shapes build
/// bit-identical memory systems, which is what shape_key hashes over.
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

  // Records per arena (warmup_checkpoint's roster): endless clients paced
  // `period` apart issue at most cycles/period + 1 requests inside the
  // driven window (warm-up plus measurement); one extra record makes the
  // compiled prefix provably inexhaustible, so replay is bit-identical to
  // the live generators.
  s.budget = (w.warmup_cycles + w.sim_cycles) / s.period + 2;
  return s;
}

/// One evaluation client: the live paced generator, or — with `arenas` —
/// an ArenaReplayClient over the generator's arena compiled for `budget`
/// records. Both issue the same requests.
template <class Live, class Params, class Compile>
std::unique_ptr<clients::Client> eval_client(unsigned id, std::string name,
                                             const Params& p,
                                             std::uint64_t budget,
                                             clients::WorkloadCache* arenas,
                                             Compile compile) {
  if (arenas == nullptr) return std::make_unique<Live>(id, std::move(name), p);
  auto arena = arenas->get_or_compile(clients::compile_key(p, budget),
                                      [&] { return compile(p, budget); });
  return std::make_unique<clients::ArenaReplayClient>(id, std::move(name),
                                                      std::move(arena));
}

/// The shape's memory system with live clients, or with arena replay
/// clients when `arenas` is given (only Evaluator::warmup_checkpoint).
std::unique_ptr<clients::MemorySystem> build_eval_system(
    const SimShape& sh, const EvalWorkload& w,
    clients::WorkloadCache* arenas = nullptr) {
  const unsigned n_clients = w.stream_clients + w.random_clients;
  auto sys = std::make_unique<clients::MemorySystem>(
      sh.dcfg, clients::ArbiterKind::kRoundRobin);
  unsigned id = 0;
  for (unsigned i = 0; i < w.stream_clients; ++i, ++id) {
    clients::StreamClient::Params p;
    p.base = sh.region / n_clients * id;
    p.length = sh.region / n_clients;
    p.burst_bytes = sh.burst;
    p.type = i % 2 == 0 ? dram::AccessType::kRead : dram::AccessType::kWrite;
    p.period_cycles = sh.period;
    sys->add_client(eval_client<clients::StreamClient>(
        id, "stream" + std::to_string(i), p, sh.budget, arenas,
        clients::compile_stream));
  }
  for (unsigned i = 0; i < w.random_clients; ++i, ++id) {
    clients::RandomClient::Params p;
    p.base = sh.region / n_clients * id;
    p.length = sh.region / n_clients;
    p.burst_bytes = sh.burst;
    p.period_cycles = sh.period;
    p.seed = w.seed + i;
    sys->add_client(eval_client<clients::RandomClient>(
        id, "random" + std::to_string(i), p, sh.budget, arenas,
        clients::compile_random));
  }
  return sys;
}

/// The key of one simulated channel (channel config, driven region,
/// workload — sim_cycles, warm-up and seed included).
std::uint64_t shape_key(const SimShape& sh, const EvalWorkload& w) {
  ContentHasher ck;
  ck.mix(sh.dcfg.content_hash()).mix(sh.region).mix(w.content_hash());
  return ck.digest();
}

/// Build the shape's memory system, run the warm-up (when any), reset the
/// measurement counters and run the measured window.
dram::ControllerStats simulate_channel(const SimShape& sh,
                                       const EvalWorkload& w,
                                       bool burst_issue) {
  const auto sys = build_eval_system(sh, w);
  sys->set_burst_issue(burst_issue);
  if (w.warmup_cycles > 0) {
    sys->run(w.warmup_cycles);
    sys->reset_measurement();
  }
  sys->run(w.sim_cycles);
  return sys->controller().stats();
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
  return derive_seed(cfg.content_hash(), w.content_hash());
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
  // Arena clients: perfbench's design_sweep probe compares this blob with
  // an arena-built replica.
  const auto warm = build_eval_system(make_shape(cfg, w), w, &caches_->arenas);
  warm->set_burst_issue(burst_issue_);
  warm->run(w.warmup_cycles);
  return std::make_shared<const std::vector<std::uint8_t>>(
      warm->save_snapshot());
}

void Evaluator::clear_caches() const {
  {
    std::lock_guard<std::mutex> lock(caches_->memo_mu);
    caches_->memo.clear();
    caches_->memo_hits = 0;
  }
  {
    std::lock_guard<std::mutex> lock(caches_->shape_mu);
    caches_->shapes.clear();
    caches_->shape_hits = 0;
  }
  caches_->arenas.clear();
}

Evaluator::CacheStats Evaluator::cache_stats() const {
  CacheStats s;
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
    std::lock_guard<std::mutex> lock(caches_->shape_mu);
    s.shape_hits = caches_->shape_hits;
    s.shape_entries = caches_->shapes.size();
  }
  return s;
}

std::shared_ptr<const dram::ControllerStats> Evaluator::shared_channel(
    std::uint64_t key,
    const std::function<dram::ControllerStats()>& simulate) const {
  std::promise<std::shared_ptr<const dram::ControllerStats>> promise;
  std::shared_future<std::shared_ptr<const dram::ControllerStats>> fut;
  {
    std::lock_guard<std::mutex> lock(caches_->shape_mu);
    const auto it = caches_->shapes.find(key);
    if (it != caches_->shapes.end()) {
      ++caches_->shape_hits;
      fut = it->second;  // copy: wait outside the lock
    } else {
      caches_->shapes.emplace(key, promise.get_future().share());
    }
  }
  if (fut.valid()) return fut.get();
  // This thread owns the simulation; peers block on the shared future.
  try {
    auto stats = std::make_shared<const dram::ControllerStats>(simulate());
    promise.set_value(stats);
    return stats;
  } catch (...) {
    promise.set_exception(std::current_exception());
    {
      // Drop the poisoned entry so a later call can retry.
      std::lock_guard<std::mutex> lock(caches_->shape_mu);
      caches_->shapes.erase(key);
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
  // Only the channel shape reaches the simulation: its first evaluation
  // simulates it and every variant reads the statistics (off under
  // set_checkpoint(false)). Each reads its own copy, because Accumulator's
  // const getters flush a pending run through mutable members.
  const SimShape shape = make_shape(cfg, w);
  const dram::DramConfig& dcfg = shape.dcfg;
  const auto simulate = [&] {
    return simulate_channel(shape, w, burst_issue_);
  };
  const dram::ControllerStats stats =
      checkpoint_ ? *shared_channel(shape_key(shape, w), simulate)
                  : simulate();
  const Bandwidth sustained = stats.sustained_bandwidth(dcfg.clock);
  const Bandwidth peak = dcfg.peak_bandwidth();
  m.sustained_gbyte_s = sustained.as_gbyte_per_s();
  m.peak_gbyte_s = peak.as_gbyte_per_s();
  m.bandwidth_efficiency =
      peak.bits_per_s > 0.0 ? sustained.bits_per_s / peak.bits_per_s : 0.0;
  m.avg_read_latency_ns = stats.read_latency.mean() * dcfg.clock.period_ns();
  m.worst_read_latency_ns = stats.read_latency.max() * dcfg.clock.period_ns();

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
