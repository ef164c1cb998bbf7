// P0 — engineering microbenchmarks of the simulator kernels themselves
// (google-benchmark): controller cycle throughput, march-test engine
// throughput, repair allocator, and Monte-Carlo yield.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <filesystem>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bist/march.hpp"
#include "bist/redundancy.hpp"
#include "bist/yield.hpp"
#include "clients/client.hpp"
#include "clients/compiled_trace.hpp"
#include "clients/strided_gen.hpp"
#include "clients/system.hpp"
#include "clients/trace_io.hpp"
#include "common/rng.hpp"
#include "core/allocation.hpp"
#include "core/evaluator.hpp"
#include "core/system_config.hpp"
#include "core/wcet.hpp"
#include "dram/controller.hpp"
#include "dram/multi_channel.hpp"
#include "dram/presets.hpp"
#include "dram/protocol_checker.hpp"
#include "reliability/manager.hpp"
#include "service/result_store.hpp"
#include "telemetry/interval.hpp"
#include "telemetry/multi_hooks.hpp"
#include "telemetry/request_tracer.hpp"
#include "telemetry/trace.hpp"

namespace {

using namespace edsim;

/// Sink that renders nothing: isolates probe + tracer bookkeeping cost
/// from ostream formatting in the attached-telemetry benchmark.
class NullTraceSink final : public telemetry::TraceSink {
 public:
  void emit(const telemetry::TraceEvent& ev) override {
    benchmark::DoNotOptimize(ev.cycle);
    ++events_;
  }
};

void BM_ControllerStreamTick(benchmark::State& state) {
  dram::DramConfig cfg = dram::presets::edram_module(
      16, 128, static_cast<unsigned>(state.range(0)), 2048);
  dram::Controller ctl(cfg);
  std::uint64_t addr = 0;
  for (auto _ : state) {
    if (!ctl.queue_full()) {
      dram::Request r;
      r.addr = addr;
      addr += cfg.bytes_per_access();
      ctl.enqueue(r);
    }
    ctl.tick();
    benchmark::DoNotOptimize(ctl.drain_completed());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ControllerStreamTick)->Arg(1)->Arg(4)->Arg(16);

void BM_ControllerRandomTick(benchmark::State& state) {
  dram::DramConfig cfg = dram::presets::edram_module(16, 128, 4, 2048);
  dram::Controller ctl(cfg);
  Rng rng(1);
  const std::uint64_t cap = cfg.capacity().byte_count();
  for (auto _ : state) {
    if (!ctl.queue_full()) {
      dram::Request r;
      r.addr = rng.next_below(cap) & ~127ull;
      ctl.enqueue(r);
    }
    ctl.tick();
    benchmark::DoNotOptimize(ctl.drain_completed());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ControllerRandomTick);

void BM_MarchCMinus(benchmark::State& state) {
  const auto n = static_cast<unsigned>(state.range(0));
  const bist::MarchTest test = bist::march_c_minus();
  for (auto _ : state) {
    bist::MemoryArray a(n, n);
    benchmark::DoNotOptimize(bist::run_march(a, test));
  }
  state.SetItemsProcessed(state.iterations() * n * n * 10);
}
BENCHMARK(BM_MarchCMinus)->Arg(32)->Arg(128);

void BM_RepairAllocator(benchmark::State& state) {
  Rng rng(3);
  for (auto _ : state) {
    bist::FailBitmap b;
    b.rows = b.cols = 1024;
    for (int i = 0; i < 6; ++i) {
      b.fails.push_back({static_cast<unsigned>(rng.next_below(1024)),
                         static_cast<unsigned>(rng.next_below(1024))});
    }
    benchmark::DoNotOptimize(bist::allocate_repair(b, 4, 4));
  }
}
BENCHMARK(BM_RepairAllocator);

void BM_MonteCarloYield(benchmark::State& state) {
  // Arg: worker threads (1 = serial, 0 = hardware default). Identical
  // bits either way — only the wall clock moves.
  const auto threads = static_cast<unsigned>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(bist::simulate_yield(
        2.0, bist::DefectMix{}, 4, 4, 100'000, 11, threads));
  }
  state.SetItemsProcessed(state.iterations() * 100'000);
}
BENCHMARK(BM_MonteCarloYield)->Arg(1)->Arg(0);

// --- event-driven fast-forward: before/after pairs -------------------------
// The portable-player shape: a paced decode stream against a power-managed
// channel, >90% of cycles idle. "PerCycle" steps every DRAM clock;
// "FastForward" takes the event-driven path. Both produce identical stats.

constexpr std::uint64_t kIdleWindow = 500'000;

std::uint64_t run_idle_heavy(bool fast_forward) {
  dram::DramConfig cfg = dram::presets::edram_module(8, 64, 4, 2048);
  cfg.powerdown_enabled = true;
  cfg.powerdown_idle_cycles = 32;
  clients::MemorySystem sys(cfg, clients::ArbiterKind::kRoundRobin);
  sys.set_fast_forward(fast_forward);
  clients::StreamClient::Params p;
  p.length = 1 << 20;
  p.burst_bytes = cfg.bytes_per_access();
  p.period_cycles = 400;  // ~8 Mbyte/s decode pacing at 143 MHz
  sys.add_client(std::make_unique<clients::StreamClient>(0, "decode", p));
  sys.run(kIdleWindow);
  return sys.controller().stats().powerdown_cycles;
}

void BM_IdleHeavyPerCycle(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_idle_heavy(false));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * kIdleWindow));
}
BENCHMARK(BM_IdleHeavyPerCycle)->Unit(benchmark::kMillisecond);

void BM_IdleHeavyFastForward(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_idle_heavy(true));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * kIdleWindow));
}
BENCHMARK(BM_IdleHeavyFastForward)->Unit(benchmark::kMillisecond);

// --- dense traffic, resident front end: before/after pairs -----------------
// The saturated-channel shape: 100%-duty demand keeps the controller
// queue full with single-bank row-hit streaks — the opposite regime from
// the idle-heavy pair above. "Baseline" runs the front end's step() on
// every DRAM clock; "Burst" (set_burst_issue, which switches the dense
// half of MemorySystem::stretch) keeps the front end resident, advancing
// the controller event to event through dense_advance and bulk-crediting
// the stall cycles between (bit-identical stats, command log and
// telemetry — the differential fuzz enforces it). Both sides run the
// controller's one scheduling path.

constexpr std::uint64_t kDenseWindow = 400'000;

std::uint64_t run_saturated_stream(bool burst) {
  dram::DramConfig cfg = dram::presets::edram_module(16, 128, 4, 2048);
  clients::MemorySystem sys(cfg, clients::ArbiterKind::kRoundRobin);
  sys.set_burst_issue(burst);
  clients::StreamClient::Params p;
  p.length = cfg.page_bytes;  // wraps inside one row: a pure hit streak
  p.burst_bytes = cfg.bytes_per_access();
  p.period_cycles = 0;  // always another burst ready
  sys.add_client(std::make_unique<clients::StreamClient>(0, "duty", p));
  sys.run(kDenseWindow);
  return sys.controller().stats().bytes_transferred;
}

void BM_SaturatedStreamBaseline(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_saturated_stream(false));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * kDenseWindow));
}
BENCHMARK(BM_SaturatedStreamBaseline)->Unit(benchmark::kMillisecond);

void BM_SaturatedStreamBurst(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_saturated_stream(true));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * kDenseWindow));
}
BENCHMARK(BM_SaturatedStreamBurst)->Unit(benchmark::kMillisecond);

// Row-major sweep over a multi-row surface in one bank: hit streaks the
// length of a row, broken by an activate at every row boundary — the
// dense stretch carries the front end across the misses too.
std::uint64_t run_strided_sweep(bool burst) {
  dram::DramConfig cfg = dram::presets::edram_module(16, 128, 4, 2048);
  cfg.mapping = dram::AddressMapping::kBankRowCol;  // surface in one bank
  clients::MemorySystem sys(cfg, clients::ArbiterKind::kRoundRobin);
  sys.set_burst_issue(burst);
  clients::SimdStridedClient::Params p;
  p.width_bytes = 4096;
  p.height = 64;
  p.burst_bytes = cfg.bytes_per_access();
  p.pattern = clients::StridePattern::kRowMajor;
  p.period_cycles = 0;
  sys.add_client(std::make_unique<clients::SimdStridedClient>(0, "sweep", p));
  sys.run(kDenseWindow);
  return sys.controller().stats().bytes_transferred;
}

void BM_StridedSweepBaseline(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_strided_sweep(false));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * kDenseWindow));
}
BENCHMARK(BM_StridedSweepBaseline)->Unit(benchmark::kMillisecond);

void BM_StridedSweepBurst(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_strided_sweep(true));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * kDenseWindow));
}
BENCHMARK(BM_StridedSweepBurst)->Unit(benchmark::kMillisecond);

// --- self-managed maintenance: before/after pair ----------------------------
// The same paced decode stream against a channel with a retention-weak
// tail: "RefreshBaseline" runs the controller's uniform tREFI sweep,
// "SelfManagedMaintenance" swaps in the retention-bin/RowHammer engine
// with its idle-slot claims. The pair quantifies the arbitration cost
// (both run event-driven fast-forward).

constexpr std::uint64_t kMaintWindow = 500'000;

std::uint64_t run_maintained(bool self_managed) {
  dram::DramConfig cfg = dram::presets::edram_module(8, 64, 4, 2048);
  reliability::ReliabilityConfig rc;
  rc.inject.seed = 9;
  rc.inject.weak_cells = 16;
  rc.maintenance.enabled = self_managed;
  reliability::ReliabilityManager mgr(cfg, rc);
  clients::MemorySystem sys(cfg, clients::ArbiterKind::kRoundRobin);
  sys.controller().attach_reliability(&mgr);
  sys.set_fast_forward(true);
  clients::StreamClient::Params p;
  p.length = 1 << 20;
  p.burst_bytes = cfg.bytes_per_access();
  p.period_cycles = 400;
  sys.add_client(std::make_unique<clients::StreamClient>(0, "decode", p));
  sys.run(kMaintWindow);
  return sys.controller().stats().refreshes +
         sys.controller().stats().maintenance_ops;
}

void BM_RefreshBaseline(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_maintained(false));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * kMaintWindow));
}
BENCHMARK(BM_RefreshBaseline)->Unit(benchmark::kMillisecond);

void BM_SelfManagedMaintenance(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_maintained(true));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * kMaintWindow));
}
BENCHMARK(BM_SelfManagedMaintenance)->Unit(benchmark::kMillisecond);

// Nine-point candidate list shared by the sweep benchmarks: three base
// processes crossed with three interface widths.
std::vector<core::SystemConfig> sweep_candidates() {
  std::vector<core::SystemConfig> cfgs;
  for (const core::BaseProcess p : {core::BaseProcess::kDramBased,
                                    core::BaseProcess::kLogicBased,
                                    core::BaseProcess::kMerged}) {
    for (const unsigned width : {64u, 256u, 512u}) {
      core::SystemConfig s;
      s.name = std::string(to_string(p)) + "/" + std::to_string(width);
      s.integration = core::Integration::kEmbedded;
      s.process = p;
      s.required_memory = Capacity::mbit(16);
      s.interface_bits = width;
      s.banks = 4;
      s.page_bytes = 2048;
      cfgs.push_back(s);
    }
  }
  return cfgs;
}

// The e12 design-space sweep shape: independent config evaluations fanned
// over the pool. Arg: threads (1 = serial baseline, 0 = hardware default).
// Memoization is off so repeated benchmark iterations keep simulating
// (the point here is parallel scaling, not cache lookups).
void BM_DesignSpaceSweep(benchmark::State& state) {
  const auto cfgs = sweep_candidates();
  core::EvalWorkload w;
  w.demand_gbyte_s = 2.0;
  w.sim_cycles = 50'000;
  core::Evaluator ev;
  ev.set_threads(static_cast<unsigned>(state.range(0)));
  ev.set_memoize(false);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ev.sweep(cfgs, w));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * cfgs.size()));
}
BENCHMARK(BM_DesignSpaceSweep)->Arg(1)->Arg(0)->Unit(benchmark::kMillisecond);

// --- workload compilation: before/after pairs ------------------------------
// "Regenerate" is the old shape: every trial re-parses the trace text and
// rebuilds its client from scratch. "Arena" parses + compiles once into a
// shared immutable arena and replays through zero-copy cursors. Identical
// controller stats either way; only the workload handling cost moves.

std::string make_trace_text() {
  std::vector<clients::TraceRecord> records;
  records.reserve(20'000);
  Rng rng(17);
  std::uint64_t cycle = 0;
  for (int i = 0; i < 20'000; ++i) {
    clients::TraceRecord r;
    r.cycle = cycle;
    r.addr = rng.next_below(1u << 22) & ~31ull;
    r.type = rng.next_bool(0.3) ? dram::AccessType::kWrite
                                : dram::AccessType::kRead;
    records.push_back(r);
    cycle += rng.next_below(4);
  }
  std::ostringstream os;
  clients::write_trace(os, records);
  return os.str();
}

std::uint64_t replay_trial(const dram::DramConfig& cfg,
                           std::unique_ptr<clients::Client> client) {
  clients::MemorySystem sys(cfg, clients::ArbiterKind::kRoundRobin);
  sys.add_client(std::move(client));
  sys.run(30'000);
  return sys.controller().stats().bytes_transferred;
}

void BM_WorkloadRegenerate(benchmark::State& state) {
  const dram::DramConfig cfg = dram::presets::edram_module(16, 128, 4, 2048);
  const std::string text = make_trace_text();
  for (auto _ : state) {
    // Per-trial text parse + per-client record copy: the old cost.
    auto records = clients::parse_trace_text(text);
    benchmark::DoNotOptimize(replay_trial(
        cfg, std::make_unique<clients::TraceClient>(
                 0, "trace", std::move(records), cfg.bytes_per_access())));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_WorkloadRegenerate)->Unit(benchmark::kMillisecond);

void BM_WorkloadArena(benchmark::State& state) {
  const dram::DramConfig cfg = dram::presets::edram_module(16, 128, 4, 2048);
  const std::string text = make_trace_text();
  const auto arena = clients::compile_trace_records(
      clients::parse_trace_text(text), cfg.bytes_per_access());
  for (auto _ : state) {
    benchmark::DoNotOptimize(replay_trial(
        cfg,
        std::make_unique<clients::ArenaReplayClient>(0, "trace", arena)));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_WorkloadArena)->Unit(benchmark::kMillisecond);

// --- evaluation memoization: before/after pair -----------------------------
// The design_explorer re-score shape: the same candidate list is swept
// repeatedly (refinement passes, pareto re-runs). "Cold" is the
// regenerate-per-point path with both caches off; "Memoized" re-sweeps a
// warmed evaluator, so every point is a content-hash lookup.

void BM_SweepCold(benchmark::State& state) {
  const auto cfgs = sweep_candidates();
  core::EvalWorkload w;
  w.demand_gbyte_s = 2.0;
  w.sim_cycles = 50'000;
  core::Evaluator ev;
  ev.set_threads(1);
  ev.set_workload_arena(false);
  ev.set_memoize(false);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ev.sweep(cfgs, w));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * cfgs.size()));
}
BENCHMARK(BM_SweepCold)->Unit(benchmark::kMillisecond);

void BM_SweepMemoized(benchmark::State& state) {
  const auto cfgs = sweep_candidates();
  core::EvalWorkload w;
  w.demand_gbyte_s = 2.0;
  w.sim_cycles = 50'000;
  core::Evaluator ev;  // arena + memo on by default
  ev.set_threads(1);
  benchmark::DoNotOptimize(ev.sweep(cfgs, w));  // warm the caches once
  for (auto _ : state) {
    benchmark::DoNotOptimize(ev.sweep(cfgs, w));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * cfgs.size()));
}
BENCHMARK(BM_SweepMemoized)->Unit(benchmark::kMillisecond);

// --- persistent result store: before/after pair ----------------------------
// The cross-process warm-start shape: a new process (fresh memo, fresh
// arenas) sweeps a candidate list that an earlier run already evaluated.
// "ColdStore" simulates every point against an empty .edrs file (the
// first run's cost, store appends included); "WarmStore" re-opens a
// populated file in a fresh evaluator, so every point resolves from the
// replayed log without simulating.

const std::string& bench_store_path() {
  static const std::string path = [] {
    return (std::filesystem::temp_directory_path() / "bench_sweep.edrs")
        .string();
  }();
  return path;
}

void BM_SweepColdStore(benchmark::State& state) {
  const auto cfgs = sweep_candidates();
  core::EvalWorkload w;
  w.demand_gbyte_s = 2.0;
  w.sim_cycles = 50'000;
  for (auto _ : state) {
    state.PauseTiming();
    std::filesystem::remove(bench_store_path());
    state.ResumeTiming();
    core::Evaluator ev;  // fresh process: empty memo and arenas
    ev.set_threads(1);
    ev.set_result_store(
        std::make_shared<service::ResultStore>(bench_store_path()));
    benchmark::DoNotOptimize(ev.sweep(cfgs, w));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * cfgs.size()));
}
BENCHMARK(BM_SweepColdStore)->Unit(benchmark::kMillisecond);

void BM_SweepWarmStore(benchmark::State& state) {
  const auto cfgs = sweep_candidates();
  core::EvalWorkload w;
  w.demand_gbyte_s = 2.0;
  w.sim_cycles = 50'000;
  {
    // The earlier run that populated the store.
    std::filesystem::remove(bench_store_path());
    core::Evaluator seed;
    seed.set_threads(1);
    seed.set_result_store(
        std::make_shared<service::ResultStore>(bench_store_path()));
    benchmark::DoNotOptimize(seed.sweep(cfgs, w));
  }
  for (auto _ : state) {
    core::Evaluator ev;  // fresh process: only the .edrs file is warm
    ev.set_threads(1);
    ev.set_result_store(
        std::make_shared<service::ResultStore>(bench_store_path()));
    benchmark::DoNotOptimize(ev.sweep(cfgs, w));
  }
  std::filesystem::remove(bench_store_path());
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * cfgs.size()));
}
BENCHMARK(BM_SweepWarmStore)->Unit(benchmark::kMillisecond);

// --- checkpoint-and-fan-out: before/after pair -----------------------------
// The warm-up amortization shape: nine config variants share one channel
// shape (process and logic_kgates move cost/area/power but not the
// simulated DRAM), so their measured windows can all fan out from one
// checkpointed warm state. "ColdWarmup" re-simulates the warm-up prefix
// for every variant (checkpointing off: N x (W + M) cycles);
// "CheckpointFanout" warms once, snapshots in-memory, and restores for
// the other variants (W + N x M). Serial threads so the wall clock
// measures the amortization, not pool scaling; identical metrics either
// way (the differential fuzz enforces bit-identity).

constexpr std::uint64_t kFanoutWarmup = 200'000;
constexpr std::uint64_t kFanoutMeasure = 50'000;

std::vector<core::SystemConfig> fanout_candidates() {
  std::vector<core::SystemConfig> cfgs;
  for (const core::BaseProcess p : {core::BaseProcess::kDramBased,
                                    core::BaseProcess::kLogicBased,
                                    core::BaseProcess::kMerged}) {
    for (const double kgates : {250.0, 500.0, 1000.0}) {
      core::SystemConfig s;
      s.name = std::string(to_string(p)) + "/" +
               std::to_string(static_cast<int>(kgates)) + "kG";
      s.integration = core::Integration::kEmbedded;
      s.process = p;
      s.required_memory = Capacity::mbit(16);
      s.logic_kgates = kgates;
      cfgs.push_back(s);
    }
  }
  return cfgs;
}

void run_fanout_sweep(benchmark::State& state, bool checkpoint) {
  const auto cfgs = fanout_candidates();
  core::EvalWorkload w;
  w.demand_gbyte_s = 2.0;
  w.warmup_cycles = kFanoutWarmup;
  w.sim_cycles = kFanoutMeasure;
  for (auto _ : state) {
    // Fresh evaluator per iteration: each round pays its own warm-up(s).
    core::Evaluator ev;
    ev.set_threads(1);
    ev.set_memoize(false);
    ev.set_checkpoint(checkpoint);
    benchmark::DoNotOptimize(ev.sweep(cfgs, w));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * cfgs.size()));
}

void BM_SweepColdWarmup(benchmark::State& state) {
  run_fanout_sweep(state, false);
}
BENCHMARK(BM_SweepColdWarmup)->Unit(benchmark::kMillisecond);

void BM_SweepCheckpointFanout(benchmark::State& state) {
  run_fanout_sweep(state, true);
}
BENCHMARK(BM_SweepCheckpointFanout)->Unit(benchmark::kMillisecond);

// --- deep-queue scheduling --------------------------------------------------
// Deep queue, bursty arrivals, event-driven drive: every round rebuilds the
// candidate list and every bulk step asks next_event_cycle, so this is the
// shape where the per-entry scheduling scans cost the most.

std::uint64_t run_deep_queue() {
  dram::DramConfig cfg = dram::presets::edram_module(64, 128, 16, 2048);
  cfg.queue_depth = 512;
  dram::Controller ctl(cfg);
  Rng rng(11);
  // Random traffic spread over 16 banks with the queue riding near its
  // 512-entry cap: each scheduling round and each next-event query walks
  // all 512 entries.
  const std::uint64_t cap = cfg.capacity().byte_count();
  std::uint64_t target = 0;
  std::vector<dram::Request> sink;
  for (int burst = 0; burst < 150; ++burst) {
    for (int i = 0; i < 512; ++i) {
      if (ctl.queue_full()) break;
      dram::Request r;
      r.addr = rng.next_below(cap) & ~127ull;
      r.type = (i % 4 == 0) ? dram::AccessType::kWrite
                            : dram::AccessType::kRead;
      ctl.enqueue(r);
    }
    target += 400;
    ctl.tick_until(target);
    ctl.drain_completed_into(sink);
  }
  return ctl.stats().reads + ctl.stats().writes;
}

void BM_DeepQueue(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_deep_queue());
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) * 150 * 400);
}
BENCHMARK(BM_DeepQueue)->Unit(benchmark::kMillisecond);

// --- multi-channel per-cycle tick ---------------------------------------------

void BM_MultiChannelTick(benchmark::State& state) {
  dram::MultiChannel mc(dram::presets::edram_module(16, 128, 4, 2048),
                        static_cast<unsigned>(state.range(0)),
                        dram::ChannelInterleave::kBurst);
  std::uint64_t addr = 0;
  for (auto _ : state) {
    if (!mc.queue_full_for(addr)) {
      dram::Request r;
      r.addr = addr;
      addr += 128;
      mc.enqueue(r);
    }
    mc.tick();
    benchmark::DoNotOptimize(mc.drain_completed());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_MultiChannelTick)->Arg(1)->Arg(4)->Arg(8);

void BM_BankAllocatorOptimal(benchmark::State& state) {
  std::vector<core::TrafficBuffer> buffers;
  Rng rng(5);
  for (int i = 0; i < 7; ++i) {
    buffers.push_back({"b" + std::to_string(i),
                       Capacity::bytes(64 << 10),
                       0.1 + rng.next_double()});
  }
  const auto cfg = dram::presets::edram_module(16, 64, 4, 2048);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::allocate_banks_optimal(buffers, cfg));
  }
}
BENCHMARK(BM_BankAllocatorOptimal);

// --- telemetry probe overhead: detached vs attached ------------------------
// The §4.1 decode-window shape with the probe macro's disabled path
// (Detached: one null check per probe site) against a live RequestTracer +
// IntervalReporter stack (Attached). The acceptance budget is Detached
// within 2% of the PR-2 controller throughput; Attached pays for what it
// records.

std::uint64_t run_decode_window(dram::TelemetryHooks* hooks) {
  dram::DramConfig cfg = dram::presets::edram_module(16, 64, 4, 2048);
  dram::Controller ctl(cfg);
  ctl.attach_telemetry(hooks);
  Rng rng(7);
  const std::uint64_t cap = cfg.capacity().byte_count();
  for (int i = 0; i < 50'000; ++i) {
    if (i % 5 == 0 && !ctl.queue_full()) {
      dram::Request r;
      r.addr = rng.next_below(cap) & ~31ull;
      r.type = (i % 10 == 0) ? dram::AccessType::kWrite
                             : dram::AccessType::kRead;
      ctl.enqueue(r);
    }
    ctl.tick();
    ctl.drain_completed();
  }
  return ctl.stats().bytes_transferred;
}

void BM_TelemetryDetached(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_decode_window(nullptr));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) * 50'000);
}
BENCHMARK(BM_TelemetryDetached)->Unit(benchmark::kMillisecond);

void BM_TelemetryAttached(benchmark::State& state) {
  for (auto _ : state) {
    NullTraceSink sink;
    telemetry::RequestTracer tracer(sink);
    telemetry::IntervalReporter intervals(10'000);
    telemetry::FanoutHooks fan;
    fan.add(&tracer);
    fan.add(&intervals);
    benchmark::DoNotOptimize(run_decode_window(&fan));
    benchmark::DoNotOptimize(tracer.requests_traced());
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) * 50'000);
}
BENCHMARK(BM_TelemetryAttached)->Unit(benchmark::kMillisecond);

// --- scheduler policies: simulated vs analytical WCET bound -----------------
// Arg: SchedulerKind index (0=fcfs .. 4=tdm). Each run drives the same
// three paced strided clients (the scheduler_tournament mix) and reports
// simulated bandwidth / worst read latency next to the core/wcet.hpp
// bounds as counters, so one BENCH json holds every policy's
// simulated-vs-bound pair alongside its wall-clock cost.

constexpr std::uint64_t kWcetWindow = 100'000;

void BM_SchedulerPolicyWcet(benchmark::State& state) {
  dram::DramConfig cfg;
  cfg.interface_bits = 32;
  cfg.scheduler = static_cast<dram::SchedulerKind>(state.range(0));
  cfg.tdm_slot_cycles = 64;
  cfg.tdm_clients = 3;
  const std::vector<core::WcetClient> wclients = {{0, 24, 0},
                                                  {1, 48, 0},
                                                  {2, 96, 0}};
  const clients::StridePattern patterns[] = {
      clients::StridePattern::kRowMajor, clients::StridePattern::kColumnMajor,
      clients::StridePattern::kTiled};
  std::uint64_t bytes = 0;
  double worst_cycles = 0.0;
  for (auto _ : state) {
    clients::MemorySystem sys(cfg, clients::ArbiterKind::kRoundRobin);
    for (unsigned i = 0; i < 3; ++i) {
      clients::SimdStridedClient::Params p;
      p.base = i * (1u << 20);
      p.width_bytes = 4096;
      p.height = 64;
      p.burst_bytes = cfg.bytes_per_access();
      p.tile_width_bytes = 512;
      p.tile_height = 8;
      p.pattern = patterns[i];
      p.period_cycles = wclients[i].period_cycles;
      sys.add_client(std::make_unique<clients::SimdStridedClient>(
          i, "simd", p));
    }
    sys.run(kWcetWindow);
    bytes = sys.controller().stats().bytes_transferred;
    worst_cycles = sys.controller().stats().read_latency.max();
    benchmark::DoNotOptimize(bytes);
  }
  const core::WcetAnalysis wa = core::analyze_wcet(cfg, wclients);
  const double window_ns = kWcetWindow * cfg.clock.period_ns();
  state.counters["sim_gbs"] = static_cast<double>(bytes) / window_ns;
  state.counters["bound_gbs"] =
      static_cast<double>(core::wcet_max_bytes(cfg, wclients, kWcetWindow)) /
      window_ns;
  state.counters["sim_worst_ns"] = worst_cycles * cfg.clock.period_ns();
  state.counters["bound_ns"] = wa.latency_bounded ? wa.latency_ns : 0.0;
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * kWcetWindow));
}
BENCHMARK(BM_SchedulerPolicyWcet)
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->Arg(3)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

void BM_ProtocolChecker(benchmark::State& state) {
  // Capture once, verify repeatedly.
  dram::DramConfig cfg = dram::presets::sdram_pc100_4mbit();
  dram::Controller ctl(cfg);
  dram::CommandLog log;
  ctl.attach_command_log(&log);
  Rng rng(2);
  for (int i = 0; i < 20'000; ++i) {
    if (!ctl.queue_full()) {
      dram::Request r;
      r.addr = rng.next_below(1u << 19) & ~31ull;
      ctl.enqueue(r);
    }
    ctl.tick();
    ctl.drain_completed();
  }
  const dram::ProtocolChecker checker(cfg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(checker.verify(log));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(log.size()));
}
BENCHMARK(BM_ProtocolChecker);

}  // namespace

BENCHMARK_MAIN();
