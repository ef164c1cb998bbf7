// The front end's per-client event accounting and the controller's lazy
// retirement against per-cycle stepping. MemorySystem credits each
// client's per-cycle samples only at that client's own events (its grant,
// its delivery) and before run()/run_to_completion() return; it caches
// each client's readiness until its grant, delivery or a restore; and a
// stretch stops at a retirement only when a client is completion-blocked
// or under run_to_completion. The controller then neither stops nor
// ticks at a data-done cycle nobody watches. None of it may change a bit:
// every test here compares the complete serialized state (channel,
// reliability layer, client registers, ClientStats, FifoTrackers,
// in-flight counts) of the default path with per-cycle stepping. No
// telemetry is attached except where a test says so, because attached
// telemetry watches every retirement.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "clients/client.hpp"
#include "clients/compiled_trace.hpp"
#include "clients/extra_clients.hpp"
#include "clients/strided_gen.hpp"
#include "clients/system.hpp"
#include "common/rng.hpp"
#include "common/snapshot.hpp"
#include "dram/command_log.hpp"
#include "dram/presets.hpp"
#include "dram/telemetry_hooks.hpp"
#include "mpeg/trace_gen.hpp"
#include "reliability/manager.hpp"

namespace edsim {
namespace {

using dram::DramConfig;

/// Every client class in the tree.
enum class Kind {
  kStream,
  kStride,
  kRandom,
  kSimd,
  kTrace,
  kArena,
  kPointerChase,
  kBursty,
  kMc,
};
constexpr Kind kKinds[] = {Kind::kStream,       Kind::kStride,
                           Kind::kRandom,       Kind::kSimd,
                           Kind::kTrace,        Kind::kArena,
                           Kind::kPointerChase, Kind::kBursty,
                           Kind::kMc};
constexpr std::size_t kKindCount = sizeof(kKinds) / sizeof(kKinds[0]);

const char* name_of(Kind k) {
  switch (k) {
    case Kind::kStream: return "stream";
    case Kind::kStride: return "strided";
    case Kind::kRandom: return "random";
    case Kind::kSimd: return "simd";
    case Kind::kTrace: return "trace";
    case Kind::kArena: return "arena";
    case Kind::kPointerChase: return "chase";
    case Kind::kBursty: return "bursty";
    case Kind::kMc: return "mc";
  }
  return "?";
}

/// A power-managed channel. `ecc` adds a long read-decode pipeline, so a
/// write issued after a read can finish before it: retirement order
/// (done cycle, then issue order) then differs from issue order.
DramConfig power_managed_config(bool ecc) {
  DramConfig cfg = dram::presets::edram_module(16, 64, 4, 2048);
  cfg.powerdown_enabled = true;
  cfg.powerdown_idle_cycles = 24;
  cfg.tXP = 3;
  cfg.ecc_enabled = ecc;
  cfg.ecc_latency_cycles = 9;
  return cfg;
}

reliability::ReliabilityConfig maintenance_reliability() {
  reliability::ReliabilityConfig rc;
  rc.inject.seed = 21;
  rc.inject.weak_cells = 12;
  rc.inject.weak_retention_min_frac = 0.002;
  rc.inject.weak_retention_max_frac = 0.002;
  rc.scrub_enabled = false;
  rc.maintenance.enabled = true;
  return rc;
}

/// One client of `kind` with id `id`, its parameters drawn from `seed`.
/// `finite` bounds every kind's request count (run_to_completion).
std::unique_ptr<clients::Client> make_client(Kind kind, unsigned id,
                                             const DramConfig& cfg,
                                             std::uint64_t seed, bool finite) {
  Rng rng(seed);
  const unsigned burst = cfg.bytes_per_access();
  const std::uint64_t base = std::uint64_t{id} << 18;
  const std::uint64_t length = 1 << 18;
  const auto period = static_cast<unsigned>(rng.next_below(300));
  const std::uint64_t total =
      finite || rng.next_bool(0.5) ? 40 + rng.next_below(200) : 0;
  const std::string name = std::string(name_of(kind)) + std::to_string(id);
  switch (kind) {
    case Kind::kStream: {
      clients::StreamClient::Params p;
      p.base = base;
      p.length = length;
      p.burst_bytes = burst;
      p.type = rng.next_bool(0.3) ? dram::AccessType::kWrite
                                  : dram::AccessType::kRead;
      p.period_cycles = period;
      p.total_requests = total;
      p.start_cycle = rng.next_below(500);
      return std::make_unique<clients::StreamClient>(id, name, p);
    }
    case Kind::kStride: {
      clients::StridedClient::Params p;
      p.base = base;
      p.length = length;
      p.burst_bytes = burst;
      p.stride_bytes = cfg.page_bytes * (1 + rng.next_below(3));
      p.period_cycles = period;
      p.total_requests = total;
      return std::make_unique<clients::StridedClient>(id, name, p);
    }
    case Kind::kRandom: {
      clients::RandomClient::Params p;
      p.base = base;
      p.length = length;
      p.burst_bytes = burst;
      p.period_cycles = period;
      p.total_requests = total;
      p.seed = rng.next_below(1'000);
      return std::make_unique<clients::RandomClient>(id, name, p);
    }
    case Kind::kSimd: {
      clients::SimdStridedClient::Params p;
      p.base = base;
      p.width_bytes = cfg.page_bytes;
      p.height = 8 + static_cast<unsigned>(rng.next_below(24));
      p.burst_bytes = burst;
      p.pattern = rng.next_bool(0.5) ? clients::StridePattern::kRowMajor
                                     : clients::StridePattern::kColumnMajor;
      p.period_cycles = period;
      p.total_requests = total;
      return std::make_unique<clients::SimdStridedClient>(id, name, p);
    }
    case Kind::kTrace: {
      std::vector<clients::TraceRecord> t(40 + rng.next_below(200));
      std::uint64_t cycle = rng.next_below(300);
      for (clients::TraceRecord& r : t) {
        cycle += rng.next_bool(0.3) ? 0 : rng.next_below(600);
        r.cycle = cycle;
        r.addr = base + rng.next_below(length);
        r.type = rng.next_bool(0.3) ? dram::AccessType::kWrite
                                    : dram::AccessType::kRead;
      }
      return std::make_unique<clients::TraceClient>(id, name, std::move(t),
                                                    burst);
    }
    case Kind::kArena:
    case Kind::kMc: {
      // Block fetches: rows back to back, one block per period. The arena
      // replays the same generator compiled (kPacedClock block heads,
      // kImmediate rows).
      mpeg::McClient::Params p;
      p.region_base = base;
      p.region_bytes = length;
      p.pitch_bytes = length / 32;
      p.rows_per_block = 1 + static_cast<unsigned>(rng.next_below(17));
      p.burst_bytes = burst;
      p.block_period_cycles = 1 + rng.next_below(1'500);
      p.total_blocks = finite || rng.next_bool(0.5) ? 5 + rng.next_below(40)
                                                    : 0;
      p.seed = rng.next_below(1'000);
      if (kind == Kind::kMc) return std::make_unique<mpeg::McClient>(id, p);
      return std::make_unique<clients::ArenaReplayClient>(
          id, name, mpeg::compile_mc(p, p.total_blocks ? 0 : 200));
    }
    case Kind::kPointerChase: {
      clients::PointerChaseClient::Params p;
      p.base = base;
      p.length = length;
      p.burst_bytes = burst;
      p.total_requests = total;
      p.seed = rng.next_below(1'000);
      p.think_cycles = static_cast<unsigned>(rng.next_below(400));
      return std::make_unique<clients::PointerChaseClient>(id, name, p);
    }
    case Kind::kBursty: {
      clients::BurstyClient::Params p;
      p.base = base;
      p.length = length;
      p.burst_bytes = burst;
      p.on_requests = 1 + static_cast<unsigned>(rng.next_below(16));
      p.off_cycles = static_cast<unsigned>(rng.next_below(2'000));
      p.total_requests = total;
      p.seed = rng.next_below(1'000);
      p.randomize_gap = rng.next_bool(0.5);
      return std::make_unique<clients::BurstyClient>(id, name, p);
    }
  }
  return nullptr;
}

/// A roster: the client kinds, in id order, and the seed their
/// parameters come from.
struct Roster {
  std::vector<Kind> kinds;
  std::uint64_t seed = 0;
  bool maintenance = false;
  bool ecc = false;
  bool finite = false;
};

/// Roster `k` puts kind k first, next to a second kind and a paced
/// stream, so every kind meets every regime the stretch handles.
Roster roster_for(std::size_t k, bool finite) {
  Roster r;
  r.seed = derive_seed(0xe7e7f0e5ULL, k + (finite ? 100 : 0));
  Rng rng(r.seed);
  r.kinds = {kKinds[k], kKinds[(k + 1 + rng.next_below(kKindCount - 1)) %
                               kKindCount],
             Kind::kStream};
  r.maintenance = k % 2 == 0;
  r.ecc = k % 3 != 1;
  r.finite = finite;
  return r;
}

/// A memory system built from a roster, per-cycle or on the default path,
/// with the reliability layer attached when the roster asks for it.
struct Rig {
  DramConfig cfg;
  std::unique_ptr<reliability::ReliabilityManager> rel;
  clients::MemorySystem sys;

  Rig(const Roster& r, bool per_cycle)
      : cfg(power_managed_config(r.ecc)),
        sys(cfg, clients::ArbiterKind::kRoundRobin) {
    if (per_cycle) {
      sys.set_fast_forward(false);
      sys.set_burst_issue(false);
    }
    if (r.maintenance) {
      rel = std::make_unique<reliability::ReliabilityManager>(
          cfg, maintenance_reliability());
      sys.controller().attach_reliability(rel.get());
    }
    for (std::size_t i = 0; i < r.kinds.size(); ++i) {
      sys.add_client(make_client(r.kinds[i], static_cast<unsigned>(i), cfg,
                                 derive_seed(r.seed, i), r.finite));
    }
  }

  /// The whole dynamic state: reliability layer first (it is attached
  /// before the channel loads), then the system.
  std::vector<std::uint8_t> state() const {
    SnapshotWriter w;
    if (rel) rel->save(w);
    sys.save(w);
    return w.seal();
  }

  void restore(const std::vector<std::uint8_t>& blob) {
    SnapshotReader r(blob);
    if (rel) rel->load(r);
    sys.load(r);
    r.expect_end();
  }
};

std::string describe(const Roster& r) {
  std::string s = "roster";
  for (const Kind k : r.kinds) s += std::string(" ") + name_of(k);
  if (r.maintenance) s += " +maintenance";
  if (r.ecc) s += " +ecc";
  return s + " seed " + std::to_string(r.seed);
}

/// Window lengths cut at arbitrary cycles, single cycles included.
std::vector<std::uint64_t> some_chunks(std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint64_t> out;
  for (int i = 0; i < 8; ++i) {
    out.push_back(rng.next_bool(0.25) ? 1 + rng.next_below(3)
                                      : 1 + rng.next_below(15'000));
  }
  return out;
}

TEST(EventFrontEnd, EveryClientKindMatchesPerCycleAcrossRuns) {
  std::uint64_t powerdown = 0;
  for (std::size_t k = 0; k < kKindCount; ++k) {
    const Roster roster = roster_for(k, /*finite=*/false);
    SCOPED_TRACE(describe(roster));
    Rig ref(roster, /*per_cycle=*/true);
    Rig fast(roster, /*per_cycle=*/false);
    Rig quiet_only(roster, /*per_cycle=*/false);
    quiet_only.sys.set_burst_issue(false);
    for (const std::uint64_t n : some_chunks(roster.seed)) {
      ref.sys.run(n);
      fast.sys.run(n);
      quiet_only.sys.run(n);
      ASSERT_EQ(ref.state(), fast.state())
          << "after a run to cycle " << ref.sys.controller().cycle();
      ASSERT_EQ(ref.state(), quiet_only.state())
          << "quiet only, after a run to cycle "
          << ref.sys.controller().cycle();
    }
    std::uint64_t issued = 0;
    for (std::size_t i = 0; i < ref.sys.client_count(); ++i) {
      issued += ref.sys.client_stats(i).issued;
    }
    EXPECT_GT(issued, 50u);
    powerdown += ref.sys.controller().stats().powerdown_cycles;
  }
  EXPECT_GT(powerdown, 100'000u);
}

TEST(EventFrontEnd, EveryClientKindMatchesPerCycleToCompletion) {
  for (std::size_t k = 0; k < kKindCount; ++k) {
    const Roster roster = roster_for(k, /*finite=*/true);
    SCOPED_TRACE(describe(roster));
    Rig ref(roster, /*per_cycle=*/true);
    Rig fast(roster, /*per_cycle=*/false);
    const std::uint64_t warm = 1 + Rng(roster.seed).next_below(20'000);
    ref.sys.run(warm);
    fast.sys.run(warm);
    ref.sys.run_to_completion(5'000'000);
    fast.sys.run_to_completion(5'000'000);
    ASSERT_EQ(ref.state(), fast.state());
    for (std::size_t i = 0; i < ref.sys.client_count(); ++i) {
      EXPECT_TRUE(ref.sys.client(i).finished()) << "client " << i;
      EXPECT_EQ(ref.sys.client_stats(i).completed,
                ref.sys.client_stats(i).issued)
          << "client " << i;
    }
  }
}

TEST(EventFrontEnd, SnapshotRestoreAtArbitraryCyclesMatchesPerCycle) {
  // The default path is cut at arbitrary cycles; at each cut its state
  // moves into a freshly built twin, which carries on. Cached readiness
  // and the lazily credited samples must come back from the snapshot
  // alone.
  for (std::size_t k = 0; k < kKindCount; ++k) {
    const Roster roster = roster_for(k, /*finite=*/false);
    SCOPED_TRACE(describe(roster));
    Rig ref(roster, /*per_cycle=*/true);
    auto fast = std::make_unique<Rig>(roster, /*per_cycle=*/false);
    for (const std::uint64_t n : some_chunks(derive_seed(roster.seed, 9))) {
      ref.sys.run(n);
      fast->sys.run(n);
      const std::vector<std::uint8_t> blob = fast->state();
      ASSERT_EQ(ref.state(), blob)
          << "after a run to cycle " << ref.sys.controller().cycle();
      fast = std::make_unique<Rig>(roster, /*per_cycle=*/false);
      fast->restore(blob);
    }
    ref.sys.run(10'000);
    fast->sys.run(10'000);
    ASSERT_EQ(ref.state(), fast->state());
  }
}

/// Records the request lifecycle and the command stream as the probes
/// deliver them, and the retirement count of every statistics snapshot a
/// cycle-advance probe hands over (per-cycle stepping reports one tick at
/// a time, the default path also bulk skips, so those are kept by cycle).
class LifecycleRecorder final : public dram::TelemetryHooks {
 public:
  using Event = std::tuple<char, std::uint64_t, std::uint64_t>;

  void on_cycle_advance(const dram::TickSample& sample,
                        const dram::ControllerStats& stats) override {
    note(sample, stats);
  }
  void on_bulk_advance(std::uint64_t /*from*/, const dram::TickSample& sample,
                       const dram::ControllerStats& stats) override {
    note(sample, stats);
  }

  void on_request_enqueued(const dram::Request& req,
                           const dram::Coordinates& /*coord*/,
                           std::uint64_t cycle) override {
    events.emplace_back('e', req.id, cycle);
  }
  void on_request_issued(const dram::Request& req,
                         const dram::Coordinates& /*coord*/,
                         std::uint64_t cycle) override {
    events.emplace_back('i', req.id, cycle);
  }
  void on_request_complete(const dram::Request& req,
                           std::uint64_t cycle) override {
    events.emplace_back('c', req.id, cycle);
  }
  void on_command(const dram::CommandRecord& rec) override {
    events.emplace_back('k', static_cast<std::uint64_t>(rec.cmd), rec.cycle);
  }

  std::vector<Event> events;
  /// Requests retired by each reported cycle.
  std::map<std::uint64_t, std::uint64_t> retired;

 private:
  void note(const dram::TickSample& sample,
            const dram::ControllerStats& stats) {
    retired[sample.cycle] =
        stats.read_latency.count() + stats.write_latency.count();
  }
};

TEST(EventFrontEnd, PowerDownStatsAndCommandLogMatchPerCycle) {
  // A power-managed channel whose queue empties between paced grants:
  // the last data beat of each burst of traffic starts the idle streak,
  // so it stays a controller event even when nobody watches retirements.
  // With telemetry attached every retirement is watched again; both ways
  // the statistics and the command log equal per-cycle stepping.
  Roster roster;
  roster.kinds = {Kind::kMc, Kind::kPointerChase, Kind::kStream,
                  Kind::kBursty};
  roster.seed = 0x90e4d0ULL;
  roster.maintenance = true;
  roster.ecc = true;
  for (const bool telemetry : {false, true}) {
    SCOPED_TRACE(telemetry ? "telemetry attached" : "no telemetry");
    Rig ref(roster, /*per_cycle=*/true);
    Rig fast(roster, /*per_cycle=*/false);
    dram::CommandLog ref_log, fast_log;
    LifecycleRecorder ref_probe, fast_probe;
    ref.sys.controller().attach_command_log(&ref_log);
    fast.sys.controller().attach_command_log(&fast_log);
    if (telemetry) {
      ref.sys.attach_telemetry(&ref_probe);
      fast.sys.attach_telemetry(&fast_probe);
    }
    ref.sys.run(150'000);
    fast.sys.run(150'000);

    const dram::ControllerStats& rs = ref.sys.controller().stats();
    const dram::ControllerStats& fs = fast.sys.controller().stats();
    ASSERT_GT(rs.powerdown_cycles, rs.cycles / 4);
    ASSERT_GT(rs.reads + rs.writes, 500u);
    EXPECT_EQ(rs.powerdown_cycles, fs.powerdown_cycles);
    EXPECT_EQ(rs.maintenance_ops, fs.maintenance_ops);
    EXPECT_EQ(rs.read_latency.sum(), fs.read_latency.sum());
    EXPECT_EQ(rs.write_latency.sum(), fs.write_latency.sum());
    EXPECT_EQ(ref.state(), fast.state());
    EXPECT_TRUE(ref_log.records() == fast_log.records());
    EXPECT_EQ(ref_probe.events, fast_probe.events);
    if (telemetry) {
      // Every retirement reported, and every statistics snapshot a probe
      // sees counts the retirements due by its cycle, as per-cycle
      // stepping's does.
      const auto completions = std::count_if(
          fast_probe.events.begin(), fast_probe.events.end(),
          [](const LifecycleRecorder::Event& e) {
            return std::get<0>(e) == 'c';
          });
      EXPECT_GT(completions, 500);
      for (const auto& [cycle, count] : fast_probe.retired) {
        ASSERT_EQ(ref_probe.retired.at(cycle), count) << "cycle " << cycle;
      }
    }
  }
}

}  // namespace
}  // namespace edsim
