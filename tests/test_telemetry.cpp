// The observability subsystem must never change what it observes: these
// tests pin (1) registry semantics and thread-count-independent merging,
// (2) the ring-buffered CommandLog, (3) trace-export structure, and
// (4) the load-bearing property of the interval reporter — per-cycle and
// event-driven fast-forward runs produce the identical time series.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>
#include <vector>

#include "clients/client.hpp"
#include "clients/system.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/evaluator.hpp"
#include "dram/address_map.hpp"
#include "dram/command_log.hpp"
#include "dram/controller.hpp"
#include "dram/presets.hpp"
#include "reliability/manager.hpp"
#include "telemetry/exporters.hpp"
#include "telemetry/interval.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/multi_hooks.hpp"
#include "telemetry/request_tracer.hpp"
#include "telemetry/trace.hpp"

namespace edsim {
namespace {

using dram::Controller;
using dram::DramConfig;
using telemetry::IntervalReporter;
using telemetry::MetricRegistry;
using telemetry::MetricScope;

// ---------------------------------------------------------------------------
// MetricRegistry

TEST(MetricRegistry, CountersGaugesHistograms) {
  MetricRegistry reg;
  reg.counter("requests").add();
  reg.counter("requests").add(4);
  reg.gauge("bandwidth").set(1.5);
  reg.histogram("latency", 2.0, 8).add(5.0);

  EXPECT_EQ(reg.counter("requests").value(), 5u);
  EXPECT_DOUBLE_EQ(reg.gauge("bandwidth").value(), 1.5);
  EXPECT_EQ(reg.histogram("latency", 2.0, 8).count(), 1u);
  EXPECT_EQ(reg.size(), 3u);

  EXPECT_NE(reg.find_counter("requests"), nullptr);
  EXPECT_EQ(reg.find_counter("absent"), nullptr);
  EXPECT_EQ(reg.find_gauge("absent"), nullptr);
  EXPECT_EQ(reg.find_histogram("absent"), nullptr);
}

TEST(MetricRegistry, ScopeBuildsDottedNames) {
  MetricRegistry reg;
  MetricScope root(reg, "channel0");
  root.scope("bank3").counter("row_hits").add(7);
  EXPECT_NE(reg.find_counter("channel0.bank3.row_hits"), nullptr);
  EXPECT_EQ(reg.find_counter("channel0.bank3.row_hits")->value(), 7u);
}

TEST(MetricRegistry, HistogramRedeclareShapeMismatchThrows) {
  MetricRegistry reg;
  reg.histogram("h", 1.0, 4);
  EXPECT_NO_THROW(reg.histogram("h", 1.0, 4));
  EXPECT_THROW(reg.histogram("h", 2.0, 4), ConfigError);
  EXPECT_THROW(reg.histogram("h", 1.0, 8), ConfigError);
}

TEST(MetricRegistry, MergeSemantics) {
  MetricRegistry a;
  a.counter("n").add(2);
  a.gauge("g").set(1.0);
  a.histogram("h", 1.0, 4).add(0.5);

  MetricRegistry b;
  b.counter("n").add(3);
  b.counter("only_b").add(1);
  b.gauge("g").set(9.0);
  b.histogram("h", 1.0, 4).add(2.5);

  a.merge(b);
  EXPECT_EQ(a.counter("n").value(), 5u);
  EXPECT_EQ(a.counter("only_b").value(), 1u);
  EXPECT_DOUBLE_EQ(a.gauge("g").value(), 9.0);  // incoming set gauge wins
  EXPECT_EQ(a.histogram("h", 1.0, 4).count(), 2u);
}

TEST(MetricRegistry, WritesCsvAndJson) {
  MetricRegistry reg;
  reg.counter("channel0.reads").add(3);
  reg.gauge("bw").set(2.25);
  std::ostringstream csv, json;
  reg.write_csv(csv);
  reg.write_json(json);
  EXPECT_NE(csv.str().find("counter,channel0.reads,3"), std::string::npos);
  EXPECT_NE(json.str().find("\"channel0.reads\": 3"), std::string::npos);
  EXPECT_EQ(json.str().front(), '{');
  EXPECT_EQ(json.str().back(), '\n');
}

// The parallel Evaluator must produce the identical registry at every
// thread count — scratch registries merged in input order, not racing on
// a shared map.
TEST(MetricRegistry, EvaluatorSweepMergeIsThreadCountInvariant) {
  std::vector<core::SystemConfig> cfgs;
  for (unsigned mbit : {8u, 16u, 32u, 64u}) {
    core::SystemConfig s;
    s.name = "e" + std::to_string(mbit);
    s.integration = core::Integration::kEmbedded;
    s.required_memory = Capacity::mbit(mbit);
    s.interface_bits = 128;
    s.banks = 4;
    s.page_bytes = 2048;
    cfgs.push_back(s);
  }
  core::EvalWorkload w;
  w.demand_gbyte_s = 0.4;
  w.sim_cycles = 20'000;

  auto run_at = [&](unsigned threads) {
    MetricRegistry reg;
    core::Evaluator ev;
    ev.set_threads(threads);
    ev.set_metrics(&reg);
    ev.sweep(cfgs, w);
    return reg;
  };
  const MetricRegistry serial = run_at(1);
  const MetricRegistry parallel = run_at(4);

  ASSERT_GT(serial.size(), 0u);
  ASSERT_EQ(serial.counters().size(), parallel.counters().size());
  for (const auto& [name, c] : serial.counters()) {
    const telemetry::Counter* pc = parallel.find_counter(name);
    ASSERT_NE(pc, nullptr) << name;
    EXPECT_EQ(c.value(), pc->value()) << name;
  }
  ASSERT_EQ(serial.gauges().size(), parallel.gauges().size());
  for (const auto& [name, g] : serial.gauges()) {
    const telemetry::Gauge* pg = parallel.find_gauge(name);
    ASSERT_NE(pg, nullptr) << name;
    EXPECT_EQ(g.value(), pg->value()) << name;  // exact: same bits
  }
  // Every config contributed exactly one evaluation.
  for (const auto& cfg : cfgs) {
    const auto* c = serial.find_counter(cfg.name + ".evaluations");
    ASSERT_NE(c, nullptr);
    EXPECT_EQ(c->value(), 1u);
  }
}

// ---------------------------------------------------------------------------
// CommandLog

dram::CommandRecord rec_at(std::uint64_t cycle) {
  dram::CommandRecord r;
  r.cycle = cycle;
  r.cmd = dram::Command::kActivate;
  return r;
}

TEST(CommandLog, AppendOnlyByDefault) {
  dram::CommandLog log;
  for (std::uint64_t i = 0; i < 100; ++i) log.record(rec_at(i));
  const auto& recs = log.records();
  ASSERT_EQ(recs.size(), 100u);
  for (std::size_t i = 0; i < recs.size(); ++i) EXPECT_EQ(recs[i].cycle, i);
  log.clear();
  EXPECT_TRUE(log.records().empty());
}

// ---------------------------------------------------------------------------
// Trace sinks

TEST(ChromeTraceSink, EmitsWellFormedEventObjects) {
  std::ostringstream os;
  {
    telemetry::ChromeTraceSink sink(os, Frequency{100.0});
    sink.set_process_name(0, "channel0");
    sink.set_track_name(0, 1, "client 1");
    telemetry::TraceEvent ev;
    ev.phase = telemetry::TraceEvent::Phase::kSlice;
    ev.name = "R 0x100";
    ev.category = "request";
    ev.cycle = 10;
    ev.duration = 5;
    ev.track = 1;
    ev.args = {telemetry::arg_u64("bank", 3),
               telemetry::arg_str("note", "a\"b")};
    sink.emit(ev);
    ev.phase = telemetry::TraceEvent::Phase::kInstant;
    ev.name = "ACT";
    ev.args.clear();
    sink.emit(ev);
    EXPECT_EQ(sink.events_emitted(), 2u);
  }
  const std::string out = os.str();
  EXPECT_NE(out.find("\"displayTimeUnit\": \"ns\""), std::string::npos);
  EXPECT_NE(out.find("\"traceEvents\": ["), std::string::npos);
  EXPECT_NE(out.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(out.find("\"ph\": \"i\""), std::string::npos);
  EXPECT_NE(out.find("\"ph\": \"M\""), std::string::npos);
  EXPECT_NE(out.find("\"note\": \"a\\\"b\""), std::string::npos);
  // 100 MHz -> 10 ns/cycle: cycle 10 lands at 0.1 us.
  EXPECT_NE(out.find("\"ts\": 0.100"), std::string::npos);
  EXPECT_EQ(std::count(out.begin(), out.end(), '{'),
            std::count(out.begin(), out.end(), '}'));
  EXPECT_EQ(out.substr(out.size() - 4), "\n]}\n");
}

TEST(CsvTraceSink, OneRowPerEvent) {
  std::ostringstream os;
  telemetry::CsvTraceSink sink(os);
  telemetry::TraceEvent ev;
  ev.name = "REF";
  ev.category = "command";
  ev.cycle = 77;
  sink.emit(ev);
  EXPECT_NE(os.str().find("cycle,duration_cycles,phase"), std::string::npos);
  EXPECT_NE(os.str().find("77,0,instant,command,REF"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Live request tracing against a real controller

TEST(RequestTracer, CapturesLifecycleAndCommands) {
  const DramConfig cfg = dram::presets::edram_module(16, 128, 4, 2048);
  Controller ctl(cfg);
  std::ostringstream os;
  telemetry::ChromeTraceSink sink(os, cfg.clock);
  telemetry::RequestTracer tracer(sink);
  ctl.attach_telemetry(&tracer);

  Rng rng(3);
  unsigned issued = 0;
  for (std::uint64_t c = 0; c < 4'000; ++c) {
    if (c % 40 == 0) {
      dram::Request r;
      r.addr = rng.next_below(cfg.capacity().byte_count()) & ~31ull;
      r.type = (issued % 2 == 0) ? dram::AccessType::kRead
                                 : dram::AccessType::kWrite;
      if (ctl.enqueue(r)) ++issued;
    }
    ctl.tick();
    ctl.drain_completed();
  }
  EXPECT_GT(tracer.requests_traced(), 0u);
  // Each request renders as parent + queued + xfer slices, and the
  // command bus adds at least one instant per request on top.
  EXPECT_GT(sink.events_emitted(), 3 * tracer.requests_traced());
  sink.finish();
  EXPECT_NE(os.str().find("\"R 0x"), std::string::npos);
  EXPECT_NE(os.str().find("command bus"), std::string::npos);
}

// ---------------------------------------------------------------------------
// IntervalReporter: the fast-forward equivalence contract

struct Arrival {
  std::uint64_t cycle = 0;
  std::uint64_t addr = 0;
  dram::AccessType type = dram::AccessType::kRead;
};

std::vector<Arrival> bursty_trace(const DramConfig& cfg, std::uint64_t bursts,
                                  std::uint64_t gap_cycles) {
  std::vector<Arrival> out;
  Rng rng(99);
  std::uint64_t cycle = 5;
  const std::uint64_t span = cfg.capacity().byte_count();
  for (std::uint64_t b = 0; b < bursts; ++b) {
    for (int i = 0; i < 6; ++i) {
      Arrival a;
      a.cycle = cycle;
      a.addr = rng.next_below(span) & ~31ull;
      a.type =
          (i % 3 == 0) ? dram::AccessType::kWrite : dram::AccessType::kRead;
      out.push_back(a);
      cycle += 2;
    }
    cycle += gap_cycles;
  }
  return out;
}

void drive_per_cycle(Controller& ctl, const std::vector<Arrival>& trace,
                     std::uint64_t end) {
  std::size_t idx = 0;
  while (ctl.cycle() < end) {
    while (idx < trace.size() && trace[idx].cycle == ctl.cycle()) {
      dram::Request r;
      r.addr = trace[idx].addr;
      r.type = trace[idx].type;
      ASSERT_TRUE(ctl.enqueue(r));
      ++idx;
    }
    ctl.tick();
    ctl.drain_completed();
  }
}

void drive_fast(Controller& ctl, const std::vector<Arrival>& trace,
                std::uint64_t end) {
  std::size_t idx = 0;
  while (true) {
    while (idx < trace.size() && trace[idx].cycle == ctl.cycle()) {
      dram::Request r;
      r.addr = trace[idx].addr;
      r.type = trace[idx].type;
      ASSERT_TRUE(ctl.enqueue(r));
      ++idx;
    }
    if (ctl.cycle() >= end) break;
    const std::uint64_t next = idx < trace.size() ? trace[idx].cycle : end;
    ctl.tick_until(std::min(next, end));
    ctl.drain_completed();
  }
}

void expect_same_series(const IntervalReporter& a, const IntervalReporter& b) {
  ASSERT_GT(a.samples().size(), 2u)
      << "window too short to produce a series";
  ASSERT_EQ(a.samples().size(), b.samples().size());
  for (std::size_t i = 0; i < a.samples().size(); ++i) {
    EXPECT_EQ(a.samples()[i], b.samples()[i]) << "interval " << i;
  }
}

TEST(IntervalReporter, FastForwardSeriesIdentical) {
  const DramConfig cfg = dram::presets::edram_module(16, 128, 4, 2048);
  const std::vector<Arrival> trace = bursty_trace(cfg, 10, 900);
  const std::uint64_t end = 20'000;

  Controller slow(cfg);
  IntervalReporter slow_iv(512);
  slow.attach_telemetry(&slow_iv);
  drive_per_cycle(slow, trace, end);
  slow_iv.finish();

  Controller fast(cfg);
  IntervalReporter fast_iv(512);
  fast.attach_telemetry(&fast_iv);
  drive_fast(fast, trace, end);
  fast_iv.finish();

  expect_same_series(slow_iv, fast_iv);
}

TEST(IntervalReporter, FastForwardSeriesIdenticalWithPowerDown) {
  DramConfig cfg = dram::presets::edram_module(16, 64, 4, 2048);
  cfg.powerdown_enabled = true;
  cfg.powerdown_idle_cycles = 24;
  cfg.tXP = 3;
  const std::vector<Arrival> trace = bursty_trace(cfg, 8, 2'500);
  const std::uint64_t end = 35'000;

  Controller slow(cfg);
  IntervalReporter slow_iv(1'000);
  slow.attach_telemetry(&slow_iv);
  drive_per_cycle(slow, trace, end);
  slow_iv.finish();

  Controller fast(cfg);
  IntervalReporter fast_iv(1'000);
  fast.attach_telemetry(&fast_iv);
  drive_fast(fast, trace, end);
  fast_iv.finish();

  expect_same_series(slow_iv, fast_iv);
  // Power-down must actually engage in this window, and the reporter must
  // attribute residency mid-skip (not lump it at skip end).
  std::uint64_t pd = 0;
  for (const auto& s : slow_iv.samples()) pd += s.powerdown_cycles;
  EXPECT_GT(pd, 0u);
  EXPECT_EQ(pd, slow.stats().powerdown_cycles);
}

TEST(IntervalReporter, ReliabilityEventsBinnedIdenticallyAcrossModes) {
  DramConfig cfg = dram::presets::edram_module(16, 128, 4, 2048);
  cfg.ecc_enabled = true;
  cfg.powerdown_enabled = true;
  cfg.powerdown_idle_cycles = 24;
  const std::vector<Arrival> trace = bursty_trace(cfg, 12, 1'000);
  const std::uint64_t end = 30'000;

  reliability::ReliabilityConfig rc;
  rc.inject.seed = 77;
  rc.inject.transient_per_mbit_ms = 40.0;
  rc.inject.weak_cells = 8;

  auto run = [&](bool fast_mode) {
    Controller ctl(cfg);
    reliability::ReliabilityManager rel(cfg, rc);
    ctl.attach_reliability(&rel);
    IntervalReporter iv(1'024);
    ctl.attach_telemetry(&iv);
    rel.set_event_observer(telemetry::make_interval_observer(iv));
    if (fast_mode) {
      drive_fast(ctl, trace, end);
    } else {
      drive_per_cycle(ctl, trace, end);
    }
    iv.finish();
    return iv.samples();
  };
  const auto slow_samples = run(false);
  const auto fast_samples = run(true);

  ASSERT_EQ(slow_samples.size(), fast_samples.size());
  std::uint64_t events = 0;
  for (std::size_t i = 0; i < slow_samples.size(); ++i) {
    EXPECT_EQ(slow_samples[i], fast_samples[i]) << "interval " << i;
    events += slow_samples[i].injected + slow_samples[i].corrected +
              slow_samples[i].uncorrected;
  }
  EXPECT_GT(events, 0u) << "config must inject faults for this test to bite";
}

TEST(IntervalReporter, MaintenanceEventsReachTheSeriesAndCsv) {
  // Self-managed channel with a leaky weak tail and a hammered bank:
  // bin sweeps and neighbor refreshes must flow through the observer
  // into the interval bins (by exact cycle) and into the CSV columns.
  const DramConfig cfg = dram::presets::edram_module(4, 64, 4, 1024);
  reliability::ReliabilityConfig rc;
  rc.inject.seed = 31;
  rc.inject.weak_cells = 10;
  rc.inject.weak_retention_min_frac = 0.0005;
  rc.inject.weak_retention_max_frac = 0.0010;
  rc.inject.hammer_flip_threshold = 128;
  rc.scrub_enabled = false;
  rc.maintenance.enabled = true;
  rc.maintenance.hammer_threshold = 32;

  // Alternate reads of rows 9/11 in bank 1: a double-sided hammer.
  std::vector<Arrival> trace;
  const dram::AddressMapper map(cfg);
  for (std::uint64_t cycle = 5; cycle < 40'000; cycle += 24) {
    Arrival a;
    a.cycle = cycle;
    a.addr = map.encode(
        dram::Coordinates{1, (cycle / 24) % 2 == 0 ? 9u : 11u, 0});
    trace.push_back(a);
  }

  Controller ctl(cfg);
  reliability::ReliabilityManager rel(cfg, rc);
  ctl.attach_reliability(&rel);
  IntervalReporter iv(1'024);
  ctl.attach_telemetry(&iv);
  rel.set_event_observer(telemetry::make_interval_observer(iv));
  drive_fast(ctl, trace, 60'000);
  iv.finish();

  std::uint64_t maint_rows = 0, neighbor = 0;
  for (const auto& s : iv.samples()) {
    maint_rows += s.maint_rows;
    neighbor += s.neighbor_refreshes;
  }
  EXPECT_GT(maint_rows, 0u);
  EXPECT_GT(neighbor, 0u);
  EXPECT_EQ(maint_rows, rel.counters().maint_rows);
  EXPECT_EQ(neighbor, rel.counters().neighbor_rows);

  std::ostringstream os;
  iv.write_csv(os, cfg.clock);
  EXPECT_NE(os.str().find("maint_rows"), std::string::npos);
  EXPECT_NE(os.str().find("neighbor_refreshes"), std::string::npos);
}

TEST(IntervalReporter, SeriesSumsToControllerTotals) {
  const DramConfig cfg = dram::presets::edram_module(16, 128, 4, 2048);
  const std::vector<Arrival> trace = bursty_trace(cfg, 10, 400);
  Controller ctl(cfg);
  IntervalReporter iv(777);  // deliberately not a divisor of the window
  ctl.attach_telemetry(&iv);
  drive_per_cycle(ctl, trace, 15'000);
  iv.finish();

  std::uint64_t reads = 0, writes = 0, bytes = 0, refreshes = 0;
  for (const auto& s : iv.samples()) {
    reads += s.reads;
    writes += s.writes;
    bytes += s.bytes;
    refreshes += s.refreshes;
    EXPECT_EQ(s.end_cycle - s.start_cycle, s.cycles());
  }
  EXPECT_EQ(reads, ctl.stats().reads);
  EXPECT_EQ(writes, ctl.stats().writes);
  EXPECT_EQ(bytes, ctl.stats().bytes_transferred);
  EXPECT_EQ(refreshes, ctl.stats().refreshes);
  // Contiguous coverage of the run.
  for (std::size_t i = 1; i < iv.samples().size(); ++i) {
    EXPECT_EQ(iv.samples()[i].start_cycle, iv.samples()[i - 1].end_cycle);
  }
}

TEST(IntervalReporter, WritesCsvSeries) {
  const DramConfig cfg = dram::presets::edram_module(16, 128, 4, 2048);
  Controller ctl(cfg);
  IntervalReporter iv(256);
  ctl.attach_telemetry(&iv);
  drive_per_cycle(ctl, bursty_trace(cfg, 4, 300), 4'000);
  iv.finish();
  std::ostringstream os;
  iv.write_csv(os, cfg.clock);
  const std::string csv = os.str();
  EXPECT_NE(csv.find("bandwidth_gbyte_s"), std::string::npos);
  EXPECT_EQ(static_cast<std::size_t>(std::count(csv.begin(), csv.end(), '\n')),
            iv.samples().size() + 1);  // header + one row per interval
}

// ---------------------------------------------------------------------------
// FanoutHooks + system-level wiring

TEST(FanoutHooks, FeedsMultipleConsumersThroughMemorySystem) {
  const DramConfig cfg = dram::presets::edram_module(16, 128, 4, 2048);
  auto build = [&] {
    auto sys = std::make_unique<clients::MemorySystem>(
        cfg, clients::ArbiterKind::kRoundRobin);
    clients::StreamClient::Params p;
    p.base = 0;
    p.length = 1 << 18;
    p.burst_bytes = cfg.bytes_per_access();
    p.period_cycles = 64;
    sys->add_client(std::make_unique<clients::StreamClient>(0, "s", p));
    return sys;
  };

  auto on = build();
  std::ostringstream os;
  telemetry::ChromeTraceSink sink(os, cfg.clock);
  telemetry::RequestTracer tracer(sink);
  IntervalReporter iv(512);
  telemetry::FanoutHooks fan;
  fan.add(&tracer);
  fan.add(&iv);
  on->attach_telemetry(&fan);
  on->run(10'000);
  iv.finish();

  auto off = build();
  off->run(10'000);

  // Observer neutrality: attaching telemetry changes nothing simulated.
  EXPECT_EQ(on->controller().stats().reads, off->controller().stats().reads);
  EXPECT_EQ(on->controller().stats().cycles,
            off->controller().stats().cycles);
  EXPECT_GT(tracer.requests_traced(), 0u);
  ASSERT_GT(iv.samples().size(), 0u);
  std::uint64_t reads = 0;
  for (const auto& s : iv.samples()) reads += s.reads;
  EXPECT_EQ(reads, on->controller().stats().reads);
}

}  // namespace
}  // namespace edsim
