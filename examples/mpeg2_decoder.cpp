// The paper's §4.1 case study as an application: an MPEG2 MP@ML decoder's
// memory system on a 16-Mbit embedded DRAM. Prints the footprint budget
// (PAL and NTSC), the output-buffer trade-off, and a cycle-level
// simulation of the four decoder clients.
//
// Observability (see docs/observability.md):
//   --trace PATH           Chrome trace_event JSON of the run (Perfetto)
//   --trace-csv            write the trace as flat CSV instead of JSON
//   --intervals PATH       per-interval bandwidth/page-hit time series CSV
//   --interval-cycles N    interval length in DRAM cycles (default 10000)
//   --snapshot PATH        after the run, serialize the full simulator
//                          state (versioned, checksummed) to PATH
//   --restore PATH         before the run, restore state from PATH and
//                          continue — a restored run is bit-identical to
//                          one long uninterrupted run.
//
// A snapshot that cannot be read (corrupt, truncated, another version)
// prints "error: ..." to stderr and exits 1.

#include <cstdint>
#include <fstream>
#include <exception>
#include <iostream>
#include <iterator>
#include <memory>
#include <vector>

#include "clients/system.hpp"
#include "common/args.hpp"
#include "common/error.hpp"
#include "common/table.hpp"
#include "dram/presets.hpp"
#include "mpeg/trace_gen.hpp"
#include "telemetry/interval.hpp"
#include "telemetry/multi_hooks.hpp"
#include "telemetry/request_tracer.hpp"
#include "telemetry/trace.hpp"

namespace {

constexpr const char* kUsage =
    "usage: mpeg2_decoder [--trace <path>] [--trace-csv] [--intervals <path>]\n"
    "                     [--interval-cycles <n>]\n"
    "                     [--snapshot <path>] [--restore <path>]\n";

}  // namespace

int main(int argc, char** argv) try {
  using namespace edsim;

  const std::optional<Args> parsed = parse_command_line(
      argc, argv, "mpeg2_decoder", kUsage,
      {"trace", "trace-csv", "intervals", "interval-cycles", "snapshot",
       "restore"},
      {"trace-csv"});
  if (!parsed) return 2;
  const Args& args = *parsed;

  for (const mpeg::FrameFormat& fmt : {mpeg::pal(), mpeg::ntsc()}) {
    mpeg::DecoderConfig dc;
    dc.format = fmt;
    const mpeg::DecoderModel model(dc);

    Table t({"buffer", "size"});
    for (const auto& b : model.footprint())
      t.row().cell(b.name).cell(to_string(b.size));
    t.row().cell("TOTAL").cell(to_string(model.total_footprint()));
    t.print(std::cout, fmt.name + " decoder footprint (standard mode)");
    std::cout << "fits in 16 Mbit: " << (model.fits_16mbit() ? "yes" : "no")
              << "\n\n";
  }

  // The §4.1 trade-off: shrink the output buffer, pay MC bandwidth.
  mpeg::DecoderConfig std_cfg;
  std_cfg.format = mpeg::pal();
  mpeg::DecoderConfig red_cfg = std_cfg;
  red_cfg.reduced_output_buffer = true;
  const mpeg::DecoderModel std_model(std_cfg);
  const mpeg::DecoderModel red_model(red_cfg);
  std::cout << "Output-buffer reduction saves "
            << to_string(std_model.output_buffer_saving())
            << "; MC bandwidth grows "
            << Table::fmt(red_model.bandwidth()[1].read.bits_per_s /
                              std_model.bandwidth()[1].read.bits_per_s,
                          2)
            << "x\n\n";

  // Cycle-level: the four decoder clients on a 16-Mbit, 64-bit module.
  const dram::DramConfig cfg = dram::presets::edram_module(16, 64, 4, 2048);
  clients::MemorySystem sys(cfg, clients::ArbiterKind::kRoundRobin);
  const mpeg::MemoryMap map = std_model.build_memory_map();
  constexpr std::uint64_t kWindow = 1'000'000;  // ~7 ms of decode time
  mpeg::add_decoder_clients(sys, std_model, map);

  // Optional observability taps, fanned into the single controller probe.
  std::ofstream trace_out;
  std::unique_ptr<telemetry::TraceSink> sink;
  std::unique_ptr<telemetry::RequestTracer> tracer;
  std::ofstream intervals_out;
  std::unique_ptr<telemetry::IntervalReporter> intervals;
  telemetry::FanoutHooks fan;
  if (args.has("trace")) {
    trace_out.open(args.get("trace"));
    require(trace_out.is_open(),
            "cannot open trace output: " + args.get("trace"));
    if (args.has("trace-csv")) {
      sink = std::make_unique<telemetry::CsvTraceSink>(trace_out);
    } else {
      sink = std::make_unique<telemetry::ChromeTraceSink>(trace_out,
                                                          cfg.clock);
    }
    tracer = std::make_unique<telemetry::RequestTracer>(*sink);
    fan.add(tracer.get());
  }
  if (args.has("intervals")) {
    intervals_out.open(args.get("intervals"));
    require(intervals_out.is_open(),
            "cannot open interval output: " + args.get("intervals"));
    intervals = std::make_unique<telemetry::IntervalReporter>(
        args.get_u64("interval-cycles", 10'000));
    fan.add(intervals.get());
  }
  if (!fan.empty()) sys.attach_telemetry(&fan);

  if (args.has("restore")) {
    std::ifstream in(args.get("restore"), std::ios::binary);
    require(in.is_open(), "cannot open snapshot: " + args.get("restore"));
    const std::vector<std::uint8_t> blob(
        (std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
    sys.restore_snapshot(blob);
    std::cout << "restored " << blob.size() << " snapshot bytes (cycle "
              << sys.controller().cycle() << ") from " << args.get("restore")
              << "\n\n";
  }

  sys.run(kWindow);

  if (args.has("snapshot")) {
    const std::vector<std::uint8_t> blob = sys.save_snapshot();
    std::ofstream out(args.get("snapshot"), std::ios::binary);
    require(out.is_open(), "cannot open snapshot output: " + args.get("snapshot"));
    out.write(reinterpret_cast<const char*>(blob.data()),
              static_cast<std::streamsize>(blob.size()));
    require(out.good(), "short write: " + args.get("snapshot"));
    std::cout << "snapshot: " << blob.size() << " bytes (cycle "
              << sys.controller().cycle() << ") -> " << args.get("snapshot")
              << "\n";
  }

  if (intervals) {
    intervals->finish();
    if (sink) intervals->emit_counters(*sink, cfg.clock);
    intervals->write_csv(intervals_out, cfg.clock);
    std::cout << "interval series: " << intervals->samples().size()
              << " x " << intervals->interval_cycles() << " cycles -> "
              << args.get("intervals") << "\n";
  }
  if (sink) {
    sink->finish();
    std::cout << "trace: " << sink->events_emitted() << " events -> "
              << args.get("trace") << "\n";
  }

  Table t({"client", "bursts", "mean lat (cyc)", "stalls"});
  for (std::size_t i = 0; i < sys.client_count(); ++i) {
    const auto& cs = sys.client_stats(i);
    t.row()
        .cell(sys.client(i).name())
        .integer(static_cast<long long>(cs.completed))
        .num(cs.latency.mean(), 1)
        .integer(static_cast<long long>(cs.stall_cycles));
  }
  t.print(std::cout, "Decoder clients on " + cfg.describe());
  std::cout << "aggregate: " << to_string(sys.aggregate_bandwidth())
            << " of " << to_string(cfg.peak_bandwidth()) << " peak ("
            << Table::fmt(sys.bandwidth_efficiency() * 100.0, 1) << "%)\n";
  return 0;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << "\n";
  return 1;
}
