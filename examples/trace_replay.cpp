// Replay a memory trace against a configurable channel and print the
// full statistics picture — the bread-and-butter workflow for a user
// bringing their own workload.
//
// Usage:
//   trace_replay [options] [trace-file]
//     --preset edram|sdram     base configuration (default edram)
//     --mbit N                 capacity in Mbit      (edram preset only)
//     --width BITS             interface width       (edram preset only)
//     --banks N --page BYTES   organization          (edram preset only)
//     --scheduler fcfs|frfcfs|readfirst
//     --policy open|closed
//     --binary PATH            also save the trace as binary .edtrc
//
// Input may be the text format (one record per line, `<cycle> <R|W>
// <address>`; '#' comments) or the binary `.edtrc` form — the loader
// auto-detects by magic. `--binary out.edtrc` converts the input and
// replays from the converted file, so the round trip is exercised in
// the same run. Without a file argument a built-in demo trace runs.

#include <fstream>
#include <iostream>
#include <memory>

#include "clients/compiled_trace.hpp"
#include "clients/system.hpp"
#include "clients/trace_io.hpp"
#include "common/args.hpp"
#include "common/table.hpp"
#include "dram/presets.hpp"
#include "dram/protocol_checker.hpp"

namespace {

constexpr const char* kUsage =
    "usage: trace_replay [--preset edram|sdram] [--mbit <n>] [--width <bits>]\n"
    "                    [--banks <n>] [--page <bytes>]\n"
    "                    [--scheduler fcfs|frfcfs|readfirst|tdm]\n"
    "                    [--policy open|closed] [--binary <path>]\n"
    "                    [trace-file]\n";

constexpr const char* kDemoTrace = R"(# demo: a scanout burst, a copy loop, then scattered lookups
0    R 0x0000
1    R 0x0080
2    R 0x0100
3    R 0x0180
40   R 0x10000
42   W 0x20000
44   R 0x10080
46   W 0x20080
48   R 0x10100
50   W 0x20100
200  R 0x84210
220  R 0x3F2A0
240  R 0x71000
260  R 0x05A80
)";

}  // namespace

int main(int argc, char** argv) try {
  using namespace edsim;
  const std::optional<Args> parsed = parse_command_line(
      argc, argv, "trace_replay", kUsage,
      {"preset", "mbit", "width", "banks", "page", "scheduler", "policy",
       "binary"},
      {}, /*max_positional=*/1);
  if (!parsed) return 2;
  const Args& args = *parsed;

  dram::DramConfig cfg;
  if (args.get("preset", "edram") == "sdram") {
    cfg = dram::presets::sdram_pc100_64mbit();
  } else {
    cfg = dram::presets::edram_module(
        static_cast<unsigned>(args.get_u64("mbit", 16)),
        static_cast<unsigned>(args.get_u64("width", 64)),
        static_cast<unsigned>(args.get_u64("banks", 4)),
        static_cast<unsigned>(args.get_u64("page", 2048)));
  }
  const std::string sched = args.get("scheduler", "frfcfs");
  cfg.scheduler = sched == "fcfs" ? dram::SchedulerKind::kFcfs
                  : sched == "readfirst" ? dram::SchedulerKind::kReadFirst
                  : sched == "tdm"       ? dram::SchedulerKind::kTdm
                                         : dram::SchedulerKind::kFrFcfs;
  cfg.page_policy = args.get("policy", "open") == "closed"
                        ? dram::PagePolicy::kClosed
                        : dram::PagePolicy::kOpen;
  // Parse + compile the workload once into a shared immutable arena; the
  // replay client walks it zero-copy. Text or .edtrc input both work.
  std::unique_ptr<clients::ArenaReplayClient> client;
  if (!args.positional().empty()) {
    std::string path = args.positional().front();
    if (args.has("binary")) {
      const std::string out = args.get("binary", "");
      clients::save_trace_file_binary(out, clients::load_trace_auto(path));
      std::cout << "converted " << path << " -> " << out << " (.edtrc)\n";
      path = out;
    }
    client = std::make_unique<clients::TraceFileClient>(
        0, "trace", path, cfg.bytes_per_access());
    std::cout << "loaded " << client->trace()->size() << " records from "
              << path << (clients::is_binary_trace_file(path) ? " (binary)"
                                                              : " (text)")
              << ", arena " << client->trace()->arena_bytes() << " bytes\n";
  } else {
    client = std::make_unique<clients::ArenaReplayClient>(
        0, "trace", clients::compile_trace_records(
                        clients::parse_trace_text(kDemoTrace),
                        cfg.bytes_per_access()));
    std::cout << "no trace file given; running the built-in demo ("
              << client->trace()->size() << " records)\n";
  }
  std::cout << "channel: " << cfg.describe() << "\n\n";

  clients::MemorySystem sys(cfg, clients::ArbiterKind::kRoundRobin);
  dram::CommandLog log;
  sys.controller().attach_command_log(&log);
  sys.add_client(std::move(client));
  sys.run_to_completion();

  const auto& st = sys.controller().stats();
  Table t({"metric", "value"});
  t.row().cell("cycles").integer(static_cast<long long>(st.cycles));
  t.row().cell("reads").integer(static_cast<long long>(st.reads));
  t.row().cell("writes").integer(static_cast<long long>(st.writes));
  t.row().cell("row hits").integer(static_cast<long long>(st.row_hits));
  t.row().cell("row misses").integer(static_cast<long long>(st.row_misses));
  t.row().cell("row conflicts").integer(
      static_cast<long long>(st.row_conflicts));
  t.row().cell("mean read latency (cyc)").num(st.read_latency.mean(), 1);
  t.row().cell("max read latency (cyc)").num(st.read_latency.max(), 0);
  t.row().cell("sustained").cell(
      to_string(st.sustained_bandwidth(cfg.clock)));
  t.print(std::cout, "Replay statistics");

  const auto violations = dram::ProtocolChecker(cfg).verify(log);
  std::cout << "protocol check: " << log.size() << " commands, "
            << violations.size() << " violations\n";
  for (const auto& v : violations) std::cout << "  " << v.describe() << "\n";
  return violations.empty() ? 0 : 1;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << "\n";
  return 2;
}
