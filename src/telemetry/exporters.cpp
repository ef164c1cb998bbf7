#include "telemetry/exporters.hpp"

#include "dram/command_log.hpp"
#include "telemetry/interval.hpp"
#include "telemetry/trace.hpp"

namespace edsim::telemetry {

namespace {
constexpr unsigned kCommandTrack = 0;
}  // namespace

void export_command_log(const dram::CommandLog& log, TraceSink& sink,
                        unsigned process) {
  sink.set_track_name(process, kCommandTrack, "command bus");
  for (const dram::CommandRecord& rec : log.records()) {
    TraceEvent ev;
    ev.phase = TraceEvent::Phase::kInstant;
    ev.category = "command";
    ev.process = process;
    ev.track = kCommandTrack;
    ev.name = dram::to_string(rec.cmd);
    ev.cycle = rec.cycle;
    ev.args = {arg_u64("bank", rec.bank)};
    if (rec.cmd == dram::Command::kActivate) {
      ev.args.push_back(arg_u64("row", rec.row));
    }
    if (rec.auto_precharge) ev.args.push_back(arg_str("ap", "1"));
    sink.emit(ev);
  }
}

std::function<void(const reliability::ReliabilityEvent&)>
make_interval_observer(IntervalReporter& reporter) {
  return [&reporter](const reliability::ReliabilityEvent& e) {
    using RC = IntervalReporter::ReliabilityClass;
    RC cls = RC::kInjected;
    std::uint64_t count = 1;
    switch (e.kind) {
      case reliability::EventKind::kInject:
        cls = RC::kInjected;
        break;
      case reliability::EventKind::kDemandCorrect:
      case reliability::EventKind::kScrubCorrect:
      case reliability::EventKind::kWriteRepair:
        cls = RC::kCorrected;
        break;
      case reliability::EventKind::kUncorrectable:
        cls = RC::kUncorrected;
        break;
      case reliability::EventKind::kRemap:
      case reliability::EventKind::kRetire:
        cls = RC::kRemap;
        break;
      case reliability::EventKind::kNeighborRefresh:
        cls = RC::kNeighbor;
        break;
      case reliability::EventKind::kBinSweep:
        // The sweep event's bit field carries the rows refreshed by the op.
        cls = RC::kMaintenance;
        count = e.bit ? e.bit : 1;
        break;
    }
    reporter.note_reliability_event(e.cycle, cls, count);
  };
}

}  // namespace edsim::telemetry
