#include "telemetry/exporters.hpp"

#include "telemetry/interval.hpp"

namespace edsim::telemetry {

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
