#pragma once

#include <functional>

#include "reliability/manager.hpp"

namespace edsim::dram {
class CommandLog;
}

namespace edsim::telemetry {

class TraceSink;
class IntervalReporter;

/// Replay a captured CommandLog into a trace sink (instant events on the
/// command-bus track). Post-hoc alternative to attaching a RequestTracer
/// live; a ring-capped log replays only its retained window.
void export_command_log(const dram::CommandLog& log, TraceSink& sink,
                        unsigned process = 0);

/// Adapter for ReliabilityManager::set_event_observer: bins each event
/// into `reporter` by its exact cycle. Classification: inject -> injected;
/// demand/scrub correct + write repair -> corrected; uncorrectable ->
/// uncorrected; remap/retire -> remaps.
std::function<void(const reliability::ReliabilityEvent&)> make_interval_observer(
    IntervalReporter& reporter);

}  // namespace edsim::telemetry
