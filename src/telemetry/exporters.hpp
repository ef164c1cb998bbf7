#pragma once

#include <functional>

#include "reliability/manager.hpp"

namespace edsim::telemetry {

class IntervalReporter;

/// Adapter for ReliabilityManager::set_event_observer: bins each event
/// into `reporter` by its exact cycle. Classification: inject -> injected;
/// demand/scrub correct + write repair -> corrected; uncorrectable ->
/// uncorrected; remap/retire -> remaps.
std::function<void(const reliability::ReliabilityEvent&)> make_interval_observer(
    IntervalReporter& reporter);

}  // namespace edsim::telemetry
