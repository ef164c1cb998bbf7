#pragma once

#include "common/snapshot.hpp"
#include "core/evaluator.hpp"

namespace edsim::service {

/// Binary codec of the persistent result store's records: Metrics
/// encoded onto the common/snapshot envelope (varint integers, bit-exact
/// doubles). The decoder is fully bounds-checked through SnapshotReader —
/// malformed bytes produce a structured error, never undefined behaviour.
/// A round trip is bit-identical, which is what lets store hits stand in
/// for local evaluations.

void encode_metrics(SnapshotWriter& w, const core::Metrics& m);
core::Metrics decode_metrics(SnapshotReader& r);

}  // namespace edsim::service
