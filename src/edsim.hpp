#pragma once

/// Umbrella header: the whole public API. Fine for applications; library
/// code should include the specific headers it uses.

// common
#include "common/error.hpp"     // IWYU pragma: export
#include "common/rng.hpp"       // IWYU pragma: export
#include "common/stats.hpp"     // IWYU pragma: export
#include "common/table.hpp"     // IWYU pragma: export
#include "common/units.hpp"     // IWYU pragma: export

// cycle-level DRAM channel
#include "dram/address_map.hpp"      // IWYU pragma: export
#include "dram/bank.hpp"             // IWYU pragma: export
#include "dram/command_log.hpp"      // IWYU pragma: export
#include "dram/config.hpp"           // IWYU pragma: export
#include "dram/controller.hpp"       // IWYU pragma: export
#include "dram/multi_channel.hpp"    // IWYU pragma: export
#include "dram/presets.hpp"          // IWYU pragma: export
#include "dram/protocol_checker.hpp" // IWYU pragma: export
#include "dram/refresh.hpp"          // IWYU pragma: export
#include "dram/request.hpp"          // IWYU pragma: export
#include "dram/scheduler.hpp"        // IWYU pragma: export
#include "dram/timing.hpp"           // IWYU pragma: export

// interface electricals and discrete-system composition
#include "phy/discrete_system.hpp"  // IWYU pragma: export
#include "phy/fill_frequency.hpp"   // IWYU pragma: export
#include "phy/interface_model.hpp"  // IWYU pragma: export

// power, thermal, retention, battery
#include "power/battery.hpp"       // IWYU pragma: export
#include "power/energy_model.hpp"  // IWYU pragma: export
#include "power/retention.hpp"     // IWYU pragma: export
#include "power/thermal.hpp"       // IWYU pragma: export

// memory clients and front ends
#include "clients/arbiter.hpp"       // IWYU pragma: export
#include "clients/client.hpp"        // IWYU pragma: export
#include "clients/extra_clients.hpp" // IWYU pragma: export
#include "clients/fifo_tracker.hpp"  // IWYU pragma: export
#include "clients/system.hpp"        // IWYU pragma: export
#include "clients/trace_io.hpp"      // IWYU pragma: export

// module compiler, floorplanning, SRAM partitioning
#include "modulegen/building_block.hpp"  // IWYU pragma: export
#include "modulegen/floorplan.hpp"       // IWYU pragma: export
#include "modulegen/module_compiler.hpp" // IWYU pragma: export
#include "modulegen/sram.hpp"            // IWYU pragma: export

// test/yield/quality substrate
#include "bist/bist_controller.hpp" // IWYU pragma: export
#include "bist/faults.hpp"          // IWYU pragma: export
#include "bist/march.hpp"           // IWYU pragma: export
#include "bist/memory_array.hpp"    // IWYU pragma: export
#include "bist/quality.hpp"         // IWYU pragma: export
#include "bist/redundancy.hpp"      // IWYU pragma: export
#include "bist/test_economics.hpp"  // IWYU pragma: export
#include "bist/yield.hpp"           // IWYU pragma: export

// MPEG2 decoder memory model
#include "mpeg/decoder_model.hpp"  // IWYU pragma: export
#include "mpeg/frame_geometry.hpp" // IWYU pragma: export
#include "mpeg/memory_map.hpp"     // IWYU pragma: export
#include "mpeg/trace_gen.hpp"      // IWYU pragma: export

// processor-memory gap
#include "cpu/cache.hpp"          // IWYU pragma: export
#include "cpu/core_model.hpp"     // IWYU pragma: export
#include "cpu/memory_backend.hpp" // IWYU pragma: export
#include "cpu/trend.hpp"          // IWYU pragma: export

// design-space explorer
#include "core/advisor.hpp"       // IWYU pragma: export
#include "core/allocation.hpp"    // IWYU pragma: export
#include "core/business.hpp"      // IWYU pragma: export
#include "core/cost_model.hpp"    // IWYU pragma: export
#include "core/evaluator.hpp"     // IWYU pragma: export
#include "core/pareto.hpp"        // IWYU pragma: export
#include "core/system_config.hpp" // IWYU pragma: export
