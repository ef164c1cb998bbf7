#pragma once

#include <cstdint>
#include <string>

#include "clients/client.hpp"

namespace edsim::clients {

/// How a SIMD-style client sweeps a 2-D surface (Sim-D's stride
/// generator): the three access orders that separate GPU/DSP kernels'
/// DRAM behaviour — row-major streams are page-friendly, column-major
/// sweeps are the page-miss worst case, tiled walks sit between.
enum class StridePattern : std::uint8_t {
  kRowMajor = 0,    ///< scanline order: bursts walk each surface row
  kColumnMajor = 1, ///< transpose order: one burst per row, column first
  kTiled = 2,       ///< tile-by-tile, row-major within each tile
};

const char* to_string(StridePattern p);

/// GPU/DSP workgroup access generator over a pitched 2-D surface.
/// The address sequence is a pure function of the issue index (never of
/// issue cycles), which is what makes the client compilable into an
/// arena (`compile_paced`) with bit-identical replay under any
/// backpressure.
class SimdStridedClient final : public PacedClient {
 public:
  struct Params {
    std::uint64_t base = 0;
    unsigned width_bytes = 4096;      ///< surface row length (payload)
    unsigned height = 64;             ///< surface rows
    unsigned pitch_bytes = 0;         ///< row-to-row distance; 0 = packed
    unsigned burst_bytes = 32;        ///< one access; must divide width
    unsigned tile_width_bytes = 256;  ///< kTiled: must divide width
    unsigned tile_height = 8;         ///< kTiled: must divide height
    StridePattern pattern = StridePattern::kRowMajor;
    dram::AccessType type = dram::AccessType::kRead;
    unsigned period_cycles = 0;       ///< min cycles between requests
    std::uint64_t total_requests = 0; ///< 0 = endless (re-sweeps forever)
  };

  SimdStridedClient(unsigned id, std::string name, const Params& p);

  /// Byte address of the index-th access (pure; exposed for tests).
  std::uint64_t address_of(std::uint64_t index) const;
  /// Accesses in one full sweep of the surface.
  std::uint64_t accesses_per_pass() const { return per_pass_; }

 private:
  /// The position is the issue index itself: no state of its own.
  dram::Request next_access() override;

  Params p_;
  std::uint64_t per_pass_ = 0;
};

}  // namespace edsim::clients
