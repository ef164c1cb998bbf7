#include "clients/strided_gen.hpp"

#include "common/error.hpp"

namespace edsim::clients {

const char* to_string(StridePattern p) {
  switch (p) {
    case StridePattern::kRowMajor: return "row-major";
    case StridePattern::kColumnMajor: return "column-major";
    case StridePattern::kTiled: return "tiled";
  }
  return "?";
}

SimdStridedClient::SimdStridedClient(unsigned id, std::string name,
                                     const Params& p)
    : PacedClient(id, std::move(name), p.period_cycles, p.total_requests),
      p_(p) {
  require(p_.burst_bytes > 0, "simd strided client: burst_bytes must be > 0");
  require(p_.width_bytes > 0 && p_.height > 0,
          "simd strided client: surface must be non-empty");
  require(p_.width_bytes % p_.burst_bytes == 0,
          "simd strided client: burst must divide the surface width");
  if (p_.pitch_bytes == 0) p_.pitch_bytes = p_.width_bytes;
  require(p_.pitch_bytes >= p_.width_bytes,
          "simd strided client: pitch shorter than the surface width");
  if (p_.pattern == StridePattern::kTiled) {
    require(p_.tile_width_bytes > 0 && p_.tile_height > 0,
            "simd strided client: tiles must be non-empty");
    require(p_.tile_width_bytes % p_.burst_bytes == 0,
            "simd strided client: burst must divide the tile width");
    require(p_.width_bytes % p_.tile_width_bytes == 0,
            "simd strided client: tile width must divide the surface width");
    require(p_.height % p_.tile_height == 0,
            "simd strided client: tile height must divide the surface height");
  }
  per_pass_ = static_cast<std::uint64_t>(p_.width_bytes / p_.burst_bytes) *
              p_.height;
}

std::uint64_t SimdStridedClient::address_of(std::uint64_t index) const {
  const std::uint64_t k = index % per_pass_;
  const std::uint64_t bursts_per_row = p_.width_bytes / p_.burst_bytes;
  std::uint64_t row = 0;
  std::uint64_t col = 0;  // in bursts
  switch (p_.pattern) {
    case StridePattern::kRowMajor:
      row = k / bursts_per_row;
      col = k % bursts_per_row;
      break;
    case StridePattern::kColumnMajor:
      row = k % p_.height;
      col = k / p_.height;
      break;
    case StridePattern::kTiled: {
      const std::uint64_t tile_cols = p_.tile_width_bytes / p_.burst_bytes;
      const std::uint64_t bursts_per_tile = tile_cols * p_.tile_height;
      const std::uint64_t tiles_per_row = p_.width_bytes / p_.tile_width_bytes;
      const std::uint64_t tile = k / bursts_per_tile;
      const std::uint64_t within = k % bursts_per_tile;
      const std::uint64_t tile_row = tile / tiles_per_row;
      const std::uint64_t tile_col = tile % tiles_per_row;
      row = tile_row * p_.tile_height + within / tile_cols;
      col = tile_col * tile_cols + within % tile_cols;
      break;
    }
  }
  return p_.base + row * p_.pitch_bytes +
         col * static_cast<std::uint64_t>(p_.burst_bytes);
}

dram::Request SimdStridedClient::next_access() {
  dram::Request r;
  r.type = p_.type;
  r.addr = address_of(issued());
  return r;
}

}  // namespace edsim::clients
