#pragma once

#include <cstdint>
#include <memory>

#include "clients/compiled_trace.hpp"
#include "clients/system.hpp"
#include "clients/workload_cache.hpp"
#include "mpeg/decoder_model.hpp"

namespace edsim::mpeg {

/// Motion-compensation client: paced block reads. Each "prediction" is a
/// rectangular reference-block fetch — `rows_per_block` rows of
/// `bytes_per_row` at `pitch_bytes` spacing from a pseudo-random motion-
/// vector target — issued as one burst per row. This produces exactly the
/// scattered page behaviour that separates sustained from peak bandwidth.
class McClient final : public clients::Client {
 public:
  struct Params {
    std::uint64_t region_base = 0;
    std::uint64_t region_bytes = 1 << 20;
    std::uint64_t pitch_bytes = 720;   ///< frame line pitch
    unsigned rows_per_block = 17;
    unsigned bytes_per_row = 17;
    unsigned burst_bytes = 32;
    std::uint64_t block_period_cycles = 100;  ///< pacing per prediction
    std::uint64_t total_blocks = 0;           ///< 0 = endless
    std::uint64_t seed = 7;
  };

  McClient(unsigned id, const Params& p);

  /// `now` while a block is active (its rows issue back to back), else
  /// the paced start of the next block, or kNeverCycle once finished.
  std::uint64_t next_request_cycle(std::uint64_t now) const override;
  dram::Request make_request(std::uint64_t cycle) override;
  bool finished() const override;
  /// The block registers and the motion-vector RNG stream.
  void save_state(SnapshotWriter& w) const override;
  void load_state(SnapshotReader& r) override;

  std::uint64_t blocks_issued() const { return blocks_; }

 private:
  void start_block();

  Params p_;
  Rng rng_;
  std::uint64_t block_base_ = 0;
  unsigned row_in_block_ = 0;   ///< rows already issued of current block
  bool block_active_ = false;
  std::uint64_t next_block_cycle_ = 0;
  std::uint64_t blocks_ = 0;
};

/// Wire the four decoder memory clients (§4.1) into a memory system whose
/// channel hosts the decoder's memory map. Client pacing is derived from
/// the analytic bandwidth demands and the channel clock. Returns indices
/// of the added clients in the order: vbv, mc, reconstruction, display.
struct DecoderClientIds {
  std::size_t vbv = 0;
  std::size_t mc = 0;
  std::size_t reconstruction = 0;
  std::size_t display = 0;
};

DecoderClientIds add_decoder_clients(clients::MemorySystem& system,
                                     const DecoderModel& model,
                                     const MemoryMap& map);

/// The four decoder client parameter sets, derived once from the analytic
/// bandwidth demands, the channel clock, and the memory map — shared by
/// the live-generator path (`add_decoder_clients`) and the compiled
/// replay path so the two can never drift apart.
struct DecoderClientParams {
  clients::StreamClient::Params vbv;
  McClient::Params mc;
  clients::StreamClient::Params reconstruction;
  clients::StreamClient::Params display;
};

DecoderClientParams derive_decoder_client_params(unsigned burst_bytes,
                                                 Frequency clock,
                                                 const DecoderModel& model,
                                                 const MemoryMap& map);

/// Compile the motion-compensation client: drive a real McClient through
/// `max_blocks` prediction blocks (or `p.total_blocks` when finite),
/// recording one kPacedClock record per block start and kImmediate
/// records for the remaining rows — bit-identical replay of the paced
/// block fetch under any backpressure.
std::shared_ptr<const clients::CompiledTrace> compile_mc(
    const McClient::Params& p, std::uint64_t max_blocks = 0);

/// Content-hash key for `compile_mc` results (see clients::compile_key).
std::uint64_t compile_key(const McClient::Params& p, std::uint64_t max_blocks);

/// The compiled decoder workload: four shared arenas sized so that a
/// replay window of `window_cycles` can never exhaust them.
struct CompiledDecoderWorkload {
  std::shared_ptr<const clients::CompiledTrace> vbv;
  std::shared_ptr<const clients::CompiledTrace> mc;
  std::shared_ptr<const clients::CompiledTrace> reconstruction;
  std::shared_ptr<const clients::CompiledTrace> display;
};

/// Compile the §4.1 decoder client mix once for replay windows up to
/// `window_cycles`. When `cache` is non-null, arenas are shared through
/// it across calls/threads keyed by content hash.
CompiledDecoderWorkload compile_decoder_clients(
    unsigned burst_bytes, Frequency clock, const DecoderModel& model,
    const MemoryMap& map, std::uint64_t window_cycles,
    clients::WorkloadCache* cache = nullptr);

/// Drop-in replacement for `add_decoder_clients` that adds zero-copy
/// ArenaReplayClients over a compiled workload instead of live
/// generators. Controller stats are bit-identical to the generator path
/// for runs of at most `window_cycles` cycles.
DecoderClientIds add_compiled_decoder_clients(
    clients::MemorySystem& system, const DecoderModel& model,
    const MemoryMap& map, std::uint64_t window_cycles,
    clients::WorkloadCache* cache = nullptr);

}  // namespace edsim::mpeg
