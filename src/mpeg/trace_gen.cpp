#include "mpeg/trace_gen.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/hash.hpp"
#include "common/snapshot.hpp"

namespace edsim::mpeg {

McClient::McClient(unsigned id, const Params& p)
    : Client(id, "motion_comp"), p_(p), rng_(p.seed) {
  require(p_.rows_per_block >= 1, "mc client: rows_per_block must be >= 1");
  require(p_.bytes_per_row >= 1, "mc client: bytes_per_row must be >= 1");
  require(p_.burst_bytes >= 1, "mc client: burst_bytes must be >= 1");
  require(p_.pitch_bytes >= p_.bytes_per_row,
          "mc client: pitch shorter than a block row");
  const std::uint64_t block_span =
      static_cast<std::uint64_t>(p_.rows_per_block) * p_.pitch_bytes;
  require(p_.region_bytes > block_span,
          "mc client: region too small for one block");
}

void McClient::start_block() {
  const std::uint64_t block_span =
      static_cast<std::uint64_t>(p_.rows_per_block) * p_.pitch_bytes;
  const std::uint64_t span = p_.region_bytes - block_span;
  block_base_ = p_.region_base + rng_.next_below(span);
  row_in_block_ = 0;
  block_active_ = true;
  ++blocks_;
}

std::uint64_t McClient::next_request_cycle(std::uint64_t now) const {
  if (block_active_) return now;  // finish the current block back-to-back
  if (finished()) return dram::kNeverCycle;
  return std::max(now, next_block_cycle_);
}

dram::Request McClient::make_request(std::uint64_t cycle) {
  if (!block_active_) {
    start_block();
    next_block_cycle_ =
        std::max(next_block_cycle_ + p_.block_period_cycles, cycle);
  }
  dram::Request r;
  r.type = dram::AccessType::kRead;
  const std::uint64_t row_addr =
      block_base_ + static_cast<std::uint64_t>(row_in_block_) * p_.pitch_bytes;
  r.addr = clients::align_down(row_addr, p_.burst_bytes);
  r.tag = blocks_;
  ++row_in_block_;
  if (row_in_block_ >= p_.rows_per_block) block_active_ = false;
  return r;
}

bool McClient::finished() const {
  return p_.total_blocks != 0 && blocks_ >= p_.total_blocks && !block_active_;
}

void McClient::save_state(SnapshotWriter& w) const {
  rng_.save(w);
  w.u64(block_base_);
  w.u32(row_in_block_);
  w.boolean(block_active_);
  w.u64(next_block_cycle_);
  w.u64(blocks_);
}

void McClient::load_state(SnapshotReader& r) {
  rng_.load(r);
  block_base_ = r.u64();
  row_in_block_ = r.u32();
  block_active_ = r.boolean();
  next_block_cycle_ = r.u64();
  blocks_ = r.u64();
}

namespace {

/// Cycles between bursts to sustain `bw` on a channel at `clock` with
/// `burst_bytes` per request (rounded down so the client can keep up).
std::uint64_t period_for(Bandwidth bw, Frequency clock, unsigned burst_bytes) {
  require(bw.bits_per_s > 0.0, "decoder clients: zero-bandwidth client");
  const double bytes_per_cycle = bw.bits_per_s / 8.0 / clock.hz();
  const double period = static_cast<double>(burst_bytes) / bytes_per_cycle;
  return std::max<std::uint64_t>(1, static_cast<std::uint64_t>(period));
}

}  // namespace

DecoderClientParams derive_decoder_client_params(unsigned burst_bytes,
                                                 Frequency clock,
                                                 const DecoderModel& model,
                                                 const MemoryMap& map) {
  const auto demands = model.bandwidth();
  require(demands.size() == 4, "decoder clients: unexpected demand count");

  const Region* vbv = map.find("vbv_input");
  const Region* ref0 = map.find("reference_0");
  const Region* ref1 = map.find("reference_1");
  const Region* out = map.find("output_conversion");
  require(vbv && ref0 && ref1 && out,
          "decoder clients: memory map missing decoder regions");

  DecoderClientParams cp;

  // VBV: modelled as a write stream at the full in+out rate (the read
  // side is tiny and strictly sequential; folding it keeps one client).
  cp.vbv.base = vbv->base;
  cp.vbv.length = vbv->bytes;
  cp.vbv.burst_bytes = burst_bytes;
  cp.vbv.type = dram::AccessType::kWrite;
  cp.vbv.period_cycles = static_cast<unsigned>(
      period_for(demands[0].total(), clock, burst_bytes));

  // Motion compensation: block reads over both reference frames.
  cp.mc.region_base = ref0->base;
  cp.mc.region_bytes = ref1->end() - ref0->base;
  cp.mc.pitch_bytes = model.config().format.width;
  cp.mc.rows_per_block = 17;
  cp.mc.bytes_per_row = 17;
  cp.mc.burst_bytes = burst_bytes;
  // Pace blocks so MC's *useful* rate matches the analytic demand:
  // each block moves rows_per_block bursts.
  const double preds_per_s =
      static_cast<double>(model.config().format.macroblocks()) *
      model.config().format.fps * model.predictions_per_macroblock();
  const double cycles_per_block = clock.hz() / preds_per_s;
  cp.mc.block_period_cycles =
      std::max<std::uint64_t>(1, static_cast<std::uint64_t>(cycles_per_block));

  // Reconstruction: sequential writes of decoded pictures.
  cp.reconstruction.base = ref0->base;
  cp.reconstruction.length = ref1->end() - ref0->base;
  cp.reconstruction.burst_bytes = burst_bytes;
  cp.reconstruction.type = dram::AccessType::kWrite;
  cp.reconstruction.period_cycles = static_cast<unsigned>(
      period_for(demands[2].total(), clock, burst_bytes));

  // Display: sequential reads from the output-conversion buffer.
  cp.display.base = out->base;
  cp.display.length = out->bytes;
  cp.display.burst_bytes = burst_bytes;
  cp.display.type = dram::AccessType::kRead;
  cp.display.period_cycles = static_cast<unsigned>(
      period_for(demands[3].total(), clock, burst_bytes));

  return cp;
}

DecoderClientIds add_decoder_clients(clients::MemorySystem& system,
                                     const DecoderModel& model,
                                     const MemoryMap& map) {
  const auto& cfg = system.controller().config();
  const DecoderClientParams cp =
      derive_decoder_client_params(cfg.bytes_per_access(), cfg.clock, model,
                                   map);

  DecoderClientIds ids;
  unsigned next_id = static_cast<unsigned>(system.client_count());

  ids.vbv = system.client_count();
  system.add_client(std::make_unique<clients::StreamClient>(
      next_id++, "vbv_input", cp.vbv));

  ids.mc = system.client_count();
  system.add_client(std::make_unique<McClient>(next_id++, cp.mc));

  ids.reconstruction = system.client_count();
  system.add_client(std::make_unique<clients::StreamClient>(
      next_id++, "reconstruction", cp.reconstruction));

  ids.display = system.client_count();
  system.add_client(std::make_unique<clients::StreamClient>(
      next_id++, "display", cp.display));

  return ids;
}

std::shared_ptr<const clients::CompiledTrace> compile_mc(
    const McClient::Params& p, std::uint64_t max_blocks) {
  const std::uint64_t blocks = p.total_blocks != 0 ? p.total_blocks
                                                   : max_blocks;
  require(blocks > 0, "compile mc: endless params need a max_blocks budget");
  McClient source(0, p);
  clients::CompiledTraceBuilder b;
  b.reserve(blocks * p.rows_per_block);
  for (std::uint64_t blk = 0; blk < blocks; ++blk) {
    for (unsigned row = 0; row < p.rows_per_block; ++row) {
      // The address/tag sequence depends only on the per-block RNG draws,
      // never on issue cycles, so driving the client at cycle 0 captures
      // the exact sequence the live client would produce.
      const dram::Request req = source.make_request(0);
      clients::CompiledRecord r;
      r.addr = req.addr;
      r.type = req.type;
      r.tag = req.tag;  // = 1-based block number, constant across rows
      if (row == 0) {
        r.pacing = clients::PacingKind::kPacedClock;
        r.param = p.block_period_cycles;
      } else {
        r.pacing = clients::PacingKind::kImmediate;
      }
      b.add(r);
    }
  }
  return b.build();
}

std::uint64_t compile_key(const McClient::Params& p, std::uint64_t max_blocks) {
  ContentHasher h;
  h.mix(static_cast<std::uint64_t>(clients::CompileKind::kMc))
      .mix(p.region_base)
      .mix(p.region_bytes)
      .mix(p.pitch_bytes)
      .mix(p.rows_per_block)
      .mix(p.bytes_per_row)
      .mix(p.burst_bytes)
      .mix(p.block_period_cycles)
      .mix(p.total_blocks)
      .mix(p.seed)
      .mix(max_blocks);
  return h.digest();
}

namespace {

/// A client accepting at least `gap` apart issues at most W/gap + 1
/// requests in a window of W cycles; +1 more makes the compiled prefix
/// provably inexhaustible within the window.
std::uint64_t budget_for(std::uint64_t window_cycles, std::uint64_t gap) {
  return window_cycles / std::max<std::uint64_t>(1, gap) + 2;
}

std::shared_ptr<const clients::CompiledTrace> through_cache(
    clients::WorkloadCache* cache, std::uint64_t key,
    const clients::WorkloadCache::CompileFn& compile) {
  return cache ? cache->get_or_compile(key, compile) : compile();
}

}  // namespace

CompiledDecoderWorkload compile_decoder_clients(
    unsigned burst_bytes, Frequency clock, const DecoderModel& model,
    const MemoryMap& map, std::uint64_t window_cycles,
    clients::WorkloadCache* cache) {
  const DecoderClientParams cp =
      derive_decoder_client_params(burst_bytes, clock, model, map);

  CompiledDecoderWorkload w;
  const std::uint64_t vbv_n = budget_for(window_cycles, cp.vbv.period_cycles);
  w.vbv = through_cache(cache, clients::compile_key(cp.vbv, vbv_n),
                        [&] { return clients::compile_stream(cp.vbv, vbv_n); });
  const std::uint64_t mc_n =
      budget_for(window_cycles, cp.mc.block_period_cycles);
  w.mc = through_cache(cache, compile_key(cp.mc, mc_n),
                       [&] { return compile_mc(cp.mc, mc_n); });
  const std::uint64_t rec_n =
      budget_for(window_cycles, cp.reconstruction.period_cycles);
  w.reconstruction =
      through_cache(cache, clients::compile_key(cp.reconstruction, rec_n), [&] {
        return clients::compile_stream(cp.reconstruction, rec_n);
      });
  const std::uint64_t dis_n =
      budget_for(window_cycles, cp.display.period_cycles);
  w.display =
      through_cache(cache, clients::compile_key(cp.display, dis_n), [&] {
        return clients::compile_stream(cp.display, dis_n);
      });
  return w;
}

DecoderClientIds add_compiled_decoder_clients(
    clients::MemorySystem& system, const DecoderModel& model,
    const MemoryMap& map, std::uint64_t window_cycles,
    clients::WorkloadCache* cache) {
  const auto& cfg = system.controller().config();
  const CompiledDecoderWorkload w = compile_decoder_clients(
      cfg.bytes_per_access(), cfg.clock, model, map, window_cycles, cache);

  DecoderClientIds ids;
  unsigned next_id = static_cast<unsigned>(system.client_count());

  ids.vbv = system.client_count();
  system.add_client(std::make_unique<clients::ArenaReplayClient>(
      next_id++, "vbv_input", w.vbv));

  ids.mc = system.client_count();
  system.add_client(std::make_unique<clients::ArenaReplayClient>(
      next_id++, "motion_comp", w.mc));

  ids.reconstruction = system.client_count();
  system.add_client(std::make_unique<clients::ArenaReplayClient>(
      next_id++, "reconstruction", w.reconstruction));

  ids.display = system.client_count();
  system.add_client(std::make_unique<clients::ArenaReplayClient>(
      next_id++, "display", w.display));

  return ids;
}

}  // namespace edsim::mpeg
