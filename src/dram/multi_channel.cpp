#include "dram/multi_channel.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace edsim::dram {

MultiChannel::MultiChannel(const DramConfig& per_channel, unsigned channels,
                           ChannelInterleave interleave)
    : cfg_(per_channel), interleave_(interleave) {
  cfg_.validate();
  require(channels >= 1 && channels <= 16,
          "multi-channel: channel count out of range");
  ctls_.reserve(channels);
  for (unsigned i = 0; i < channels; ++i)
    ctls_.push_back(std::make_unique<Controller>(cfg_));
  channel_bytes_ = cfg_.capacity().byte_count();
  switch (interleave_) {
    case ChannelInterleave::kBurst:
      stripe_bytes_ = cfg_.bytes_per_access();
      break;
    case ChannelInterleave::kPage:
      stripe_bytes_ = cfg_.page_bytes;
      break;
    case ChannelInterleave::kRegion:
      stripe_bytes_ = channel_bytes_;
      break;
  }
}

Capacity MultiChannel::capacity() const {
  return cfg_.capacity() * channels();
}

Bandwidth MultiChannel::peak_bandwidth() const {
  return Bandwidth{cfg_.peak_bandwidth().bits_per_s * channels()};
}

unsigned MultiChannel::route(std::uint64_t addr) const {
  const std::uint64_t total = channel_bytes_ * channels();
  const std::uint64_t a = addr % total;
  return static_cast<unsigned>((a / stripe_bytes_) % channels());
}

unsigned MultiChannel::effective_channel(std::uint64_t addr) const {
  const unsigned home = route(addr);
  if (!ctls_[home]->all_banks_retired()) return home;
  for (unsigned off = 1; off < channels(); ++off) {
    const unsigned c = (home + off) % channels();
    if (!ctls_[c]->all_banks_retired()) return c;
  }
  return home;  // every channel dead: let the home controller reject it
}

bool MultiChannel::enqueue(Request req) {
  Controller& ctl = *ctls_[effective_channel(req.addr)];
  // Strip the channel bits so each controller sees a dense local space:
  // global stripe index / channels -> local stripe index.
  const std::uint64_t total = channel_bytes_ * channels();
  const std::uint64_t a = req.addr % total;
  const std::uint64_t stripe = a / stripe_bytes_;
  const std::uint64_t local_stripe = stripe / channels();
  req.addr = local_stripe * stripe_bytes_ + a % stripe_bytes_;
  return ctl.enqueue(req);
}

bool MultiChannel::queue_full_for(std::uint64_t addr) const {
  return ctls_[effective_channel(addr)]->queue_full();
}

void MultiChannel::tick() {
  for (auto& c : ctls_) c->tick();
}

bool MultiChannel::idle() const {
  for (const auto& c : ctls_) {
    if (!c->idle()) return false;
  }
  return true;
}

std::vector<Request> MultiChannel::drain_completed() {
  std::vector<Request> out;
  for (auto& c : ctls_) {
    c->drain_completed_into(scratch_);
    out.insert(out.end(), scratch_.begin(), scratch_.end());
  }
  return out;
}

ControllerStats MultiChannel::combined_stats() const {
  ControllerStats sum;
  ReliabilityCounters& rsum = sum.reliability;
  for (const auto& c : ctls_) {
    const ControllerStats& s = c->stats();
    sum.cycles = std::max(sum.cycles, s.cycles);
    sum.reads += s.reads;
    sum.writes += s.writes;
    sum.row_hits += s.row_hits;
    sum.row_misses += s.row_misses;
    sum.row_conflicts += s.row_conflicts;
    sum.activations += s.activations;
    sum.precharges += s.precharges;
    sum.refreshes += s.refreshes;
    sum.data_bus_busy_cycles += s.data_bus_busy_cycles;
    sum.bytes_transferred += s.bytes_transferred;
    sum.powerdown_cycles += s.powerdown_cycles;
    sum.redirected_requests += s.redirected_requests;
    sum.watchdog_retries += s.watchdog_retries;
    sum.maintenance_ops += s.maintenance_ops;
    const ReliabilityCounters& r = s.reliability;
    rsum.injected += r.injected;
    rsum.corrected += r.corrected;
    rsum.uncorrected += r.uncorrected;
    rsum.remapped += r.remapped;
    rsum.demand_corrections += r.demand_corrections;
    rsum.scrub_corrections += r.scrub_corrections;
    rsum.write_repairs += r.write_repairs;
    rsum.uncorrectable_events += r.uncorrectable_events;
    rsum.rows_remapped += r.rows_remapped;
    rsum.banks_retired += r.banks_retired;
    rsum.scrubbed_rows += r.scrubbed_rows;
    rsum.maint_ops += r.maint_ops;
    rsum.maint_rows += r.maint_rows;
    rsum.neighbor_rows += r.neighbor_rows;
    rsum.disturb_flips += r.disturb_flips;
    sum.read_latency.merge(s.read_latency);
    sum.write_latency.merge(s.write_latency);
    sum.queue_occupancy.merge(s.queue_occupancy);
  }
  return sum;
}

Bandwidth MultiChannel::sustained_bandwidth() const {
  const ControllerStats s = combined_stats();
  if (s.cycles == 0) return Bandwidth{};
  const double seconds = static_cast<double>(s.cycles) / cfg_.clock.hz();
  return Bandwidth{static_cast<double>(s.bytes_transferred) * 8.0 / seconds};
}

}  // namespace edsim::dram
