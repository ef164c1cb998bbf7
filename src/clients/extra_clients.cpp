#include "clients/extra_clients.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/snapshot.hpp"

namespace edsim::clients {

PointerChaseClient::PointerChaseClient(unsigned id, std::string name,
                                       const Params& p)
    : Client(id, std::move(name)), p_(p), rng_(p.seed) {
  require(p_.burst_bytes > 0, "pointer chase: burst_bytes must be > 0");
  require(p_.length >= p_.burst_bytes,
          "pointer chase: region shorter than one access");
}

std::uint64_t PointerChaseClient::next_request_cycle(std::uint64_t now) const {
  // While a load is outstanding the client is completion-blocked; the
  // memory system bounds that skip by the controller's in-flight events,
  // so "never" is safe here.
  if (finished() || outstanding_) return dram::kNeverCycle;
  return std::max(now, ready_at_);
}

dram::Request PointerChaseClient::make_request(std::uint64_t /*cycle*/) {
  dram::Request r;
  r.type = dram::AccessType::kRead;
  const std::uint64_t slots = p_.length / p_.burst_bytes;
  r.addr = p_.base + rng_.next_below(slots) * p_.burst_bytes;
  r.tag = issued_;
  ++issued_;
  outstanding_ = true;
  return r;
}

void PointerChaseClient::notify_complete(const dram::Request& /*req*/,
                                         std::uint64_t cycle) {
  outstanding_ = false;
  ready_at_ = cycle + p_.think_cycles;
}

bool PointerChaseClient::finished() const {
  return p_.total_requests != 0 && issued_ >= p_.total_requests &&
         !outstanding_;
}

void PointerChaseClient::save_state(SnapshotWriter& w) const {
  rng_.save(w);
  w.boolean(outstanding_);
  w.u64(ready_at_);
  w.u64(issued_);
}

void PointerChaseClient::load_state(SnapshotReader& r) {
  rng_.load(r);
  outstanding_ = r.boolean();
  ready_at_ = r.u64();
  issued_ = r.u64();
}

BurstyClient::BurstyClient(unsigned id, std::string name, const Params& p)
    : Client(id, std::move(name)), p_(p), rng_(p.seed),
      left_in_burst_(p.on_requests) {
  require(p_.burst_bytes > 0, "bursty: burst_bytes must be > 0");
  require(p_.length >= p_.burst_bytes, "bursty: region too small");
  require(p_.on_requests >= 1, "bursty: on_requests must be >= 1");
}

std::uint64_t BurstyClient::next_request_cycle(std::uint64_t now) const {
  if (finished()) return dram::kNeverCycle;
  return std::max(now, next_burst_at_);
}

dram::Request BurstyClient::make_request(std::uint64_t cycle) {
  dram::Request r;
  r.type = p_.type;
  r.addr = p_.base + pos_;
  r.tag = issued_;
  pos_ += p_.burst_bytes;
  if (pos_ + p_.burst_bytes > p_.length) pos_ = 0;
  ++issued_;
  if (--left_in_burst_ == 0) {
    left_in_burst_ = p_.on_requests;
    std::uint64_t gap = p_.off_cycles;
    if (p_.randomize_gap && p_.off_cycles > 0) {
      gap = std::max<std::uint64_t>(
          1, static_cast<std::uint64_t>(std::llround(
                 rng_.next_exponential(static_cast<double>(p_.off_cycles)))));
    }
    next_burst_at_ = cycle + gap;
  }
  return r;
}

bool BurstyClient::finished() const {
  return p_.total_requests != 0 && issued_ >= p_.total_requests;
}

void BurstyClient::save_state(SnapshotWriter& w) const {
  rng_.save(w);
  w.u64(pos_);
  w.u32(left_in_burst_);
  w.u64(next_burst_at_);
  w.u64(issued_);
}

void BurstyClient::load_state(SnapshotReader& r) {
  rng_.load(r);
  pos_ = r.u64();
  left_in_burst_ = r.u32();
  next_burst_at_ = r.u64();
  issued_ = r.u64();
}

}  // namespace edsim::clients
