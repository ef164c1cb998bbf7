#include "clients/client.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/snapshot.hpp"

namespace edsim::clients {

// --- ClientStats ------------------------------------------------------------

void ClientStats::save(SnapshotWriter& w) const {
  w.u64(issued);
  w.u64(completed);
  w.u64(bytes);
  w.u64(stall_cycles);
  w.u64(corrected_errors);
  w.u64(data_errors);
  latency.save(w);
  outstanding.save(w);
  latency_samples.save(w);
}

void ClientStats::load(SnapshotReader& r) {
  issued = r.u64();
  completed = r.u64();
  bytes = r.u64();
  stall_cycles = r.u64();
  corrected_errors = r.u64();
  data_errors = r.u64();
  latency.load(r);
  outstanding.load(r);
  latency_samples.load(r);
}

// --- PacedClient ------------------------------------------------------------

PacedClient::PacedClient(unsigned id, std::string name, unsigned period_cycles,
                         std::uint64_t total_requests,
                         std::uint64_t start_cycle)
    : Client(id, std::move(name)),
      gap_(period_cycles ? period_cycles : 1),
      total_(total_requests),
      next_allowed_(start_cycle) {}

std::uint64_t PacedClient::next_request_cycle(std::uint64_t now) const {
  if (finished()) return dram::kNeverCycle;
  return std::max(now, next_allowed_);
}

bool PacedClient::finished() const {
  return total_ != 0 && issued_ >= total_;
}

void PacedClient::save_state(SnapshotWriter& w) const {
  save_position(w);
  w.u64(issued_);
  w.u64(next_allowed_);
}

void PacedClient::load_state(SnapshotReader& r) {
  load_position(r);
  issued_ = r.u64();
  next_allowed_ = r.u64();
}

// --- StreamClient -----------------------------------------------------------

StreamClient::StreamClient(unsigned id, std::string name, const Params& p)
    : PacedClient(id, std::move(name), p.period_cycles, p.total_requests,
                  p.start_cycle),
      p_(p) {
  require(p_.burst_bytes > 0, "stream client: burst_bytes must be > 0");
  require(p_.length >= p_.burst_bytes,
          "stream client: region shorter than one burst");
}

dram::Request StreamClient::next_access() {
  dram::Request r;
  r.type = p_.type;
  r.addr = p_.base + pos_;
  pos_ += p_.burst_bytes;
  if (pos_ + p_.burst_bytes > p_.length) pos_ = 0;  // wrap
  return r;
}

void StreamClient::save_position(SnapshotWriter& w) const { w.u64(pos_); }

void StreamClient::load_position(SnapshotReader& r) { pos_ = r.u64(); }

// --- StridedClient -----------------------------------------------------------

StridedClient::StridedClient(unsigned id, std::string name, const Params& p)
    : PacedClient(id, std::move(name), p.period_cycles, p.total_requests),
      p_(p) {
  require(p_.burst_bytes > 0, "strided client: burst_bytes must be > 0");
  require(p_.stride_bytes >= p_.burst_bytes,
          "strided client: stride smaller than burst");
  require(p_.length >= p_.stride_bytes,
          "strided client: region shorter than one stride");
}

dram::Request StridedClient::next_access() {
  dram::Request r;
  r.type = p_.type;
  r.addr = p_.base + offset_;
  offset_ += p_.stride_bytes;
  if (offset_ + p_.burst_bytes > p_.length) {
    // Next pass starts one burst further into the stride (phase shift), so
    // the client eventually touches the whole region.
    ++lane_;
    offset_ = (lane_ * p_.burst_bytes) % p_.stride_bytes;
  }
  return r;
}

void StridedClient::save_position(SnapshotWriter& w) const {
  w.u64(offset_);
  w.u64(lane_);
}

void StridedClient::load_position(SnapshotReader& r) {
  offset_ = r.u64();
  lane_ = r.u64();
}

// --- RandomClient ------------------------------------------------------------

RandomClient::RandomClient(unsigned id, std::string name, const Params& p)
    : PacedClient(id, std::move(name), p.period_cycles, p.total_requests),
      p_(p),
      rng_(p.seed) {
  require(p_.burst_bytes > 0, "random client: burst_bytes must be > 0");
  require(p_.length >= p_.burst_bytes,
          "random client: region shorter than one burst");
  require(p_.read_fraction >= 0.0 && p_.read_fraction <= 1.0,
          "random client: read_fraction must be in [0,1]");
}

dram::Request RandomClient::next_access() {
  dram::Request r;
  r.type = rng_.next_bool(p_.read_fraction) ? dram::AccessType::kRead
                                            : dram::AccessType::kWrite;
  const std::uint64_t span = p_.length - p_.burst_bytes + 1;
  r.addr = p_.base + align_down(rng_.next_below(span), p_.burst_bytes);
  return r;
}

void RandomClient::save_position(SnapshotWriter& w) const { rng_.save(w); }

void RandomClient::load_position(SnapshotReader& r) { rng_.load(r); }

// --- TraceClient -------------------------------------------------------------

TraceClient::TraceClient(unsigned id, std::string name,
                         std::vector<TraceRecord> trace, unsigned burst_bytes)
    : Client(id, std::move(name)),
      trace_(std::move(trace)),
      burst_bytes_(burst_bytes) {
  require(burst_bytes_ > 0, "trace client: burst_bytes must be > 0");
  for (std::size_t i = 1; i < trace_.size(); ++i) {
    require(trace_[i].cycle >= trace_[i - 1].cycle,
            "trace client: records must be cycle-ordered");
  }
}

std::uint64_t TraceClient::next_request_cycle(std::uint64_t now) const {
  if (pos_ >= trace_.size()) return dram::kNeverCycle;
  return std::max(now, trace_[pos_].cycle);
}

dram::Request TraceClient::make_request(std::uint64_t /*cycle*/) {
  const TraceRecord& t = trace_[pos_++];
  dram::Request r;
  r.type = t.type;
  r.addr = align_down(t.addr, burst_bytes_);
  r.tag = pos_ - 1;
  return r;
}

bool TraceClient::finished() const { return pos_ >= trace_.size(); }

void TraceClient::save_state(SnapshotWriter& w) const { w.u64(pos_); }

void TraceClient::load_state(SnapshotReader& r) {
  const std::uint64_t pos = r.u64();
  if (pos > trace_.size()) r.fail("trace cursor out of range");
  pos_ = static_cast<std::size_t>(pos);
}

}  // namespace edsim::clients
