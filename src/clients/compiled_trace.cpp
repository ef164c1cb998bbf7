#include "clients/compiled_trace.hpp"

#include <algorithm>
#include <cassert>

#include "common/error.hpp"
#include "common/hash.hpp"
#include "common/snapshot.hpp"
#include "common/varint.hpp"

namespace edsim::clients {

namespace {

constexpr std::uint8_t kFlagWrite = 0x01;
constexpr std::uint8_t kFlagPacingShift = 1;  // bits 1-2
constexpr std::uint8_t kFlagExplicitTag = 0x08;

}  // namespace

// --- CompiledTrace ----------------------------------------------------------

void CompiledTrace::Cursor::decode() {
  const std::uint8_t* data = t_->arena_.data();
  const std::size_t n = t_->arena_.size();
  assert(off_ < n);
  const std::uint8_t flags = data[off_++];
  rec_.type = (flags & kFlagWrite) ? dram::AccessType::kWrite
                                   : dram::AccessType::kRead;
  rec_.pacing = static_cast<PacingKind>((flags >> kFlagPacingShift) & 0x3u);
  rec_.param = 0;
  if (rec_.pacing != PacingKind::kImmediate) {
    [[maybe_unused]] const bool ok = decode_varint(data, n, off_, rec_.param);
    assert(ok);
    if (rec_.pacing == PacingKind::kAtCycle) {
      prev_cycle_ += rec_.param;  // delta -> absolute
      rec_.param = prev_cycle_;
    }
  }
  [[maybe_unused]] const bool addr_ok = decode_varint(data, n, off_, rec_.addr);
  assert(addr_ok);
  if (flags & kFlagExplicitTag) {
    [[maybe_unused]] const bool tag_ok = decode_varint(data, n, off_, rec_.tag);
    assert(tag_ok);
  } else {
    rec_.tag = idx_;
  }
}

std::vector<CompiledRecord> CompiledTrace::decode_all() const {
  std::vector<CompiledRecord> out;
  out.reserve(count_);
  for (Cursor c(*this); !c.at_end(); c.advance()) out.push_back(c.record());
  return out;
}

// --- CompiledTraceBuilder ---------------------------------------------------

CompiledTraceBuilder::CompiledTraceBuilder(std::uint64_t start_gate)
    : trace_(std::shared_ptr<CompiledTrace>(new CompiledTrace())) {
  trace_->start_gate_ = start_gate;
}

void CompiledTraceBuilder::reserve(std::size_t n) {
  // Typical record: 1 flags + 1-2 param + 2-5 addr bytes, no tag.
  trace_->arena_.reserve(n * 8);
}

void CompiledTraceBuilder::add(const CompiledRecord& r) {
  require(!built_, "compiled trace: builder already sealed");
  std::uint8_t flags = 0;
  if (r.type == dram::AccessType::kWrite) flags |= kFlagWrite;
  flags |= static_cast<std::uint8_t>(static_cast<std::uint8_t>(r.pacing)
                                     << kFlagPacingShift);
  const bool explicit_tag = r.tag != trace_->count_;
  if (explicit_tag) flags |= kFlagExplicitTag;
  trace_->arena_.push_back(flags);
  if (r.pacing != PacingKind::kImmediate) {
    std::uint64_t param = r.param;
    if (r.pacing == PacingKind::kAtCycle) {
      require(r.param >= prev_cycle_,
              "compiled trace: kAtCycle records must be cycle-ordered");
      param = r.param - prev_cycle_;
      prev_cycle_ = r.param;
    }
    encode_varint(trace_->arena_, param);
  }
  encode_varint(trace_->arena_, r.addr);
  if (explicit_tag) encode_varint(trace_->arena_, r.tag);
  ++trace_->count_;
}

std::shared_ptr<const CompiledTrace> CompiledTraceBuilder::build() {
  require(!built_, "compiled trace: builder already sealed");
  built_ = true;
  trace_->arena_.shrink_to_fit();
  ContentHasher h;
  h.mix(static_cast<std::uint64_t>(trace_->count_))
      .mix(trace_->start_gate_)
      .mix_bytes(trace_->arena_.data(), trace_->arena_.size());
  trace_->hash_ = h.digest();
  return std::const_pointer_cast<const CompiledTrace>(trace_);
}

// --- compilation ------------------------------------------------------------

std::shared_ptr<const CompiledTrace> compile_trace_records(
    const std::vector<TraceRecord>& records, unsigned burst_bytes) {
  require(burst_bytes > 0, "compile trace: burst_bytes must be > 0");
  CompiledTraceBuilder b;
  b.reserve(records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    const TraceRecord& t = records[i];
    CompiledRecord r;
    r.addr = align_down(t.addr, burst_bytes);  // the TraceClient contract
    r.type = t.type;
    r.tag = i;
    r.pacing = PacingKind::kAtCycle;
    r.param = t.cycle;
    b.add(r);
  }
  return b.build();
}

std::shared_ptr<const CompiledTrace> compile_stream(
    const StreamClient::Params& p, std::uint64_t max_requests) {
  return compile_paced<StreamClient>(p, max_requests);
}

std::shared_ptr<const CompiledTrace> compile_random(
    const RandomClient::Params& p, std::uint64_t max_requests) {
  return compile_paced<RandomClient>(p, max_requests);
}

std::uint64_t compile_key(const StreamClient::Params& p,
                          std::uint64_t max_requests) {
  ContentHasher h;
  h.mix(static_cast<std::uint64_t>(CompileKind::kStream))
      .mix(p.base)
      .mix(p.length)
      .mix(p.burst_bytes)
      .mix(p.type == dram::AccessType::kWrite)
      .mix(p.period_cycles)
      .mix(p.total_requests)
      .mix(p.start_cycle)
      .mix(max_requests);
  return h.digest();
}

std::uint64_t compile_key(const RandomClient::Params& p,
                          std::uint64_t max_requests) {
  ContentHasher h;
  h.mix(static_cast<std::uint64_t>(CompileKind::kRandom))
      .mix(p.base)
      .mix(p.length)
      .mix(p.burst_bytes)
      .mix(p.read_fraction)
      .mix(p.period_cycles)
      .mix(p.total_requests)
      .mix(p.seed)
      .mix(max_requests);
  return h.digest();
}

// --- ArenaReplayClient ------------------------------------------------------

ArenaReplayClient::ArenaReplayClient(unsigned id, std::string name,
                                     std::shared_ptr<const CompiledTrace> trace)
    : Client(id, std::move(name)),
      trace_(std::move(trace)),
      cursor_((require(trace_ != nullptr,
                       "arena replay client: null compiled trace"),
               *trace_)),
      gate_(trace_->start_gate()) {}

std::uint64_t ArenaReplayClient::next_request_cycle(std::uint64_t now) const {
  if (cursor_.at_end()) return dram::kNeverCycle;
  const CompiledRecord& r = cursor_.record();
  switch (r.pacing) {
    case PacingKind::kAtCycle: return std::max(now, r.param);
    case PacingKind::kAfterAccept: return std::max(now, gate_);
    case PacingKind::kPacedClock: return std::max(now, pclock_);
    case PacingKind::kImmediate: return now;
  }
  return now;
}

dram::Request ArenaReplayClient::make_request(std::uint64_t cycle) {
  const CompiledRecord& r = cursor_.record();
  dram::Request req;
  req.type = r.type;
  req.addr = r.addr;
  req.tag = r.tag;
  switch (r.pacing) {
    case PacingKind::kAtCycle:
    case PacingKind::kImmediate:
      break;
    case PacingKind::kAfterAccept:
      gate_ = cycle + r.param;
      break;
    case PacingKind::kPacedClock:
      pclock_ = std::max(pclock_ + r.param, cycle);
      break;
  }
  cursor_.advance();
  return req;
}

bool ArenaReplayClient::finished() const { return cursor_.at_end(); }

void ArenaReplayClient::save_state(SnapshotWriter& w) const {
  w.u64(trace_->content_hash());
  w.u64(cursor_.index());
  w.u64(gate_);
  w.u64(pclock_);
}

void ArenaReplayClient::load_state(SnapshotReader& r) {
  if (r.u64() != trace_->content_hash()) {
    r.fail("arena replay snapshot: compiled-trace content hash mismatch");
  }
  const std::uint64_t idx = r.u64();
  if (idx > trace_->size()) r.fail("arena replay cursor out of range");
  cursor_.rewind();
  for (std::uint64_t i = 0; i < idx; ++i) cursor_.advance();
  gate_ = r.u64();
  pclock_ = r.u64();
}

}  // namespace edsim::clients
