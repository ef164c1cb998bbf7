#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "clients/client.hpp"
#include "common/error.hpp"

namespace edsim::clients {

/// How a compiled record becomes eligible for issue, and what accepting
/// it does to the replay pacing state. Four kinds cover every generator
/// client in the tree:
///
/// * `kAtCycle`    — eligible at an absolute cycle (trace files; the
///                   `TraceClient` contract). No post-accept state.
/// * `kAfterAccept`— eligible when the *previous* accept is at least
///                   `param` cycles old (the `PacedClient` generators:
///                   `next_allowed = accept + gap`).
/// * `kPacedClock` — eligible when a free-running paced clock has
///                   matured; accepting advances it by
///                   `pclock = max(pclock + param, accept)` (the MPEG2
///                   motion-compensation block pacing).
/// * `kImmediate`  — always eligible once its predecessor issued
///                   (back-to-back rows inside an MC block fetch).
enum class PacingKind : std::uint8_t {
  kAtCycle = 0,
  kAfterAccept = 1,
  kPacedClock = 2,
  kImmediate = 3,
};

/// One decoded arena record. `param` is the absolute cycle (kAtCycle),
/// the post-accept gap (kAfterAccept), the paced-clock period
/// (kPacedClock), or unused (kImmediate).
struct CompiledRecord {
  std::uint64_t addr = 0;
  dram::AccessType type = dram::AccessType::kRead;
  std::uint64_t tag = 0;
  PacingKind pacing = PacingKind::kAtCycle;
  std::uint64_t param = 0;
};

/// A compiled workload: an immutable, shareable arena of varint/delta
/// encoded records. Compile once, replay from any number of clients,
/// sweep points, trials, and threads concurrently — the arena is never
/// written after `CompiledTraceBuilder::build()`, so sharing is free and
/// race-free by construction.
///
/// Arena layout (per record, byte-packed):
///
///     flags      1 byte   bit0 = write, bits1-2 = PacingKind,
///                          bit3 = explicit tag follows
///     param      varint   kAtCycle: delta from previous kAtCycle record
///                          kAfterAccept/kPacedClock: gap / period
///                          kImmediate: absent
///     addr       varint   absolute byte address
///     tag        varint   only when bit3 set; otherwise tag = index
class CompiledTrace {
 public:
  std::size_t size() const { return count_; }
  bool empty() const { return count_ == 0; }
  /// Initial `kAfterAccept` gate (e.g. `StreamClient::Params::start_cycle`).
  std::uint64_t start_gate() const { return start_gate_; }
  /// Bytes held by the encoded arena (diagnostics / cache accounting).
  std::size_t arena_bytes() const { return arena_.size(); }
  /// Hash of the full encoded content — stable across processes.
  std::uint64_t content_hash() const { return hash_; }

  /// Zero-copy streaming decoder over the arena. Cheap to construct and
  /// rewind; holds the current record decoded.
  class Cursor {
   public:
    explicit Cursor(const CompiledTrace& t) : t_(&t) { rewind(); }

    bool at_end() const { return idx_ >= t_->count_; }
    std::size_t index() const { return idx_; }
    /// Only valid when !at_end().
    const CompiledRecord& record() const { return rec_; }

    void advance() {
      ++idx_;
      if (idx_ < t_->count_) decode();
    }

    void rewind() {
      idx_ = 0;
      off_ = 0;
      prev_cycle_ = 0;
      if (t_->count_ > 0) decode();
    }

   private:
    void decode();

    const CompiledTrace* t_;
    std::size_t idx_ = 0;
    std::size_t off_ = 0;          // byte offset of the *next* undecoded record
    std::uint64_t prev_cycle_ = 0; // kAtCycle delta accumulator
    CompiledRecord rec_;
  };

  /// Decode the whole arena back to flat records (tests, exports).
  std::vector<CompiledRecord> decode_all() const;

 private:
  friend class CompiledTraceBuilder;
  CompiledTrace() = default;

  std::vector<std::uint8_t> arena_;
  std::size_t count_ = 0;
  std::uint64_t start_gate_ = 0;
  std::uint64_t hash_ = 0;
};

/// Builds a CompiledTrace append-only; `build()` seals it behind a
/// shared_ptr-to-const. kAtCycle records must be added in non-decreasing
/// cycle order (the delta encoding and the replay contract require it).
class CompiledTraceBuilder {
 public:
  explicit CompiledTraceBuilder(std::uint64_t start_gate = 0);

  /// Pre-size the arena for ~n records (kills element-by-element growth).
  void reserve(std::size_t n);

  void add(const CompiledRecord& r);
  std::size_t size() const { return trace_->count_; }

  std::shared_ptr<const CompiledTrace> build();

 private:
  std::shared_ptr<CompiledTrace> trace_;
  std::uint64_t prev_cycle_ = 0;
  bool built_ = false;
};

/// Compile an explicit trace (the text/binary file data model) into an
/// arena: kAtCycle pacing, addresses aligned down to `burst_bytes`, tag =
/// record index — exactly the `TraceClient` behaviour, so replay is
/// bit-identical to constructing a TraceClient from the same records.
std::shared_ptr<const CompiledTrace> compile_trace_records(
    const std::vector<TraceRecord>& records, unsigned burst_bytes);

/// Compile a paced generator client by driving a fresh instance built
/// from `p` and capturing its (address, type, tag) sequence — which depends only on
/// the issue index, never on issue cycles — with its kAfterAccept gap and
/// start gate. For an endless client (total_requests == 0)
/// `max_requests` bounds the compiled prefix and must be > 0; callers
/// replaying a window of W cycles need at least W / gap + 2 records for
/// the prefix to be inexhaustible within the window. Replay is then
/// bit-identical to the live client under any backpressure. The instance
/// is a local of its exact type, so its next_access binds statically.
template <typename ClientT>
std::shared_ptr<const CompiledTrace> compile_paced(
    const typename ClientT::Params& p, std::uint64_t max_requests) {
  static_assert(std::is_base_of_v<PacedClient, ClientT>);
  ClientT fresh(0, "compile", p);
  const std::uint64_t n = fresh.total_requests() != 0 ? fresh.total_requests()
                                                      : max_requests;
  require(n > 0,
          "compile client: endless params need a max_requests budget > 0");
  // A fresh client's first eligible cycle is its start gate.
  CompiledTraceBuilder b(fresh.next_request_cycle(0));
  b.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    const dram::Request req = fresh.make_request(0);
    CompiledRecord r;
    r.addr = req.addr;
    r.type = req.type;
    r.tag = req.tag;
    r.pacing = PacingKind::kAfterAccept;
    r.param = fresh.gap();
    b.add(r);
  }
  return b.build();
}

/// compile_paced over each paced generator.
std::shared_ptr<const CompiledTrace> compile_stream(
    const StreamClient::Params& p, std::uint64_t max_requests = 0);
std::shared_ptr<const CompiledTrace> compile_random(
    const RandomClient::Params& p, std::uint64_t max_requests = 0);

/// Client-kind discriminator mixed first into every compile_key, so two
/// client kinds never share a WorkloadCache key. The values are part of
/// the keys, so they stay fixed.
enum class CompileKind : std::uint64_t {
  kStream = 1,
  kRandom = 3,
  kMc = 4,
};

/// Content-hash keys for the compile results above (used by
/// WorkloadCache callers): two equal keys compile to identical arenas.
std::uint64_t compile_key(const StreamClient::Params& p,
                          std::uint64_t max_requests);
std::uint64_t compile_key(const RandomClient::Params& p,
                          std::uint64_t max_requests);

/// Replays a shared CompiledTrace arena. Zero-copy: any number of
/// ArenaReplayClients (across sweep points, trials, and threads) share
/// one immutable arena; per-client state is just a cursor plus two
/// pacing registers. Replay is bit-identical to the generating client
/// under any backpressure and in both per-cycle and fast-forward runs.
class ArenaReplayClient final : public Client {
 public:
  ArenaReplayClient(unsigned id, std::string name,
                    std::shared_ptr<const CompiledTrace> trace);

  std::uint64_t next_request_cycle(std::uint64_t now) const override;
  dram::Request make_request(std::uint64_t cycle) override;
  bool finished() const override;

  /// Snapshot state: the arena content hash (validated on load — the
  /// restore recipe must hand the client the same compiled workload),
  /// the cursor index (the seek re-decodes from the front; the arena is
  /// the source of truth) and the two pacing registers.
  void save_state(SnapshotWriter& w) const override;
  void load_state(SnapshotReader& r) override;

  const std::shared_ptr<const CompiledTrace>& trace() const { return trace_; }

 private:
  std::shared_ptr<const CompiledTrace> trace_;
  CompiledTrace::Cursor cursor_;
  std::uint64_t gate_ = 0;    // kAfterAccept state
  std::uint64_t pclock_ = 0;  // kPacedClock state
};

}  // namespace edsim::clients
