#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "dram/request.hpp"

namespace edsim::clients {

/// Statistics kept per memory client by the front end.
struct ClientStats {
  std::uint64_t issued = 0;
  std::uint64_t completed = 0;
  std::uint64_t bytes = 0;
  std::uint64_t stall_cycles = 0;  ///< had a request but could not enqueue
  std::uint64_t corrected_errors = 0;  ///< completions ECC repaired in flight
  std::uint64_t data_errors = 0;       ///< completions carrying corrupt data
  Accumulator latency;             ///< controller cycles, arrival -> done
  Accumulator outstanding;         ///< in-flight requests sampled per cycle
  SampleSet latency_samples;       ///< exact tail percentiles (p99 etc.)

  double mean_latency() const { return latency.mean(); }
  double p99_latency() const { return latency_samples.percentile(0.99); }

  void save(SnapshotWriter& w) const;
  void load(SnapshotReader& r);
};

/// A memory client: produces burst-granular requests at its own pace.
/// §4: "in practice several memory clients have to read and write data,
/// which introduces page misses and overhead" — this interface is how we
/// model those clients.
class Client {
 public:
  Client(unsigned id, std::string name) : id_(id), name_(std::move(name)) {}
  virtual ~Client() = default;

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  unsigned id() const { return id_; }
  const std::string& name() const { return name_; }

  /// Earliest cycle >= `now` at which the client can issue without any
  /// completion arriving first, or dram::kNeverCycle when it never will
  /// (finished, or blocked until a completion that the memory system
  /// tracks as a separate event). The one readiness query every client
  /// answers: the client is ready at `now` exactly when this returns
  /// `now`, and a wake-up past `now` promises no readiness before it.
  ///
  /// The readiness rules every client keeps:
  ///  - once ready it stays ready, at that and every later cycle, until it
  ///    is granted (make_request) or receives a completion
  ///    (notify_complete);
  ///  - a wake-up is exact: the client is ready at the returned cycle
  ///    unless a grant or a completion comes first;
  ///  - a completion can make ready only a client that reported
  ///    kNeverCycle (completion-blocked: it has requests in flight and is
  ///    not finished); every other client answers the same after a
  ///    completion as before it.
  /// The memory system counts on the first to credit a full-queue stretch
  /// as stalls without polling every cycle, on the second to cache each
  /// answer until the client's next grant or completion and leap over
  /// pacing gaps, and on the third to deliver completions at the next
  /// stretch boundary, each credited at its own cycle, instead of stopping
  /// at every retirement. PointerChaseClient is the client that relies on
  /// the completion-blocked case.
  virtual std::uint64_t next_request_cycle(std::uint64_t now) const = 0;

  /// Does the client want to issue a request at this cycle?
  bool has_request(std::uint64_t cycle) const {
    return next_request_cycle(cycle) == cycle;
  }

  /// Produce the request (only call when has_request is true). The front
  /// end fills in client_id. A client that is ready but not granted (a
  /// full queue or a lost arbitration) is not told; it stays ready.
  virtual dram::Request make_request(std::uint64_t cycle) = 0;

  /// A previously issued request completed.
  virtual void notify_complete(const dram::Request& /*req*/,
                               std::uint64_t /*cycle*/) {}

  /// True when the client has generated everything it ever will.
  virtual bool finished() const { return false; }

  /// Persist / restore the client's evolving registers (positions, pacing
  /// state, RNG streams). The kind and parameters come from the caller's
  /// reconstruction recipe — only what mutates during a run is stored.
  /// Stateless clients keep the no-op defaults.
  virtual void save_state(SnapshotWriter& /*w*/) const {}
  virtual void load_state(SnapshotReader& /*r*/) {}

 private:
  unsigned id_;
  std::string name_;
};

/// Round `v` down to a multiple of `a` (burst alignment).
inline std::uint64_t align_down(std::uint64_t v, std::uint64_t a) {
  return v - v % a;
}

/// A generator client with kAfterAccept pacing: it may issue once
/// `period_cycles` (0 counts as 1) have passed since its last accepted
/// request, from `start_cycle` on, until `total_requests` have been
/// issued (0 = endless). Subclasses supply only the address sequence,
/// which depends on the issue index alone, never on issue cycles — what
/// lets compile_paced capture it into an arena.
class PacedClient : public Client {
 public:
  std::uint64_t next_request_cycle(std::uint64_t now) const final;
  dram::Request make_request(std::uint64_t cycle) final {
    dram::Request r = next_access();
    r.tag = issued_++;
    next_allowed_ = cycle + gap_;
    return r;
  }
  bool finished() const final;
  /// The subclass position state first, then the two pacing registers.
  void save_state(SnapshotWriter& w) const final;
  void load_state(SnapshotReader& r) final;

  /// Minimum cycles between accepted requests (>= 1).
  std::uint64_t gap() const { return gap_; }
  std::uint64_t total_requests() const { return total_; }

 protected:
  PacedClient(unsigned id, std::string name, unsigned period_cycles,
              std::uint64_t total_requests, std::uint64_t start_cycle = 0);

  /// The next access (address and type) of the sequence, advancing the
  /// subclass position state; the base sets the tag and the pacing.
  virtual dram::Request next_access() = 0;
  virtual void save_position(SnapshotWriter& /*w*/) const {}
  virtual void load_position(SnapshotReader& /*r*/) {}

  /// Requests issued so far (the index of the next one).
  std::uint64_t issued() const { return issued_; }

 private:
  std::uint64_t gap_;
  std::uint64_t total_;
  std::uint64_t issued_ = 0;
  std::uint64_t next_allowed_;
};

/// Sequentially streaming client (frame scan-out, packet segment writes…).
/// Issues one burst every `period_cycles` (0 = as fast as possible) over
/// [base, base+length), optionally wrapping forever.
class StreamClient final : public PacedClient {
 public:
  struct Params {
    std::uint64_t base = 0;
    std::uint64_t length = 1 << 20;   ///< bytes
    unsigned burst_bytes = 32;        ///< must match controller granularity
    dram::AccessType type = dram::AccessType::kRead;
    unsigned period_cycles = 0;       ///< min cycles between requests
    std::uint64_t total_requests = 0; ///< 0 = endless (wraps)
    std::uint64_t start_cycle = 0;
  };

  StreamClient(unsigned id, std::string name, const Params& p);

 private:
  dram::Request next_access() override;
  void save_position(SnapshotWriter& w) const override;
  void load_position(SnapshotReader& r) override;

  Params p_;
  std::uint64_t pos_ = 0;      // byte offset within region
};

/// Strided client (column-order frame access, matrix transpose...).
class StridedClient final : public PacedClient {
 public:
  struct Params {
    std::uint64_t base = 0;
    std::uint64_t length = 1 << 20;
    unsigned burst_bytes = 32;
    std::uint64_t stride_bytes = 4096;
    dram::AccessType type = dram::AccessType::kRead;
    unsigned period_cycles = 0;
    std::uint64_t total_requests = 0;
  };

  StridedClient(unsigned id, std::string name, const Params& p);

 private:
  dram::Request next_access() override;
  void save_position(SnapshotWriter& w) const override;
  void load_position(SnapshotReader& r) override;

  Params p_;
  std::uint64_t offset_ = 0;   // current position
  std::uint64_t lane_ = 0;     // wrap count for stride phase
};

/// Uniform-random client (pointer chasing, table lookups) — the
/// page-miss generator.
class RandomClient final : public PacedClient {
 public:
  struct Params {
    std::uint64_t base = 0;
    std::uint64_t length = 1 << 20;
    unsigned burst_bytes = 32;
    double read_fraction = 0.7;
    unsigned period_cycles = 0;
    std::uint64_t total_requests = 0;
    std::uint64_t seed = 1;
  };

  RandomClient(unsigned id, std::string name, const Params& p);

 private:
  dram::Request next_access() override;
  void save_position(SnapshotWriter& w) const override;
  void load_position(SnapshotReader& r) override;

  Params p_;
  Rng rng_;
};

/// Replays an explicit trace (used by the MPEG2 decoder model).
struct TraceRecord {
  std::uint64_t cycle = 0;  ///< earliest issue cycle
  std::uint64_t addr = 0;
  dram::AccessType type = dram::AccessType::kRead;
};

class TraceClient final : public Client {
 public:
  TraceClient(unsigned id, std::string name, std::vector<TraceRecord> trace,
              unsigned burst_bytes);

  std::uint64_t next_request_cycle(std::uint64_t now) const override;
  dram::Request make_request(std::uint64_t cycle) override;
  bool finished() const override;
  void save_state(SnapshotWriter& w) const override;
  void load_state(SnapshotReader& r) override;

 private:
  std::vector<TraceRecord> trace_;
  unsigned burst_bytes_;
  std::size_t pos_ = 0;
};

}  // namespace edsim::clients
