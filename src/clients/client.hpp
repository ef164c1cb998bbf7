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

  /// Does the client want to issue a request at this cycle?
  virtual bool has_request(std::uint64_t cycle) const = 0;

  /// Earliest cycle >= `now` at which has_request can become true without
  /// any completion arriving first, or dram::kNeverCycle when it never
  /// will (finished, or blocked until a completion that the memory system
  /// tracks as a separate event). Used by the fast-forward path to leap
  /// over pacing gaps; the conservative default disables skipping.
  virtual std::uint64_t next_request_cycle(std::uint64_t now) const {
    return now;
  }

  /// Dense-traffic hint: the largest n such that, starting at `now`, the
  /// client keeps a request pending every cycle until n of them have been
  /// accepted (dram::kNeverCycle = unbounded). Clients that claim n > 0
  /// promise readiness does not lapse mid-run and must keep the default
  /// (no-op) notify_rejected, so arbitration losses cannot perturb their
  /// pacing. The conservative default claims nothing, which disables the
  /// memory system's dense stretch for this client.
  virtual std::uint64_t pending_run_length(std::uint64_t /*now*/) const {
    return 0;
  }

  /// Produce the request (only call when has_request is true). The front
  /// end fills in client_id.
  virtual dram::Request make_request(std::uint64_t cycle) = 0;

  /// The front end failed to enqueue (controller queue full / lost
  /// arbitration). Default: nothing — the client retries next cycle.
  virtual void notify_rejected(std::uint64_t /*cycle*/) {}

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

/// Sequentially streaming client (frame scan-out, packet segment writes…).
/// Issues one burst every `period_cycles` (0 = as fast as possible) over
/// [base, base+length), optionally wrapping forever.
class StreamClient final : public Client {
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

  bool has_request(std::uint64_t cycle) const override;
  std::uint64_t next_request_cycle(std::uint64_t now) const override;
  std::uint64_t pending_run_length(std::uint64_t now) const override;
  dram::Request make_request(std::uint64_t cycle) override;
  bool finished() const override;
  void save_state(SnapshotWriter& w) const override;
  void load_state(SnapshotReader& r) override;

 private:
  Params p_;
  std::uint64_t pos_ = 0;      // byte offset within region
  std::uint64_t issued_ = 0;
  std::uint64_t next_allowed_ = 0;
};

/// Strided client (column-order frame access, matrix transpose...).
class StridedClient final : public Client {
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

  bool has_request(std::uint64_t cycle) const override;
  std::uint64_t next_request_cycle(std::uint64_t now) const override;
  std::uint64_t pending_run_length(std::uint64_t now) const override;
  dram::Request make_request(std::uint64_t cycle) override;
  bool finished() const override;
  void save_state(SnapshotWriter& w) const override;
  void load_state(SnapshotReader& r) override;

 private:
  Params p_;
  std::uint64_t offset_ = 0;   // current position
  std::uint64_t lane_ = 0;     // wrap count for stride phase
  std::uint64_t issued_ = 0;
  std::uint64_t next_allowed_ = 0;
};

/// Uniform-random client (pointer chasing, table lookups) — the
/// page-miss generator.
class RandomClient final : public Client {
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

  bool has_request(std::uint64_t cycle) const override;
  std::uint64_t next_request_cycle(std::uint64_t now) const override;
  std::uint64_t pending_run_length(std::uint64_t now) const override;
  dram::Request make_request(std::uint64_t cycle) override;
  bool finished() const override;
  void save_state(SnapshotWriter& w) const override;
  void load_state(SnapshotReader& r) override;

 private:
  Params p_;
  Rng rng_;
  std::uint64_t issued_ = 0;
  std::uint64_t next_allowed_ = 0;
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

  bool has_request(std::uint64_t cycle) const override;
  std::uint64_t next_request_cycle(std::uint64_t now) const override;
  std::uint64_t pending_run_length(std::uint64_t now) const override;
  dram::Request make_request(std::uint64_t cycle) override;
  bool finished() const override;
  void save_state(SnapshotWriter& w) const override;
  void load_state(SnapshotReader& r) override;

  std::size_t position() const { return pos_; }

 private:
  std::vector<TraceRecord> trace_;
  unsigned burst_bytes_;
  std::size_t pos_ = 0;
};

}  // namespace edsim::clients
