#pragma once

#include <memory>
#include <string>
#include <vector>

#include "clients/arbiter.hpp"
#include "clients/client.hpp"
#include "clients/fifo_tracker.hpp"
#include "dram/controller.hpp"

namespace edsim::clients {

/// Front end tying N memory clients to one DRAM channel through an
/// arbiter: the complete "memory system" of the paper's §3/§4 discussion.
class MemorySystem {
 public:
  MemorySystem(const dram::DramConfig& cfg, ArbiterKind arbiter,
               std::vector<double> weights = {});

  /// Clients must be added before the first run() call.
  Client& add_client(std::unique_ptr<Client> client);

  /// Advance `cycles` controller cycles.
  void run(std::uint64_t cycles);

  /// Run until every client is finished and the channel drained, with a
  /// safety bound.
  void run_to_completion(std::uint64_t max_cycles = 50'000'000);

  dram::Controller& controller() { return controller_; }
  const dram::Controller& controller() const { return controller_; }

  std::size_t client_count() const { return clients_.size(); }
  const Client& client(std::size_t i) const { return *clients_[i]; }
  const ClientStats& client_stats(std::size_t i) const { return stats_[i]; }
  const FifoTracker& fifo(std::size_t i) const { return fifos_[i]; }

  /// Aggregate achieved bandwidth across all clients over the run window.
  Bandwidth aggregate_bandwidth() const;
  /// Achieved / peak.
  double bandwidth_efficiency() const;

  /// Disable/enable the event-driven fast path (on by default). The fast
  /// path is bit-identical to per-cycle stepping; turning it off exists
  /// for the equivalence tests and for debugging with per-cycle traces.
  void set_fast_forward(bool on) { fast_forward_ = on; }

  /// Disable/enable the resident front end for dense traffic (on by
  /// default; see dense_stretch). When the controller queue is full and
  /// every ready client promises persistent demand (pending_run_length),
  /// front-end steps between controller events are pure stall/sample
  /// bookkeeping: they are credited in bulk while the controller runs
  /// event to event through Controller::dense_advance. Bit-identical to
  /// per-cycle stepping; off is the differential reference for the
  /// equivalence and fuzz suites.
  void set_burst_issue(bool on) { burst_issue_ = on; }
  bool burst_issue() const { return burst_issue_; }

  /// Attach observability probes to the channel (nullptr detaches); see
  /// dram::Controller::attach_telemetry. The front end's bulk skips drive
  /// the same probe stream as per-cycle stepping.
  void attach_telemetry(dram::TelemetryHooks* hooks) {
    controller_.attach_telemetry(hooks);
  }

  /// Serialize the complete dynamic state — channel, arbiter, every
  /// client's generator registers, per-client stats / FIFO trackers /
  /// in-flight counts — into a sealed snapshot envelope ("EDSS" magic,
  /// version byte, payload checksum). Attached observers (command log,
  /// telemetry, reliability hooks) are NOT included: snapshot the
  /// ReliabilityManager alongside and re-attach live observers before
  /// restoring. Continuing from a restored snapshot is bit-identical to
  /// never having snapshotted.
  std::vector<std::uint8_t> save_snapshot() const;

  /// Restore from save_snapshot() output. The receiving system must be
  /// built from the same recipe (same DramConfig, arbiter kind/weights,
  /// client roster over the same compiled workloads); re-attach
  /// reliability hooks BEFORE calling this. Corrupt, truncated, or
  /// mismatched input throws Error{kSnapshotFormat} and never invokes
  /// undefined behaviour.
  void restore_snapshot(const std::uint8_t* data, std::size_t size);
  void restore_snapshot(const std::vector<std::uint8_t>& blob) {
    restore_snapshot(blob.data(), blob.size());
  }

  /// Unsealed variants for embedding this system in a larger snapshot
  /// stream (multi-system harnesses append their own sections).
  void save(SnapshotWriter& w) const;
  void load(SnapshotReader& r);

  /// Start a fresh measurement window at the current cycle: controller
  /// stats, per-client stats and FIFO peaks/occupancy reset; simulation
  /// state (queues, in-flight requests, client cursors) is untouched.
  /// The checkpoint-and-fan-out evaluator calls this after warm-up.
  void reset_measurement();

  /// Pause / resume every client (SMARTS-style sampling): while paused no
  /// client issues, so once in-flight traffic drains the event-driven fast
  /// path leaps over the stretch in one bulk credit. Completions still
  /// deliver and sampling still runs — pausing changes which requests
  /// exist, so it is a sampling approximation, not a bit-identical mode.
  void set_clients_paused(bool on) { clients_paused_ = on; }
  bool clients_paused() const { return clients_paused_; }

 private:
  void step();
  /// step()'s delivery block, shared with dense_stretch: drain retired
  /// requests and credit each to its client at `cycle`.
  void deliver_completions(std::uint64_t cycle);
  /// Fast-forward: if no client can issue, no completion is pending and
  /// the controller sees no event, bulk-credit the quiet stretch up to
  /// `end` (bit-identical to stepping through it cycle by cycle).
  void skip_quiet_stretch(std::uint64_t end);
  /// Dense traffic: the saturated dual of skip_quiet_stretch. While
  /// demand keeps the queue full, the loop executes each boundary cycle's
  /// step inline — delivery, then at most one arbitration grant — and
  /// bulk-credits the stall/sample-only cycles between controller events,
  /// never returning to per-cycle step() (bit-identical).
  void dense_stretch(std::uint64_t end);

  dram::Controller controller_;
  std::unique_ptr<Arbiter> arbiter_;
  std::vector<std::unique_ptr<Client>> clients_;
  std::vector<ClientStats> stats_;
  std::vector<FifoTracker> fifos_;
  std::vector<unsigned> outstanding_;  // in-flight per client
  std::vector<dram::Request> completed_scratch_;  // reused drain buffer
  std::vector<bool> ready_;                       // reused arbitration mask
  bool fast_forward_ = true;
  bool burst_issue_ = true;
  bool clients_paused_ = false;
};

}  // namespace edsim::clients
