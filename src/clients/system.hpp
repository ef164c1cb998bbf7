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

  /// Disable/enable the event-driven fast path for quiet stretches (on by
  /// default; the quiet half of stretch()). While no client is ready, the
  /// front end stops only at its own events — a client wake-up or a
  /// retirement to deliver — and the controller runs event to event in
  /// between. Bit-identical to per-cycle stepping; turning it off exists
  /// for the equivalence tests and for debugging with per-cycle traces.
  void set_fast_forward(bool on) { fast_forward_ = on; }

  /// Disable/enable the resident front end for dense traffic (on by
  /// default; the dense half of stretch()). When the controller queue is
  /// full and every ready client promises persistent demand
  /// (pending_run_length), front-end steps between controller events are
  /// pure stall/sample bookkeeping: they are credited in bulk while the
  /// controller runs event to event through Controller::dense_advance.
  /// Bit-identical to per-cycle stepping; off is the differential
  /// reference for the equivalence and fuzz suites.
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

 private:
  void step();
  /// step()'s grant: client `win` issues its request at `cycle`.
  void grant(std::size_t win, std::uint64_t cycle);
  /// step()'s delivery block, shared with stretch(): drain retired
  /// requests and credit each to its client at `cycle`.
  void deliver_completions(std::uint64_t cycle);
  /// Every client finished and the channel idle.
  bool all_done() const;
  /// The front end between its own events (bit-identical to per-cycle
  /// stepping). Each pass executes one boundary cycle inline — delivery,
  /// the client scan, at most one grant — then runs the controller event
  /// to event (Controller::dense_advance) and bulk-credits the covered
  /// sample/stall-only cycles:
  ///  - quiet (no client ready; gated by set_fast_forward): up to the
  ///    first client wake or retirement — controller events in between
  ///    (ACT, PRE, column issue, refresh, maintenance, power-down) do
  ///    not stop it;
  ///  - dense (ready clients with a claim and a full or topped-off queue;
  ///    gated by set_burst_issue): up to the first freed slot or
  ///    retirement.
  /// Returns to step() for anything else: a ready client without a
  /// claim, a conservative client, a grant that leaves the queue short,
  /// `end`, or — with `stop_when_done` — a finished system, whose last
  /// step run_to_completion executes itself, or an idle channel with a
  /// delivery pending, which may finish it (step() delivers it).
  void stretch(std::uint64_t end, bool stop_when_done);

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
};

}  // namespace edsim::clients
