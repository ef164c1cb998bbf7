#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "common/stats.hpp"
#include "dram/address_map.hpp"
#include "dram/bank.hpp"
#include "dram/command_log.hpp"
#include "dram/config.hpp"
#include "dram/refresh.hpp"
#include "dram/reliability_hooks.hpp"
#include "dram/request.hpp"
#include "dram/scheduler.hpp"
#include "dram/telemetry_hooks.hpp"

namespace edsim::dram {

/// Aggregate statistics snapshot for one channel.
struct ControllerStats {
  std::uint64_t cycles = 0;
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t row_hits = 0;       ///< request served from an open row
  std::uint64_t row_misses = 0;     ///< bank was idle, ACT needed
  std::uint64_t row_conflicts = 0;  ///< another row open, PRE+ACT needed
  std::uint64_t activations = 0;
  std::uint64_t precharges = 0;
  std::uint64_t refreshes = 0;
  std::uint64_t data_bus_busy_cycles = 0;
  std::uint64_t bytes_transferred = 0;
  std::uint64_t powerdown_cycles = 0;  ///< cycles spent in power-down
  std::uint64_t redirected_requests = 0;  ///< steered around retired banks
  std::uint64_t watchdog_retries = 0;     ///< starvation escalations fired
  std::uint64_t maintenance_ops = 0;      ///< self-managed slots claimed
  ReliabilityCounters reliability;        ///< mirrored from attached hooks
  Accumulator read_latency;   ///< cycles, arrival -> last beat
  Accumulator write_latency;
  Accumulator queue_occupancy;

  double row_hit_rate() const {
    const auto total = row_hits + row_misses + row_conflicts;
    return total ? static_cast<double>(row_hits) / static_cast<double>(total)
                 : 0.0;
  }
  double data_bus_utilization() const {
    return cycles ? static_cast<double>(data_bus_busy_cycles) /
                        static_cast<double>(cycles)
                  : 0.0;
  }
  double powerdown_fraction() const {
    return cycles ? static_cast<double>(powerdown_cycles) /
                        static_cast<double>(cycles)
                  : 0.0;
  }
  /// Sustained bandwidth over the measured window.
  Bandwidth sustained_bandwidth(Frequency clock) const {
    if (cycles == 0) return Bandwidth{};
    const double seconds = static_cast<double>(cycles) / clock.hz();
    return Bandwidth{static_cast<double>(bytes_transferred) * 8.0 / seconds};
  }
};

/// Cycle-accurate single-channel DRAM controller + device model.
///
/// Drive it with `enqueue` and `tick`; collect finished requests with
/// `drain_completed`. One command per cycle on the command bus; the data
/// bus is tracked separately with read/write turnaround penalties. The
/// scheduling round, the next-event bound and the bank queries read
/// queue-position bitmasks kept beside the queue, never the queue itself.
class Controller {
 public:
  explicit Controller(const DramConfig& cfg);

  Controller(const Controller&) = delete;
  Controller& operator=(const Controller&) = delete;

  /// Try to accept a request; returns false when the queue is full (the
  /// client must retry — this back-pressure is what the FIFO-depth
  /// analysis in clients/ measures).
  bool enqueue(Request req);

  bool queue_full() const { return queue_.size() >= cfg_.queue_depth; }
  std::size_t queue_size() const { return queue_.size(); }

  /// Advance one DRAM clock. Returns true when the scheduler issued a
  /// command from the queue this cycle.
  bool tick();

  /// Event-driven fast-forward: advance to `target_cycle` with results
  /// bit-identical to calling tick() in a loop. The controller always
  /// executes one real tick (settling scheduler hysteresis and power-down
  /// transitions), then bulk-credits the stretch up to the next event via
  /// advance_idle(). No requests may be enqueued while this runs — the
  /// caller leaps over dead time between its own arrivals.
  void tick_until(std::uint64_t target_cycle);

  /// Dense-traffic companion to tick_until: advance bit-identically, but
  /// return as soon as a front-end-visible event has executed — a queue
  /// slot freed (column issue or invalidation), or, when `watch_retire`,
  /// a request retired into the completed list — stopping at the cycle
  /// right after it, never past `bound`. The caller bulk-credits the
  /// covered stretch knowing no grant opportunity (and, when watching, no
  /// pending delivery) hides inside it.
  ///
  /// A caller that does not watch retirements makes them non-events: the
  /// controller neither stops nor ticks at a data-done cycle that nothing
  /// else needs (lazy retirement). A request whose data has finished then
  /// retires at the next real tick, or at the latest when the completed
  /// list is drained, in done order, ties in issue order — the order and
  /// the statistics per-cycle ticking produces. Attached telemetry watches
  /// every retirement, and on a power-managed channel with an empty queue
  /// the last data-done cycle stays an event (it ends the busy streak).
  void dense_advance(std::uint64_t bound, bool watch_retire);

  /// Quiet-stretch companion (no request is about to be enqueued): skip to
  /// the next event, then advance as dense_advance does, stopping only at a
  /// retirement when `watch_retire` (freed queue slots are not stops), and
  /// never past `bound`.
  void quiet_advance(std::uint64_t bound, bool watch_retire);

  /// Earliest cycle >= cycle() at which tick() might do more than
  /// bookkeeping: min over in-flight completions, bank-timing releases of
  /// queued requests, refresh urgency, pending auto-precharges, page-
  /// timeout closes, watchdog deadlines, and power-down entry/exit.
  /// Returns kNeverCycle when nothing is pending at all. Conservative:
  /// may return a cycle whose tick turns out to be quiet (never the
  /// reverse), so callers skip at most to the returned cycle.
  std::uint64_t next_event_cycle() const;

  /// Credit `count` quiet cycles in bulk — exactly what `count` bookkeeping
  /// ticks would have recorded (queue-occupancy samples, power-down cycles,
  /// reliability hook clocks). Only legal when next_event_cycle() >
  /// cycle() + count - 1; tick_until and the client systems guarantee that.
  void advance_idle(std::uint64_t count);

  /// Requests whose last data beat completed before cycle() since the
  /// previous drain (lazily skipped retirements included). Order is
  /// completion order.
  std::vector<Request> drain_completed();

  /// Allocation-free variant: clears `out` and moves the completed
  /// requests into it, reusing its capacity across calls.
  void drain_completed_into(std::vector<Request>& out);

  /// True when completed requests are waiting to be drained.
  bool has_completions() const {
    return !completed_.empty() || inflight_min_done_ < cycle_;
  }

  /// True when no request is queued or still moving data (a finished
  /// request that retires lazily does not count).
  bool idle() const { return queue_.empty() && !data_pending(); }

  /// Run until idle or until `max_cycles` more cycles elapse.
  void drain(std::uint64_t max_cycles = 1'000'000);

  std::uint64_t cycle() const { return cycle_; }
  const DramConfig& config() const { return cfg_; }
  const AddressMapper& mapper() const { return mapper_; }
  const ControllerStats& stats() const { return stats_; }
  void reset_stats();

  /// Retention feedback hook (see RefreshEngine::scale_interval).
  RefreshEngine& refresh_engine() { return refresh_; }

  /// Capture every bus command into `log` (nullptr detaches). The trace
  /// can be replayed through ProtocolChecker for independent timing
  /// verification.
  void attach_command_log(CommandLog* log) { command_log_ = log; }

  /// Attach the runtime reliability layer (nullptr detaches). The hooks
  /// see every tick, column access, and refresh; the controller mirrors
  /// their counters into `stats().reliability` and steers enqueues away
  /// from banks the hooks report as retired.
  void attach_reliability(ReliabilityHooks* hooks);
  ReliabilityHooks* reliability_hooks() const { return hooks_; }

  /// True when graceful degradation has retired every bank — the channel
  /// can no longer accept traffic (multi_channel fails over on this).
  bool all_banks_retired() const;

  /// Attach observability probes (nullptr detaches). The hooks see the
  /// request lifecycle (enqueue -> issue -> data -> complete), every bus
  /// command, and every cycle advance (per-tick and bulk); they are pure
  /// observers and never change simulation behaviour. Detached cost is
  /// one null check per probe site.
  void attach_telemetry(TelemetryHooks* hooks) { telemetry_ = hooks; }
  TelemetryHooks* telemetry_hooks() const { return telemetry_; }

  /// Currently attached command log (nullptr when detached).
  CommandLog* command_log() const { return command_log_; }

  /// Serialize / restore the full dynamic channel state: banks, refresh
  /// pacing, scheduler hysteresis, queued and in-flight requests, bus and
  /// channel constraints, power-down and maintenance-lock state, stats.
  /// Attached observers (command log, telemetry, reliability hooks) are
  /// NOT serialized — the caller reconstructs a controller with the same
  /// DramConfig, re-attaches its observers (attach_reliability BEFORE
  /// load, so the attach-derived flags are in place and load then restores
  /// the counters attach reset), and calls load(). Derived state (the
  /// queue-position masks, the in-flight minimum and maximum) is
  /// recomputed on load, not stored.
  void save(SnapshotWriter& w) const;
  void load(SnapshotReader& r);

 private:
  struct QueueEntry {
    Request req;
    Coordinates coord;
    bool classified = false;  ///< row hit/miss/conflict already counted
    unsigned wd_retries = 0;         ///< watchdog escalations so far
    std::uint64_t wd_deadline = 0;   ///< next watchdog check cycle
  };

  struct InFlight {
    Request req;
  };

  /// The loop behind tick_until, dense_advance, quiet_advance and drain:
  /// tick, return once `stop()` holds or `bound` is reached, else tick
  /// again after a tick that issued, or skip to the next event (at most
  /// `bound`; retirements count as events only when `watch_retire`).
  template <typename Stop>
  void tick_then_skip(std::uint64_t bound, bool watch_retire, Stop stop);
  /// next_event_cycle(), with the in-flight completions as events only
  /// when `watch_retire` (or telemetry) observes them.
  std::uint64_t next_event(bool watch_retire) const;
  /// Some in-flight request still moves data at cycle_ (done >= cycle_).
  bool data_pending() const {
    return !inflight_.empty() && inflight_max_done_ >= cycle_;
  }
  void classify(QueueEntry& e, const Bank& bank);
  void log_command(const CommandRecord& rec);
  void notify_tick();
  TickSample tick_sample() const;
  bool channel_act_legal(std::uint64_t cycle) const;
  bool column_legal(AccessType type, std::uint64_t cycle) const;
  /// Earliest cycle the channel-level constraints (tRRD/tFAW) allow an
  /// ACT; the per-bank window is tracked separately.
  std::uint64_t channel_act_release() const;
  /// Earliest cycle the shared data-bus constraints (occupancy plus
  /// turnaround) allow a column command of `type`.
  std::uint64_t channel_column_release(AccessType type) const;
  void issue_column(QueueEntry& e, std::uint64_t cycle);
  bool tick_refresh();
  /// Self-managed replacement for tick_refresh: offer idle precharged
  /// banks to the reliability hooks (SMD-style arbitration). Returns true
  /// when the command slot was consumed (urgent drain PRE).
  bool tick_maintenance();
  /// Release expired maintenance locks (runs at the top of tick so lazy
  /// expiries can never wedge the event bound).
  void expire_maintenance_locks();
  /// Maintenance term of the next-event bound (locks, urgent drains,
  /// idle-slot claims, schedule changes).
  std::uint64_t maintenance_event_bound() const;
  bool bank_has_queued(unsigned b) const;
  /// Any unlocked bank with past-deadline maintenance (power-down gate).
  bool maintenance_any_urgent() const;
  bool tick_autoprecharge();
  void tick_watchdog();
  /// Retire every in-flight request done by cycle `upto`, in done order,
  /// ties in issue order (tick() and the drain's catch-up of lazily
  /// skipped retirements).
  void retire_due_inflight(std::uint64_t upto);
  /// This round's queue masks: the issuable positions (one verdict per
  /// bank with queued work, applied to its position masks as words), the
  /// row hits, the writes, and the bank heads or TDM owner slots when the
  /// configured policy reads them. Valid until the queue or a bank changes.
  QueueMasks build_candidates();
  /// The configured policy's pick over this round's masks: the one switch
  /// on the SchedulerKind, over inlinable policy functions.
  std::size_t dispatch_pick(const QueueMasks& m, std::uint64_t oldest_wait);

  /// Set queue_[pos]'s bits in the position masks (enqueue and load).
  void mark_queued(std::size_t pos);
  /// Remove queue_[pos] and squeeze its bit out of every position mask.
  void erase_queue_entry(std::size_t pos);
  /// Bank `b`'s queued positions (mask_words_ words).
  std::uint64_t* bank_queued(unsigned b) {
    return bank_queued_.data() + b * mask_words_;
  }
  const std::uint64_t* bank_queued(unsigned b) const {
    return bank_queued_.data() + b * mask_words_;
  }
  /// ACT on bank `b`: rebuild the row hits among its queued positions.
  void mark_open_row_hits(unsigned b);
  /// Every row close goes through here: PRE on bank `b`, drop its row
  /// hits and any pending auto-precharge, and log the command unless it is
  /// the hardware auto-precharge (`logged` false).
  void close_row(unsigned b, unsigned client, bool logged);
  /// True when a queued request still wants bank `b`'s open row.
  bool open_row_wanted(unsigned b) const;

  DramConfig cfg_;
  AddressMapper mapper_;
  std::vector<Bank> banks_;
  std::uint64_t autopre_banks_ = 0;  // bit b: bank b awaits auto-precharge
  std::vector<std::uint64_t> last_col_cycle_;  // kTimeout bookkeeping
  RefreshEngine refresh_;
  bool read_first_draining_ = false;  // ReadFirst write-drain hysteresis

  std::vector<QueueEntry> queue_;  // age-ordered
  std::vector<InFlight> inflight_;
  std::vector<Request> completed_;

  // Cached next-event terms: the earliest and latest in-flight completion,
  // kept current at every issue and retirement (the latest is stale once
  // the in-flight list empties; data_pending checks that first).
  std::uint64_t inflight_min_done_ = kNeverCycle;
  std::uint64_t inflight_max_done_ = 0;

  // Queue-position bitmasks: bit p of each stands for queue_[p]; every
  // mask is mask_words_ = ceil(queue_depth / 64) words. Kept in step with
  // queue_ on enqueue, erase, ACT and row close, and rebuilt on load. Every
  // scheduling read (the round, the next-event bound, the bank and
  // open-row queries) works on these instead of walking the queue (see
  // docs/performance.md, "Scheduling scans" and "Dense traffic").
  std::size_t mask_words_ = 1;
  std::uint64_t busy_banks_ = 0;            // banks with queued work
  std::vector<std::uint64_t> bank_queued_;  // [bank * words + w]
  std::vector<std::uint64_t> hit_mask_;     // row == its bank's open row
  std::vector<std::uint64_t> write_mask_;
  std::vector<std::uint64_t> owner_mask_;   // TDM only: [slot * words + w]
  std::vector<std::uint64_t> issuable_;     // one round's scratch
  std::vector<std::uint64_t> heads_;        // same, FCFS-per-bank only

  std::uint64_t cycle_ = 0;
  std::uint64_t next_id_ = 0;

  // Cross-bank / channel constraints.
  std::uint64_t last_act_cycle_ = 0;
  bool any_act_yet_ = false;
  std::deque<std::uint64_t> recent_acts_;  // for tFAW

  // Data bus occupancy.
  std::uint64_t bus_busy_until_ = 0;  // first free data cycle
  std::uint64_t last_data_end_ = 0;
  AccessType last_dir_ = AccessType::kRead;
  bool any_data_yet_ = false;

  // Refresh draining state.
  bool refresh_draining_ = false;

  // Self-managed maintenance lock regions (cycle the bank unlocks; 0 =
  // unlocked). Sampled from the hooks at attach_reliability.
  bool self_managed_ = false;
  std::vector<std::uint64_t> maint_until_;
  unsigned maint_locked_ = 0;  ///< live lock count (fast skip)

  // Power-down state (config.powerdown_enabled).
  bool powered_down_ = false;
  std::uint64_t idle_since_ = 0;   ///< cycle the current idle streak began
  std::uint64_t wake_until_ = 0;   ///< commands blocked until tXP elapses
  bool was_idle_ = false;

  CommandLog* command_log_ = nullptr;
  ReliabilityHooks* hooks_ = nullptr;
  TelemetryHooks* telemetry_ = nullptr;

  ControllerStats stats_;
};

}  // namespace edsim::dram
