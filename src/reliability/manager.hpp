#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "bist/redundancy.hpp"
#include "dram/config.hpp"
#include "dram/reliability_hooks.hpp"
#include "reliability/fault_injector.hpp"
#include "reliability/maintenance.hpp"

namespace edsim::reliability {

/// Entries of the fault/repair event log. The log is the reproducibility
/// artifact: identical (seed, traffic) must produce an identical sequence.
enum class EventKind : std::uint8_t {
  kInject,         ///< a fault bit materialized in the array
  kDemandCorrect,  ///< SEC fired on a demand read
  kScrubCorrect,   ///< SEC fired during a patrol-scrub sweep
  kWriteRepair,    ///< a write re-encoded over a stored fault
  kUncorrectable,  ///< DED fired (or corruption was read without ECC)
  kRemap,          ///< row moved onto a spare row
  kRetire,         ///< bank taken out of service
  kNeighborRefresh,  ///< RowHammer defense refreshed an aggressor's victim
  kBinSweep,       ///< retention-bin sweep op (bit = rows refreshed)
};

const char* to_string(EventKind k);

struct ReliabilityEvent {
  std::uint64_t cycle = 0;
  EventKind kind = EventKind::kInject;
  unsigned bank = 0;
  unsigned row = 0;
  std::uint32_t bit = 0;  ///< bit within the page (0 where not applicable)

  bool operator==(const ReliabilityEvent&) const = default;
  std::string describe() const;
};

/// Knobs of the runtime reliability layer. ECC presence/latency/word size
/// come from the channel's DramConfig (the controller needs them too);
/// everything else lives here.
struct ReliabilityConfig {
  FaultInjectorConfig inject{};

  /// Patrol scrub: rows swept (per bank) on the back of each REF command.
  /// Requires ECC — scrubbing without a corrector is just a refresh.
  bool scrub_enabled = true;
  unsigned scrub_rows_per_refresh = 1;

  /// Graceful-degradation ladder: remap rows to per-bank spares on
  /// uncorrectable or repeated-correctable errors; when spares run out,
  /// retire the bank.
  bool remap_enabled = true;
  unsigned spare_rows_per_bank = 4;
  unsigned remap_after_corrections = 8;  ///< SEC events before precautionary remap
  bool retire_enabled = true;

  /// Self-managed maintenance (retention bins + RowHammer defense + idle
  /// slot arbitration). Off by default: the controller's tREFI REF sweep
  /// stays the reference behaviour.
  MaintenanceConfig maintenance{};
  /// RowHammer escalation: disturbance flips on one victim row before it
  /// is remapped to a spare (0 = never escalate). Counts flips since the
  /// victim's last restore, in units of the injector's flip threshold.
  unsigned hammer_remap_after_flips = 0;

  std::size_t event_log_limit = 1u << 20;

  void validate() const;
};

/// Runtime reliability layer for one channel: owns the fault state of the
/// array, evaluates every access through the SEC-DED word model, sweeps
/// rows behind refresh (patrol scrub), and walks the degradation ladder
/// (correct -> remap-to-spare -> retire-bank). Attach to a controller via
/// `Controller::attach_reliability`.
class ReliabilityManager final : public dram::ReliabilityHooks {
 public:
  ReliabilityManager(const dram::DramConfig& dram_cfg,
                     const ReliabilityConfig& cfg);

  // --- dram::ReliabilityHooks ---------------------------------------------
  void on_cycle(std::uint64_t cycle) override;
  void on_idle_cycles(std::uint64_t first, std::uint64_t last) override;
  dram::AccessOutcome on_access(const dram::Coordinates& c,
                                dram::AccessType type,
                                std::uint64_t cycle) override;
  void on_refresh(std::uint64_t cycle) override;
  void on_activate(unsigned bank, unsigned row, std::uint64_t cycle) override;
  bool bank_retired(unsigned bank) const override {
    return !alive_[bank];
  }
  const dram::ReliabilityCounters& counters() const override {
    return counters_;
  }
  bool self_managed() const override { return engine_ != nullptr; }
  /// Retired banks are dropped from the engine, so its masks exclude them.
  dram::MaintenanceBanks maintenance_banks(
      std::uint64_t cycle) const override {
    return self_managed() ? engine_->banks(cycle) : dram::MaintenanceBanks{};
  }
  unsigned maintenance_claim(unsigned bank, std::uint64_t cycle) override;
  std::uint64_t next_maintenance_cycle(std::uint64_t now) const override {
    return self_managed() ? engine_->next_cycle(now) : dram::kNeverCycle;
  }

  // --- direct manipulation (tests, imported fault maps) --------------------
  /// Force one fault bit into the array (counted as injected).
  void inject_fault(unsigned bank, unsigned row, std::uint32_t bit,
                    std::uint64_t cycle,
                    FaultClass cls = FaultClass::kTransient);
  /// Mark BIST-identified cells as retention-weak cells of `bank`.
  void import_fault_map(const bist::FailBitmap& bitmap, unsigned bank,
                        double retention_frac = 0.25);

  /// Final patrol pass: disposes every latent fault (correct what SEC can,
  /// count the rest uncorrected) so that the accounting identity
  /// `injected == corrected + uncorrected + remapped` closes exactly.
  void finalize(std::uint64_t cycle);

  /// Live event tap: called for every event as it happens, before the
  /// log-limit check — so an observer (e.g. a telemetry IntervalReporter)
  /// sees the exact-cycle stream even after the bounded log saturates.
  void set_event_observer(std::function<void(const ReliabilityEvent&)> obs) {
    observer_ = std::move(obs);
  }

  // --- inspection -----------------------------------------------------------
  std::uint64_t live_faults() const;
  const std::vector<ReliabilityEvent>& event_log() const { return log_; }
  bool event_log_overflowed() const { return log_overflow_; }
  /// Accumulated runtime repair state of one bank, in the same shape the
  /// offline redundancy allocator produces (bist::allocate_repair).
  const bist::RepairPlan& repair_plan(unsigned bank) const {
    return plans_[bank];
  }
  unsigned spares_left(unsigned bank) const { return spares_left_[bank]; }
  /// Full-array sweeps the patrol scrubber has completed (fractional).
  double scrub_coverage() const;
  const FaultInjector& injector() const { return injector_; }
  /// The maintenance engine, nullptr when maintenance is disabled.
  const MaintenanceEngine* maintenance_engine() const { return engine_.get(); }
  /// Peak disturbance any victim row accumulated between restores — the
  /// defense-coverage witness: defended runs keep this under the
  /// injector's flip threshold.
  std::uint32_t max_disturbance() const { return max_disturb_; }

  /// Serialize / restore the full fault state of the array: counters,
  /// faulty rows, retention clocks, degradation ladder (alive banks,
  /// spares, repair plans), scrub/refresh pointers, disturbance state,
  /// the event log, the injector's RNG stream, and the maintenance
  /// engine's schedule. The receiving manager must be built from the same
  /// (DramConfig, ReliabilityConfig) recipe; the event observer and the
  /// self-managed toggle are attach-time concerns and not stored. Maps
  /// serialize in sorted-key order so equal states yield equal bytes.
  void save(SnapshotWriter& w) const;
  void load(SnapshotReader& r);

 private:
  struct RowState {
    std::vector<std::uint32_t> bad_bits;  ///< live fault bit positions
    unsigned corrections = 0;             ///< lifetime SEC count on this row
  };

  std::uint64_t row_key(unsigned bank, unsigned row) const {
    return static_cast<std::uint64_t>(bank) * rows_ + row;
  }
  void record(std::uint64_t cycle, EventKind kind, unsigned bank,
              unsigned row, std::uint32_t bit);
  void apply_fault(const InjectedFault& f);
  void materialize(unsigned bank, unsigned row, std::uint64_t cycle);
  /// ECC-evaluate the bits of [lo_bit, hi_bit) of one row. Returns the
  /// worst outcome seen; `scrub` selects which correction counter ticks.
  dram::AccessOutcome evaluate_window(unsigned bank, unsigned row,
                                      std::uint32_t lo_bit,
                                      std::uint32_t hi_bit,
                                      std::uint64_t cycle, bool scrub,
                                      bool& wants_remap);
  void scrub_row(unsigned bank, unsigned row, std::uint64_t cycle);
  void remap_row(unsigned bank, unsigned row, std::uint64_t cycle);
  void retire_bank(unsigned bank, std::uint64_t cycle);
  /// The row's cells were rewritten (access, refresh, scrub, remap or a
  /// maintenance op): restart its retention clock and clear accumulated
  /// disturbance.
  void restore_row(unsigned bank, unsigned row, std::uint64_t cycle);

  // Geometry / ECC shape (from DramConfig).
  unsigned banks_;
  unsigned rows_;
  std::uint32_t page_bits_;
  std::uint32_t window_bits_;  ///< bits touched by one burst
  unsigned interface_bits_;
  unsigned word_bits_;
  bool ecc_enabled_;

  ReliabilityConfig cfg_;
  FaultInjector injector_;
  dram::ReliabilityCounters counters_;

  std::unordered_map<std::uint64_t, RowState> faulty_rows_;
  std::vector<std::uint64_t> last_restore_;  ///< per (bank,row), cycle
  std::vector<bool> alive_;                  ///< per bank
  std::vector<unsigned> spares_left_;        ///< per bank
  std::vector<bist::RepairPlan> plans_;      ///< per bank runtime repairs

  unsigned refresh_ptr_ = 0;  ///< next row refreshed by REF (round robin)
  unsigned scrub_ptr_ = 0;    ///< next row the patrol scrubber sweeps

  // Self-managed maintenance + RowHammer attack state.
  std::unique_ptr<MaintenanceEngine> engine_;
  std::unordered_map<std::uint64_t, std::uint32_t> disturb_;  ///< by row key
  std::uint32_t max_disturb_ = 0;

  std::vector<ReliabilityEvent> log_;
  std::function<void(const ReliabilityEvent&)> observer_;
  bool log_overflow_ = false;
  std::vector<InjectedFault> scratch_;  ///< reused sampling buffer
};

}  // namespace edsim::reliability
