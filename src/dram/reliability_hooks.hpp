#pragma once

#include <cstdint>

#include "common/snapshot.hpp"
#include "dram/address_map.hpp"
#include "dram/request.hpp"

namespace edsim::dram {

/// Result of pushing one column access through the reliability layer.
enum class AccessOutcome : std::uint8_t {
  kClean,          ///< no stored fault touched the access window
  kCorrected,      ///< SEC repaired a single-bit error (or write re-encoded)
  kUncorrectable,  ///< DED fired (or, without ECC, silent corruption)
};

/// Error-accounting counters for one channel. The invariant the soak test
/// checks is `injected == corrected + uncorrected + remapped` — every
/// injected fault is disposed exactly once:
///   corrected   — removed by SEC (demand read, patrol scrub, or a write
///                 re-encoding the word);
///   uncorrected — present in a word when DED fired, or read without ECC;
///   remapped    — still live in a row/bank when it was remapped/retired
///                 (the spare resource starts clean, carrying them away).
/// Faults not yet touched by any access are *latent*; `finalize()` on the
/// manager sweeps them so the balance closes exactly at report time.
struct ReliabilityCounters {
  std::uint64_t injected = 0;     ///< fault-bits materialized in the array
  std::uint64_t corrected = 0;    ///< fault-bits disposed by correction
  std::uint64_t uncorrected = 0;  ///< fault-bits disposed as data loss
  std::uint64_t remapped = 0;     ///< fault-bits disposed by remap/retire

  std::uint64_t demand_corrections = 0;   ///< SEC events on demand reads
  std::uint64_t scrub_corrections = 0;    ///< SEC events during patrol scrub
  std::uint64_t write_repairs = 0;        ///< fault-bits cleared by re-encode
  std::uint64_t uncorrectable_events = 0; ///< DED / no-ECC corruption events
  std::uint64_t rows_remapped = 0;        ///< rows moved onto spare rows
  std::uint64_t banks_retired = 0;        ///< banks taken out of service
  std::uint64_t scrubbed_rows = 0;        ///< rows swept by the patrol scrubber

  // Self-managed maintenance (retention-bin sweeps + RowHammer defense).
  std::uint64_t maint_ops = 0;       ///< idle bank slots claimed
  std::uint64_t maint_rows = 0;      ///< rows refreshed by bin sweeps
  std::uint64_t neighbor_rows = 0;   ///< victim rows refreshed by the defense
  std::uint64_t disturb_flips = 0;   ///< disturbance flip events (attack model)

  bool balanced() const {
    return injected == corrected + uncorrected + remapped;
  }

  void save(SnapshotWriter& w) const {
    w.u64(injected);
    w.u64(corrected);
    w.u64(uncorrected);
    w.u64(remapped);
    w.u64(demand_corrections);
    w.u64(scrub_corrections);
    w.u64(write_repairs);
    w.u64(uncorrectable_events);
    w.u64(rows_remapped);
    w.u64(banks_retired);
    w.u64(scrubbed_rows);
    w.u64(maint_ops);
    w.u64(maint_rows);
    w.u64(neighbor_rows);
    w.u64(disturb_flips);
  }
  void load(SnapshotReader& r) {
    injected = r.u64();
    corrected = r.u64();
    uncorrected = r.u64();
    remapped = r.u64();
    demand_corrections = r.u64();
    scrub_corrections = r.u64();
    write_repairs = r.u64();
    uncorrectable_events = r.u64();
    rows_remapped = r.u64();
    banks_retired = r.u64();
    scrubbed_rows = r.u64();
    maint_ops = r.u64();
    maint_rows = r.u64();
    neighbor_rows = r.u64();
    disturb_flips = r.u64();
  }
};

/// Banks with self-managed maintenance work at one cycle: bit b stands for
/// bank b (banks <= 64 by DramConfig::validate).
struct MaintenanceBanks {
  std::uint64_t pending = 0;  ///< work queued (an idle slot would be used)
  std::uint64_t urgent = 0;   ///< past its deadline (may preempt traffic)
};

/// Runtime-reliability callbacks the controller drives from its datapath.
/// Implemented by reliability::ReliabilityManager; the indirection keeps
/// `dram/` free of a dependency on the reliability library.
class ReliabilityHooks {
 public:
  virtual ~ReliabilityHooks() = default;

  /// Called once per controller tick (fault-injection sampling point).
  virtual void on_cycle(std::uint64_t cycle) = 0;

  /// Fast-forward bulk credit for the cycle range [first, last): the
  /// controller skipped these ticks as eventless, so the hooks must apply
  /// whatever on_cycle would have done for each of them — bit-identically.
  /// The default replays on_cycle per cycle; implementations with lazy
  /// clocks (e.g. exponential transient arrivals) override with an O(events)
  /// version.
  virtual void on_idle_cycles(std::uint64_t first, std::uint64_t last) {
    for (std::uint64_t c = first; c < last; ++c) on_cycle(c);
  }

  /// A column command touched `c`'s burst window. Returns what the ECC
  /// path observed; the controller tags the request accordingly.
  virtual AccessOutcome on_access(const Coordinates& c, AccessType type,
                                  std::uint64_t cycle) = 0;

  /// A REF command was issued (patrol-scrub piggyback point).
  virtual void on_refresh(std::uint64_t cycle) = 0;

  /// An ACT opened (bank, row) — the RowHammer disturbance accounting
  /// point. Default is a no-op so non-maintenance hooks stay unchanged.
  virtual void on_activate(unsigned /*bank*/, unsigned /*row*/,
                           std::uint64_t /*cycle*/) {}

  // --- self-managed maintenance (SMD-style idle-slot arbitration) ----------
  // When self_managed() is true the controller suppresses its tREFI REF
  // sweep and instead offers precharged, unlocked banks to the hooks:
  // maintenance_claim returns a lock duration (0 declines) and the
  // controller fences the bank for that many cycles.
  //
  // maintenance_banks and next_maintenance_cycle are pure queries, so the
  // fast-forward event bound can consult them without perturbing state.
  // maintenance_banks answers for every bank at once: each controller call
  // site (idle-slot claims, the event bound, the power-down gate) asks once
  // and walks only the set bits, in ascending bank order. Retired banks are
  // never set.
  virtual bool self_managed() const { return false; }
  /// Banks with maintenance work at `cycle`, one bit per bank.
  virtual MaintenanceBanks maintenance_banks(std::uint64_t /*cycle*/) const {
    return {};
  }
  /// Offer `bank` (idle, unlocked, past tRP) to the hooks at `cycle`.
  /// Returns the lock duration in cycles, 0 to decline; row restores,
  /// events and counters happen inside.
  virtual unsigned maintenance_claim(unsigned /*bank*/,
                                     std::uint64_t /*cycle*/) {
    return 0;
  }
  /// Earliest cycle >= `now` at which the maintenance schedule can change
  /// on its own (next bin due or deadline); kNeverCycle when none.
  virtual std::uint64_t next_maintenance_cycle(std::uint64_t /*now*/) const {
    return kNeverCycle;
  }

  /// True when graceful degradation has retired this bank; the controller
  /// steers new requests to a healthy bank.
  virtual bool bank_retired(unsigned bank) const = 0;

  virtual const ReliabilityCounters& counters() const = 0;
};

}  // namespace edsim::dram
