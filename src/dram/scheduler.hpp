#pragma once

#include <cstddef>
#include <memory>

#include "dram/config.hpp"
#include "dram/request.hpp"

namespace edsim {
class SnapshotReader;
class SnapshotWriter;
}  // namespace edsim

namespace edsim::dram {

/// One schedulable action the controller could take this cycle, derived
/// from a queued request. Candidates are listed in arrival (age) order.
struct Candidate {
  std::size_t queue_index = 0;
  unsigned bank = 0;
  unsigned client_id = 0;            ///< issuing client (TDM slot ownership)
  Command cmd = Command::kActivate;  ///< next command this request needs
  bool row_hit = false;              ///< cmd is a column command to an open row
  bool issuable = false;             ///< all timing constraints met this cycle
  bool is_write = false;             ///< underlying request is a write
};

/// Scheduling policy: picks which candidate to issue. Pure function of the
/// candidates (plus the current cycle, for time-sliced policies) so
/// policies are trivially testable. Each policy is a final class whose
/// pick body is a template
///
///   std::size_t pick_in(const Cands& cands, std::uint64_t cycle,
///                       std::uint64_t oldest_wait) const;
///
/// over any indexable candidate source (`size()` and `operator[]`
/// yielding a Candidate): the controller runs it on a view derived from
/// its queue (Controller::dispatch_pick switches on the SchedulerKind),
/// tests on a written std::vector<Candidate>. It returns an index into
/// `cands` (not the queue), or kNone. `cycle` is the current controller
/// cycle (TDM slot selection); `oldest_wait` is the age in cycles of the
/// oldest queued request, used for starvation control. The base class
/// carries only the policy-internal state hooks and the factories.
class Scheduler {
 public:
  virtual ~Scheduler() = default;

  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

  /// Persist / restore policy-internal state. Most policies are pure
  /// functions of the candidate list (nothing to save); ReadFirst carries
  /// its write-drain hysteresis flag across cycles and overrides these.
  virtual void save(SnapshotWriter& /*w*/) const {}
  virtual void load(SnapshotReader& /*r*/) {}

  static std::unique_ptr<Scheduler> make(SchedulerKind kind);
  /// Config-aware factory: kTdm reads its slot geometry from `cfg`.
  static std::unique_ptr<Scheduler> make(const DramConfig& cfg);
};

/// Strict in-order service: only the oldest request may advance. Exhibits
/// the head-of-line blocking that makes sustainable bandwidth collapse
/// under interleaved clients (paper §4).
class FcfsScheduler final : public Scheduler {
 public:
  template <class Cands>
  std::size_t pick_in(const Cands& cands, std::uint64_t /*cycle*/,
                      std::uint64_t /*oldest_wait*/) const {
    // Only the head of the queue may issue; everything else waits behind it.
    return cands.size() != 0 && cands[0].queue_index == 0 && cands[0].issuable
               ? 0
               : kNone;
  }
};

/// In-order within each bank, banks progress independently.
class FcfsPerBankScheduler final : public Scheduler {
 public:
  template <class Cands>
  std::size_t pick_in(const Cands& cands, std::uint64_t /*cycle*/,
                      std::uint64_t /*oldest_wait*/) const {
    // The oldest candidate per bank may issue; pick the oldest issuable one.
    std::uint64_t seen_banks = 0;
    for (std::size_t i = 0; i < cands.size(); ++i) {
      const Candidate& c = cands[i];
      const std::uint64_t bit = 1ull << (c.bank & 63u);
      const bool head_of_bank = (seen_banks & bit) == 0;
      seen_banks |= bit;
      if (head_of_bank && c.issuable) return i;
    }
    return kNone;
  }
};

/// First-ready FCFS: issuable row-hit column commands first (oldest such),
/// then the oldest issuable command of any kind. A starvation guard
/// reverts to strict age order when the oldest request has waited too long.
class FrFcfsScheduler final : public Scheduler {
 public:
  explicit FrFcfsScheduler(std::uint64_t starvation_cap = 256)
      : starvation_cap_(starvation_cap) {}

  /// One pass: the first issuable row hit, else the first issuable one;
  /// past the starvation cap the first issuable one (strict age order).
  template <class Cands>
  std::size_t pick_in(const Cands& cands, std::uint64_t /*cycle*/,
                      std::uint64_t oldest_wait) const {
    const bool starved = oldest_wait > starvation_cap_;
    std::size_t first = kNone;
    for (std::size_t i = 0; i < cands.size(); ++i) {
      const Candidate& c = cands[i];
      if (!c.issuable) continue;
      if (c.row_hit || starved) return i;
      if (first == kNone) first = i;
    }
    return first;
  }

  std::uint64_t starvation_cap() const { return starvation_cap_; }

 private:
  std::uint64_t starvation_cap_;
};

/// Read-priority FR-FCFS with write draining. Reads (which block the
/// processor or a rate-critical client) are served first; writes are
/// buffered and drained in bursts once the queue holds `high_watermark`
/// of them, until it falls to `low_watermark` — the policy real
/// controllers use to amortize bus-turnaround penalties.
class ReadFirstScheduler final : public Scheduler {
 public:
  ReadFirstScheduler(unsigned high_watermark = 20, unsigned low_watermark = 6,
                     std::uint64_t starvation_cap = 512);

  template <class Cands>
  std::size_t pick_in(const Cands& cands, std::uint64_t /*cycle*/,
                      std::uint64_t oldest_wait) const {
    unsigned writes = 0;
    for (std::size_t i = 0; i < cands.size(); ++i)
      if (cands[i].is_write) ++writes;
    note_writes(writes);

    if (oldest_wait > starvation_cap_) {
      for (std::size_t i = 0; i < cands.size(); ++i)
        if (cands[i].issuable) return i;
      return kNone;
    }

    const bool favour_writes = draining_;
    // Four priority classes: (favoured, row hit) > (favoured) >
    // (other, row hit) > (other). Oldest-first within a class.
    for (const int pass : {0, 1, 2, 3}) {
      const bool want_write = (pass < 2) == favour_writes;
      const bool want_hit = pass % 2 == 0;
      for (std::size_t i = 0; i < cands.size(); ++i) {
        const Candidate& c = cands[i];
        if (!c.issuable) continue;
        if (c.is_write != want_write) continue;
        if (want_hit && !c.row_hit) continue;
        return i;
      }
    }
    return kNone;
  }

  bool draining() const { return draining_; }
  std::uint64_t starvation_cap() const { return starvation_cap_; }

  void save(SnapshotWriter& w) const override;
  void load(SnapshotReader& r) override;

 private:
  /// Write-drain hysteresis: start draining at the high watermark, stop
  /// at the low one. Idempotent for a fixed `writes` count, so a round
  /// whose queue composition did not change leaves draining_ as it was.
  void note_writes(unsigned writes) const {
    if (writes >= high_watermark_) draining_ = true;
    if (writes <= low_watermark_) draining_ = false;
  }

  unsigned high_watermark_;
  unsigned low_watermark_;
  std::uint64_t starvation_cap_;
  mutable bool draining_ = false;  // hysteresis state across cycles
};

/// Real-time TDM arbitration: the command bus rotates through `num_slots`
/// fixed time slots of `slot_cycles` each; during slot s only clients with
/// `client_id % num_slots == s` may issue. Within the owner's slot the
/// policy is FR-FCFS (row hits first, then oldest). Starvation-free by
/// construction — every client's worst-case service is a pure function of
/// the timing parameters (see core/wcet.hpp) — at the cost of leaving
/// slots idle when their owner has no work. Pair with kBankRowCol and
/// per-client disjoint regions for full bank privatization.
class TdmScheduler final : public Scheduler {
 public:
  TdmScheduler(unsigned slot_cycles, unsigned num_slots);

  /// Hard slot isolation: only the slot owner's requests may issue, no
  /// matter how long anyone else has waited — the rotation itself is the
  /// starvation guard. Within the slot, FR-FCFS order in one pass.
  template <class Cands>
  std::size_t pick_in(const Cands& cands, std::uint64_t cycle,
                      std::uint64_t /*oldest_wait*/) const {
    const unsigned own = owner(cycle);
    std::size_t first = kNone;
    for (std::size_t i = 0; i < cands.size(); ++i) {
      const Candidate& c = cands[i];
      if (!c.issuable || c.client_id % num_slots_ != own) continue;
      if (c.row_hit) return i;
      if (first == kNone) first = i;
    }
    return first;
  }

  /// Which slot (and thus which client-id class) owns `cycle`.
  unsigned owner(std::uint64_t cycle) const {
    return static_cast<unsigned>((cycle / slot_cycles_) %
                                 num_slots_);
  }
  unsigned slot_cycles() const { return slot_cycles_; }
  unsigned num_slots() const { return num_slots_; }

 private:
  unsigned slot_cycles_;
  unsigned num_slots_;
};

}  // namespace edsim::dram
