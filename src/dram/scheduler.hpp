#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>

#include "dram/config.hpp"
#include "dram/request.hpp"

namespace edsim {
class SnapshotReader;
class SnapshotWriter;
}  // namespace edsim

namespace edsim::dram {

/// One scheduling round's queue as position bitmasks. Bit p (word p / 64,
/// bit p % 64) stands for the request at queue position p. Positions are
/// in arrival (age) order, so the lowest set bit of a mask is its oldest
/// request. Every array is `words` long, and bits at or past the queue
/// length are zero in all of them.
struct QueueMasks {
  std::size_t words = 0;
  const std::uint64_t* issuable = nullptr;  ///< next command legal now
  const std::uint64_t* hit = nullptr;       ///< RD/WR to its bank's open row
  const std::uint64_t* writes = nullptr;    ///< the request is a write
  /// The oldest request of each bank with queued work (FCFS-per-bank only).
  const std::uint64_t* heads = nullptr;
  /// TDM only: slot s's requests (client_id % num_slots == s) are the
  /// `words` words at owners + s * words.
  const std::uint64_t* owners = nullptr;
};

/// Scheduling policy: picks which queued request advances this cycle.
/// Each policy is a final class with a non-virtual
///
///   std::size_t pick(const QueueMasks& m, std::uint64_t cycle,
///                    std::uint64_t oldest_wait) const;
///
/// a pure function of the round's masks (plus the current cycle, for
/// time-sliced policies), so policies are trivially testable: the
/// controller builds the masks from its queue and dispatches on the
/// SchedulerKind (Controller::dispatch_pick), tests build them from a
/// written list. It returns the picked queue position, or kNone. `cycle`
/// is the current controller cycle (TDM slot selection); `oldest_wait` is
/// the age in cycles of the oldest queued request, used for starvation
/// control. The base class carries only the policy-internal state hooks
/// and the factories.
class Scheduler {
 public:
  virtual ~Scheduler() = default;

  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

  /// Persist / restore policy-internal state. Most policies are pure
  /// functions of the round's masks (nothing to save); ReadFirst carries
  /// its write-drain hysteresis flag across cycles and overrides these.
  virtual void save(SnapshotWriter& /*w*/) const {}
  virtual void load(SnapshotReader& /*r*/) {}

  /// The policy `cfg.scheduler` names; kTdm reads its slot geometry
  /// from `cfg`.
  static std::unique_ptr<Scheduler> make(const DramConfig& cfg);
};

/// The oldest position set in `word(w)` over w in [0, words), or kNone.
template <class Word>
std::size_t oldest_in(std::size_t words, Word word) {
  for (std::size_t w = 0; w < words; ++w) {
    if (const std::uint64_t x = word(w)) {
      return w * 64 + static_cast<std::size_t>(std::countr_zero(x));
    }
  }
  return Scheduler::kNone;
}

/// FR-FCFS order over the positions `ready(w)` selects: the oldest ready
/// row hit, else the oldest ready request; kNone when none is ready.
template <class Ready>
std::size_t oldest_ready(const QueueMasks& m, Ready ready) {
  std::size_t first = Scheduler::kNone;
  for (std::size_t w = 0; w < m.words; ++w) {
    const std::uint64_t x = ready(w);
    if (const std::uint64_t h = x & m.hit[w]) {
      return w * 64 + static_cast<std::size_t>(std::countr_zero(h));
    }
    if (x != 0 && first == Scheduler::kNone) {
      first = w * 64 + static_cast<std::size_t>(std::countr_zero(x));
    }
  }
  return first;
}

/// Strict in-order service: only the oldest request may advance. Exhibits
/// the head-of-line blocking that makes sustainable bandwidth collapse
/// under interleaved clients (paper §4).
class FcfsScheduler final : public Scheduler {
 public:
  std::size_t pick(const QueueMasks& m, std::uint64_t /*cycle*/,
                   std::uint64_t /*oldest_wait*/) const {
    // Only the head of the queue may issue; everything else waits behind it.
    return (m.issuable[0] & 1) != 0 ? 0 : kNone;
  }
};

/// In-order within each bank, banks progress independently.
class FcfsPerBankScheduler final : public Scheduler {
 public:
  std::size_t pick(const QueueMasks& m, std::uint64_t /*cycle*/,
                   std::uint64_t /*oldest_wait*/) const {
    // The oldest request per bank may issue; pick the oldest issuable one.
    return oldest_in(m.words, [&](std::size_t w) {
      return m.heads[w] & m.issuable[w];
    });
  }
};

/// First-ready FCFS: issuable row-hit column commands first (oldest such),
/// then the oldest issuable command of any kind. A starvation guard
/// reverts to strict age order when the oldest request has waited too long.
class FrFcfsScheduler final : public Scheduler {
 public:
  explicit FrFcfsScheduler(std::uint64_t starvation_cap = 256)
      : starvation_cap_(starvation_cap) {}

  /// The oldest issuable row hit, else the oldest issuable request; past
  /// the starvation cap the oldest issuable one (strict age order).
  std::size_t pick(const QueueMasks& m, std::uint64_t /*cycle*/,
                   std::uint64_t oldest_wait) const {
    const auto issuable = [&](std::size_t w) { return m.issuable[w]; };
    return oldest_wait > starvation_cap_ ? oldest_in(m.words, issuable)
                                         : oldest_ready(m, issuable);
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

  std::size_t pick(const QueueMasks& m, std::uint64_t /*cycle*/,
                   std::uint64_t oldest_wait) const {
    unsigned writes = 0;
    for (std::size_t w = 0; w < m.words; ++w) {
      writes += static_cast<unsigned>(std::popcount(m.writes[w]));
    }
    note_writes(writes);

    if (oldest_wait > starvation_cap_) {
      return oldest_in(m.words, [&](std::size_t w) { return m.issuable[w]; });
    }

    // Four priority classes: (favoured, row hit) > (favoured) >
    // (other, row hit) > (other). Oldest-first within a class.
    const std::uint64_t flip = draining_ ? 0 : ~std::uint64_t{0};
    const std::size_t favoured = oldest_ready(m, [&](std::size_t w) {
      return m.issuable[w] & (m.writes[w] ^ flip);
    });
    if (favoured != kNone) return favoured;
    return oldest_ready(m, [&](std::size_t w) {
      return m.issuable[w] & ~(m.writes[w] ^ flip);
    });
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
  /// starvation guard. Within the slot, FR-FCFS order.
  std::size_t pick(const QueueMasks& m, std::uint64_t cycle,
                   std::uint64_t /*oldest_wait*/) const {
    const std::uint64_t* own = m.owners + owner(cycle) * m.words;
    return oldest_ready(m,
                        [&](std::size_t w) { return m.issuable[w] & own[w]; });
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
