#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>

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

// Scheduling policies: which queued request advances this cycle. Each
// policy is a function of the round's masks (plus the current cycle for
// TDM, the oldest request's wait in cycles for the starvation guards, and
// ReadFirst's write-drain flag), so policies are trivially testable: the
// controller builds the masks from its queue and switches on its
// SchedulerKind (Controller::dispatch_pick), tests build them from a
// written list. Each returns the picked queue position, or kNoPick.

inline constexpr std::size_t kNoPick = static_cast<std::size_t>(-1);

/// FR-FCFS reverts to strict age order once the oldest request has waited
/// more than this many cycles.
inline constexpr std::uint64_t kFrFcfsStarvationCap = 256;
/// ReadFirst starts draining writes when the queue holds this many...
inline constexpr unsigned kReadFirstHighWatermark = 20;
/// ...and stops once it holds no more than this many.
inline constexpr unsigned kReadFirstLowWatermark = 6;
static_assert(kReadFirstLowWatermark < kReadFirstHighWatermark,
              "read-first watermarks must satisfy low < high");
/// ReadFirst's starvation cap (same meaning as the FR-FCFS one).
inline constexpr std::uint64_t kReadFirstStarvationCap = 512;

/// The oldest position set in `word(w)` over w in [0, words), or kNoPick.
template <class Word>
std::size_t oldest_in(std::size_t words, Word word) {
  for (std::size_t w = 0; w < words; ++w) {
    if (const std::uint64_t x = word(w)) {
      return w * 64 + static_cast<std::size_t>(std::countr_zero(x));
    }
  }
  return kNoPick;
}

/// FR-FCFS order over the positions `ready(w)` selects: the oldest ready
/// row hit, else the oldest ready request; kNoPick when none is ready.
template <class Ready>
std::size_t oldest_ready(const QueueMasks& m, Ready ready) {
  std::size_t first = kNoPick;
  for (std::size_t w = 0; w < m.words; ++w) {
    const std::uint64_t x = ready(w);
    if (const std::uint64_t h = x & m.hit[w]) {
      return w * 64 + static_cast<std::size_t>(std::countr_zero(h));
    }
    if (x != 0 && first == kNoPick) {
      first = w * 64 + static_cast<std::size_t>(std::countr_zero(x));
    }
  }
  return first;
}

/// Strict in-order service: only the oldest request may advance. Exhibits
/// the head-of-line blocking that makes sustainable bandwidth collapse
/// under interleaved clients (paper §4).
inline std::size_t pick_fcfs(const QueueMasks& m) {
  // Only the head of the queue may issue; everything else waits behind it.
  return (m.issuable[0] & 1) != 0 ? 0 : kNoPick;
}

/// In-order within each bank, banks progress independently: the oldest
/// issuable bank head.
inline std::size_t pick_fcfs_per_bank(const QueueMasks& m) {
  return oldest_in(m.words,
                   [&](std::size_t w) { return m.heads[w] & m.issuable[w]; });
}

/// First-ready FCFS: the oldest issuable row hit, else the oldest issuable
/// request. Past kFrFcfsStarvationCap the oldest issuable one (strict age
/// order), so a row-conflict victim cannot starve behind a hit stream.
inline std::size_t pick_frfcfs(const QueueMasks& m,
                               std::uint64_t oldest_wait) {
  const auto issuable = [&](std::size_t w) { return m.issuable[w]; };
  return oldest_wait > kFrFcfsStarvationCap ? oldest_in(m.words, issuable)
                                            : oldest_ready(m, issuable);
}

/// Read-priority FR-FCFS with write draining. Reads (which block the
/// processor or a rate-critical client) are served first; writes are
/// buffered and drained in bursts once the queue holds
/// kReadFirstHighWatermark of them, until it falls to
/// kReadFirstLowWatermark — the policy real controllers use to amortize
/// bus-turnaround penalties. `draining` is that hysteresis flag, carried
/// across rounds by the caller; this round's write count updates it
/// first. The update is idempotent for a fixed count, so a round whose
/// queue composition did not change leaves it as it was.
inline std::size_t pick_read_first(const QueueMasks& m,
                                   std::uint64_t oldest_wait,
                                   bool& draining) {
  unsigned writes = 0;
  for (std::size_t w = 0; w < m.words; ++w) {
    writes += static_cast<unsigned>(std::popcount(m.writes[w]));
  }
  if (writes >= kReadFirstHighWatermark) draining = true;
  if (writes <= kReadFirstLowWatermark) draining = false;

  if (oldest_wait > kReadFirstStarvationCap) {
    return oldest_in(m.words, [&](std::size_t w) { return m.issuable[w]; });
  }

  // Four priority classes: (favoured, row hit) > (favoured) >
  // (other, row hit) > (other). Oldest-first within a class.
  const std::uint64_t flip = draining ? 0 : ~std::uint64_t{0};
  const std::size_t favoured = oldest_ready(m, [&](std::size_t w) {
    return m.issuable[w] & (m.writes[w] ^ flip);
  });
  if (favoured != kNoPick) return favoured;
  return oldest_ready(m, [&](std::size_t w) {
    return m.issuable[w] & ~(m.writes[w] ^ flip);
  });
}

/// Real-time TDM arbitration: the command bus rotates through `num_slots`
/// fixed time slots of `slot_cycles` each; during slot s only clients with
/// `client_id % num_slots == s` may issue. Within the owner's slot the
/// policy is FR-FCFS (row hits first, then oldest). Starvation-free by
/// construction — every client's worst-case service is a pure function of
/// the timing parameters (see core/wcet.hpp) — at the cost of leaving
/// slots idle when their owner has no work: slot isolation is hard, no
/// matter how long anyone else has waited. Pair with kBankRowCol and
/// per-client disjoint regions for full bank privatization.
inline std::size_t pick_tdm(const QueueMasks& m, std::uint64_t cycle,
                            unsigned slot_cycles, unsigned num_slots) {
  const std::uint64_t* own =
      m.owners + (cycle / slot_cycles) % num_slots * m.words;
  return oldest_ready(m,
                      [&](std::size_t w) { return m.issuable[w] & own[w]; });
}

}  // namespace edsim::dram
