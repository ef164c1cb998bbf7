#include "dram/scheduler.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hpp"
#include "pick_masks.hpp"

namespace edsim::dram {
namespace {

Candidate cand(std::size_t qidx, unsigned bank, Command cmd, bool hit,
               bool issuable) {
  Candidate c;
  c.queue_index = qidx;
  c.bank = bank;
  c.cmd = cmd;
  c.row_hit = hit;
  c.issuable = issuable;
  return c;
}

std::size_t fcfs(const std::vector<Candidate>& cs) {
  return pick_fcfs(masks_of(cs).view());
}

std::size_t per_bank(const std::vector<Candidate>& cs) {
  return pick_fcfs_per_bank(masks_of(cs).view());
}

std::size_t frfcfs(const std::vector<Candidate>& cs,
                   std::uint64_t oldest_wait = 0) {
  return pick_frfcfs(masks_of(cs).view(), oldest_wait);
}

std::size_t tdm(const std::vector<Candidate>& cs, std::uint64_t cycle,
                unsigned slot_cycles, unsigned num_slots) {
  return pick_tdm(masks_of(cs, num_slots).view(), cycle, slot_cycles,
                  num_slots);
}

TEST(Fcfs, OnlyHeadMayIssue) {
  std::vector<Candidate> cs = {
      cand(0, 0, Command::kActivate, false, false),
      cand(1, 1, Command::kRead, true, true),
  };
  // Head not issuable: nothing issues even though a younger one could.
  EXPECT_EQ(fcfs(cs), kNoPick);
  cs[0].issuable = true;
  EXPECT_EQ(fcfs(cs), 0u);
}

TEST(Fcfs, EmptyQueue) { EXPECT_EQ(fcfs({}), kNoPick); }

TEST(FcfsPerBank, HeadOfEachBankMayIssue) {
  std::vector<Candidate> cs = {
      cand(0, 0, Command::kActivate, false, false),  // bank 0 head, stuck
      cand(1, 0, Command::kRead, true, true),        // bank 0, behind head
      cand(2, 1, Command::kRead, true, true),        // bank 1 head, ready
  };
  EXPECT_EQ(per_bank(cs), 2u);  // bank 1's head goes independently
}

TEST(FcfsPerBank, InOrderWithinBank) {
  std::vector<Candidate> cs = {
      cand(0, 0, Command::kActivate, false, true),
      cand(1, 0, Command::kRead, true, true),
  };
  EXPECT_EQ(per_bank(cs), 0u);  // never the younger one in a bank
}

TEST(FrFcfs, PrefersRowHitsOverOlderMisses) {
  std::vector<Candidate> cs = {
      cand(0, 0, Command::kActivate, false, true),  // oldest, row miss
      cand(1, 1, Command::kRead, true, true),       // younger, row hit
  };
  EXPECT_EQ(frfcfs(cs), 1u);
}

TEST(FrFcfs, OldestAmongEqualPriority) {
  std::vector<Candidate> cs = {
      cand(0, 0, Command::kRead, true, true),
      cand(1, 1, Command::kRead, true, true),
  };
  EXPECT_EQ(frfcfs(cs), 0u);
}

TEST(FrFcfs, FallsBackToOldestIssuable) {
  std::vector<Candidate> cs = {
      cand(0, 0, Command::kPrecharge, false, false),
      cand(1, 1, Command::kActivate, false, true),
  };
  EXPECT_EQ(frfcfs(cs), 1u);
}

TEST(FrFcfs, StarvationGuardRevertsToAgeOrder) {
  std::vector<Candidate> cs = {
      cand(0, 0, Command::kPrecharge, false, true),  // old conflict victim
      cand(1, 1, Command::kRead, true, true),        // young row hit
  };
  constexpr std::uint64_t kCap = kFrFcfsStarvationCap;
  EXPECT_EQ(frfcfs(cs, kCap), 1u);      // normal: hit first
  EXPECT_EQ(frfcfs(cs, kCap + 1), 0u);  // starved: oldest first
}

Candidate tdm_cand(std::size_t qidx, unsigned client, bool hit,
                   bool issuable) {
  Candidate c = cand(qidx, 0, hit ? Command::kRead : Command::kActivate, hit,
                     issuable);
  c.client_id = client;
  return c;
}

TEST(Tdm, OnlySlotOwnerMayIssue) {
  std::vector<Candidate> cs = {
      tdm_cand(0, 0, true, true),   // client 0, ready row hit
      tdm_cand(1, 1, true, true),   // client 1, ready row hit
  };
  // 10-cycle slots, 2 of them.
  EXPECT_EQ(tdm(cs, 5, 10, 2), 0u);   // cycles 0..9: slot 0
  EXPECT_EQ(tdm(cs, 15, 10, 2), 1u);  // cycles 10..19: slot 1
  EXPECT_EQ(tdm(cs, 25, 10, 2), 0u);  // rotation wraps
}

TEST(Tdm, IdleSlotStaysIdleEvenUnderStarvation) {
  std::vector<Candidate> cs = {
      tdm_cand(0, 1, true, true),   // only client 1 has work
  };
  // Slot 0 stays idle however long client 1 has waited: the rotation,
  // not an age cap, is the starvation guard (pick_tdm takes no wait).
  EXPECT_EQ(tdm(cs, 3, 10, 2), kNoPick);
  EXPECT_EQ(tdm(cs, 13, 10, 2), 0u);
}

TEST(Tdm, FrFcfsOrderWithinSlot) {
  std::vector<Candidate> cs = {
      tdm_cand(0, 0, false, true),  // owner, older, row miss
      tdm_cand(1, 0, true, true),   // owner, younger, row hit
      tdm_cand(2, 1, true, true),   // not the owner: invisible this slot
  };
  EXPECT_EQ(tdm(cs, 0, 100, 2), 1u);  // hit first within the owner's work
  cs[1].issuable = false;
  EXPECT_EQ(tdm(cs, 0, 100, 2), 0u);  // then oldest issuable
}

TEST(Tdm, ClientIdsFoldOntoSlots) {
  std::vector<Candidate> cs = {
      tdm_cand(0, 2, true, true),  // 2 % 2 == 0: shares slot 0
  };
  EXPECT_EQ(tdm(cs, 0, 10, 2), 0u);
  EXPECT_EQ(tdm(cs, 10, 10, 2), kNoPick);
}

// ---------------------------------------------------------------------------
// Every policy picks from position bitmasks. Its definition, written out
// below over the candidate list (two passes for FR-FCFS and TDM, four
// classes for ReadFirst), must pick the same position on every list.

std::size_t listed_fcfs(const std::vector<Candidate>& cs) {
  return !cs.empty() && cs[0].issuable ? 0 : kNoPick;
}

std::size_t listed_fcfs_per_bank(const std::vector<Candidate>& cs) {
  std::vector<bool> seen(16, false);
  for (std::size_t i = 0; i < cs.size(); ++i) {
    const bool head = !seen[cs[i].bank];
    seen[cs[i].bank] = true;
    if (head && cs[i].issuable) return i;
  }
  return kNoPick;
}

std::size_t two_pass_fr_fcfs(const std::vector<Candidate>& cs,
                             std::uint64_t oldest_wait,
                             std::uint64_t starvation_cap) {
  if (oldest_wait > starvation_cap) {
    for (std::size_t i = 0; i < cs.size(); ++i)
      if (cs[i].issuable) return i;
    return kNoPick;
  }
  for (std::size_t i = 0; i < cs.size(); ++i)
    if (cs[i].issuable && cs[i].row_hit) return i;
  for (std::size_t i = 0; i < cs.size(); ++i)
    if (cs[i].issuable) return i;
  return kNoPick;
}

/// ReadFirst's definition; `draining` is the hysteresis flag it carries.
std::size_t listed_read_first(const std::vector<Candidate>& cs,
                              std::uint64_t oldest_wait, unsigned high,
                              unsigned low, std::uint64_t starvation_cap,
                              bool& draining) {
  unsigned writes = 0;
  for (const Candidate& c : cs) writes += c.is_write ? 1u : 0u;
  if (writes >= high) draining = true;
  if (writes <= low) draining = false;
  if (oldest_wait > starvation_cap) {
    for (std::size_t i = 0; i < cs.size(); ++i)
      if (cs[i].issuable) return i;
    return kNoPick;
  }
  for (const int pass : {0, 1, 2, 3}) {
    const bool want_write = (pass < 2) == draining;
    const bool want_hit = pass % 2 == 0;
    for (std::size_t i = 0; i < cs.size(); ++i) {
      if (cs[i].issuable && cs[i].is_write == want_write &&
          (cs[i].row_hit || !want_hit))
        return i;
    }
  }
  return kNoPick;
}

std::size_t two_pass_tdm(const std::vector<Candidate>& cs, std::uint64_t cycle,
                         unsigned slot_cycles, unsigned num_slots) {
  const auto own = static_cast<unsigned>((cycle / slot_cycles) % num_slots);
  for (std::size_t i = 0; i < cs.size(); ++i)
    if (cs[i].issuable && cs[i].row_hit && cs[i].client_id % num_slots == own)
      return i;
  for (std::size_t i = 0; i < cs.size(); ++i)
    if (cs[i].issuable && cs[i].client_id % num_slots == own) return i;
  return kNoPick;
}

TEST(OnePassPick, MatchesTwoPassDefinitionOnRandomLists) {
  constexpr std::uint64_t kFrCap = kFrFcfsStarvationCap;
  constexpr std::uint64_t kRfCap = kReadFirstStarvationCap;
  constexpr unsigned kSlotCycles = 8, kSlots = 3;
  bool draining = false;     // pick_read_first's flag
  bool rf_draining = false;  // the definition's flag
  Rng rng(20'261'017);
  unsigned starved = 0, hit_picks = 0, miss_picks = 0, none = 0;
  unsigned past_word = 0, drains = 0, rf_starved = 0;
  std::vector<Candidate> cs;
  for (int list = 0; list < 10'000; ++list) {
    // Per-list densities, so sparse and dense mixes of each flag appear.
    const double p_issuable = rng.next_double();
    const double p_hit = rng.next_double();
    const double p_write = rng.next_double();
    // Lengths 0..200: up to four mask words, so picks and heads cross
    // word boundaries.
    cs.resize(rng.next_below(201));
    for (std::size_t i = 0; i < cs.size(); ++i) {
      Candidate& c = cs[i];
      c.queue_index = i;
      c.bank = static_cast<unsigned>(rng.next_below(16));
      c.client_id = static_cast<unsigned>(rng.next_below(8));
      c.is_write = rng.next_bool(p_write);
      c.row_hit = rng.next_bool(p_hit);
      c.issuable = rng.next_bool(p_issuable);
      c.cmd = !c.row_hit   ? (rng.next_bool(0.5) ? Command::kActivate
                                                 : Command::kPrecharge)
              : c.is_write ? Command::kWrite
                           : Command::kRead;
    }
    // Each capped policy waits up to twice its own cap, so its starvation
    // guard fires on about half the lists.
    const std::uint64_t wait = rng.next_below(2 * kFrCap);
    const std::uint64_t rf_wait = rng.next_below(2 * kRfCap);
    const std::uint64_t cycle = rng.next_below(1'000);
    const ListMasks l = masks_of(cs, kSlots);
    const QueueMasks m = l.view();

    ASSERT_EQ(pick_fcfs(m), listed_fcfs(cs)) << "list " << list;
    const std::size_t want_bank = listed_fcfs_per_bank(cs);
    ASSERT_EQ(pick_fcfs_per_bank(m), want_bank) << "list " << list;
    const std::size_t want_fr = two_pass_fr_fcfs(cs, wait, kFrCap);
    ASSERT_EQ(pick_frfcfs(m, wait), want_fr) << "list " << list;
    const std::size_t want_rf =
        listed_read_first(cs, rf_wait, kReadFirstHighWatermark,
                          kReadFirstLowWatermark, kRfCap, rf_draining);
    ASSERT_EQ(pick_read_first(m, rf_wait, draining), want_rf)
        << "list " << list;
    ASSERT_EQ(draining, rf_draining) << "list " << list;
    const std::size_t want_tdm = two_pass_tdm(cs, cycle, kSlotCycles, kSlots);
    ASSERT_EQ(pick_tdm(m, cycle, kSlotCycles, kSlots), want_tdm)
        << "list " << list;

    if (want_rf != kNoPick && rf_wait > kRfCap) ++rf_starved;
    if (want_fr == kNoPick) {
      ++none;
    } else if (wait > kFrCap) {
      ++starved;
    } else {
      ++(cs[want_fr].row_hit ? hit_picks : miss_picks);
    }
    for (const std::size_t want : {want_bank, want_fr, want_rf, want_tdm}) {
      if (want != kNoPick && want >= 64) ++past_word;
    }
    drains += rf_draining ? 1u : 0u;
  }
  // Every branch of the FR-FCFS definition was taken many times, and
  // ReadFirst's starvation guard too.
  EXPECT_GT(starved, 1'000u);
  EXPECT_GT(rf_starved, 1'000u);
  EXPECT_GT(hit_picks, 1'000u);
  EXPECT_GT(miss_picks, 200u);
  EXPECT_GT(none, 100u);
  // Picks past the first mask word, and both ReadFirst regimes.
  EXPECT_GT(past_word, 500u);
  EXPECT_GT(drains, 1'000u);
  EXPECT_LT(drains, 9'000u);
}

}  // namespace
}  // namespace edsim::dram
