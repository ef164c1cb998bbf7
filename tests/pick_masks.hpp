#pragma once

// Scheduler policies pick from queue-position bitmasks (dram::QueueMasks).
// Tests write the queue out as a list of candidates instead, one per
// queued request in age order, and build the masks from it here:
// `pick_fcfs(masks_of(cs).view())`.

#include <cstdint>
#include <vector>

#include "dram/request.hpp"
#include "dram/scheduler.hpp"

namespace edsim::dram {

/// One queued request as a policy sees it in a round.
struct Candidate {
  std::size_t queue_index = 0;       ///< its position (the list index)
  unsigned bank = 0;
  unsigned client_id = 0;            ///< issuing client (TDM slot ownership)
  Command cmd = Command::kActivate;  ///< next command this request needs
  bool row_hit = false;              ///< cmd is a column command to an open row
  bool issuable = false;             ///< all timing constraints met this cycle
  bool is_write = false;             ///< underlying request is a write
};

/// Owning storage for the masks of a written list.
struct ListMasks {
  std::size_t words = 1;
  std::vector<std::uint64_t> issuable, hit, writes, heads, owners;

  QueueMasks view() const {
    QueueMasks m;
    m.words = words;
    m.issuable = issuable.data();
    m.hit = hit.data();
    m.writes = writes.data();
    m.heads = heads.data();
    m.owners = owners.data();
    return m;
  }
};

/// The masks of `cs`, with TDM owner masks for `slots` slots.
inline ListMasks masks_of(const std::vector<Candidate>& cs,
                          unsigned slots = 1) {
  ListMasks l;
  l.words = cs.empty() ? 1 : (cs.size() + 63) / 64;
  for (auto* m : {&l.issuable, &l.hit, &l.writes, &l.heads}) {
    m->assign(l.words, 0);
  }
  l.owners.assign(slots * l.words, 0);
  std::vector<bool> seen_bank;
  for (std::size_t p = 0; p < cs.size(); ++p) {
    const Candidate& c = cs[p];
    const std::uint64_t bit = std::uint64_t{1} << (p % 64);
    const std::size_t w = p / 64;
    if (c.issuable) l.issuable[w] |= bit;
    if (c.row_hit) l.hit[w] |= bit;
    if (c.is_write) l.writes[w] |= bit;
    if (c.bank >= seen_bank.size()) seen_bank.resize(c.bank + 1, false);
    if (!seen_bank[c.bank]) l.heads[w] |= bit;
    seen_bank[c.bank] = true;
    l.owners[(c.client_id % slots) * l.words + w] |= bit;
  }
  return l;
}

}  // namespace edsim::dram
