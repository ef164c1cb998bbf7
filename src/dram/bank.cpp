#include "dram/bank.hpp"

#include "common/snapshot.hpp"

namespace edsim::dram {

const char* to_string(Command c) {
  switch (c) {
    case Command::kActivate: return "ACT";
    case Command::kPrecharge: return "PRE";
    case Command::kRead: return "RD";
    case Command::kWrite: return "WR";
    case Command::kRefresh: return "REF";
    case Command::kMaintStart: return "MAINT";
    case Command::kMaintEnd: return "MAINT-END";
  }
  return "?";
}

const char* to_string(AccessType t) {
  return t == AccessType::kRead ? "R" : "W";
}

void Bank::save(SnapshotWriter& w) const {
  w.u64(static_cast<std::uint64_t>(state_));
  w.u64(open_row_);
  w.u64(next_act_);
  w.u64(next_pre_);
  w.u64(next_col_);
  w.u64(acts_);
  w.u64(pres_);
}

void Bank::load(SnapshotReader& r) {
  const std::uint64_t st = r.u64();
  if (st > static_cast<std::uint64_t>(State::kActive)) {
    r.fail("bank state out of range");
  }
  state_ = static_cast<State>(st);
  open_row_ = static_cast<unsigned>(r.u64());
  next_act_ = r.u64();
  next_pre_ = r.u64();
  next_col_ = r.u64();
  acts_ = r.u64();
  pres_ = r.u64();
}

}  // namespace edsim::dram
