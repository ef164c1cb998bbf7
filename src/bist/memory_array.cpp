#include "bist/memory_array.hpp"

#include "common/error.hpp"

namespace edsim::bist {

MemoryArray::MemoryArray(unsigned rows, unsigned cols)
    : rows_(rows), cols_(cols),
      bits_(static_cast<std::size_t>(rows) * cols, 0),
      fault_flags_(bits_.size(), 0) {
  require(rows >= 1 && cols >= 1, "memory array: degenerate geometry");
}

void MemoryArray::inject(const Fault& f) {
  require(f.victim.row < rows_ && f.victim.col < cols_,
          "memory array: fault victim out of range");
  const std::size_t fi = faults_.size();
  faults_.push_back(f);
  by_victim_[idx(f.victim.row, f.victim.col)].push_back(fi);
  fault_flags_[idx(f.victim.row, f.victim.col)] |= kVictim;
  if (f.kind == FaultKind::kCouplingInversion ||
      f.kind == FaultKind::kCouplingIdempotent ||
      f.kind == FaultKind::kAddressFault) {
    require(f.aggressor.row < rows_ && f.aggressor.col < cols_,
            "memory array: fault aggressor out of range");
    by_aggressor_[idx(f.aggressor.row, f.aggressor.col)].push_back(fi);
    fault_flags_[idx(f.aggressor.row, f.aggressor.col)] |= kAggressor;
  }
  if (f.kind == FaultKind::kRetention) {
    last_write_ms_[idx(f.victim.row, f.victim.col)] = now_ms_;
  }
}

void MemoryArray::apply_aggressor_transitions(unsigned /*row*/,
                                              unsigned /*col*/, bool old_v,
                                              bool new_v,
                                              const std::vector<std::size_t>&
                                                  fault_indices) {
  const bool rising = !old_v && new_v;
  const bool falling = old_v && !new_v;
  if (!rising && !falling) return;
  for (std::size_t fi : fault_indices) {
    const Fault& f = faults_[fi];
    const bool triggered = f.aggressor_rising ? rising : falling;
    if (!triggered) continue;
    if (f.kind == FaultKind::kCouplingInversion) {
      raw_set(f.victim.row, f.victim.col,
              !raw_get(f.victim.row, f.victim.col));
    } else if (f.kind == FaultKind::kCouplingIdempotent) {
      raw_set(f.victim.row, f.victim.col, f.forced_value);
    }
  }
}

void MemoryArray::write(unsigned row, unsigned col, bool v) {
  require(row < rows_ && col < cols_, "memory array: write out of range");
  const std::size_t cell = idx(row, col);
  const bool old_v = raw_get(row, col);
  const std::uint8_t flags = fault_flags_[cell];
  bool effective = v;

  if (flags & kVictim) {
    for (std::size_t fi : by_victim_.find(cell)->second) {
      const Fault& f = faults_[fi];
      switch (f.kind) {
        case FaultKind::kStuckAt0: effective = false; break;
        case FaultKind::kStuckAt1: effective = true; break;
        case FaultKind::kTransitionUp:
          if (!old_v && v) effective = false;  // 0 -> 1 blocked
          break;
        case FaultKind::kTransitionDown:
          if (old_v && !v) effective = true;  // 1 -> 0 blocked
          break;
        case FaultKind::kRetention:
          last_write_ms_[cell] = now_ms_;  // write refreshes the cell
          break;
        default:
          break;
      }
    }
  }
  raw_set(row, col, effective);

  if (flags & kAggressor) {
    const std::vector<std::size_t>& fis = by_aggressor_.find(cell)->second;
    apply_aggressor_transitions(row, col, old_v, effective, fis);
    // Address-decoder shorts mirror *every* write into the victim cell,
    // transition or not.
    for (std::size_t fi : fis) {
      const Fault& f = faults_[fi];
      if (f.kind == FaultKind::kAddressFault) {
        raw_set(f.victim.row, f.victim.col, effective);
      }
    }
  }
}

bool MemoryArray::read(unsigned row, unsigned col) {
  require(row < rows_ && col < cols_, "memory array: read out of range");
  const std::size_t cell = idx(row, col);
  bool v = raw_get(row, col);
  if (fault_flags_[cell] & kVictim) {
    for (std::size_t fi : by_victim_.find(cell)->second) {
      const Fault& f = faults_[fi];
      switch (f.kind) {
        case FaultKind::kStuckAt0: v = false; break;
        case FaultKind::kStuckAt1: v = true; break;
        case FaultKind::kRetention: {
          const double held = now_ms_ - last_write_ms_[cell];
          if (held > f.decay_ms) {
            v = f.forced_value;
            raw_set(row, col, v);  // the charge is gone for good
          }
          break;
        }
        default:
          break;
      }
    }
  }
  return v;
}

}  // namespace edsim::bist
