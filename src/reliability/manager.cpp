#include "reliability/manager.hpp"

#include <algorithm>
#include <cstdio>

#include "common/error.hpp"
#include "common/snapshot.hpp"

namespace edsim::reliability {

const char* to_string(EventKind k) {
  switch (k) {
    case EventKind::kInject: return "inject";
    case EventKind::kDemandCorrect: return "demand-correct";
    case EventKind::kScrubCorrect: return "scrub-correct";
    case EventKind::kWriteRepair: return "write-repair";
    case EventKind::kUncorrectable: return "uncorrectable";
    case EventKind::kRemap: return "remap";
    case EventKind::kRetire: return "retire";
    case EventKind::kNeighborRefresh: return "neighbor-refresh";
    case EventKind::kBinSweep: return "bin-sweep";
  }
  return "?";
}

std::string ReliabilityEvent::describe() const {
  char buf[96];
  std::snprintf(buf, sizeof buf, "cycle %llu: %s bank %u row %u bit %u",
                static_cast<unsigned long long>(cycle), to_string(kind), bank,
                row, bit);
  return buf;
}

void ReliabilityConfig::validate() const {
  require(scrub_rows_per_refresh >= 1,
          "reliability: scrub_rows_per_refresh must be >= 1");
  require(remap_after_corrections >= 1,
          "reliability: remap_after_corrections must be >= 1");
  require(event_log_limit >= 1, "reliability: event_log_limit must be >= 1");
  if (maintenance.enabled) maintenance.validate();
}

ReliabilityManager::ReliabilityManager(const dram::DramConfig& dram_cfg,
                                       const ReliabilityConfig& cfg)
    : banks_(dram_cfg.banks),
      rows_(dram_cfg.rows_per_bank),
      page_bits_(dram_cfg.page_bytes * 8u),
      window_bits_(dram_cfg.bytes_per_access() * 8u),
      interface_bits_(dram_cfg.interface_bits),
      word_bits_(dram_cfg.ecc_word_bits),
      ecc_enabled_(dram_cfg.ecc_enabled),
      cfg_(cfg),
      injector_(dram_cfg, cfg.inject) {
  cfg_.validate();
  dram_cfg.validate();
  last_restore_.assign(static_cast<std::size_t>(banks_) * rows_, 0);
  alive_.assign(banks_, true);
  spares_left_.assign(banks_, cfg_.spare_rows_per_bank);
  plans_.resize(banks_);
  for (auto& p : plans_) p.feasible = true;
  if (cfg_.maintenance.enabled) {
    engine_ = std::make_unique<MaintenanceEngine>(dram_cfg, cfg_.maintenance,
                                                  injector_);
  }
}

void ReliabilityManager::restore_row(unsigned bank, unsigned row,
                                     std::uint64_t cycle) {
  last_restore_[row_key(bank, row)] = cycle;
  if (!disturb_.empty()) disturb_.erase(row_key(bank, row));
}

void ReliabilityManager::record(std::uint64_t cycle, EventKind kind,
                                unsigned bank, unsigned row,
                                std::uint32_t bit) {
  const ReliabilityEvent ev{cycle, kind, bank, row, bit};
  if (observer_) observer_(ev);
  if (log_.size() >= cfg_.event_log_limit) {
    log_overflow_ = true;
    return;
  }
  log_.push_back(ev);
}

void ReliabilityManager::apply_fault(const InjectedFault& f) {
  if (!alive_[f.bank]) return;
  RowState& st = faulty_rows_[row_key(f.bank, f.row)];
  if (std::find(st.bad_bits.begin(), st.bad_bits.end(), f.bit) !=
      st.bad_bits.end()) {
    return;  // cell already holds a wrong value
  }
  st.bad_bits.push_back(f.bit);
  ++counters_.injected;
  record(f.cycle, EventKind::kInject, f.bank, f.row, f.bit);
}

void ReliabilityManager::materialize(unsigned bank, unsigned row,
                                     std::uint64_t cycle) {
  const std::uint64_t last = last_restore_[row_key(bank, row)];
  scratch_.clear();
  injector_.materialize_retention(bank, row, cycle - last, cycle, scratch_);
  for (const InjectedFault& f : scratch_) apply_fault(f);
}

void ReliabilityManager::on_cycle(std::uint64_t cycle) {
  scratch_.clear();
  injector_.sample_transients(cycle, alive_, scratch_);
  for (const InjectedFault& f : scratch_) apply_fault(f);
}

void ReliabilityManager::on_idle_cycles(std::uint64_t first,
                                        std::uint64_t last) {
  if (last == first) return;
  // One sampling call covers the whole skipped stretch. The injector
  // stamps each transient with its arrival cycle and the stretch is
  // access-free by construction, so the resulting apply_fault sequence —
  // and therefore the event log — is identical to per-cycle sampling.
  on_cycle(last - 1);
}

dram::AccessOutcome ReliabilityManager::evaluate_window(
    unsigned bank, unsigned row, std::uint32_t lo_bit, std::uint32_t hi_bit,
    std::uint64_t cycle, bool scrub, bool& wants_remap) {
  const auto it = faulty_rows_.find(row_key(bank, row));
  if (it == faulty_rows_.end()) return dram::AccessOutcome::kClean;
  RowState& st = it->second;

  // Collect live faults inside the window, grouped by ECC word.
  std::vector<std::uint32_t> hit;
  for (std::uint32_t b : st.bad_bits) {
    if (b >= lo_bit && b < hi_bit) hit.push_back(b);
  }
  if (hit.empty()) return dram::AccessOutcome::kClean;

  dram::AccessOutcome outcome = dram::AccessOutcome::kClean;

  if (!ecc_enabled_) {
    // No corrector: the access returns corrupted data, undetected by the
    // hardware. We still dispose the faults (each counted once) and tag
    // the request so harnesses can measure the data loss.
    for (std::uint32_t b : hit) {
      ++counters_.uncorrected;
      record(cycle, EventKind::kUncorrectable, bank, row, b);
    }
    ++counters_.uncorrectable_events;
    outcome = dram::AccessOutcome::kUncorrectable;
  } else {
    // SEC-DED per word: one bad bit is corrected (and scrub/demand writes
    // the fix back); two or more in the same word are detect-only.
    std::sort(hit.begin(), hit.end());
    std::size_t i = 0;
    while (i < hit.size()) {
      const std::uint32_t word = hit[i] / word_bits_;
      std::size_t j = i;
      while (j < hit.size() && hit[j] / word_bits_ == word) ++j;
      const std::size_t k = j - i;
      if (k == 1) {
        ++counters_.corrected;
        ++st.corrections;
        if (scrub) {
          ++counters_.scrub_corrections;
        } else {
          ++counters_.demand_corrections;
        }
        record(cycle,
               scrub ? EventKind::kScrubCorrect : EventKind::kDemandCorrect,
               bank, row, hit[i]);
        if (outcome == dram::AccessOutcome::kClean) {
          outcome = dram::AccessOutcome::kCorrected;
        }
      } else {
        for (std::size_t m = i; m < j; ++m) {
          ++counters_.uncorrected;
          record(cycle, EventKind::kUncorrectable, bank, row, hit[m]);
        }
        ++counters_.uncorrectable_events;
        outcome = dram::AccessOutcome::kUncorrectable;
        wants_remap = true;
      }
      i = j;
    }
    if (st.corrections >= cfg_.remap_after_corrections) wants_remap = true;
  }

  // Remove the disposed bits from the live set.
  auto& bits = st.bad_bits;
  bits.erase(std::remove_if(bits.begin(), bits.end(),
                            [&](std::uint32_t b) {
                              return b >= lo_bit && b < hi_bit;
                            }),
             bits.end());
  if (bits.empty() && st.corrections == 0) {
    faulty_rows_.erase(it);
  }
  return outcome;
}

dram::AccessOutcome ReliabilityManager::on_access(const dram::Coordinates& c,
                                                  dram::AccessType type,
                                                  std::uint64_t cycle) {
  if (!alive_[c.bank]) return dram::AccessOutcome::kClean;
  materialize(c.bank, c.row, cycle);

  const std::uint32_t lo = c.column * interface_bits_;
  const std::uint32_t hi =
      std::min<std::uint32_t>(lo + window_bits_, page_bits_);

  dram::AccessOutcome outcome = dram::AccessOutcome::kClean;
  if (type == dram::AccessType::kWrite) {
    // A write overwrites the window's cells with freshly encoded data:
    // stored faults under it are gone regardless of ECC.
    const auto it = faulty_rows_.find(row_key(c.bank, c.row));
    if (it != faulty_rows_.end()) {
      auto& bits = it->second.bad_bits;
      for (std::uint32_t b : bits) {
        if (b >= lo && b < hi) {
          ++counters_.corrected;
          ++counters_.write_repairs;
          record(cycle, EventKind::kWriteRepair, c.bank, c.row, b);
          outcome = dram::AccessOutcome::kCorrected;
        }
      }
      bits.erase(std::remove_if(bits.begin(), bits.end(),
                                [&](std::uint32_t b) {
                                  return b >= lo && b < hi;
                                }),
                 bits.end());
      if (bits.empty() && it->second.corrections == 0) {
        faulty_rows_.erase(it);
      }
    }
  } else {
    bool wants_remap = false;
    outcome = evaluate_window(c.bank, c.row, lo, hi, cycle, false,
                              wants_remap);
    if (wants_remap && cfg_.remap_enabled) remap_row(c.bank, c.row, cycle);
  }

  // The activation that opened this row sensed and rewrote the whole
  // page, restarting its retention clock (and clearing disturbance).
  restore_row(c.bank, c.row, cycle);
  return outcome;
}

void ReliabilityManager::scrub_row(unsigned bank, unsigned row,
                                   std::uint64_t cycle) {
  materialize(bank, row, cycle);
  bool wants_remap = false;
  evaluate_window(bank, row, 0, page_bits_, cycle, true, wants_remap);
  if (wants_remap && cfg_.remap_enabled) remap_row(bank, row, cycle);
  restore_row(bank, row, cycle);
  ++counters_.scrubbed_rows;
}

void ReliabilityManager::on_refresh(std::uint64_t cycle) {
  // One REF refreshes the next row (round robin) in every bank: weak
  // cells that decayed during the elapsed window now hold wrong values
  // (refresh faithfully rewrites the corrupted charge), and the row's
  // retention clock restarts.
  for (unsigned b = 0; b < banks_; ++b) {
    if (!alive_[b]) continue;
    materialize(b, refresh_ptr_, cycle);
    restore_row(b, refresh_ptr_, cycle);
  }
  refresh_ptr_ = (refresh_ptr_ + 1) % rows_;

  // Patrol scrub piggybacks on the refresh slot: sweep the next rows
  // through the ECC datapath and write corrections back.
  if (!cfg_.scrub_enabled || !ecc_enabled_) return;
  for (unsigned s = 0; s < cfg_.scrub_rows_per_refresh; ++s) {
    for (unsigned b = 0; b < banks_; ++b) {
      if (alive_[b]) scrub_row(b, scrub_ptr_, cycle);
    }
    scrub_ptr_ = (scrub_ptr_ + 1) % rows_;
  }
}

void ReliabilityManager::remap_row(unsigned bank, unsigned row,
                                   std::uint64_t cycle) {
  if (!alive_[bank]) return;
  const std::uint64_t key = row_key(bank, row);
  if (spares_left_[bank] > 0) {
    --spares_left_[bank];
    ++counters_.rows_remapped;
    plans_[bank].replaced_rows.push_back(row);
    const auto it = faulty_rows_.find(key);
    if (it != faulty_rows_.end()) {
      // Faults still stored in the dead row leave the array with it.
      counters_.remapped += it->second.bad_bits.size();
      faulty_rows_.erase(it);
    }
    injector_.drop_row(bank, row);  // the spare row is healthy
    restore_row(bank, row, cycle);
    record(cycle, EventKind::kRemap, bank, row, 0);
  } else if (cfg_.retire_enabled) {
    retire_bank(bank, cycle);
  }
  // Spares gone and retirement disabled: the row stays in service and
  // keeps producing errors — the caller's counters show it.
}

void ReliabilityManager::retire_bank(unsigned bank, std::uint64_t cycle) {
  if (!alive_[bank]) return;
  alive_[bank] = false;
  ++counters_.banks_retired;
  plans_[bank].feasible = false;  // ran out of repair resources
  for (unsigned r = 0; r < rows_; ++r) {
    const auto it = faulty_rows_.find(row_key(bank, r));
    if (it != faulty_rows_.end()) {
      counters_.remapped += it->second.bad_bits.size();
      faulty_rows_.erase(it);
    }
  }
  injector_.drop_bank(bank);
  if (engine_) engine_->drop_bank(bank);
  record(cycle, EventKind::kRetire, bank, 0, 0);
}

void ReliabilityManager::on_activate(unsigned bank, unsigned row,
                                     std::uint64_t cycle) {
  if (!alive_[bank]) return;
  const unsigned flip_t = injector_.hammer_flip_threshold();
  if (flip_t != 0) {
    // Each ACT disturbs the two physically adjacent rows; a victim's
    // accumulated disturbance resets whenever its cells are rewritten
    // (restore_row). Crossing a multiple of the flip threshold flips one
    // deterministically chosen bit.
    for (int d = -1; d <= 1; d += 2) {
      if (d < 0 && row == 0) continue;
      const unsigned victim = d < 0 ? row - 1 : row + 1;
      if (victim >= rows_) continue;
      const std::uint32_t n = ++disturb_[row_key(bank, victim)];
      max_disturb_ = std::max(max_disturb_, n);
      if (n % flip_t == 0) {
        InjectedFault f;
        f.cycle = cycle;
        f.cls = FaultClass::kDisturb;
        f.bank = bank;
        f.row = victim;
        f.bit = injector_.hammer_bit(bank, victim, n);
        ++counters_.disturb_flips;
        apply_fault(f);
        if (cfg_.hammer_remap_after_flips != 0 && cfg_.remap_enabled &&
            n / flip_t >= cfg_.hammer_remap_after_flips) {
          // Chronic victim: escalate to the graceful-degradation ladder.
          remap_row(bank, victim, cycle);
        }
      }
    }
  }
  if (engine_ && self_managed_) engine_->record_activation(bank, row, cycle);
}

unsigned ReliabilityManager::maintenance_claim(unsigned bank,
                                               std::uint64_t cycle) {
  if (!self_managed() || !alive_[bank]) return 0;
  const MaintenanceEngine::Claim c = engine_->claim(bank, cycle);
  if (c.kind == MaintenanceEngine::Claim::Kind::kNone) return 0;
  ++counters_.maint_ops;
  if (c.kind == MaintenanceEngine::Claim::Kind::kNeighbor) {
    for (const unsigned v : c.rows) {
      // The defense rewrites the victim before its disturbance can reach
      // the flip threshold; like any refresh it latches cells that had
      // already decayed.
      materialize(bank, v, cycle);
      restore_row(bank, v, cycle);
      ++counters_.neighbor_rows;
      record(cycle, EventKind::kNeighborRefresh, bank, v, 0);
    }
  } else {
    for (const unsigned r : c.rows) {
      if (cfg_.scrub_enabled && ecc_enabled_) {
        scrub_row(bank, r, cycle);  // sweep doubles as patrol scrub
      } else {
        materialize(bank, r, cycle);
        restore_row(bank, r, cycle);
      }
    }
    counters_.maint_rows += c.rows.size();
    record(cycle, EventKind::kBinSweep, bank,
           c.rows.empty() ? 0 : c.rows.front(),
           static_cast<std::uint32_t>(c.rows.size()));
  }
  return c.duration;
}

void ReliabilityManager::inject_fault(unsigned bank, unsigned row,
                                      std::uint32_t bit, std::uint64_t cycle,
                                      FaultClass cls) {
  require(bank < banks_ && row < rows_ && bit < page_bits_,
          "reliability: inject_fault out of range");
  InjectedFault f;
  f.cycle = cycle;
  f.cls = cls;
  f.bank = bank;
  f.row = row;
  f.bit = bit;
  apply_fault(f);
}

void ReliabilityManager::import_fault_map(const bist::FailBitmap& bitmap,
                                          unsigned bank,
                                          double retention_frac) {
  injector_.import_fault_map(bitmap, bank, retention_frac);
  if (engine_) engine_->rebuild_bins(injector_);
}

void ReliabilityManager::finalize(std::uint64_t cycle) {
  // Dispose every latent fault with one closing patrol pass (no new
  // materialization — only what is already stored). Idempotent.
  std::vector<std::uint64_t> keys;
  keys.reserve(faulty_rows_.size());
  for (const auto& [key, st] : faulty_rows_) {
    if (!st.bad_bits.empty()) keys.push_back(key);
  }
  std::sort(keys.begin(), keys.end());  // deterministic order
  for (const std::uint64_t key : keys) {
    const auto bank = static_cast<unsigned>(key / rows_);
    const auto row = static_cast<unsigned>(key % rows_);
    if (!alive_[bank]) continue;
    bool wants_remap = false;
    evaluate_window(bank, row, 0, page_bits_, cycle, true, wants_remap);
  }
}

std::uint64_t ReliabilityManager::live_faults() const {
  std::uint64_t n = 0;
  for (const auto& [key, st] : faulty_rows_) n += st.bad_bits.size();
  return n;
}

void ReliabilityManager::save(SnapshotWriter& w) const {
  counters_.save(w);

  std::vector<std::uint64_t> keys;
  keys.reserve(faulty_rows_.size());
  for (const auto& [key, st] : faulty_rows_) keys.push_back(key);
  std::sort(keys.begin(), keys.end());
  w.u64(keys.size());
  for (const std::uint64_t key : keys) {
    const RowState& st = faulty_rows_.at(key);
    w.u64(key);
    w.u64(st.bad_bits.size());
    for (const std::uint32_t b : st.bad_bits) w.u32(b);
    w.u32(st.corrections);
  }

  for (const std::uint64_t c : last_restore_) w.u64(c);
  for (unsigned b = 0; b < banks_; ++b) w.boolean(alive_[b]);
  for (const unsigned s : spares_left_) w.u32(s);
  for (const bist::RepairPlan& p : plans_) {
    w.boolean(p.feasible);
    w.u64(p.replaced_rows.size());
    for (const unsigned r : p.replaced_rows) w.u32(r);
    w.u64(p.replaced_cols.size());
    for (const unsigned c : p.replaced_cols) w.u32(c);
  }

  w.u32(refresh_ptr_);
  w.u32(scrub_ptr_);

  w.boolean(engine_ != nullptr);
  if (engine_) engine_->save(w);

  keys.clear();
  keys.reserve(disturb_.size());
  for (const auto& [key, n] : disturb_) keys.push_back(key);
  std::sort(keys.begin(), keys.end());
  w.u64(keys.size());
  for (const std::uint64_t key : keys) {
    w.u64(key);
    w.u32(disturb_.at(key));
  }
  w.u32(max_disturb_);

  w.u64(log_.size());
  for (const ReliabilityEvent& ev : log_) {
    w.u64(ev.cycle);
    w.u32(static_cast<std::uint32_t>(ev.kind));
    w.u32(ev.bank);
    w.u32(ev.row);
    w.u32(ev.bit);
  }
  w.boolean(log_overflow_);

  injector_.save(w);
}

void ReliabilityManager::load(SnapshotReader& r) {
  counters_.load(r);

  const std::uint64_t key_end = static_cast<std::uint64_t>(banks_) * rows_;
  faulty_rows_.clear();
  const std::uint64_t n_rows = r.u64();
  for (std::uint64_t i = 0; i < n_rows; ++i) {
    const std::uint64_t key = r.u64();
    if (key >= key_end) r.fail("faulty-row key out of range");
    RowState& st = faulty_rows_[key];
    const std::uint64_t n_bits = r.u64();
    // Bits and replaced rows/columns are u32 varints: at least one byte.
    if (n_bits > r.remaining()) r.fail("faulty-bit count exceeds payload");
    st.bad_bits.reserve(n_bits);
    for (std::uint64_t j = 0; j < n_bits; ++j) {
      const std::uint32_t b = r.u32();
      if (b >= page_bits_) r.fail("faulty bit out of range");
      st.bad_bits.push_back(b);
    }
    st.corrections = r.u32();
  }

  for (std::uint64_t& c : last_restore_) c = r.u64();
  for (unsigned b = 0; b < banks_; ++b) alive_[b] = r.boolean();
  for (unsigned& s : spares_left_) s = r.u32();
  for (bist::RepairPlan& p : plans_) {
    p.feasible = r.boolean();
    p.replaced_rows.clear();
    const std::uint64_t nr = r.u64();
    if (nr > r.remaining()) r.fail("replaced-row count exceeds payload");
    p.replaced_rows.reserve(nr);
    for (std::uint64_t i = 0; i < nr; ++i) p.replaced_rows.push_back(r.u32());
    p.replaced_cols.clear();
    const std::uint64_t nc = r.u64();
    if (nc > r.remaining()) r.fail("replaced-column count exceeds payload");
    p.replaced_cols.reserve(nc);
    for (std::uint64_t i = 0; i < nc; ++i) p.replaced_cols.push_back(r.u32());
  }

  refresh_ptr_ = r.u32();
  if (refresh_ptr_ >= rows_) r.fail("refresh pointer out of range");
  scrub_ptr_ = r.u32();
  if (scrub_ptr_ >= rows_) r.fail("scrub pointer out of range");

  const bool has_engine = r.boolean();
  if (has_engine != (engine_ != nullptr)) {
    r.fail("maintenance engine presence mismatch");
  }
  if (engine_) {
    engine_->load(r);
    // Retiring a bank drops it from the engine; maintenance_banks relies
    // on that to keep retired banks out of its masks.
    for (unsigned b = 0; b < banks_; ++b) {
      if (!alive_[b] && !engine_->dropped(b)) {
        r.fail("retired bank still scheduled for maintenance");
      }
    }
  }

  disturb_.clear();
  const std::uint64_t n_disturb = r.u64();
  for (std::uint64_t i = 0; i < n_disturb; ++i) {
    const std::uint64_t key = r.u64();
    if (key >= key_end) r.fail("disturbance row key out of range");
    disturb_[key] = r.u32();
  }
  max_disturb_ = r.u32();

  log_.clear();
  const std::uint64_t n_events = r.u64();
  // An event is at least five one-byte varints (cycle, kind, bank, row,
  // bit).
  if (n_events > r.remaining() / 5) r.fail("event count exceeds payload");
  log_.reserve(n_events);
  for (std::uint64_t i = 0; i < n_events; ++i) {
    ReliabilityEvent ev;
    ev.cycle = r.u64();
    const std::uint32_t kind = r.u32();
    if (kind > static_cast<std::uint32_t>(EventKind::kBinSweep)) {
      r.fail("reliability event kind out of range");
    }
    ev.kind = static_cast<EventKind>(kind);
    ev.bank = r.u32();
    ev.row = r.u32();
    ev.bit = r.u32();
    log_.push_back(ev);
  }
  log_overflow_ = r.boolean();

  injector_.load(r);
  scratch_.clear();
}

double ReliabilityManager::scrub_coverage() const {
  const double total = static_cast<double>(banks_) * rows_;
  return total > 0.0 ? static_cast<double>(counters_.scrubbed_rows) / total
                     : 0.0;
}

}  // namespace edsim::reliability
