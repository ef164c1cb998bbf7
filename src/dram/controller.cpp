#include "dram/controller.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>

#include "common/error.hpp"
#include "common/snapshot.hpp"

namespace edsim::dram {

namespace {
/// a - b clamped at zero (timing releases saturate at cycle 0).
std::uint64_t sat_sub(std::uint64_t a, std::uint64_t b) {
  return a > b ? a - b : 0;
}

// --- queue-position bitmasks (bit p of word p / 64 = queue position p) ---

void set_bit(std::uint64_t* m, std::size_t pos) {
  m[pos / 64] |= std::uint64_t{1} << (pos % 64);
}

bool test_bit(const std::uint64_t* m, std::size_t pos) {
  return (m[pos / 64] >> (pos % 64) & 1) != 0;
}

/// Any position set in (a & b)?
bool any_and(const std::uint64_t* a, const std::uint64_t* b,
             std::size_t words) {
  for (std::size_t w = 0; w < words; ++w) {
    if ((a[w] & b[w]) != 0) return true;
  }
  return false;
}

/// Remove position `pos`: the bits above it move down one place, carried
/// across word boundaries.
void squeeze(std::uint64_t* m, std::size_t words, std::size_t pos) {
  const std::size_t k = pos / 64;
  const std::uint64_t low = (std::uint64_t{1} << (pos % 64)) - 1;
  m[k] = (m[k] & low) | ((m[k] >> 1) & ~low);
  for (std::size_t w = k + 1; w < words; ++w) {
    m[w - 1] |= m[w] << 63;
    m[w] >>= 1;
  }
}
}  // namespace

Controller::Controller(const DramConfig& cfg)
    : cfg_(cfg),
      mapper_(cfg),
      refresh_(cfg_.timing, cfg.refresh_enabled, cfg.refresh_burst) {
  cfg_.validate();
  banks_.reserve(cfg_.banks);
  for (unsigned b = 0; b < cfg_.banks; ++b) banks_.emplace_back(cfg_.timing);
  last_col_cycle_.assign(cfg_.banks, 0);
  maint_until_.assign(cfg_.banks, 0);
  mask_words_ = (cfg_.queue_depth + 63) / 64;
  bank_queued_.assign(cfg_.banks * mask_words_, 0);
  hit_mask_.assign(mask_words_, 0);
  write_mask_.assign(mask_words_, 0);
  if (cfg_.scheduler == SchedulerKind::kTdm) {
    owner_mask_.assign(cfg_.tdm_clients * mask_words_, 0);
  }
  issuable_.assign(mask_words_, 0);
  heads_.assign(mask_words_, 0);
}

void Controller::log_command(const CommandRecord& rec) {
  if (command_log_ != nullptr) command_log_->record(rec);
  EDSIM_TELEMETRY(telemetry_, on_command(rec));
}

TickSample Controller::tick_sample() const {
  TickSample s;
  s.cycle = cycle_;
  s.queue_depth = static_cast<std::uint32_t>(queue_.size());
  std::uint32_t open = 0;
  for (const Bank& b : banks_) open += b.has_open_row() ? 1u : 0u;
  s.open_banks = open;
  return s;
}

void Controller::notify_tick() {
  if (telemetry_ != nullptr) telemetry_->on_cycle_advance(tick_sample(), stats_);
}

void Controller::attach_reliability(ReliabilityHooks* hooks) {
  hooks_ = hooks;
  // Self-managed maintenance replaces the tREFI REF sweep. The flag is
  // sampled once here (toggle the hooks' switch before attaching).
  self_managed_ = hooks_ != nullptr && hooks_->self_managed();
  refresh_.set_self_managed(self_managed_);
}

bool Controller::all_banks_retired() const {
  if (hooks_ == nullptr) return false;
  for (unsigned b = 0; b < cfg_.banks; ++b) {
    if (!hooks_->bank_retired(b)) return false;
  }
  return true;
}

bool Controller::enqueue(Request req) {
  if (queue_full()) return false;
  req.id = next_id_++;
  req.arrival_cycle = cycle_;
  QueueEntry e;
  e.coord = mapper_.decode(req.addr);
  e.req = req;
  if (hooks_ != nullptr && hooks_->bank_retired(e.coord.bank)) {
    // Graceful degradation: steer around the dead bank. Capacity is lost
    // (aliasing into the fallback bank), but traffic keeps flowing.
    unsigned fallback = e.coord.bank;
    for (unsigned i = 1; i < cfg_.banks; ++i) {
      const unsigned b = (e.coord.bank + i) % cfg_.banks;
      if (!hooks_->bank_retired(b)) {
        fallback = b;
        break;
      }
    }
    if (fallback == e.coord.bank) return false;  // every bank is gone
    e.coord.bank = fallback;
    ++stats_.redirected_requests;
  }
  if (cfg_.watchdog_enabled) {
    e.wd_deadline = cycle_ + cfg_.watchdog_cycles;
  }
  queue_.push_back(e);
  mark_queued(queue_.size() - 1);
  EDSIM_TELEMETRY(telemetry_, on_request_enqueued(queue_.back().req,
                                                  queue_.back().coord, cycle_));
  return true;
}

void Controller::reset_stats() {
  stats_ = ControllerStats{};
}

void Controller::classify(QueueEntry& e, const Bank& bank) {
  if (e.classified) return;
  e.classified = true;
  if (bank.has_open_row() && bank.open_row() == e.coord.row) {
    ++stats_.row_hits;
  } else if (!bank.has_open_row()) {
    ++stats_.row_misses;
  } else {
    ++stats_.row_conflicts;
  }
}

std::uint64_t Controller::channel_act_release() const {
  const auto& t = cfg_.timing;
  std::uint64_t rel = 0;
  if (any_act_yet_) rel = last_act_cycle_ + t.tRRD;
  if (t.tFAW != 0 && recent_acts_.size() >= 4) {
    rel = std::max(rel, recent_acts_[recent_acts_.size() - 4] + t.tFAW);
  }
  return rel;
}

std::uint64_t Controller::channel_column_release(AccessType type) const {
  const auto& t = cfg_.timing;
  if (type == AccessType::kRead) {
    std::uint64_t rel = sat_sub(bus_busy_until_, t.tCL);
    if (any_data_yet_ && last_dir_ == AccessType::kWrite) {
      rel = std::max(rel, last_data_end_ + t.tWTR);
    }
    return rel;
  }
  std::uint64_t rel = sat_sub(bus_busy_until_, t.tWL);
  if (any_data_yet_ && last_dir_ == AccessType::kRead) {
    rel = std::max(rel, sat_sub(last_data_end_ + t.tRTW, t.tWL));
  }
  return rel;
}

bool Controller::channel_act_legal(std::uint64_t cycle) const {
  return cycle >= channel_act_release();
}

bool Controller::column_legal(AccessType type, std::uint64_t cycle) const {
  return cycle >= channel_column_release(type);
}

void Controller::mark_queued(std::size_t pos) {
  const QueueEntry& e = queue_[pos];
  const unsigned b = e.coord.bank;
  set_bit(bank_queued(b), pos);
  busy_banks_ |= std::uint64_t{1} << b;
  const Bank& bank = banks_[b];
  if (bank.has_open_row() && bank.open_row() == e.coord.row) {
    set_bit(hit_mask_.data(), pos);
  }
  if (e.req.type == AccessType::kWrite) set_bit(write_mask_.data(), pos);
  if (!owner_mask_.empty()) {
    set_bit(owner_mask_.data() + (e.req.client_id % cfg_.tdm_clients) *
                                     mask_words_,
            pos);
  }
}

void Controller::erase_queue_entry(std::size_t pos) {
  const std::size_t words = mask_words_;
  for (std::uint64_t bits = busy_banks_; bits != 0; bits &= bits - 1) {
    squeeze(bank_queued(static_cast<unsigned>(std::countr_zero(bits))), words,
            pos);
  }
  const unsigned b = queue_[pos].coord.bank;
  const std::uint64_t* queued = bank_queued(b);
  if (std::all_of(queued, queued + words,
                  [](std::uint64_t x) { return x == 0; })) {
    busy_banks_ &= ~(std::uint64_t{1} << b);
  }
  squeeze(hit_mask_.data(), words, pos);
  squeeze(write_mask_.data(), words, pos);
  for (std::size_t s = 0; s < owner_mask_.size(); s += words) {
    squeeze(owner_mask_.data() + s, words, pos);
  }
  queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(pos));
}

void Controller::mark_open_row_hits(unsigned b) {
  // The only walk over queue entries, and only over this bank's.
  const std::uint64_t* queued = bank_queued(b);
  const unsigned row = banks_[b].open_row();
  for (std::size_t w = 0; w < mask_words_; ++w) {
    std::uint64_t hits = hit_mask_[w] & ~queued[w];
    for (std::uint64_t bits = queued[w]; bits != 0; bits &= bits - 1) {
      const std::size_t pos = w * 64 + static_cast<std::size_t>(
                                           std::countr_zero(bits));
      if (queue_[pos].coord.row == row) hits |= bits & -bits;
    }
    hit_mask_[w] = hits;
  }
}

void Controller::close_row(unsigned b, unsigned client, bool logged) {
  banks_[b].issue(Command::kPrecharge, 0, cycle_);
  const std::uint64_t* queued = bank_queued(b);
  for (std::size_t w = 0; w < mask_words_; ++w) hit_mask_[w] &= ~queued[w];
  autopre_banks_ &= ~(std::uint64_t{1} << b);
  ++stats_.precharges;
  if (logged) {
    log_command(
        CommandRecord{cycle_, Command::kPrecharge, b, 0, client, false});
  }
}

bool Controller::open_row_wanted(unsigned b) const {
  return any_and(hit_mask_.data(), bank_queued(b), mask_words_);
}

// --- candidate construction -------------------------------------------------

QueueMasks Controller::build_candidates() {
  const std::size_t words = mask_words_;
  const std::uint64_t* hit = hit_mask_.data();
  const std::uint64_t* writes = write_mask_.data();
  std::fill(issuable_.begin(), issuable_.end(), 0);
  // One verdict per bank with queued work, applied to its positions as
  // words: row hits by direction, the rest by the bank's PRE or ACT.
  if (busy_banks_ != 0) {
    const bool rd_legal = column_legal(AccessType::kRead, cycle_);
    const bool wr_legal = column_legal(AccessType::kWrite, cycle_);
    const bool act_legal = channel_act_legal(cycle_);
    for (std::uint64_t bits = busy_banks_; bits != 0; bits &= bits - 1) {
      const auto b = static_cast<unsigned>(std::countr_zero(bits));
      if ((autopre_banks_ >> b & 1) != 0) continue;  // the bank is not free
      const Bank& bank = banks_[b];
      const std::uint64_t* queued = bank_queued(b);
      if (bank.has_open_row()) {
        const bool col = bank.can_issue(Command::kRead, cycle_);
        const std::uint64_t rd = col && rd_legal ? ~std::uint64_t{0} : 0;
        const std::uint64_t wr = col && wr_legal ? ~std::uint64_t{0} : 0;
        const std::uint64_t pre =
            bank.can_issue(Command::kPrecharge, cycle_) ? ~std::uint64_t{0}
                                                        : 0;
        for (std::size_t w = 0; w < words; ++w) {
          issuable_[w] |= queued[w] & ((hit[w] & ((writes[w] & wr) |
                                                  (~writes[w] & rd))) |
                                       (~hit[w] & pre));
        }
      } else if (act_legal && bank.can_issue(Command::kActivate, cycle_)) {
        for (std::size_t w = 0; w < words; ++w) issuable_[w] |= queued[w];
      }
    }
  }
  QueueMasks m;
  m.words = words;
  m.issuable = issuable_.data();
  m.hit = hit;
  m.writes = writes;
  if (cfg_.scheduler == SchedulerKind::kFcfsPerBank) {
    std::fill(heads_.begin(), heads_.end(), 0);
    for (std::uint64_t bits = busy_banks_; bits != 0; bits &= bits - 1) {
      const std::uint64_t* q =
          bank_queued(static_cast<unsigned>(std::countr_zero(bits)));
      set_bit(heads_.data(),
              oldest_in(words, [q](std::size_t w) { return q[w]; }));
    }
    m.heads = heads_.data();
  }
  m.owners = owner_mask_.data();
  return m;
}

void Controller::issue_column(QueueEntry& e, std::uint64_t cycle) {
  const auto& t = cfg_.timing;
  Bank& bank = banks_[e.coord.bank];
  const bool is_read = e.req.type == AccessType::kRead;
  bank.issue(is_read ? Command::kRead : Command::kWrite, e.coord.row, cycle);

  if (hooks_ != nullptr) {
    const AccessOutcome o = hooks_->on_access(e.coord, e.req.type, cycle);
    if (o == AccessOutcome::kCorrected) {
      e.req.ecc_corrected = true;
    } else if (o == AccessOutcome::kUncorrectable) {
      e.req.data_error = true;
    }
  }

  const std::uint64_t data_start = cycle + (is_read ? t.tCL : t.tWL);
  const std::uint64_t data_end = data_start + cfg_.data_cycles_per_access();
  bus_busy_until_ = data_end;
  last_data_end_ = data_end;
  last_dir_ = e.req.type;
  any_data_yet_ = true;

  log_command(CommandRecord{cycle, is_read ? Command::kRead : Command::kWrite,
                            e.coord.bank, e.coord.row, e.req.client_id,
                            cfg_.page_policy == PagePolicy::kClosed});

  stats_.data_bus_busy_cycles += cfg_.data_cycles_per_access();
  stats_.bytes_transferred += cfg_.bytes_per_access();
  if (is_read) {
    ++stats_.reads;
  } else {
    ++stats_.writes;
  }

  // ECC decode sits in the controller's return pipeline: it delays the
  // data handed to the client, not the bus occupancy.
  e.req.done_cycle =
      data_end + (cfg_.ecc_enabled && is_read ? cfg_.ecc_latency_cycles : 0);
  EDSIM_TELEMETRY(telemetry_, on_request_issued(e.req, e.coord, cycle));
  EDSIM_TELEMETRY(telemetry_, on_request_data(e.req, data_start, data_end));
  inflight_.push_back(InFlight{e.req});
  inflight_min_done_ = std::min(inflight_min_done_, e.req.done_cycle);
  inflight_max_done_ = std::max(inflight_max_done_, e.req.done_cycle);

  last_col_cycle_[e.coord.bank] = cycle;
  if (cfg_.page_policy == PagePolicy::kClosed) {
    autopre_banks_ |= std::uint64_t{1} << e.coord.bank;
  }
}

bool Controller::tick_autoprecharge() {
  // Auto-precharge does not occupy the command bus (it is encoded in the
  // column command on real parts); apply it as soon as it becomes legal.
  bool any = false;
  for (std::uint64_t bits = autopre_banks_; bits != 0; bits &= bits - 1) {
    const auto b = static_cast<unsigned>(std::countr_zero(bits));
    if (banks_[b].can_issue(Command::kPrecharge, cycle_)) {
      close_row(b, CommandRecord::kNoClient, /*logged=*/false);
      any = true;
    }
  }
  return any;
}

bool Controller::tick_refresh() {
  if (!refresh_.urgent(cycle_)) {
    refresh_draining_ = false;
    return false;
  }
  refresh_draining_ = true;
  // Precharge any open bank (one PRE per cycle on the command bus).
  for (unsigned b = 0; b < cfg_.banks; ++b) {
    if (banks_[b].has_open_row()) {
      if (banks_[b].can_issue(Command::kPrecharge, cycle_)) {
        close_row(b, CommandRecord::kNoClient, /*logged=*/true);
      }
      return true;  // command slot consumed (or bank not yet ready)
    }
  }
  // All banks idle: issue REF when every bank is past its tRP window. No
  // row is open, so there are no row hits to drop.
  for (const Bank& b : banks_) {
    if (!b.can_issue(Command::kRefresh, cycle_)) return true;  // wait
  }
  for (Bank& b : banks_) b.issue(Command::kRefresh, 0, cycle_);
  refresh_.refresh_issued(cycle_);
  if (hooks_ != nullptr) hooks_->on_refresh(cycle_);
  ++stats_.refreshes;
  log_command(CommandRecord{cycle_, Command::kRefresh, 0, 0,
                            CommandRecord::kNoClient, false});
  refresh_draining_ = false;
  return true;
}

bool Controller::bank_has_queued(unsigned b) const {
  return (busy_banks_ >> b & 1) != 0;
}

bool Controller::maintenance_any_urgent() const {
  if (!self_managed_) return false;
  for (std::uint64_t bits = hooks_->maintenance_banks(cycle_).urgent;
       bits != 0; bits &= bits - 1) {
    if (maint_until_[static_cast<unsigned>(std::countr_zero(bits))] == 0) {
      return true;
    }
  }
  return false;
}

void Controller::expire_maintenance_locks() {
  for (unsigned b = 0; b < cfg_.banks; ++b) {
    if (maint_until_[b] != 0 && maint_until_[b] <= cycle_) {
      maint_until_[b] = 0;
      --maint_locked_;
      log_command(CommandRecord{cycle_, Command::kMaintEnd, b, 0,
                                CommandRecord::kNoClient, false});
    }
  }
}

bool Controller::tick_maintenance() {
  // SMD-style arbitration: maintenance takes *bank* slots, not the
  // channel. Banks with nothing queued donate idle slots as soon as work
  // is pending; past the deadline an op may preempt (close an open row
  // and take the bank). Claims are not bus commands, so several banks can
  // start maintenance in one cycle; only a preempting PRE costs the slot.
  bool slot_used = false;
  const MaintenanceBanks work = hooks_->maintenance_banks(cycle_);
  for (std::uint64_t bits = work.pending | work.urgent; bits != 0;
       bits &= bits - 1) {
    const auto b = static_cast<unsigned>(std::countr_zero(bits));
    if (maint_until_[b] != 0) continue;  // already under maintenance
    const bool urg = (work.urgent >> b & 1u) != 0;
    Bank& bank = banks_[b];
    if (bank.has_open_row()) {
      // Only a past-deadline op may close an open row (one PRE per cycle
      // on the command bus, mirroring the refresh drain).
      if (urg && !slot_used &&
          bank.can_issue(Command::kPrecharge, cycle_)) {
        close_row(b, CommandRecord::kNoClient, /*logged=*/true);
        slot_used = true;
      }
      continue;
    }
    if (!urg && bank_has_queued(b)) continue;  // traffic keeps priority
    if (!bank.can_issue(Command::kMaintStart, cycle_)) continue;  // tRP/tRFC
    const unsigned dur = hooks_->maintenance_claim(b, cycle_);
    if (dur == 0) continue;
    // Lock region: the device owns the bank until cycle_ + dur. In-flight
    // data of earlier column commands is untouched — the lock only gates
    // future commands to this bank.
    bank.block_until(cycle_ + dur);
    maint_until_[b] = cycle_ + dur;
    ++maint_locked_;
    ++stats_.maintenance_ops;
    // CommandRecord.row carries the lock duration for kMaintStart (the
    // protocol checker derives the lock region from it).
    log_command(CommandRecord{cycle_, Command::kMaintStart, b, dur,
                              CommandRecord::kNoClient, false});
  }
  return slot_used;
}

std::uint64_t Controller::maintenance_event_bound() const {
  std::uint64_t ne = kNeverCycle;
  const auto upd = [&](std::uint64_t c) {
    ne = std::min(ne, std::max(c, cycle_));
  };
  if (maint_locked_ != 0) {
    for (const std::uint64_t until : maint_until_) {
      if (until != 0) upd(until);  // lock expiry (kMaintEnd record)
    }
  }
  const MaintenanceBanks work = hooks_->maintenance_banks(cycle_);
  for (std::uint64_t bits = work.pending | work.urgent; bits != 0;
       bits &= bits - 1) {
    const auto b = static_cast<unsigned>(std::countr_zero(bits));
    if (maint_until_[b] != 0) continue;
    if ((work.urgent >> b & 1u) != 0) {
      upd(banks_[b].has_open_row()
              ? banks_[b].earliest(Command::kPrecharge)
              : banks_[b].earliest(Command::kMaintStart));
    } else if (!banks_[b].has_open_row() && !bank_has_queued(b)) {
      upd(banks_[b].earliest(Command::kMaintStart));
    }
  }
  // Schedule changes on their own (bin due / deadline crossings).
  upd(hooks_->next_maintenance_cycle(cycle_));
  return ne;
}

void Controller::tick_watchdog() {
  if (!cfg_.watchdog_enabled || queue_.empty()) return;
  // queue_ is age-ordered, so the front entry is the starvation candidate.
  QueueEntry& oldest = queue_.front();
  if (cycle_ < oldest.wd_deadline) return;
  if (oldest.wd_retries >= cfg_.watchdog_retries) {
    char buf[128];
    std::snprintf(buf, sizeof buf,
                  "request id=%llu client=%u addr=0x%llx starved %llu cycles "
                  "(%u retries exhausted)",
                  static_cast<unsigned long long>(oldest.req.id),
                  oldest.req.client_id,
                  static_cast<unsigned long long>(oldest.req.addr),
                  static_cast<unsigned long long>(
                      cycle_ - oldest.req.arrival_cycle),
                  oldest.wd_retries);
    throw Error(ErrorKind::kRequestTimeout, cycle_, buf);
  }
  ++oldest.wd_retries;
  oldest.wd_deadline = cycle_ + cfg_.watchdog_cycles;
  ++stats_.watchdog_retries;
}

void Controller::retire_due_inflight(std::uint64_t upto) {
  // One done cycle per pass, in issue order within it: the order per-cycle
  // ticking retires in, however late a skipped retirement catches up.
  while (inflight_min_done_ <= upto) {
    const std::uint64_t done = inflight_min_done_;
    inflight_min_done_ = kNeverCycle;
    std::size_t kept = 0;
    for (const InFlight& f : inflight_) {
      const Request& r = f.req;
      if (r.done_cycle != done) {
        inflight_min_done_ = std::min(inflight_min_done_, r.done_cycle);
        inflight_[kept++] = f;
        continue;
      }
      (r.type == AccessType::kRead ? stats_.read_latency
                                   : stats_.write_latency)
          .add(static_cast<double>(r.latency()));
      EDSIM_TELEMETRY(telemetry_, on_request_complete(r, done));
      completed_.push_back(r);
    }
    inflight_.resize(kept);
  }
}

std::size_t Controller::dispatch_pick(const QueueMasks& m,
                                      std::uint64_t oldest_wait) {
  switch (cfg_.scheduler) {
    case SchedulerKind::kFcfs:
      return pick_fcfs(m);
    case SchedulerKind::kFcfsPerBank:
      return pick_fcfs_per_bank(m);
    case SchedulerKind::kFrFcfs:
      return pick_frfcfs(m, oldest_wait);
    case SchedulerKind::kReadFirst:
      return pick_read_first(m, oldest_wait, read_first_draining_);
    case SchedulerKind::kTdm:
      break;
  }
  return pick_tdm(m, cycle_, cfg_.tdm_slot_cycles, cfg_.tdm_clients);
}

bool Controller::tick() {
  stats_.queue_occupancy.add(static_cast<double>(queue_.size()));
  if (hooks_ != nullptr) hooks_->on_cycle(cycle_);

  // Maintenance locks expire before anything else can consult bank state
  // (including the power-down block), so a stale lock never gates a tick.
  if (maint_locked_ != 0) expire_maintenance_locks();

  // Work counts what is queued or still moving data this cycle, before
  // this tick retires anything.
  const bool has_work = !queue_.empty() || data_pending();

  // 1. Retire in-flight requests whose data finished (this cycle's, and
  // any retirement a lazy skip left behind) ahead of the power-down early
  // returns. The cached minimum makes the common nothing-finished cycle a
  // single compare.
  if (inflight_min_done_ <= cycle_) retire_due_inflight(cycle_);

  // --- power-down management -------------------------------------------------
  if (cfg_.powerdown_enabled) {
    if (powered_down_) {
      // Refresh urgency, maintenance deadlines or new work wake the
      // device after tXP.
      if (has_work || refresh_.urgent(cycle_) || maintenance_any_urgent()) {
        powered_down_ = false;
        wake_until_ = cycle_ + cfg_.tXP;
      } else {
        ++stats_.powerdown_cycles;
        ++cycle_;
        ++stats_.cycles;
        notify_tick();
        return false;
      }
    } else if (!has_work) {
      if (!was_idle_) {
        was_idle_ = true;
        idle_since_ = cycle_;
      }
      // All banks must be precharged before entry; close any open row
      // (this consumes the command slot, like an explicit PRE). Never
      // enter while a maintenance op runs or is overdue — non-urgent
      // pending work simply defers to its deadline, which wakes us.
      if (cycle_ - idle_since_ >= cfg_.powerdown_idle_cycles &&
          !refresh_.urgent(cycle_) && maint_locked_ == 0 &&
          !maintenance_any_urgent()) {
        bool all_idle = true;
        for (unsigned b = 0; b < cfg_.banks; ++b) {
          if (banks_[b].has_open_row()) {
            all_idle = false;
            if (banks_[b].can_issue(Command::kPrecharge, cycle_)) {
              close_row(b, CommandRecord::kNoClient, /*logged=*/true);
            }
            break;  // one command per cycle
          }
        }
        if (all_idle) powered_down_ = true;
        ++cycle_;
        ++stats_.cycles;
        if (powered_down_) ++stats_.powerdown_cycles;
        notify_tick();
        return false;
      }
    } else {
      was_idle_ = false;
    }
    if (cycle_ < wake_until_) {
      // Exiting power-down: no commands yet.
      ++cycle_;
      ++stats_.cycles;
      notify_tick();
      return false;
    }
  }

  // 2. Hardware auto-precharge (no command-bus cost).
  tick_autoprecharge();

  // 2b. Watchdog: escalate or fail a starving request.
  tick_watchdog();

  // 3. Refresh has absolute priority once due. In self-managed mode the
  // REF sweep is replaced by maintenance arbitration over idle bank slots.
  bool issued = false;
  if (!(self_managed_ ? tick_maintenance() : tick_refresh())) {
    // 4. Normal scheduling: one command this cycle.
    const QueueMasks masks = build_candidates();
    const std::uint64_t oldest_wait =
        queue_.empty() ? 0 : cycle_ - queue_.front().req.arrival_cycle;
    // An escalated request owns the command slot until it completes:
    // positions are age-ordered, so it is position 0 and strict FCFS
    // serves it. Under TDM the escalation still routes through the
    // scheduler — slot ownership is inviolate (that isolation is the
    // policy's entire guarantee), and the rotation itself bounds how long
    // the front entry can wait.
    const bool escalated = cfg_.watchdog_enabled && !queue_.empty() &&
                           queue_.front().wd_retries > 0 &&
                           cfg_.scheduler != SchedulerKind::kTdm;
    const std::size_t pick =
        escalated ? pick_fcfs(masks) : dispatch_pick(masks, oldest_wait);
    if (pick == kNoPick && cfg_.page_policy == PagePolicy::kTimeout) {
      // Idle command slot: close any row that has been open and unused
      // past the timeout. Never preempts real work (pick was kNoPick).
      for (unsigned b = 0; b < cfg_.banks; ++b) {
        if (banks_[b].has_open_row() &&
            cycle_ >= last_col_cycle_[b] + cfg_.page_timeout_cycles &&
            banks_[b].can_issue(Command::kPrecharge, cycle_)) {
          // Only close rows no queued request still wants.
          if (open_row_wanted(b)) continue;
          close_row(b, CommandRecord::kNoClient, /*logged=*/true);
          break;  // one command per cycle
        }
      }
    }
    if (pick != kNoPick) {
      issued = true;
      QueueEntry& e = queue_[pick];
      const unsigned b = e.coord.bank;
      Bank& bank = banks_[b];
      classify(e, bank);
      if (test_bit(masks.hit, pick)) {
        issue_column(e, cycle_);
        erase_queue_entry(pick);
      } else if (bank.has_open_row()) {
        close_row(b, e.req.client_id, /*logged=*/true);
      } else {
        bank.issue(Command::kActivate, e.coord.row, cycle_);
        mark_open_row_hits(b);
        ++stats_.activations;
        last_act_cycle_ = cycle_;
        any_act_yet_ = true;
        recent_acts_.push_back(cycle_);
        if (recent_acts_.size() > 8) recent_acts_.pop_front();
        log_command(CommandRecord{cycle_, Command::kActivate, b, e.coord.row,
                                  e.req.client_id, false});
        if (hooks_ != nullptr) hooks_->on_activate(b, e.coord.row, cycle_);
      }
    }
  }

  ++cycle_;
  ++stats_.cycles;
  if (hooks_ != nullptr) stats_.reliability = hooks_->counters();
  notify_tick();
  return issued;
}

std::vector<Request> Controller::drain_completed() {
  std::vector<Request> out;
  drain_completed_into(out);
  return out;
}

void Controller::drain_completed_into(std::vector<Request>& out) {
  // Catch up the retirements a lazy skip left behind: everything done
  // before this cycle, as the tick of its done cycle would have retired it.
  if (inflight_min_done_ < cycle_) retire_due_inflight(cycle_ - 1);
  out.clear();
  out.insert(out.end(), completed_.begin(), completed_.end());
  completed_.clear();
}

std::uint64_t Controller::next_event_cycle() const { return next_event(true); }

std::uint64_t Controller::next_event(bool watch_retire) const {
  std::uint64_t ne = kNeverCycle;
  const auto upd = [&](std::uint64_t c) {
    ne = std::min(ne, std::max(c, cycle_));
  };
  const bool has_work = !queue_.empty() || data_pending();

  if (cfg_.powerdown_enabled) {
    if (powered_down_) {
      // Only new work (caller-driven), refresh urgency or a maintenance
      // deadline wakes the device (locks are never live while down).
      if (has_work) return cycle_;
      upd(refresh_.next_urgent_cycle(cycle_));
      if (self_managed_) upd(hooks_->next_maintenance_cycle(cycle_));
      return ne;
    }
    if (cycle_ < wake_until_) {
      // Exiting power-down: every tick until tXP elapses is bookkeeping
      // (watchdog and refresh paths are behind the same early return).
      return wake_until_;
    }
    if (!has_work) {
      // Power-down entry fires once the idle streak reaches the threshold;
      // if the streak has not started, the next tick starts it at cycle_.
      // A matured streak held off by a maintenance lock or unclaimed urgent
      // maintenance adds nothing: the lock's expiry and the urgent claim
      // are events of maintenance_event_bound, and refresh urgency pins the
      // bound below, so entry is re-tried exactly when its blocker clears.
      const std::uint64_t entry =
          (was_idle_ ? idle_since_ : cycle_) + cfg_.powerdown_idle_cycles;
      if (entry > cycle_ || (maint_locked_ == 0 && !maintenance_any_urgent())) {
        upd(entry);
      }
    }
  }

  // In-flight data completions (cached minimum, kNeverCycle when empty),
  // when someone observes them. Otherwise a retirement changes nothing
  // the controller does, except that on a power-managed channel the last
  // data beat of an empty queue ends the busy streak.
  if (watch_retire || telemetry_ != nullptr) {
    if (inflight_min_done_ != kNeverCycle) upd(inflight_min_done_);
  } else if (cfg_.powerdown_enabled && queue_.empty() && data_pending()) {
    upd(inflight_max_done_);
  }

  // Refresh urgency / self-managed maintenance deadlines and claims.
  upd(refresh_.next_urgent_cycle(cycle_));
  if (self_managed_) upd(maintenance_event_bound());

  // Pending hardware auto-precharges.
  for (std::uint64_t bits = autopre_banks_; bits != 0; bits &= bits - 1) {
    upd(banks_[static_cast<unsigned>(std::countr_zero(bits))].earliest(
        Command::kPrecharge));
  }

  // Watchdog deadline of the oldest queued request.
  if (cfg_.watchdog_enabled && !queue_.empty()) {
    upd(queue_.front().wd_deadline);
  }

  // Page-timeout closes of idle open rows. Rows a queued request still
  // wants are never closed by this policy, and the queue cannot change
  // during a skip, so they contribute no event.
  if (cfg_.page_policy == PagePolicy::kTimeout) {
    for (unsigned b = 0; b < cfg_.banks; ++b) {
      if (!banks_[b].has_open_row()) continue;
      if (open_row_wanted(b)) continue;
      upd(std::max(last_col_cycle_[b] + cfg_.page_timeout_cycles,
                   banks_[b].earliest(Command::kPrecharge)));
    }
  }

  // Earliest cycle each queued request's next command becomes legal. Bank
  // and bus state are frozen during a skip (no commands issue), so these
  // releases stay valid until the skip ends. The bound is conservative:
  // the scheduler may still decline (e.g. FCFS head-of-line blocking),
  // which only shortens the skip, never corrupts it. Nothing queued can
  // pull the bound below cycle_, so that case skips the scan.
  if (queue_.empty() || ne == cycle_) return ne;
  const std::uint64_t act_rel = channel_act_release();
  const std::uint64_t rd_rel = channel_column_release(AccessType::kRead);
  const std::uint64_t wr_rel = channel_column_release(AccessType::kWrite);
  // Three release terms per bank with queued work, as in build_candidates:
  // read and write hits on the open row, and the PRE (or, on an idle bank,
  // the ACT) every other request needs. Banks awaiting auto-precharge are
  // gated by its release above and contribute nothing.
  const std::uint64_t* hit = hit_mask_.data();
  const std::uint64_t* writes = write_mask_.data();
  for (std::uint64_t bits = busy_banks_; bits != 0; bits &= bits - 1) {
    const auto b = static_cast<unsigned>(std::countr_zero(bits));
    if ((autopre_banks_ >> b & 1) != 0) continue;
    const Bank& bank = banks_[b];
    if (!bank.has_open_row()) {
      upd(std::max(bank.earliest(Command::kActivate), act_rel));
      continue;
    }
    const std::uint64_t* queued = bank_queued(b);
    bool rd = false, wr = false, miss = false;
    for (std::size_t w = 0; w < mask_words_; ++w) {
      const std::uint64_t h = queued[w] & hit[w];
      rd |= (h & ~writes[w]) != 0;
      wr |= (h & writes[w]) != 0;
      miss |= (queued[w] & ~hit[w]) != 0;
    }
    if (rd) upd(std::max(bank.earliest(Command::kRead), rd_rel));
    if (wr) upd(std::max(bank.earliest(Command::kWrite), wr_rel));
    if (miss) upd(bank.earliest(Command::kPrecharge));
  }
  return ne;
}

void Controller::advance_idle(std::uint64_t count) {
  if (count == 0) return;
  stats_.queue_occupancy.add_repeated(static_cast<double>(queue_.size()),
                                      count);
  if (hooks_ != nullptr) hooks_->on_idle_cycles(cycle_, cycle_ + count);

  // Replicate the per-tick power-down bookkeeping for a quiet stretch.
  // The regime (powered down / waking / normal) is constant across it:
  // every transition is an event, so skips never straddle one. The
  // reliability-counter mirror matches tick()'s early returns — powered-
  // down and waking ticks leave stats_.reliability stale, full ticks
  // refresh it.
  bool full_path = true;
  if (cfg_.powerdown_enabled) {
    const bool has_work = !queue_.empty() || data_pending();
    if (powered_down_) {
      stats_.powerdown_cycles += count;
      full_path = false;
    } else {
      if (!has_work) {
        if (!was_idle_) {
          was_idle_ = true;
          idle_since_ = cycle_;
        }
      } else {
        was_idle_ = false;
      }
      if (cycle_ < wake_until_) full_path = false;
    }
  }

  const std::uint64_t from = cycle_;
  cycle_ += count;
  stats_.cycles += count;
  if (full_path && hooks_ != nullptr) stats_.reliability = hooks_->counters();
  EDSIM_TELEMETRY(telemetry_, on_bulk_advance(from, tick_sample(), stats_));
}

template <typename Stop>
void Controller::tick_then_skip(std::uint64_t bound, bool watch_retire,
                                Stop stop) {
  while (cycle_ < bound) {
    // One real tick settles same-cycle transitions (idle-streak starts,
    // scheduler hysteresis, lazy refresh batching) before any skip.
    const bool issued = tick();
    if (stop() || cycle_ >= bound) return;
    // Under saturation the cycle after an issue is most often an event
    // itself, so the bound would be paid for nothing: tick it instead. A
    // tick at a quiet cycle credits exactly what advance_idle(1) would.
    if (issued) continue;
    const std::uint64_t ne = next_event(watch_retire);
    if (ne > cycle_) advance_idle(std::min(ne, bound) - cycle_);
  }
}

void Controller::tick_until(std::uint64_t target_cycle) {
  tick_then_skip(target_cycle, true, [] { return false; });
}

void Controller::dense_advance(std::uint64_t bound, bool watch_retire) {
  // The front-end-visible transitions are detected by their only possible
  // footprints — a queue slot freed (column issue, invalidation) or a
  // retirement into the completed list. Anything else (ACT/PRE, refresh,
  // maintenance, power-down) is invisible to the front end and the
  // stretch continues. Nothing enqueues or drains while this runs, so the
  // sizes at entry are the sizes before every tick until the first stop.
  tick_then_skip(bound, watch_retire,
                 [this, watch_retire, q0 = queue_.size(),
                  c0 = completed_.size()] {
                   return queue_.size() < q0 ||
                          (watch_retire && completed_.size() != c0);
                 });
}

void Controller::quiet_advance(std::uint64_t bound, bool watch_retire) {
  // The caller's previous advance already ticked or skipped to this
  // cycle, so the stretch opens with a skip rather than a tick.
  const std::uint64_t ne = next_event(watch_retire);
  if (ne > cycle_) advance_idle(std::min(ne, bound) - cycle_);
  tick_then_skip(bound, watch_retire,
                 [this, watch_retire, c0 = completed_.size()] {
                   return watch_retire && completed_.size() != c0;
                 });
}

void Controller::drain(std::uint64_t max_cycles) {
  if (!idle()) {
    tick_then_skip(cycle_ + max_cycles, true, [this] { return idle(); });
  }
  require(idle(), "Controller::drain: did not converge (deadlock?)");
}

// --- snapshot serialization -------------------------------------------------

namespace {

void save_request(SnapshotWriter& w, const Request& q) {
  w.u64(q.id);
  w.u32(q.client_id);
  w.boolean(q.type == AccessType::kWrite);
  w.u64(q.addr);
  w.u64(q.arrival_cycle);
  w.u64(q.done_cycle);
  w.u64(q.tag);
  w.boolean(q.ecc_corrected);
  w.boolean(q.data_error);
}

/// Smallest encoding save_request can produce: nine one-byte varints.
constexpr std::uint64_t kMinRequestBytes = 9;

Request load_request(SnapshotReader& r) {
  Request q;
  q.id = r.u64();
  q.client_id = r.u32();
  q.type = r.boolean() ? AccessType::kWrite : AccessType::kRead;
  q.addr = r.u64();
  q.arrival_cycle = r.u64();
  q.done_cycle = r.u64();
  q.tag = r.u64();
  q.ecc_corrected = r.boolean();
  q.data_error = r.boolean();
  return q;
}

void save_controller_stats(SnapshotWriter& w, const ControllerStats& s) {
  w.u64(s.cycles);
  w.u64(s.reads);
  w.u64(s.writes);
  w.u64(s.row_hits);
  w.u64(s.row_misses);
  w.u64(s.row_conflicts);
  w.u64(s.activations);
  w.u64(s.precharges);
  w.u64(s.refreshes);
  w.u64(s.data_bus_busy_cycles);
  w.u64(s.bytes_transferred);
  w.u64(s.powerdown_cycles);
  w.u64(s.redirected_requests);
  w.u64(s.watchdog_retries);
  w.u64(s.maintenance_ops);
  s.reliability.save(w);
  s.read_latency.save(w);
  s.write_latency.save(w);
  s.queue_occupancy.save(w);
}

void load_controller_stats(SnapshotReader& r, ControllerStats& s) {
  s.cycles = r.u64();
  s.reads = r.u64();
  s.writes = r.u64();
  s.row_hits = r.u64();
  s.row_misses = r.u64();
  s.row_conflicts = r.u64();
  s.activations = r.u64();
  s.precharges = r.u64();
  s.refreshes = r.u64();
  s.data_bus_busy_cycles = r.u64();
  s.bytes_transferred = r.u64();
  s.powerdown_cycles = r.u64();
  s.redirected_requests = r.u64();
  s.watchdog_retries = r.u64();
  s.maintenance_ops = r.u64();
  s.reliability.load(r);
  s.read_latency.load(r);
  s.write_latency.load(r);
  s.queue_occupancy.load(r);
}

}  // namespace

void Controller::save(SnapshotWriter& w) const {
  // Geometry guard: restore requires a controller built from the same
  // DramConfig; the bank count catches the gross mismatches cheaply.
  w.u32(cfg_.banks);

  for (const Bank& b : banks_) b.save(w);
  for (unsigned b = 0; b < cfg_.banks; ++b) {
    w.boolean((autopre_banks_ >> b & 1) != 0);
  }
  for (const std::uint64_t c : last_col_cycle_) w.u64(c);
  // Of the policies only ReadFirst carries state across rounds.
  if (cfg_.scheduler == SchedulerKind::kReadFirst) {
    w.boolean(read_first_draining_);
  }
  refresh_.save(w);

  w.u64(queue_.size());
  for (const QueueEntry& e : queue_) {
    save_request(w, e.req);
    w.u32(e.coord.bank);
    w.u32(e.coord.row);
    w.u32(e.coord.column);
    w.boolean(e.classified);
    w.u32(e.wd_retries);
    w.u64(e.wd_deadline);
  }
  w.u64(inflight_.size());
  for (const InFlight& f : inflight_) save_request(w, f.req);
  w.u64(completed_.size());
  for (const Request& q : completed_) save_request(w, q);

  // Retired reliability-event counter: the slot stays so the byte layout
  // (and kSnapshotVersion, which also versions ResultStore records) holds.
  w.u64(0);
  w.u64(cycle_);
  w.u64(next_id_);

  w.u64(last_act_cycle_);
  w.boolean(any_act_yet_);
  w.u64(recent_acts_.size());
  for (const std::uint64_t c : recent_acts_) w.u64(c);

  w.u64(bus_busy_until_);
  w.u64(last_data_end_);
  w.boolean(last_dir_ == AccessType::kWrite);
  w.boolean(any_data_yet_);

  w.boolean(refresh_draining_);
  for (const std::uint64_t c : maint_until_) w.u64(c);
  w.u32(maint_locked_);

  w.boolean(powered_down_);
  w.u64(idle_since_);
  w.u64(wake_until_);
  w.boolean(was_idle_);

  save_controller_stats(w, stats_);
}

void Controller::load(SnapshotReader& r) {
  if (r.u32() != cfg_.banks) {
    r.fail("controller snapshot bank count mismatch");
  }

  for (Bank& b : banks_) b.load(r);
  autopre_banks_ = 0;
  for (unsigned b = 0; b < cfg_.banks; ++b) {
    if (r.boolean()) autopre_banks_ |= std::uint64_t{1} << b;
  }
  for (std::uint64_t& c : last_col_cycle_) c = r.u64();
  if (cfg_.scheduler == SchedulerKind::kReadFirst) {
    read_first_draining_ = r.boolean();
  }
  refresh_.load(r);

  queue_.clear();
  const std::uint64_t queued = r.u64();
  if (queued > cfg_.queue_depth) r.fail("queued request count out of range");
  queue_.reserve(queued);
  for (std::uint64_t i = 0; i < queued; ++i) {
    QueueEntry e;
    e.req = load_request(r);
    e.coord.bank = r.u32();
    e.coord.row = r.u32();
    e.coord.column = r.u32();
    if (e.coord.bank >= cfg_.banks) r.fail("queued bank out of range");
    e.classified = r.boolean();
    e.wd_retries = r.u32();
    e.wd_deadline = r.u64();
    queue_.push_back(e);
  }
  inflight_.clear();
  const std::uint64_t inflight = r.u64();
  if (inflight > r.remaining() / kMinRequestBytes) {
    r.fail("in-flight request count exceeds snapshot payload");
  }
  inflight_.reserve(inflight);
  for (std::uint64_t i = 0; i < inflight; ++i) {
    inflight_.push_back(InFlight{load_request(r)});
  }
  completed_.clear();
  const std::uint64_t completed = r.u64();
  if (completed > r.remaining() / kMinRequestBytes) {
    r.fail("completed request count exceeds snapshot payload");
  }
  completed_.reserve(completed);
  for (std::uint64_t i = 0; i < completed; ++i) {
    completed_.push_back(load_request(r));
  }

  (void)r.u64();  // retired reliability-event counter slot (see save)
  cycle_ = r.u64();
  next_id_ = r.u64();

  last_act_cycle_ = r.u64();
  any_act_yet_ = r.boolean();
  recent_acts_.clear();
  const std::uint64_t acts = r.u64();
  if (acts > 8) r.fail("recent-activate window out of range");
  for (std::uint64_t i = 0; i < acts; ++i) recent_acts_.push_back(r.u64());

  bus_busy_until_ = r.u64();
  last_data_end_ = r.u64();
  last_dir_ = r.boolean() ? AccessType::kWrite : AccessType::kRead;
  any_data_yet_ = r.boolean();

  refresh_draining_ = r.boolean();
  for (std::uint64_t& c : maint_until_) c = r.u64();
  maint_locked_ = r.u32();

  powered_down_ = r.boolean();
  idle_since_ = r.u64();
  wake_until_ = r.u64();
  was_idle_ = r.boolean();

  load_controller_stats(r, stats_);

  // Derived caches: recompute rather than trust the stream.
  busy_banks_ = 0;
  for (auto* m : {&bank_queued_, &hit_mask_, &write_mask_, &owner_mask_}) {
    std::fill(m->begin(), m->end(), 0);
  }
  for (std::size_t pos = 0; pos < queue_.size(); ++pos) mark_queued(pos);
  inflight_min_done_ = kNeverCycle;
  inflight_max_done_ = 0;
  for (const InFlight& f : inflight_) {
    inflight_min_done_ = std::min(inflight_min_done_, f.req.done_cycle);
    inflight_max_done_ = std::max(inflight_max_done_, f.req.done_cycle);
  }
}

}  // namespace edsim::dram
