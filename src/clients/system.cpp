#include "clients/system.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/snapshot.hpp"

namespace edsim::clients {

MemorySystem::MemorySystem(const dram::DramConfig& cfg, ArbiterKind arbiter,
                           std::vector<double> weights)
    : controller_(cfg), arbiter_(Arbiter::make(arbiter, std::move(weights))) {}

Client& MemorySystem::add_client(std::unique_ptr<Client> client) {
  require(client != nullptr, "memory system: null client");
  const std::uint64_t now = controller_.cycle();
  next_.push_back(client->next_request_cycle(now));
  clients_.push_back(std::move(client));
  stats_.emplace_back();
  fifos_.emplace_back(controller_.config().bytes_per_access());
  outstanding_.push_back(0);
  credited_.push_back(now);
  ready_.push_back(false);
  return *clients_.back();
}

void MemorySystem::credit(std::size_t i, std::uint64_t upto) {
  const std::uint64_t k = upto - credited_[i];
  fifos_[i].sample_repeated(k);
  stats_[i].outstanding.add_repeated(static_cast<double>(outstanding_[i]), k);
  credited_[i] = upto;
}

void MemorySystem::credit_all() {
  for (std::size_t i = 0; i < clients_.size(); ++i) {
    credit(i, controller_.cycle());
  }
}

void MemorySystem::deliver_completions() {
  controller_.drain_completed_into(completed_scratch_);
  for (const dram::Request& r : completed_scratch_) {
    const std::size_t i = r.client_id;
    const std::uint64_t at = r.done_cycle + 1;
    credit(i, at);
    stats_[i].completed++;
    if (r.ecc_corrected) stats_[i].corrected_errors++;
    if (r.data_error) stats_[i].data_errors++;
    stats_[i].latency.add(static_cast<double>(r.latency()));
    stats_[i].latency_samples.add(static_cast<double>(r.latency()));
    fifos_[i].on_complete();
    if (outstanding_[i] > 0) --outstanding_[i];
    clients_[i]->notify_complete(r, at);
    next_[i] = clients_[i]->next_request_cycle(at);
  }
}

void MemorySystem::grant(std::size_t win, std::uint64_t cycle) {
  credit(win, cycle);
  dram::Request r = clients_[win]->make_request(cycle);
  r.client_id = static_cast<unsigned>(win);
  const bool ok = controller_.enqueue(r);
  require(ok, "memory system: enqueue failed after queue_full check");
  arbiter_->granted(win, controller_.config().bytes_per_access());
  stats_[win].issued++;
  stats_[win].bytes += controller_.config().bytes_per_access();
  fifos_[win].on_issue();
  ++outstanding_[win];
  next_[win] = clients_[win]->next_request_cycle(cycle + 1);
}

void MemorySystem::step() {
  const std::uint64_t cycle = controller_.cycle();

  // 1. Deliver completions.
  if (controller_.has_completions()) deliver_completions();

  // 2. Arbitration: one enqueue attempt per cycle (the controller accepts
  //    at most one column command per cycle anyway).
  bool any_ready = false;
  for (std::size_t i = 0; i < clients_.size(); ++i) {
    ready_[i] = next_[i] <= cycle;
    any_ready = any_ready || ready_[i];
  }
  // A channel whose banks have all been retired by the reliability layer
  // accepts nothing; treat it as permanent back-pressure, not a crash.
  if (any_ready && !controller_.queue_full() &&
      !controller_.all_banks_retired()) {
    const std::size_t win = arbiter_->pick(ready_);
    if (win != Arbiter::kNone) grant(win, cycle);
  } else if (any_ready) {
    // Back-pressure: every ready client stalls this cycle.
    for (std::size_t i = 0; i < clients_.size(); ++i) {
      if (ready_[i]) stats_[i].stall_cycles++;
    }
  }

  // 3. The per-cycle samples are credited lazily (credit()).

  // 4. Advance the channel.
  controller_.tick();
}

bool MemorySystem::all_done() const {
  if (!controller_.idle()) return false;
  for (const auto& c : clients_) {
    if (!c->finished()) return false;
  }
  return true;
}

bool MemorySystem::completion_blocked() const {
  for (std::size_t i = 0; i < clients_.size(); ++i) {
    if (next_[i] == dram::kNeverCycle && outstanding_[i] > 0 &&
        !clients_[i]->finished()) {
      return true;
    }
  }
  return false;
}

void MemorySystem::stretch(std::uint64_t end, bool stop_when_done) {
  // Each pass executes one boundary cycle's front-end work inline
  // (delivery, the client scan, at most one arbitration grant), then lets
  // the controller run event to event until the next front-end-visible
  // event, bulk-crediting the stall-only cycles in between. The loop
  // hands the cycle back to per-cycle step() only when it cannot prove
  // the shape: ready clients facing a queue that this cycle's grant
  // leaves short.
  while (true) {
    const std::uint64_t now = controller_.cycle();
    if (now >= end) return;
    // run_to_completion's final step must be the one that first observes
    // the done state. finished() changes only at a grant or a delivery
    // (a pointer chase is done once its last load is delivered), and the
    // system can only become done with the channel idle. So an idle
    // channel with a delivery pending goes back to step(), which delivers
    // on this same cycle and lets run_to_completion check for done.
    if (stop_when_done &&
        (all_done() ||
         (controller_.idle() && controller_.has_completions()))) {
      return;
    }
    // Requests retired since the last boundary deliver here, each at its
    // own cycle. A retirement the stretch did not stop at changes no
    // client's readiness: by the readiness rule only a completion-blocked
    // client can be made ready by one, and with such a client the stretch
    // stops at every retirement.
    if (controller_.has_completions()) deliver_completions();
    // `wake` is the demand horizon: the first cycle a client that is not
    // ready now may become ready.
    std::uint64_t wake = end;
    bool any_ready = false;
    for (std::size_t i = 0; i < clients_.size(); ++i) {
      ready_[i] = next_[i] <= now;
      if (ready_[i]) {
        any_ready = true;
      } else {
        wake = std::min(wake, next_[i]);
      }
    }

    if (!any_ready) {
      // Quiet: nobody can issue before `wake`, so every step until then
      // would only sample, and freed queue slots matter to nobody.
      if (!fast_forward_) return;
      controller_.quiet_advance(wake, stop_when_done || completion_blocked());
      continue;
    }

    // Dense: cycle `now` must end with a full queue: either it already
    // is, or this cycle's single arbitration grant tops it off. Anything
    // deeper (fill/drain transients, retired banks) is per-cycle
    // territory.
    if (!burst_issue_) return;
    const bool full = controller_.queue_full();
    if (!full &&
        (controller_.queue_size() + 1 < controller_.config().queue_depth ||
         controller_.all_banks_retired())) {
      return;
    }
    // No grant happens inside the stretch, and no delivery that could
    // matter, so by the readiness rule (Client::next_request_cycle) every
    // ready client stays ready across it.
    std::size_t win = Arbiter::kNone;
    if (!full) {
      // Execute cycle `now`'s arbitration exactly as step() would. With
      // any_ready set every arbiter returns a winner (and a kNone pick
      // mutates nothing, so handing the cycle back to step() is safe).
      win = arbiter_->pick(ready_);
      if (win == Arbiter::kNone) return;
      grant(win, now);
      // The grant ends the winner's readiness: ready again at now + 1
      // means ready across the stretch (the stall credit below counts on
      // it); otherwise its wake-up bounds the stretch.
      if (next_[win] > now + 1) {
        wake = std::min(wake, next_[win]);
        ready_[win] = false;
      }
    }
    // Advance the channel to just past its next front-end-visible event
    // (first freed queue slot, or a retirement someone waits for),
    // bounded by the demand horizon: until then, the queue stays full and
    // every covered step would only stall-count.
    controller_.dense_advance(wake, stop_when_done || completion_blocked());
    const std::uint64_t k = controller_.cycle() - now;
    const bool granted_now = win != Arbiter::kNone;
    for (std::size_t i = 0; i < clients_.size(); ++i) {
      // Ready clients stall on every covered back-pressure cycle; a grant
      // cycle is not one (step() skips the stall branch on grant).
      if (ready_[i]) stats_[i].stall_cycles += k - (granted_now ? 1 : 0);
    }
  }
}

void MemorySystem::run(std::uint64_t cycles) {
  const std::uint64_t end = controller_.cycle() + cycles;
  // The last cycle is always a step: its tick retires everything done by
  // end - 1, leaving the channel and the delivery list as per-cycle
  // stepping leaves them.
  while (controller_.cycle() < end) {
    step();
    if (fast_forward_ || burst_issue_) stretch(end - 1, false);
  }
  credit_all();
}

void MemorySystem::run_to_completion(std::uint64_t max_cycles) {
  const std::uint64_t limit = controller_.cycle() + max_cycles;
  while (controller_.cycle() < limit) {
    if (all_done()) {
      // One more step to deliver completions retired on the final tick.
      step();
      credit_all();
      return;
    }
    step();
    if (fast_forward_ || burst_issue_) stretch(limit, true);
  }
  credit_all();
  require(false, "memory system: run_to_completion hit the cycle bound");
}

void MemorySystem::save(SnapshotWriter& w) const {
  w.u64(clients_.size());
  controller_.save(w);
  arbiter_->save(w);
  for (std::size_t i = 0; i < clients_.size(); ++i) {
    clients_[i]->save_state(w);
    stats_[i].save(w);
    fifos_[i].save(w);
    w.u32(outstanding_[i]);
  }
}

void MemorySystem::load(SnapshotReader& r) {
  if (r.u64() != clients_.size()) {
    r.fail("memory-system snapshot client count mismatch");
  }
  controller_.load(r);
  arbiter_->load(r);
  for (std::size_t i = 0; i < clients_.size(); ++i) {
    clients_[i]->load_state(r);
    stats_[i].load(r);
    fifos_[i].load(r);
    outstanding_[i] = r.u32();
    credited_[i] = controller_.cycle();
    next_[i] = clients_[i]->next_request_cycle(controller_.cycle());
  }
}

std::vector<std::uint8_t> MemorySystem::save_snapshot() const {
  SnapshotWriter w;
  save(w);
  return w.seal();
}

void MemorySystem::restore_snapshot(const std::uint8_t* data,
                                    std::size_t size) {
  SnapshotReader r(data, size);
  load(r);
  r.expect_end();
}

void MemorySystem::reset_measurement() {
  controller_.reset_stats();
  for (std::size_t i = 0; i < clients_.size(); ++i) {
    stats_[i] = ClientStats{};
    fifos_[i].reset_measurement();
    credited_[i] = controller_.cycle();
  }
}

Bandwidth MemorySystem::aggregate_bandwidth() const {
  return controller_.stats().sustained_bandwidth(controller_.config().clock);
}

double MemorySystem::bandwidth_efficiency() const {
  const double peak = controller_.config().peak_bandwidth().bits_per_s;
  return peak > 0.0 ? aggregate_bandwidth().bits_per_s / peak : 0.0;
}

}  // namespace edsim::clients
