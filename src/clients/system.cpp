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
  clients_.push_back(std::move(client));
  stats_.emplace_back();
  fifos_.emplace_back(controller_.config().bytes_per_access());
  outstanding_.push_back(0);
  return *clients_.back();
}

void MemorySystem::deliver_completions(std::uint64_t cycle) {
  controller_.drain_completed_into(completed_scratch_);
  for (const dram::Request& r : completed_scratch_) {
    const std::size_t i = r.client_id;
    stats_[i].completed++;
    if (r.ecc_corrected) stats_[i].corrected_errors++;
    if (r.data_error) stats_[i].data_errors++;
    stats_[i].latency.add(static_cast<double>(r.latency()));
    stats_[i].latency_samples.add(static_cast<double>(r.latency()));
    fifos_[i].on_complete();
    if (outstanding_[i] > 0) --outstanding_[i];
    clients_[i]->notify_complete(r, cycle);
  }
}

void MemorySystem::grant(std::size_t win, std::uint64_t cycle) {
  dram::Request r = clients_[win]->make_request(cycle);
  r.client_id = static_cast<unsigned>(win);
  const bool ok = controller_.enqueue(r);
  require(ok, "memory system: enqueue failed after queue_full check");
  arbiter_->granted(win, controller_.config().bytes_per_access());
  stats_[win].issued++;
  stats_[win].bytes += controller_.config().bytes_per_access();
  fifos_[win].on_issue();
  ++outstanding_[win];
}

void MemorySystem::step() {
  const std::uint64_t cycle = controller_.cycle();

  // 1. Deliver completions.
  deliver_completions(cycle);

  // 2. Arbitration: one enqueue attempt per cycle (the controller accepts
  //    at most one column command per cycle anyway).
  std::vector<bool>& ready = ready_;
  ready.assign(clients_.size(), false);
  bool any_ready = false;
  for (std::size_t i = 0; i < clients_.size(); ++i) {
    ready[i] = clients_[i]->has_request(cycle);
    any_ready = any_ready || ready[i];
  }
  // A channel whose banks have all been retired by the reliability layer
  // accepts nothing; treat it as permanent back-pressure, not a crash.
  if (any_ready && !controller_.queue_full() &&
      !controller_.all_banks_retired()) {
    const std::size_t win = arbiter_->pick(ready);
    if (win != Arbiter::kNone) grant(win, cycle);
  } else if (any_ready) {
    // Back-pressure: every ready client stalls this cycle.
    for (std::size_t i = 0; i < clients_.size(); ++i) {
      if (ready[i]) stats_[i].stall_cycles++;
    }
  }

  // 3. Per-cycle sampling.
  for (std::size_t i = 0; i < clients_.size(); ++i) {
    fifos_[i].sample();
    stats_[i].outstanding.add(static_cast<double>(outstanding_[i]));
  }

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

void MemorySystem::stretch(std::uint64_t end, bool stop_when_done) {
  // Each pass executes one boundary cycle's front-end work inline
  // (delivery, the client scan, at most one arbitration grant), then lets
  // the controller run event to event until the next front-end-visible
  // event, bulk-crediting the sample/stall-only cycles in between. The
  // loop hands the cycle back to per-cycle step() only when it cannot
  // prove the shape: ready clients facing a queue that this cycle's grant
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
    // Completions retired by the last covered tick deliver here — the
    // same cycle the next per-cycle step would deliver them. Safe even
    // when the loop bails below: step() then drains an empty list.
    if (controller_.has_completions()) deliver_completions(now);
    // Scan after the delivery so notify_complete-driven state is visible,
    // as in step(). `wake` is the demand horizon: the first cycle a
    // client that is not ready now may become ready.
    ready_.assign(clients_.size(), false);
    std::uint64_t wake = end;
    bool any_ready = false;
    for (std::size_t i = 0; i < clients_.size(); ++i) {
      const std::uint64_t w = clients_[i]->next_request_cycle(now);
      if (w > now) {
        wake = std::min(wake, w);
      } else {
        ready_[i] = true;
        any_ready = true;
      }
    }

    if (!any_ready) {
      // Quiet: nobody can issue before `wake`, so every step until then
      // would only sample — until a retirement hands the front end a
      // delivery. Freed queue slots matter to nobody here, so the
      // controller runs event to event across them. The previous
      // controller call already ticked or skipped to this cycle, so the
      // stretch opens with a skip to the next event rather than a tick.
      if (!fast_forward_) return;
      const std::uint64_t ne = controller_.next_event_cycle();
      if (ne > now) controller_.advance_idle(std::min(ne, wake) - now);
      while (controller_.cycle() < wake && !controller_.has_completions()) {
        controller_.dense_advance(wake);
      }
      const std::uint64_t k = controller_.cycle() - now;
      for (std::size_t i = 0; i < clients_.size(); ++i) {
        fifos_[i].sample_repeated(k);
        stats_[i].outstanding.add_repeated(
            static_cast<double>(outstanding_[i]), k);
      }
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
    // No grant or delivery happens inside the stretch, so by the
    // readiness rule (Client::next_request_cycle) every ready client stays
    // ready across it.
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
      const std::uint64_t w = clients_[win]->next_request_cycle(now + 1);
      if (w > now + 1) {
        wake = std::min(wake, w);
        ready_[win] = false;
      }
    }
    // Advance the channel to just past its next front-end-visible event
    // (first freed queue slot or retirement), bounded by the demand
    // horizon: until then, the queue stays full — every covered step
    // would only stall-count and sample — and no delivery is pending.
    // Crediting the stretch afterwards is safe: the client-side
    // accumulators are disjoint from the controller's own state.
    controller_.dense_advance(wake);
    const std::uint64_t k = controller_.cycle() - now;
    const bool granted_now = win != Arbiter::kNone;
    for (std::size_t i = 0; i < clients_.size(); ++i) {
      if (ready_[i]) {
        // Ready clients stall on every covered back-pressure cycle; a
        // grant cycle is not one (step() skips the stall branch on grant).
        stats_[i].stall_cycles += k - (granted_now ? 1 : 0);
      }
      fifos_[i].sample_repeated(k);
      stats_[i].outstanding.add_repeated(static_cast<double>(outstanding_[i]),
                                         k);
    }
  }
}

void MemorySystem::run(std::uint64_t cycles) {
  const std::uint64_t end = controller_.cycle() + cycles;
  while (controller_.cycle() < end) {
    step();
    if (fast_forward_ || burst_issue_) stretch(end, false);
  }
}

void MemorySystem::run_to_completion(std::uint64_t max_cycles) {
  const std::uint64_t limit = controller_.cycle() + max_cycles;
  while (controller_.cycle() < limit) {
    if (all_done()) {
      // One more step to deliver completions retired on the final tick.
      step();
      return;
    }
    step();
    if (fast_forward_ || burst_issue_) stretch(limit, true);
  }
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
